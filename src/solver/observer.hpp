/// \file observer.hpp
/// \brief Output sampling infrastructure shared by all transient solvers.
///
/// Solvers report (t, x) pairs through an Observer callback; recorders
/// collect full states (small systems), selected probes (large systems),
/// or accumulate error statistics on the fly so that million-sample runs
/// never materialize two full solution histories. The MATEX solvers take a
/// ProbeSet and compute only the observed rows between segment ends.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "la/sparse_csc.hpp"

namespace matex::solver {

/// Callback invoked by solvers at every output time, in increasing t.
/// `x` is the full state, unless the solver was handed a ProbeSet that
/// lists unknowns: then `x` holds exactly those unknowns' values, in list
/// order (one entry per listed index, duplicates included).
using Observer = std::function<void(double t, std::span<const double> x)>;

/// The unknowns an observer receives: every unknown (the default, full
/// states) or a list of unknown indices in any order, duplicates allowed.
class ProbeSet {
 public:
  /// Every unknown, in index order.
  ProbeSet() = default;
  /// Exactly these unknowns, in this order. An empty list observes
  /// nothing (the observer receives empty spans).
  explicit ProbeSet(std::vector<la::index_t> indices)
      : all_(false), indices_(std::move(indices)) {}

  bool all() const { return all_; }
  /// The listed indices (empty when all()).
  const std::vector<la::index_t>& indices() const { return indices_; }
  /// Values per observation on a system of dimension n.
  std::size_t width(std::size_t n) const {
    return all_ ? n : indices_.size();
  }
  /// Throws InvalidArgument unless every index lies in [0, n).
  void check(std::size_t n) const;

 private:
  bool all_ = true;
  std::vector<la::index_t> indices_;
};

/// Records full state vectors (use only for small systems / few samples).
class StateRecorder {
 public:
  void operator()(double t, std::span<const double> x);

  const std::vector<double>& times() const { return times_; }
  const std::vector<std::vector<double>>& states() const { return states_; }
  std::size_t sample_count() const { return times_.size(); }
  /// State at sample i.
  std::span<const double> state(std::size_t i) const { return states_[i]; }

  /// Wraps this recorder as an Observer (the recorder must outlive it).
  Observer observer() {
    return [this](double t, std::span<const double> x) { (*this)(t, x); };
  }

 private:
  std::vector<double> times_;
  std::vector<std::vector<double>> states_;
};

/// Records waveforms of selected unknown indices.
class ProbeRecorder {
 public:
  explicit ProbeRecorder(std::vector<la::index_t> indices);

  /// Picks the probes out of a full state.
  void operator()(double t, std::span<const double> x);
  /// Records the values of a solver run with probe_set(): `x` already
  /// holds the probes, in order.
  void record_probes(double t, std::span<const double> x);

  const std::vector<double>& times() const { return times_; }
  /// Waveform of probe p (aligned with times()).
  const std::vector<double>& waveform(std::size_t p) const {
    return waveforms_[p];
  }
  std::size_t probe_count() const { return indices_.size(); }

  Observer observer() {
    return [this](double t, std::span<const double> x) { (*this)(t, x); };
  }
  /// The probes as a ProbeSet, and the observer for a solver run with it.
  ProbeSet probe_set() const { return ProbeSet(indices_); }
  Observer probe_observer() {
    return [this](double t, std::span<const double> x) {
      record_probes(t, x);
    };
  }

 private:
  std::vector<la::index_t> indices_;
  std::vector<double> times_;
  std::vector<std::vector<double>> waveforms_;
};

/// Uniform output grid: t_start, t_start+dt, ..., t_end (inclusive, with
/// the last point clamped to t_end).
std::vector<double> uniform_grid(double t_start, double t_end, double dt);

/// Online error statistics between two solution streams on a shared grid.
struct ErrorStats {
  double max_abs = 0.0;
  double sum_abs = 0.0;
  std::size_t count = 0;
  double mean_abs() const { return count == 0 ? 0.0 : sum_abs / count; }

  /// Accumulates |a_i - b_i| over all entries.
  void accumulate(std::span<const double> a, std::span<const double> b);
};

}  // namespace matex::solver
