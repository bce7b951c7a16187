/// \file stats.hpp
/// \brief Counters and timings shared by all transient solvers.
///
/// These counters mirror the cost model of Sec. 3.4: `solves` counts pairs
/// of forward/backward substitutions (T_bs), `factorizations` counts LU
/// decompositions, `krylov_dim_*` track the basis sizes (m_a / m_p of
/// Table 1), and `transient_seconds` excludes factorization and DC so it
/// matches the "pure transient computing" timings of Table 3.
#pragma once

#include <algorithm>
#include <chrono>

namespace matex::solver {

/// Wall-clock stopwatch (steady clock).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Counters and timings returned by every transient solver.
struct TransientStats {
  long long steps = 0;            ///< accepted time steps
  long long rejected_steps = 0;   ///< adaptive rejections
  long long factorizations = 0;   ///< LU decompositions performed
  long long refactorizations = 0; ///< numeric-only pattern-reusing LUs
                                  ///< (subset of factorizations)
  long long solves = 0;           ///< pairs of fwd/bwd substitutions
  long long krylov_subspaces = 0; ///< Krylov subspaces generated
  long long krylov_dim_total = 0; ///< sum of converged dimensions
  int krylov_dim_peak = 0;        ///< m_p of Table 1
  double transient_seconds = 0.0; ///< stepping only (excl. LU and DC)
  double total_seconds = 0.0;     ///< everything including factorization

  /// Average Krylov dimension (m_a of Table 1).
  double krylov_dim_avg() const {
    return krylov_subspaces == 0
               ? 0.0
               : static_cast<double>(krylov_dim_total) /
                     static_cast<double>(krylov_subspaces);
  }

  /// Merges counters from another run (used by the distributed scheduler
  /// to aggregate per-node statistics).
  void merge(const TransientStats& other) {
    steps += other.steps;
    rejected_steps += other.rejected_steps;
    factorizations += other.factorizations;
    refactorizations += other.refactorizations;
    solves += other.solves;
    krylov_subspaces += other.krylov_subspaces;
    krylov_dim_total += other.krylov_dim_total;
    krylov_dim_peak = std::max(krylov_dim_peak, other.krylov_dim_peak);
    transient_seconds = std::max(transient_seconds, other.transient_seconds);
    total_seconds = std::max(total_seconds, other.total_seconds);
  }
};

}  // namespace matex::solver
