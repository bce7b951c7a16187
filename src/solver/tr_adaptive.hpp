/// \file tr_adaptive.hpp
/// \brief Adaptive-step trapezoidal solver with LTE control.
///
/// The classical SPICE-style adaptive flow (Najm, "Circuit Simulation"):
/// the local truncation error of TR, LTE ~ (h^3/12) x''', is estimated
/// from divided differences of the accepted solution history; steps whose
/// LTE exceeds the tolerance are rejected and retried smaller, and easy
/// regions let the step grow. The crucial cost, and the reason the paper
/// uses this method as its adaptive-stepping foil (Table 2): every step
/// size change forces a re-factorization of (C/h + G/2).
#pragma once

#include <span>
#include <vector>

#include "circuit/mna.hpp"
#include "la/sparse_lu.hpp"
#include "runtime/cancel.hpp"
#include "solver/observer.hpp"
#include "solver/stats.hpp"

namespace matex::solver {

/// Options for the adaptive trapezoidal solver.
struct AdaptiveTrOptions {
  double t_start = 0.0;
  double t_end = 0.0;
  double h_init = 0.0;       ///< first step size (> 0)
  double h_min = 0.0;        ///< defaults to h_init * 1e-3 when 0
  double h_max = 0.0;        ///< defaults to (t_end - t_start) / 10 when 0
  double lte_tol = 1e-4;     ///< absolute LTE tolerance (volts)
  /// Land exactly on input transition spots (PWL breakpoints); stepping
  /// across a slope change would poison the LTE estimate.
  bool align_to_transitions = true;
  la::SparseLuOptions lu_options;
  /// Output sample times (sorted ascending). The observer is called at
  /// these times with linearly interpolated states. If empty, the observer
  /// is called at every accepted step instead.
  std::vector<double> output_times;
  /// Polled once per attempted step; a fired token aborts the run within
  /// one step by throwing CancelledError. Null = not cancellable. Must
  /// outlive the run.
  const runtime::CancelToken* cancel = nullptr;
};

/// Runs the adaptive-TR transient simulation. Returns counters including
/// the factorization count that dominates its runtime.
TransientStats run_adaptive_trapezoidal(const circuit::MnaSystem& mna,
                                        std::span<const double> x0,
                                        const AdaptiveTrOptions& options,
                                        const Observer& observer);

}  // namespace matex::solver
