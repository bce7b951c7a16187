/// \file matex_solver.hpp
/// \brief The MATEX circuit solver (Alg. 2 of the paper).
///
/// One solver instance owns the factorizations made once at t = 0:
///
///   - the Krylov operator's LU (C for MEXP, G for I-MATEX,
///     C + gamma*G for R-MATEX), and
///   - LU(G) for the particular-solution terms (shared with DC analysis;
///     for I-MATEX it *is* the operator factorization).
///
/// The transient loop marches over the input's PWL segments. Within a
/// segment [l, l') with input slope s the exact solution (Eq. 5/6) is
///
///   x(l + h) = e^{hA} (x(l) + F(l)) - F(l + h),
///   F(tau)   = A^{-1} b(tau) + A^{-2} s_b
///            = -G^{-1} B u(tau) + G^{-1} C G^{-1} B s_u,
///
/// which needs only G-solves (this is the regularization-free property of
/// Sec. 3.3.3: C is never inverted). A Krylov subspace for
/// e^{hA} (x(l)+F(l)) is generated once per segment start (the LTS) and
/// *reused* for every evaluation point inside the segment by rescaling
/// e^{h_a H_m} (Alg. 2 line 11); if a reuse evaluation misses the error
/// budget the basis is extended in place, never rebuilt.
///
/// When the solver is at equilibrium inside a quiet segment the Krylov
/// start vector x + F is exactly zero and evaluation is free -- this is
/// why a subtask that only owns one bump does essentially no work outside
/// its own LTS (the distributed speedup of Sec. 3.4).
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "circuit/mna.hpp"
#include "core/input_view.hpp"
#include "krylov/arnoldi.hpp"
#include "krylov/operator.hpp"
#include "runtime/cancel.hpp"
#include "solver/observer.hpp"
#include "solver/stats.hpp"

namespace matex::runtime {
class FactorCache;
}  // namespace matex::runtime

namespace matex::core {

/// Options for the MATEX circuit solver.
struct MatexOptions {
  /// Which Krylov basis to use (MEXP / I-MATEX / R-MATEX).
  krylov::KrylovKind kind = krylov::KrylovKind::kRational;
  /// Rational shift; the paper sets it "around the order of the time
  /// steps used in transient simulation" (1e-10 for the 10ps-grid IBM
  /// runs of Table 3).
  double gamma = 1e-10;
  /// Posterior error budget epsilon of Alg. 1.
  double tolerance = 1e-6;
  /// Krylov dimension cap. I-MATEX/R-MATEX converge around 5-15; MEXP on
  /// stiff circuits needs hundreds (Table 1).
  int max_dim = 100;
  /// On a failed convergence the basis is extended once up to
  /// stall_extension * max_dim before giving up.
  double stall_extension = 2.0;
  /// MEXP only: regularization added to zero diagonal entries of C so the
  /// standard operator can factorize a singular C (Sec. 3.3.3 explains
  /// why I-MATEX / R-MATEX never need this).
  double c_regularization = 0.0;
  la::SparseLuOptions lu_options;
  /// Arnoldi convergence-check cadence (see ArnoldiOptions).
  int dense_check_limit = 16;
  int check_stride = 5;
  /// Regenerate the Krylov subspace at every evaluation point instead of
  /// only at transition spots. This reproduces the fixed-step operating
  /// mode of Table 1 (every method stepping at 5 ps); production runs
  /// leave it off and enjoy the reuse.
  bool regenerate_at_eval_points = false;
  /// Polled once per segment and once per output point of run(); a fired
  /// token aborts the run within one step by throwing CancelledError.
  /// Null = not cancellable. Must outlive the run.
  const runtime::CancelToken* cancel = nullptr;
};

/// MATEX transient solver for one computing node (Alg. 2).
class MatexCircuitSolver {
 public:
  /// Performs the once-per-simulation factorizations.
  /// \param mna assembled system (must outlive the solver). Every input
  ///        waveform must be piecewise linear (throws InvalidArgument
  ///        otherwise); SIN sources go through Waveform::linearized().
  /// \param options solver options
  /// \param g_factors optional shared LU(G) (from DC analysis); when null
  ///        the solver factorizes G itself (except for I-MATEX, where the
  ///        operator factorization is LU(G) already and is reused). For
  ///        I-MATEX a given LU(G) also backs the operator, so the solver
  ///        factorizes nothing.
  /// \param factor_cache optional runtime factorization cache (must
  ///        outlive the solver). When set, the operator LU and LU(G) are
  ///        looked up by matrix content before being computed, so nodes,
  ///        methods, and whole jobs sharing matrices factorize once;
  ///        setup_factorizations() then counts only actual cache misses
  ///        and setup_cache_hits() the factorizations avoided.
  MatexCircuitSolver(const circuit::MnaSystem& mna, MatexOptions options,
                     std::shared_ptr<la::SparseLU> g_factors = nullptr,
                     runtime::FactorCache* factor_cache = nullptr);

  /// Runs the transient from x0 (the DC operating point for the full
  /// input; the zero vector for a superposition subtask).
  ///
  /// \param input which slice of the sources drives this run
  /// \param eval_times sorted times in [t_start, t_end] at which the
  ///        observer is invoked (the solver also steps through every LTS
  ///        internally). Typically the output grid, or GTS for snapshot
  ///        write-back.
  /// \param probes what the observer receives: the full state (the
  ///        default), or the listed unknowns' values in list order. The
  ///        full state is still computed at every segment end, where the
  ///        next Krylov subspace starts; between segment ends only the
  ///        listed rows are evaluated. The values are bitwise equal to the
  ///        same rows of a full-state run. An index outside [0, n) throws
  ///        InvalidArgument. With a null observer the output points
  ///        between segment ends are counted as steps but not evaluated.
  /// Read-only on the solver: concurrent runs share its factorizations
  /// (the distributed scheduler runs every node against one solver).
  solver::TransientStats run(std::span<const double> x0, double t_start,
                             double t_end, const InputView& input,
                             std::span<const double> eval_times,
                             const solver::Observer& observer,
                             const solver::ProbeSet& probes = {}) const;

  /// Number of factorizations performed at construction (the serial cost
  /// the paper excludes from "pure transient computing"). With a factor
  /// cache, hits don't count -- they cost a lookup, not a factorization.
  int setup_factorizations() const { return setup_factorizations_; }
  /// Factorizations satisfied by the cache at construction.
  int setup_cache_hits() const { return setup_cache_hits_; }
  double setup_seconds() const { return setup_seconds_; }

  const krylov::CircuitOperator& krylov_operator() const { return *op_; }

 private:
  const circuit::MnaSystem* mna_;
  MatexOptions options_;
  la::CscMatrix c_regularized_;  // only populated for MEXP + singular C
  std::unique_ptr<krylov::CircuitOperator> op_;
  std::shared_ptr<la::SparseLU> g_factors_;
  int setup_factorizations_ = 0;
  int setup_cache_hits_ = 0;
  double setup_seconds_ = 0.0;
};

}  // namespace matex::core
