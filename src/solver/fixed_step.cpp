#include "solver/fixed_step.hpp"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "la/error.hpp"
#include "la/sparse_lu.hpp"
#include "obs/trace.hpp"

namespace matex::solver {

TransientStats run_fixed_step(const circuit::MnaSystem& mna,
                              std::span<const double> x0, StepMethod method,
                              const FixedStepOptions& options,
                              const Observer& observer) {
  obs::Span span("fixed_step", "h", options.h, "n", mna.dimension());
  switch (method) {
    case StepMethod::kTrapezoidal: span.arg("method", "tr"); break;
    case StepMethod::kBackwardEuler: span.arg("method", "be"); break;
    case StepMethod::kForwardEuler: span.arg("method", "fe"); break;
  }
  MATEX_CHECK(options.t_end > options.t_start, "t_end must exceed t_start");
  MATEX_CHECK(options.h > 0.0, "step size must be positive");
  const std::size_t n = static_cast<std::size_t>(mna.dimension());
  MATEX_CHECK(x0.size() == n, "initial state dimension mismatch");

  TransientStats stats;
  Stopwatch total_clock;

  const la::CscMatrix& c = mna.c();
  const la::CscMatrix& g = mna.g();
  const double h = options.h;

  // Pre-factorized implicit system (or C for the explicit method).
  std::unique_ptr<la::SparseLU> lu;
  la::CscMatrix rhs_matrix;  // multiplies x(t) on the right-hand side
  switch (method) {
    case StepMethod::kTrapezoidal:
      lu = std::make_unique<la::SparseLU>(
          la::add_scaled(1.0 / h, c, 0.5, g), options.lu_options);
      rhs_matrix = la::add_scaled(1.0 / h, c, -0.5, g);
      break;
    case StepMethod::kBackwardEuler:
      lu = std::make_unique<la::SparseLU>(la::add_scaled(1.0 / h, c, 1.0, g),
                                          options.lu_options);
      rhs_matrix = la::add_scaled(1.0 / h, c, 0.0, g);
      break;
    case StepMethod::kForwardEuler:
      // x(t+h) = x + h C^{-1} (B u - G x): requires a non-singular C.
      try {
        lu = std::make_unique<la::SparseLU>(c, options.lu_options);
      } catch (const NumericalError&) {
        throw InvalidArgument(
            "forward Euler requires a nonsingular C; this deck has "
            "algebraic unknowns (non-eliminated voltage sources or "
            "capacitance-free nodes) -- use an implicit method");
      }
      break;
  }
  stats.factorizations = 1;

  std::vector<double> x(x0.begin(), x0.end());
  std::vector<double> rhs(n), u_now(static_cast<std::size_t>(
                                mna.input_count())),
      u_next(static_cast<std::size_t>(mna.input_count()));
  std::vector<double> scratch(n), lu_work(n);

  if (observer) observer(options.t_start, x);

  Stopwatch transient_clock;
  double t = options.t_start;
  const double t_eps = (options.t_end - options.t_start) * 1e-12;
  long long k = 0;
  // Steps land on t_start + k*h by construction (no floating-point drift);
  // the final step (if partial) lands exactly on t_end.
  while (t < options.t_end - t_eps) {
    runtime::poll_cancel(options.cancel);
    ++k;
    double t_next = options.t_start + static_cast<double>(k) * h;
    if (t_next > options.t_end - t_eps) t_next = options.t_end;
    // Whole steps use the factored h exactly; only a trailing partial step
    // differs.
    const bool shortened = (options.t_end - t) < h * (1.0 - 1e-9) &&
                           t_next == options.t_end;
    const double step = shortened ? options.t_end - t : h;
    if (shortened && method != StepMethod::kForwardEuler) {
      // Final partial step needs its own factorization. The shifted
      // system has the same sparsity pattern for every step size, so the
      // numeric phase reuses the symbolic analysis of the main factor.
      const double a = 1.0 / step;
      const double b = method == StepMethod::kTrapezoidal ? 0.5 : 1.0;
      lu = std::make_unique<la::SparseLU>(la::add_scaled(a, c, b, g),
                                          lu->symbolic(),
                                          options.lu_options);
      rhs_matrix = la::add_scaled(
          a, c, method == StepMethod::kTrapezoidal ? -0.5 : 0.0, g);
      ++stats.factorizations;
      if (lu->refactored()) ++stats.refactorizations;
    }
    switch (method) {
      case StepMethod::kTrapezoidal: {
        rhs_matrix.multiply(x, rhs);
        mna.input_at(t, u_now);
        mna.input_at(t + step, u_next);
        for (std::size_t k = 0; k < u_now.size(); ++k)
          u_now[k] = 0.5 * (u_now[k] + u_next[k]);
        mna.b().multiply_add(1.0, u_now, rhs);
        lu->solve_in_place(rhs, lu_work);
        std::swap(x, rhs);
        break;
      }
      case StepMethod::kBackwardEuler: {
        rhs_matrix.multiply(x, rhs);
        mna.input_at(t + step, u_next);
        mna.b().multiply_add(1.0, u_next, rhs);
        lu->solve_in_place(rhs, lu_work);
        std::swap(x, rhs);
        break;
      }
      case StepMethod::kForwardEuler: {
        // scratch = B u(t) - G x(t)
        mna.input_at(t, u_now);
        mna.b().multiply(u_now, scratch);
        g.multiply_add(-1.0, x, scratch);
        lu->solve_in_place(scratch, lu_work);
        for (std::size_t i = 0; i < n; ++i) x[i] += step * scratch[i];
        break;
      }
    }
    ++stats.solves;
    ++stats.steps;
    t = t_next;
    if (observer) observer(t, x);
  }
  stats.transient_seconds = transient_clock.seconds();
  stats.total_seconds = total_clock.seconds();
  span.arg("steps", stats.steps);
  return stats;
}

}  // namespace matex::solver
