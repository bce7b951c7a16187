#include "solver/tr_adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "la/error.hpp"
#include "la/sparse_lu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace matex::solver {
namespace {

/// ||x'''||_inf estimated from four (t, x) samples via divided differences
/// (x''' ~ 6 * dd3). Restricted to the unknowns in `dynamic`: algebraic
/// unknowns of a singular-C deck (vsource branch currents, capacitance-free
/// nodes) are determined exactly by the constraint rows at every step --
/// they carry no local truncation error, and letting a branch current in
/// amperes drive a volt-scaled LTE budget would starve the step size.
double third_derivative_norm(const std::deque<std::pair<double,
                                                        std::vector<double>>>&
                                 hist,
                             const std::vector<char>& dynamic) {
  const auto& [t1, x1] = hist[0];
  const auto& [t2, x2] = hist[1];
  const auto& [t3, x3] = hist[2];
  const auto& [t4, x4] = hist[3];
  const double d21 = t2 - t1, d32 = t3 - t2, d43 = t4 - t3;
  const double d31 = t3 - t1, d42 = t4 - t2, d41 = t4 - t1;
  double norm = 0.0;
  for (std::size_t i = 0; i < x1.size(); ++i) {
    if (!dynamic[i]) continue;
    const double dd1a = (x2[i] - x1[i]) / d21;
    const double dd1b = (x3[i] - x2[i]) / d32;
    const double dd1c = (x4[i] - x3[i]) / d43;
    const double dd2a = (dd1b - dd1a) / d31;
    const double dd2b = (dd1c - dd1b) / d42;
    const double dd3 = (dd2b - dd2a) / d41;
    norm = std::max(norm, std::abs(6.0 * dd3));
  }
  return norm;
}

}  // namespace

TransientStats run_adaptive_trapezoidal(const circuit::MnaSystem& mna,
                                        std::span<const double> x0,
                                        const AdaptiveTrOptions& options,
                                        const Observer& observer) {
  obs::Span run_span("tr_adaptive", "n", mna.dimension(), "lte_tol",
                     options.lte_tol);
  // Resolved once per run: instrument lookup takes a lock, recording is a
  // few relaxed atomics. Never touches the numeric value flow.
  obs::Histogram* step_hist =
      obs::metrics_enabled()
          ? &obs::MetricsRegistry::global().histogram("tradpt.step_size",
                                                      1e-15, 1e-3)
          : nullptr;
  MATEX_CHECK(options.t_end > options.t_start, "t_end must exceed t_start");
  MATEX_CHECK(options.h_init > 0.0, "h_init must be positive");
  MATEX_CHECK(options.lte_tol > 0.0, "lte_tol must be positive");
  MATEX_CHECK(std::is_sorted(options.output_times.begin(),
                             options.output_times.end()),
              "output_times must be sorted");
  const std::size_t n = static_cast<std::size_t>(mna.dimension());
  MATEX_CHECK(x0.size() == n, "initial state dimension mismatch");

  const double span = options.t_end - options.t_start;
  const double h_min =
      options.h_min > 0.0 ? options.h_min : options.h_init * 1e-3;
  const double h_max = options.h_max > 0.0 ? options.h_max : span / 10.0;
  const double t_eps = span * 1e-12;

  TransientStats stats;
  Stopwatch total_clock;

  const la::CscMatrix& c = mna.c();
  const la::CscMatrix& g = mna.g();

  std::vector<double> gts;
  if (options.align_to_transitions)
    gts = mna.global_transition_spots(options.t_start, options.t_end);

  const std::vector<char> dynamic = mna.dynamic_unknown_mask();

  // Factorization cache keyed by the exact step size. The shifted system
  // C/h + G/2 keeps one sparsity pattern across all step sizes, so every
  // re-factorization after the first is a numeric-only refill along the
  // cached symbolic analysis (no ordering, no DFS).
  std::unique_ptr<la::SparseLU> lu;
  la::CscMatrix rhs_matrix;
  double factored_h = -1.0;
  const auto ensure_factor = [&](double h) {
    if (factored_h == h) return;
    const la::CscMatrix sys = la::add_scaled(1.0 / h, c, 0.5, g);
    if (lu) {
      lu = std::make_unique<la::SparseLU>(sys, lu->symbolic(),
                                          options.lu_options);
      if (lu->refactored()) ++stats.refactorizations;
    } else {
      lu = std::make_unique<la::SparseLU>(sys, options.lu_options);
    }
    rhs_matrix = la::add_scaled(1.0 / h, c, -0.5, g);
    factored_h = h;
    ++stats.factorizations;
  };

  std::deque<std::pair<double, std::vector<double>>> hist;
  hist.emplace_back(options.t_start,
                    std::vector<double>(x0.begin(), x0.end()));

  std::size_t out_idx = 0;
  const auto emit_through = [&](double t_new,
                                std::span<const double> x_new,
                                double t_prev,
                                std::span<const double> x_prev) {
    if (!observer) return;
    if (options.output_times.empty()) {
      observer(t_new, x_new);
      return;
    }
    std::vector<double> interp(n);
    while (out_idx < options.output_times.size() &&
           options.output_times[out_idx] <= t_new + t_eps) {
      const double to = options.output_times[out_idx];
      const double f =
          t_new == t_prev ? 1.0 : (to - t_prev) / (t_new - t_prev);
      for (std::size_t i = 0; i < n; ++i)
        interp[i] = x_prev[i] + f * (x_new[i] - x_prev[i]);
      observer(to, interp);
      ++out_idx;
    }
  };

  // Emit any output points at/before t_start.
  if (observer) {
    if (options.output_times.empty()) {
      observer(options.t_start, hist.back().second);
    } else {
      while (out_idx < options.output_times.size() &&
             options.output_times[out_idx] <= options.t_start + t_eps) {
        observer(options.output_times[out_idx], hist.back().second);
        ++out_idx;
      }
    }
  }

  std::vector<double> rhs(n), x_new(n), lu_work(n);
  std::vector<double> u_now(static_cast<std::size_t>(mna.input_count()));
  std::vector<double> u_next(u_now.size());
  std::size_t gts_idx = 0;

  double t = options.t_start;
  double h_desired = options.h_init;

  Stopwatch transient_clock;
  while (t < options.t_end - t_eps) {
    runtime::poll_cancel(options.cancel);
    // Bound the step by the next transition spot and the horizon.
    while (gts_idx < gts.size() && gts[gts_idx] <= t + t_eps) ++gts_idx;
    double boundary = options.t_end;
    if (gts_idx < gts.size()) boundary = std::min(boundary, gts[gts_idx]);

    double h_use = std::clamp(h_desired, h_min, h_max);
    const double gap = boundary - t;
    // Boundary shaving: a step ending inside (boundary - h_min, boundary)
    // would leave a sliver smaller than h_min whose 1/h blows up the
    // shifted system; stretch such steps to land exactly on the boundary
    // instead (unless the step already lands there within t_eps).
    // When the boundary lies beyond h_max the stretch must not violate
    // the user's step-size cap: split the remaining gap in two instead
    // (gap < h_max + h_min, so the half step respects h_max and the
    // follow-up step stays clear of the dead zone for any h_max >=
    // 2 h_min). When t itself sits closer than h_min to the boundary
    // (adversarially spaced PWL breakpoints), the shaved step is the
    // forced boundary step: smaller than h_min, accepted below.
    if (h_use > gap - h_min && std::abs(h_use - gap) > t_eps)
      h_use = gap <= h_max + t_eps ? gap : 0.5 * gap;
    // A stretched step with gap < 2 h_min is *forced*: every admissible
    // step either lands in the dead zone or on the boundary, so an LTE
    // rejection could only reproduce the identical step (the controller
    // floors at h_min and re-stretches -- a livelock). Accept it like
    // the h_min floor steps; its LTE is bounded by 8x an h_min step's.
    const bool forced_boundary = h_use == gap && gap < 2.0 * h_min;

    ensure_factor(h_use);

    // One TR step (Eq. 2).
    rhs_matrix.multiply(hist.back().second, rhs);
    mna.input_at(t, u_now);
    mna.input_at(t + h_use, u_next);
    for (std::size_t k = 0; k < u_now.size(); ++k)
      u_now[k] = 0.5 * (u_now[k] + u_next[k]);
    mna.b().multiply_add(1.0, u_now, rhs);
    lu->solve_in_place(rhs, lu_work);
    x_new = rhs;
    ++stats.solves;

    // LTE estimate once enough history exists.
    double lte = 0.0;
    if (hist.size() >= 3) {
      hist.emplace_back(t + h_use, x_new);
      lte = third_derivative_norm(hist, dynamic) * h_use * h_use * h_use /
            12.0;
      hist.pop_back();
    }
    const bool accept = hist.size() < 3 || lte <= options.lte_tol ||
                        h_use <= h_min * 1.0001 || forced_boundary;
    if (!accept) {
      ++stats.rejected_steps;
      h_desired =
          h_use * std::clamp(0.9 * std::cbrt(options.lte_tol /
                                             std::max(lte, 1e-300)),
                             0.1, 0.5);
      continue;
    }

    const double t_new = t + h_use;
    emit_through(t_new, x_new, t, hist.back().second);
    hist.emplace_back(t_new, x_new);
    if (hist.size() > 4) hist.pop_front();
    ++stats.steps;
    if (step_hist != nullptr) step_hist->record(h_use);
    t = t_new;

    // Step-size controller for the next step.
    const double grow =
        lte > 0.0
            ? std::clamp(0.9 * std::cbrt(options.lte_tol / lte), 0.5, 2.0)
            : 2.0;
    h_desired = std::clamp(h_use * grow, h_min, h_max);

    // Landing on an input breakpoint invalidates the divided-difference
    // history (the waveform slope changes discontinuously): restart the
    // integration history and begin cautiously, as production simulators
    // do. This is exactly the re-factorization churn around transitions
    // that Fig. 3 contrasts with MATEX's Krylov reuse.
    if (gts_idx < gts.size() && std::abs(t_new - gts[gts_idx]) <= t_eps) {
      while (hist.size() > 1) hist.pop_front();
      h_desired = std::min(h_desired, options.h_init);
    }
  }
  stats.transient_seconds = transient_clock.seconds();

  // Emit any trailing output points (at or beyond t_end).
  if (observer && !options.output_times.empty())
    while (out_idx < options.output_times.size()) {
      observer(options.output_times[out_idx], hist.back().second);
      ++out_idx;
    }

  stats.total_seconds = total_clock.seconds();
  run_span.arg("steps", stats.steps).arg("rejected", stats.rejected_steps);
  return stats;
}

}  // namespace matex::solver
