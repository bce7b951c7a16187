#include "core/matex_solver.hpp"

#include <algorithm>
#include <cmath>

#include "la/error.hpp"
#include "la/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/factor_cache.hpp"
#include "runtime/failpoint.hpp"

namespace matex::core {
namespace {

/// Sign-aware MEXP regularization of a singular C (cf. Chen, Weng, Cheng
/// TCAD'12 for the principled version this stands in for): every zero
/// diagonal gets +delta on *node* rows (a tiny parasitic capacitance to
/// ground) but -delta on *branch* rows (kept voltage sources).
///
/// The sign split is load-bearing. A kept vsource makes the algebraic
/// block of G indefinite ([[G_pp, A], [A', 0]] with incidence A), so a
/// uniform +delta hands -C^{-1}G a *positive* eigenvalue ~ +g/delta and
/// the exponential propagator overflows within one segment. With the
/// branch rows at -delta the perturbed energy V = (|v|^2 + |i|^2) d/2
/// obeys dV/dt = -v' G_pp v <= 0 (the A cross terms cancel), so every
/// spurious mode decays and MEXP stays finite on vsource decks.
/// Inductor branch rows carry L on the diagonal and are never touched.
la::CscMatrix regularize_c(const la::CscMatrix& c, double delta,
                           la::index_t node_unknowns) {
  const auto diag = c.diagonal();
  la::TripletMatrix t(c.rows(), c.cols());
  for (la::index_t j = 0; j < c.cols(); ++j)
    for (la::index_t p = c.col_ptr()[j]; p < c.col_ptr()[j + 1]; ++p)
      t.add(c.row_idx()[p], j, c.values()[p]);
  for (la::index_t i = 0; i < c.rows(); ++i)
    if (diag[static_cast<std::size_t>(i)] == 0.0)
      t.add(i, i, i < node_unknowns ? delta : -delta);
  return t.to_csc();
}

}  // namespace

MatexCircuitSolver::MatexCircuitSolver(const circuit::MnaSystem& mna,
                                       MatexOptions options,
                                       std::shared_ptr<la::SparseLU> g_factors,
                                       runtime::FactorCache* factor_cache)
    : mna_(&mna), options_(options), g_factors_(std::move(g_factors)) {
  MATEX_CHECK(options_.tolerance > 0.0, "tolerance must be positive");
  MATEX_CHECK(options_.max_dim >= 1, "max_dim must be >= 1");
  MATEX_CHECK(options_.stall_extension >= 1.0,
              "stall_extension must be >= 1");
  // Eq. 5/6 integrate piecewise-linear inputs exactly; a smooth input
  // would be sampled at the LTS only and silently lose accuracy.
  for (la::index_t k = 0; k < mna.input_count(); ++k)
    MATEX_CHECK(mna.input_waveform(k).is_piecewise_linear(),
                "MATEX needs piecewise-linear inputs; run SIN sources "
                "through Waveform::linearized() first");
  solver::Stopwatch sw;
  const la::CscMatrix* c_for_op = &mna.c();
  if (options_.kind == krylov::KrylovKind::kStandard &&
      options_.c_regularization > 0.0) {
    c_regularized_ = regularize_c(mna.c(), options_.c_regularization,
                                  mna.node_unknowns());
    c_for_op = &c_regularized_;
  }
  // Cache lookups are O(nnz) content hashes; fingerprint each matrix
  // once and reuse for the operator and LU(G) lookups.
  std::uint64_t fp_g = 0;
  if (options_.kind == krylov::KrylovKind::kInverted && g_factors_) {
    // I-MATEX's operator is LU(G): adopt the one handed in.
    op_ = std::make_unique<krylov::CircuitOperator>(
        *c_for_op, mna.g(), options_.kind, options_.gamma, g_factors_);
  } else if (factor_cache) {
    fp_g = runtime::fingerprint(mna.g());
    const std::uint64_t fp_c =
        options_.kind == krylov::KrylovKind::kInverted
            ? 0
            : runtime::fingerprint(*c_for_op);
    const auto op_entry = factor_cache->operator_factors(
        fp_c, fp_g, *c_for_op, mna.g(), options_.kind, options_.gamma,
        options_.lu_options);
    op_ = std::make_unique<krylov::CircuitOperator>(
        *c_for_op, mna.g(), options_.kind, options_.gamma, op_entry.factors);
    op_entry.hit ? ++setup_cache_hits_ : ++setup_factorizations_;
  } else {
    op_ = std::make_unique<krylov::CircuitOperator>(
        *c_for_op, mna.g(), options_.kind, options_.gamma,
        options_.lu_options);
    ++setup_factorizations_;
  }
  // The particular-solution terms need LU(G). I-MATEX's operator *is*
  // backed by LU(G), so nothing extra is factorized in that case.
  if (!g_factors_ && options_.kind != krylov::KrylovKind::kInverted) {
    if (factor_cache) {
      const auto g_entry =
          factor_cache->g_factors(fp_g, mna.g(), options_.lu_options);
      g_factors_ = g_entry.factors;
      g_entry.hit ? ++setup_cache_hits_ : ++setup_factorizations_;
    } else {
      g_factors_ =
          std::make_shared<la::SparseLU>(mna.g(), options_.lu_options);
      ++setup_factorizations_;
    }
  }
  setup_seconds_ = sw.seconds();
}

solver::TransientStats MatexCircuitSolver::run(
    std::span<const double> x0, double t_start, double t_end,
    const InputView& input, std::span<const double> eval_times,
    const solver::Observer& observer, const solver::ProbeSet& probes) const {
  const char* kind_name =
      options_.kind == krylov::KrylovKind::kRational   ? "rmatex"
      : options_.kind == krylov::KrylovKind::kInverted ? "imatex"
                                                       : "mexp";
  obs::Span run_span("matex.run", "kind", kind_name, "n",
                     mna_->dimension());
  obs::Histogram* dim_hist =
      obs::metrics_enabled()
          ? &obs::MetricsRegistry::global().histogram("krylov.dim", 1.0,
                                                      1024.0)
          : nullptr;
  MATEX_CHECK(t_end > t_start, "t_end must exceed t_start");
  const std::size_t n = static_cast<std::size_t>(mna_->dimension());
  MATEX_CHECK(x0.size() == n, "initial state dimension mismatch");
  probes.check(n);
  MATEX_CHECK(input.count() == mna_->input_count(),
              "input view does not match the MNA system");
  MATEX_CHECK(std::is_sorted(eval_times.begin(), eval_times.end()),
              "eval_times must be sorted");
  const double t_eps = (t_end - t_start) * 1e-12;
  if (!eval_times.empty())
    MATEX_CHECK(eval_times.front() >= t_start - t_eps &&
                    eval_times.back() <= t_end + t_eps,
                "eval_times must lie within [t_start, t_end]");

  solver::TransientStats stats;
  solver::Stopwatch transient_clock;

  const la::SparseLU& glu = g_factors_
                                ? *g_factors_
                                : op_->factorization();  // I-MATEX: LU(G)

  // DAE consistency guard: rows of C without entries carry algebraic
  // constraints 0 = (-G x + B u)_i; an initial state violating them has
  // no classical solution and the exponential propagator would amplify
  // the inconsistent component without bound. (Start from the DC
  // operating point, or from the zero state with zero initial input.)
  {
    std::vector<char> c_row_empty(n, 1);
    for (la::index_t p = 0; p < mna_->c().nnz(); ++p)
      c_row_empty[static_cast<std::size_t>(mna_->c().row_idx()[p])] = 0;
    std::vector<double> u0(static_cast<std::size_t>(input.count()));
    input.value(t_start, u0);
    std::vector<double> r(n);
    mna_->b().multiply(u0, r);
    mna_->g().multiply_add(-1.0, x0, r);
    const double scale = mna_->g().norm1() * (la::norm_inf(x0) + 1e-300) +
                         la::norm_inf(r) + 1e-300;
    for (std::size_t i = 0; i < n; ++i)
      MATEX_CHECK(!c_row_empty[i] || std::abs(r[i]) <= 1e-6 * scale,
                  "initial state is inconsistent with the algebraic "
                  "constraints of the DAE (row " +
                      std::to_string(i) +
                      "); start from the DC operating point");
  }

  // Segment boundaries: t_start, the view's LTS, t_end (and, in
  // fixed-regeneration mode used for Table 1, every evaluation point).
  std::vector<double> bounds;
  bounds.push_back(t_start);
  for (double s : input.transition_spots(t_start, t_end))
    if (s > t_start + t_eps && s < t_end - t_eps) bounds.push_back(s);
  if (options_.regenerate_at_eval_points)
    for (double s : eval_times)
      if (s > t_start + t_eps && s < t_end - t_eps) bounds.push_back(s);
  bounds.push_back(t_end);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  std::vector<double> x(x0.begin(), x0.end());
  // Observed values: the full state, or the probe rows in probe order.
  const std::vector<la::index_t>& rows = probes.indices();
  std::vector<double> yp(rows.size());
  const auto observe = [&](double t, std::span<const double> state) {
    if (probes.all()) {
      observer(t, state);
      return;
    }
    for (std::size_t p = 0; p < rows.size(); ++p)
      yp[p] = state[static_cast<std::size_t>(rows[p])];
    observer(t, yp);
  };
  std::size_t eval_idx = 0;
  const auto emit_at_or_before = [&](double t_bound,
                                     std::span<const double> state) {
    while (eval_idx < eval_times.size() &&
           eval_times[eval_idx] <= t_bound + t_eps) {
      if (observer) observe(eval_times[eval_idx], state);
      ++eval_idx;
    }
  };
  emit_at_or_before(t_start, x);

  const std::size_t nu = static_cast<std::size_t>(input.count());
  std::vector<double> u(nu), du(nu);
  std::vector<double> tmp(n), w1(n), ws(n), w2(n), v(n);
  std::vector<double> y(probes.all() ? n : 0);  // full interior states
  std::vector<double> lu_work(n);
  // Sparse-RHS machinery for the particular-solution solves: B u and
  // B u' are localized (a handful of current-source rows per node in the
  // distributed decomposition), so the triangular substitutions are
  // restricted to the symbolic reach of that pattern. The pattern of the
  // previous segment's solution is kept so w1/ws can be re-zeroed in
  // O(|reach|).
  la::SparseRhsWorkspace sparse_ws(mna_->dimension());
  std::vector<la::index_t> rhs_idx, w1_pattern, ws_pattern;
  rhs_idx.reserve(n);
  w1_pattern.reserve(n);
  ws_pattern.reserve(n);
  std::vector<double> rhs_vals;
  rhs_vals.reserve(n);
  // tmp_in -> (w_out, pattern_out): w_out = G^{-1} tmp_in via the
  // reach-restricted solve; bitwise identical to the dense solve.
  const auto solve_particular = [&](std::span<const double> tmp_in,
                                    std::span<double> w_out,
                                    std::vector<la::index_t>& pattern_out) {
    for (const la::index_t i : pattern_out)
      w_out[static_cast<std::size_t>(i)] = 0.0;
    pattern_out.clear();
    rhs_idx.clear();
    rhs_vals.clear();
    for (std::size_t i = 0; i < tmp_in.size(); ++i)
      if (tmp_in[i] != 0.0) {
        rhs_idx.push_back(static_cast<la::index_t>(i));
        rhs_vals.push_back(tmp_in[i]);
      }
    if (rhs_idx.empty()) return false;
    const auto pattern =
        glu.solve_sparse_rhs(rhs_idx, rhs_vals, w_out, sparse_ws);
    pattern_out.assign(pattern.begin(), pattern.end());
    ++stats.solves;
    return true;
  };

  krylov::ArnoldiOptions aopts;
  aopts.max_dim = options_.max_dim;
  aopts.tolerance = options_.tolerance;
  aopts.dense_check_limit = options_.dense_check_limit;
  aopts.check_stride = options_.check_stride;
  aopts.throw_on_stall = false;

  for (std::size_t seg = 0; seg + 1 < bounds.size(); ++seg) {
    runtime::poll_cancel(options_.cancel);
    MATEX_FAILPOINT("solver.step");
    const double l = bounds[seg];
    const double r = bounds[seg + 1];
    if (r - l <= t_eps) continue;
    const double h_seg = r - l;

    // --- particular-solution ingredients for this PWL segment:
    // F(l + ha) = -w1 - ha*ws + w2.
    input.value(l, u);
    mna_->b().multiply(u, tmp);
    solve_particular(tmp, w1, w1_pattern);
    // Segment slope as a finite difference over the segment endpoints:
    // exact for PWL inputs and, unlike slope_after(l), immune to
    // floating-point boundary round-off (at l = delay + rise the pulse's
    // local time can land a few ulps inside the previous piece and
    // misreport that piece's slope).
    input.value(r, du);
    for (std::size_t k2 = 0; k2 < nu; ++k2)
      du[k2] = (du[k2] - u[k2]) / h_seg;
    mna_->b().multiply(du, tmp);
    if (!solve_particular(tmp, ws, ws_pattern)) {
      la::set_zero(w2);
    } else {
      mna_->c().multiply(ws, tmp);
      la::copy(tmp, w2);
      glu.solve_in_place(w2, lu_work);
      ++stats.solves;
    }

    // --- Krylov subspace at the segment's LTS (Alg. 2 line 7).
    for (std::size_t i = 0; i < n; ++i) v[i] = x[i] - w1[i] + w2[i];
    auto space = krylov::arnoldi(*op_, v, h_seg, aopts);
    if (!space.converged()) {
      krylov::ArnoldiOptions extended = aopts;
      extended.max_dim = static_cast<int>(
          std::ceil(options_.max_dim * options_.stall_extension));
      extended.throw_on_stall = true;
      krylov::arnoldi_extend(space, h_seg, extended);
    }
    if (!space.trivial()) {
      ++stats.krylov_subspaces;
      stats.krylov_dim_total += space.dim();
      stats.krylov_dim_peak = std::max(stats.krylov_dim_peak, space.dim());
      stats.solves += space.operator_applications();
      if (dim_hist != nullptr)
        dim_hist->record(static_cast<double>(space.dim()));
    }

    // --- evaluate by reuse at every point inside the segment (Alg. 2
    // line 11). Only the observed rows are computed there: the full state
    // is needed only at the segment end, where the next subspace starts.
    // Row-restricted evaluation performs each row's operations in the
    // full evaluation's order, so the observed values are bitwise equal.
    const auto eval_full = [&](double ha, std::span<double> out) {
      space.evaluate(ha, out);
      for (std::size_t i = 0; i < n; ++i)
        out[i] += w1[i] + ha * ws[i] - w2[i];
    };
    while (eval_idx < eval_times.size() &&
           eval_times[eval_idx] < r - t_eps) {
      // A segment can hold any number of output points, so the token is
      // polled per point, not only per segment.
      runtime::poll_cancel(options_.cancel);
      const double te = eval_times[eval_idx];
      const double ha = te - l;
      if (!observer) {
        // Unobserved point: counted as a step, nothing to compute.
      } else if (probes.all()) {
        eval_full(ha, y);
        observer(te, y);
      } else {
        space.evaluate_rows(ha, rows, yp);
        for (std::size_t p = 0; p < rows.size(); ++p) {
          const auto i = static_cast<std::size_t>(rows[p]);
          yp[p] += w1[i] + ha * ws[i] - w2[i];
        }
        observer(te, yp);
      }
      ++stats.steps;
      ++eval_idx;
    }
    eval_full(h_seg, x);
    ++stats.steps;
    emit_at_or_before(r, x);
  }

  stats.factorizations = setup_factorizations_;
  stats.transient_seconds = transient_clock.seconds();
  stats.total_seconds = transient_clock.seconds() + setup_seconds_;
  run_span.arg("subspaces", stats.krylov_subspaces)
      .arg("dim_peak", stats.krylov_dim_peak);
  return stats;
}

}  // namespace matex::core
