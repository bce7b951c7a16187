#include "krylov/arnoldi.hpp"

#include <algorithm>
#include <cmath>

#include "la/error.hpp"
#include "la/expm.hpp"
#include "la/vector_ops.hpp"
#include "obs/trace.hpp"

namespace matex::krylov {
namespace {
/// Relative breakdown threshold: h_{j+1,j} below this times the operator
/// column norm means v_{j+1} lies in the span of the current basis.
constexpr double kBreakdownTol = 1e-13;
}  // namespace

la::DenseMatrix KrylovSubspace::projected_hessenberg() const {
  return h_hat_.top_left(static_cast<std::size_t>(m_));
}

std::span<double> KrylovSubspace::col(int j) {
  const std::size_t n = static_cast<std::size_t>(op_->dimension());
  return {vbuf_.data() + static_cast<std::size_t>(j) * n, n};
}

std::span<const double> KrylovSubspace::col(int j) const {
  const std::size_t n = static_cast<std::size_t>(op_->dimension());
  return {vbuf_.data() + static_cast<std::size_t>(j) * n, n};
}

void KrylovSubspace::reserve_basis(int max_dim) {
  // Reserve capacity for v_1..v_{max_dim + 1} without touching the
  // memory: columns are resized into existence one iteration at a time
  // (never reallocating thanks to the reservation), so a subspace that
  // converges at small m never pays a max_dim-sized zero-fill. reserve()
  // preserves existing columns (the stride n never changes).
  const std::size_t n = static_cast<std::size_t>(op_->dimension());
  if (vcap_ < max_dim + 1) {
    vbuf_.reserve(static_cast<std::size_t>(max_dim + 1) * n);
    vcap_ = max_dim + 1;
  }
  if (op_work_.size() != n) op_work_.resize(n);
}

std::span<const double> KrylovSubspace::basis_vector(int j) const {
  MATEX_CHECK(j >= 0 && j < vcount_, "basis vector index out of range");
  return col(j);
}

void KrylovSubspace::finalize() {
  subdiag_ = h_hat_(static_cast<std::size_t>(m_),
                    static_cast<std::size_t>(m_ - 1));
  hm_ = op_->to_exponential_matrix(
      h_hat_.top_left(static_cast<std::size_t>(m_)));
  // Posterior-estimate functional per operator kind:
  //   standard:  |h_{m+1,m}|  * |e_m'         e^{hH} e1|   (Eq. 7)
  //   inverted:  |h'_{m+1,m}| * |e_m' H'^{-1} e^{hH} e1|   (Eq. 8 without
  //              the operator factor A, which a singular C makes
  //              unavailable; H'^{-1} = H_m)
  //   rational:  |h~_{m+1,m}| * |e_m'         e^{hH} e1|   (the empirical
  //              surrogate the paper recommends in Sec. 3.3.3 -- the full
  //              Eq. 10 carries a 1/gamma factor that is orders of
  //              magnitude too pessimistic in the stiff regime)
  const std::size_t m = static_cast<std::size_t>(m_);
  err_f_.assign(m, 0.0);
  switch (op_->kind()) {
    case KrylovKind::kStandard:
    case KrylovKind::kRational:
      err_f_[m - 1] = 1.0;
      err_scale_ = std::abs(subdiag_);
      break;
    case KrylovKind::kInverted:
      for (std::size_t i = 0; i < m; ++i) err_f_[i] = hm_(m - 1, i);
      err_scale_ = std::abs(subdiag_);
      break;
  }
}

std::vector<double> KrylovSubspace::small_solution(double h) const {
  MATEX_CHECK(m_ > 0, "subspace is empty");
  return la::expm_e1(hm_, h);
}

double KrylovSubspace::estimate(std::span<const double> w) const {
  if (trivial() || breakdown_) return 0.0;
  double fw = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) fw += err_f_[i] * w[i];
  return beta_ * err_scale_ * std::abs(fw);
}

double KrylovSubspace::error_estimate(double h) const {
  if (trivial() || breakdown_) return 0.0;
  return estimate(small_solution(h));
}

void KrylovSubspace::combine(std::span<const double> w,
                             std::span<double> y) const {
  la::set_zero(y);
  if (trivial()) return;
  MATEX_CHECK(w.size() == static_cast<std::size_t>(m_));
  for (int j = 0; j < m_; ++j)
    la::axpy(beta_ * w[static_cast<std::size_t>(j)], col(j), y);
}

double KrylovSubspace::evaluate(double h, std::span<double> y) const {
  if (trivial()) {
    la::set_zero(y);
    return 0.0;
  }
  const auto w = small_solution(h);
  combine(w, y);
  return estimate(w);
}

double KrylovSubspace::evaluate_rows(double h,
                                     std::span<const la::index_t> rows,
                                     std::span<double> y) const {
  MATEX_CHECK(y.size() == rows.size(), "one output per row");
  la::set_zero(y);
  if (trivial()) return 0.0;
  const auto w = small_solution(h);
  // combine()'s axpy sequence, one column at a time, on the listed rows.
  for (int j = 0; j < m_; ++j) {
    const double a = beta_ * w[static_cast<std::size_t>(j)];
    const std::span<const double> v = col(j);
    for (std::size_t p = 0; p < rows.size(); ++p)
      y[p] += a * v[static_cast<std::size_t>(rows[p])];
  }
  return estimate(w);
}

void KrylovSubspace::grow(double h, const ArnoldiOptions& options) {
  MATEX_CHECK(options.max_dim >= 1);
  MATEX_CHECK(options.tolerance > 0.0);
  if (trivial() || breakdown_) {
    converged_ = true;
    return;
  }

  // Ensure the projection and basis stores are large enough (extensions
  // may raise max_dim beyond the original allocation).
  if (h_hat_.cols() < static_cast<std::size_t>(options.max_dim)) {
    la::DenseMatrix bigger(static_cast<std::size_t>(options.max_dim) + 1,
                           static_cast<std::size_t>(options.max_dim));
    for (std::size_t j = 0; j < h_hat_.cols(); ++j)
      for (std::size_t i = 0; i < h_hat_.rows(); ++i)
        bigger(i, j) = h_hat_(i, j);
    h_hat_ = std::move(bigger);
  }
  reserve_basis(options.max_dim);

  converged_ = false;
  // Small solution at the previous convergence check. Successive iterates
  // all live in span(V_m) with V orthonormal, so
  // ||y_m - y_m'|| = beta * ||w_m - pad(w_m')|| exactly; this guards the
  // subdiagonal surrogate, which can be spuriously tiny on stiff systems
  // when h*H_m is strongly negative (the standard-basis failure mode the
  // paper describes in Sec. 2.4).
  std::vector<double> w_prev;
  const auto check_converged = [&](double step) {
    // Hump-aware residual surrogate: beta * |h_{m+1,m}| * max_s |(e^{sH})_{m,1}|
    // sampled at the dyadic intermediate times of the scaling-and-squaring
    // recursion. Evaluating only at s = step underestimates badly on stiff
    // systems where e^{step*H} has already decayed to ~0; the intermediate
    // samples stay large through the hump, so the estimate cannot pass
    // spuriously there. Passing at the *first* check (even m = 1) is
    // deliberate: when C is singular the consistent state is an exact
    // eigenvector of the inverted/rational operator, and forcing one more
    // Arnoldi step would pull a constraint direction into the basis and
    // make H' numerically singular (Sec. 3.3.3 relies on stopping early).
    const auto hump = la::expm_e1_hump(hm_, step, err_f_);
    double est = beta_ * err_scale_ * hump.hump_last_entry;
    if (!w_prev.empty()) {
      // Cauchy safeguard: ||y_m - y_m'|| = beta * ||w_m - pad(w_m')||.
      double diff2 = 0.0;
      for (std::size_t i = 0; i < hump.w.size(); ++i) {
        const double d = hump.w[i] - (i < w_prev.size() ? w_prev[i] : 0.0);
        diff2 += d * d;
      }
      est = std::max(est, beta_ * std::sqrt(diff2));
    }
    w_prev = hump.w;
    return est < options.tolerance;
  };
  const std::size_t n = static_cast<std::size_t>(op_->dimension());
  while (m_ < options.max_dim) {
    const int j = m_;
    // The candidate vector is built directly in the next basis slot: no
    // per-iteration heap traffic on the O(n) path (the resize stays
    // within the reserved capacity and apply() overwrites the column).
    if (vbuf_.size() < static_cast<std::size_t>(j + 2) * n)
      vbuf_.resize(static_cast<std::size_t>(j + 2) * n);
    const std::span<double> w = col(j + 1);
    op_->apply(col(j), w, op_work_);
    ++ops_;
    const double w_norm_before = la::norm2(w);

    // Modified Gram-Schmidt (Alg. 1 lines 4-7).
    for (int i = 0; i <= j; ++i) {
      const double hij = la::dot(w, col(i));
      h_hat_(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) = hij;
      la::axpy(-hij, col(i), w);
    }
    // One conditional reorthogonalization pass: when cancellation removed
    // most of w, a second sweep restores orthogonality (Kahan-Parlett
    // "twice is enough").
    if (la::norm2(w) < 0.5 * w_norm_before) {
      for (int i = 0; i <= j; ++i) {
        const double corr = la::dot(w, col(i));
        h_hat_(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) +=
            corr;
        la::axpy(-corr, col(i), w);
      }
    }

    const double hnext = la::norm2(w);
    h_hat_(static_cast<std::size_t>(j) + 1, static_cast<std::size_t>(j)) =
        hnext;
    m_ = j + 1;

    if (hnext <= kBreakdownTol * std::max(w_norm_before, 1e-300)) {
      // Happy breakdown: the subspace is invariant, evaluation is exact.
      breakdown_ = true;
      finalize();
      subdiag_ = 0.0;
      converged_ = true;
      return;
    }

    la::scale(1.0 / hnext, w);
    vcount_ = m_ + 1;

    const bool check = m_ <= options.dense_check_limit ||
                       m_ % options.check_stride == 0 ||
                       m_ == options.max_dim;
    if (!check) continue;
    try {
      finalize();
    } catch (const NumericalError&) {
      // H' not yet invertible (can happen at very small m for the
      // inverted/rational transforms): keep growing.
      continue;
    }
    if (check_converged(h)) {
      converged_ = true;
      return;
    }
  }
  // The loop always runs a convergence check at m_ == max_dim, so reaching
  // this point means the budget was not met; finalize() only re-syncs hm_
  // in case the last in-loop transform attempt threw.
  finalize();
  if (!converged_ && options.throw_on_stall)
    throw NumericalError(
        std::string("Arnoldi stalled: error budget not met at max_dim=") +
        std::to_string(options.max_dim));
}

KrylovSubspace arnoldi(const CircuitOperator& op, std::span<const double> v0,
                       double h, const ArnoldiOptions& options) {
  obs::Span span("arnoldi", "n", op.dimension(), "h", h);
  MATEX_CHECK(v0.size() == static_cast<std::size_t>(op.dimension()),
              "starting vector dimension mismatch");
  KrylovSubspace s;
  s.op_ = &op;
  s.beta_ = la::norm2(v0);
  if (s.beta_ == 0.0) {
    s.converged_ = true;
    return s;  // trivial subspace: evaluations are identically zero
  }
  s.h_hat_ = la::DenseMatrix(static_cast<std::size_t>(options.max_dim) + 1,
                             static_cast<std::size_t>(options.max_dim));
  s.reserve_basis(options.max_dim);
  s.vbuf_.resize(static_cast<std::size_t>(op.dimension()));
  const auto v1 = s.col(0);
  std::copy(v0.begin(), v0.end(), v1.begin());
  la::scale(1.0 / s.beta_, v1);
  s.vcount_ = 1;
  s.grow(h, options);
  span.arg("dim", s.dim()).arg("converged", s.converged_ ? 1 : 0);
  return s;
}

bool arnoldi_extend(KrylovSubspace& space, double h,
                    const ArnoldiOptions& options) {
  obs::Span span("arnoldi_extend", "h", h, "dim_in", space.dim());
  MATEX_CHECK(space.op_ != nullptr, "subspace was not built by arnoldi()");
  if (space.trivial() || space.breakdown_) return true;
  if (space.m_ > 0 && space.error_estimate(h) < options.tolerance) {
    space.converged_ = true;
    return true;
  }
  space.grow(h, options);
  span.arg("dim", space.dim());
  return space.converged_;
}

}  // namespace matex::krylov
