/// \file arnoldi.hpp
/// \brief MATEX Arnoldi (Alg. 1 of the paper): Krylov subspace generation
///        with posterior error control, plus subspace reuse and extension.
///
/// The subspace built at a transition spot is an object that outlives the
/// step that created it: inside a PWL segment, any later evaluation point
/// reuses the same V_m / H_m with a rescaled step (Sec. 2.4, Alg. 2 line
/// 11), and -- as an extension over the paper -- the Arnoldi process can be
/// resumed to grow the basis if a reuse evaluation misses its error budget.
#pragma once

#include <optional>
#include <vector>

#include "krylov/operator.hpp"
#include "la/dense_matrix.hpp"

namespace matex::krylov {

/// Options for the Arnoldi process.
struct ArnoldiOptions {
  /// Maximum Krylov dimension m. MEXP on stiff circuits needs hundreds
  /// (Table 1); I-MATEX / R-MATEX converge around 5-15.
  int max_dim = 100;
  /// Error budget epsilon for the posterior estimate (Alg. 1 line 10).
  double tolerance = 1e-6;
  /// Convergence is tested at every iteration up to this dimension, then
  /// every `check_stride` iterations (each test costs an m x m expm, which
  /// dominates for the large bases MEXP needs).
  int dense_check_limit = 16;
  int check_stride = 5;
  /// If true, hitting max_dim without meeting the budget throws
  /// NumericalError; if false the subspace is returned as-is with
  /// converged() == false (the adaptive stepper then shrinks h).
  bool throw_on_stall = false;
};

/// A Krylov subspace K_m(Op, v) together with everything needed to
/// evaluate x(t+h) = beta * V_m e^{h H_m} e_1 at arbitrary h.
class KrylovSubspace {
 public:
  /// Returns beta = ||v|| of the starting vector.
  double beta() const { return beta_; }
  /// Current basis dimension m.
  int dim() const { return m_; }
  /// True if the last grow() met its error budget.
  bool converged() const { return converged_; }
  /// True if the starting vector was (numerically) zero; evaluations
  /// return the zero vector.
  bool trivial() const { return beta_ == 0.0; }
  /// True if the Arnoldi process hit an invariant subspace (happy
  /// breakdown): evaluations are exact, the error estimate is 0.
  bool breakdown() const { return breakdown_; }

  /// The subdiagonal element h_{m+1,m} of the *operator* Hessenberg.
  double subdiagonal() const { return subdiag_; }

  /// The m x m matrix H_m entering the exponential (already transformed
  /// per operator kind).
  const la::DenseMatrix& exponential_matrix() const { return hm_; }

  /// The raw projected Hessenberg of the operator (leading m x m block).
  la::DenseMatrix projected_hessenberg() const;

  /// Basis vector j (0-based, j <= dim()); each has length n.
  std::span<const double> basis_vector(int j) const;

  /// Evaluates y = beta * V_m e^{h H_m} e_1 and returns the posterior
  /// error estimate of Sec. 3.3.3: beta * |h_{m+1,m} * (e^{h H_m} e_1)_m|.
  /// `y` must have the operator dimension.
  double evaluate(double h, std::span<double> y) const;

  /// evaluate() restricted to the given rows: y[p] = (beta * V_m e^{h H_m}
  /// e_1)[rows[p]], bitwise equal to the same rows of evaluate() (the
  /// same multiply-adds per row, in the same column order). `y` must have
  /// rows.size() entries; rows may repeat and come in any order.
  double evaluate_rows(double h, std::span<const la::index_t> rows,
                       std::span<double> y) const;

  /// Cheap variant reusing a precomputed small vector w = e^{h H_m} e_1.
  void combine(std::span<const double> w, std::span<double> y) const;

  /// The small exponential-propagated vector w = e^{h H_m} e_1 (size m).
  std::vector<double> small_solution(double h) const;

  /// Posterior error estimate at step h without forming y.
  double error_estimate(double h) const;

  /// Number of operator applications (pairs of substitutions) consumed by
  /// this subspace across build + extensions. This is the paper's "m" in
  /// the k*m*T_bs cost term.
  int operator_applications() const { return ops_; }

 private:
  friend KrylovSubspace arnoldi(const CircuitOperator& op,
                                std::span<const double> v0, double h,
                                const ArnoldiOptions& options);
  friend bool arnoldi_extend(KrylovSubspace& space, double h,
                             const ArnoldiOptions& options);

  double estimate(std::span<const double> w) const;
  void grow(double h, const ArnoldiOptions& options);
  void finalize();
  void reserve_basis(int max_dim);
  std::span<double> col(int j);
  std::span<const double> col(int j) const;

  const CircuitOperator* op_ = nullptr;
  // Basis vectors v_1..v_{m+1} stored contiguously column-major (stride
  // n): one buffer sized at construction instead of one heap vector per
  // Arnoldi iteration, so grow() performs no per-step allocation.
  std::vector<double> vbuf_;
  int vcount_ = 0;     // columns currently held (m_ or m_ + 1)
  int vcap_ = 0;       // column capacity of vbuf_
  std::vector<double> op_work_;         // persistent apply() workspace
  la::DenseMatrix h_hat_;               // (max_dim+1) x max_dim projections
  la::DenseMatrix hm_;                  // transformed m x m matrix
  // Posterior-estimate ingredients (Eqs. 7/8/10 without the unavailable
  // operator factor): estimate(h) = beta * err_scale * |err_f' e^{hH} e1|.
  std::vector<double> err_f_;
  double err_scale_ = 0.0;
  double beta_ = 0.0;
  double subdiag_ = 0.0;
  int m_ = 0;
  int ops_ = 0;
  bool converged_ = false;
  bool breakdown_ = false;
};

/// Runs Alg. 1: builds K_m(Op, v0) until the posterior error estimate at
/// step h is below options.tolerance or m reaches options.max_dim.
KrylovSubspace arnoldi(const CircuitOperator& op, std::span<const double> v0,
                       double h, const ArnoldiOptions& options = {});

/// Resumes the Arnoldi process of an existing subspace to satisfy a new
/// (typically larger) step h. Returns true if the budget was met. The
/// operator passed at construction must still be alive.
bool arnoldi_extend(KrylovSubspace& space, double h,
                    const ArnoldiOptions& options = {});

}  // namespace matex::krylov
