/// \file dense_matrix.hpp
/// \brief Column-major dense matrix with the BLAS-2/3 kernels needed by the
///        Krylov/expm machinery (Hessenberg matrices are small and dense).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace matex::la {

/// Dense real matrix, column-major storage.
///
/// This class is intentionally small: MATEX only ever forms dense matrices
/// of Krylov dimension (m <= a few hundred), so the kernels are plain
/// cache-aware loops rather than a full BLAS.
class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// Creates a rows x cols matrix initialized to zero.
  DenseMatrix(std::size_t rows, std::size_t cols);

  /// Creates a matrix from column-major data (size must be rows*cols).
  DenseMatrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  /// Returns the n x n identity.
  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// Element access (no bounds check in release; asserts in debug).
  double& operator()(std::size_t i, std::size_t j) {
    return data_[j * rows_ + i];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[j * rows_ + i];
  }

  /// Raw column-major storage.
  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  /// View of column j.
  std::span<double> col(std::size_t j) {
    return std::span<double>(data_).subspan(j * rows_, rows_);
  }
  std::span<const double> col(std::size_t j) const {
    return std::span<const double>(data_).subspan(j * rows_, rows_);
  }

  /// Returns the leading principal submatrix of order m (for growing
  /// Hessenberg matrices during Arnoldi).
  DenseMatrix top_left(std::size_t m) const;

  /// this := this + a * other (same shape required).
  void add_scaled(double a, const DenseMatrix& other);

  /// Returns this * a (element-wise scaling).
  DenseMatrix scaled(double a) const;

  /// Returns the transpose.
  DenseMatrix transposed() const;

  /// Returns the 1-norm (max column sum of absolute values).
  double norm1() const;

  /// Returns max |a_ij|.
  double norm_max() const;

  /// y := A*x  (y must have rows() elements, x cols() elements).
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// y := A'*x.
  void multiply_transpose(std::span<const double> x, std::span<double> y) const;

  /// Returns A*B.
  DenseMatrix matmul(const DenseMatrix& b) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Returns ||A - B||_max; shapes must match.
double max_abs_diff(const DenseMatrix& a, const DenseMatrix& b);

// ------------------------------------------------------------------------
// Supernode panel kernels (the dense building blocks of SparseLU's
// blocked numeric refactorization). A *panel* is one supernode's slice of
// L in column-major storage with leading dimension ld: rows 0..width-1
// are the diagonal block (unit lower triangular, diagonal holding the U
// pivot), rows width..ld-1 the off-diagonal block, both already scaled by
// their pivots.
//
// Bitwise contract: both kernels apply one source column at a time in
// ascending order with a fused multiply-subtract per element and skip
// zero multipliers -- the exact operation sequence of the full
// Gilbert-Peierls factorization, which is what keeps a refill ==-equal
// to a fresh factorization on every supernode plan.

/// Applies panel columns [u_start, ncols) to the gathered accumulator
/// `z` (ld entries; z[u] is the multiplier of column u): the fused
/// triangular solve against the diagonal block plus the GEMM-style
/// trailing update, z[i] -= panel[i + u*ld] * z[u] for i in (u, ld).
void supernode_apply_updates(const double* panel, std::size_t ld,
                             std::size_t ncols, std::size_t u_start,
                             double* z);

/// Left-looking factorization of a gathered supernode panel under the
/// frozen (diagonal-block) pivot sequence: each column receives the
/// intra-panel updates, its pivot is checked against
/// |pivot| >= pivot_tol * max|candidate| over the column, and the
/// subdiagonal is scaled. Returns false on a pivot-tolerance violation
/// or an exactly zero pivot (panel contents are then unspecified);
/// min_abs_pivot accumulates the smallest |pivot| accepted.
bool supernode_panel_factorize(double* panel, std::size_t ld,
                               std::size_t width, double pivot_tol,
                               double& min_abs_pivot);

}  // namespace matex::la
