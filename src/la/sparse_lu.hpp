/// \file sparse_lu.hpp
/// \brief Sparse LU factorization (left-looking Gilbert-Peierls) with a
///        reusable symbolic analysis and a pattern-reusing numeric phase.
///
/// This is the direct solver at the heart of every method in the paper:
/// the TAU-contest-style flow factorizes once and then performs only pairs
/// of forward/backward substitutions per step (Sec. 1), and MATEX reuses
/// the factors of G and (C + gamma*G) across the whole transient run.
///
/// The factorization is split in two phases:
///
///  - SymbolicLU: the value-independent part -- fill-reducing ordering,
///    pivot sequence, the per-column nonzero patterns of L and U, and a
///    *supernode* plan: runs of adjacent columns whose L reaches chain and
///    whose U patterns agree modulo the diagonal, merged greedily under a
///    relaxed-amalgamation threshold. A gamma/Vdd sweep over one mesh
///    produces matrices with identical sparsity patterns, so one symbolic
///    analysis serves the whole campaign.
///  - numeric refactorization: SparseLU(a, symbolic, options) re-fills the
///    values supernode by supernode with dense rank-k panel updates
///    (kernels in dense_matrix.hpp) -- no depth-first search and no pivot
///    search. It is the one refill kernel; an all-singleton plan
///    (amalg_max_width = 1) runs it column by column. Every plan executes
///    the full factorization's floating-point operation sequence, so the
///    refill compares equal under == to a fresh factorization that picks
///    the same pivots. When the frozen pivot sequence hits a
///    pivot-tolerance violation on the new values, the constructor falls
///    back to a full pivoting factorization (observable via refactored()).
///
/// Design: symmetric fill-reducing pre-ordering (minimum degree),
/// symbolic reach by depth-first search per column, threshold partial
/// pivoting with diagonal preference (KLU-style) so the ordering is
/// respected unless numerics demand otherwise.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "la/ordering.hpp"
#include "la/sparse_csc.hpp"

namespace matex::runtime {
class CancelToken;  // runtime/cancel.hpp
}  // namespace matex::runtime

namespace matex::la {

/// Options controlling the factorization.
struct SparseLuOptions {
  /// Fill-reducing ordering applied symmetrically to rows and columns.
  Ordering ordering = Ordering::kMinDegree;
  /// Diagonal preference: the diagonal entry is chosen as pivot whenever
  /// |a_diag| >= pivot_tol * max|a_col|. 1.0 = strict partial pivoting,
  /// small values keep the fill-reducing order (KLU default is 1e-3).
  double pivot_tol = 1e-3;
  /// Numeric refactorization accepts the frozen pivot of a column only if
  /// |pivot| >= refactor_pivot_tol * max|candidate| (candidates are the
  /// rows the original pivot search chose from). A violation triggers the
  /// full-pivoting fallback.
  double refactor_pivot_tol = 1e-6;
  /// Relaxed-amalgamation threshold, applied at analysis time: adjacent
  /// pivot columns merge into one supernode while the dense panel cells
  /// not backed by an exact L/U entry stay within this fraction of the
  /// panel. 0 admits only exact merges (identical-modulo-diagonal
  /// U patterns and chained L reaches); must be >= 0.
  double amalg_relax = 0.15;
  /// Maximum supernode width (panel columns); bounds the dense workspace.
  /// 1 gives the all-singleton plan (a column-at-a-time refill).
  index_t amalg_max_width = 32;
  /// When non-null, the numeric refill polls this token once per
  /// supernode, so a fired token unwinds the factorization with
  /// CancelledError within one solver step. Not retained.
  const runtime::CancelToken* cancel = nullptr;
};

/// Shape of a supernode plan (see SymbolicLU::supernode_stats()).
struct SupernodeStats {
  index_t supernodes = 0;     ///< number of supernodes (n for all-singleton)
  index_t max_width = 0;      ///< widest panel (columns)
  index_t panel_entries = 0;  ///< dense panel cells across all supernodes
  index_t padded_entries = 0; ///< panel cells with no exact L/U entry
  double avg_width(index_t n) const {
    return supernodes == 0 ? 0.0
                           : static_cast<double>(n) /
                                 static_cast<double>(supernodes);
  }
  double padded_fraction() const {
    return panel_entries == 0
               ? 0.0
               : static_cast<double>(padded_entries) /
                     static_cast<double>(panel_entries);
  }
};

/// The value-independent half of a sparse LU: ordering, pivot sequence,
/// and the nonzero patterns of L and U with per-column topological entry
/// order. Immutable and shareable across any number of numeric
/// refactorizations (and threads).
class SymbolicLU {
 public:
  index_t order() const { return n_; }
  /// Number of nonzeros in L (including the unit diagonal).
  index_t nnz_l() const { return static_cast<index_t>(l_rows_.size()); }
  /// Number of nonzeros in U (including the diagonal).
  index_t nnz_u() const { return static_cast<index_t>(u_rows_.size()); }
  /// pattern_fingerprint() of the matrix this analysis was computed from;
  /// refactorization requires a matching fingerprint.
  std::uint64_t pattern_fp() const { return pattern_fp_; }

  /// Number of supernodes in the plan (== order() when every pivot column
  /// is its own singleton supernode).
  index_t num_supernodes() const {
    return static_cast<index_t>(sn_ptr_.empty() ? 0 : sn_ptr_.size() - 1);
  }
  /// Column range of supernode `sn`: pivot columns
  /// [supernode_begin(sn), supernode_begin(sn + 1)).
  index_t supernode_begin(index_t sn) const {
    return sn_ptr_[static_cast<std::size_t>(sn)];
  }
  /// Supernode-plan shape counters (width distribution, padding).
  const SupernodeStats& supernode_stats() const { return sn_stats_; }

  /// Heap bytes held by this analysis (vector capacities, not counting
  /// the object header). Feeds the FactorCache byte budget.
  std::size_t memory_bytes() const {
    auto vec = [](const std::vector<index_t>& v) {
      return v.capacity() * sizeof(index_t);
    };
    return vec(l_colptr_) + vec(l_rows_) + vec(u_colptr_) + vec(u_rows_) +
           vec(pinv_) + vec(q_) + vec(sn_ptr_) + vec(sn_of_) +
           vec(sn_rows_ptr_) + vec(sn_rows_) + vec(sn_panel_ptr_) +
           vec(sn_ne_) + vec(task_ptr_) + vec(task_src_) + vec(task_u0_ptr_) +
           vec(task_u0_) + vec(task_dst_ptr_) + vec(task_dst_) +
           vec(a_scatter_) + vec(u_local_) + vec(l_panel_) + vec(sn_a_ptr_);
  }

 private:
  friend class SparseLU;

  /// Builds the supernode partition and the per-supernode update tasks
  /// from the completed (canonically sorted) L/U patterns, resolving
  /// every scatter destination of the numeric refill to a local
  /// workspace index up front. Called once at the end of the full
  /// factorization; value-independent, so one plan serves every numeric
  /// refactorization sharing this analysis (`a` contributes only its
  /// pattern, which the refactor constructor pins via the fingerprint).
  void build_supernode_plan(const CscMatrix& a,
                            const SparseLuOptions& options);

  index_t n_ = 0;
  std::uint64_t pattern_fp_ = 0;
  // L: unit lower triangular; the pivot (value 1.0, row k after remap) is
  // stored first in each column, followed by the off-diagonal entries in
  // ascending pivot position. U: upper triangular in pivot-position row
  // indices; the diagonal is stored last in each column, preceded by the
  // off-diagonal entries in ascending pivot position -- the canonical
  // replay order shared by the full factorization and the supernodal
  // refill (what makes both produce identical floating-point operation
  // sequences on every plan).
  std::vector<index_t> l_colptr_, l_rows_;
  std::vector<index_t> u_colptr_, u_rows_;
  std::vector<index_t> pinv_;  // original row index -> pivot position
  std::vector<index_t> q_;     // column ordering (new j -> old column)

  // ---- Supernode plan (value-independent, shared by refactorizations).
  // Supernode sn spans pivot columns [sn_ptr_[sn], sn_ptr_[sn+1]) and owns
  // a dense panel whose rows are the pooled list
  // sn_rows_[sn_rows_ptr_[sn] .. sn_rows_ptr_[sn+1]) -- the union of the
  // member columns' L patterns in ascending pivot position, whose first
  // `width` entries are the diagonal block. The panel itself occupies
  // |rows| * width doubles at sn_panel_ptr_[sn] of a pooled buffer.
  std::vector<index_t> sn_ptr_;
  std::vector<index_t> sn_of_;  // pivot column -> supernode
  std::vector<index_t> sn_rows_ptr_, sn_rows_;
  std::vector<index_t> sn_panel_ptr_;
  // Per-supernode workspace geometry: the numeric kernel accumulates each
  // target column in a compressed column of sn_ne_[sn] external-U rows,
  // then the |rows| panel rows, then one trash row that absorbs padded
  // source cells reaching outside the target structure (they only ever
  // carry exact zeros). Leading dimension = sn_ne_ + |rows| + 1.
  std::vector<index_t> sn_ne_;
  // External update tasks of target supernode T:
  // [task_ptr_[T], task_ptr_[T+1]), ordered by ascending source
  // supernode (the canonical replay order). Task `k` applies source
  // supernode task_src_[k]; task_u0_[task_u0_ptr_[k] + t] is the first
  // source column (offset within the source) present in target column
  // t's exact U pattern, or the source width when column t takes no
  // update from this source. task_dst_[task_dst_ptr_[k] + di] maps the
  // source panel row di into the target workspace.
  std::vector<index_t> task_ptr_, task_src_;
  std::vector<index_t> task_u0_ptr_, task_u0_;
  std::vector<index_t> task_dst_ptr_, task_dst_;
  // Numeric-phase scatter/gather indices resolved at analysis time:
  //  - a_scatter_: workspace row of every A entry, in the order the
  //    refactorization walks them (supernode-major, column-major);
  //  - u_local_: aligned with u_rows_; workspace row for external
  //    entries, ne + panel row for intra entries (read from the panel);
  //  - l_panel_: aligned with l_rows_; panel row of each off-diagonal L
  //    entry (the leading unit-diagonal slot is unused).
  std::vector<index_t> a_scatter_, u_local_, l_panel_;
  // Per-supernode offset into a_scatter_: supernode sn's A entries are
  // a_scatter_[sn_a_ptr_[sn] .. sn_a_ptr_[sn+1]).
  std::vector<index_t> sn_a_ptr_;
  index_t max_workspace_cells_ = 0;  ///< max (ne + rows + 1) * width
  index_t max_panel_rows_ = 0;       ///< tallest panel (gather scratch size)
  SupernodeStats sn_stats_;
};

/// Reusable scratch for the sparse-right-hand-side solve (reach stacks,
/// marks, and the dense accumulator). One per calling thread.
class SparseRhsWorkspace {
 public:
  SparseRhsWorkspace() = default;
  explicit SparseRhsWorkspace(index_t n) { resize(n); }
  void resize(index_t n);
  index_t size() const { return n_; }

 private:
  friend class SparseLU;
  index_t n_ = 0;
  std::vector<double> x_;           // dense accumulator (kept all-zero)
  std::vector<char> marked_;        // kept all-zero between calls
  std::vector<index_t> reach_l_, reach_u_;
  std::vector<index_t> node_stack_, pos_stack_;
};

/// LU factors of a square sparse matrix with row pivoting and symmetric
/// fill-reducing column ordering: P*A*Q = L*U. The pattern/pivot half
/// lives in a shared SymbolicLU; this class owns only the numeric values.
class SparseLU {
 public:
  /// Factorizes `a` from scratch (symbolic + numeric). Throws
  /// NumericalError if structurally or numerically singular.
  explicit SparseLU(const CscMatrix& a, SparseLuOptions options = {});

  /// Numeric refactorization: re-fills the values of `a` along the cached
  /// pattern of `symbolic` (no ordering, no DFS, no pivot search). `a`
  /// must have exactly the sparsity pattern the analysis was built from
  /// (checked via pattern_fingerprint()). If the frozen pivot sequence
  /// violates options.refactor_pivot_tol on the new values, falls back to
  /// a full pivoting factorization of `a` (refactored() then returns
  /// false and symbolic() is a fresh analysis). Throws NumericalError if
  /// `a` is singular.
  SparseLU(const CscMatrix& a, std::shared_ptr<const SymbolicLU> symbolic,
           SparseLuOptions options = {});

  /// True if this factorization was produced by the fast numeric-only
  /// path (no pivot-tolerance violation).
  bool refactored() const { return refactored_; }

  /// The shared symbolic analysis (never null).
  const std::shared_ptr<const SymbolicLU>& symbolic() const { return sym_; }

  /// Solves A x = b in place (b must have order() elements).
  /// Thread-safe: concurrent solves against one factorization are
  /// allowed (each call uses its own scratch workspace).
  void solve_in_place(std::span<double> b) const;

  /// Workspace-reusing variant for hot loops: `work` must have order()
  /// elements and be private to the calling thread. Performs no heap
  /// allocation.
  void solve_in_place(std::span<double> b, std::span<double> work) const;

  /// Solves A x = b.
  std::vector<double> solve(std::span<const double> b) const;

  /// Sparse-right-hand-side solve: A x = b where b is given as nonzero
  /// coordinates `rhs_rows` / `rhs_vals` (indices need not be sorted but
  /// must be distinct). Only the rows reachable from the RHS pattern are
  /// touched: the substitutions are restricted to the symbolic reach in L
  /// and U, which is what makes the localized per-node current-source
  /// vectors of the distributed scheduler cheap. `x` must be all zeros on
  /// entry and have order() elements; on return it holds the solution and
  /// the returned span lists the positions that may now be nonzero (so
  /// the caller can re-zero `x` in O(|reach|)). The returned span points
  /// into `ws` and is invalidated by the next call. Performs no heap
  /// allocation. The substitutions run in the dense solve's operation
  /// order, so every reached entry is bitwise identical to solve();
  /// positions outside the reach hold +0.0 (where the dense path may
  /// produce -0.0), which compares equal under ==.
  std::span<const index_t> solve_sparse_rhs(std::span<const index_t> rhs_rows,
                                            std::span<const double> rhs_vals,
                                            std::span<double> x,
                                            SparseRhsWorkspace& ws) const;

  index_t order() const { return sym_->order(); }

  /// Number of nonzeros in L (including the unit diagonal).
  index_t nnz_l() const { return sym_->nnz_l(); }
  /// Number of nonzeros in U (including the diagonal).
  index_t nnz_u() const { return sym_->nnz_u(); }
  /// Fill ratio (nnz(L)+nnz(U)) / nnz(A).
  double fill_ratio() const { return fill_ratio_; }

  /// Smallest |pivot| encountered; tiny values indicate near-singularity.
  double min_abs_pivot() const { return min_pivot_; }

  /// Heap bytes held by this factorization: numeric values plus the
  /// symbolic analysis. The symbolic half may be shared with other
  /// factorizations, so summing memory_bytes() over a set of factors
  /// over-counts shared analyses -- a deliberately conservative estimate
  /// for the FactorCache byte budget.
  std::size_t memory_bytes() const {
    return (l_vals_.capacity() + u_vals_.capacity()) * sizeof(double) +
           (sym_ ? sym_->memory_bytes() : 0);
  }

 private:
  /// Full Gilbert-Peierls factorization (symbolic + numeric).
  void factorize_full(const CscMatrix& a, const SparseLuOptions& options);
  /// Numeric-only refill along sym_'s supernode plan: dense rank-k panel
  /// updates. Returns false on a pivot-tolerance violation (values are
  /// then unspecified); throws CancelledError when options.cancel fires
  /// mid-refill.
  bool refactor_numeric(const CscMatrix& a, const SparseLuOptions& options);
  /// One supernode of the refill: scatter A, apply the external
  /// update tasks in ascending source order, factorize the panel, write
  /// the factor values. `wbuf`/`z` are caller-owned scratch
  /// (max_workspace_cells_ / max_panel_rows_ doubles); `min_pivot`
  /// accumulates the smallest |pivot| seen. Returns false on a
  /// pivot-tolerance trip.
  bool refill_supernode(const CscMatrix& a, const SparseLuOptions& options,
                        index_t sn, double* wbuf, double* z, double* panels,
                        double& min_pivot);

  std::shared_ptr<const SymbolicLU> sym_;
  std::vector<double> l_vals_;
  std::vector<double> u_vals_;
  double fill_ratio_ = 0.0;
  double min_pivot_ = 0.0;
  bool refactored_ = false;
};

}  // namespace matex::la
