/// \file factor_cache.hpp
/// \brief Process-wide cache of sparse LU factorizations keyed by matrix
///        content.
///
/// Every MATEX method performs its factorizations exactly once per run
/// ("one factorization at the beginning", Sec. 3.3) -- but a *campaign* of
/// related runs repeats them: each emulated slave node of one distributed
/// run factorizes the same G and the same C + gamma*G, every scenario of
/// a gamma/tolerance sweep over one deck re-factorizes LU(G), and repeated
/// jobs over the same deck redo everything. The companion journal work
/// (Zhuang et al., TCAD'16) stresses precisely this amortization across
/// related runs.
///
/// The cache is content-addressed: a key is the 64-bit fingerprint of the
/// factorized matrix (for R-MATEX, the fingerprints of C and G plus the
/// gamma shift), the operator family, and the LU options. Two decks that
/// assemble identical matrices therefore share factors automatically, and
/// I-MATEX's Krylov operator -- which *is* LU(G) -- shares its entry with
/// the particular-solution/DC factorization of every other method.
///
/// Thread-safe: concurrent lookups of the same missing key factorize once
/// (followers wait on the leader's shared_future and count as hits).
/// Eviction is LRU with a configurable capacity; capacity 0 disables
/// caching entirely (every request factorizes, nothing is stored), which
/// gives benches an apples-to-apples uncached baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/thread_annotations.hpp"
#include "krylov/operator.hpp"
#include "la/sparse_csc.hpp"
#include "la/sparse_lu.hpp"

namespace matex::runtime {

/// 64-bit content fingerprint of a sparse matrix (FNV-1a over the shape,
/// pattern, and value bit patterns). Collisions are astronomically
/// unlikely for the handful of matrices a campaign touches; keys also
/// carry the operator family, so a collision additionally needs matching
/// metadata.
std::uint64_t fingerprint(const la::CscMatrix& m);

/// Cache key: which matrix (by content) under which factorization.
struct FactorKey {
  /// What was factorized (determines how fp_a/fp_b/gamma_bits are read).
  enum class Family : int {
    kC = 0,         ///< LU(C) -- MEXP's standard operator
    kG = 1,         ///< LU(G) -- I-MATEX operator, DC, particular solution
    kCGammaG = 2,   ///< LU(C + gamma*G) -- R-MATEX operator
  };

  std::uint64_t fp_a = 0;      ///< fingerprint of C (kC, kCGammaG)
  std::uint64_t fp_b = 0;      ///< fingerprint of G (kG, kCGammaG)
  Family family = Family::kG;
  std::uint64_t gamma_bits = 0;  ///< bit pattern of gamma (kCGammaG)
  int ordering = 0;              ///< la::Ordering of the factorization
  std::uint64_t pivot_bits = 0;  ///< bit pattern of pivot_tol

  friend bool operator==(const FactorKey&, const FactorKey&) = default;
};

/// Counters of a FactorCache (monotonic since construction/clear).
struct FactorCacheStats {
  long long hits = 0;        ///< requests served from the cache
  long long misses = 0;      ///< requests that factorized
  long long evictions = 0;   ///< entries dropped by LRU
  /// Numeric misses whose factorization reused a cached symbolic
  /// analysis (same sparsity pattern, different values): they skipped the
  /// ordering + reach phases entirely.
  long long symbolic_hits = 0;
  /// Symbolic-cache hits whose numeric refactorization violated the
  /// pivot tolerance and fell back to a full pivoting factorization.
  long long refactor_fallbacks = 0;
  /// Leader factorizations that threw a non-cancellation error (the
  /// classified kind is traced as cache.factor_error and the exception
  /// rethrown; the slot is removed so a retry factorizes afresh).
  long long factor_errors = 0;
  /// Leader factorizations that were cancelled mid-flight. The
  /// CancelledError propagates to the cancelled caller only; waiters on
  /// the in-flight slot retry and factorize for themselves instead of
  /// being miscounted as cancelled.
  long long factor_cancellations = 0;
  /// Heap bytes currently held by resident factorizations (a level, not a
  /// monotonic counter; see SparseLU::memory_bytes() for what is counted).
  long long bytes_resident = 0;
  /// Cumulative bytes released by evictions and sheds.
  long long bytes_evicted = 0;
  /// Entries dropped for memory reasons: byte-budget overflow in
  /// max_resident_bytes mode, or an explicit shed() under allocation
  /// pressure (the capacity-LRU `evictions` counter is separate).
  long long budget_sheds = 0;
  double factor_seconds = 0.0;  ///< wall time spent factorizing on misses

  double hit_rate() const {
    const long long total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Content-addressed LRU cache of SparseLU factorizations (see file
/// comment).
class FactorCache {
 public:
  /// \param capacity maximum resident factorizations; 0 disables caching.
  /// \param max_resident_bytes byte budget over the resident
  ///        factorizations (SparseLU::memory_bytes() accounting); once
  ///        exceeded, LRU entries are dropped by bytes until the cache
  ///        fits. 0 = unlimited (entry-count LRU only).
  explicit FactorCache(std::size_t capacity = kDefaultCapacity,
                       std::size_t max_resident_bytes = 0);

  static constexpr std::size_t kDefaultCapacity = 64;

  /// Lookup result: the factors plus whether they came from the cache.
  struct Entry {
    std::shared_ptr<la::SparseLU> factors;
    bool hit = false;
  };

  /// Generic get-or-compute. `factorize` runs at most once per resident
  /// key; concurrent requesters of an in-flight key wait for the leader.
  /// Exceptions from `factorize` propagate to every waiter and the key is
  /// not cached.
  Entry get_or_factorize(
      const FactorKey& key,
      const std::function<std::shared_ptr<la::SparseLU>()>& factorize)
      MATEX_EXCLUDES(mutex_);

  /// LU(G): the factorization DC analysis, the particular-solution terms,
  /// and the I-MATEX operator all share.
  Entry g_factors(const la::CscMatrix& g, const la::SparseLuOptions& options);

  /// The Krylov operator factorization of `kind` (Sec. 3.3): LU(C) for
  /// MEXP, LU(G) for I-MATEX (same entry as g_factors), LU(C + gamma*G)
  /// for R-MATEX.
  Entry operator_factors(const la::CscMatrix& c, const la::CscMatrix& g,
                         krylov::KrylovKind kind, double gamma,
                         const la::SparseLuOptions& options);

  /// Precomputed-fingerprint overloads: lookups are O(nnz) because of the
  /// content hash, so callers that need several entries for the same
  /// matrices (every node solver wants the operator LU *and* LU(G))
  /// should fingerprint once and reuse. `fp_g`/`fp_c` must be
  /// fingerprint(g)/fingerprint(c); `fp_c` is ignored for I-MATEX.
  Entry g_factors(std::uint64_t fp_g, const la::CscMatrix& g,
                  const la::SparseLuOptions& options);
  Entry operator_factors(std::uint64_t fp_c, std::uint64_t fp_g,
                         const la::CscMatrix& c, const la::CscMatrix& g,
                         krylov::KrylovKind kind, double gamma,
                         const la::SparseLuOptions& options);

  std::size_t capacity() const { return capacity_; }
  std::size_t max_resident_bytes() const { return max_resident_bytes_; }
  /// Number of resident (completed) factorizations.
  std::size_t size() const MATEX_EXCLUDES(mutex_);
  /// Number of resident symbolic analyses (pattern-fingerprint keyed).
  std::size_t symbolic_size() const MATEX_EXCLUDES(mutex_);
  FactorCacheStats stats() const MATEX_EXCLUDES(mutex_);
  /// Drops all entries and resets the counters.
  void clear() MATEX_EXCLUDES(mutex_);

  /// Memory-pressure degradation: drops ready entries in LRU order until
  /// at most `target_bytes` remain resident (in-flight leaders are
  /// pinned), counting each drop in stats().budget_sheds. shed(0)
  /// additionally drops the symbolic side cache -- full graceful
  /// degradation to uncached operation. Returns the number of
  /// factorizations dropped. BatchEngine calls this on `bad_alloc`
  /// before retrying a scenario.
  std::size_t shed(std::size_t target_bytes) MATEX_EXCLUDES(mutex_);

 private:
  struct KeyHash {
    std::size_t operator()(const FactorKey& k) const;
  };
  struct Slot {
    std::shared_future<std::shared_ptr<la::SparseLU>> future;
    bool ready = false;
    std::size_t bytes = 0;  ///< memory_bytes() of the resident factors
    std::list<FactorKey>::iterator lru_it;
  };
  /// Key of the symbolic (pattern-only) side cache: values are excluded,
  /// so every same-pattern scenario of a gamma/Vdd sweep maps to one
  /// analysis.
  struct SymbolicKey {
    std::uint64_t pattern_fp = 0;
    int ordering = 0;
    std::uint64_t pivot_bits = 0;
    friend bool operator==(const SymbolicKey&, const SymbolicKey&) = default;
  };
  struct SymbolicKeyHash {
    std::size_t operator()(const SymbolicKey& k) const;
  };
  struct SymbolicSlot {
    std::shared_ptr<const la::SymbolicLU> symbolic;
    std::list<SymbolicKey>::iterator lru_it;
  };

  void evict_excess_locked() MATEX_REQUIRES(mutex_);

  /// Factorizes `m`, reusing a cached symbolic analysis of the same
  /// sparsity pattern when one exists (numeric-only refactorization with
  /// full-pivoting fallback on a pivot-tolerance violation). Stores the
  /// resulting analysis for future same-pattern requests. Runs the
  /// factorization itself, so the cache lock must NOT be held (the
  /// leader/waiter protocol keeps the critical sections to map updates).
  std::shared_ptr<la::SparseLU> factorize_with_symbolic(
      const la::CscMatrix& m, const la::SparseLuOptions& options)
      MATEX_EXCLUDES(mutex_);

  std::size_t capacity_;
  std::size_t max_resident_bytes_;
  mutable core::Mutex mutex_;
  std::unordered_map<FactorKey, Slot, KeyHash> map_ MATEX_GUARDED_BY(mutex_);
  /// Most recently used at the front.
  std::list<FactorKey> lru_ MATEX_GUARDED_BY(mutex_);
  std::unordered_map<SymbolicKey, SymbolicSlot, SymbolicKeyHash>
      symbolic_map_ MATEX_GUARDED_BY(mutex_);
  std::list<SymbolicKey> symbolic_lru_ MATEX_GUARDED_BY(mutex_);
  FactorCacheStats stats_ MATEX_GUARDED_BY(mutex_);
};

}  // namespace matex::runtime
