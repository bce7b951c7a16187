#include "runtime/factor_cache.hpp"

#include <bit>
#include <cstring>

#include "la/error.hpp"
#include "obs/trace.hpp"
#include "runtime/failpoint.hpp"
#include "solver/stats.hpp"

namespace matex::runtime {
namespace {

/// Trace attribute for a key's operator family (stable literals).
const char* family_name(FactorKey::Family family) {
  switch (family) {
    case FactorKey::Family::kC: return "C";
    case FactorKey::Family::kG: return "G";
    case FactorKey::Family::kCGammaG: return "C+gG";
  }
  return "?";
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

template <class T>
void fnv_span(std::uint64_t& h, std::span<const T> v) {
  fnv_bytes(h, v.data(), v.size() * sizeof(T));
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // splitmix64 finalizer: spreads the combined words over all bits.
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

std::uint64_t fingerprint(const la::CscMatrix& m) {
  std::uint64_t h = kFnvOffset;
  const std::int64_t shape[2] = {m.rows(), m.cols()};
  fnv_bytes(h, shape, sizeof(shape));
  fnv_span(h, m.col_ptr());
  fnv_span(h, m.row_idx());
  fnv_span(h, std::span<const double>(m.values()));
  return h;
}

std::size_t FactorCache::KeyHash::operator()(const FactorKey& k) const {
  std::uint64_t h = k.fp_a;
  h = mix(h, k.fp_b);
  h = mix(h, static_cast<std::uint64_t>(k.family));
  h = mix(h, k.gamma_bits);
  h = mix(h, static_cast<std::uint64_t>(k.ordering));
  h = mix(h, k.pivot_bits);
  return static_cast<std::size_t>(h);
}

std::size_t FactorCache::SymbolicKeyHash::operator()(
    const SymbolicKey& k) const {
  std::uint64_t h = k.pattern_fp;
  h = mix(h, static_cast<std::uint64_t>(k.ordering));
  h = mix(h, k.pivot_bits);
  return static_cast<std::size_t>(h);
}

std::shared_ptr<la::SparseLU> FactorCache::factorize_with_symbolic(
    const la::CscMatrix& m, const la::SparseLuOptions& options) {
  MATEX_FAILPOINT("factor_cache.symbolic");
  if (capacity_ == 0)  // caching disabled: plain full factorization
    return std::make_shared<la::SparseLU>(m, options);

  SymbolicKey key;
  key.pattern_fp = la::pattern_fingerprint(m);
  key.ordering = static_cast<int>(options.ordering);
  key.pivot_bits = std::bit_cast<std::uint64_t>(options.pivot_tol);

  std::shared_ptr<const la::SymbolicLU> sym;
  {
    const core::MutexLock lock(mutex_);
    if (const auto it = symbolic_map_.find(key); it != symbolic_map_.end()) {
      symbolic_lru_.splice(symbolic_lru_.begin(), symbolic_lru_,
                           it->second.lru_it);
      sym = it->second.symbolic;
    }
  }

  // Factorize outside the lock: the numeric-only refactorization when the
  // pattern is known, a full analysis otherwise (or when the frozen pivot
  // sequence is inadmissible for these values -- the refactoring
  // constructor falls back internally).
  const bool had_symbolic = sym != nullptr;
  auto lu = sym ? std::make_shared<la::SparseLU>(m, std::move(sym), options)
                : std::make_shared<la::SparseLU>(m, options);

  const core::MutexLock lock(mutex_);
  if (lu->refactored()) {
    ++stats_.symbolic_hits;
    return lu;
  }
  if (had_symbolic) ++stats_.refactor_fallbacks;
  // Publish (or refresh after a fallback) the symbolic analysis.
  if (const auto it = symbolic_map_.find(key); it != symbolic_map_.end()) {
    it->second.symbolic = lu->symbolic();
    symbolic_lru_.splice(symbolic_lru_.begin(), symbolic_lru_,
                         it->second.lru_it);
  } else {
    symbolic_lru_.push_front(key);
    symbolic_map_.emplace(key,
                          SymbolicSlot{lu->symbolic(), symbolic_lru_.begin()});
    while (symbolic_map_.size() > capacity_) {
      symbolic_map_.erase(symbolic_lru_.back());
      symbolic_lru_.pop_back();
    }
  }
  return lu;
}

FactorCache::FactorCache(std::size_t capacity, std::size_t max_resident_bytes)
    : capacity_(capacity), max_resident_bytes_(max_resident_bytes) {}

FactorCache::Entry FactorCache::get_or_factorize(
    const FactorKey& key,
    const std::function<std::shared_ptr<la::SparseLU>()>& factorize) {
  if (capacity_ == 0) {
    // Caching disabled: factorize unconditionally, keep the miss counters
    // meaningful for uncached-baseline comparisons.
    solver::Stopwatch clock;
    auto factors = factorize();
    const core::MutexLock lock(mutex_);
    ++stats_.misses;
    stats_.factor_seconds += clock.seconds();
    return {std::move(factors), false};
  }

  std::promise<std::shared_ptr<la::SparseLU>> promise;
  for (;;) {
    std::shared_future<std::shared_ptr<la::SparseLU>> leader_future;
    bool wait_for_leader = false;
    {
      const core::MutexLock lock(mutex_);
      const auto it = map_.find(key);
      if (it == map_.end()) {
        ++stats_.misses;
        Slot slot;
        slot.future = promise.get_future().share();
        lru_.push_front(key);
        slot.lru_it = lru_.begin();
        map_.emplace(key, std::move(slot));
        break;  // this caller leads the factorization below
      }
      ++stats_.hits;
      wait_for_leader = !it->second.ready;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      leader_future = it->second.future;
    }
    obs::instant("cache.hit", "family", family_name(key.family),
                 "in_flight", wait_for_leader ? 1 : 0);
    // May wait for an in-flight leader; either way the factorization
    // cost is paid once (a failed leader rethrows here too).
    try {
      return {leader_future.get(), true};
    } catch (const CancelledError&) {
      // The in-flight leader was cancelled -- *its* caller sees the
      // CancelledError, but this caller was not cancelled and must not
      // inherit it (a scenario would be miscounted as cancelled). The
      // slot is erased before the exception is published, so retrying
      // the lookup misses and this caller factorizes for itself.
      continue;
    }
  }

  solver::Stopwatch clock;
  std::shared_ptr<la::SparseLU> factors;
  try {
    MATEX_SPAN("cache.miss", "family", family_name(key.family));
    MATEX_FAILPOINT("factor_cache.insert");
    factors = factorize();
  } catch (...) {
    const auto error = std::current_exception();
    // Classified, not anonymous: cancellations and real failures are
    // counted apart, the traced error_kind is never empty, and the
    // original exception always propagates (CancelledError included --
    // a cancelled prewarm must unwind, not be swallowed into a miss).
    const ClassifiedError classified = classify_exception(error);
    obs::instant("cache.factor_error", "family", family_name(key.family),
                 "kind",
                 obs::trace_enabled() ? obs::intern(classified.kind)
                                      : nullptr);
    {
      // Erase the slot *before* publishing the exception: a waiter woken
      // by a cancelled leader retries its lookup, and the retry must
      // miss (becoming the new leader) rather than find the failed slot
      // again.
      const core::MutexLock lock(mutex_);
      if (classified.cls == ErrorClass::kCancelled)
        ++stats_.factor_cancellations;
      else
        ++stats_.factor_errors;
      const auto it = map_.find(key);
      if (it != map_.end()) {
        lru_.erase(it->second.lru_it);
        map_.erase(it);
      }
    }
    promise.set_exception(error);
    std::rethrow_exception(error);
  }
  promise.set_value(factors);

  const core::MutexLock lock(mutex_);
  stats_.factor_seconds += clock.seconds();
  if (const auto it = map_.find(key); it != map_.end()) {
    it->second.ready = true;
    it->second.bytes = factors->memory_bytes();
    stats_.bytes_resident += static_cast<long long>(it->second.bytes);
  }
  evict_excess_locked();
  return {std::move(factors), false};
}

void FactorCache::evict_excess_locked() {
  const auto over_bytes = [&] {
    return max_resident_bytes_ > 0 &&
           stats_.bytes_resident >
               static_cast<long long>(max_resident_bytes_);
  };
  auto it = lru_.end();
  while ((map_.size() > capacity_ || over_bytes()) && it != lru_.begin()) {
    const bool over_capacity = map_.size() > capacity_;
    --it;
    const auto mit = map_.find(*it);
    if (mit == map_.end() || !mit->second.ready) continue;  // pin in-flight
    obs::instant("cache.evict", "family", family_name(it->family), "bytes",
                 static_cast<double>(mit->second.bytes));
    stats_.bytes_resident -= static_cast<long long>(mit->second.bytes);
    stats_.bytes_evicted += static_cast<long long>(mit->second.bytes);
    // Attribute the drop: plain LRU turnover vs the byte budget.
    if (over_capacity)
      ++stats_.evictions;
    else
      ++stats_.budget_sheds;
    map_.erase(mit);
    it = lru_.erase(it);
  }
}

std::size_t FactorCache::shed(std::size_t target_bytes) {
  const core::MutexLock lock(mutex_);
  std::size_t dropped = 0;
  auto it = lru_.end();
  while (stats_.bytes_resident > static_cast<long long>(target_bytes) &&
         it != lru_.begin()) {
    --it;
    const auto mit = map_.find(*it);
    if (mit == map_.end() || !mit->second.ready) continue;  // pin in-flight
    obs::instant("cache.shed", "family", family_name(it->family), "bytes",
                 static_cast<double>(mit->second.bytes));
    stats_.bytes_resident -= static_cast<long long>(mit->second.bytes);
    stats_.bytes_evicted += static_cast<long long>(mit->second.bytes);
    ++stats_.budget_sheds;
    map_.erase(mit);
    it = lru_.erase(it);
    ++dropped;
  }
  if (target_bytes == 0) {
    // Full degradation: symbolic analyses go too (in-flight factorizations
    // keep theirs alive via shared_ptr).
    symbolic_map_.clear();
    symbolic_lru_.clear();
  }
  return dropped;
}

FactorCache::Entry FactorCache::g_factors(const la::CscMatrix& g,
                                          const la::SparseLuOptions& options) {
  return g_factors(fingerprint(g), g, options);
}

FactorCache::Entry FactorCache::g_factors(std::uint64_t fp_g,
                                          const la::CscMatrix& g,
                                          const la::SparseLuOptions& options) {
  FactorKey key;
  key.family = FactorKey::Family::kG;
  key.fp_b = fp_g;
  key.ordering = static_cast<int>(options.ordering);
  key.pivot_bits = std::bit_cast<std::uint64_t>(options.pivot_tol);
  return get_or_factorize(key,
                          [&] { return factorize_with_symbolic(g, options); });
}

FactorCache::Entry FactorCache::operator_factors(
    const la::CscMatrix& c, const la::CscMatrix& g, krylov::KrylovKind kind,
    double gamma, const la::SparseLuOptions& options) {
  const std::uint64_t fp_c =
      kind == krylov::KrylovKind::kInverted ? 0 : fingerprint(c);
  return operator_factors(fp_c, fingerprint(g), c, g, kind, gamma, options);
}

FactorCache::Entry FactorCache::operator_factors(
    std::uint64_t fp_c, std::uint64_t fp_g, const la::CscMatrix& c,
    const la::CscMatrix& g, krylov::KrylovKind kind, double gamma,
    const la::SparseLuOptions& options) {
  if (kind == krylov::KrylovKind::kInverted)
    return g_factors(fp_g, g, options);

  FactorKey key;
  key.ordering = static_cast<int>(options.ordering);
  key.pivot_bits = std::bit_cast<std::uint64_t>(options.pivot_tol);
  if (kind == krylov::KrylovKind::kStandard) {
    key.family = FactorKey::Family::kC;
    key.fp_a = fp_c;
    return get_or_factorize(
        key, [&] { return factorize_with_symbolic(c, options); });
  }
  MATEX_CHECK(gamma > 0.0, "R-MATEX requires gamma > 0");
  key.family = FactorKey::Family::kCGammaG;
  key.fp_a = fp_c;
  key.fp_b = fp_g;
  key.gamma_bits = std::bit_cast<std::uint64_t>(gamma);
  return get_or_factorize(key, [&] {
    const la::CscMatrix shifted = la::add_scaled(1.0, c, gamma, g);
    return factorize_with_symbolic(shifted, options);
  });
}

std::size_t FactorCache::size() const {
  const core::MutexLock lock(mutex_);
  std::size_t ready = 0;
  for (const auto& [key, slot] : map_)
    if (slot.ready) ++ready;
  return ready;
}

std::size_t FactorCache::symbolic_size() const {
  const core::MutexLock lock(mutex_);
  return symbolic_map_.size();
}

FactorCacheStats FactorCache::stats() const {
  const core::MutexLock lock(mutex_);
  return stats_;
}

void FactorCache::clear() {
  const core::MutexLock lock(mutex_);
  map_.clear();
  lru_.clear();
  symbolic_map_.clear();
  symbolic_lru_.clear();
  stats_ = {};
}

}  // namespace matex::runtime
