/// \file batch.hpp
/// \brief The scenario batch engine: many distributed MATEX jobs, one
///        shared thread pool, one shared factorization cache.
///
/// The engine is the campaign-level counterpart of the Fig. 4 scheduler:
/// where the scheduler fans one simulation out over emulated slave nodes,
/// the engine fans a *campaign* (decks x methods x gamma/tolerance/Vdd
/// sweeps) out over whole jobs. Scenarios run concurrently on the shared
/// work-stealing pool; each job's node subtasks are submitted to the same
/// pool (a blocked job helps execute pending work, so nesting cannot
/// deadlock); and every factorization goes through the shared
/// content-addressed cache, so LU(G) and LU(C + gamma*G) are computed
/// once per distinct matrix for the whole campaign.
///
/// Results stream: a sink callback receives each ScenarioResult the
/// moment its job finishes (serialized -- the sink needs no locking), and
/// the final report collects everything plus the cache hit rate and pool
/// counters. A failed scenario is reported with its error message and
/// never sinks the rest of the campaign.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "core/thread_annotations.hpp"
#include "runtime/cancel.hpp"
#include "runtime/factor_cache.hpp"
#include "runtime/scenario.hpp"
#include "runtime/thread_pool.hpp"

namespace matex::runtime {

/// Engine configuration.
struct BatchOptions {
  /// Worker threads of the engine-owned pool; 0 = hardware concurrency.
  /// Ignored when `pool` is set.
  int threads = 0;
  /// External pool to run on (not owned; must outlive the engine).
  ThreadPool* pool = nullptr;
  /// Factorization-cache capacity (distinct factorizations kept resident).
  /// 0 disables caching -- the uncached baseline for benches.
  std::size_t cache_capacity = FactorCache::kDefaultCapacity;
  /// If true (default), run() pre-warms the factorization cache before
  /// the scenario fan-out: the decks' matrices are assembled and their
  /// LU(G) / Krylov-operator factorizations computed up front (parallel
  /// across deck variants, sequential within one variant's gamma sweep so
  /// the sweep deterministically shares a single symbolic analysis).
  /// First-scenario latency on a wide campaign drops to pure transient
  /// cost, and every scenario-side cache lookup is a hit.
  bool prewarm = true;
  /// Byte budget over the cache's resident factorizations (0 = unlimited).
  /// Overflow sheds least-recently-used entries (counted as budget_sheds,
  /// not evictions) instead of failing; see FactorCache.
  std::size_t cache_max_bytes = 0;
  /// Per-scenario deadline in seconds (0 = none), measured from the
  /// scenario job's start -- queue time excluded, so it bounds the
  /// scenario's own work. Exceeding it cancels the scenario within one
  /// solver step; siblings are unaffected.
  double scenario_deadline_seconds = 0.0;
  /// Whole-campaign deadline in seconds from run() entry (0 = none).
  /// Scenarios past the deadline finish as cancelled.
  double campaign_deadline_seconds = 0.0;
  /// External cancellation (e.g. the CLI's SIGINT token). Not owned; must
  /// outlive run(). The campaign token chains to it, so one cancel()
  /// stops every in-flight scenario within one solver step and every
  /// queued one before it starts.
  const CancelToken* cancel = nullptr;
  /// Re-runs allowed per scenario after a *transient* failure (bad_alloc,
  /// pivot-trip NumericalError). Permanent failures (InvalidArgument,
  /// ParseError, ...) and cancellations are never retried.
  int max_retries = 2;
  /// Backoff before retry k: retry_backoff_seconds * 2^(k-1). 0 retries
  /// immediately (what the fault-injection tests use).
  double retry_backoff_seconds = 0.0;
  /// Checkpoint journal path; empty disables checkpoint/resume. When set,
  /// run() restores completed scenarios recorded under matching spec
  /// fingerprints without re-running them and journals each newly
  /// completed one (see runtime/checkpoint.hpp).
  std::string checkpoint_path;
  /// Multi-process sharding (see runtime/shard.hpp): with shard_count > 1
  /// the engine runs only scenarios whose fingerprint maps to
  /// shard_index via shard_of(); the rest are neither run, restored, nor
  /// sunk (counted in BatchReport::sharded_out; their result slots carry
  /// only identity, with attempts == 0 && !ok as the not-run signature).
  /// Placement is a pure function of the spec, so N workers with
  /// disjoint shard_index cover a campaign exactly once.
  int shard_count = 1;
  int shard_index = 0;
};

/// Campaign outcome: per-scenario results in campaign order plus the
/// shared-infrastructure counters.
struct BatchReport {
  std::vector<ScenarioResult> results;
  double wall_seconds = 0.0;       ///< whole-campaign wall time
  /// Scenarios that failed (ok == false and not cancelled). A cancelled
  /// campaign is not a failed one; cancellations count separately.
  int failures = 0;
  int cancelled = 0;   ///< scenarios stopped by cancellation or deadline
  int retries = 0;     ///< transient-failure re-runs across the campaign
  int cache_sheds = 0; ///< emergency cache sheds after bad_alloc
  /// Scenarios restored from the checkpoint journal instead of re-run
  /// (their results carry attempts == 0).
  long long checkpoint_restored = 0;
  /// Unparseable journal lines skipped on load (e.g. crash-truncated).
  long long checkpoint_skipped_lines = 0;
  /// Scenarios belonging to other shards (shard_count > 1), skipped here.
  long long sharded_out = 0;
  FactorCacheStats cache;          ///< hits/misses/evictions this run
  /// Pool counters for this run (deltas; max_task_seconds is the pool's
  /// high-water mark, which with a fresh engine is also this run's).
  ThreadPoolStats pool;

  double cache_hit_rate() const { return cache.hit_rate(); }
};

/// Called as each scenario completes (in completion order, serialized).
using ScenarioSink = std::function<void(const ScenarioResult&)>;

/// Runs scenario campaigns over registered decks (see file comment).
class BatchEngine {
 public:
  explicit BatchEngine(BatchOptions options = {});

  /// Registers a deck. The netlist is copied and owned by the engine;
  /// MNA assembly happens lazily, once per (deck, Vdd scale) variant,
  /// under `mna_options` (e.g. eliminate_grounded_vsources = false keeps
  /// supply pads as branch-current unknowns -- the index-1 DAE decks).
  /// \returns the deck index ScenarioSpec::deck_index refers to.
  std::size_t add_deck(std::string label, circuit::Netlist netlist,
                       circuit::MnaOptions mna_options = {});

  std::size_t deck_count() const { return decks_.size(); }
  const std::string& deck_label(std::size_t index) const;
  std::vector<std::string> deck_labels() const;

  /// Expands `sweep` against the registered decks (convenience wrapper
  /// over expand_campaign).
  std::vector<ScenarioSpec> expand(const CampaignSweep& sweep) const;

  /// Runs a campaign. Blocks until every scenario finished; `sink` (when
  /// set) receives each result as it completes. Cache counters in the
  /// report cover this run only; the cache itself stays warm across
  /// run() calls, so a follow-up campaign on the same decks starts hot.
  BatchReport run(std::span<const ScenarioSpec> scenarios,
                  const ScenarioSink& sink = nullptr);

  ThreadPool& pool() { return *pool_; }
  FactorCache& factor_cache() { return cache_; }

 private:
  struct Deck {
    std::string label;
    circuit::Netlist netlist;
    circuit::MnaOptions mna_options;
  };
  /// One assembled (deck, Vdd scale) combination, built on first use and
  /// shared by every scenario that needs it.
  struct Variant {
    std::unique_ptr<circuit::Netlist> scaled;  ///< null at scale 1.0
    std::unique_ptr<circuit::MnaSystem> mna;
  };

  const circuit::MnaSystem& variant_mna(std::size_t deck_index,
                                        double vdd_scale)
      MATEX_EXCLUDES(variants_mutex_);

  /// Factorizes every distinct (variant, operator) combination the
  /// campaign will request, before any scenario starts (see
  /// BatchOptions::prewarm). `skip` (empty = none) masks scenarios this
  /// run will not execute (checkpoint-restored or foreign-shard). The shared pool and
  /// `cancel` are threaded into each factorization (parallel blocked
  /// refills; panel-granular cancellation). Errors are classified and
  /// traced, then swallowed: a broken scenario reports its own failure
  /// when it runs. A fired `cancel` stops the prewarm instead of being
  /// counted as an error.
  void prewarm_factors(std::span<const ScenarioSpec> scenarios,
                       const std::vector<char>& skip,
                       const CancelToken* cancel);

  BatchOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  FactorCache cache_;
  std::vector<Deck> decks_;

  core::Mutex variants_mutex_;
  /// Keyed by (deck index, Vdd-scale bit pattern).
  std::map<std::pair<std::size_t, std::uint64_t>,
           std::shared_future<const Variant*>>
      variants_ MATEX_GUARDED_BY(variants_mutex_);
  std::vector<std::unique_ptr<Variant>> variant_storage_
      MATEX_GUARDED_BY(variants_mutex_);
};

}  // namespace matex::runtime
