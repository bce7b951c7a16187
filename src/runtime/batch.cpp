#include "runtime/batch.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <map>
#include <thread>
#include <tuple>

#include "la/error.hpp"
#include "obs/trace.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/failpoint.hpp"
#include "runtime/shard.hpp"
#include "solver/observer.hpp"
#include "solver/stats.hpp"

namespace matex::runtime {

BatchEngine::BatchEngine(BatchOptions options)
    : options_(options),
      cache_(options.cache_capacity, options.cache_max_bytes) {
  if (options_.pool) {
    pool_ = options_.pool;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
    pool_ = owned_pool_.get();
  }
}

std::size_t BatchEngine::add_deck(std::string label, circuit::Netlist netlist,
                                  circuit::MnaOptions mna_options) {
  decks_.push_back({std::move(label), std::move(netlist), mna_options});
  return decks_.size() - 1;
}

const std::string& BatchEngine::deck_label(std::size_t index) const {
  MATEX_CHECK(index < decks_.size(), "deck index out of range");
  return decks_[index].label;
}

std::vector<std::string> BatchEngine::deck_labels() const {
  std::vector<std::string> labels;
  labels.reserve(decks_.size());
  for (const Deck& d : decks_) labels.push_back(d.label);
  return labels;
}

std::vector<ScenarioSpec> BatchEngine::expand(
    const CampaignSweep& sweep) const {
  return expand_campaign(sweep, deck_labels());
}

const circuit::MnaSystem& BatchEngine::variant_mna(std::size_t deck_index,
                                                   double vdd_scale) {
  MATEX_CHECK(deck_index < decks_.size(), "deck index out of range");
  const auto key = std::make_pair(deck_index,
                                  std::bit_cast<std::uint64_t>(vdd_scale));
  std::promise<const Variant*> promise;
  {
    // First requester of a variant assembles it; concurrent requesters
    // wait on the leader's future (same discipline as the factor cache).
    std::shared_future<const Variant*> existing;
    {
      const core::MutexLock lock(variants_mutex_);
      const auto it = variants_.find(key);
      if (it != variants_.end()) {
        existing = it->second;
      } else {
        variants_.emplace(key, promise.get_future().share());
      }
    }
    if (existing.valid()) return *existing.get()->mna;
  }
  try {
    MATEX_FAILPOINT("batch.variant");
    auto variant = std::make_unique<Variant>();
    const circuit::Netlist* source = &decks_[deck_index].netlist;
    if (vdd_scale != 1.0) {
      variant->scaled = std::make_unique<circuit::Netlist>(
          scale_supplies(*source, vdd_scale));
      source = variant->scaled.get();
    }
    variant->mna = std::make_unique<circuit::MnaSystem>(
        *source, decks_[deck_index].mna_options);
    const core::MutexLock lock(variants_mutex_);
    variant_storage_.push_back(std::move(variant));
    promise.set_value(variant_storage_.back().get());
    return *variant_storage_.back()->mna;
    // matex-lint: allow(catch-all): cleanup-and-rethrow -- the leader slot
    // is retracted and the untouched exception propagates to this caller
    // and every waiter; classifying here would add nothing.
  } catch (...) {
    auto error = std::current_exception();
    promise.set_exception(error);
    const core::MutexLock lock(variants_mutex_);
    variants_.erase(key);
    std::rethrow_exception(error);
  }
}

void BatchEngine::prewarm_factors(std::span<const ScenarioSpec> scenarios,
                                  const std::vector<char>& skip,
                                  const CancelToken* cancel) {
  if (cache_.capacity() == 0) return;
  // Group the campaign's factorization requests by (deck, Vdd, LU
  // options): one pool task per group, operators within a group in
  // campaign order so a gamma sweep reuses the leader's symbolic
  // analysis instead of racing three full factorizations. The full LU
  // options travel with the group so prewarmed factors are exactly the
  // factors the scenarios would have computed (including the
  // refactor-fallback tolerance).
  struct GroupKey {
    std::size_t deck_index;
    std::uint64_t vdd_bits;
    la::SparseLuOptions lu;
    auto tie() const {
      return std::make_tuple(deck_index, vdd_bits,
                             static_cast<int>(lu.ordering),
                             std::bit_cast<std::uint64_t>(lu.pivot_tol),
                             std::bit_cast<std::uint64_t>(
                                 lu.refactor_pivot_tol));
    }
    bool operator<(const GroupKey& o) const { return tie() < o.tie(); }
  };
  using OperatorRequest = std::pair<krylov::KrylovKind, double>;
  std::map<GroupKey, std::vector<OperatorRequest>> groups;
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    if (!skip.empty() && skip[si]) continue;  // restored from checkpoint
    const ScenarioSpec& spec = scenarios[si];
    if (spec.deck_index >= decks_.size()) continue;
    const core::MatexOptions& solver = spec.scheduler.solver;
    const GroupKey key{spec.deck_index,
                       std::bit_cast<std::uint64_t>(spec.vdd_scale),
                       solver.lu_options};
    auto& requests = groups[key];
    // MEXP with C-regularization factorizes a modified C the solver
    // builds itself; only LU(G) can be prewarmed for those scenarios.
    if (solver.kind == krylov::KrylovKind::kStandard &&
        solver.c_regularization != 0.0)
      continue;
    const OperatorRequest request{
        solver.kind,
        solver.kind == krylov::KrylovKind::kRational ? solver.gamma : 0.0};
    if (std::find(requests.begin(), requests.end(), request) ==
        requests.end())
      requests.push_back(request);
  }
  std::vector<std::future<void>> tasks;
  tasks.reserve(groups.size());
  // relaxed everywhere: the flag is a best-effort short-circuit. A group
  // task that misses it merely starts a factorization whose own cancel
  // poll unwinds it; correctness never depends on the flag's timing.
  std::atomic<bool> prewarm_cancelled{false};
  for (const auto& [key, requests] : groups) {
    tasks.push_back(pool_->submit([this, cancel, &prewarm_cancelled,
                                   key = key, requests = requests] {
      if (prewarm_cancelled.load(std::memory_order_relaxed)) return;
      try {
        MATEX_SPAN("cache.prewarm", "deck", key.deck_index, "operators",
                   requests.size());
        poll_cancel(cancel);
        const circuit::MnaSystem& mna = variant_mna(
            key.deck_index, std::bit_cast<double>(key.vdd_bits));
        const std::uint64_t fp_g = fingerprint(mna.g());
        const std::uint64_t fp_c = fingerprint(mna.c());
        // Thread the campaign token into the factorization itself: a
        // token fired mid-refill unwinds at the next supernode.
        la::SparseLuOptions lu = key.lu;
        lu.cancel = cancel;
        cache_.g_factors(fp_g, mna.g(), lu);
        for (const auto& [kind, gamma] : requests)
          cache_.operator_factors(fp_c, fp_g, mna.c(), mna.g(), kind,
                                  gamma, lu);
      } catch (const CancelledError&) {
        // A fired campaign token is cancellation, not a prewarm error:
        // it must neither be swallowed into the error count nor keep
        // the remaining groups factorizing. The fan-out below then
        // reports every scenario as cancelled.
        prewarm_cancelled.store(true, std::memory_order_relaxed);
        obs::instant("cache.prewarm_cancelled", "deck", key.deck_index);
      } catch (...) {
        // The owning scenario reports the failure when it runs; prewarm
        // only loses the head start. Classified so the trace records
        // *what* bailed rather than an anonymous swallow.
        const ClassifiedError err =
            classify_exception(std::current_exception());
        obs::instant(
            "cache.prewarm_error", "deck", key.deck_index, "kind",
            obs::trace_enabled() ? obs::intern(err.kind) : nullptr);
      }
    }));
  }
  for (auto& t : tasks) pool_->await(t);
}

BatchReport BatchEngine::run(std::span<const ScenarioSpec> scenarios,
                             const ScenarioSink& sink) {
  BatchReport report;
  report.results.resize(scenarios.size());
  const FactorCacheStats cache_before = cache_.stats();
  const ThreadPoolStats pool_before = pool_->stats();
  solver::Stopwatch campaign_clock;

  // Campaign-wide cancellation: chains to the caller's token (the CLI's
  // SIGINT) and carries the campaign deadline; every scenario token
  // chains to this one in turn.
  CancelToken campaign_cancel(options_.cancel);
  if (options_.campaign_deadline_seconds > 0.0)
    campaign_cancel.set_deadline_after(options_.campaign_deadline_seconds);

  // Sharding: membership is a pure function of the spec fingerprint, so
  // this worker decides its share without any coordination (shard.hpp).
  // Foreign-shard scenarios are invisible to this run: not restored, not
  // prewarmed, not run, not sunk.
  const bool sharded = options_.shard_count > 1;
  MATEX_CHECK(!sharded || (options_.shard_index >= 0 &&
                           options_.shard_index < options_.shard_count),
              "shard_index out of range");

  // Checkpoint/resume: restore completed scenarios by spec fingerprint,
  // then journal every newly completed one.
  std::vector<std::uint64_t> fingerprints;
  std::vector<char> skip;  // restored or foreign-shard
  std::unique_ptr<CheckpointWriter> journal;
  if (sharded || !options_.checkpoint_path.empty()) {
    fingerprints.resize(scenarios.size(), 0);
    skip.assign(scenarios.size(), 0);
    for (std::size_t si = 0; si < scenarios.size(); ++si) {
      const ScenarioSpec& spec = scenarios[si];
      const std::string_view label =
          spec.deck_index < decks_.size()
              ? std::string_view(decks_[spec.deck_index].label)
              : std::string_view();
      fingerprints[si] = scenario_fingerprint(spec, label);
      if (sharded && shard_of(fingerprints[si], options_.shard_count) !=
                         options_.shard_index) {
        skip[si] = 1;
        ++report.sharded_out;
        // Identifiable not-run marker: attempts == 0 && !ok is the
        // foreign-shard signature (restored results are 0 && ok).
        ScenarioResult& out = report.results[si];
        out.name = spec.name;
        out.deck_index = spec.deck_index;
        out.scenario_index = si;
        out.attempts = 0;
      }
    }
  }
  if (!options_.checkpoint_path.empty()) {
    CheckpointJournal loaded = load_checkpoint(options_.checkpoint_path);
    report.checkpoint_skipped_lines = loaded.skipped_lines;
    for (std::size_t si = 0; si < scenarios.size(); ++si) {
      if (skip[si]) continue;  // foreign shard
      const auto it = loaded.completed.find(fingerprints[si]);
      if (it == loaded.completed.end() || !it->second.ok) continue;
      ScenarioResult& out = report.results[si];
      out = it->second;
      out.scenario_index = si;
      out.attempts = 0;  // restored, not run
      skip[si] = 1;
      ++report.checkpoint_restored;
      if (sink) sink(out);  // before the fan-out: no lock needed
    }
    journal = std::make_unique<CheckpointWriter>(options_.checkpoint_path);
  }

  if (options_.prewarm) prewarm_factors(scenarios, skip, &campaign_cancel);

  core::Mutex sink_mutex;
  // relaxed: pure aggregates. Every increment happens inside a scenario
  // job whose future is awaited before the loads below; the await (future
  // ready + the pool's queue mutexes) carries the ordering.
  std::atomic<int> failures{0};
  std::atomic<int> cancelled{0};
  std::atomic<int> retries{0};
  std::atomic<int> cache_sheds{0};

  std::vector<std::future<void>> futures;
  futures.reserve(scenarios.size());
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    if (!skip.empty() && skip[si]) continue;
    // submit_job: scenario jobs fan out node subtasks and block on them;
    // only idle workers may start one, so in-flight jobs (and their
    // accumulator memory) stay bounded by the pool size while awaiting
    // threads still help with everyone's node tasks.
    futures.push_back(pool_->submit_job([&, si] {
      const ScenarioSpec& spec = scenarios[si];
      ScenarioResult& out = report.results[si];
      out.name = spec.name;
      out.deck_index = spec.deck_index;
      out.scenario_index = si;
      // Interned once per scenario (never in the node loop): the label
      // must outlive the trace flush, and interning off keeps the
      // disabled path at the one-branch guarantee.
      const char* trace_label =
          obs::trace_enabled() ? obs::intern(spec.name) : nullptr;
      obs::Span scenario_span("scenario", "name", trace_label, "deck",
                              spec.deck_index);
      solver::Stopwatch job_clock;
      // The scenario deadline starts when the job does (queue time
      // excluded), layered over campaign deadline and external cancel via
      // the parent chain.
      CancelToken scenario_cancel(&campaign_cancel);
      if (options_.scenario_deadline_seconds > 0.0)
        scenario_cancel.set_deadline_after(
            options_.scenario_deadline_seconds);
      for (int attempt = 1;; ++attempt) {
        out.attempts = attempt;
        try {
          // Queued-behind-a-cancel jobs stop here, before touching decks
          // or cache.
          scenario_cancel.throw_if_cancelled();
          MATEX_FAILPOINT("batch.scenario");
          const circuit::MnaSystem& mna =
              variant_mna(spec.deck_index, spec.vdd_scale);

          core::SchedulerOptions opts = spec.scheduler;
          opts.factor_cache = &cache_;
          opts.pool = pool_;
          opts.trace_label = trace_label;
          opts.cancel = &scenario_cancel;

          // Nodes compute and superpose only the probe rows; no probes
          // means a stats-only run with nothing buffered.
          solver::ProbeRecorder recorder(spec.probes);
          opts.probes = recorder.probe_set();
          out.distributed = core::run_distributed_matex(
              mna, opts,
              spec.probes.empty() ? solver::Observer()
                                  : recorder.probe_observer());
          out.times = opts.output_times;
          out.probe_waveforms.clear();
          out.probe_waveforms.reserve(spec.probes.size());
          for (std::size_t p = 0; p < spec.probes.size(); ++p)
            out.probe_waveforms.push_back(recorder.waveform(p));
          out.ok = true;
          out.error.clear();
          out.error_kind.clear();
          break;
        } catch (...) {
          const ClassifiedError err =
              classify_exception(std::current_exception());
          out.ok = false;
          out.error = err.message;
          out.error_kind = err.kind;
          if (err.cls == ErrorClass::kCancelled) {
            out.cancelled = true;
            break;
          }
          const bool retryable =
              err.cls == ErrorClass::kTransient &&
              attempt <= options_.max_retries &&
              !scenario_cancel.cancelled();
          if (!retryable) break;
          if (err.kind == "bad_alloc") {
            // Graceful degradation: give memory back before retrying.
            // The first pass halves the resident factor bytes; a repeat
            // empties the cache entirely (scenarios re-factorize -- slow
            // but alive).
            const long long resident = cache_.stats().bytes_resident;
            const std::size_t target =
                attempt == 1 ? static_cast<std::size_t>(resident / 2) : 0;
            cache_.shed(target);
            cache_sheds.fetch_add(1, std::memory_order_relaxed);
          }
          retries.fetch_add(1, std::memory_order_relaxed);
          if (options_.retry_backoff_seconds > 0.0) {
            const double factor =
                static_cast<double>(1 << std::min(attempt - 1, 20));
            std::this_thread::sleep_for(std::chrono::duration<double>(
                options_.retry_backoff_seconds * factor));
          }
        }
      }
      if (out.cancelled) {
        cancelled.fetch_add(1, std::memory_order_relaxed);
      } else if (!out.ok) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      out.wall_seconds = job_clock.seconds();
      if (journal && out.ok) {
        try {
          journal->append(fingerprints[si], out);
          // matex-lint: allow(catch-all): a journal failure (disk full,
          // injected fault) must not fail the scenario; the campaign
          // merely stops being resumable past this record.
        } catch (...) {
          obs::instant("checkpoint.append_error", "scenario",
                       static_cast<double>(si));
        }
      }
      if (sink) {
        const core::MutexLock lock(sink_mutex);
        sink(out);
      }
    }));
  }
  for (auto& f : futures) pool_->await(f);

  report.wall_seconds = campaign_clock.seconds();
  report.failures = failures.load(std::memory_order_relaxed);
  report.cancelled = cancelled.load(std::memory_order_relaxed);
  report.retries = retries.load(std::memory_order_relaxed);
  report.cache_sheds = cache_sheds.load(std::memory_order_relaxed);
  const FactorCacheStats cache_after = cache_.stats();
  report.cache.hits = cache_after.hits - cache_before.hits;
  report.cache.misses = cache_after.misses - cache_before.misses;
  report.cache.evictions = cache_after.evictions - cache_before.evictions;
  report.cache.symbolic_hits =
      cache_after.symbolic_hits - cache_before.symbolic_hits;
  report.cache.refactor_fallbacks =
      cache_after.refactor_fallbacks - cache_before.refactor_fallbacks;
  report.cache.factor_seconds =
      cache_after.factor_seconds - cache_before.factor_seconds;
  // bytes_resident is a level, not a counter: report the end-of-run
  // occupancy; the byte churn fields are per-run deltas like the rest.
  report.cache.bytes_resident = cache_after.bytes_resident;
  report.cache.bytes_evicted =
      cache_after.bytes_evicted - cache_before.bytes_evicted;
  report.cache.budget_sheds =
      cache_after.budget_sheds - cache_before.budget_sheds;
  const ThreadPoolStats pool_after = pool_->stats();
  report.pool.tasks_executed =
      pool_after.tasks_executed - pool_before.tasks_executed;
  report.pool.tasks_stolen = pool_after.tasks_stolen - pool_before.tasks_stolen;
  report.pool.tasks_helped = pool_after.tasks_helped - pool_before.tasks_helped;
  report.pool.busy_seconds = pool_after.busy_seconds - pool_before.busy_seconds;
  report.pool.max_task_seconds = pool_after.max_task_seconds;
  return report;
}

}  // namespace matex::runtime
