#include "core/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/thread_annotations.hpp"
#include "la/error.hpp"
#include "obs/trace.hpp"
#include "runtime/factor_cache.hpp"
#include "runtime/failpoint.hpp"
#include "runtime/thread_pool.hpp"

namespace matex::core {

DistributedResult run_distributed_matex(const circuit::MnaSystem& mna,
                                        const SchedulerOptions& options,
                                        const solver::Observer& observer) {
  MATEX_CHECK(options.t_end > options.t_start, "t_end must exceed t_start");
  MATEX_CHECK(std::is_sorted(options.output_times.begin(),
                             options.output_times.end()),
              "output_times must be sorted");
  MATEX_CHECK(!options.output_times.empty(),
              "distributed run needs an output grid");
  MATEX_CHECK(options.parallelism >= 0,
              "parallelism must be >= 0 (0 = hardware concurrency)");

  DistributedResult result;
  const std::size_t n = static_cast<std::size_t>(mna.dimension());
  const std::size_t t_count = options.output_times.size();
  options.probes.check(n);
  // Values per output time: node buffers and the accumulator hold only
  // the observed rows, and nothing at all without an observer.
  const std::size_t width = observer ? options.probes.width(n) : 0;

  // Node solvers poll the run's token at step granularity; inherit an
  // already-set MatexOptions.cancel when the caller threaded one directly.
  MatexOptions solver_options = options.solver;
  if (options.cancel != nullptr) solver_options.cancel = options.cancel;
  runtime::poll_cancel(options.cancel);

  // --- shared preprocessing: DC operating point (also the task-0 result:
  // with x(0) = DC and only the DC inputs active, the response is the DC
  // point for all t, so no simulation is needed for the baseline task).
  // With a factor cache, LU(G) is a content lookup shared with every
  // node's particular-solution factors and with other jobs on this deck.
  auto dc = [&] {
    if (options.factor_cache) {
      // The lookup (and, on a cold cache, the LU(G) factorization it
      // triggers) is timed into dc.seconds so the paper-style "DC(s)"
      // column stays comparable with uncached runs.
      solver::Stopwatch g_clock;
      const auto entry = options.factor_cache->g_factors(
          mna.g(), solver_options.lu_options);
      const double g_seconds = g_clock.seconds();
      auto r = solver::dc_operating_point(mna, options.t_start,
                                          entry.factors);
      r.seconds += g_seconds;
      return r;
    }
    return solver::dc_operating_point(mna, options.t_start,
                                      solver_options.lu_options);
  }();
  result.dc_seconds = dc.seconds;

  // --- decomposition into bump-shape groups (Fig. 3).
  DecompositionOptions dopt = options.decomposition;
  dopt.t_start = options.t_start;
  dopt.t_end = options.t_end;
  const Decomposition decomp = decompose_sources(mna, dopt);
  result.group_count = decomp.groups.size();
  result.nodes.resize(decomp.groups.size());

  // Superposition accumulator (t_count x width, row-major), seeded with
  // the DC (task-0) contribution at the observed rows.
  std::vector<double> accum;
  if (observer) {
    std::vector<double> seed = dc.x;
    if (!options.probes.all()) {
      seed.clear();
      for (const la::index_t i : options.probes.indices())
        seed.push_back(dc.x[static_cast<std::size_t>(i)]);
    }
    accum.reserve(t_count * width);
    for (std::size_t ti = 0; ti < t_count; ++ti)
      accum.insert(accum.end(), seed.begin(), seed.end());
  }

  // Every node would factorize the same matrices once at t = 0 (Alg. 2), so
  // one read-only solver serves them all (run() is const). On the heap: as a
  // local of this frame it cost 15% more matex.run self time on a pooled
  // campaign (4-vCPU Xeon), a sign of false sharing with stack writes.
  const auto node_solver = std::make_unique<const MatexCircuitSolver>(
      mna, solver_options, dc.g_factors, options.factor_cache);
  result.factor_cache_hits = node_solver->setup_cache_hits();

  const std::vector<double> zero_state(n, 0.0);

  // --- execution resources: inline, an external shared pool, or a pool
  // of our own. parallelism 0 asks for the hardware concurrency.
  const std::size_t group_count = decomp.groups.size();
  const int requested =
      options.parallelism == 0
          ? static_cast<int>(
                std::max(1u, std::thread::hardware_concurrency()))
          : options.parallelism;
  const int workers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(requested),
      std::max<std::size_t>(group_count, 1)));

  runtime::ThreadPool* pool = options.pool;
  std::unique_ptr<runtime::ThreadPool> local_pool;
  if (!pool && workers > 1) {
    local_pool = std::make_unique<runtime::ThreadPool>(workers);
    pool = local_pool.get();
  }

  // Node contributions are merged strictly in group-index order: a node
  // finishing out of turn stages its buffer and whoever completes the
  // missing predecessor drains the queue. This makes the floating-point
  // accumulation order -- hence the output, bit for bit -- independent of
  // the parallelism setting (the superposition order is fixed). Node
  // tasks are submitted with submit_ordered (global FIFO starts), so a
  // buffer can only be staged ahead of the merge frontier while the
  // frontier's own -- earlier-started -- node is still running: live
  // buffers are bounded by the number of executing threads, not by the
  // group count. Each buffer is t_count x |probes| doubles, so the live
  // bytes are threads x t_count x |probes| x 8 whatever the deck size.
  struct MergeState {
    core::Mutex mutex;
    std::map<std::size_t, std::vector<double>> staged MATEX_GUARDED_BY(mutex);
    std::size_t merge_next MATEX_GUARDED_BY(mutex) = 0;
    double superposition_seconds MATEX_GUARDED_BY(mutex) = 0.0;
    std::exception_ptr first_error MATEX_GUARDED_BY(mutex);
    /// Lock-free mirror of first_error, a pre-lock short-circuit only.
    std::atomic<bool> aborted{false};
  } ms;

  // One emulated slave node: simulate group `gi` into a private buffer,
  // then hand it to the in-order superposition (the scheduler-side
  // write-back of Fig. 4).
  const auto run_node = [&](std::size_t gi) {
    // relaxed: purely a work-avoidance hint. The error itself travels
    // under ms.mutex; a task that reads a stale false just simulates a
    // group whose result is then discarded with everyone else's.
    if (ms.aborted.load(std::memory_order_relaxed)) return;
    runtime::poll_cancel(options.cancel);
    MATEX_FAILPOINT("scheduler.node");
    const SourceGroup& group = decomp.groups[gi];
    obs::Span node_span("node", "node", gi, "sources",
                        group.members.size(), "scenario",
                        options.trace_label);
    const GroupInput input(mna, group.members, options.t_start);
    std::vector<double> node_buffer(t_count * width);

    std::size_t emit_idx = 0;
    solver::Observer write_back;
    if (observer)
      write_back = [&](double /*t*/, std::span<const double> x) {
        std::copy(x.begin(), x.end(),
                  node_buffer.begin() +
                      static_cast<std::ptrdiff_t>(emit_idx * width));
        ++emit_idx;
      };
    auto stats = node_solver->run(zero_state, options.t_start, options.t_end,
                                  input, options.output_times, write_back,
                                  options.probes);
    MATEX_CHECK(!observer || emit_idx == t_count,
                "node did not emit every output time");

    NodeReport report;
    report.group_index = gi;
    report.source_count = group.members.size();
    report.lts_size =
        input.transition_spots(options.t_start, options.t_end).size();
    report.stats = stats;
    node_span.arg("lts", report.lts_size);

    const core::MutexLock lock(ms.mutex);
    result.max_node_transient_seconds = std::max(
        result.max_node_transient_seconds, stats.transient_seconds);
    result.max_node_total_seconds =
        std::max(result.max_node_total_seconds, report.stats.total_seconds);
    result.aggregate.merge(report.stats);
    result.nodes[gi] = std::move(report);
    if (!observer) return;  // nothing observed: nothing to superpose
    ms.staged.emplace(gi, std::move(node_buffer));
    // Drain every staged buffer that now sits at the merge frontier
    // (this node's own, plus any successors parked behind it).
    while (!ms.staged.empty() && ms.staged.begin()->first == ms.merge_next) {
      MATEX_SPAN("superpose", "node", ms.merge_next, "scenario",
                 options.trace_label);
      solver::Stopwatch sup_clock;
      const std::vector<double>& buffer = ms.staged.begin()->second;
      for (std::size_t i = 0; i < accum.size(); ++i) accum[i] += buffer[i];
      ms.superposition_seconds += sup_clock.seconds();
      ms.staged.erase(ms.staged.begin());
      ++ms.merge_next;
    }
  };

  if (pool) {
    result.workers_used = pool->size();
    std::vector<std::future<void>> futures;
    futures.reserve(group_count);
    for (std::size_t gi = 0; gi < group_count; ++gi)
      futures.push_back(pool->submit_ordered([&, gi] {
        // Capture instead of throwing across the pool: every task must
        // finish before the locals it references go out of scope.
        try {
          run_node(gi);
          // matex-lint: allow(catch-all): capture-and-rethrow -- the first
          // exception is stored verbatim and rethrown unchanged after the
          // fan-in barrier; classification belongs to the batch layer.
        } catch (...) {
          const core::MutexLock lock(ms.mutex);
          if (!ms.first_error) ms.first_error = std::current_exception();
          ms.aborted.store(true, std::memory_order_relaxed);
        }
      }));
    for (auto& f : futures) pool->await(f);
    std::exception_ptr first_error;
    {
      const core::MutexLock lock(ms.mutex);
      first_error = ms.first_error;
    }
    if (first_error) std::rethrow_exception(first_error);
  } else {
    result.workers_used = 1;
    for (std::size_t gi = 0; gi < group_count; ++gi) run_node(gi);
  }
  {
    const core::MutexLock lock(ms.mutex);
    MATEX_CHECK(!observer || ms.merge_next == group_count,
                "superposition did not merge every node");
    result.superposition_seconds = ms.superposition_seconds;
  }
  // Every node reports the shared setup as its own; the run paid it once.
  result.aggregate.factorizations = node_solver->setup_factorizations();

  if (observer)
    for (std::size_t ti = 0; ti < t_count; ++ti)
      observer(options.output_times[ti],
               std::span<const double>(accum).subspan(ti * width, width));
  return result;
}

}  // namespace matex::core
