/// \file scheduler.hpp
/// \brief The distributed MATEX framework (Fig. 4): scheduler, emulated
///        slave nodes, and superposition.
///
/// The scheduler decomposes the sources into bump-shape groups, hands each
/// group to a slave node, lets every node run the MATEX circuit solver
/// against its own LTS (no communication until write-back), and finally
/// sums the write-backs with the DC operating point (superposition of the
/// linear system).
///
/// Every node factorizes the same matrices once at t = 0 (Alg. 2), so in
/// one process the nodes share one read-only MatexCircuitSolver, built
/// after the DC point from its LU(G): the run factorizes once, not once
/// per node. The paper's cluster cost, where each slave factorizes its own
/// copy, is kept as the reported model: a node's total time is its
/// transient time plus that one setup.
///
/// Nodes are emulated: each node's work runs as an independent task --
/// inline, or submitted to a runtime::ThreadPool (an external shared one,
/// or a pool the scheduler spins up for the run) -- and its transient time
/// is measured separately. The "parallel runtime" reported is the maximum
/// per-node time, exactly the measurement protocol of Sec. 4.3 ("we
/// report the maximum runtime among these nodes as the total runtime").
/// This is faithful because MATEX nodes never communicate during the
/// transient.
///
/// Superposition is deterministic: node contributions are summed in
/// group-index order no matter which worker finishes first, so the output
/// is bit-identical across parallelism settings, with or without a shared
/// pool, and with or without a factorization cache.
///
/// Only observed rows are written back and superposed: each node buffer
/// and the accumulator hold t_count x |probes| values (SchedulerOptions::
/// probes), and nothing at all when the caller passes no observer. A node
/// still computes its full state at each of its segment ends, where the
/// next Krylov subspace starts.
#pragma once

#include <memory>
#include <vector>

#include "circuit/mna.hpp"
#include "core/decomposition.hpp"
#include "core/matex_solver.hpp"
#include "solver/dc.hpp"
#include "solver/observer.hpp"
#include "solver/stats.hpp"

namespace matex::runtime {
class ThreadPool;
class FactorCache;
}  // namespace matex::runtime

namespace matex::core {

/// Options for the distributed run.
struct SchedulerOptions {
  MatexOptions solver;
  DecompositionOptions decomposition;
  double t_start = 0.0;
  double t_end = 0.0;
  /// Output grid: the scheduler's observer receives the summed solution at
  /// these times. Must be sorted.
  std::vector<double> output_times;
  /// Unknowns the observer receives, in this order (default: every
  /// unknown). Node buffers and the superposition accumulator are sized
  /// t_count x |probes|; the observed values are bitwise equal to the
  /// same rows of an all-unknowns run. Out-of-range indices throw
  /// InvalidArgument.
  solver::ProbeSet probes;
  /// Number of worker threads executing node subtasks. 1 (default) runs
  /// nodes sequentially, which keeps per-node wall times meaningful on a
  /// machine with fewer cores than nodes (the paper's max-over-nodes
  /// accounting is computed either way); larger values exploit real
  /// cores for throughput. 0 means "use the hardware concurrency via the
  /// runtime thread pool". Negative values are invalid. The value is
  /// clamped to the number of groups, and ignored when `pool` is set
  /// (the external pool's size rules).
  int parallelism = 1;
  /// External work-stealing pool to run node subtasks on (not owned; must
  /// outlive the call). When null, the scheduler runs nodes inline
  /// (effective parallelism 1) or on a pool of its own. Sharing one pool
  /// across concurrent distributed runs is the batch engine's mode.
  runtime::ThreadPool* pool = nullptr;
  /// Optional label attached to this run's trace spans ("scenario"
  /// attribute of the per-node spans), so a shared-pool campaign's trace
  /// attributes every node task to its scenario. Must be a literal or an
  /// obs::intern()-ed string that outlives the trace flush; nullptr omits
  /// the attribute. Ignored when tracing is disabled.
  const char* trace_label = nullptr;
  /// Optional factorization cache shared across methods and jobs (not
  /// owned; must outlive the call). When set, LU(G) and the Krylov
  /// operator LU are content-addressed lookups, so runs on the same deck
  /// factorize once between them. Superposition results are bit-identical
  /// with and without the cache -- cached factors are the same
  /// factorization the run would have computed.
  runtime::FactorCache* factor_cache = nullptr;
  /// Optional cancellation token (not owned; must outlive the call).
  /// Polled before each node subtask starts and, via MatexOptions.cancel,
  /// once per solver step inside every node, so a fired token stops the
  /// run within one step. The run then throws CancelledError; sibling
  /// scenarios sharing the pool or cache are unaffected.
  const runtime::CancelToken* cancel = nullptr;
};

/// Per-node outcome.
struct NodeReport {
  std::size_t group_index = 0;
  std::size_t source_count = 0;
  std::size_t lts_size = 0;
  /// The node's run; total_seconds includes the shared solver's setup.
  solver::TransientStats stats;
};

/// Outcome of a distributed MATEX run.
struct DistributedResult {
  /// Number of slave nodes (the Group # column of Table 3).
  std::size_t group_count = 0;
  /// Max per-node transient time: the paper's tr_matex.
  double max_node_transient_seconds = 0.0;
  /// Max per-node total time: transient time plus the one shared setup
  /// (Table 3's per-slave cost, where each node factorizes once).
  double max_node_total_seconds = 0.0;
  /// Scheduler-side superposition cost: summing t_count x |probes| values
  /// per node. 0 without an observer, when nothing is superposed.
  double superposition_seconds = 0.0;
  /// DC analysis cost (shared preprocessing).
  double dc_seconds = 0.0;
  /// Worker threads the node subtasks ran on (1 = inline/sequential).
  int workers_used = 1;
  /// Setup factorizations of the shared solver served by the factor cache
  /// (0 without one).
  long long factor_cache_hits = 0;
  /// Aggregated counters over all nodes (times hold the max, counters
  /// sum), except `factorizations`: the shared solver's setup, counted once.
  solver::TransientStats aggregate;
  std::vector<NodeReport> nodes;
};

/// Runs distributed MATEX: DC analysis, decomposition, per-group subtasks,
/// superposition. The observer receives the *summed* solution on
/// options.output_times, restricted to options.probes. A null observer
/// runs every node for its stats only: no node buffer, no accumulator,
/// no superposition.
DistributedResult run_distributed_matex(const circuit::MnaSystem& mna,
                                        const SchedulerOptions& options,
                                        const solver::Observer& observer);

}  // namespace matex::core
