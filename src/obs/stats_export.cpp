#include "obs/stats_export.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace matex::obs {

void write_transient_stats(solver::JsonWriter& w,
                           const solver::TransientStats& s) {
  w.key("steps").value(s.steps);
  w.key("rejected_steps").value(s.rejected_steps);
  w.key("solves").value(s.solves);
  w.key("factorizations").value(s.factorizations);
  w.key("refactorizations").value(s.refactorizations);
  w.key("krylov_subspaces").value(s.krylov_subspaces);
  w.key("krylov_dim_avg").value(s.krylov_dim_avg());
  w.key("krylov_dim_peak").value(s.krylov_dim_peak);
  w.key("transient_seconds").value(s.transient_seconds);
  w.key("total_seconds").value(s.total_seconds);
}

void write_factor_cache_stats(solver::JsonWriter& w,
                              const runtime::FactorCacheStats& s) {
  w.key("hits").value(s.hits);
  w.key("misses").value(s.misses);
  w.key("hit_rate").value(s.hit_rate());
  w.key("symbolic_hits").value(s.symbolic_hits);
  w.key("refactor_fallbacks").value(s.refactor_fallbacks);
  w.key("factor_errors").value(s.factor_errors);
  w.key("factor_cancellations").value(s.factor_cancellations);
  w.key("evictions").value(s.evictions);
  w.key("bytes_resident").value(s.bytes_resident);
  w.key("bytes_evicted").value(s.bytes_evicted);
  w.key("budget_sheds").value(s.budget_sheds);
  w.key("factor_seconds").value(s.factor_seconds);
}

void write_thread_pool_stats(solver::JsonWriter& w,
                             const runtime::ThreadPoolStats& s) {
  w.key("tasks_executed").value(s.tasks_executed);
  w.key("tasks_stolen").value(s.tasks_stolen);
  w.key("tasks_helped").value(s.tasks_helped);
  w.key("busy_seconds").value(s.busy_seconds);
  w.key("max_task_seconds").value(s.max_task_seconds);
}

void write_node_reports(solver::JsonWriter& w,
                        std::span<const core::NodeReport> nodes) {
  w.key("nodes").begin_array();
  for (const core::NodeReport& node : nodes) {
    w.begin_object();
    w.key("group").value(node.group_index);
    w.key("sources").value(node.source_count);
    w.key("lts_size").value(node.lts_size);
    write_transient_stats(w, node.stats);
    w.end_object();
  }
  w.end_array();
}

void write_distributed_timings(solver::JsonWriter& w,
                               const core::DistributedResult& r) {
  w.key("groups").value(r.group_count);
  w.key("workers_used").value(r.workers_used);
  w.key("dc_seconds").value(r.dc_seconds);
  w.key("superposition_seconds").value(r.superposition_seconds);
  w.key("max_node_transient_seconds").value(r.max_node_transient_seconds);
  w.key("max_node_total_seconds").value(r.max_node_total_seconds);
  w.key("factor_cache_hits").value(r.factor_cache_hits);
}

void write_metrics(solver::JsonWriter& w) {
  if (!metrics_enabled()) return;
  w.key("metrics");
  MetricsRegistry::global().write_json(w);
}

}  // namespace matex::obs
