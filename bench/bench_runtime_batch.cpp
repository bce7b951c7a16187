/// \file bench_runtime_batch.cpp
/// \brief Batch-engine throughput: a campaign of scenarios over one deck,
///        run (a) one scenario at a time on a one-worker engine with
///        caching disabled -- what a loop of independent processes would
///        do -- and (b) concurrently on the shared pool with the shared
///        factorization cache.
///
/// Reports per-mode wall time, scenario throughput, the factorization
/// cache hit rate, and the max absolute waveform difference between the
/// two modes (must be 0: cached factors are the same factorizations, and
/// superposition order is fixed).
///
/// The campaign sweeps R-MATEX gamma x tolerance plus I-MATEX tolerance
/// and two Vdd corners over one synthetic PDN: 12 scenarios whose
/// matrices collapse to 3 distinct factorizations (G, C+g1*G, C+g2*G),
/// so the expected hit rate is far above the 50% acceptance bar.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "circuit/mna.hpp"
#include "pgbench/pg_generator.hpp"
#include "runtime/batch.hpp"
#include "solver/observer.hpp"

int main() {
  using namespace matex;
  const double scale = bench::env_scale();

  auto grid_spec = pgbench::table_benchmark_spec(1, scale);
  std::printf("Batch runtime: campaign over one deck (%s)\n\n",
              grid_spec.name.c_str());

  const auto build_engine = [&](runtime::BatchOptions bopt) {
    auto engine = std::make_unique<runtime::BatchEngine>(bopt);
    engine->add_deck(grid_spec.name,
                     pgbench::generate_power_grid(grid_spec));
    return engine;
  };

  runtime::CampaignSweep sweep;
  sweep.methods = {krylov::KrylovKind::kRational,
                   krylov::KrylovKind::kInverted};
  sweep.gammas = {1e-10, 2e-10};
  sweep.tolerances = {1e-6, 1e-7};
  sweep.vdd_scales = {1.0, 0.95};
  sweep.base.t_end = grid_spec.t_window;
  sweep.base.output_times =
      solver::uniform_grid(0.0, grid_spec.t_window, 1e-10);
  sweep.base.solver.max_dim = 120;
  sweep.base.decomposition.max_groups = 16;
  sweep.probes = {0, 1, 2};

  struct Mode {
    const char* label;
    runtime::BatchOptions options;
  };
  Mode modes[2];
  modes[0].label = "sequential, uncached";
  modes[0].options.threads = 1;
  modes[0].options.cache_capacity = 0;  // disable caching
  modes[1].label = "batched, shared cache";
  modes[1].options.threads = 0;  // hardware concurrency

  std::printf("%-24s %5s %9s %9s %7s %7s %9s\n", "mode", "scn", "wall(s)",
              "scn/s", "hits", "misses", "hit rate");
  bench::rule(78);

  runtime::BatchReport reports[2];
  for (int m = 0; m < 2; ++m) {
    auto engine = build_engine(modes[m].options);
    const auto scenarios = engine->expand(sweep);
    if (m == 0) {
      // Scenario-sequential baseline: one scenario per run() call, so two
      // jobs never overlap (a job's nodes still run on the one pool
      // worker and the helping calling thread). Wall time and cache
      // counters accumulate across calls.
      solver::Stopwatch clock;
      for (std::size_t si = 0; si < scenarios.size(); ++si) {
        auto one = engine->run(
            std::span<const runtime::ScenarioSpec>(scenarios)
                .subspan(si, 1));
        reports[m].results.push_back(std::move(one.results[0]));
        reports[m].failures += one.failures;
        reports[m].cache.hits += one.cache.hits;
        reports[m].cache.misses += one.cache.misses;
      }
      reports[m].wall_seconds = clock.seconds();
    } else {
      reports[m] = engine->run(scenarios);
    }
    const auto& r = reports[m];
    std::printf("%-24s %5zu %9.3f %9.2f %7lld %7lld %8.1f%%\n",
                modes[m].label, r.results.size(), r.wall_seconds,
                static_cast<double>(r.results.size()) /
                    std::max(r.wall_seconds, 1e-9),
                r.cache.hits, r.cache.misses,
                100.0 * r.cache_hit_rate());
  }
  bench::rule(78);

  // Cross-mode waveform agreement (bitwise: same factors, same order).
  double max_diff = 0.0;
  int failures = reports[0].failures + reports[1].failures;
  for (std::size_t si = 0; si < reports[0].results.size(); ++si) {
    const auto& a = reports[0].results[si];
    const auto& b = reports[1].results[si];
    if (!a.ok || !b.ok) continue;
    for (std::size_t p = 0; p < a.probe_waveforms.size(); ++p)
      for (std::size_t i = 0; i < a.probe_waveforms[p].size(); ++i)
        max_diff = std::max(max_diff,
                            std::abs(a.probe_waveforms[p][i] -
                                     b.probe_waveforms[p][i]));
  }

  const double speedup = reports[0].wall_seconds /
                         std::max(reports[1].wall_seconds, 1e-9);
  const double hit_rate = reports[1].cache_hit_rate();
  std::printf("\nbatch speedup %.2fX, cache hit rate %.1f%% (goal >= 50%%), "
              "max waveform diff %.3e\n",
              speedup, 100.0 * hit_rate, max_diff);
  const bool ok = failures == 0 && hit_rate >= 0.5 && max_diff == 0.0 &&
                  reports[0].results.size() >= 8;
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
