/// \file bench_table3_distributed.cpp
/// \brief Reproduces Table 3: distributed MATEX (R-MATEX nodes) vs the
///        fixed-step TR baseline (h = 10 ps, 1000 steps).
///
/// Protocol (Sec. 4.3): TR factorizes (C/h + G/2) once and performs 1000
/// substitution pairs; distributed MATEX decomposes the sources by bump
/// shape, each node simulates its group against its own LTS, and the
/// scheduler superposes. t1000/tr_matex compare the pure transient parts;
/// tt_total/tr_total the full runs. tr_total is the paper's per-slave
/// model: DC + the slowest node's transient + one LU(C + gamma*G) setup
/// (the nodes share that one factorization in this process; on a cluster
/// each slave factorizes its own copy in the same time) + superposition.
/// Errors are measured against a golden TR run at h = 1 ps (standing in
/// for the benchmark-provided waveforms).
///
/// Expected shape (paper): ~13X transient speedup, ~7X total, max error
/// ~1e-4 V, group counts bounded by the distinct bump shapes.
///
/// A second leg measures the *multi-process* distribution one level up:
/// the sharded-campaign coordinator (matex_cli --shards, see
/// docs/ARCHITECTURE.md) runs the built-in demo campaign at 1, 2 and 4
/// worker processes, the merged binary stores are checked byte-identical,
/// and the end-to-end throughput is reported as
/// campaign_scenarios_per_second (journal + store writes included).
/// `--json FILE` exports the metrics; `--campaign-only` skips the Table 3
/// sweep so bench/append_trend.sh can record the campaign point cheaply.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "circuit/mna.hpp"
#include "core/scheduler.hpp"
#include "pgbench/pg_generator.hpp"
#include "solver/dc.hpp"
#include "solver/fixed_step.hpp"
#include "solver/json_writer.hpp"
#include "solver/observer.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The coordinator binary: $MATEX_CLI, or matex_cli next to this bench.
std::string find_cli(const char* argv0) {
  if (const char* env = std::getenv("MATEX_CLI")) return env;
  std::string dir(argv0);
  const std::size_t slash = dir.rfind('/');
  dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash);
  const std::string candidate = dir + "/matex_cli";
  return std::ifstream(candidate).good() ? candidate : std::string();
}

struct CampaignMetrics {
  bool ran = false;
  bool stores_identical = false;
  long long scenarios = 0;
  double seconds[3] = {0, 0, 0};  // 1, 2, 4 workers
  double scenarios_per_second = 0.0;
};

void remove_campaign_artifacts(const std::string& tag) {
  for (int k = -1; k < 4; ++k)
    std::remove((k < 0 ? tag + ".jsonl"
                       : tag + ".jsonl.shard" + std::to_string(k))
                    .c_str());
  std::remove((tag + ".store").c_str());
  std::remove((tag + ".perf.json").c_str());
  std::remove((tag + ".log").c_str());
}

/// Times the demo campaign through the sharded coordinator at 1/2/4
/// workers and proves the binary stores byte-identical. Artifacts live
/// in the working directory and are removed afterwards (a stale journal
/// would turn a run into a pure restore and fake the throughput; the
/// failing run's log is kept for diagnosis).
CampaignMetrics run_campaign_leg(const std::string& cli) {
  CampaignMetrics m;
  const int worker_counts[3] = {1, 2, 4};
  std::string stores[3];
  for (int i = 0; i < 3; ++i) {
    const std::string tag = "bench_t3_w" + std::to_string(worker_counts[i]);
    const std::string journal = tag + ".jsonl";
    const std::string store = tag + ".store";
    remove_campaign_artifacts(tag);
    std::string cmd = cli + " --batch --threads 2 --checkpoint " + journal +
                      " --store " + store + " --perf-json " + tag +
                      ".perf.json > /dev/null 2> " + tag + ".log";
    if (worker_counts[i] > 1)
      cmd = cli + " --batch --threads 2 --shards " +
            std::to_string(worker_counts[i]) + " --checkpoint " + journal +
            " --store " + store + " --perf-json " + tag +
            ".perf.json > /dev/null 2> " + tag + ".log";
    const auto t0 = std::chrono::steady_clock::now();
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "campaign leg: '%s' failed (see %s.log)\n",
                   cmd.c_str(), tag.c_str());
      return m;
    }
    m.seconds[i] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    stores[i] = slurp(store);
    if (i == 0) {
      const auto perf = matex::solver::parse_json_file(tag + ".perf.json");
      m.scenarios =
          static_cast<long long>(perf.at("per_scenario").array.size());
    }
  }
  m.ran = true;
  m.stores_identical = !stores[0].empty() && stores[1] == stores[0] &&
                       stores[2] == stores[0];
  double best = m.seconds[0];
  for (const double s : m.seconds)
    if (s < best) best = s;
  m.scenarios_per_second = best > 0 ? m.scenarios / best : 0.0;
  if (m.stores_identical)
    for (const int w : worker_counts)
      remove_campaign_artifacts("bench_t3_w" + std::to_string(w));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace matex;
  const double scale = bench::env_scale();

  std::string json_path;
  bool campaign_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc)
      json_path = argv[++i];
    else if (arg == "--campaign-only")
      campaign_only = true;
  }

  if (campaign_only) {
    const std::string cli = find_cli(argv[0]);
    CampaignMetrics m;
    if (cli.empty())
      std::fprintf(stderr,
                   "campaign leg skipped: no matex_cli next to the bench "
                   "and $MATEX_CLI unset\n");
    else
      m = run_campaign_leg(cli);
    if (m.ran) {
      std::printf(
          "sharded campaign: %lld scenarios; %.3fs / %.3fs / %.3fs at "
          "1/2/4 workers; stores %s; %.1f scenarios/s\n",
          m.scenarios, m.seconds[0], m.seconds[1], m.seconds[2],
          m.stores_identical ? "IDENTICAL" : "DIVERGED",
          m.scenarios_per_second);
      if (!m.stores_identical) return 1;
    }
    if (!json_path.empty()) {
      solver::JsonWriter w;
      w.begin_object();
      w.key("campaign").begin_object();
      w.key("ran").value(m.ran);
      if (m.ran) {
        w.key("scenarios").value(m.scenarios);
        w.key("workers").value(4);
        w.key("stores_identical").value(m.stores_identical);
        w.key("seconds_w1").value(m.seconds[0]);
        w.key("seconds_w2").value(m.seconds[1]);
        w.key("seconds_w4").value(m.seconds[2]);
        w.key("campaign_scenarios_per_second")
            .value(m.scenarios_per_second);
      }
      w.end_object();
      w.end_object();
      std::ofstream out(json_path);
      out << w.str() << '\n';
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
      }
    }
    return 0;
  }

  std::printf(
      "Table 3: distributed MATEX (R-MATEX) vs TR (h=10ps, 1000 steps)\n\n");
  std::printf("%-10s %6s | %9s %9s | %4s %9s %9s | %9s %9s | %6s %6s\n",
              "Design", "n", "t1000", "tt_total", "Grp", "trmatex",
              "tr_total", "MaxErr", "AvgErr", "Spdp4", "Spdp5");
  bench::rule(108);

  double spdp4_sum = 0.0, spdp5_sum = 0.0;
  for (int design = 1; design <= 6; ++design) {
    const auto spec = pgbench::table_benchmark_spec(design, scale);
    const auto netlist = pgbench::generate_power_grid(spec);
    const circuit::MnaSystem mna(netlist);
    const double t_end = spec.t_window;
    const double h = 1e-11;
    const auto grid = solver::uniform_grid(0.0, t_end, h);

    // --- baseline: fixed-step TR (includes its own DC via operating
    // point; tt_total = DC + LU + stepping, as in the paper).
    const auto dc = solver::dc_operating_point(mna);
    solver::FixedStepOptions tr_opt;
    tr_opt.t_end = t_end;
    tr_opt.h = h;
    solver::StateRecorder tr;
    const auto tr_stats = run_fixed_step(
        mna, dc.x, solver::StepMethod::kTrapezoidal, tr_opt, tr.observer());
    const double t1000 = tr_stats.transient_seconds;
    const double tt_total = tr_stats.total_seconds + dc.seconds;

    // --- distributed MATEX.
    core::SchedulerOptions opt;
    opt.t_end = t_end;
    opt.solver.kind = krylov::KrylovKind::kRational;
    opt.solver.gamma = 1e-10;
    opt.solver.tolerance = 1e-7;
    opt.solver.max_dim = 120;
    opt.decomposition.max_groups = 100;
    opt.output_times = grid;
    solver::StateRecorder mx;
    const auto result = core::run_distributed_matex(mna, opt, mx.observer());
    const double trmatex = result.max_node_transient_seconds;
    const double tr_total = result.max_node_total_seconds +
                            result.dc_seconds +
                            result.superposition_seconds;

    // --- golden reference: TR at h = 1 ps, compared online at the 10 ps
    // grid (keeps memory bounded on the bigger designs).
    solver::ErrorStats err_mx;
    {
      solver::FixedStepOptions gold_opt;
      gold_opt.t_end = t_end;
      gold_opt.h = 1e-12;
      std::size_t step = 0;
      run_fixed_step(mna, dc.x, solver::StepMethod::kTrapezoidal, gold_opt,
                     [&](double, std::span<const double> x) {
                       if (step % 10 == 0)
                         err_mx.accumulate(mx.state(step / 10), x);
                       ++step;
                     });
    }

    const double spdp4 = t1000 / std::max(trmatex, 1e-9);
    const double spdp5 = tt_total / std::max(tr_total, 1e-9);
    spdp4_sum += spdp4;
    spdp5_sum += spdp5;
    std::printf(
        "%-10s %6d | %9.3f %9.3f | %4zu %9.3f %9.3f | %9.1e %9.1e | %6.1fX "
        "%5.1fX\n",
        spec.name.c_str(), mna.dimension(), t1000, tt_total,
        result.group_count, trmatex, tr_total, err_mx.max_abs,
        err_mx.mean_abs(), spdp4, spdp5);
  }
  bench::rule(108);
  std::printf("average transient speedup (Spdp4): %.1fX   paper: ~13X\n",
              spdp4_sum / 6.0);
  std::printf("average total speedup     (Spdp5): %.1fX   paper: ~7X\n",
              spdp5_sum / 6.0);
  std::printf(
      "\nShape check vs paper Table 3: large transient speedups, smaller\n"
      "total speedups (serial LU/DC amortize less), errors ~1e-4 V or\n"
      "below, group counts set by the distinct bump shapes.\n");
  return 0;
}
