/// \file matex_cli.cpp
/// \brief Command-line transient simulator over SPICE decks.
///
/// Usage:
///   matex_cli DECK.sp [--method rmatex|imatex|mexp|tr|be|tradpt|dist]
///             [--tstep S] [--tstop S] [--gamma S] [--tol EPS]
///             [--threads N] [--batch] [--keep-vsources]
///             [--deadline S] [--checkpoint FILE]
///             [--probe NODE]... [--out FILE] [--perf-json FILE]
///             [--trace FILE]
///   matex_cli --verify [--update-goldens] [--goldens DIR]
///   matex_cli --fuzz N | --fuzz-vsource N
///             [--fuzz-seed S] [--artifacts DIR]
///   matex_cli --store-dump FILE [--out FILE]
///   matex_cli --help
///
/// Defaults: method=rmatex, .tran card from the deck (or 10ps/10ns),
/// gamma=tstep*10, probes = first few nodes, out = stdout table.
/// With no arguments a built-in demo deck is simulated.
///
/// --keep-vsources assembles the MNA system without eliminating grounded
/// DC supplies: pad nodes and vsource branch currents stay in the system
/// as algebraic unknowns (C singular, the paper's index-1 DAE
/// formulation). Probing a supply node then works, and the branch
/// current of source k is the trailing unknown block.
///
/// --verify runs the golden-waveform regression gate (src/verify) against
/// the checked-in goldens (default DIR: tests/goldens, i.e. run from the
/// repo root); --update-goldens re-blesses them after an intended numeric
/// change. --fuzz N runs N seeded random differential scenarios;
/// --fuzz-vsource N instead fuzzes vsource decks (non-eliminated
/// supplies, series-R straps, capacitance-free nodes) against the dense
/// index-1 DAE oracle. Failures print a seed report and, with
/// --artifacts, drop repro JSON files.
///
/// --threads N runs the distributed scheduler's node subtasks (--method
/// dist) or the batch campaign (--batch) on N worker threads
/// (0 = hardware concurrency); other methods are single-threaded.
///
/// --batch runs a campaign instead of a single simulation: the deck is
/// swept over methods {rmatex, imatex} x gamma {g, 2g} x tolerance
/// {tol, tol/10}, all scenarios running concurrently on the shared
/// runtime pool with the shared factorization cache. --method imatex or
/// --method mexp narrows the sweep to that Krylov method. Per-scenario stats
/// stream as jobs finish; --out FILE writes one waveform table per
/// scenario to FILE.<scenario>.
///
/// --perf-json FILE dumps the run's timing / counter / cache-hit stats as
/// JSON (same writer as the BENCH_*.json artifacts), so campaigns can be
/// tracked by dashboards without scraping stderr. Since PR 6 it also
/// carries the per-node scheduler timings, per-scenario cache attribution,
/// pool counters and the obs metrics registry (see README, Observability).
///
/// --trace FILE records a Chrome trace-event timeline of the run (spans
/// for stamp/factor/solve/arnoldi, per-task scheduler spans with
/// scenario/node identity, cache hit/miss/evict instants) -- open the
/// file in ui.perfetto.dev or chrome://tracing.
///
/// Fault tolerance (PR 7): Ctrl-C trips a cancel token instead of killing
/// the process -- in-flight solves stop within one step, completed batch
/// results and --perf-json/--trace artifacts still flush, and the exit
/// code is 3 (a second Ctrl-C force-kills). --deadline S cancels the run
/// the same way after S seconds of wall time. --checkpoint FILE journals
/// completed batch scenarios to FILE and, on a re-run with the same deck
/// and sweep, restores them instead of re-running (bitwise-identical
/// waveforms; see README, Fault tolerance).
///
/// Sharded campaigns (this PR): --shards N splits a --batch campaign
/// across N worker *processes*. The coordinator respawns itself N times
/// with --batch-worker K; each worker independently runs the scenarios
/// whose fingerprint maps to its shard (runtime/shard.hpp) and journals
/// them to CHECKPOINT.shardK. The coordinator merges the shard journals
/// into --checkpoint FILE and replays the campaign through the normal
/// restore path -- which also re-runs anything a killed worker never
/// finished -- so the merged report and --store bytes are identical to a
/// single-process run. A worker that dies is respawned (bounded) and
/// resumes from its shard journal. --store FILE writes the campaign
/// waveforms as the compact binary store (solver/waveform_store.hpp);
/// --store-dump FILE converts a store back to plain-text tables.
///
/// Exit codes: 0 success; 1 simulation/verify/fuzz failures or artifact
/// write errors; 2 bad invocation; 3 cancelled (SIGINT or --deadline).
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <fstream>
#include <iostream>

#include "circuit/mna.hpp"
#include "circuit/spice.hpp"
#include "core/input_view.hpp"
#include "core/matex_solver.hpp"
#include "core/scheduler.hpp"
#include "obs/stats_export.hpp"
#include "obs/trace.hpp"
#include "runtime/batch.hpp"
#include "runtime/cancel.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/shard.hpp"
#include "solver/dc.hpp"
#include "solver/fixed_step.hpp"
#include "solver/json_writer.hpp"
#include "solver/observer.hpp"
#include "solver/tr_adaptive.hpp"
#include "solver/waveform_io.hpp"
#include "solver/waveform_store.hpp"
#include "verify/fuzz.hpp"
#include "verify/golden.hpp"

namespace {

using namespace matex;

/// SIGINT trips this token: every in-flight solver loop observes it
/// within one step, batch results complete as "cancelled", and the
/// artifacts (--out, --perf-json, --trace, --checkpoint) still flush.
runtime::CancelToken g_sigint_cancel;

void handle_sigint(int) {
  g_sigint_cancel.cancel();      // relaxed atomic store: async-signal-safe
  std::signal(SIGINT, SIG_DFL);  // a second Ctrl-C force-kills
}

constexpr const char* kDemoDeck = R"(* matex_cli demo deck
Vdd vdd 0 1.8
Rp1 vdd g11 0.05
Rp2 vdd g33 0.05
R1 g11 g12 0.2
R2 g12 g13 0.2
R3 g21 g22 0.2
R4 g22 g23 0.2
R5 g31 g32 0.2
R6 g32 g33 0.2
R7 g11 g21 0.2
R8 g21 g31 0.2
R9 g12 g22 0.2
R10 g22 g32 0.2
R11 g13 g23 0.2
R12 g23 g33 0.2
C1 g11 0 2p
C2 g12 0 2p
C3 g13 0 2p
C4 g21 0 2p
C5 g22 0 2p
C6 g23 0 2p
C7 g31 0 2p
C8 g32 0 2p
C9 g33 0 2p
I1 g22 0 PULSE(0 5m 1n 0.1n 0.1n 1n 0)
I2 g13 0 PULSE(0 3m 3n 0.2n 0.2n 0.5n 0)
.tran 10p 10n
.end
)";

struct CliOptions {
  std::string deck_path;
  std::string method = "rmatex";
  bool method_given = false;
  double tstep = 0.0;
  double tstop = 0.0;
  double gamma = 0.0;
  double tol = 1e-7;
  int threads = -1;  ///< -1 = not given; 0 = hardware concurrency
  double deadline = 0.0;        ///< wall-clock budget in s; 0 = none
  std::string checkpoint_path;  ///< batch journal; empty = disabled
  int shards = 1;               ///< > 1 = multi-process campaign
  int batch_worker = -1;        ///< >= 0 = this process is shard K
  std::string store_path;       ///< binary waveform store output
  std::string store_dump_path;  ///< store -> text conversion mode
  bool batch = false;
  bool keep_vsources = false;
  bool verify = false;
  bool update_goldens = false;
  std::string goldens_dir = "tests/goldens";
  int fuzz_cases = 0;  ///< > 0 enables fuzz mode
  bool fuzz_vsource = false;  ///< vsource-deck campaign (dense DAE oracle)
  std::uint64_t fuzz_seed = 20140601;
  std::string artifact_dir;
  std::vector<std::string> probes;
  std::string out_path;
  std::string perf_json_path;
  std::string trace_path;
};

/// Writes the --perf-json artifact (returns false on I/O failure --
/// including a failure *after* the open, e.g. a full disk, which the
/// pre-PR-6 version reported as success).
bool write_perf_json(const std::string& path, const solver::JsonWriter& w) {
  std::ofstream out(path);
  if (out) {
    out << w.str();
    out.flush();
  }
  if (!out) {
    std::fprintf(stderr, "matex_cli: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote perf stats to %s\n", path.c_str());
  return true;
}

/// Stops tracing and writes the Chrome trace-event file, if --trace was
/// given. Returns false (after a diagnostic) on I/O failure.
bool dump_trace(const CliOptions& cli) {
  if (cli.trace_path.empty()) return true;
  obs::stop_tracing();
  if (!obs::write_chrome_trace_file(cli.trace_path)) {
    std::fprintf(stderr, "matex_cli: cannot write trace %s\n",
                 cli.trace_path.c_str());
    return false;
  }
  const long long dropped = obs::dropped_event_count();
  if (dropped > 0)
    std::fprintf(stderr,
                 "matex_cli: trace ring overflow, %lld events dropped\n",
                 dropped);
  std::fprintf(stderr, "wrote trace to %s (open in ui.perfetto.dev)\n",
               cli.trace_path.c_str());
  return true;
}

/// The --help text. docs/CLI.md documents exactly this flag set between
/// its flags:begin/flags:end markers, and tests/test_docs.cpp diffs the
/// two -- a flag added here without a docs row (or vice versa) fails CI.
void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: matex_cli DECK.sp [--method rmatex|imatex|mexp|tr|be|tradpt|"
      "dist]\n"
      "                 [--tstep S] [--tstop S] [--gamma S] [--tol EPS]\n"
      "                 [--threads N] [--batch] [--keep-vsources]\n"
      "                 [--deadline S] [--checkpoint FILE]\n"
      "                 [--shards N] [--batch-worker K] [--store FILE]\n"
      "                 [--probe NODE]... [--out FILE] [--perf-json FILE]\n"
      "                 [--trace FILE]\n"
      "       matex_cli --verify [--update-goldens] [--goldens DIR]\n"
      "       matex_cli --fuzz N | --fuzz-vsource N\n"
      "                 [--fuzz-seed S] [--artifacts DIR]\n"
      "       matex_cli --store-dump FILE [--out FILE]\n"
      "       matex_cli --help\n"
      "\n"
      "--deadline S cancels the run after S seconds of wall time;\n"
      "--checkpoint FILE journals completed batch scenarios and resumes\n"
      "a re-run from them. Ctrl-C cancels cleanly (artifacts flush);\n"
      "a second Ctrl-C force-kills.\n"
      "--shards N fans a --batch campaign out over N worker processes\n"
      "(requires --checkpoint; shard journals merge into it and the\n"
      "merged report is bitwise-identical to a single-process run).\n"
      "--batch-worker K runs shard K of --shards N in-process (spawned\n"
      "by the coordinator; useful manually for offline fan-out).\n"
      "--store FILE writes campaign waveforms as a binary store\n"
      "(docs/FORMATS.md); --store-dump FILE prints one back as text.\n"
      "exit codes: 0 success; 1 simulation/verify/fuzz failures or\n"
      "artifact write errors; 2 bad invocation; 3 cancelled (SIGINT or\n"
      "--deadline).\n"
      "full reference: docs/CLI.md\n");
}

[[noreturn]] void usage_and_exit() {
  print_usage(stderr);
  std::exit(2);
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit();
      return argv[++i];
    };
    if (arg == "--method") {
      opt.method = next();
      opt.method_given = true;
    } else if (arg == "--tstep") {
      opt.tstep = circuit::parse_spice_value(next());
    } else if (arg == "--tstop") {
      opt.tstop = circuit::parse_spice_value(next());
    } else if (arg == "--gamma") {
      opt.gamma = circuit::parse_spice_value(next());
    } else if (arg == "--tol") {
      opt.tol = circuit::parse_spice_value(next());
    } else if (arg == "--threads") {
      const std::string value = next();
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || parsed < 0 || parsed > 4096)
        usage_and_exit();
      opt.threads = static_cast<int>(parsed);
    } else if (arg == "--deadline") {
      opt.deadline = circuit::parse_spice_value(next());
      if (opt.deadline <= 0.0) usage_and_exit();
    } else if (arg == "--checkpoint") {
      opt.checkpoint_path = next();
    } else if (arg == "--shards" || arg == "--batch-worker") {
      const std::string value = next();
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || parsed < 0 || parsed > 512)
        usage_and_exit();
      if (arg == "--shards") {
        if (parsed < 1) usage_and_exit();
        opt.shards = static_cast<int>(parsed);
      } else {
        opt.batch_worker = static_cast<int>(parsed);
        opt.batch = true;  // a worker is always a campaign run
      }
    } else if (arg == "--store") {
      opt.store_path = next();
    } else if (arg == "--store-dump") {
      opt.store_dump_path = next();
    } else if (arg == "--help") {
      print_usage(stdout);
      std::exit(0);
    } else if (arg == "--batch") {
      opt.batch = true;
    } else if (arg == "--keep-vsources") {
      opt.keep_vsources = true;
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--update-goldens") {
      opt.update_goldens = true;
    } else if (arg == "--goldens") {
      opt.goldens_dir = next();
    } else if (arg == "--fuzz" || arg == "--fuzz-vsource") {
      const std::string value = next();
      char* end = nullptr;
      errno = 0;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || errno == ERANGE || parsed <= 0 ||
          parsed > 1000000)
        usage_and_exit();
      opt.fuzz_cases = static_cast<int>(parsed);
      opt.fuzz_vsource = arg == "--fuzz-vsource";
    } else if (arg == "--fuzz-seed") {
      const std::string value = next();
      char* end = nullptr;
      errno = 0;
      const unsigned long long parsed =
          std::strtoull(value.c_str(), &end, 10);
      // strtoull silently wraps negatives; reject them so the reported
      // "seed S" is always the seed that actually ran.
      if (value.empty() || value[0] == '-' || *end != '\0' ||
          errno == ERANGE)
        usage_and_exit();
      opt.fuzz_seed = parsed;
    } else if (arg == "--artifacts") {
      opt.artifact_dir = next();
    } else if (arg == "--probe") {
      opt.probes.push_back(next());
    } else if (arg == "--out") {
      opt.out_path = next();
    } else if (arg == "--perf-json") {
      opt.perf_json_path = next();
    } else if (arg == "--trace") {
      opt.trace_path = next();
    } else if (arg.rfind("--", 0) == 0) {
      usage_and_exit();
    } else if (opt.deck_path.empty()) {
      opt.deck_path = arg;
    } else {
      usage_and_exit();
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) try {
  CliOptions cli = parse_args(argc, argv);

  if (cli.verify) {
    // Golden-waveform regression gate over the standard suite.
    const auto report = verify::run_golden_gate(
        cli.goldens_dir, cli.update_goldens, &std::cerr);
    std::fprintf(stderr, "verify: %d scenarios, %d failures%s\n",
                 report.checked, report.failures,
                 cli.update_goldens ? " (goldens updated)" : "");
    return report.failures == 0 ? 0 : 1;
  }
  if (cli.fuzz_cases > 0) {
    verify::FuzzOptions fopt;
    fopt.seed = cli.fuzz_seed;
    fopt.cases = cli.fuzz_cases;
    fopt.artifact_dir = cli.artifact_dir;
    fopt.log = &std::cerr;
    const auto report = cli.fuzz_vsource ? verify::run_vsource_fuzz(fopt)
                                         : verify::run_fuzz(fopt);
    std::fprintf(stderr,
                 "%s: seed %llu, %d cases, %lld checks, %d failures, "
                 "worst err/tol %.3f\n",
                 cli.fuzz_vsource ? "vsource-fuzz" : "fuzz",
                 static_cast<unsigned long long>(report.seed), report.cases,
                 report.checks, report.failures, report.max_err_ratio);
    return report.failures == 0 ? 0 : 1;
  }
  if (!cli.store_dump_path.empty()) {
    // Binary store -> plain text bridge: every chunk becomes one waveform
    // table, on stdout or under --out FILE.<scenario> like batch mode.
    const solver::WaveformStoreReader reader(cli.store_dump_path);
    for (const auto& chunk : reader.chunks()) {
      const solver::WaveformTable table = chunk.to_table();
      if (cli.out_path.empty()) {
        std::printf("# scenario %u %s fingerprint %016llx\n",
                    chunk.scenario_index, chunk.name.c_str(),
                    static_cast<unsigned long long>(chunk.fingerprint));
        std::ostringstream buf;
        solver::write_waveform_table(table, buf);
        std::fputs(buf.str().c_str(), stdout);
      } else {
        std::string suffix = chunk.name;
        for (char& ch : suffix)
          if (ch == '/' || ch == ' ') ch = '_';
        solver::write_waveform_table_file(table,
                                          cli.out_path + "." + suffix);
      }
    }
    if (reader.recovered_by_scan())
      std::fprintf(stderr,
                   "matex_cli: store footer missing/corrupt; %zu chunks "
                   "recovered by scan\n",
                   reader.chunks().size());
    if (reader.corrupt_chunks_skipped() > 0)
      std::fprintf(stderr, "matex_cli: %lld corrupt chunks skipped\n",
                   reader.corrupt_chunks_skipped());
    std::fprintf(stderr, "dumped %zu scenario chunks from %s\n",
                 reader.chunks().size(), cli.store_dump_path.c_str());
    return reader.corrupt_chunks_skipped() == 0 ? 0 : 1;
  }

  // Observability switches before any simulation work: tracing from deck
  // parse onward (so the "stamp" span is captured), metrics instruments
  // live whenever a perf artifact was requested.
  if (!cli.trace_path.empty()) obs::start_tracing();
  if (!cli.perf_json_path.empty()) obs::enable_metrics();

  // Clean cancellation from here on: SIGINT (and --deadline, layered on
  // the same token below) stops solver loops within one step and still
  // flushes whatever artifacts were requested.
  std::signal(SIGINT, handle_sigint);
  runtime::CancelToken run_cancel(&g_sigint_cancel);
  if (cli.deadline > 0.0) run_cancel.set_deadline_after(cli.deadline);

  const circuit::SpiceDeck deck =
      cli.deck_path.empty() ? circuit::read_spice_string(kDemoDeck)
                            : circuit::read_spice_file(cli.deck_path);
  if (cli.deck_path.empty())
    std::fprintf(stderr, "(no deck given: simulating the built-in demo)\n");

  const double tstep = cli.tstep > 0.0
                           ? cli.tstep
                           : deck.tran_step.value_or(1e-11);
  const double tstop =
      cli.tstop > 0.0 ? cli.tstop : deck.tran_stop.value_or(1e-8);
  const double gamma = cli.gamma > 0.0 ? cli.gamma : tstep * 10.0;

  circuit::MnaOptions mna_options;
  mna_options.eliminate_grounded_vsources = !cli.keep_vsources;
  const circuit::MnaSystem mna(deck.netlist, mna_options);
  std::fprintf(stderr, "deck: %zu elements, %d unknowns, %d inputs%s\n",
               deck.netlist.element_count(), mna.dimension(),
               mna.input_count(),
               cli.keep_vsources ? " (vsources kept)" : "");

  // Probe selection: user-specified nodes or the first three unknowns.
  std::vector<std::string> probe_names = cli.probes;
  std::vector<la::index_t> probe_idx;
  if (probe_names.empty()) {
    for (la::index_t node = 0;
         node < deck.netlist.node_count() && probe_idx.size() < 3; ++node)
      if (mna.unknown_index(node) >= 0) {
        probe_idx.push_back(mna.unknown_index(node));
        probe_names.push_back(deck.netlist.node_name(node));
      }
  } else {
    for (const auto& name : probe_names) {
      const auto idx = mna.unknown_index(deck.netlist.find_node(name));
      if (idx < 0) {
        std::fprintf(stderr, "probe %s is ground or a fixed rail\n",
                     name.c_str());
        return 2;
      }
      probe_idx.push_back(idx);
    }
  }

  const auto grid = solver::uniform_grid(0.0, tstop, tstep);

  if (cli.batch) {
    if (cli.keep_vsources)
      std::fprintf(stderr,
                   "matex_cli: note: --batch assembles decks itself; "
                   "--keep-vsources only affects single-method runs\n");
    if (cli.shards > 1 && cli.checkpoint_path.empty()) {
      std::fprintf(stderr,
                   "matex_cli: --shards requires --checkpoint FILE (the "
                   "shard journals merge into it)\n");
      return 2;
    }
    if (cli.batch_worker >= 0 && cli.batch_worker >= cli.shards) {
      std::fprintf(stderr,
                   "matex_cli: --batch-worker K needs K < --shards N\n");
      return 2;
    }

    // Coordinator: fan the campaign out over worker processes *before*
    // constructing the engine (fork with the pool's threads live would be
    // fragile), merge the shard journals into --checkpoint, then fall
    // through to a normal run that restores everything the workers
    // finished and computes whatever they did not.
    std::vector<runtime::WorkerOutcome> fleet;
    if (cli.shards > 1 && cli.batch_worker < 0) {
      std::vector<std::string> base_argv;
      base_argv.push_back(runtime::self_executable_path(argv[0]));
      for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        // Outputs stay coordinator-owned; sharding flags are re-issued
        // per worker. Everything else passes through verbatim so workers
        // expand the identical campaign.
        if (a == "--out" || a == "--perf-json" || a == "--trace" ||
            a == "--store" || a == "--shards" || a == "--checkpoint") {
          ++i;
          continue;
        }
        base_argv.push_back(a);
      }
      std::vector<runtime::WorkerLaunch> launches(
          static_cast<std::size_t>(cli.shards));
      for (int k = 0; k < cli.shards; ++k) {
        runtime::WorkerLaunch& launch = launches[static_cast<std::size_t>(k)];
        launch.shard_index = k;
        launch.argv = base_argv;
        launch.argv.insert(launch.argv.end(),
                           {"--shards", std::to_string(cli.shards),
                            "--batch-worker", std::to_string(k),
                            "--checkpoint",
                            cli.checkpoint_path + ".shard" +
                                std::to_string(k)});
      }
      std::fprintf(stderr, "batch: coordinating %d worker processes\n",
                   cli.shards);
      fleet = runtime::run_worker_fleet(launches, /*max_respawns=*/2,
                                        &g_sigint_cancel);
      std::ofstream merged(cli.checkpoint_path,
                           std::ios::app | std::ios::binary);
      for (const runtime::WorkerOutcome& o : fleet) {
        std::fprintf(stderr, "worker %d: exit %d after %d spawn%s\n",
                     o.shard_index, o.exit_code, o.spawns,
                     o.spawns == 1 ? "" : "s");
        std::ifstream shard_journal(cli.checkpoint_path + ".shard" +
                                        std::to_string(o.shard_index),
                                    std::ios::binary);
        // Byte copy, not operator<<(streambuf*): the latter fails the
        // *output* stream on an empty source, and a shard that owned
        // zero scenarios legitimately leaves an empty journal.
        const std::string bytes(
            (std::istreambuf_iterator<char>(shard_journal)),
            std::istreambuf_iterator<char>());
        merged.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
      }
      if (!merged) {
        std::fprintf(stderr, "matex_cli: cannot merge shard journals "
                             "into %s\n",
                     cli.checkpoint_path.c_str());
        return 1;
      }
      merged.close();
    }

    // Campaign mode: sweep the deck over methods x gamma x tolerance on
    // the shared pool + factorization cache, streaming per-job stats.
    runtime::BatchOptions bopt;
    bopt.threads = cli.threads < 0 ? 0 : cli.threads;
    bopt.cancel = &g_sigint_cancel;
    bopt.campaign_deadline_seconds = cli.deadline;
    bopt.checkpoint_path = cli.checkpoint_path;
    if (cli.batch_worker >= 0) {
      bopt.shard_count = cli.shards;
      bopt.shard_index = cli.batch_worker;
    }
    runtime::BatchEngine engine(bopt);
    const std::string label =
        cli.deck_path.empty() ? std::string("demo") : cli.deck_path;
    engine.add_deck(label, deck.netlist);

    runtime::CampaignSweep sweep;
    // Default sweep covers both regular MATEX methods; an explicit
    // --method narrows the campaign to that Krylov kind.
    if (!cli.method_given) {
      sweep.methods = {krylov::KrylovKind::kRational,
                       krylov::KrylovKind::kInverted};
    } else if (cli.method == "rmatex") {
      sweep.methods = {krylov::KrylovKind::kRational};
    } else if (cli.method == "imatex") {
      sweep.methods = {krylov::KrylovKind::kInverted};
    } else if (cli.method == "mexp") {
      sweep.methods = {krylov::KrylovKind::kStandard};
      sweep.base.solver.c_regularization = 1e-18;
      sweep.base.solver.max_dim = 300;
    } else {
      std::fprintf(stderr,
                   "matex_cli: --batch sweeps Krylov methods only "
                   "(rmatex|imatex|mexp), got --method %s\n",
                   cli.method.c_str());
      return 2;
    }
    sweep.gammas = {gamma, 2.0 * gamma};
    sweep.tolerances = {cli.tol, cli.tol / 10.0};
    sweep.base.t_end = tstop;
    sweep.base.output_times = grid;
    sweep.probes = probe_idx;
    const auto scenarios = engine.expand(sweep);

    std::fprintf(stderr, "batch: %zu scenarios on %d threads\n",
                 scenarios.size(), engine.pool().size());
    std::fprintf(stderr, "%-40s %6s %8s %8s %9s  %s\n", "scenario", "grp",
                 "steps", "solves", "wall(s)", "status");
    // Deterministic worker-kill for the sharded fault tests: a worker
    // _Exits as if SIGKILLed after journaling N *fresh* scenarios
    // (restored ones excluded, so a respawned worker makes progress).
    // Safe because the engine journals before it sinks -- the scenario
    // this fires on is already durable in the shard journal.
    long long exit_after = 0;
    if (cli.batch_worker >= 0)
      if (const char* e = std::getenv("MATEX_WORKER_EXIT_AFTER"))
        exit_after = std::strtoll(e, nullptr, 10);
    long long fresh_done = 0;  // sink calls are serialized
    const auto report = engine.run(
        scenarios, [&](const runtime::ScenarioResult& r) {
          std::fprintf(stderr, "%-40s %6zu %8lld %8lld %9.4f  %s\n",
                       r.name.c_str(), r.distributed.group_count,
                       r.distributed.aggregate.steps,
                       r.distributed.aggregate.solves, r.wall_seconds,
                       r.ok         ? (r.attempts == 0 ? "ok (restored)"
                                                       : "ok")
                       : r.cancelled ? "cancelled"
                                     : r.error.c_str());
          if (exit_after > 0 && r.ok && r.attempts > 0 &&
              ++fresh_done >= exit_after)
            std::_Exit(137);  // the same shape as an external kill -9
        });
    std::fprintf(stderr,
                 "batch done in %.4f s: %zu scenarios, %d failed, "
                 "%d cancelled, %d retries, "
                 "factor cache %lld hits / %lld misses (%.0f%% hit rate)\n",
                 report.wall_seconds, report.results.size(),
                 report.failures, report.cancelled, report.retries,
                 report.cache.hits, report.cache.misses,
                 100.0 * report.cache_hit_rate());
    if (report.checkpoint_restored > 0)
      std::fprintf(stderr, "checkpoint: %lld scenarios restored from %s\n",
                   report.checkpoint_restored,
                   cli.checkpoint_path.c_str());
    if (cli.batch_worker >= 0)
      std::fprintf(stderr,
                   "worker %d/%d: %lld foreign-shard scenarios skipped\n",
                   cli.batch_worker, cli.shards, report.sharded_out);

    if (!cli.store_path.empty()) {
      // Binary campaign output, written in campaign order from the merged
      // report so the bytes never depend on completion order or sharding.
      solver::WaveformStoreWriter store(cli.store_path);
      for (std::size_t si = 0; si < report.results.size(); ++si) {
        const runtime::ScenarioResult& r = report.results[si];
        if (!r.ok) continue;
        store.append(static_cast<std::uint32_t>(si),
                     runtime::scenario_fingerprint(scenarios[si], label),
                     r.name, probe_names, r.times, r.probe_waveforms);
      }
      store.close();
      std::fprintf(stderr, "wrote %zu waveform chunks to %s\n",
                   store.chunks_written(), cli.store_path.c_str());
    }
    if (!cli.out_path.empty()) {
      for (const auto& r : report.results) {
        if (!r.ok) continue;
        std::string suffix = r.name;
        for (char& ch : suffix)
          if (ch == '/' || ch == ' ') ch = '_';
        solver::WaveformTable table;
        table.times = r.times;
        table.names = probe_names;
        table.columns = r.probe_waveforms;
        solver::write_waveform_table_file(table,
                                          cli.out_path + "." + suffix);
      }
      std::fprintf(stderr, "wrote %zu waveform tables under %s.*\n",
                   report.results.size() -
                       static_cast<std::size_t>(report.failures),
                   cli.out_path.c_str());
    }
    if (!cli.perf_json_path.empty()) {
      solver::JsonWriter w;
      w.begin_object();
      w.key("mode").value("batch");
      w.key("scenarios").value(report.results.size());
      w.key("failures").value(report.failures);
      w.key("cancelled").value(report.cancelled);
      w.key("retries").value(report.retries);
      w.key("cache_sheds").value(report.cache_sheds);
      w.key("checkpoint_restored").value(report.checkpoint_restored);
      w.key("sharded_out").value(report.sharded_out);
      if (!fleet.empty()) {
        // Per-worker process outcomes: the merged perf artifact is the
        // one place the whole fleet is visible at once.
        w.key("shards").value(static_cast<long long>(cli.shards));
        w.key("workers").begin_array();
        for (const runtime::WorkerOutcome& o : fleet) {
          w.begin_object();
          w.key("shard").value(static_cast<long long>(o.shard_index));
          w.key("spawns").value(static_cast<long long>(o.spawns));
          w.key("exit_code").value(static_cast<long long>(o.exit_code));
          w.key("ok").value(o.ok);
          w.end_object();
        }
        w.end_array();
      }
      w.key("threads").value(engine.pool().size());
      w.key("wall_seconds").value(report.wall_seconds);
      w.key("factor_cache").begin_object();
      obs::write_factor_cache_stats(w, report.cache);
      w.end_object();
      w.key("pool").begin_object();
      obs::write_thread_pool_stats(w, report.pool);
      w.end_object();
      w.key("per_scenario").begin_array();
      for (const auto& r : report.results) {
        w.begin_object();
        w.key("name").value(r.name);
        w.key("ok").value(r.ok);
        w.key("wall_seconds").value(r.wall_seconds);
        obs::write_transient_stats(w, r.distributed.aggregate);
        // Scheduler timing split, per-scenario cache attribution and the
        // per-node reports (group identity, LTS size, per-node stats).
        obs::write_distributed_timings(w, r.distributed);
        obs::write_node_reports(w, r.distributed.nodes);
        w.end_object();
      }
      w.end_array();
      obs::write_metrics(w);
      w.end_object();
      if (!write_perf_json(cli.perf_json_path, w)) return 1;
    }
    const bool trace_ok = dump_trace(cli);
    if (report.failures > 0 || !trace_ok) return 1;
    return report.cancelled > 0 ? 3 : 0;
  }

  // The distributed scheduler computes its own DC point (task 0).
  const bool dist = cli.method == "dist";
  const auto dc = dist ? solver::DcResult{} : solver::dc_operating_point(mna);
  solver::ProbeRecorder recorder(probe_idx);
  auto observer = recorder.observer();

  solver::TransientStats stats;
  core::DistributedResult dist_result;  // kept for --perf-json (dist only)
  if (cli.method == "tr" || cli.method == "be") {
    solver::FixedStepOptions opt;
    opt.t_end = tstop;
    opt.h = tstep;
    opt.cancel = &run_cancel;
    stats = run_fixed_step(mna, dc.x,
                           cli.method == "tr"
                               ? solver::StepMethod::kTrapezoidal
                               : solver::StepMethod::kBackwardEuler,
                           opt, observer);
  } else if (cli.method == "tradpt") {
    solver::AdaptiveTrOptions opt;
    opt.t_end = tstop;
    opt.h_init = tstep / 10.0;
    opt.lte_tol = cli.tol;
    opt.output_times = grid;
    opt.cancel = &run_cancel;
    stats = run_adaptive_trapezoidal(mna, dc.x, opt, observer);
  } else if (dist) {
    core::SchedulerOptions opt;
    opt.t_end = tstop;
    opt.solver.gamma = gamma;
    opt.solver.tolerance = cli.tol;
    opt.output_times = grid;
    opt.cancel = &run_cancel;
    if (cli.threads >= 0) opt.parallelism = cli.threads;
    opt.probes = recorder.probe_set();
    dist_result =
        core::run_distributed_matex(mna, opt, recorder.probe_observer());
    std::fprintf(stderr,
                 "distributed: %zu nodes on %d workers, "
                 "max node transient %.4f s\n",
                 dist_result.group_count, dist_result.workers_used,
                 dist_result.max_node_transient_seconds);
    stats = dist_result.aggregate;
  } else {
    core::MatexOptions opt;
    opt.tolerance = cli.tol;
    opt.gamma = gamma;
    opt.cancel = &run_cancel;
    if (cli.method == "rmatex") {
      opt.kind = krylov::KrylovKind::kRational;
    } else if (cli.method == "imatex") {
      opt.kind = krylov::KrylovKind::kInverted;
    } else if (cli.method == "mexp") {
      opt.kind = krylov::KrylovKind::kStandard;
      opt.c_regularization = 1e-18;
      opt.max_dim = 300;
    } else {
      usage_and_exit();
    }
    core::MatexCircuitSolver solver(mna, opt, dc.g_factors);
    const core::FullInput input(mna);
    stats = solver.run(dc.x, 0.0, tstop, input, grid,
                       recorder.probe_observer(), recorder.probe_set());
  }

  std::fprintf(stderr,
               "method=%s steps=%lld solves=%lld factorizations=%lld "
               "subspaces=%lld (avg dim %.1f) transient=%.4fs\n",
               cli.method.c_str(), stats.steps, stats.solves,
               stats.factorizations, stats.krylov_subspaces,
               stats.krylov_dim_avg(), stats.transient_seconds);

  if (!cli.perf_json_path.empty()) {
    solver::JsonWriter w;
    w.begin_object();
    w.key("mode").value("single");
    w.key("method").value(cli.method);
    w.key("unknowns").value(static_cast<long long>(mna.dimension()));
    w.key("tstep").value(tstep);
    w.key("tstop").value(tstop);
    // dist writes its DC time with the rest of its timing split.
    if (!dist) w.key("dc_seconds").value(dc.seconds);
    obs::write_transient_stats(w, stats);
    if (dist) {
      obs::write_distributed_timings(w, dist_result);
      obs::write_node_reports(w, dist_result.nodes);
    }
    obs::write_metrics(w);
    w.end_object();
    if (!write_perf_json(cli.perf_json_path, w)) return 1;
  }

  const auto table =
      solver::WaveformTable::from_recorder(recorder, probe_names);
  if (cli.out_path.empty()) {
    std::ostringstream buf;
    solver::write_waveform_table(table, buf);
    std::fputs(buf.str().c_str(), stdout);
  } else {
    solver::write_waveform_table_file(table, cli.out_path);
    std::fprintf(stderr, "wrote %s\n", cli.out_path.c_str());
  }
  if (!dump_trace(cli)) return 1;
  return 0;
} catch (const matex::CancelledError& e) {
  std::fprintf(stderr, "matex_cli: cancelled: %s\n", e.what());
  return 3;
} catch (const std::exception& e) {
  std::fprintf(stderr, "matex_cli: %s\n", e.what());
  return 1;
}
