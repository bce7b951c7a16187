/// \file bench_e2e.cpp
/// \brief The in-process half of the end-to-end benchmark (run.py drives
///        matex_cli; this binary does what needs the library directly).
///
/// Usage (each command prints one JSON object on stdout):
///   bench_e2e deck --scale X --seed S --out DECK.sp
///       Generates table_benchmark_spec(6, X) with spec.seed = S, writes
///       it with write_spice_file and reports the deck pins.
///   bench_e2e setup --deck DECK.sp --reps K [--op rational:G]...
///                   [--op inverted]
///       Times K set-up passes: read_spice_file + MnaSystem +
///       dc_operating_point + one CircuitOperator per --op. Reports each
///       pass and the LU shape of the first operator (of LU(G) if none).
///   bench_e2e reference --deck DECK.sp --probes FILE --out TABLE
///       Fixed-step TR at h = 1 ps (the Table 3 golden protocol), sampled
///       on the 10 ps output grid, written as a waveform table.
///   bench_e2e check --ref TABLE --rung matex|tradpt
///                   (--table FILE | --store FILE)
///       Max probe error against the reference over the fuzz-ladder
///       tolerance (rung x swing, swing floored at 1e-3 x Vdd).
///   bench_e2e replay --journal FILE --store FILE --work DIR
///       Times a WaveformStoreReader open and a WaveformStoreWriter rewrite
///       of the store (and checks the rewrite is byte-identical), then a
///       load_checkpoint and a CheckpointWriter::append replay of the
///       journal.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/mna.hpp"
#include "circuit/spice.hpp"
#include "core/decomposition.hpp"
#include "krylov/operator.hpp"
#include "la/error.hpp"
#include "pgbench/pg_generator.hpp"
#include "runtime/checkpoint.hpp"
#include "solver/dc.hpp"
#include "solver/fixed_step.hpp"
#include "solver/json_writer.hpp"
#include "solver/observer.hpp"
#include "solver/waveform_io.hpp"
#include "solver/waveform_store.hpp"
#include "verify/fuzz.hpp"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
#define BENCH_E2E_COMPILER "clang " __clang_version__
#else
#define BENCH_E2E_COMPILER "gcc " __VERSION__
#endif

namespace {

using namespace matex;
using Clock = std::chrono::steady_clock;

/// Output grid of every workload (the deck's .tran card) and the
/// reference step, which must divide it.
constexpr double kOutputStep = 1e-11;
constexpr double kReferenceStep = 1e-12;
constexpr int kReferenceRefine = 10;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

/// `--key value` pairs; a key may repeat (--op).
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) usage("expected --key, got " + key);
      pairs_.emplace_back(key.substr(2), argv[i + 1]);
    }
    if (argc % 2 != 0) usage("dangling argument");
  }

  std::string get(const std::string& key) const {
    for (const auto& [k, v] : pairs_)
      if (k == key) return v;
    usage("missing --" + key);
  }

  std::vector<std::string> all(const std::string& key) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : pairs_)
      if (k == key) out.push_back(v);
    return out;
  }

  [[noreturn]] static void usage(const std::string& why) {
    std::fprintf(stderr,
                 "bench_e2e: %s\n"
                 "usage: bench_e2e deck|setup|reference|check|replay "
                 "--key value ...\n",
                 why.c_str());
    std::exit(2);
  }

 private:
  std::vector<std::pair<std::string, std::string>> pairs_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

int cmd_deck(const Args& args) {
  pgbench::PowerGridSpec spec =
      pgbench::table_benchmark_spec(6, std::stod(args.get("scale")));
  spec.seed = std::stoull(args.get("seed"));
  const circuit::Netlist netlist = pgbench::generate_power_grid(spec);
  circuit::write_spice_file(netlist, args.get("out"), spec.name, kOutputStep,
                            spec.t_window);
  const circuit::MnaSystem mna(netlist);
  core::DecompositionOptions dopt;
  dopt.t_end = spec.t_window;
  const auto groups = core::decompose_sources(mna, dopt).groups.size();

  solver::JsonWriter w;
  w.begin_object();
  w.key("unknowns").value(static_cast<long long>(mna.dimension()));
  w.key("nnz_g").value(static_cast<long long>(mna.g().nnz()));
  w.key("nnz_c").value(static_cast<long long>(mna.c().nnz()));
  w.key("inputs").value(static_cast<long long>(mna.input_count()));
  w.key("groups").value(groups);
  w.key("rows").value(static_cast<long long>(spec.rows));
  w.key("node_prefix").value(spec.name + "_n0_");
  w.key("hardware_concurrency")
      .value(static_cast<long long>(std::thread::hardware_concurrency()));
  w.key("compiler").value(BENCH_E2E_COMPILER);
  w.key("build_type").value(BENCH_E2E_BUILD_TYPE);
  w.end_object();
  std::cout << w.str() << '\n';
  return 0;
}

/// One Krylov operator of the workload's method set: "rational:GAMMA"
/// (R-MATEX, LU(C + gamma G)) or "inverted" (I-MATEX, LU(G)).
struct OperatorSpec {
  krylov::KrylovKind kind;
  double gamma;
};

OperatorSpec parse_operator(const std::string& text) {
  if (text == "inverted") return {krylov::KrylovKind::kInverted, 0.0};
  const std::string prefix = "rational:";
  if (text.rfind(prefix, 0) == 0)
    return {krylov::KrylovKind::kRational,
            std::stod(text.substr(prefix.size()))};
  Args::usage("unknown --op " + text);
}

int cmd_setup(const Args& args) {
  const std::string deck_path = args.get("deck");
  const int reps = std::stoi(args.get("reps"));
  if (reps < 1) Args::usage("--reps must be >= 1");
  std::vector<OperatorSpec> ops;
  for (const std::string& op : args.all("op"))
    ops.push_back(parse_operator(op));

  std::map<std::string, std::vector<double>> phases;
  double lu_bytes = 0.0, fill_ratio = 0.0, supernode_avg_width = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    const circuit::SpiceDeck deck = circuit::read_spice_file(deck_path);
    const double parse = seconds_since(t0);
    auto t = Clock::now();
    const circuit::MnaSystem mna(deck.netlist);
    const double stamp = seconds_since(t);
    t = Clock::now();
    const solver::DcResult dc = solver::dc_operating_point(mna);
    const double dc_s = seconds_since(t);
    t = Clock::now();
    std::vector<std::unique_ptr<krylov::CircuitOperator>> built;
    for (const OperatorSpec& op : ops)
      built.push_back(std::make_unique<krylov::CircuitOperator>(
          mna.c(), mna.g(), op.kind, op.gamma));
    const double operators = seconds_since(t);
    phases["setup_s"].push_back(seconds_since(t0));
    phases["parse_s"].push_back(parse);
    phases["stamp_s"].push_back(stamp);
    phases["dc_s"].push_back(dc_s);
    phases["operators_s"].push_back(operators);

    const la::SparseLU& lu =
        built.empty() ? *dc.g_factors : built.front()->factorization();
    lu_bytes = static_cast<double>(lu.memory_bytes());
    fill_ratio = lu.fill_ratio();
    supernode_avg_width =
        lu.symbolic()->supernode_stats().avg_width(lu.order());
  }

  solver::JsonWriter w;
  w.begin_object();
  for (const auto& [name, values] : phases) {
    w.key(name).begin_array();
    for (const double v : values) w.value_exact(v);
    w.end_array();
  }
  w.key("lu_mb").value(mib(lu_bytes));
  w.key("fill_ratio").value(fill_ratio);
  w.key("supernode_avg_width").value(supernode_avg_width);
  w.end_object();
  std::cout << w.str() << '\n';
  return 0;
}

int cmd_reference(const Args& args) {
  const circuit::SpiceDeck deck = circuit::read_spice_file(args.get("deck"));
  const circuit::MnaSystem mna(deck.netlist);
  const double t_end = deck.tran_stop.value_or(1e-8);

  solver::WaveformTable table;
  std::vector<la::index_t> probes;
  {
    std::ifstream in(args.get("probes"));
    for (std::string name; in >> name;) {
      const la::index_t idx =
          mna.unknown_index(deck.netlist.find_node(name));
      MATEX_CHECK(idx >= 0, "probe " + name + " is not an unknown");
      probes.push_back(idx);
      table.names.push_back(name);
    }
  }
  MATEX_CHECK(!probes.empty(), "no probes given");
  table.times = solver::uniform_grid(0.0, t_end, kOutputStep);
  table.columns.resize(probes.size());

  const solver::DcResult dc = solver::dc_operating_point(mna);
  solver::FixedStepOptions opt;
  opt.t_end = t_end;
  opt.h = kReferenceStep;
  std::size_t step = 0;
  solver::run_fixed_step(
      mna, dc.x, solver::StepMethod::kTrapezoidal, opt,
      [&](double, std::span<const double> x) {
        if (step++ % kReferenceRefine != 0) return;
        for (std::size_t p = 0; p < probes.size(); ++p)
          table.columns[p].push_back(x[static_cast<std::size_t>(probes[p])]);
      });
  table.validate();
  solver::write_waveform_table_file(table, args.get("out"));

  solver::JsonWriter w;
  w.begin_object();
  w.key("probes").value(probes.size());
  w.key("samples").value(table.times.size());
  w.end_object();
  std::cout << w.str() << '\n';
  return 0;
}

/// Max-minus-min over the reference columns the candidate also holds.
double swing_over(const solver::WaveformTable& ref,
                  const std::vector<std::string>& names) {
  double swing = 0.0;
  for (std::size_t p = 0; p < ref.names.size(); ++p) {
    if (std::find(names.begin(), names.end(), ref.names[p]) == names.end())
      continue;
    const auto [lo, hi] =
        std::minmax_element(ref.columns[p].begin(), ref.columns[p].end());
    swing = std::max(swing, *hi - *lo);
  }
  return swing;
}

int cmd_check(const Args& args) {
  const solver::WaveformTable ref =
      solver::read_waveform_table_file(args.get("ref"));
  const std::string rung_name = args.get("rung");
  const verify::ToleranceLadder ladder;
  double rung = 0.0;
  if (rung_name == "matex")
    rung = ladder.matex;
  else if (rung_name == "tradpt")
    rung = ladder.tradpt;
  else
    Args::usage("unknown --rung " + rung_name);

  std::vector<solver::WaveformTable> runs;
  const auto tables = args.all("table");
  const auto stores = args.all("store");
  for (const std::string& path : tables)
    runs.push_back(solver::read_waveform_table_file(path));
  for (const std::string& path : stores) {
    const solver::WaveformStoreReader reader(path);
    MATEX_CHECK(reader.corrupt_chunks_skipped() == 0,
                "store " + path + " has corrupt chunks");
    for (const auto& chunk : reader.chunks()) runs.push_back(chunk.to_table());
  }
  MATEX_CHECK(!runs.empty(), "nothing to check: give --table or --store");

  double max_err = 0.0, swing = 0.0;
  for (const solver::WaveformTable& run : runs) {
    max_err = std::max(max_err,
                       solver::compare_waveform_tables(run, ref).max_abs);
    swing = std::max(swing, swing_over(ref, run.names));
  }
  swing = std::max(swing, 1e-3 * pgbench::PowerGridSpec{}.vdd);
  const double tolerance = rung * swing;

  solver::JsonWriter w;
  w.begin_object();
  w.key("tables").value(runs.size());
  w.key("max_err").value(max_err);
  w.key("swing").value(swing);
  w.key("tolerance").value(tolerance);
  w.key("err_ratio").value(max_err / tolerance);
  w.end_object();
  std::cout << w.str() << '\n';
  return 0;
}

int cmd_replay(const Args& args) {
  const std::string store_path = args.get("store");
  const std::string journal_path = args.get("journal");
  const std::filesystem::path work = args.get("work");
  const std::string store_copy = (work / "replay.store").string();
  const std::string journal_copy = (work / "replay.jsonl").string();
  std::filesystem::remove(store_copy);
  std::filesystem::remove(journal_copy);

  // Store read: open (mmap + footer index) and touch every sample, so the
  // timing covers the bytes and not just the index.
  auto t = Clock::now();
  std::vector<solver::WaveformTable> tables;
  std::vector<const solver::WaveformStoreChunk*> chunks;
  double checksum = 0.0;
  const solver::WaveformStoreReader reader(store_path);
  for (const auto& chunk : reader.chunks()) {
    for (const auto& column : chunk.columns)
      for (const double v : column) checksum += v;
    chunks.push_back(&chunk);
  }
  const double store_read = seconds_since(t);
  for (const auto* chunk : chunks) tables.push_back(chunk->to_table());

  t = Clock::now();
  {
    solver::WaveformStoreWriter writer(store_copy);
    for (std::size_t i = 0; i < chunks.size(); ++i)
      writer.append(chunks[i]->scenario_index, chunks[i]->fingerprint,
                    chunks[i]->name, tables[i].names, tables[i].times,
                    tables[i].columns);
    writer.close();
  }
  const double store_write = seconds_since(t);
  const bool store_identical = slurp(store_copy) == slurp(store_path);

  t = Clock::now();
  const runtime::CheckpointJournal journal =
      runtime::load_checkpoint(journal_path);
  const double journal_load = seconds_since(t);
  std::vector<std::uint64_t> fingerprints;
  for (const auto& entry : journal.completed)
    fingerprints.push_back(entry.first);
  std::sort(fingerprints.begin(), fingerprints.end());

  t = Clock::now();
  bool journal_ok = false;
  {
    runtime::CheckpointWriter writer(journal_copy);
    for (const std::uint64_t fp : fingerprints)
      writer.append(fp, journal.completed.at(fp));
    journal_ok = writer.ok();
  }
  const double journal_append = seconds_since(t);

  solver::JsonWriter w;
  w.begin_object();
  w.key("store_read_s").value_exact(store_read);
  w.key("store_write_s").value_exact(store_write);
  w.key("store_mb").value(
      mib(static_cast<double>(std::filesystem::file_size(store_path))));
  w.key("store_chunks").value(chunks.size());
  w.key("store_identical").value(store_identical);
  w.key("journal_load_s").value_exact(journal_load);
  w.key("journal_append_s").value_exact(journal_append);
  w.key("journal_mb").value(
      mib(static_cast<double>(std::filesystem::file_size(journal_path))));
  w.key("journal_records").value(fingerprints.size());
  w.key("journal_skipped_lines").value(journal.skipped_lines);
  w.key("journal_ok").value(journal_ok);
  w.key("checksum").value(checksum);
  w.end_object();
  std::cout << w.str() << '\n';
  std::filesystem::remove(store_copy);
  std::filesystem::remove(journal_copy);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) Args::usage("missing command");
  const std::string command = argv[1];
  const Args args(argc, argv);
  if (command == "deck") return cmd_deck(args);
  if (command == "setup") return cmd_setup(args);
  if (command == "reference") return cmd_reference(args);
  if (command == "check") return cmd_check(args);
  if (command == "replay") return cmd_replay(args);
  Args::usage("unknown command " + command);
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_e2e: %s\n", e.what());
  return 1;
}
