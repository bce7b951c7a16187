/// \file test_shard_campaign.cpp
/// \brief Sharded multi-process campaigns: shard placement, the
///        BatchEngine shard filter, and the end-to-end coordinator/worker
///        flow through matex_cli -- merged report and binary store must
///        be bitwise-identical at 1/2/4 workers, including after a worker
///        is killed mid-campaign and its shard resumes from the journal.
///
/// The CLI tests compile only when CMake can point MATEX_CLI_PATH at the
/// built matex_cli (the sanitizer CI legs build with examples off; those
/// runs skip them).

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/netlist.hpp"
#include "runtime/batch.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/shard.hpp"
#include "solver/fixed_step.hpp"
#include "solver/json_writer.hpp"

#ifdef __unix__
#include <sys/wait.h>
#endif

namespace matex::runtime {
namespace {

using circuit::Netlist;
using circuit::Waveform;
using solver::uniform_grid;

// --------------------------------------------------------------- shard_of

TEST(ShardOf, StableInRangeAndExhaustive) {
  // Placement is an on-disk contract: same fingerprint, same shard,
  // every shard reachable.
  for (const int count : {1, 2, 3, 4, 7, 16}) {
    std::set<int> seen;
    for (std::uint64_t fp = 1; fp < 4096; ++fp) {
      const int s = shard_of(fp, count);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, count);
      ASSERT_EQ(s, shard_of(fp, count)) << "placement must be pure";
      seen.insert(s);
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(count));
  }
}

TEST(ShardOf, SingleShardOwnsEverything) {
  EXPECT_EQ(shard_of(0, 1), 0);
  EXPECT_EQ(shard_of(~0ull, 1), 0);
}

// ------------------------------------------------- BatchEngine filtering

/// Three-bump PDN (mirrors test_runtime.cpp) -- small enough that a
/// six-scenario campaign is cheap, structured enough to be non-trivial.
Netlist make_pdn() {
  Netlist n;
  n.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.0));
  n.add_resistor("Rp", "p", "m00", 0.2);
  const char* nodes[] = {"m00", "m01", "m10", "m11"};
  n.add_resistor("R1", "m00", "m01", 0.5);
  n.add_resistor("R2", "m10", "m11", 0.5);
  n.add_resistor("R3", "m00", "m10", 0.5);
  n.add_resistor("R4", "m01", "m11", 0.5);
  for (const char* node : nodes)
    n.add_capacitor(std::string("C") + node, node, "0", 0.3);
  circuit::PulseSpec bump;
  bump.v2 = 0.3;
  bump.delay = 0.1;
  bump.rise = 0.2;
  bump.width = 0.1;
  bump.fall = 0.2;
  n.add_current_source("I1", "m01", "0", Waveform::pulse(bump));
  bump.v2 = 0.9;
  bump.delay = 0.5;
  n.add_current_source("I2", "m10", "0", Waveform::pulse(bump));
  return n;
}

std::vector<ScenarioSpec> pdn_campaign(BatchEngine& engine) {
  CampaignSweep sweep;
  sweep.methods = {krylov::KrylovKind::kRational,
                   krylov::KrylovKind::kInverted};
  sweep.gammas = {0.05, 0.1};
  sweep.tolerances = {1e-8, 1e-10};
  sweep.base.t_end = 2.0;
  sweep.base.solver.gamma = 0.05;
  sweep.base.solver.tolerance = 1e-10;
  sweep.base.output_times = uniform_grid(0.0, 2.0, 0.25);
  sweep.probes = {0, 1};
  return engine.expand(sweep);
}

TEST(BatchEngineShard, ShardsPartitionTheCampaignBitwise) {
  // Reference: unsharded run.
  BatchOptions ref_opt;
  ref_opt.threads = 2;
  BatchEngine ref_engine(ref_opt);
  ref_engine.add_deck("pdn", make_pdn());
  const auto scenarios = pdn_campaign(ref_engine);
  ASSERT_EQ(scenarios.size(), 6u);
  const auto ref = ref_engine.run(scenarios);
  ASSERT_EQ(ref.failures, 0);

  // Three shards, three engines: every scenario must run in exactly one
  // shard, with waveforms bitwise-equal to the unsharded run.
  std::vector<int> ran_in(scenarios.size(), -1);
  long long sharded_out_total = 0;
  const int kShards = 3;
  for (int shard = 0; shard < kShards; ++shard) {
    BatchOptions opt;
    opt.threads = 2;
    opt.shard_count = kShards;
    opt.shard_index = shard;
    BatchEngine engine(opt);
    engine.add_deck("pdn", make_pdn());
    const auto report = engine.run(scenarios);
    EXPECT_EQ(report.failures, 0);
    sharded_out_total += report.sharded_out;
    for (std::size_t si = 0; si < scenarios.size(); ++si) {
      const ScenarioResult& r = report.results[si];
      if (r.attempts == 0) continue;  // foreign shard: untouched slot
      EXPECT_EQ(ran_in[si], -1) << "scenario ran in two shards";
      ran_in[si] = shard;
      ASSERT_TRUE(r.ok);
      ASSERT_EQ(r.probe_waveforms.size(),
                ref.results[si].probe_waveforms.size());
      for (std::size_t p = 0; p < r.probe_waveforms.size(); ++p) {
        ASSERT_EQ(r.probe_waveforms[p].size(),
                  ref.results[si].probe_waveforms[p].size());
        for (std::size_t i = 0; i < r.probe_waveforms[p].size(); ++i)
          EXPECT_EQ(
              std::bit_cast<std::uint64_t>(r.probe_waveforms[p][i]),
              std::bit_cast<std::uint64_t>(
                  ref.results[si].probe_waveforms[p][i]));
      }
    }
  }
  for (std::size_t si = 0; si < scenarios.size(); ++si)
    EXPECT_NE(ran_in[si], -1) << "scenario ran in no shard";
  EXPECT_EQ(sharded_out_total,
            static_cast<long long>((kShards - 1) * scenarios.size()));
}

TEST(BatchEngineShard, ShardAssignmentMatchesFingerprints) {
  // The engine's filter must agree with the public shard_of contract on
  // the journal fingerprints -- that is what lets workers and offline
  // tooling compute membership independently.
  BatchOptions opt;
  opt.threads = 1;
  opt.shard_count = 4;
  opt.shard_index = 2;
  BatchEngine engine(opt);
  engine.add_deck("pdn", make_pdn());
  const auto scenarios = pdn_campaign(engine);
  const auto report = engine.run(scenarios);
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const bool mine =
        shard_of(scenario_fingerprint(scenarios[si], "pdn"), 4) == 2;
    EXPECT_EQ(report.results[si].attempts > 0, mine);
  }
}

// ------------------------------------------------------ CLI fleet tests

#if defined(MATEX_CLI_PATH) && defined(__unix__)

int run_cli(const std::string& args, const std::string& log) {
  const std::string cmd =
      std::string(MATEX_CLI_PATH) + " " + args + " 2> " + log;
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Journals persist across ctest invocations; a stale one would turn the
/// runs below into pure restores (and the kill test would never kill).
void fresh_journals(const std::string& prefix) {
  for (int k = -1; k < 8; ++k) {
    const std::string path =
        k < 0 ? prefix + ".jsonl"
              : prefix + ".jsonl.shard" + std::to_string(k);
    std::remove(path.c_str());
  }
}

TEST(ShardedCampaignCli, StoreBitwiseIdenticalAt124Workers) {
  fresh_journals("shardcli_cp1");
  fresh_journals("shardcli_cp2");
  fresh_journals("shardcli_cp4");
  ASSERT_EQ(run_cli("--batch --threads 2 --checkpoint shardcli_cp1.jsonl"
                    " --store shardcli_1.store",
                    "shardcli_1.log"),
            0);
  ASSERT_EQ(run_cli("--batch --threads 2 --shards 2"
                    " --checkpoint shardcli_cp2.jsonl"
                    " --store shardcli_2.store",
                    "shardcli_2.log"),
            0);
  ASSERT_EQ(run_cli("--batch --threads 2 --shards 4"
                    " --checkpoint shardcli_cp4.jsonl"
                    " --store shardcli_4.store",
                    "shardcli_4.log"),
            0);
  const std::string single = slurp("shardcli_1.store");
  ASSERT_FALSE(single.empty());
  EXPECT_EQ(slurp("shardcli_2.store"), single);
  EXPECT_EQ(slurp("shardcli_4.store"), single);
}

TEST(ShardedCampaignCli, KilledWorkersResumeBitwiseIdentical) {
  fresh_journals("shardkill_ref");
  fresh_journals("shardkill_cp");
  ASSERT_EQ(run_cli("--batch --threads 2 --checkpoint shardkill_ref.jsonl"
                    " --store shardkill_ref.store",
                    "shardkill_ref.log"),
            0);
  // Every worker _Exits (as if kill -9) after journaling one fresh
  // scenario; respawns resume from the shard journals and the
  // coordinator's restore-run computes whatever the fleet never
  // finished. The merged store must not show any of that.
  const std::string cmd =
      std::string("MATEX_WORKER_EXIT_AFTER=1 ") + MATEX_CLI_PATH +
      " --batch --threads 2 --shards 2 --checkpoint shardkill_cp.jsonl"
      " --store shardkill.store 2> shardkill.log";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
  const std::string log = slurp("shardkill.log");
  EXPECT_NE(log.find("exit 137"), std::string::npos)
      << "expected at least one simulated worker kill:\n"
      << log;
  const std::string ref = slurp("shardkill_ref.store");
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(slurp("shardkill.store"), ref);
}

TEST(DistributedCli, PerfJsonWritesDcSecondsOnce) {
  // --method dist takes its DC point from the scheduler; the perf JSON
  // must carry that one time once, not a second CLI-side DC as well.
  ASSERT_EQ(run_cli("--method dist --threads 2 --perf-json dist_perf.json"
                    " --out dist_perf.tbl",
                    "dist_perf.log"),
            0);
  const solver::JsonValue doc = solver::parse_json_file("dist_perf.json");
  int dc_keys = 0;
  for (const auto& [key, value] : doc.object) dc_keys += key == "dc_seconds";
  EXPECT_EQ(dc_keys, 1);
  EXPECT_GT(doc.at("dc_seconds").as_number(), 0.0);
  EXPECT_EQ(doc.at("factorizations").as_number(), 1.0);
}

TEST(DistributedCli, PerfJsonCarriesEveryKeyTheBenchReads) {
  // bench/e2e/run.py reads these keys; a schema change must fail here,
  // not silently in the harness.
  const char* const stats_keys[] = {
      "transient_seconds", "steps",           "rejected_steps",
      "krylov_subspaces",  "krylov_dim_avg",  "krylov_dim_peak"};
  const auto expect_stats = [&](const solver::JsonValue& doc,
                                const std::string& what) {
    for (const char* key : stats_keys)
      EXPECT_NO_THROW(doc.at(key).as_number()) << what << ": " << key;
  };

  ASSERT_EQ(run_cli("--method rmatex --perf-json perf_rmatex.json"
                    " --out perf_rmatex.tbl",
                    "perf_rmatex.log"),
            0);
  expect_stats(solver::parse_json_file("perf_rmatex.json"), "rmatex");

  ASSERT_EQ(run_cli("--method dist --threads 2 --perf-json perf_dist.json"
                    " --out perf_dist.tbl",
                    "perf_dist.log"),
            0);
  const solver::JsonValue dist = solver::parse_json_file("perf_dist.json");
  expect_stats(dist, "dist");
  EXPECT_GT(dist.at("max_node_transient_seconds").as_number(), 0.0);
  EXPECT_GE(dist.at("groups").as_number(), 1.0);
  EXPECT_GE(dist.at("workers_used").as_number(), 1.0);

  ASSERT_EQ(run_cli("--batch --threads 2 --perf-json perf_batch.json"
                    " --out perf_batch.tbl",
                    "perf_batch.log"),
            0);
  const solver::JsonValue batch = solver::parse_json_file("perf_batch.json");
  EXPECT_EQ(batch.at("scenarios").as_number(), 6.0);
  EXPECT_EQ(batch.at("retries").as_number(), 0.0);
  EXPECT_GE(batch.at("threads").as_number(), 1.0);
  const auto& per_scenario = batch.at("per_scenario").array;
  ASSERT_EQ(per_scenario.size(), 6u);
  for (const solver::JsonValue& scenario : per_scenario) {
    expect_stats(scenario, "batch scenario");
    EXPECT_GE(scenario.at("groups").as_number(), 1.0);
  }
}

TEST(MatexCli, SinSourceRejectedByMatexButNotByTr) {
  std::ofstream("sin_rc.sp") << "* one-node RC under a SIN load\n"
                                "R1 a 0 1k\n"
                                "C1 a 0 1p\n"
                                "I1 a 0 SIN(0 1m 100MEG)\n"
                                ".tran 10p 2n\n"
                                ".end\n";
  EXPECT_EQ(run_cli("sin_rc.sp --method rmatex --out sin_rmatex.tbl",
                    "sin_rmatex.log"),
            1);
  const std::string log = slurp("sin_rmatex.log");
  EXPECT_NE(log.find("Waveform::linearized()"), std::string::npos) << log;
  EXPECT_EQ(run_cli("sin_rc.sp --method tr --out sin_tr.tbl", "sin_tr.log"),
            0)
      << slurp("sin_tr.log");
}

TEST(ShardedCampaignCli, JournalFromBeforeProbeRestrictionResumes) {
  // tests/goldens/digest_grid_campaign.jsonl was journaled by the build
  // that evaluated full states and filtered probes afterwards. Its
  // scenario fingerprints must still match, so all six default scenarios
  // restore, and the store equals a fresh run's byte for byte.
  const std::string goldens = std::string(MATEX_REPO_ROOT) + "/tests/goldens";
  std::filesystem::copy_file(
      goldens + "/digest_grid.sp", "digest_grid.sp",
      std::filesystem::copy_options::overwrite_existing);
  std::filesystem::copy_file(
      goldens + "/digest_grid_campaign.jsonl", "resume_old.jsonl",
      std::filesystem::copy_options::overwrite_existing);
  fresh_journals("resume_new");
  const std::string campaign =
      "digest_grid.sp --batch --threads 2"
      " --probe n22 --probe n13 --probe n32 --probe n21";
  ASSERT_EQ(run_cli(campaign + " --checkpoint resume_old.jsonl"
                               " --store resume_old.store",
                    "resume_old.log"),
            0);
  const std::string log = slurp("resume_old.log");
  EXPECT_NE(log.find("checkpoint: 6 scenarios restored"), std::string::npos)
      << log;
  ASSERT_EQ(run_cli(campaign + " --checkpoint resume_new.jsonl"
                               " --store resume_new.store",
                    "resume_new.log"),
            0);
  const std::string fresh = slurp("resume_new.store");
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(slurp("resume_old.store"), fresh);
}

#else

TEST(ShardedCampaignCli, DISABLED_RequiresCliBinary) {}

#endif  // MATEX_CLI_PATH && __unix__

}  // namespace
}  // namespace matex::runtime
