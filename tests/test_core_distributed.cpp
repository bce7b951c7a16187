#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "core/complexity.hpp"
#include "core/decomposition.hpp"
#include "core/input_view.hpp"
#include "core/scheduler.hpp"
#include "la/error.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/dc.hpp"
#include "solver/fixed_step.hpp"
#include "solver/observer.hpp"
#include "test_util.hpp"

namespace matex::core {
namespace {

using circuit::MnaSystem;
using circuit::Netlist;
using circuit::PulseSpec;
using circuit::Waveform;
using solver::StateRecorder;
using solver::uniform_grid;

PulseSpec bump(double delay, double rise, double width, double fall,
               double v2, double period = 0.0) {
  PulseSpec s;
  s.v1 = 0.0;
  s.v2 = v2;
  s.delay = delay;
  s.rise = rise;
  s.width = width;
  s.fall = fall;
  s.period = period;
  return s;
}

/// Small power-grid-like fixture: supply rail, RC mesh, four pulsed loads
/// drawn from two distinct bump shapes plus one DC load.
struct PdnFixture {
  Netlist netlist;
  std::unique_ptr<MnaSystem> mna;

  PdnFixture() {
    netlist.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.0));
    // 2x3 mesh of nodes m<r><c> hanging off the pad through Rp.
    const auto node = [](int r, int c) {
      std::string s = matex::testing::numbered("m", r);
      s += std::to_string(c);
      return s;
    };
    const auto tagged = [&](const char* prefix, int r, int c) {
      std::string s(prefix);
      s += node(r, c);
      return s;
    };
    netlist.add_resistor("Rp", "p", node(0, 0), 0.2);
    for (int r = 0; r < 2; ++r)
      for (int c = 0; c < 3; ++c) {
        netlist.add_capacitor(tagged("C", r, c), node(r, c), "0", 0.3);
        if (c + 1 < 3)
          netlist.add_resistor(tagged("Rh", r, c), node(r, c),
                               node(r, c + 1), 0.5);
        if (r + 1 < 2)
          netlist.add_resistor(tagged("Rv", r, c), node(r, c),
                               node(r + 1, c), 0.5);
      }
    // Shape A at two sites, shape B at two sites, one DC load.
    netlist.add_current_source("I1", node(0, 1), "0",
                               Waveform::pulse(bump(0.3, 0.1, 0.2, 0.1,
                                                    0.2)));
    netlist.add_current_source("I2", node(1, 2), "0",
                               Waveform::pulse(bump(0.3, 0.1, 0.2, 0.1,
                                                    0.15)));
    netlist.add_current_source("I3", node(0, 2), "0",
                               Waveform::pulse(bump(0.9, 0.05, 0.3, 0.15,
                                                    0.1)));
    netlist.add_current_source("I4", node(1, 0), "0",
                               Waveform::pulse(bump(0.9, 0.05, 0.3, 0.15,
                                                    0.25)));
    netlist.add_current_source("Idc", node(1, 1), "0", Waveform::dc(0.05));
    mna = std::make_unique<MnaSystem>(netlist);
  }
};

// ----------------------------------------------------------- decomposition

TEST(Decomposition, GroupsByBumpShape) {
  PdnFixture f;
  DecompositionOptions opt;
  opt.t_end = 2.0;
  const auto d = decompose_sources(*f.mna, opt);
  ASSERT_EQ(d.groups.size(), 2u);  // two distinct shapes
  EXPECT_EQ(d.groups[0].members.size(), 2u);
  EXPECT_EQ(d.groups[1].members.size(), 2u);
  // DC inputs: Idc and the Vdd rail input.
  EXPECT_EQ(d.dc_inputs.size(), 2u);
  EXPECT_GT(d.gts_size, 0u);
}

TEST(Decomposition, MaxGroupsMergesRoundRobin) {
  PdnFixture f;
  DecompositionOptions opt;
  opt.t_end = 2.0;
  opt.max_groups = 1;
  const auto d = decompose_sources(*f.mna, opt);
  ASSERT_EQ(d.groups.size(), 1u);
  EXPECT_EQ(d.groups[0].members.size(), 4u);
}

TEST(Decomposition, RoundRobinMergeDistributesShapesEvenly) {
  // Five distinct shapes onto two nodes: round-robin assigns shapes
  // 0,2,4 to node 0 and shapes 1,3 to node 1 (deterministic, sorted by
  // shape key).
  Netlist n;
  n.add_resistor("R1", "a", "0", 1.0);
  for (int i = 0; i < 5; ++i)
    n.add_current_source(
        matex::testing::numbered("I", i), "a", "0",
        Waveform::pulse(bump(0.1 * (i + 1), 0.05, 0.2, 0.05, 1.0)));
  const MnaSystem mna(n);
  DecompositionOptions opt;
  opt.t_end = 2.0;
  opt.max_groups = 2;
  const auto d = decompose_sources(mna, opt);
  ASSERT_EQ(d.groups.size(), 2u);
  EXPECT_EQ(d.groups[0].members.size(), 3u);
  EXPECT_EQ(d.groups[1].members.size(), 2u);
  // Merged keys record every shape assigned to the node.
  EXPECT_NE(d.groups[0].shape_key.find('+'), std::string::npos);
  // No source lost or duplicated.
  std::set<la::index_t> all;
  for (const auto& g : d.groups)
    all.insert(g.members.begin(), g.members.end());
  EXPECT_EQ(all.size(), 5u);
}

TEST(Decomposition, ShapeKeyIsStableAcrossRuns) {
  // The shape key depends only on pulse timing (not amplitude), and
  // repeated decompositions produce identical keys in identical order.
  PdnFixture f;
  DecompositionOptions opt;
  opt.t_end = 2.0;
  const auto d1 = decompose_sources(*f.mna, opt);
  const auto d2 = decompose_sources(*f.mna, opt);
  ASSERT_EQ(d1.groups.size(), d2.groups.size());
  for (std::size_t g = 0; g < d1.groups.size(); ++g) {
    EXPECT_EQ(d1.groups[g].shape_key, d2.groups[g].shape_key);
    EXPECT_EQ(d1.groups[g].members, d2.groups[g].members);
  }
  // I1/I2 share timing but not amplitude: one group, one key.
  EXPECT_EQ(d1.groups[0].members.size(), 2u);
}

TEST(Decomposition, WindowValidation) {
  PdnFixture f;
  DecompositionOptions opt;  // t_end == t_start == 0
  EXPECT_THROW(decompose_sources(*f.mna, opt), InvalidArgument);
}

TEST(Decomposition, PulsesOutsideWindowCountAsDc) {
  Netlist n;
  n.add_resistor("R1", "a", "0", 1.0);
  n.add_current_source("I1", "a", "0",
                       Waveform::pulse(bump(5.0, 0.1, 0.2, 0.1, 1.0)));
  const MnaSystem mna(n);
  DecompositionOptions opt;
  opt.t_end = 1.0;  // pulse starts at t=5, after the window
  const auto d = decompose_sources(mna, opt);
  EXPECT_TRUE(d.groups.empty());
  EXPECT_EQ(d.dc_inputs.size(), 1u);
}

// -------------------------------------------------------------- group input

TEST(GroupInput, MasksAndSubtractsBaseline) {
  Netlist n;
  n.add_resistor("R1", "a", "0", 1.0);
  n.add_current_source("I1", "a", "0", Waveform::dc(0.5));
  n.add_current_source("I2", "a", "0",
                       Waveform::pwl({0.0, 1.0}, {0.25, 1.25}));
  const MnaSystem mna(n);
  const GroupInput group(mna, {1}, 0.0);
  std::vector<double> u(2);
  group.value(0.0, u);
  EXPECT_DOUBLE_EQ(u[0], 0.0);  // I1 masked out
  EXPECT_DOUBLE_EQ(u[1], 0.0);  // baseline subtracted
  group.value(1.0, u);
  EXPECT_DOUBLE_EQ(u[1], 1.0);
  std::vector<double> du(2);
  group.slope_after(0.5, du);
  EXPECT_DOUBLE_EQ(du[0], 0.0);
  EXPECT_DOUBLE_EQ(du[1], 1.0);
  const auto spots = group.transition_spots(0.0, 2.0);
  ASSERT_EQ(spots.size(), 2u);  // the PWL breakpoints only
}

TEST(GroupInput, RejectsBadMemberIndex) {
  Netlist n;
  n.add_resistor("R1", "a", "0", 1.0);
  n.add_current_source("I1", "a", "0", Waveform::dc(0.5));
  const MnaSystem mna(n);
  EXPECT_THROW(GroupInput(mna, {7}, 0.0), InvalidArgument);
}

TEST(FullInput, MatchesMnaDirectly) {
  PdnFixture f;
  const FullInput input(*f.mna);
  EXPECT_EQ(input.count(), f.mna->input_count());
  std::vector<double> u1(static_cast<std::size_t>(input.count()));
  input.value(0.5, u1);
  const auto u2 = f.mna->input_at(0.5);
  for (std::size_t i = 0; i < u2.size(); ++i)
    EXPECT_DOUBLE_EQ(u1[i], u2[i]);
  EXPECT_EQ(input.transition_spots(0.0, 2.0),
            f.mna->global_transition_spots(0.0, 2.0));
}

// ------------------------------------------------------------- distributed

TEST(Scheduler, SuperpositionMatchesMonolithicReference) {
  PdnFixture f;
  const auto dc = solver::dc_operating_point(*f.mna);

  // Fine fixed-step TR reference of the *full* system.
  solver::FixedStepOptions fine;
  fine.t_end = 2.0;
  fine.h = 1e-4;
  StateRecorder ref;
  run_fixed_step(*f.mna, dc.x, solver::StepMethod::kTrapezoidal, fine,
                 ref.observer());

  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.kind = krylov::KrylovKind::kRational;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.1);
  StateRecorder rec;
  const auto result = run_distributed_matex(*f.mna, opt, rec.observer());

  EXPECT_EQ(result.group_count, 2u);
  ASSERT_EQ(rec.sample_count(), opt.output_times.size());
  for (std::size_t i = 0; i < rec.sample_count(); ++i) {
    const std::size_t ref_idx =
        static_cast<std::size_t>(std::llround(rec.times()[i] / fine.h));
    for (std::size_t j = 0; j < rec.state(i).size(); ++j)
      EXPECT_NEAR(rec.state(i)[j], ref.state(ref_idx)[j], 1e-5)
          << "t=" << rec.times()[i] << " unknown " << j;
  }
}

TEST(Scheduler, OneSetupPerRun) {
  // All nodes run against one solver: the run factorizes LU(C + gamma*G)
  // once (LU(G) comes from the DC point), whatever the node count, and
  // the answer does not depend on how many nodes run at once.
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.25);

  StateRecorder a, b;
  const auto ra = run_distributed_matex(*f.mna, opt, a.observer());
  opt.parallelism = 3;
  const auto rb = run_distributed_matex(*f.mna, opt, b.observer());

  for (const auto* r : {&ra, &rb}) {
    EXPECT_EQ(r->group_count, 2u);
    EXPECT_EQ(r->aggregate.factorizations, 1);
    EXPECT_EQ(r->factor_cache_hits, 0);
  }
  ASSERT_EQ(a.sample_count(), b.sample_count());
  for (std::size_t i = 0; i < a.sample_count(); ++i)
    for (std::size_t j = 0; j < a.state(i).size(); ++j)
      EXPECT_EQ(a.state(i)[j], b.state(i)[j]);
}

TEST(Scheduler, NodeReportsDescribeSubtasks) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.output_times = uniform_grid(0.0, 2.0, 0.5);
  const auto result = run_distributed_matex(*f.mna, opt, nullptr);

  ASSERT_EQ(result.nodes.size(), 2u);
  for (const auto& node : result.nodes) {
    EXPECT_EQ(node.source_count, 2u);
    EXPECT_EQ(node.lts_size, 4u);  // one bump = 4 spots
    EXPECT_GT(node.stats.krylov_subspaces, 0);
  }
  EXPECT_GT(result.dc_seconds, 0.0);
  EXPECT_GE(result.max_node_total_seconds,
            result.max_node_transient_seconds);
  // Aggregate counters sum over nodes.
  EXPECT_EQ(result.aggregate.krylov_subspaces,
            result.nodes[0].stats.krylov_subspaces +
                result.nodes[1].stats.krylov_subspaces);
}

TEST(Scheduler, MaxGroupsBoundsNodeCount) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.decomposition.max_groups = 1;
  opt.output_times = uniform_grid(0.0, 2.0, 0.5);
  const auto result = run_distributed_matex(*f.mna, opt, nullptr);
  EXPECT_EQ(result.group_count, 1u);
  EXPECT_EQ(result.nodes[0].source_count, 4u);
}

TEST(Scheduler, AllDcInputsShortCircuitToOperatingPoint) {
  Netlist n;
  n.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.0));
  n.add_resistor("R1", "p", "a", 1.0);
  n.add_capacitor("C1", "a", "0", 1.0);
  const MnaSystem mna(n);
  SchedulerOptions opt;
  opt.t_end = 1.0;
  opt.output_times = uniform_grid(0.0, 1.0, 0.25);
  StateRecorder rec;
  const auto result = run_distributed_matex(mna, opt, rec.observer());
  EXPECT_EQ(result.group_count, 0u);
  const auto dc = solver::dc_operating_point(mna);
  for (std::size_t i = 0; i < rec.sample_count(); ++i)
    EXPECT_NEAR(rec.state(i)[0], dc.x[0], 1e-12);
}

TEST(Scheduler, ParallelWorkersMatchSequential) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.25);

  StateRecorder seq;
  const auto rs = run_distributed_matex(*f.mna, opt, seq.observer());
  opt.parallelism = 4;
  StateRecorder par;
  const auto rp = run_distributed_matex(*f.mna, opt, par.observer());

  EXPECT_EQ(rs.group_count, rp.group_count);
  EXPECT_EQ(rs.nodes.size(), rp.nodes.size());
  ASSERT_EQ(seq.sample_count(), par.sample_count());
  for (std::size_t i = 0; i < seq.sample_count(); ++i)
    for (std::size_t j = 0; j < seq.state(i).size(); ++j)
      // Superposition merges in group order regardless of thread timing,
      // so parallel and sequential runs agree bit for bit.
      EXPECT_EQ(seq.state(i)[j], par.state(i)[j]);
  // Node reports keep their group identity regardless of thread order.
  for (std::size_t g = 0; g < rp.nodes.size(); ++g)
    EXPECT_EQ(rp.nodes[g].group_index, g);
}

TEST(Scheduler, BitwiseDeterministicAcrossParallelism) {
  // The superposition order is fixed (group-index order) no matter how
  // many workers execute the node subtasks, so every parallelism setting
  // -- including a shared runtime pool -- produces the same bits.
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.decomposition.max_groups = 2;
  opt.output_times = uniform_grid(0.0, 2.0, 0.2);

  StateRecorder reference;
  run_distributed_matex(*f.mna, opt, reference.observer());

  runtime::ThreadPool pool(3);
  for (const int parallelism : {2, 4, 0}) {
    opt.parallelism = parallelism;
    for (const bool use_pool : {false, true}) {
      opt.pool = use_pool ? &pool : nullptr;
      StateRecorder rec;
      run_distributed_matex(*f.mna, opt, rec.observer());
      ASSERT_EQ(rec.sample_count(), reference.sample_count());
      for (std::size_t i = 0; i < rec.sample_count(); ++i)
        for (std::size_t j = 0; j < rec.state(i).size(); ++j)
          EXPECT_EQ(rec.state(i)[j], reference.state(i)[j])
              << "parallelism=" << parallelism << " pool=" << use_pool
              << " t=" << rec.times()[i] << " unknown " << j;
    }
  }
  opt.pool = nullptr;
}

TEST(Scheduler, ParallelWithSharedFactorizations) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.5);
  opt.parallelism = 3;  // concurrent solves against shared factors
  StateRecorder rec;
  const auto result = run_distributed_matex(*f.mna, opt, rec.observer());
  EXPECT_EQ(result.group_count, 2u);
  ASSERT_EQ(rec.sample_count(), opt.output_times.size());
}

TEST(Scheduler, ProbeSetMatchesAllUnknownsBitwise) {
  // Probe-sized node buffers and accumulator: the observed rows are the
  // same bits as the all-unknowns run at every parallelism; the list may
  // be unsorted and repeat an index.
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.05);
  const std::vector<la::index_t> probes{5, 0, 3, 0};
  for (const int parallelism : {1, 3}) {
    opt.parallelism = parallelism;
    opt.probes = solver::ProbeSet();
    StateRecorder all;
    const auto ra = run_distributed_matex(*f.mna, opt, all.observer());
    solver::ProbeRecorder rows(probes);
    opt.probes = rows.probe_set();
    const auto rr = run_distributed_matex(*f.mna, opt, rows.probe_observer());
    ASSERT_EQ(rows.times(), all.times());
    for (std::size_t p = 0; p < probes.size(); ++p)
      for (std::size_t i = 0; i < all.sample_count(); ++i)
        EXPECT_EQ(rows.waveform(p)[i],
                  all.state(i)[static_cast<std::size_t>(probes[p])])
            << "parallelism " << parallelism << " probe " << probes[p]
            << " t=" << all.times()[i];
    EXPECT_EQ(rr.aggregate.steps, ra.aggregate.steps);
    EXPECT_EQ(rr.aggregate.solves, ra.aggregate.solves);
    EXPECT_EQ(rr.aggregate.krylov_dim_total, ra.aggregate.krylov_dim_total);
  }
}

TEST(Scheduler, NullObserverBuffersAndSuperposesNothing) {
  // A stats-only run: every counter as in an observed run, no
  // superposition.
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.05);
  opt.parallelism = 3;
  StateRecorder all;
  const auto observed = run_distributed_matex(*f.mna, opt, all.observer());
  const auto blind = run_distributed_matex(*f.mna, opt, nullptr);
  EXPECT_EQ(blind.superposition_seconds, 0.0);
  EXPECT_EQ(blind.group_count, observed.group_count);
  const auto& a = blind.aggregate;
  const auto& b = observed.aggregate;
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.rejected_steps, b.rejected_steps);
  EXPECT_EQ(a.factorizations, b.factorizations);
  EXPECT_EQ(a.refactorizations, b.refactorizations);
  EXPECT_EQ(a.solves, b.solves);
  EXPECT_EQ(a.krylov_subspaces, b.krylov_subspaces);
  EXPECT_EQ(a.krylov_dim_total, b.krylov_dim_total);
  EXPECT_EQ(a.krylov_dim_peak, b.krylov_dim_peak);
  ASSERT_EQ(blind.nodes.size(), observed.nodes.size());
  for (std::size_t g = 0; g < blind.nodes.size(); ++g) {
    EXPECT_EQ(blind.nodes[g].stats.steps, observed.nodes[g].stats.steps);
    EXPECT_EQ(blind.nodes[g].lts_size, observed.nodes[g].lts_size);
  }
}

TEST(Scheduler, OutOfRangeProbeThrows) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 1.0;
  opt.output_times = {0.0, 0.5, 1.0};
  opt.probes = solver::ProbeSet({0, f.mna->dimension()});
  EXPECT_THROW(run_distributed_matex(*f.mna, opt, nullptr), InvalidArgument);
  opt.probes = solver::ProbeSet({-1});
  EXPECT_THROW(run_distributed_matex(*f.mna, opt, nullptr), InvalidArgument);
}

TEST(Scheduler, InvalidOptionsThrow) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 0.0;
  EXPECT_THROW(run_distributed_matex(*f.mna, opt, nullptr),
               InvalidArgument);
  opt.t_end = 1.0;  // empty output grid
  EXPECT_THROW(run_distributed_matex(*f.mna, opt, nullptr),
               InvalidArgument);
  opt.output_times = {0.5, 0.25};
  EXPECT_THROW(run_distributed_matex(*f.mna, opt, nullptr),
               InvalidArgument);
  opt.output_times = {0.25, 0.5};
  opt.parallelism = -1;  // 0 is valid (= hardware concurrency); < 0 is not
  EXPECT_THROW(run_distributed_matex(*f.mna, opt, nullptr),
               InvalidArgument);
}

TEST(Scheduler, ParallelismZeroMeansHardwareConcurrency) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.25);

  StateRecorder seq;
  const auto rs = run_distributed_matex(*f.mna, opt, seq.observer());
  opt.parallelism = 0;
  StateRecorder hw;
  const auto rh = run_distributed_matex(*f.mna, opt, hw.observer());

  EXPECT_GE(rh.workers_used, 1);
  EXPECT_EQ(rs.group_count, rh.group_count);
  ASSERT_EQ(seq.sample_count(), hw.sample_count());
  // Superposition order is fixed, so the answers agree bit for bit.
  for (std::size_t i = 0; i < seq.sample_count(); ++i)
    for (std::size_t j = 0; j < seq.state(i).size(); ++j)
      EXPECT_EQ(seq.state(i)[j], hw.state(i)[j]);
}

// ---------------------------------------------------------------- Eq 11/12

TEST(ComplexityModel, DistributedSpeedupGrowsWithDecomposition) {
  ComplexityParams p;
  p.t_bs = 1e-3;
  p.t_h = 1e-5;
  p.t_e = 1e-5;
  p.t_serial = 0.5;
  p.k_gts = 400;
  p.m = 10;
  p.n_steps = 1000;
  p.k_lts = 400;  // no decomposition: speedup over single MATEX is 1
  EXPECT_NEAR(speedup_distributed_over_single(p), 1.0, 1e-12);
  p.k_lts = 5;
  EXPECT_GT(speedup_distributed_over_single(p), 1.0);

  // Eq. 12: elongating the simulated span raises N while k stays fixed,
  // so the speedup over fixed-step TR grows (the paper's robustness
  // argument at the end of Sec. 3.4).
  const double s1 = speedup_distributed_over_fixed_tr(p);
  p.n_steps = 10000;
  p.k_gts *= 2;  // GTS grows a little with the span
  const double s2 = speedup_distributed_over_fixed_tr(p);
  EXPECT_GT(s2, s1);
}

TEST(ComplexityModel, Validation) {
  ComplexityParams p;  // all zero
  EXPECT_THROW(speedup_distributed_over_single(p), InvalidArgument);
  EXPECT_THROW(speedup_distributed_over_fixed_tr(p), InvalidArgument);
}

}  // namespace
}  // namespace matex::core
