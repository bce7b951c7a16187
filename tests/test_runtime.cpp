/// \file test_runtime.cpp
/// \brief Tests for the concurrent simulation runtime: thread pool
///        scheduling, factorization-cache keying/eviction, scheduler/pool
///        equivalence, and the scenario batch engine.
#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "core/scheduler.hpp"
#include "la/error.hpp"
#include "la/sparse_lu.hpp"
#include "runtime/batch.hpp"
#include "runtime/factor_cache.hpp"
#include "runtime/scenario.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/dc.hpp"
#include "solver/observer.hpp"
#include "test_util.hpp"

namespace matex::runtime {
namespace {

using circuit::MnaSystem;
using circuit::Netlist;
using circuit::PulseSpec;
using circuit::Waveform;
using solver::StateRecorder;
using solver::uniform_grid;

/// a's sparsity pattern with uniformly scaled values: the "same mesh,
/// different parameters" shape the symbolic cache exists for.
la::CscMatrix with_same_pattern_values(const la::CscMatrix& a, double f) {
  la::CscMatrix m = a;
  for (double& v : m.values()) v *= f;
  return m;
}

// -------------------------------------------------------------- thread pool

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(pool.await(futures[i]), i * i);
  const auto stats = pool.stats();
  EXPECT_GE(stats.tasks_executed, 64);
  EXPECT_GE(stats.busy_seconds, 0.0);
}

TEST(ThreadPool, PerTaskWallTimeAccounting) {
  ThreadPool pool(2);
  auto f = pool.submit([] {
    solver::Stopwatch sw;
    while (sw.seconds() < 0.01) {
    }
  });
  pool.await(f);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, 1);
  EXPECT_GE(stats.max_task_seconds, 0.01);
  EXPECT_GE(stats.busy_seconds, stats.max_task_seconds);
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  // A task submits subtasks to its own pool and blocks on them; await()
  // helps with pending work, so this must finish even with one worker.
  ThreadPool pool(1);
  auto outer = pool.submit([&pool] {
    int total = 0;
    std::vector<std::future<int>> inner;
    for (int i = 0; i < 8; ++i)
      inner.push_back(pool.submit([i] { return i; }));
    for (auto& f : inner) total += pool.await(f);
    return total;
  });
  EXPECT_EQ(pool.await(outer), 28);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw InvalidArgument("boom"); });
  EXPECT_THROW(pool.await(f), InvalidArgument);
}

TEST(ThreadPool, WaitIdleDrainsAllTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i)
    pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, WaitIdleSubmitCycleStress) {
  // Regression for the wait_idle() two-loads race: the old idle check
  // read the queued and executing counters separately, so a task popped
  // between the loads made wait_idle() return while the task still ran.
  // Tight submit/wait_idle cycles with instant tasks maximize that
  // window; with the single in-flight counter every cycle must observe
  // all of its tasks finished. Runs in the TSan leg.
  ThreadPool pool(3);
  std::atomic<int> done{0};
  int expected = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    const int batch = 1 + cycle % 4;
    for (int i = 0; i < batch; ++i)
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    expected += batch;
    pool.wait_idle();
    ASSERT_EQ(done.load(), expected) << "cycle " << cycle;
  }
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
}

// ------------------------------------------------------------ factor cache

TEST(Fingerprint, TracksContent) {
  testing::Rng rng(7);
  const auto a = testing::random_sparse_spd_like(20, 0.2, rng);
  la::CscMatrix b = a;  // identical copy
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  b.values()[0] += 1e-9;  // same pattern, different value
  EXPECT_NE(fingerprint(a), fingerprint(b));
  const auto c = testing::grid_laplacian(4, 5);  // different pattern
  EXPECT_NE(fingerprint(a), fingerprint(c));
}

TEST(FactorCache, RepeatLookupsHitAndShareFactors) {
  testing::Rng rng(1);
  const auto g = testing::random_sparse_spd_like(30, 0.15, rng);
  FactorCache cache;
  const la::SparseLuOptions opts;
  const auto first = cache.g_factors(g, opts);
  const auto second = cache.g_factors(g, opts);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.factors.get(), second.factors.get());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);

  // The cached factors actually solve the system.
  const auto b = testing::random_vector(30, rng);
  auto x = second.factors->solve(b);
  std::vector<double> back(30);
  g.multiply(x, back);
  for (std::size_t i = 0; i < back.size(); ++i)
    EXPECT_NEAR(back[i], b[i], 1e-9);
}

TEST(FactorCache, SymbolicAnalysisSharedAcrossSamePatternValues) {
  // A gamma sweep: C + gamma*G keeps one sparsity pattern while the
  // values change, so the second factorization must be a numeric-only
  // refill along the first one's symbolic analysis.
  testing::Rng rng(21);
  const auto c = testing::random_sparse_spd_like(40, 0.1, rng);
  const auto g = with_same_pattern_values(c, 2.0);
  FactorCache cache;
  const la::SparseLuOptions opts;
  const auto e1 = cache.operator_factors(c, g, krylov::KrylovKind::kRational,
                                         1e-10, opts);
  const auto e2 = cache.operator_factors(c, g, krylov::KrylovKind::kRational,
                                         7e-10, opts);
  EXPECT_FALSE(e1.hit);
  EXPECT_FALSE(e2.hit);  // different gamma: a distinct numeric entry ...
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.symbolic_hits, 1);  // ... sharing the symbolic analysis
  EXPECT_EQ(stats.refactor_fallbacks, 0);
  EXPECT_TRUE(e2.factors->refactored());
  EXPECT_EQ(e1.factors->symbolic().get(), e2.factors->symbolic().get());
  EXPECT_GE(cache.symbolic_size(), 1u);

  // The refactorized entry is the true LU of C + 7e-10*G.
  const auto shifted = la::add_scaled(1.0, c, 7e-10, g);
  const auto b = testing::random_vector(40, rng);
  const auto x = e2.factors->solve(b);
  std::vector<double> back(40);
  shifted.multiply(x, back);
  for (std::size_t i = 0; i < back.size(); ++i)
    EXPECT_NEAR(back[i], b[i], 1e-9);
}

TEST(FactorCache, CountsSupernodalRefills) {
  // A same-pattern second request refills along the cached analysis and
  // shows up in stats().symbolic_hits.
  const auto a = testing::grid_laplacian(10, 12);
  const auto a2 = with_same_pattern_values(a, 2.0);
  const la::SparseLuOptions opt;
  FactorCache cache;
  cache.g_factors(a, opt);   // miss: full factorization, caches symbolic
  cache.g_factors(a2, opt);  // same pattern: numeric refill
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.symbolic_hits, 1);
  EXPECT_EQ(stats.refactor_fallbacks, 0);
  EXPECT_EQ(stats.factor_errors, 0);
  EXPECT_EQ(stats.factor_cancellations, 0);
}

TEST(FactorCache, CapacityZeroSkipsSymbolicCacheToo) {
  testing::Rng rng(22);
  const auto c = testing::random_sparse_spd_like(20, 0.2, rng);
  const auto g = with_same_pattern_values(c, 3.0);
  FactorCache cache(0);
  const la::SparseLuOptions opts;
  cache.operator_factors(c, g, krylov::KrylovKind::kRational, 1e-10, opts);
  cache.operator_factors(c, g, krylov::KrylovKind::kRational, 2e-10, opts);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.symbolic_hits, 0);
  EXPECT_EQ(cache.symbolic_size(), 0u);
}

TEST(FactorCache, KeyDiscriminatesKindGammaAndOptions) {
  testing::Rng rng(2);
  const auto g = testing::random_sparse_spd_like(24, 0.15, rng);
  const auto c = testing::random_sparse_spd_like(24, 0.15, rng);
  FactorCache cache;
  const la::SparseLuOptions opts;

  const auto r1 =
      cache.operator_factors(c, g, krylov::KrylovKind::kRational, 0.1, opts);
  const auto r2 =
      cache.operator_factors(c, g, krylov::KrylovKind::kRational, 0.2, opts);
  const auto r1_again =
      cache.operator_factors(c, g, krylov::KrylovKind::kRational, 0.1, opts);
  EXPECT_FALSE(r1.hit);
  EXPECT_FALSE(r2.hit);  // different gamma => different factorization
  EXPECT_TRUE(r1_again.hit);
  EXPECT_NE(r1.factors.get(), r2.factors.get());

  const auto std_op =
      cache.operator_factors(c, g, krylov::KrylovKind::kStandard, 0.0, opts);
  EXPECT_FALSE(std_op.hit);  // LU(C), not LU(C + gamma*G)

  la::SparseLuOptions loose = opts;
  loose.pivot_tol = 0.5;
  const auto g_strict = cache.g_factors(g, opts);
  const auto g_loose = cache.g_factors(g, loose);
  EXPECT_FALSE(g_strict.hit);
  EXPECT_FALSE(g_loose.hit);  // different pivoting => different entry
}

TEST(FactorCache, InvertedOperatorSharesPlainGFactors) {
  // I-MATEX's Krylov operator *is* LU(G): the cache must give it the same
  // entry as the DC/particular-solution factorization.
  testing::Rng rng(3);
  const auto g = testing::random_sparse_spd_like(24, 0.15, rng);
  const auto c = testing::random_sparse_spd_like(24, 0.15, rng);
  FactorCache cache;
  const la::SparseLuOptions opts;
  const auto plain = cache.g_factors(g, opts);
  const auto op =
      cache.operator_factors(c, g, krylov::KrylovKind::kInverted, 0.0, opts);
  EXPECT_TRUE(op.hit);
  EXPECT_EQ(plain.factors.get(), op.factors.get());
}

TEST(FactorCache, LruEviction) {
  testing::Rng rng(4);
  std::vector<la::CscMatrix> mats;
  for (int i = 0; i < 3; ++i)
    mats.push_back(testing::random_sparse_spd_like(16, 0.2, rng));
  FactorCache cache(2);
  const la::SparseLuOptions opts;
  cache.g_factors(mats[0], opts);
  cache.g_factors(mats[1], opts);
  EXPECT_EQ(cache.size(), 2u);
  cache.g_factors(mats[0], opts);  // touch 0: 1 becomes LRU
  cache.g_factors(mats[2], opts);  // evicts 1
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.g_factors(mats[0], opts).hit);   // still resident
  EXPECT_FALSE(cache.g_factors(mats[1], opts).hit);  // was evicted
}

TEST(FactorCache, CapacityZeroDisablesCaching) {
  testing::Rng rng(5);
  const auto g = testing::random_sparse_spd_like(16, 0.2, rng);
  FactorCache cache(0);
  const la::SparseLuOptions opts;
  EXPECT_FALSE(cache.g_factors(g, opts).hit);
  EXPECT_FALSE(cache.g_factors(g, opts).hit);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(FactorCache, ConcurrentRefactorFallbackProducesValidFactors) {
  // Same-pattern matrices whose values invalidate the frozen pivot
  // sequence: the first (diagonally dominant) matrix freezes diagonal
  // pivots; the others have tiny diagonals, so a numeric-only refill
  // violates refactor_pivot_tol and must fall back to full pivoting --
  // here driven through the cache from many threads at once, the way a
  // batch campaign hits it.
  const la::index_t n = 24;
  const auto build = [n](double diag) {
    la::TripletMatrix t(n, n);
    for (la::index_t i = 0; i < n; ++i) {
      t.add(i, i, diag);
      if (i + 1 < n) {
        t.add(i, i + 1, 1.0);
        t.add(i + 1, i, 1.0);
      }
    }
    return t.to_csc();
  };
  const auto dominant = build(4.0);
  const auto weak = build(1e-9);

  FactorCache cache;
  const la::SparseLuOptions opts;
  // Establish the symbolic analysis with diagonal pivots.
  EXPECT_FALSE(cache.g_factors(dominant, opts).hit);

  ThreadPool pool(4);
  std::vector<std::future<std::shared_ptr<la::SparseLU>>> futures;
  for (int rep = 0; rep < 16; ++rep)
    futures.push_back(
        pool.submit([&] { return cache.g_factors(weak, opts).factors; }));
  std::vector<std::shared_ptr<la::SparseLU>> factors;
  for (auto& f : futures) factors.push_back(pool.await(f));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);  // dominant + weak: one leader each
  EXPECT_EQ(stats.hits, 15);   // everyone else waited on the leader
  // The weak matrix found dominant's cached pattern but had to repivot:
  // that counts as a fallback, not as a symbolic (refill) hit.
  EXPECT_EQ(stats.symbolic_hits, 0);
  EXPECT_EQ(stats.refactor_fallbacks, 1);
  for (const auto& f : factors) {
    EXPECT_EQ(f.get(), factors.front().get());  // one shared factorization
    EXPECT_FALSE(f->refactored());              // produced by the fallback
  }

  // The fallback factors actually solve the weak system.
  testing::Rng rng(9);
  const auto b = testing::random_vector(static_cast<std::size_t>(n), rng);
  const auto x = factors.front()->solve(b);
  std::vector<double> back(static_cast<std::size_t>(n));
  weak.multiply(x, back);
  for (std::size_t i = 0; i < back.size(); ++i)
    EXPECT_NEAR(back[i], b[i], 1e-6);
}

TEST(FactorCache, ConcurrentRequestersFactorizeOnce) {
  testing::Rng rng(6);
  const auto g = testing::random_sparse_spd_like(60, 0.1, rng);
  FactorCache cache;
  const la::SparseLuOptions opts;
  ThreadPool pool(4);
  std::vector<std::future<la::SparseLU*>> futures;
  for (int i = 0; i < 16; ++i)
    futures.push_back(pool.submit(
        [&]() { return cache.g_factors(g, opts).factors.get(); }));
  std::set<const la::SparseLU*> distinct;
  for (auto& f : futures) distinct.insert(pool.await(f));
  EXPECT_EQ(distinct.size(), 1u);  // one factorization, shared by all
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 15);
}

// ------------------------------------------------- scheduler on the runtime

PulseSpec bump(double delay, double rise, double width, double fall,
               double v2) {
  PulseSpec s;
  s.v2 = v2;
  s.delay = delay;
  s.rise = rise;
  s.width = width;
  s.fall = fall;
  return s;
}

/// Small PDN with three distinct bump shapes (= three slave nodes).
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
  n.add_current_source("I1", "m01", "0",
                       Waveform::pulse(bump(0.3, 0.1, 0.2, 0.1, 0.2)));
  n.add_current_source("I2", "m10", "0",
                       Waveform::pulse(bump(0.9, 0.05, 0.3, 0.15, 0.1)));
  n.add_current_source("I3", "m11", "0",
                       Waveform::pulse(bump(0.5, 0.2, 0.1, 0.2, 0.15)));
  return n;
}

core::SchedulerOptions pdn_options() {
  core::SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.25);
  return opt;
}

TEST(SchedulerRuntime, SharedPoolMatchesInlineBitwise) {
  const Netlist n = make_pdn();
  const MnaSystem mna(n);
  auto opt = pdn_options();

  StateRecorder inline_rec;
  const auto inline_res =
      core::run_distributed_matex(mna, opt, inline_rec.observer());
  EXPECT_EQ(inline_res.workers_used, 1);

  ThreadPool pool(3);
  opt.pool = &pool;
  StateRecorder pool_rec;
  const auto pool_res =
      core::run_distributed_matex(mna, opt, pool_rec.observer());
  EXPECT_EQ(pool_res.workers_used, 3);
  EXPECT_EQ(pool_res.group_count, inline_res.group_count);

  ASSERT_EQ(inline_rec.sample_count(), pool_rec.sample_count());
  for (std::size_t i = 0; i < inline_rec.sample_count(); ++i)
    for (std::size_t j = 0; j < inline_rec.state(i).size(); ++j)
      EXPECT_EQ(inline_rec.state(i)[j], pool_rec.state(i)[j]);
}

TEST(SchedulerRuntime, FactorCacheKeepsResultsAndCutsFactorizations) {
  const Netlist n = make_pdn();
  const MnaSystem mna(n);
  auto opt = pdn_options();

  StateRecorder plain;
  const auto res_plain =
      core::run_distributed_matex(mna, opt, plain.observer());

  FactorCache cache;
  opt.factor_cache = &cache;
  StateRecorder cached;
  const auto res_cached =
      core::run_distributed_matex(mna, opt, cached.observer());

  // Same answer, bit for bit: a cached factorization is the same
  // factorization a node would have computed.
  ASSERT_EQ(plain.sample_count(), cached.sample_count());
  for (std::size_t i = 0; i < plain.sample_count(); ++i)
    for (std::size_t j = 0; j < plain.state(i).size(); ++j)
      EXPECT_EQ(plain.state(i)[j], cached.state(i)[j]);

  // One run factorizes LU(C+gamma*G) once with or without the cache
  // (LU(G) is the DC point's); the cache saves factorizations across
  // runs, not within one.
  EXPECT_EQ(res_plain.aggregate.factorizations, 1);
  EXPECT_EQ(res_cached.aggregate.factorizations, 1);
  EXPECT_EQ(res_cached.factor_cache_hits, 0);
  EXPECT_EQ(cache.stats().misses, 2);  // G and C+gamma*G

  // A second identical run is fully warm.
  const auto res_warm = core::run_distributed_matex(mna, opt, nullptr);
  EXPECT_EQ(res_warm.aggregate.factorizations, 0);
  EXPECT_EQ(res_warm.factor_cache_hits, 1);
  EXPECT_EQ(cache.stats().misses, 2);
}

// -------------------------------------------------------------- scenarios

TEST(Scenario, ExpandCampaignCrossProduct) {
  CampaignSweep sweep;
  sweep.deck_indices = {0, 1};
  sweep.methods = {krylov::KrylovKind::kRational,
                   krylov::KrylovKind::kInverted};
  sweep.gammas = {1e-10, 2e-10};
  sweep.tolerances = {1e-6, 1e-7};
  sweep.vdd_scales = {1.0, 0.9};
  const auto scenarios = expand_campaign(sweep, {"a", "b"});
  // Per deck: R-MATEX 2 gammas x 2 tols x 2 vdd = 8, I-MATEX (gamma
  // ignored) 2 x 2 = 4.
  EXPECT_EQ(scenarios.size(), 24u);
  std::set<std::string> names;
  for (const auto& s : scenarios) names.insert(s.name);
  EXPECT_EQ(names.size(), scenarios.size());  // all distinct
  EXPECT_EQ(scenarios[0].scheduler.solver.kind,
            krylov::KrylovKind::kRational);
}

TEST(Scenario, ScaleSuppliesScalesOnlyVoltageSources) {
  Netlist n = make_pdn();
  const Netlist scaled = scale_supplies(n, 0.5);
  ASSERT_EQ(scaled.voltage_sources().size(), 1u);
  EXPECT_DOUBLE_EQ(scaled.voltage_sources()[0].waveform.value(0.0), 0.5);
  // Loads untouched.
  ASSERT_EQ(scaled.current_sources().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto a = n.current_sources()[i].waveform.pulse_spec();
    const auto b = scaled.current_sources()[i].waveform.pulse_spec();
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*a, *b);
  }
  // Same matrices => same fingerprints => shared factorizations.
  const MnaSystem m1(n), m2(scaled);
  EXPECT_EQ(fingerprint(m1.g()), fingerprint(m2.g()));
  EXPECT_EQ(fingerprint(m1.c()), fingerprint(m2.c()));
}

TEST(Scenario, ScaleSuppliesHandlesPwlAndSin) {
  Netlist n;
  n.add_resistor("R1", "a", "0", 1.0);
  n.add_voltage_source("Vp", "a", "0",
                       Waveform::pwl({0.0, 1.0, 2.0}, {1.0, 2.0, 0.5}));
  circuit::SinSpec sin;
  sin.offset = 1.0;
  sin.amplitude = 0.25;
  sin.frequency = 3.0;
  n.add_voltage_source("Vs", "b", "0", Waveform::sin(sin));
  n.add_resistor("R2", "b", "0", 1.0);
  const Netlist scaled = scale_supplies(n, 2.0);
  EXPECT_DOUBLE_EQ(scaled.voltage_sources()[0].waveform.value(1.0), 4.0);
  EXPECT_DOUBLE_EQ(scaled.voltage_sources()[0].waveform.value(1.5), 2.5);
  const auto s = scaled.voltage_sources()[1].waveform.sin_spec();
  ASSERT_TRUE(s);
  EXPECT_DOUBLE_EQ(s->offset, 2.0);
  EXPECT_DOUBLE_EQ(s->amplitude, 0.5);
}

// ------------------------------------------------------------ batch engine

TEST(BatchEngine, CampaignMatchesDirectRunsAndStreams) {
  BatchOptions bopt;
  bopt.threads = 2;
  BatchEngine engine(bopt);
  engine.add_deck("pdn", make_pdn());

  CampaignSweep sweep;
  sweep.methods = {krylov::KrylovKind::kRational,
                   krylov::KrylovKind::kInverted};
  sweep.gammas = {0.05, 0.1};
  sweep.tolerances = {1e-8, 1e-10};
  sweep.base = pdn_options();
  sweep.probes = {0, 1};
  const auto scenarios = engine.expand(sweep);
  ASSERT_EQ(scenarios.size(), 6u);  // 2x2 rational + 2 inverted

  std::vector<std::string> streamed;
  const auto report = engine.run(
      scenarios, [&](const ScenarioResult& r) { streamed.push_back(r.name); });

  EXPECT_EQ(report.failures, 0);
  EXPECT_EQ(streamed.size(), scenarios.size());
  EXPECT_GE(report.cache_hit_rate(), 0.5);
  ASSERT_EQ(report.results.size(), scenarios.size());

  const Netlist n = make_pdn();
  const MnaSystem mna(n);
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const auto& res = report.results[si];
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.name, scenarios[si].name);
    EXPECT_EQ(res.scenario_index, si);
    EXPECT_EQ(res.distributed.group_count, 3u);

    // Each scenario agrees bit for bit with a direct uncached run.
    StateRecorder direct;
    core::run_distributed_matex(mna, scenarios[si].scheduler,
                                direct.observer());
    ASSERT_EQ(res.times.size(), direct.sample_count());
    ASSERT_EQ(res.probe_waveforms.size(), 2u);
    for (std::size_t i = 0; i < direct.sample_count(); ++i) {
      EXPECT_EQ(res.probe_waveforms[0][i], direct.state(i)[0]);
      EXPECT_EQ(res.probe_waveforms[1][i], direct.state(i)[1]);
    }
  }
}

TEST(BatchEngine, PrewarmWarmsSymbolicCacheBeforeFanOut) {
  // ROADMAP item: pre-warm the symbolic cache from deck patterns before
  // scenario fan-out. On a wide gamma sweep the shared symbolic analysis
  // and all operator factorizations must exist by the time the *first*
  // scenario completes, and the fan-out itself must add no misses.
  BatchOptions bopt;
  bopt.threads = 2;
  BatchEngine engine(bopt);
  engine.add_deck("pdn", make_pdn());

  CampaignSweep sweep;
  sweep.methods = {krylov::KrylovKind::kRational};
  sweep.gammas = {0.05, 0.1, 0.2};
  sweep.base = pdn_options();
  const auto scenarios = engine.expand(sweep);
  ASSERT_EQ(scenarios.size(), 3u);

  FactorCacheStats at_first;
  bool first = true;
  const auto report = engine.run(scenarios, [&](const ScenarioResult&) {
    if (first) {
      at_first = engine.factor_cache().stats();
      first = false;
    }
  });
  EXPECT_EQ(report.failures, 0);

  // By the first streamed result the gamma sweep's operator
  // factorizations already share one symbolic analysis (two of the three
  // gammas refilled numerically along the leader's pattern) ...
  EXPECT_GE(at_first.symbolic_hits, 2);
  EXPECT_GE(at_first.misses, 4);  // LU(G) + three gamma operators
  // ... and the campaign itself ran entirely on cache hits.
  EXPECT_EQ(engine.factor_cache().stats().misses, at_first.misses);
  EXPECT_EQ(engine.factor_cache().stats().symbolic_hits,
            at_first.symbolic_hits);
}

TEST(BatchEngine, PrewarmCanBeDisabled) {
  BatchOptions bopt;
  bopt.prewarm = false;
  BatchEngine engine(bopt);
  engine.add_deck("pdn", make_pdn());
  ScenarioSpec spec;
  spec.name = "plain";
  spec.scheduler = pdn_options();
  const auto report = engine.run(std::vector<ScenarioSpec>{spec});
  EXPECT_EQ(report.failures, 0);
  EXPECT_EQ(engine.factor_cache().stats().misses, 2);  // G, C+gamma*G
}

TEST(BatchEngine, VddScaleScalesDcResponse) {
  // A deck whose only sources are DC supplies: the whole response is the
  // operating point, so a Vdd corner scales it exactly.
  Netlist n;
  n.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.0));
  n.add_resistor("R1", "p", "a", 1.0);
  n.add_resistor("R2", "a", "0", 1.0);
  n.add_capacitor("C1", "a", "0", 1.0);

  BatchEngine engine{BatchOptions{}};
  engine.add_deck("dc", std::move(n));

  ScenarioSpec nominal;
  nominal.name = "nominal";
  nominal.scheduler.t_end = 1.0;
  nominal.scheduler.output_times = uniform_grid(0.0, 1.0, 0.5);
  nominal.probes = {0};
  ScenarioSpec corner = nominal;
  corner.name = "corner";
  corner.vdd_scale = 0.5;

  const std::vector<ScenarioSpec> scenarios = {nominal, corner};
  const auto report = engine.run(scenarios);
  ASSERT_EQ(report.failures, 0);
  ASSERT_EQ(report.results[0].probe_waveforms.size(), 1u);
  for (std::size_t i = 0; i < report.results[0].times.size(); ++i)
    EXPECT_NEAR(report.results[1].probe_waveforms[0][i],
                0.5 * report.results[0].probe_waveforms[0][i], 1e-12);
}

TEST(BatchEngine, FailedScenarioIsReportedNotThrown) {
  BatchEngine engine{BatchOptions{}};
  engine.add_deck("pdn", make_pdn());
  ScenarioSpec good;
  good.name = "good";
  good.scheduler = pdn_options();
  ScenarioSpec bad = good;
  bad.name = "bad";
  bad.scheduler.t_end = -1.0;  // invalid window
  const std::vector<ScenarioSpec> scenarios = {bad, good};
  const auto report = engine.run(scenarios);
  EXPECT_EQ(report.failures, 1);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_FALSE(report.results[0].error.empty());
  EXPECT_TRUE(report.results[1].ok);
}

TEST(BatchEngine, DeckIndexOutOfRangeFailsScenario) {
  BatchEngine engine{BatchOptions{}};
  engine.add_deck("pdn", make_pdn());
  ScenarioSpec spec;
  spec.name = "missing-deck";
  spec.deck_index = 7;
  spec.scheduler = pdn_options();
  const auto report = engine.run(std::vector<ScenarioSpec>{spec});
  EXPECT_EQ(report.failures, 1);
  EXPECT_FALSE(report.results[0].ok);
}

}  // namespace
}  // namespace matex::runtime
