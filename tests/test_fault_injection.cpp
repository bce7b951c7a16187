/// \file test_fault_injection.cpp
/// \brief The fault tier (ctest label: fault): deterministic coverage of
///        the fault-tolerant campaign runtime -- cancellation & deadlines,
///        the error taxonomy, retry-with-backoff, cache byte budgets with
///        graceful degradation, checkpoint/resume, the failpoint registry
///        -- plus the randomized fault-injection fuzz campaign.
///
/// Environment knobs (pinned by CI):
///   MATEX_FAULT_PLANS  randomized fault plans in the fuzz campaign
///                      (default 3; nightly runs 10)
///   MATEX_FUZZ_SEED    campaign seed (default 20140601)
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "core/scheduler.hpp"
#include "la/error.hpp"
#include "runtime/batch.hpp"
#include "runtime/cancel.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/factor_cache.hpp"
#include "runtime/failpoint.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/dc.hpp"
#include "solver/fixed_step.hpp"
#include "solver/observer.hpp"
#include "solver/stats.hpp"
#include "test_util.hpp"
#include "verify/fault_fuzz.hpp"

namespace matex::runtime {
namespace {

using circuit::MnaSystem;
using circuit::Netlist;
using circuit::PulseSpec;
using circuit::Waveform;
using solver::uniform_grid;

/// Arms a plan for one test scope and always disarms on exit, so a
/// failing assertion can't leak armed failpoints into later tests.
class ScopedFailpoints {
 public:
  explicit ScopedFailpoints(FailpointPlan plan) {
    arm_failpoints(std::move(plan));
  }
  ~ScopedFailpoints() { disarm_failpoints(); }
};

FailpointRule rule(std::string site, FailpointAction action,
                   long long nth_hit) {
  FailpointRule r;
  r.site = std::move(site);
  r.action = action;
  r.nth_hit = nth_hit;
  return r;
}

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

/// Same small three-bump PDN the runtime tests use (three slave nodes).
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

// ------------------------------------------------------------ cancel token

TEST(CancelToken, CancelAndParentChainPropagate) {
  CancelToken root;
  CancelToken mid(&root);
  CancelToken leaf(&mid);
  EXPECT_FALSE(leaf.cancelled());
  EXPECT_NO_THROW(leaf.throw_if_cancelled());

  root.cancel();
  EXPECT_TRUE(leaf.cancelled());
  EXPECT_TRUE(mid.cancelled());
  EXPECT_FALSE(mid.deadline_exceeded());
  EXPECT_THROW(leaf.throw_if_cancelled(), CancelledError);
}

TEST(CancelToken, SiblingTokensAreIndependent) {
  CancelToken parent;
  CancelToken a(&parent);
  CancelToken b(&parent);
  a.cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_FALSE(b.cancelled());
}

TEST(CancelToken, DeadlineExpires) {
  CancelToken t;
  t.set_deadline_after(0.01);
  EXPECT_FALSE(t.cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(t.deadline_exceeded());
  EXPECT_TRUE(t.cancelled());
  try {
    t.throw_if_cancelled();
    FAIL() << "deadline did not throw";
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
}

TEST(CancelToken, PollCancelIsNullSafe) {
  EXPECT_NO_THROW(poll_cancel(nullptr));
  CancelToken t;
  EXPECT_NO_THROW(poll_cancel(&t));
  t.cancel();
  EXPECT_THROW(poll_cancel(&t), CancelledError);
}

// ----------------------------------------------------------- error taxonomy

TEST(ErrorTaxonomy, ClassifiesTheHierarchy) {
  const auto classify = [](auto&& make) {
    try {
      make();
    } catch (...) {
      return classify_exception(std::current_exception());
    }
    return ClassifiedError{};
  };
  auto c = classify([] { throw NumericalError("pivot"); });
  EXPECT_EQ(c.cls, ErrorClass::kTransient);
  EXPECT_EQ(c.kind, "NumericalError");
  EXPECT_EQ(c.message, "pivot");

  c = classify([] { throw std::bad_alloc(); });
  EXPECT_EQ(c.cls, ErrorClass::kTransient);
  EXPECT_EQ(c.kind, "bad_alloc");

  c = classify([] { throw InvalidArgument("bad window"); });
  EXPECT_EQ(c.cls, ErrorClass::kPermanent);
  EXPECT_EQ(c.kind, "InvalidArgument");

  c = classify([] { throw ParseError("bad deck"); });
  EXPECT_EQ(c.cls, ErrorClass::kPermanent);
  EXPECT_EQ(c.kind, "ParseError");

  c = classify([] { throw CancelledError("deadline exceeded"); });
  EXPECT_EQ(c.cls, ErrorClass::kCancelled);
  EXPECT_EQ(c.kind, "Cancelled");

  c = classify([] { throw std::runtime_error("misc"); });
  EXPECT_EQ(c.cls, ErrorClass::kPermanent);
  EXPECT_EQ(c.kind, "exception");

  c = classify([] { throw 42; });
  EXPECT_EQ(c.cls, ErrorClass::kPermanent);
  EXPECT_EQ(c.kind, "unknown");
  EXPECT_FALSE(c.message.empty());
}

// -------------------------------------------------------- failpoint registry

TEST(Failpoint, DisarmedSitesNeverFireOrCount) {
  disarm_failpoints();
  for (int i = 0; i < 100; ++i) MATEX_FAILPOINT("test.disarmed");
  EXPECT_EQ(failpoint_hit_count("test.disarmed"), 0);
  EXPECT_EQ(failpoint_fire_count("test.disarmed"), 0);
}

TEST(Failpoint, NthHitFiresExactlyOnce) {
  FailpointPlan plan;
  plan.rules.push_back(rule("test.nth", FailpointAction::kThrow, 3));
  ScopedFailpoints armed(std::move(plan));
  int thrown_at = 0;
  for (int i = 1; i <= 10; ++i) {
    try {
      MATEX_FAILPOINT("test.nth");
    } catch (const NumericalError&) {
      thrown_at = i;
    }
  }
  EXPECT_EQ(thrown_at, 3);
  EXPECT_EQ(failpoint_hit_count("test.nth"), 10);
  EXPECT_EQ(failpoint_fire_count("test.nth"), 1);
}

TEST(Failpoint, ProbabilisticPatternIsSeedDeterministic) {
  const auto pattern = [](std::uint64_t seed) {
    FailpointPlan plan;
    plan.seed = seed;
    FailpointRule r;
    r.site = "test.prob";
    r.probability = 0.3;
    plan.rules.push_back(r);
    ScopedFailpoints armed(std::move(plan));
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      bool f = false;
      try {
        MATEX_FAILPOINT("test.prob");
      } catch (const NumericalError&) {
        f = true;
      }
      fired.push_back(f);
    }
    return fired;
  };
  const auto a = pattern(7);
  EXPECT_EQ(a, pattern(7));
  EXPECT_NE(a, pattern(8));
  const long long fires = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fires, 200 * 0.3 / 3);  // loose: the law of large-ish numbers
  EXPECT_LT(fires, 200 * 0.3 * 3);
}

TEST(Failpoint, BadAllocAndDelayActions) {
  FailpointPlan plan;
  plan.rules.push_back(rule("test.oom", FailpointAction::kBadAlloc, 1));
  FailpointRule d = rule("test.slow", FailpointAction::kDelay, 1);
  d.delay_seconds = 0.01;
  plan.rules.push_back(d);
  ScopedFailpoints armed(std::move(plan));
  EXPECT_THROW(MATEX_FAILPOINT("test.oom"), std::bad_alloc);
  const solver::Stopwatch sw;
  EXPECT_NO_THROW(MATEX_FAILPOINT("test.slow"));
  EXPECT_GE(sw.seconds(), 0.009);
  EXPECT_EQ(failpoint_fire_count("test.slow"), 1);
}

// --------------------------------------------------- solver-loop cancellation

TEST(Cancellation, PreCancelledTokenStopsSolversBeforeTheFirstStep) {
  const Netlist n = make_pdn();
  const MnaSystem mna(n);
  const auto dc = solver::dc_operating_point(mna);
  CancelToken token;
  token.cancel();

  solver::FixedStepOptions fopt;
  fopt.t_end = 1.0;
  fopt.h = 0.1;
  fopt.cancel = &token;
  EXPECT_THROW(run_fixed_step(mna, dc.x, solver::StepMethod::kTrapezoidal,
                              fopt, solver::Observer()),
               CancelledError);

  core::SchedulerOptions sopt = pdn_options();
  sopt.cancel = &token;
  EXPECT_THROW(core::run_distributed_matex(mna, sopt, solver::Observer()),
               CancelledError);
}

TEST(Cancellation, DeadlineStopsALongRunWithinASolverStep) {
  // A fixed-step run sized far beyond the deadline: the loop must notice
  // the expired deadline at a step boundary and unwind, long before the
  // nominal end of the integration. Generous elapsed bound -- the point
  // is "stops promptly", not a microbenchmark.
  const Netlist n = make_pdn();
  const MnaSystem mna(n);
  const auto dc = solver::dc_operating_point(mna);
  CancelToken token;
  token.set_deadline_after(0.05);

  solver::FixedStepOptions opt;
  opt.t_end = 1000.0;  // ~1e7 steps: hours if the deadline were ignored
  opt.h = 1e-4;
  opt.cancel = &token;
  const solver::Stopwatch sw;
  EXPECT_THROW(run_fixed_step(mna, dc.x, solver::StepMethod::kTrapezoidal,
                              opt, solver::Observer()),
               CancelledError);
  EXPECT_LT(sw.seconds(), 10.0);
}

TEST(Cancellation, DeadlineStopsABlockedRefactorRunWithinAStep) {
  // The within-one-step deadline contract with the blocked refill in the
  // loop: lu_options carry the same token, so the deadline is honored
  // both at step boundaries and at supernode boundaries inside a
  // refactorization.
  const Netlist n = make_pdn();
  const MnaSystem mna(n);
  const auto dc = solver::dc_operating_point(mna);
  CancelToken token;
  token.set_deadline_after(0.05);

  solver::FixedStepOptions opt;
  opt.t_end = 1000.0;
  opt.h = 1e-4;
  opt.cancel = &token;
  opt.lu_options.cancel = &token;
  const solver::Stopwatch sw;
  EXPECT_THROW(run_fixed_step(mna, dc.x, solver::StepMethod::kTrapezoidal,
                              opt, solver::Observer()),
               CancelledError);
  EXPECT_LT(sw.seconds(), 10.0);
}

TEST(Cancellation, CrossThreadCancelUnblocksScheduler) {
  const Netlist n = make_pdn();
  const MnaSystem mna(n);
  core::SchedulerOptions opt = pdn_options();
  opt.t_end = 1000.0;  // far beyond the cancel point
  opt.output_times = uniform_grid(0.0, 1000.0, 0.01);
  CancelToken token;
  opt.cancel = &token;
  // Observed, so every node evaluates each output point (a run with no
  // observer skips them and could finish before the cancel lands).
  solver::ProbeRecorder recorder({0});
  opt.probes = recorder.probe_set();

  std::atomic<bool> done{false};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.cancel();
  });
  const solver::Stopwatch sw;
  EXPECT_THROW(
      core::run_distributed_matex(mna, opt, recorder.probe_observer()),
      CancelledError);
  done.store(true);
  canceller.join();
  EXPECT_LT(sw.seconds(), 30.0);
}

// ------------------------------------------------- thread pool under faults

TEST(ThreadPoolFaults, ExceptionsFromJobsPropagateAndPoolSurvives) {
  ThreadPool pool(2);
  auto bad = pool.submit_job([]() -> int { throw NumericalError("boom"); });
  EXPECT_THROW(pool.await(bad), NumericalError);
  auto oom = pool.submit([]() -> int { throw std::bad_alloc(); });
  EXPECT_THROW(pool.await(oom), std::bad_alloc);
  // The pool keeps scheduling after exceptions.
  auto ok = pool.submit([] { return 7; });
  EXPECT_EQ(pool.await(ok), 7);
}

TEST(ThreadPoolFaults, CancellationUnderNestedAwaitUnwindsCleanly) {
  // A job fans out subtasks and polls its token between awaits -- the
  // batch engine's shape. Cancelling mid-fan-out must unwind the job
  // through submit_job's future without wedging workers or losing the
  // subtasks already in flight.
  ThreadPool pool(2);
  CancelToken token;
  std::atomic<int> finished{0};
  auto job = pool.submit_job([&] {
    std::vector<std::future<void>> subs;
    for (int i = 0; i < 16; ++i)
      subs.push_back(pool.submit([&finished, i] {
        if (i == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished.fetch_add(1);
      }));
    for (auto& s : subs) {
      pool.await(s);
      poll_cancel(&token);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  token.cancel();
  EXPECT_THROW(pool.await(job), CancelledError);
  // Pool still fully usable afterwards.
  pool.wait_idle();
  auto ok = pool.submit([] { return 1; });
  EXPECT_EQ(pool.await(ok), 1);
  EXPECT_GT(finished.load(), 0);
}

// ------------------------------------------------- factor cache under faults

TEST(FactorCacheFaults, InsertFailpointPropagatesAndRetrySucceeds) {
  // Regression for the old anonymous `catch (...)` at the leader's
  // factorization: a failure is classified (never an empty kind), counted
  // as a factor error, and the slot is erased -- not poisoned -- so the
  // next request factorizes afresh and the key caches normally.
  FailpointPlan plan;
  plan.rules.push_back(
      rule("factor_cache.insert", FailpointAction::kThrow, 1));
  ScopedFailpoints armed(std::move(plan));
  FactorCache cache;
  const auto g = testing::grid_laplacian(6, 6);
  const la::SparseLuOptions opt;
  EXPECT_THROW(cache.g_factors(g, opt), NumericalError);
  const auto after_error = cache.stats();
  EXPECT_EQ(after_error.factor_errors, 1);
  EXPECT_EQ(after_error.factor_cancellations, 0);
  EXPECT_EQ(cache.size(), 0);
  const auto entry = cache.g_factors(g, opt);
  EXPECT_FALSE(entry.hit);
  ASSERT_NE(entry.factors, nullptr);
  const auto again = cache.g_factors(g, opt);
  EXPECT_TRUE(again.hit);
  EXPECT_EQ(again.factors.get(), entry.factors.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.factor_errors, 1);
}

TEST(FactorCacheFaults, CancelledLeaderWaiterRetriesAndIsNotMiscounted) {
  // A cancelled leader unwinds with CancelledError -- but only *its*
  // caller was cancelled. A waiter joined on the in-flight slot must not
  // inherit the cancellation: the slot is erased before the exception is
  // published, so the waiter retries, misses, and factorizes for itself.
  FactorCache cache;
  const auto g = testing::grid_laplacian(6, 7);
  FactorKey key;
  key.fp_b = fingerprint(g);
  key.family = FactorKey::Family::kG;
  std::atomic<bool> leader_started{false};
  auto leader = std::async(std::launch::async, [&] {
    return cache.get_or_factorize(
        key, [&]() -> std::shared_ptr<la::SparseLU> {
          leader_started.store(true);
          // Hold until the waiter's lookup joined the in-flight slot
          // (counted as a hit before it blocks on the future).
          while (cache.stats().hits == 0) std::this_thread::yield();
          throw CancelledError("leader cancelled");
        });
  });
  while (!leader_started.load()) std::this_thread::yield();
  auto waiter = std::async(std::launch::async, [&] {
    return cache.get_or_factorize(
        key, [&] { return std::make_shared<la::SparseLU>(g); });
  });
  EXPECT_THROW(leader.get(), CancelledError);
  const auto entry = waiter.get();  // must NOT throw CancelledError
  ASSERT_NE(entry.factors, nullptr);
  EXPECT_FALSE(entry.hit);  // served by its own retry factorization
  const auto stats = cache.stats();
  EXPECT_EQ(stats.factor_cancellations, 1);
  EXPECT_EQ(stats.factor_errors, 0);
  EXPECT_EQ(stats.misses, 2);  // leader + the waiter's retry
  EXPECT_EQ(stats.hits, 1);    // the waiter's first lookup
  EXPECT_EQ(cache.size(), 1);  // the waiter's factors are resident
}

// ------------------------------------------------------- cache byte budget

TEST(FactorCacheBudget, FactorsReportMemoryAndBudgetSheds) {
  testing::Rng rng(99);
  // Distinct sparse systems so every insert is a fresh resident factor.
  std::vector<la::CscMatrix> mats;
  for (int i = 0; i < 6; ++i)
    mats.push_back(testing::random_sparse_spd_like(60, 0.08, rng));

  FactorCache unbounded(16);
  std::size_t one_factor_bytes = 0;
  {
    const auto entry = unbounded.g_factors(mats[0], la::SparseLuOptions{});
    one_factor_bytes = entry.factors->memory_bytes();
    EXPECT_GT(one_factor_bytes, 0u);
  }

  // Budget for about two factors: inserting six must shed by bytes while
  // staying under the map-capacity limit (so these are budget sheds, not
  // capacity evictions).
  FactorCache budgeted(16, 2 * one_factor_bytes + one_factor_bytes / 2);
  EXPECT_EQ(budgeted.max_resident_bytes(),
            2 * one_factor_bytes + one_factor_bytes / 2);
  for (const auto& m : mats) budgeted.g_factors(m, la::SparseLuOptions{});
  const FactorCacheStats s = budgeted.stats();
  EXPECT_GT(s.budget_sheds, 0);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_GT(s.bytes_evicted, 0);
  EXPECT_LE(s.bytes_resident,
            static_cast<long long>(budgeted.max_resident_bytes()));
  EXPECT_GT(s.bytes_resident, 0);
}

TEST(FactorCacheBudget, ShedReleasesDownToTargetAndZeroEmpties) {
  testing::Rng rng(7);
  FactorCache cache(16);
  for (int i = 0; i < 4; ++i) {
    const auto m = testing::random_sparse_spd_like(50, 0.1, rng);
    cache.g_factors(m, la::SparseLuOptions{});
  }
  const long long before = cache.stats().bytes_resident;
  ASSERT_GT(before, 0);

  const std::size_t target = static_cast<std::size_t>(before) / 2;
  cache.shed(target);
  EXPECT_LE(cache.stats().bytes_resident, static_cast<long long>(target));
  EXPECT_GT(cache.stats().budget_sheds, 0);

  cache.shed(0);
  EXPECT_EQ(cache.stats().bytes_resident, 0);
  EXPECT_EQ(cache.stats().bytes_evicted, before);
}

// --------------------------------------------------------------- checkpoint

ScenarioSpec pdn_spec(const char* name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.scheduler = pdn_options();
  spec.probes = {0, 1};
  return spec;
}

TEST(Checkpoint, FingerprintIsStableAndSpecSensitive) {
  const ScenarioSpec spec = pdn_spec("fp");
  const std::uint64_t fp = scenario_fingerprint(spec, "deck");
  EXPECT_EQ(fp, scenario_fingerprint(spec, "deck"));
  EXPECT_NE(fp, scenario_fingerprint(spec, "other-deck"));

  ScenarioSpec changed = spec;
  changed.vdd_scale = 0.9;
  EXPECT_NE(fp, scenario_fingerprint(changed, "deck"));
  changed = spec;
  changed.scheduler.solver.gamma *= 2.0;
  EXPECT_NE(fp, scenario_fingerprint(changed, "deck"));
  changed = spec;
  changed.probes.push_back(2);
  EXPECT_NE(fp, scenario_fingerprint(changed, "deck"));
}

TEST(Checkpoint, RecordRoundTripsPayloadBitwise) {
  ScenarioResult r;
  r.name = "deck/R-MATEX/g=0.05";
  r.deck_index = 2;
  r.ok = true;
  r.attempts = 3;
  r.distributed.group_count = 3;
  r.times = {0.0, 0.1, 1.0 / 3.0};
  r.probe_waveforms = {{1.7999999999999998, -2.5e-13, 0.1 + 0.2},
                       {0.0, -0.0, 1e-300}};
  const std::string line = checkpoint_record(0xabcdefull, r);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const std::string path = "checkpoint_roundtrip.tmp";
  {
    std::ofstream out(path);
    out << line << '\n';
  }
  const CheckpointJournal journal = load_checkpoint(path);
  std::filesystem::remove(path);
  EXPECT_EQ(journal.skipped_lines, 0);
  ASSERT_EQ(journal.completed.size(), 1u);
  const ScenarioResult& back = journal.completed.at(0xabcdefull);
  EXPECT_EQ(back.name, r.name);
  EXPECT_EQ(back.deck_index, r.deck_index);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.attempts, 3);
  EXPECT_EQ(back.distributed.group_count, 3u);
  ASSERT_EQ(back.times.size(), r.times.size());
  for (std::size_t i = 0; i < r.times.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.times[i]),
              std::bit_cast<std::uint64_t>(r.times[i]));
  ASSERT_EQ(back.probe_waveforms.size(), r.probe_waveforms.size());
  for (std::size_t p = 0; p < r.probe_waveforms.size(); ++p) {
    ASSERT_EQ(back.probe_waveforms[p].size(), r.probe_waveforms[p].size());
    for (std::size_t i = 0; i < r.probe_waveforms[p].size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.probe_waveforms[p][i]),
                std::bit_cast<std::uint64_t>(r.probe_waveforms[p][i]));
  }
}

TEST(Checkpoint, LoaderSkipsCorruptAndTruncatedLines) {
  ScenarioResult r;
  r.name = "ok-record";
  r.ok = true;
  r.times = {0.0, 1.0};
  const std::string good = checkpoint_record(1, r);
  const std::string path = "checkpoint_corrupt.tmp";
  {
    std::ofstream out(path);
    out << "{not json at all\n";
    out << good << '\n';
    out << good.substr(0, good.size() / 2);  // crash-truncated tail
  }
  const CheckpointJournal journal = load_checkpoint(path);
  std::filesystem::remove(path);
  EXPECT_EQ(journal.skipped_lines, 2);
  ASSERT_EQ(journal.completed.size(), 1u);
  EXPECT_EQ(journal.completed.at(1).name, "ok-record");
  // A missing file is an empty journal, not an error.
  const CheckpointJournal none = load_checkpoint("does_not_exist.tmp");
  EXPECT_TRUE(none.completed.empty());
}

// --------------------------------------------- batch engine fault handling

TEST(BatchEngineFaults, TransientFailureIsRetriedAndSucceeds) {
  FailpointPlan plan;
  plan.rules.push_back(rule("batch.scenario", FailpointAction::kThrow, 1));
  ScopedFailpoints armed(std::move(plan));

  BatchEngine engine{BatchOptions{}};
  engine.add_deck("pdn", make_pdn());
  const std::vector<ScenarioSpec> scenarios = {pdn_spec("retry-me")};
  const auto report = engine.run(scenarios);
  EXPECT_EQ(report.failures, 0);
  EXPECT_EQ(report.retries, 1);
  ASSERT_TRUE(report.results[0].ok) << report.results[0].error;
  EXPECT_EQ(report.results[0].attempts, 2);
  EXPECT_TRUE(report.results[0].error_kind.empty());
}

TEST(BatchEngineFaults, PermanentFailureIsClassifiedAndNotRetried) {
  BatchEngine engine{BatchOptions{}};
  engine.add_deck("pdn", make_pdn());
  ScenarioSpec bad = pdn_spec("bad-window");
  bad.scheduler.t_end = -1.0;
  const auto report = engine.run(std::vector<ScenarioSpec>{bad});
  EXPECT_EQ(report.failures, 1);
  EXPECT_EQ(report.retries, 0);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(report.results[0].attempts, 1);
  EXPECT_EQ(report.results[0].error_kind, "InvalidArgument");
  EXPECT_FALSE(report.results[0].error.empty());
}

TEST(BatchEngineFaults, ThrowingDeckVariantReportsClassifiedError) {
  // Regression for the old anonymous `catch (...)` sites: a failure
  // inside deck-variant construction (the batch.variant site sits in
  // variant_mna) must surface as a classified, non-empty error on the
  // scenario result, not an empty swallow.
  FailpointPlan plan;
  FailpointRule r;
  r.site = "batch.variant";
  r.probability = 1.0;
  plan.rules.push_back(r);
  ScopedFailpoints armed(std::move(plan));

  BatchOptions bopt;
  bopt.max_retries = 0;
  BatchEngine engine(bopt);
  engine.add_deck("pdn", make_pdn());
  ScenarioSpec corner = pdn_spec("corner");
  corner.vdd_scale = 0.9;
  const auto report = engine.run(std::vector<ScenarioSpec>{corner});
  EXPECT_EQ(report.failures, 1);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(report.results[0].error_kind, "NumericalError");
  EXPECT_FALSE(report.results[0].error.empty());
}

TEST(BatchEngineFaults, ExhaustedRetriesReportTheTransientKind) {
  // Fires on every hit: retries burn out and the classified kind
  // survives into the result.
  FailpointPlan plan;
  FailpointRule r;
  r.site = "batch.scenario";
  r.probability = 1.0;
  plan.rules.push_back(r);
  ScopedFailpoints armed(std::move(plan));

  BatchOptions bopt;
  bopt.max_retries = 2;
  BatchEngine engine(bopt);
  engine.add_deck("pdn", make_pdn());
  const auto report = engine.run(std::vector<ScenarioSpec>{pdn_spec("doom")});
  EXPECT_EQ(report.failures, 1);
  EXPECT_EQ(report.retries, 2);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(report.results[0].attempts, 3);  // 1 + max_retries
  EXPECT_EQ(report.results[0].error_kind, "NumericalError");
}

TEST(BatchEngineFaults, BadAllocShedsCacheThenRecovers) {
  FailpointPlan plan;
  plan.rules.push_back(
      rule("batch.scenario", FailpointAction::kBadAlloc, 1));
  ScopedFailpoints armed(std::move(plan));

  BatchEngine engine{BatchOptions{}};
  engine.add_deck("pdn", make_pdn());
  const auto report = engine.run(std::vector<ScenarioSpec>{pdn_spec("oom")});
  EXPECT_EQ(report.failures, 0);
  EXPECT_EQ(report.cache_sheds, 1);
  ASSERT_TRUE(report.results[0].ok) << report.results[0].error;
  EXPECT_EQ(report.results[0].attempts, 2);
}

TEST(BatchEngineFaults, CancelledCampaignReportsCancelledNotFailed) {
  CancelToken external;
  external.cancel();
  BatchOptions bopt;
  bopt.cancel = &external;
  BatchEngine engine(bopt);
  engine.add_deck("pdn", make_pdn());
  const std::vector<ScenarioSpec> scenarios = {pdn_spec("a"), pdn_spec("b")};
  const auto report = engine.run(scenarios);
  EXPECT_EQ(report.failures, 0);
  EXPECT_EQ(report.cancelled, 2);
  EXPECT_EQ(report.retries, 0);
  for (const auto& r : report.results) {
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.error_kind, "Cancelled");
    EXPECT_EQ(r.attempts, 1);
  }
  // The cancelled prewarm bailed cleanly: not swallowed into the error
  // count, not miscounted as a factorization cancellation (it polls the
  // token before asking the cache for anything).
  const auto cache_stats = engine.factor_cache().stats();
  EXPECT_EQ(cache_stats.factor_errors, 0);
  EXPECT_EQ(cache_stats.factor_cancellations, 0);
}

TEST(BatchEngineFaults, CampaignSurvivesCacheInsertAndStepFaults) {
  // Both PR-8 failpoints armed at once on a multi-scenario campaign: the
  // cache-insert fault hits the prewarm (classified and absorbed -- the
  // head start is lost, nothing fails), and the step fault fails one
  // scenario transiently, which retries to success.
  FailpointPlan plan;
  plan.rules.push_back(
      rule("factor_cache.insert", FailpointAction::kThrow, 1));
  plan.rules.push_back(rule("solver.step", FailpointAction::kThrow, 3));
  ScopedFailpoints armed(std::move(plan));

  BatchEngine engine{BatchOptions{}};
  engine.add_deck("pdn", make_pdn());
  const std::vector<ScenarioSpec> scenarios = {pdn_spec("a"), pdn_spec("b"),
                                               pdn_spec("c")};
  const auto report = engine.run(scenarios);
  EXPECT_EQ(report.failures, 0);
  EXPECT_EQ(report.cancelled, 0);
  EXPECT_GE(report.retries, 1);
  for (const auto& r : report.results) EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GE(failpoint_fire_count("factor_cache.insert"), 1);
  EXPECT_GE(failpoint_fire_count("solver.step"), 1);
  EXPECT_GE(engine.factor_cache().stats().factor_errors, 1);
}

TEST(BatchEngineFaults, CampaignDeadlineCancelsWithoutPoisoningResults) {
  BatchOptions bopt;
  bopt.campaign_deadline_seconds = 1e-6;  // expires before any step
  BatchEngine engine(bopt);
  engine.add_deck("pdn", make_pdn());
  ScenarioSpec big = pdn_spec("deadline");
  big.scheduler.t_end = 1000.0;
  big.scheduler.output_times = uniform_grid(0.0, 1000.0, 0.01);
  const auto report = engine.run(std::vector<ScenarioSpec>{big});
  EXPECT_EQ(report.cancelled, 1);
  EXPECT_EQ(report.failures, 0);
  EXPECT_TRUE(report.results[0].cancelled);
}

TEST(BatchEngineFaults, JournalFaultDoesNotFailTheScenario) {
  FailpointPlan plan;
  FailpointRule r;
  r.site = "checkpoint.append";
  r.probability = 1.0;
  plan.rules.push_back(r);
  ScopedFailpoints armed(std::move(plan));

  const std::string path = "journal_fault.tmp";
  std::filesystem::remove(path);
  BatchOptions bopt;
  bopt.checkpoint_path = path;
  BatchEngine engine(bopt);
  engine.add_deck("pdn", make_pdn());
  const auto report = engine.run(std::vector<ScenarioSpec>{pdn_spec("ok")});
  EXPECT_EQ(report.failures, 0);
  EXPECT_TRUE(report.results[0].ok);
  // Every append threw before writing: the journal stayed empty and the
  // campaign simply isn't resumable.
  EXPECT_TRUE(load_checkpoint(path).completed.empty());
  std::filesystem::remove(path);
}

TEST(BatchEngineFaults, CheckpointResumeRestoresBitwiseAndSkipsWork) {
  const std::string path = "checkpoint_resume.tmp";
  std::filesystem::remove(path);
  const std::vector<ScenarioSpec> scenarios = {pdn_spec("s0"),
                                               pdn_spec("s1")};

  BatchOptions bopt;
  bopt.checkpoint_path = path;
  BatchEngine first(bopt);
  first.add_deck("pdn", make_pdn());
  const auto run1 = first.run(scenarios);
  ASSERT_EQ(run1.failures, 0);
  EXPECT_EQ(run1.checkpoint_restored, 0);

  // Fresh engine = fresh process: everything restores from the journal,
  // nothing is factorized or simulated again.
  BatchEngine second(bopt);
  second.add_deck("pdn", make_pdn());
  std::vector<std::string> streamed;
  const auto run2 = second.run(
      scenarios, [&](const ScenarioResult& r) { streamed.push_back(r.name); });
  std::filesystem::remove(path);
  EXPECT_EQ(run2.failures, 0);
  EXPECT_EQ(run2.checkpoint_restored, 2);
  EXPECT_EQ(streamed.size(), 2u);
  EXPECT_EQ(second.factor_cache().stats().misses, 0);
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const auto& a = run1.results[si];
    const auto& b = run2.results[si];
    EXPECT_EQ(b.attempts, 0);  // restored, not run
    EXPECT_EQ(b.name, a.name);
    ASSERT_EQ(b.times.size(), a.times.size());
    for (std::size_t i = 0; i < a.times.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(b.times[i]),
                std::bit_cast<std::uint64_t>(a.times[i]));
    ASSERT_EQ(b.probe_waveforms.size(), a.probe_waveforms.size());
    for (std::size_t p = 0; p < a.probe_waveforms.size(); ++p)
      for (std::size_t i = 0; i < a.probe_waveforms[p].size(); ++i)
        EXPECT_EQ(
            std::bit_cast<std::uint64_t>(b.probe_waveforms[p][i]),
            std::bit_cast<std::uint64_t>(a.probe_waveforms[p][i]));
  }
}

TEST(BatchEngineFaults, PartialJournalResumesOnlyTheMissingScenarios) {
  const std::string path = "checkpoint_partial.tmp";
  std::filesystem::remove(path);
  const std::vector<ScenarioSpec> all = {pdn_spec("s0"), pdn_spec("s1"),
                                         pdn_spec("s2")};

  BatchOptions bopt;
  bopt.checkpoint_path = path;
  BatchEngine first(bopt);
  first.add_deck("pdn", make_pdn());
  const std::vector<ScenarioSpec> subset = {all[0], all[2]};
  ASSERT_EQ(first.run(subset).failures, 0);

  BatchEngine second(bopt);
  second.add_deck("pdn", make_pdn());
  const auto report = second.run(all);
  std::filesystem::remove(path);
  EXPECT_EQ(report.failures, 0);
  EXPECT_EQ(report.checkpoint_restored, 2);
  EXPECT_EQ(report.results[0].attempts, 0);
  EXPECT_EQ(report.results[1].attempts, 1);  // actually ran
  EXPECT_EQ(report.results[2].attempts, 0);
}

// ------------------------------------------------ randomized fault campaign

TEST(FaultFuzz, PlanDerivationIsDeterministicAndSeedSensitive) {
  const auto a = verify::fault_plan_from_seed(11, 2);
  const auto b = verify::fault_plan_from_seed(11, 2);
  ASSERT_EQ(a.rules.size(), b.rules.size());
  EXPECT_EQ(a.seed, b.seed);
  for (std::size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.rules[i].site, b.rules[i].site);
    EXPECT_EQ(a.rules[i].nth_hit, b.rules[i].nth_hit);
    EXPECT_DOUBLE_EQ(a.rules[i].probability, b.rules[i].probability);
  }
  EXPECT_NE(verify::fault_plan_from_seed(12, 2).seed, a.seed);
}

TEST(FaultFuzz, RandomizedFaultPlansUpholdTheContract) {
  verify::FaultFuzzOptions opt;
  opt.seed =
      static_cast<std::uint64_t>(testing::env_long("MATEX_FUZZ_SEED",
                                                   20140601));
  opt.plans = static_cast<int>(testing::env_long("MATEX_FAULT_PLANS", 3));
  opt.log = &std::cerr;
  const verify::FaultFuzzReport report = verify::run_fault_fuzz(opt);
  EXPECT_EQ(report.violations, 0)
      << (report.violation_names.empty() ? ""
                                         : report.violation_names.front());
  EXPECT_EQ(report.plans, opt.plans);
  EXPECT_GT(report.scenarios, 0);
  // The default plans do inject (deterministic for the pinned seed); a
  // campaign that never fired would be vacuous.
  EXPECT_GT(report.injected_fires, 0);
}

}  // namespace
}  // namespace matex::runtime
