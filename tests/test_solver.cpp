#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "la/error.hpp"
#include "solver/dc.hpp"
#include "solver/fixed_step.hpp"
#include "solver/observer.hpp"
#include "solver/tr_adaptive.hpp"
#include "test_util.hpp"

namespace matex::solver {
namespace {

using circuit::MnaSystem;
using circuit::Netlist;
using circuit::PulseSpec;
using circuit::Waveform;

// ----------------------------------------------------------- infrastructure

TEST(Observer, UniformGridCoversRangeInclusive) {
  const auto grid = uniform_grid(0.0, 1.0, 0.25);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0);
  EXPECT_DOUBLE_EQ(grid.back(), 1.0);
  EXPECT_THROW(uniform_grid(1.0, 0.0, 0.1), InvalidArgument);
  EXPECT_THROW(uniform_grid(0.0, 1.0, 0.0), InvalidArgument);
}

TEST(Observer, StateRecorderKeepsAllSamples) {
  StateRecorder rec;
  std::vector<double> x{1.0, 2.0};
  rec(0.0, x);
  x[0] = 3.0;
  rec(0.5, x);
  ASSERT_EQ(rec.sample_count(), 2u);
  EXPECT_DOUBLE_EQ(rec.state(0)[0], 1.0);  // deep copy, not aliased
  EXPECT_DOUBLE_EQ(rec.state(1)[0], 3.0);
  EXPECT_DOUBLE_EQ(rec.times()[1], 0.5);
}

TEST(Observer, ProbeRecorderSelectsIndices) {
  ProbeRecorder rec({1, 0});
  std::vector<double> x{10.0, 20.0};
  rec(0.0, x);
  ASSERT_EQ(rec.probe_count(), 2u);
  EXPECT_DOUBLE_EQ(rec.waveform(0)[0], 20.0);
  EXPECT_DOUBLE_EQ(rec.waveform(1)[0], 10.0);
}

TEST(Observer, ProbeRecorderRejectsBadIndex) {
  ProbeRecorder rec({5});
  std::vector<double> x{1.0};
  EXPECT_THROW(rec(0.0, x), InvalidArgument);
}

TEST(Observer, ErrorStatsAccumulates) {
  ErrorStats s;
  std::vector<double> a{1.0, 2.0}, b{1.5, 1.0};
  s.accumulate(a, b);
  EXPECT_DOUBLE_EQ(s.max_abs, 1.0);
  EXPECT_DOUBLE_EQ(s.mean_abs(), 0.75);
  EXPECT_EQ(s.count, 2u);
}

// -------------------------------------------------------------- test fixture

/// V(1) -- R(1) -- node b -- C(1) -- gnd. tau = RC = 1.
/// From x(0) = 0 with the DC input: v_b(t) = 1 - exp(-t).
struct RcFixture {
  Netlist netlist;
  std::unique_ptr<MnaSystem> mna;

  RcFixture() {
    netlist.add_voltage_source("V1", "a", "0", Waveform::dc(1.0));
    netlist.add_resistor("R1", "a", "b", 1.0);
    netlist.add_capacitor("C1", "b", "0", 1.0);
    mna = std::make_unique<MnaSystem>(netlist);
  }
};

double rc_exact(double t) { return 1.0 - std::exp(-t); }

// ----------------------------------------------------------------------- DC

TEST(Dc, OperatingPointOfDividerWithLoad) {
  Netlist n;
  n.add_voltage_source("V1", "a", "0", Waveform::dc(2.0));
  n.add_resistor("R1", "a", "b", 1.0);
  n.add_resistor("R2", "b", "0", 1.0);
  n.add_capacitor("C1", "b", "0", 1.0);
  const MnaSystem mna(n);
  const auto dc = dc_operating_point(mna);
  EXPECT_NEAR(dc.x[0], 1.0, 1e-12);
  EXPECT_GT(dc.seconds, 0.0);
  ASSERT_NE(dc.g_factors, nullptr);
  EXPECT_EQ(dc.g_factors->order(), 1);
}

TEST(Dc, PulseSourceEvaluatedAtStartTime) {
  Netlist n;
  PulseSpec s;
  s.v1 = 0.0;
  s.v2 = 1.0;
  s.delay = 1.0;
  s.rise = 0.5;
  s.width = 1.0;
  s.fall = 0.5;
  n.add_current_source("I1", "b", "0", Waveform::pulse(s));
  n.add_resistor("R1", "b", "0", 2.0);
  const MnaSystem mna(n);
  EXPECT_NEAR(dc_operating_point(mna, 0.0).x[0], 0.0, 1e-12);
  // At t = 1.75 the pulse is at full value 1 -> v = -I*R = -2.
  EXPECT_NEAR(dc_operating_point(mna, 2.0).x[0], -2.0, 1e-12);
}

TEST(Dc, FloatingNodeThrows) {
  Netlist n;
  n.add_capacitor("C1", "a", "0", 1.0);  // no DC path to ground
  const MnaSystem mna(n);
  EXPECT_THROW(dc_operating_point(mna), NumericalError);
}

// ---------------------------------------------------------------- fixed step

TEST(FixedStep, TrMatchesAnalyticRc) {
  RcFixture f;
  const std::vector<double> x0{0.0};
  FixedStepOptions opt;
  opt.t_end = 2.0;
  opt.h = 0.01;
  StateRecorder rec;
  const auto stats = run_fixed_step(*f.mna, x0, StepMethod::kTrapezoidal,
                                    opt, rec.observer());
  EXPECT_EQ(stats.steps, 200);
  EXPECT_EQ(stats.factorizations, 1);
  EXPECT_EQ(stats.solves, stats.steps);
  ASSERT_EQ(rec.sample_count(), 201u);
  for (std::size_t i = 0; i < rec.sample_count(); ++i)
    EXPECT_NEAR(rec.state(i)[0], rc_exact(rec.times()[i]), 1e-5)
        << "t=" << rec.times()[i];
}

TEST(FixedStep, BeMatchesAnalyticRcFirstOrder) {
  RcFixture f;
  const std::vector<double> x0{0.0};
  FixedStepOptions opt;
  opt.t_end = 2.0;
  opt.h = 0.001;
  StateRecorder rec;
  run_fixed_step(*f.mna, x0, StepMethod::kBackwardEuler, opt,
                 rec.observer());
  for (std::size_t i = 0; i < rec.sample_count(); ++i)
    EXPECT_NEAR(rec.state(i)[0], rc_exact(rec.times()[i]), 1e-3);
}

TEST(FixedStep, InvalidOptionsThrow) {
  RcFixture f;
  const std::vector<double> x0{0.0};
  FixedStepOptions opt;
  opt.t_end = 0.0;
  opt.h = 0.1;
  EXPECT_THROW(run_fixed_step(*f.mna, x0, StepMethod::kTrapezoidal, opt,
                              nullptr),
               InvalidArgument);
  opt.t_end = 1.0;
  opt.h = 0.0;
  EXPECT_THROW(run_fixed_step(*f.mna, x0, StepMethod::kTrapezoidal, opt,
                              nullptr),
               InvalidArgument);
  opt.h = 0.1;
  const std::vector<double> bad_x0{0.0, 0.0};
  EXPECT_THROW(run_fixed_step(*f.mna, bad_x0, StepMethod::kTrapezoidal, opt,
                              nullptr),
               InvalidArgument);
}

TEST(FixedStep, PartialFinalStepLandsOnTend) {
  RcFixture f;
  const std::vector<double> x0{0.0};
  FixedStepOptions opt;
  opt.t_end = 0.25;
  opt.h = 0.1;  // 2 whole steps + one 0.05 step
  StateRecorder rec;
  const auto stats = run_fixed_step(*f.mna, x0, StepMethod::kTrapezoidal,
                                    opt, rec.observer());
  EXPECT_EQ(stats.steps, 3);
  EXPECT_EQ(stats.factorizations, 2);  // one extra for the partial step
  EXPECT_NEAR(rec.times().back(), 0.25, 1e-15);
}

TEST(FixedStep, TrSecondOrderConvergence) {
  RcFixture f;
  const std::vector<double> x0{0.0};
  auto err_at = [&](double h) {
    FixedStepOptions opt;
    opt.t_end = 1.0;
    opt.h = h;
    StateRecorder rec;
    run_fixed_step(*f.mna, x0, StepMethod::kTrapezoidal, opt,
                   rec.observer());
    return std::abs(rec.states().back()[0] - rc_exact(1.0));
  };
  const double e1 = err_at(0.1);
  const double e2 = err_at(0.05);
  const double order = std::log2(e1 / e2);
  EXPECT_NEAR(order, 2.0, 0.2);
}

TEST(FixedStep, BeFirstOrderConvergence) {
  RcFixture f;
  const std::vector<double> x0{0.0};
  auto err_at = [&](double h) {
    FixedStepOptions opt;
    opt.t_end = 1.0;
    opt.h = h;
    StateRecorder rec;
    run_fixed_step(*f.mna, x0, StepMethod::kBackwardEuler, opt,
                   rec.observer());
    return std::abs(rec.states().back()[0] - rc_exact(1.0));
  };
  const double order = std::log2(err_at(0.1) / err_at(0.05));
  EXPECT_NEAR(order, 1.0, 0.15);
}

TEST(FixedStep, ForwardEulerStableOnlyBelowStabilityLimit) {
  // tau = RC = 0.1 -> lambda = -10; FE stable iff h < 2/|lambda| = 0.2.
  Netlist n;
  n.add_voltage_source("V1", "a", "0", Waveform::dc(1.0));
  n.add_resistor("R1", "a", "b", 0.1);
  n.add_capacitor("C1", "b", "0", 1.0);
  const MnaSystem mna(n);
  const std::vector<double> x0{0.0};

  FixedStepOptions stable;
  stable.t_end = 2.0;
  stable.h = 0.05;
  StateRecorder rec_ok;
  run_fixed_step(mna, x0, StepMethod::kForwardEuler, stable,
                 rec_ok.observer());
  EXPECT_NEAR(rec_ok.states().back()[0], 1.0, 1e-2);

  FixedStepOptions unstable = stable;
  unstable.h = 0.35;
  StateRecorder rec_bad;
  run_fixed_step(mna, x0, StepMethod::kForwardEuler, unstable,
                 rec_bad.observer());
  EXPECT_GT(std::abs(rec_bad.states().back()[0]), 10.0);  // diverged
}

TEST(FixedStep, PulseDrivenRcAgreesAcrossMethods) {
  Netlist n;
  n.add_voltage_source("V1", "a", "0", Waveform::dc(1.0));
  n.add_resistor("R1", "a", "b", 1.0);
  n.add_capacitor("C1", "b", "0", 0.5);
  PulseSpec s;
  s.v1 = 0.0;
  s.v2 = 0.4;
  s.delay = 0.2;
  s.rise = 0.1;
  s.width = 0.4;
  s.fall = 0.1;
  n.add_current_source("I1", "b", "0", Waveform::pulse(s));
  const MnaSystem mna(n);
  const auto dc = dc_operating_point(mna);

  FixedStepOptions fine;
  fine.t_end = 2.0;
  fine.h = 1e-4;
  StateRecorder ref;
  run_fixed_step(mna, dc.x, StepMethod::kTrapezoidal, fine, ref.observer());

  FixedStepOptions coarse = fine;
  coarse.h = 1e-2;
  StateRecorder tr;
  run_fixed_step(mna, dc.x, StepMethod::kTrapezoidal, coarse, tr.observer());

  // Compare at the coarse sample times (every 100th fine sample).
  for (std::size_t i = 0; i < tr.sample_count(); ++i)
    EXPECT_NEAR(tr.state(i)[0], ref.state(i * 100)[0], 2e-4);
}

// ---------------------------------------------------------------- adaptive TR

TEST(AdaptiveTr, MatchesFineReferenceOnPulse) {
  Netlist n;
  n.add_voltage_source("V1", "a", "0", Waveform::dc(1.0));
  n.add_resistor("R1", "a", "b", 1.0);
  n.add_capacitor("C1", "b", "0", 0.5);
  PulseSpec s;
  s.v1 = 0.0;
  s.v2 = 0.4;
  s.delay = 0.5;
  s.rise = 0.1;
  s.width = 0.4;
  s.fall = 0.1;
  n.add_current_source("I1", "b", "0", Waveform::pulse(s));
  const MnaSystem mna(n);
  const auto dc = dc_operating_point(mna);

  FixedStepOptions fine;
  fine.t_end = 3.0;
  fine.h = 1e-4;
  StateRecorder ref;
  run_fixed_step(mna, dc.x, StepMethod::kTrapezoidal, fine, ref.observer());

  // (a) Accuracy at the solver's own accepted points: TR itself must be
  // accurate there (compare to the nearest fine-grid reference sample).
  AdaptiveTrOptions opt;
  opt.t_end = 3.0;
  opt.h_init = 1e-3;
  opt.lte_tol = 1e-6;
  StateRecorder steps_rec;
  const auto stats =
      run_adaptive_trapezoidal(mna, dc.x, opt, steps_rec.observer());
  for (std::size_t i = 0; i < steps_rec.sample_count(); ++i) {
    // Snap to the nearest fine-grid sample (<= h/2 = 5e-5 away; slope is
    // bounded by ~1 V/s so the snapping error is below the tolerance).
    const std::size_t ref_idx = static_cast<std::size_t>(
        std::llround(steps_rec.times()[i] / fine.h));
    EXPECT_NEAR(steps_rec.state(i)[0], ref.state(ref_idx)[0], 3e-4)
        << "t=" << steps_rec.times()[i];
  }
  // Adaptivity really happened: steps vary, so multiple factorizations.
  EXPECT_GT(stats.factorizations, 1);
  // And far fewer steps than the fine fixed-step run.
  EXPECT_LT(stats.steps, 3000);

  // (b) Interpolated uniform outputs land on the requested grid; the
  // linear interpolation between accepted points adds O(h^2) error, so the
  // tolerance is looser.
  AdaptiveTrOptions opt_out = opt;
  opt_out.output_times = uniform_grid(0.0, 3.0, 0.1);
  StateRecorder rec;
  run_adaptive_trapezoidal(mna, dc.x, opt_out, rec.observer());
  ASSERT_EQ(rec.sample_count(), opt_out.output_times.size());
  for (std::size_t i = 0; i < rec.sample_count(); ++i) {
    const std::size_t ref_idx = static_cast<std::size_t>(
        std::llround(rec.times()[i] / fine.h));
    EXPECT_NEAR(rec.state(i)[0], ref.state(ref_idx)[0], 3e-3)
        << "t=" << rec.times()[i];
  }
}

TEST(AdaptiveTr, GrowsStepsInQuietRegions) {
  RcFixture f;  // pure DC input: after the initial transient all is quiet
  const auto dc = dc_operating_point(*f.mna);
  AdaptiveTrOptions opt;
  opt.t_end = 10.0;
  opt.h_init = 1e-3;
  opt.lte_tol = 1e-5;
  StateRecorder rec;
  const auto stats =
      run_adaptive_trapezoidal(*f.mna, dc.x, opt, rec.observer());
  // From the DC operating point with DC input nothing happens: the
  // controller should reach h_max quickly -> very few steps.
  EXPECT_LT(stats.steps, 60);
  EXPECT_EQ(stats.rejected_steps, 0);
}

TEST(AdaptiveTr, AlignsToTransitionSpots) {
  Netlist n;
  n.add_resistor("R1", "b", "0", 1.0);
  n.add_capacitor("C1", "b", "0", 1.0);
  PulseSpec s;
  s.v1 = 0.0;
  s.v2 = 1.0;
  s.delay = 1.0;
  s.rise = 0.25;
  s.width = 0.5;
  s.fall = 0.25;
  n.add_current_source("I1", "b", "0", Waveform::pulse(s));
  const MnaSystem mna(n);
  const std::vector<double> x0{0.0};
  AdaptiveTrOptions opt;
  opt.t_end = 3.0;
  opt.h_init = 0.05;
  opt.lte_tol = 1e-3;
  StateRecorder rec;
  run_adaptive_trapezoidal(mna, x0, opt, rec.observer());
  // Every transition spot must appear among the accepted step times.
  for (double ts : {1.0, 1.25, 1.75, 2.0}) {
    bool found = false;
    for (double t : rec.times())
      if (std::abs(t - ts) < 1e-9) found = true;
    EXPECT_TRUE(found) << "missing transition spot " << ts;
  }
}

TEST(AdaptiveTr, AdversarialBreakpointSpacingLeavesNoSubHminSlivers) {
  // PWL breakpoints placed a fraction of h_min beyond the natural
  // stepping cadence: with h_init = h_max = 0.1 the solver lands on
  // multiples of 0.1, and the spots at k*0.1 + delta (delta < h_min)
  // used to strand sub-h_min slivers in front of every transition --
  // steps of ~delta whose 1/h blows up the shifted system. The shaving
  // guard now stretches the incoming step to land on the spot instead.
  Netlist n;
  n.add_resistor("R1", "b", "0", 1.0);
  n.add_capacitor("C1", "b", "0", 1.0);
  n.add_current_source(
      "I1", "b", "0",
      Waveform::pwl({0.30004, 0.60007, 0.85},
                    {0.0, 5e-3, 1e-3}));
  const MnaSystem mna(n);
  const std::vector<double> x0{0.0};

  AdaptiveTrOptions opt;
  opt.t_end = 1.0;
  opt.h_init = 0.1;
  opt.h_max = 0.1;
  opt.h_min = 1e-4;
  opt.lte_tol = 1e-2;
  StateRecorder rec;
  const auto stats = run_adaptive_trapezoidal(mna, x0, opt, rec.observer());
  EXPECT_LT(stats.steps, 200);

  const auto spots = mna.global_transition_spots(0.0, opt.t_end);
  ASSERT_EQ(spots.size(), 3u);
  const double t_eps = opt.t_end * 1e-12;
  for (std::size_t i = 1; i < rec.times().size(); ++i) {
    const double t_prev = rec.times()[i - 1];
    const double t = rec.times()[i];
    for (const double s : spots) {
      // No accepted step may land inside the dead zone (s - h_min, s):
      // the next step would be an unsteppable sliver.
      EXPECT_FALSE(s - t > 10.0 * t_eps && s - t < 0.999 * opt.h_min)
          << "step landed " << s - t << " before spot " << s;
      // And no step may straddle a spot (align_to_transitions).
      EXPECT_FALSE(s > t_prev + 10.0 * t_eps && s < t - 10.0 * t_eps)
          << "step " << t_prev << " -> " << t << " crossed spot " << s;
    }
  }
  // The spots themselves are still hit exactly.
  for (const double s : spots) {
    bool found = false;
    for (const double t : rec.times())
      if (std::abs(t - s) <= 10.0 * t_eps) found = true;
    EXPECT_TRUE(found) << "missing transition spot " << s;
  }
}

TEST(AdaptiveTr, ForcedBoundaryStepUnderLteRejectionTerminates) {
  // Livelock regression: with the next spot 1..2 h_min ahead, every
  // admissible step either lands in the dead zone or on the boundary.
  // An unconditional LTE rejection of the stretched step would shrink
  // h_desired, the controller would floor it back to h_min, and the
  // stretch would reproduce the identical step forever. Such forced
  // boundary steps must be accepted; the run has to terminate. An
  // impossibly tight lte_tol makes every non-exempt step reject.
  Netlist n;
  n.add_resistor("R1", "b", "0", 1.0);
  n.add_capacitor("C1", "b", "0", 1.0);
  n.add_current_source("I1", "b", "0",
                       Waveform::pwl({3.5e-3, 7.3e-3}, {1e-3, 0.0}));
  const MnaSystem mna(n);
  const std::vector<double> x0{1e-3};

  AdaptiveTrOptions opt;
  opt.t_end = 1e-2;
  opt.h_init = 1e-3;
  opt.h_min = 1e-3;
  opt.h_max = 1e-3;
  opt.lte_tol = 1e-30;
  StateRecorder rec;
  const auto stats = run_adaptive_trapezoidal(mna, x0, opt, rec.observer());
  EXPECT_LT(stats.steps, 50);
  EXPECT_NEAR(rec.times().back(), opt.t_end, 1e-12);
  // The spots were still hit exactly.
  for (const double s : {3.5e-3, 7.3e-3}) {
    bool found = false;
    for (const double t : rec.times())
      if (std::abs(t - s) <= 1e-13) found = true;
    EXPECT_TRUE(found) << "missing transition spot " << s;
  }
}

TEST(AdaptiveTr, StretchedStepsRespectHmax) {
  // The boundary stretch must not exceed the user's h_max: a spot just
  // past a whole number of h_max steps is reached by splitting the
  // remaining gap, not by one oversized step.
  Netlist n;
  n.add_resistor("R1", "b", "0", 1.0);
  n.add_capacitor("C1", "b", "0", 1.0);
  // After ten h_max steps the spot sits 1.4 h_max ahead: inside the
  // stretch window (gap - h_min < h_max) but beyond h_max, so the old
  // stretch would take one 1.4e-3 step.
  n.add_current_source("I1", "b", "0",
                       Waveform::pwl({1.14e-2, 2e-2}, {1e-3, 0.0}));
  const MnaSystem mna(n);
  const std::vector<double> x0{1e-3};

  AdaptiveTrOptions opt;
  opt.t_end = 3e-2;
  opt.h_init = 1e-3;
  opt.h_min = 5e-4;
  opt.h_max = 1e-3;
  opt.lte_tol = 1.0;  // loose: steps run at h_max
  StateRecorder rec;
  run_adaptive_trapezoidal(mna, x0, opt, rec.observer());
  for (std::size_t i = 1; i < rec.times().size(); ++i)
    EXPECT_LE(rec.times()[i] - rec.times()[i - 1], opt.h_max * 1.0001)
        << "step " << i << " exceeded h_max";
  bool found = false;
  for (const double t : rec.times())
    if (std::abs(t - 1.14e-2) <= 1e-13) found = true;
  EXPECT_TRUE(found) << "missing transition spot";
}

TEST(AdaptiveTr, RefactorTrajectoryIsPlanIndependent) {
  // Step-size changes refactorize C/h + G/2 along one cached analysis;
  // on the default merged supernode plan and on the all-singleton plan
  // (amalg_max_width = 1) the trajectories must agree sample-for-sample,
  // since every plan replays the identical operation sequence.
  Netlist n;
  n.add_voltage_source("V1", "a", "0", Waveform::dc(1.0));
  n.add_resistor("R1", "a", "b", 1.0);
  n.add_capacitor("C1", "b", "0", 0.5);
  n.add_resistor("R2", "b", "c", 2.0);
  n.add_capacitor("C2", "c", "0", 0.01);  // stiff second pole
  PulseSpec s;
  s.v1 = 0.0;
  s.v2 = 0.3;
  s.delay = 0.3;
  s.rise = 0.1;
  s.width = 0.2;
  s.fall = 0.1;
  s.period = 1.0;
  n.add_current_source("I1", "c", "0", Waveform::pulse(s));
  const MnaSystem mna(n);
  const auto dc = dc_operating_point(mna);

  AdaptiveTrOptions blocked;
  blocked.t_end = 3.0;
  blocked.h_init = 1e-3;
  blocked.lte_tol = 1e-5;
  AdaptiveTrOptions scalar = blocked;
  scalar.lu_options.amalg_max_width = 1;

  ProbeRecorder rec_b({0, 1});
  auto obs_b = rec_b.observer();
  const auto st_b = run_adaptive_trapezoidal(mna, dc.x, blocked, obs_b);
  ProbeRecorder rec_s({0, 1});
  auto obs_s = rec_s.observer();
  const auto st_s = run_adaptive_trapezoidal(mna, dc.x, scalar, obs_s);

  ASSERT_GT(st_b.refactorizations, 0);
  EXPECT_EQ(st_b.refactorizations, st_s.refactorizations);
  EXPECT_EQ(st_b.steps, st_s.steps);
  ASSERT_EQ(rec_b.times().size(), rec_s.times().size());
  for (std::size_t p = 0; p < 2; ++p) {
    const auto& wb = rec_b.waveform(p);
    const auto& ws = rec_s.waveform(p);
    ASSERT_EQ(wb.size(), ws.size());
    for (std::size_t i = 0; i < wb.size(); ++i) EXPECT_EQ(wb[i], ws[i]);
  }
}

TEST(AdaptiveTr, InvalidOptionsThrow) {
  RcFixture f;
  const std::vector<double> x0{0.0};
  AdaptiveTrOptions opt;
  opt.t_end = 1.0;
  opt.h_init = 0.0;
  EXPECT_THROW(run_adaptive_trapezoidal(*f.mna, x0, opt, nullptr),
               InvalidArgument);
  opt.h_init = 0.1;
  opt.lte_tol = 0.0;
  EXPECT_THROW(run_adaptive_trapezoidal(*f.mna, x0, opt, nullptr),
               InvalidArgument);
  opt.lte_tol = 1e-4;
  opt.output_times = {1.0, 0.5};  // unsorted
  EXPECT_THROW(run_adaptive_trapezoidal(*f.mna, x0, opt, nullptr),
               InvalidArgument);
}

class TrOrderSweep : public ::testing::TestWithParam<double> {};

TEST_P(TrOrderSweep, GlobalErrorScalesQuadratically) {
  RcFixture f;
  const std::vector<double> x0{0.0};
  const double h = GetParam();
  FixedStepOptions opt;
  opt.t_end = 1.0;
  opt.h = h;
  StateRecorder rec;
  run_fixed_step(*f.mna, x0, StepMethod::kTrapezoidal, opt, rec.observer());
  const double err = std::abs(rec.states().back()[0] - rc_exact(1.0));
  // Known TR error constant for this problem is ~ |x'''| h^2 / 12 ~ h^2/12.
  EXPECT_LT(err, 0.2 * h * h);
}

INSTANTIATE_TEST_SUITE_P(Steps, TrOrderSweep,
                         ::testing::Values(0.2, 0.1, 0.05, 0.025, 0.0125));

}  // namespace
}  // namespace matex::solver
