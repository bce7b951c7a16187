#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "core/input_view.hpp"
#include "core/matex_solver.hpp"
#include "la/error.hpp"
#include "runtime/cancel.hpp"
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
using krylov::KrylovKind;
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

/// Supply-driven RC chain with one pulsed load: every node has a cap, so
/// even MEXP (standard basis, factorizes C) can run without regularization.
struct ChainFixture {
  Netlist netlist;
  std::unique_ptr<MnaSystem> mna;

  ChainFixture() {
    netlist.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.0));
    const char* nodes[] = {"p", "n1", "n2", "n3", "n4"};
    for (int i = 0; i < 4; ++i) {
      netlist.add_resistor(matex::testing::numbered("R", i), nodes[i],
                           nodes[i + 1], 0.5);
      netlist.add_capacitor(matex::testing::numbered("C", i), nodes[i + 1],
                            "0", 0.4);
    }
    netlist.add_current_source("I1", "n4", "0",
                               Waveform::pulse(bump(0.5, 0.1, 0.4, 0.1,
                                                    0.3)));
    mna = std::make_unique<MnaSystem>(netlist);
  }
};

StateRecorder tr_reference(const MnaSystem& mna, std::span<const double> x0,
                           double t_end, double h = 1e-4) {
  solver::FixedStepOptions opt;
  opt.t_end = t_end;
  opt.h = h;
  StateRecorder rec;
  run_fixed_step(mna, x0, solver::StepMethod::kTrapezoidal, opt,
                 rec.observer());
  return rec;
}

struct KindCase {
  KrylovKind kind;
  double gamma;
};

class MatexKindTest : public ::testing::TestWithParam<KindCase> {};

TEST_P(MatexKindTest, MatchesFineTrReferenceOnPulse) {
  const auto [kind, gamma] = GetParam();
  ChainFixture f;
  const auto dc = solver::dc_operating_point(*f.mna);
  const auto ref = tr_reference(*f.mna, dc.x, 2.0);

  MatexOptions opt;
  opt.kind = kind;
  opt.gamma = gamma;
  opt.tolerance = 1e-9;
  opt.max_dim = 40;
  MatexCircuitSolver solver(*f.mna, opt, dc.g_factors);
  const FullInput input(*f.mna);
  const auto grid = uniform_grid(0.0, 2.0, 0.05);
  StateRecorder rec;
  const auto stats =
      solver.run(dc.x, 0.0, 2.0, input, grid, rec.observer());

  ASSERT_EQ(rec.sample_count(), grid.size());
  for (std::size_t i = 0; i < rec.sample_count(); ++i) {
    const std::size_t ref_idx =
        static_cast<std::size_t>(std::llround(rec.times()[i] / 1e-4));
    for (std::size_t j = 0; j < rec.state(i).size(); ++j)
      EXPECT_NEAR(rec.state(i)[j], ref.state(ref_idx)[j], 5e-6)
          << kind_name(kind) << " t=" << rec.times()[i] << " node " << j;
  }
  // Krylov subspaces are generated only at the pulse's transition spots
  // (4 of them) plus possibly the initial segment; far fewer than the 41
  // evaluation points.
  EXPECT_LE(stats.krylov_subspaces, 6);
  EXPECT_GE(stats.steps, 40);
}

TEST_P(MatexKindTest, ExactForRampInput) {
  // R = C = 1, current ramp I(t) = t: v(t) = t - 1 + e^{-t} exactly.
  // MATEX's Eq. (5) is exact for PWL inputs, so the only error is the
  // Krylov tolerance.
  const auto [kind, gamma] = GetParam();
  Netlist n;
  n.add_resistor("R1", "b", "0", 1.0);
  n.add_capacitor("C1", "b", "0", 1.0);
  n.add_current_source("I1", "0", "b",
                       Waveform::pwl({0.0, 10.0}, {0.0, 10.0}));
  const MnaSystem mna(n);
  MatexOptions opt;
  opt.kind = kind;
  opt.gamma = gamma;
  opt.tolerance = 1e-11;
  opt.max_dim = 30;
  MatexCircuitSolver solver(mna, opt);
  const FullInput input(mna);
  const std::vector<double> x0{0.0};
  const auto grid = uniform_grid(0.0, 5.0, 0.5);
  StateRecorder rec;
  const auto stats = solver.run(x0, 0.0, 5.0, input, grid, rec.observer());
  for (std::size_t i = 0; i < rec.sample_count(); ++i) {
    const double t = rec.times()[i];
    EXPECT_NEAR(rec.state(i)[0], t - 1.0 + std::exp(-t), 1e-8) << "t=" << t;
  }
  // One PWL segment covers the whole run: a single subspace suffices.
  EXPECT_EQ(stats.krylov_subspaces, 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MatexKindTest,
    ::testing::Values(KindCase{KrylovKind::kStandard, 0.0},
                      KindCase{KrylovKind::kInverted, 0.0},
                      KindCase{KrylovKind::kRational, 0.1}));

TEST(MatexSolver, RlcSeriesUnderdampedMatchesAnalytic) {
  // Series RLC with R = L = C = 1 driven by a near-step (1 ms ramp; the
  // zero state is consistent because u(0) = 0):
  //   v_C'' + v_C' + v_C = u,  poles -1/2 +- i*sqrt(3)/2 (underdamped).
  Netlist n;
  n.add_voltage_source("V1", "in", "0",
                       Waveform::pwl({0.0, 1e-3}, {0.0, 1.0}));
  n.add_resistor("R1", "in", "a", 1.0);
  n.add_inductor("L1", "a", "b", 1.0);
  n.add_capacitor("C1", "b", "0", 1.0);
  const MnaSystem mna(n);
  ASSERT_EQ(mna.branch_unknowns(), 2);  // inductor + V-source branch

  MatexOptions opt;
  opt.kind = KrylovKind::kRational;
  opt.gamma = 0.5;
  opt.tolerance = 1e-11;
  opt.max_dim = 20;
  MatexCircuitSolver solver(mna, opt);
  const FullInput input(mna);
  const std::vector<double> x0(static_cast<std::size_t>(mna.dimension()),
                               0.0);
  const auto grid = uniform_grid(0.0, 8.0, 0.5);
  StateRecorder rec;
  solver.run(x0, 0.0, 8.0, input, grid, rec.observer());

  const double wd = std::sqrt(3.0) / 2.0;
  const auto vb_idx =
      static_cast<std::size_t>(mna.unknown_index(n.find_node("b")));
  for (std::size_t i = 0; i < rec.sample_count(); ++i) {
    const double t = rec.times()[i];
    const double vc =
        1.0 - std::exp(-t / 2.0) *
                  (std::cos(wd * t) + std::sin(wd * t) / (2.0 * wd));
    // Budget: the 1 ms input ramp shifts the ideal step response by
    // O(1e-3); the Krylov error itself is far below that.
    EXPECT_NEAR(rec.state(i)[vb_idx], vc, 2e-3) << "t=" << t;
  }
}

TEST(MatexSolver, LinearizedSinDriveMatchesTrReference) {
  // A SIN load linearized to PWL runs through the exponential integrator;
  // the reference TR run uses the smooth SIN directly.
  Netlist n;
  n.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.0));
  n.add_resistor("R1", "p", "b", 1.0);
  n.add_capacitor("C1", "b", "0", 0.3);
  circuit::SinSpec sin;
  sin.offset = 0.05;
  sin.amplitude = 0.05;
  sin.frequency = 0.5;
  n.add_current_source("I1", "b", "0", Waveform::sin(sin));
  const MnaSystem smooth_mna(n);

  Netlist n2;
  n2.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.0));
  n2.add_resistor("R1", "p", "b", 1.0);
  n2.add_capacitor("C1", "b", "0", 0.3);
  n2.add_current_source(
      "I1", "b", "0",
      Waveform::sin(sin).linearized(0.0, 4.0, 1.0 / 128.0));
  const MnaSystem pwl_mna(n2);

  const auto dc = solver::dc_operating_point(smooth_mna);
  const auto ref = tr_reference(smooth_mna, dc.x, 4.0);

  MatexOptions opt;
  opt.kind = KrylovKind::kRational;
  opt.gamma = 0.1;
  opt.tolerance = 1e-9;
  MatexCircuitSolver solver(pwl_mna, opt);
  const FullInput input(pwl_mna);
  const auto grid = uniform_grid(0.0, 4.0, 0.25);
  StateRecorder rec;
  solver.run(dc.x, 0.0, 4.0, input, grid, rec.observer());
  for (std::size_t i = 0; i < rec.sample_count(); ++i) {
    const std::size_t ref_idx =
        static_cast<std::size_t>(std::llround(rec.times()[i] / 1e-4));
    // Error budget: PWL linearization of the sine (~(dt)^2/8 * |u''|).
    EXPECT_NEAR(rec.state(i)[0], ref.state(ref_idx)[0], 5e-5)
        << "t=" << rec.times()[i];
  }
}

TEST(MatexSolver, QuietEquilibriumSegmentsAreFree) {
  // DC input, starting from the operating point: x + F = 0 in every
  // segment, so no Krylov subspace is ever generated.
  ChainFixture f;
  Netlist quiet;
  quiet.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.0));
  quiet.add_resistor("R1", "p", "n1", 1.0);
  quiet.add_capacitor("C1", "n1", "0", 1.0);
  const MnaSystem mna(quiet);
  const auto dc = solver::dc_operating_point(mna);
  MatexOptions opt;
  opt.kind = KrylovKind::kRational;
  opt.gamma = 0.1;
  MatexCircuitSolver solver(mna, opt, dc.g_factors);
  const FullInput input(mna);
  const auto grid = uniform_grid(0.0, 10.0, 1.0);
  StateRecorder rec;
  const auto stats = solver.run(dc.x, 0.0, 10.0, input, grid,
                                rec.observer());
  EXPECT_EQ(stats.krylov_subspaces, 0);
  for (std::size_t i = 0; i < rec.sample_count(); ++i)
    EXPECT_NEAR(rec.state(i)[0], dc.x[0], 1e-12);
}

TEST(MatexSolver, CancelIsPolledAtEveryOutputPoint) {
  // One segment (DC sources only) holding 10 000 output points: a token
  // fired from the observer at point k must stop the run at the next
  // point, not at the end of the segment.
  Netlist deck;
  deck.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.0));
  deck.add_resistor("R1", "p", "n1", 1.0);
  deck.add_capacitor("C1", "n1", "0", 1.0);
  deck.add_current_source("I1", "n1", "0", Waveform::dc(0.1));
  const MnaSystem mna(deck);
  const auto dc = solver::dc_operating_point(mna);
  runtime::CancelToken token;
  MatexOptions opt;
  opt.kind = KrylovKind::kRational;
  opt.gamma = 0.1;
  opt.cancel = &token;
  const MatexCircuitSolver solver(mna, opt, dc.g_factors);
  const FullInput input(mna);
  const std::vector<double> x0(static_cast<std::size_t>(mna.dimension()),
                               0.0);
  const auto grid = uniform_grid(0.0, 9999.0, 1.0);
  ASSERT_EQ(grid.size(), 10000u);
  const std::size_t k = 100;
  std::size_t seen = 0;
  const solver::Observer observer = [&](double, std::span<const double>) {
    if (++seen == k) token.cancel();
  };
  EXPECT_THROW(solver.run(x0, 0.0, 9999.0, input, grid, observer),
               CancelledError);
  EXPECT_LE(seen, k + 1);
}

TEST(MatexSolver, SingularCHandledWithoutRegularization) {
  // Node r has no capacitor: C is singular. I-MATEX and R-MATEX never
  // factorize C (Sec. 3.3.3); MEXP must throw unless regularized.
  Netlist n;
  n.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.0));
  n.add_resistor("R1", "p", "r", 1.0);
  n.add_resistor("R2", "r", "b", 1.0);
  n.add_capacitor("C1", "b", "0", 1.0);
  n.add_current_source("I1", "b", "0",
                       Waveform::pulse(bump(0.2, 0.1, 0.3, 0.1, 0.2)));
  const MnaSystem mna(n);
  const auto dc = solver::dc_operating_point(mna);

  MatexOptions rational;
  rational.kind = KrylovKind::kRational;
  rational.gamma = 0.1;
  rational.tolerance = 1e-9;
  MatexCircuitSolver rat(mna, rational, dc.g_factors);

  MatexOptions inverted;
  inverted.kind = KrylovKind::kInverted;
  MatexCircuitSolver inv(mna, inverted, dc.g_factors);

  MatexOptions standard;
  standard.kind = KrylovKind::kStandard;
  EXPECT_THROW(MatexCircuitSolver bad(mna, standard, dc.g_factors),
               NumericalError);
  standard.c_regularization = 1e-8;
  MatexCircuitSolver mexp(mna, standard, dc.g_factors);

  // All runnable variants agree with the TR reference.
  const auto ref = tr_reference(mna, dc.x, 1.0);
  const FullInput input(mna);
  const auto grid = uniform_grid(0.0, 1.0, 0.05);
  for (MatexCircuitSolver* s : {&rat, &inv, &mexp}) {
    StateRecorder rec;
    s->run(dc.x, 0.0, 1.0, input, grid, rec.observer());
    for (std::size_t i = 0; i < rec.sample_count(); ++i) {
      const std::size_t ref_idx =
          static_cast<std::size_t>(std::llround(rec.times()[i] / 1e-4));
      // The regularized MEXP carries an O(delta) modeling error.
      EXPECT_NEAR(rec.state(i)[0], ref.state(ref_idx)[0], 1e-5);
    }
  }
}

TEST(MatexSolver, MexpRegularizationIsSignAwareOnKeptVsources) {
  // Regression: a *kept* voltage source makes the algebraic block of G
  // indefinite ([[G_pp, A], [A', 0]]), so the old uniform +delta
  // regularization handed -C^{-1}G a positive eigenvalue ~ g/delta and
  // MEXP overflowed to NaN within the first segment. The sign-aware
  // regularization (-delta on branch rows) keeps every spurious mode
  // decaying; the result must be finite and match R-MATEX closely.
  Netlist n;
  n.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.8));
  n.add_resistor("Rp", "p", "b", 0.05);  // series strap, decap-free pad
  n.add_capacitor("C1", "b", "0", 2e-12);
  n.add_current_source(
      "I1", "b", "0",
      Waveform::pulse(bump(2e-10, 1e-10, 3e-10, 1e-10, 5e-3)));
  circuit::MnaOptions keep;
  keep.eliminate_grounded_vsources = false;
  const MnaSystem mna(n, keep);
  ASSERT_EQ(mna.dimension(), 3);  // b, p (algebraic), branch (algebraic)
  const auto dc = solver::dc_operating_point(mna);
  const auto grid = uniform_grid(0.0, 1.6e-9, 2e-11);
  const FullInput input(mna);

  MatexOptions standard;
  standard.kind = KrylovKind::kStandard;
  standard.max_dim = static_cast<int>(mna.dimension()) + 8;
  standard.c_regularization = 1e-18;  // the matex_cli default
  MatexCircuitSolver mexp(mna, standard, dc.g_factors);
  StateRecorder mexp_rec;
  mexp.run(dc.x, 0.0, 1.6e-9, input, grid, mexp_rec.observer());

  MatexOptions rational;
  rational.kind = KrylovKind::kRational;
  rational.gamma = 2e-10;
  rational.tolerance = 1e-9;
  MatexCircuitSolver rat(mna, rational, dc.g_factors);
  StateRecorder rat_rec;
  rat.run(dc.x, 0.0, 1.6e-9, input, grid, rat_rec.observer());

  ASSERT_EQ(mexp_rec.sample_count(), rat_rec.sample_count());
  for (std::size_t i = 0; i < mexp_rec.sample_count(); ++i)
    for (std::size_t k = 0; k < 3; ++k) {
      ASSERT_TRUE(std::isfinite(mexp_rec.state(i)[k])) << i << "," << k;
      EXPECT_NEAR(mexp_rec.state(i)[k], rat_rec.state(i)[k], 1e-6);
    }
}

TEST(MatexSolver, RegenerateAtEvalPointsMode) {
  ChainFixture f;
  const auto dc = solver::dc_operating_point(*f.mna);
  MatexOptions opt;
  opt.kind = KrylovKind::kRational;
  opt.gamma = 0.05;
  opt.regenerate_at_eval_points = true;
  MatexCircuitSolver solver(*f.mna, opt, dc.g_factors);
  const FullInput input(*f.mna);
  const auto grid = uniform_grid(0.0, 2.0, 0.1);
  const auto stats = solver.run(dc.x, 0.0, 2.0, input, grid, nullptr);
  // Every evaluation point becomes a segment boundary; quiet pre-pulse
  // segments still produce trivial (free) subspaces, so the count sits
  // between "many" and the full grid size.
  EXPECT_GT(stats.krylov_subspaces, 10);
}

TEST(MatexSolver, InvalidArgumentsThrow) {
  ChainFixture f;
  const auto dc = solver::dc_operating_point(*f.mna);
  MatexOptions opt;
  opt.tolerance = 0.0;
  EXPECT_THROW(MatexCircuitSolver bad(*f.mna, opt), InvalidArgument);
  opt = MatexOptions{};
  opt.max_dim = 0;
  EXPECT_THROW(MatexCircuitSolver bad2(*f.mna, opt), InvalidArgument);

  opt = MatexOptions{};
  opt.gamma = 0.1;
  MatexCircuitSolver solver(*f.mna, opt, dc.g_factors);
  const FullInput input(*f.mna);
  const std::vector<double> grid{0.5, 0.1};  // unsorted
  EXPECT_THROW(solver.run(dc.x, 0.0, 1.0, input, grid, nullptr),
               InvalidArgument);
  const std::vector<double> outside{0.0, 5.0};  // beyond t_end
  EXPECT_THROW(solver.run(dc.x, 0.0, 1.0, input, outside, nullptr),
               InvalidArgument);
  const std::vector<double> bad_x0(3, 0.0);
  EXPECT_THROW(
      solver.run(bad_x0, 0.0, 1.0, input, std::vector<double>{}, nullptr),
      InvalidArgument);
}

TEST(MatexSolver, ProbeSetRowsAreBitwiseEqualToFullStates) {
  // Between segment ends only the probe rows are evaluated; they must be
  // the same bits as the full state's rows, for every Krylov kind.
  ChainFixture f;
  const auto dc = solver::dc_operating_point(*f.mna);
  const FullInput input(*f.mna);
  // 0.05 steps: points inside segments and on the pulse's corners.
  const auto grid = uniform_grid(0.0, 1.5, 0.05);
  const std::vector<la::index_t> probes{3, 0, 2, 0};
  for (const KindCase kc : {KindCase{KrylovKind::kRational, 0.1},
                            KindCase{KrylovKind::kInverted, 0.0},
                            KindCase{KrylovKind::kStandard, 0.0}}) {
    MatexOptions opt;
    opt.kind = kc.kind;
    opt.gamma = kc.gamma;
    opt.tolerance = 1e-10;
    const MatexCircuitSolver solver(*f.mna, opt, dc.g_factors);
    StateRecorder full;
    const auto full_stats =
        solver.run(dc.x, 0.0, 1.5, input, grid, full.observer());
    solver::ProbeRecorder rows(probes);
    const auto row_stats = solver.run(dc.x, 0.0, 1.5, input, grid,
                                      rows.probe_observer(),
                                      rows.probe_set());
    ASSERT_EQ(rows.times(), full.times());
    for (std::size_t p = 0; p < probes.size(); ++p)
      for (std::size_t i = 0; i < full.sample_count(); ++i)
        EXPECT_EQ(rows.waveform(p)[i],
                  full.state(i)[static_cast<std::size_t>(probes[p])])
            << krylov::kind_name(kc.kind) << " probe " << probes[p]
            << " t=" << full.times()[i];
    EXPECT_EQ(row_stats.steps, full_stats.steps);
    EXPECT_EQ(row_stats.solves, full_stats.solves);
    EXPECT_EQ(row_stats.krylov_dim_total, full_stats.krylov_dim_total);
    // Nothing observed: the same counters, no output at all.
    const auto blind_stats = solver.run(dc.x, 0.0, 1.5, input, grid, nullptr);
    EXPECT_EQ(blind_stats.steps, full_stats.steps);
    EXPECT_EQ(blind_stats.solves, full_stats.solves);
    EXPECT_EQ(blind_stats.krylov_subspaces, full_stats.krylov_subspaces);
  }
}

TEST(MatexSolver, OutOfRangeProbeThrows) {
  ChainFixture f;
  const auto dc = solver::dc_operating_point(*f.mna);
  const MatexCircuitSolver solver(*f.mna, MatexOptions{}, dc.g_factors);
  const FullInput input(*f.mna);
  const std::vector<double> grid{0.0, 0.5};
  for (const la::index_t bad : {la::index_t{-1}, f.mna->dimension()})
    EXPECT_THROW(solver.run(dc.x, 0.0, 1.0, input, grid, nullptr,
                            solver::ProbeSet({0, bad})),
                 InvalidArgument)
        << bad;
}

TEST(MatexSolver, RejectsNonPiecewiseLinearInputs) {
  // A SIN source is sampled only at the LTS; MATEX refuses it instead of
  // silently losing accuracy (LinearizedSinDriveMatchesTrReference shows
  // the supported route).
  Netlist n;
  n.add_resistor("R1", "a", "0", 1.0);
  n.add_capacitor("C1", "a", "0", 1e-12);
  circuit::SinSpec sin;
  sin.amplitude = 1e-3;
  sin.frequency = 1e8;
  n.add_current_source("I1", "a", "0", Waveform::sin(sin));
  const MnaSystem mna(n);
  try {
    const MatexCircuitSolver solver(mna, MatexOptions{});
    ADD_FAILURE() << "SIN input accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("Waveform::linearized()"),
              std::string::npos)
        << e.what();
  }
}

TEST(MatexSolver, StallThrowsWhenBudgetImpossible) {
  ChainFixture f;
  const auto dc = solver::dc_operating_point(*f.mna);
  MatexOptions opt;
  opt.kind = KrylovKind::kStandard;  // worst basis for this job
  opt.tolerance = 1e-14;
  opt.max_dim = 2;
  opt.stall_extension = 1.0;  // no rescue extension
  MatexCircuitSolver solver(*f.mna, opt, dc.g_factors);
  const FullInput input(*f.mna);
  const auto grid = uniform_grid(0.0, 2.0, 0.5);
  EXPECT_THROW(solver.run(dc.x, 0.0, 2.0, input, grid, nullptr),
               NumericalError);
}

TEST(MatexSolver, GammaInsensitivityAcrossADecade) {
  // Sec. 3.3.2: accuracy is "not very sensitive to gamma once it is set
  // around the order of the time steps".
  ChainFixture f;
  const auto dc = solver::dc_operating_point(*f.mna);
  const auto ref = tr_reference(*f.mna, dc.x, 2.0);
  const FullInput input(*f.mna);
  const auto grid = uniform_grid(0.0, 2.0, 0.1);
  for (double gamma : {0.02, 0.05, 0.1, 0.2, 0.5}) {
    MatexOptions opt;
    opt.kind = KrylovKind::kRational;
    opt.gamma = gamma;
    opt.tolerance = 1e-9;
    MatexCircuitSolver solver(*f.mna, opt, dc.g_factors);
    StateRecorder rec;
    solver.run(dc.x, 0.0, 2.0, input, grid, rec.observer());
    for (std::size_t i = 0; i < rec.sample_count(); ++i) {
      const std::size_t ref_idx =
          static_cast<std::size_t>(std::llround(rec.times()[i] / 1e-4));
      EXPECT_NEAR(rec.state(i)[0], ref.state(ref_idx)[0], 1e-5)
          << "gamma=" << gamma;
    }
  }
}

}  // namespace
}  // namespace matex::core
