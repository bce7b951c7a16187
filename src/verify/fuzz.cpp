#include "verify/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>

#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "core/input_view.hpp"
#include "core/matex_solver.hpp"
#include "core/scheduler.hpp"
#include "la/error.hpp"
#include "runtime/batch.hpp"
#include "runtime/scenario.hpp"
#include "solver/dc.hpp"
#include "solver/fixed_step.hpp"
#include "solver/json_writer.hpp"
#include "solver/observer.hpp"
#include "solver/stats.hpp"
#include "solver/tr_adaptive.hpp"
#include "solver/waveform_io.hpp"
#include "verify/oracle.hpp"

namespace matex::verify {
namespace {

/// SplitMix64: every draw of the case generator is a pure function of the
/// (seed, index) mix, so case K of seed S is identical on every platform.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() %
                                 static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

solver::WaveformTable table_from_recorder(
    const solver::ProbeRecorder& recorder,
    std::span<const la::index_t> probes, std::vector<double> times) {
  solver::WaveformTable t;
  t.names = spread_probe_names(probes);
  MATEX_CHECK(recorder.times().size() == times.size(),
              "solver sample count does not match the output grid");
  t.times = std::move(times);
  for (std::size_t p = 0; p < probes.size(); ++p)
    t.columns.push_back(recorder.waveform(p));
  t.validate();
  return t;
}

/// Tight-step TR oracle: steps oracle_refine x finer than the output grid
/// and keeps every refine-th sample.
solver::WaveformTable run_oracle(const circuit::MnaSystem& mna,
                                 std::span<const double> x0,
                                 const FuzzCase& c,
                                 std::span<const la::index_t> probes,
                                 const std::vector<double>& out_times) {
  const double h_out = c.t_end / c.output_steps;
  solver::FixedStepOptions opt;
  opt.t_end = c.t_end;
  opt.h = h_out / c.oracle_refine;
  solver::ProbeRecorder rec(
      std::vector<la::index_t>(probes.begin(), probes.end()));
  auto obs = rec.observer();
  run_fixed_step(mna, x0, solver::StepMethod::kTrapezoidal, opt, obs);
  const std::size_t expect =
      static_cast<std::size_t>(c.output_steps) *
          static_cast<std::size_t>(c.oracle_refine) + 1;
  MATEX_CHECK(rec.times().size() == expect,
              "oracle sample count mismatch (grid misalignment)");
  solver::WaveformTable t;
  t.names = spread_probe_names(probes);
  t.times = out_times;
  t.columns.assign(probes.size(), {});
  for (std::size_t p = 0; p < probes.size(); ++p) {
    t.columns[p].reserve(out_times.size());
    for (std::size_t i = 0; i < expect;
         i += static_cast<std::size_t>(c.oracle_refine))
      t.columns[p].push_back(rec.waveform(p)[i]);
  }
  t.validate();
  return t;
}

/// Max-minus-min over all oracle probes: the scale differential
/// tolerances are expressed against.
double waveform_swing(const solver::WaveformTable& t) {
  double swing = 0.0;
  for (const auto& col : t.columns) {
    const auto [lo, hi] = std::minmax_element(col.begin(), col.end());
    swing = std::max(swing, *hi - *lo);
  }
  return swing;
}

solver::WaveformTable run_matex_method(const circuit::MnaSystem& mna,
                                       const solver::DcResult& dc,
                                       krylov::KrylovKind kind,
                                       const FuzzCase& c,
                                       std::span<const la::index_t> probes,
                                       const std::vector<double>& times) {
  core::MatexOptions opt;
  opt.kind = kind;
  opt.gamma = c.gamma;
  opt.tolerance = c.krylov_tol;
  if (kind == krylov::KrylovKind::kStandard) {
    // MEXP converges slowly on stiff grids; the basis is still bounded by
    // the (small) system dimension, where Arnoldi is exact.
    opt.max_dim = static_cast<int>(mna.dimension()) + 8;
    opt.tolerance = std::max(c.krylov_tol, 1e-7);
    // A singular C (vsource decks) needs the MEXP regularization before
    // LU(C); the delta is far below any physical decap so the spurious
    // fast mode decays within ~1e-19 s (I-MATEX / R-MATEX run the same
    // decks regularization-free, which is exactly what this campaign
    // differentially demonstrates).
    const auto dynamic = mna.dynamic_unknown_mask();
    if (std::find(dynamic.begin(), dynamic.end(), 0) != dynamic.end())
      opt.c_regularization = 1e-6 * c.grid.node_capacitance;
  }
  core::MatexCircuitSolver matex(mna, opt, dc.g_factors);
  solver::ProbeRecorder rec(
      std::vector<la::index_t>(probes.begin(), probes.end()));
  auto obs = rec.observer();
  const core::FullInput input(mna);
  matex.run(dc.x, 0.0, c.t_end, input, times, obs);
  return table_from_recorder(rec, probes, times);
}

solver::WaveformTable run_method(const std::string& method,
                                 const circuit::MnaSystem& mna,
                                 const solver::DcResult& dc,
                                 const FuzzCase& c,
                                 std::span<const la::index_t> probes,
                                 const std::vector<double>& times) {
  const double h_out = c.t_end / c.output_steps;
  if (method == "rmatex")
    return run_matex_method(mna, dc, krylov::KrylovKind::kRational, c,
                            probes, times);
  if (method == "imatex")
    return run_matex_method(mna, dc, krylov::KrylovKind::kInverted, c,
                            probes, times);
  if (method == "mexp")
    return run_matex_method(mna, dc, krylov::KrylovKind::kStandard, c,
                            probes, times);
  if (method == "tr" || method == "be") {
    solver::FixedStepOptions opt;
    opt.t_end = c.t_end;
    opt.h = h_out;
    solver::ProbeRecorder rec(
        std::vector<la::index_t>(probes.begin(), probes.end()));
    auto obs = rec.observer();
    run_fixed_step(mna, dc.x,
                   method == "tr" ? solver::StepMethod::kTrapezoidal
                                  : solver::StepMethod::kBackwardEuler,
                   opt, obs);
    return table_from_recorder(rec, probes, times);
  }
  if (method == "tradpt") {
    solver::AdaptiveTrOptions opt;
    opt.t_end = c.t_end;
    opt.h_init = h_out / 8.0;
    opt.lte_tol = 1e-4 * c.grid.vdd * c.vdd_scale;
    opt.output_times = times;
    solver::ProbeRecorder rec(
        std::vector<la::index_t>(probes.begin(), probes.end()));
    auto obs = rec.observer();
    run_adaptive_trapezoidal(mna, dc.x, opt, obs);
    return table_from_recorder(rec, probes, times);
  }
  if (method == "dist") {
    core::SchedulerOptions opt;
    opt.t_end = c.t_end;
    opt.solver.gamma = c.gamma;
    opt.solver.tolerance = c.krylov_tol;
    opt.output_times = times;
    solver::ProbeRecorder rec(
        std::vector<la::index_t>(probes.begin(), probes.end()));
    auto obs = rec.observer();
    core::run_distributed_matex(mna, opt, obs);
    return table_from_recorder(rec, probes, times);
  }
  throw InvalidArgument("unknown fuzz method: " + method);
}

double ladder_tolerance(const ToleranceLadder& ladder,
                        const std::string& method) {
  if (method == "tr") return ladder.tr;
  if (method == "be") return ladder.be;
  if (method == "tradpt") return ladder.tradpt;
  return ladder.matex;  // rmatex / imatex / mexp / dist
}

const char* const kFuzzMethods[] = {"rmatex", "imatex", "mexp", "tr",
                                    "be",     "tradpt", "dist"};

void write_case_fields(solver::JsonWriter& w, const FuzzCase& c) {
  w.key("case_seed").value(static_cast<long long>(c.case_seed));
  w.key("rows").value(static_cast<long long>(c.grid.rows));
  w.key("cols").value(static_cast<long long>(c.grid.cols));
  w.key("layers").value(c.grid.layers);
  w.key("vdd").value(c.grid.vdd);
  w.key("node_capacitance").value(c.grid.node_capacitance);
  w.key("cap_variation").value(c.grid.cap_variation);
  w.key("cap_decades").value(c.grid.cap_decades);
  w.key("source_count").value(c.grid.source_count);
  w.key("bump_shape_count").value(c.grid.bump_shape_count);
  w.key("pads_per_side").value(c.grid.pads_per_side);
  w.key("grid_seed").value(static_cast<long long>(c.grid.seed));
  w.key("t_window").value(c.grid.t_window);
  w.key("rise_min").value(c.grid.rise_min);
  w.key("rise_max").value(c.grid.rise_max);
  w.key("width_min").value(c.grid.width_min);
  w.key("width_max").value(c.grid.width_max);
  w.key("t_end").value(c.t_end);
  w.key("output_steps").value(c.output_steps);
  w.key("oracle_refine").value(c.oracle_refine);
  w.key("gamma").value(c.gamma);
  w.key("krylov_tol").value(c.krylov_tol);
  w.key("vdd_scale").value(c.vdd_scale);
  w.key("keep_vsources").value(c.keep_vsources);
  w.key("dense_oracle").value(c.dense_oracle);
  w.key("cap_free_fraction").value(c.grid.cap_free_fraction);
  w.key("supply_ramp_time").value(c.grid.supply_ramp_time);
}

std::string write_repro_artifact(const FuzzOptions& options,
                                 std::uint64_t seed,
                                 const FuzzCaseResult& result) {
  std::error_code ec;
  std::filesystem::create_directories(options.artifact_dir, ec);
  const std::string path =
      options.artifact_dir + "/fuzz_seed" + std::to_string(seed) + "_case" +
      std::to_string(result.case_index) + ".json";
  solver::JsonWriter w;
  w.begin_object();
  w.key("kind").value("matex-fuzz-failure");
  w.key("seed").value(static_cast<long long>(seed));
  w.key("case_index").value(result.case_index);
  w.key("dimension").value(result.dimension);
  w.key("swing").value(result.swing);
  w.key("config").begin_object();
  write_case_fields(w, result.config);
  w.end_object();
  w.key("checks").begin_array();
  for (const MethodCheck& c : result.checks) {
    w.begin_object();
    w.key("method").value(c.method);
    w.key("ran").value(c.ran);
    w.key("pass").value(c.pass);
    w.key("max_err").value(c.max_err);
    w.key("tolerance").value(c.tolerance);
    if (!c.error.empty()) w.key("error").value(c.error);
    w.end_object();
  }
  w.end_array();
  if (result.minimized) {
    w.key("minimized").begin_object();
    write_case_fields(w, *result.minimized);
    w.end_object();
  }
  w.end_object();
  std::ofstream out(path);
  if (!out) return {};
  out << w.str();
  return path;
}

/// Applies one shrink transform (by index); returns false when the
/// transform cannot shrink this case any further.
bool apply_shrink(FuzzCase& c, int transform) {
  switch (transform) {
    case 0:
      if (c.grid.rows <= 2) return false;
      c.grid.rows = std::max<la::index_t>(2, c.grid.rows / 2);
      return true;
    case 1:
      if (c.grid.cols <= 2) return false;
      c.grid.cols = std::max<la::index_t>(2, c.grid.cols / 2);
      return true;
    case 2:
      if (c.grid.layers <= 1) return false;
      c.grid.layers = 1;
      return true;
    case 3:
      if (c.grid.source_count <= 1) return false;
      c.grid.source_count = std::max(1, c.grid.source_count / 2);
      c.grid.bump_shape_count =
          std::min(c.grid.bump_shape_count, c.grid.source_count);
      return true;
    case 4:
      if (c.output_steps <= 16) return false;
      c.output_steps /= 2;
      return true;
    default:
      return false;
  }
}

}  // namespace

FuzzCase fuzz_case_from_seed(std::uint64_t seed, int index) {
  // Mix the campaign seed with the case index so neighboring cases are
  // uncorrelated.
  SplitMix rng(seed ^ (0x9e3779b97f4a7c15ull *
                       (static_cast<std::uint64_t>(index) + 1)));
  FuzzCase c;
  c.case_seed = rng.next();

  pgbench::PowerGridSpec& g = c.grid;
  g.rows = static_cast<la::index_t>(rng.range(3, 6));
  g.cols = static_cast<la::index_t>(rng.range(3, 6));
  g.layers = rng.range(1, 2);
  g.vdd = rng.uniform(1.0, 2.0);
  g.branch_resistance = rng.uniform(0.01, 0.08);
  g.via_resistance = rng.uniform(0.005, 0.03);
  g.node_capacitance = rng.uniform(2e-13, 1e-12);
  g.cap_variation = rng.uniform(0.0, 0.6);
  g.cap_decades = rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.5, 1.5);
  g.pad_resistance = rng.uniform(0.02, 0.1);
  g.pads_per_side = rng.range(1, 2);
  g.source_count = rng.range(2, 8);
  g.bump_shape_count = std::min(rng.range(1, 4), g.source_count);
  g.load_current_min = 1e-3;
  g.load_current_max = rng.uniform(5e-3, 2e-2);
  g.seed = c.case_seed;
  g.name = "fuzz";

  // Output grid: h_out in tens of picoseconds, window a few nanoseconds.
  const double h_out_choices[] = {1e-11, 2e-11, 4e-11};
  const int steps_choices[] = {64, 96, 128};
  const double h_out = h_out_choices[rng.range(0, 2)];
  c.output_steps = steps_choices[rng.range(0, 2)];
  c.t_end = h_out * c.output_steps;
  c.oracle_refine = 32;

  // Pulses live inside the window with resolvable edges.
  g.t_window = 0.8 * c.t_end;
  g.rise_min = 2.0 * h_out;
  g.rise_max = 8.0 * h_out;
  g.width_min = 4.0 * h_out;
  g.width_max = 16.0 * h_out;

  c.gamma = h_out * rng.uniform(5.0, 20.0);
  c.krylov_tol = rng.uniform() < 0.5 ? 1e-7 : 1e-9;
  const double vdd_scales[] = {1.0, 0.9, 1.1};
  c.vdd_scale = vdd_scales[rng.range(0, 2)];
  return c;
}

FuzzCase vsource_case_from_seed(std::uint64_t seed, int index) {
  // A different mix constant than fuzz_case_from_seed, so the two
  // campaigns draw uncorrelated streams even under the same seed.
  SplitMix rng(seed ^ (0xd1b54a32d192ed03ull *
                       (static_cast<std::uint64_t>(index) + 1)));
  FuzzCase c;
  c.case_seed = rng.next();
  c.keep_vsources = true;
  c.dense_oracle = true;

  // Small grids: the dense O(n^3) oracle bounds the size, and the shrink
  // lattice keeps minimized repros legible anyway.
  pgbench::PowerGridSpec& g = c.grid;
  g.rows = static_cast<la::index_t>(rng.range(3, 5));
  g.cols = static_cast<la::index_t>(rng.range(3, 5));
  g.layers = 1;
  g.vdd = rng.uniform(1.0, 1.8);
  g.branch_resistance = rng.uniform(0.02, 0.08);
  g.node_capacitance = rng.uniform(2e-13, 8e-13);
  g.cap_variation = rng.uniform(0.0, 0.5);
  g.cap_decades = 0.0;
  // Capacitance-free internal junctions plus decap-free pad nodes behind
  // series-R supply straps: the algebraic unknowns of the index-1 DAE.
  g.cap_free_fraction = rng.uniform(0.1, 0.45);
  g.pad_resistance = rng.uniform(0.05, 0.2);
  g.pads_per_side = 1;
  g.source_count = rng.range(1, 4);
  g.bump_shape_count = std::min(rng.range(1, 2), g.source_count);
  g.load_current_min = 1e-3;
  g.load_current_max = rng.uniform(4e-3, 1.2e-2);
  g.seed = c.case_seed;
  g.name = "vfuzz";

  const double h_out_choices[] = {2e-11, 4e-11};
  const int steps_choices[] = {32, 48, 64};
  const double h_out = h_out_choices[rng.range(0, 1)];
  c.output_steps = steps_choices[rng.range(0, 2)];
  c.t_end = h_out * c.output_steps;

  g.t_window = 0.8 * c.t_end;
  g.rise_min = 2.0 * h_out;
  g.rise_max = 8.0 * h_out;
  g.width_min = 4.0 * h_out;
  g.width_max = 16.0 * h_out;

  // Half the cases ramp the supplies: a PWL supply stays a branch unknown
  // even under default elimination, and its ramp exercises time-varying
  // B columns of the branch equations.
  if (rng.uniform() < 0.5) {
    g.supply_ramp_time = rng.uniform(0.2, 0.5) * c.t_end;
    g.supply_ramp_droop = rng.uniform(0.02, 0.08);
  }

  c.gamma = h_out * rng.uniform(5.0, 20.0);
  c.krylov_tol = rng.uniform() < 0.5 ? 1e-7 : 1e-9;
  const double vdd_scales[] = {1.0, 0.9, 1.1};
  c.vdd_scale = vdd_scales[rng.range(0, 2)];
  return c;
}

FuzzCaseResult run_fuzz_case(const FuzzCase& fuzz_case,
                             const FuzzOptions& options) try {
  FuzzCaseResult result;
  result.config = fuzz_case;

  circuit::Netlist netlist = pgbench::generate_power_grid(fuzz_case.grid);
  if (fuzz_case.vdd_scale != 1.0)
    netlist = runtime::scale_supplies(netlist, fuzz_case.vdd_scale);
  circuit::MnaOptions mna_options;
  mna_options.eliminate_grounded_vsources = !fuzz_case.keep_vsources;
  const circuit::MnaSystem mna(netlist, mna_options);
  result.dimension = static_cast<int>(mna.dimension());

  // Probes spread over the *whole* unknown vector: on vsource decks the
  // tail indices are branch currents, so the algebraic reconstruction is
  // differentially checked, not just the node voltages.
  const std::vector<la::index_t> probes = spread_probes(mna.dimension());
  const std::vector<double> times = solver::uniform_grid(
      0.0, fuzz_case.t_end, fuzz_case.t_end / fuzz_case.output_steps);

  const solver::DcResult dc = solver::dc_operating_point(mna);
  const solver::WaveformTable oracle =
      fuzz_case.dense_oracle
          ? DenseReference(mna, 300).table(
                probes, spread_probe_names(probes), times)
          : run_oracle(mna, dc.x, fuzz_case, probes, times);
  // Tolerances scale with the actual response amplitude, floored so a
  // quiet case doesn't demand sub-femtovolt agreement.
  result.swing = std::max(waveform_swing(oracle),
                          1e-3 * fuzz_case.grid.vdd * fuzz_case.vdd_scale);

  for (const char* method : kFuzzMethods) {
    MethodCheck check;
    check.method = method;
    check.tolerance =
        ladder_tolerance(options.ladder, check.method) * result.swing;
    try {
      solver::WaveformTable run =
          run_method(check.method, mna, dc, fuzz_case, probes, times);
      if (options.inject_perturbation != 0.0 &&
          check.method == options.inject_method && !run.columns.empty() &&
          !run.columns[0].empty())
        run.columns[0][run.columns[0].size() / 2] +=
            options.inject_perturbation;
      check.ran = true;
      check.max_err = max_abs_error(run, oracle);
      check.pass = check.max_err <= check.tolerance;
    } catch (const std::exception& e) {
      check.ran = false;
      check.pass = false;
      check.error = e.what();
    }
    result.pass = result.pass && check.pass;
    result.checks.push_back(std::move(check));
  }
  return result;
} catch (const std::exception& e) {
  // Harness-stage failure (grid generation, DC solve, oracle run): report
  // it as a failing case so the campaign continues, the seed report
  // prints, and a repro artifact is written -- instead of aborting the
  // whole run with a bare exception.
  FuzzCaseResult result;
  result.config = fuzz_case;
  result.pass = false;
  MethodCheck harness;
  harness.method = "harness";
  harness.error = e.what();
  result.checks.push_back(std::move(harness));
  return result;
}

std::string fuzz_failure_summary(const FuzzCaseResult& r) {
  std::ostringstream out;
  // The dense-oracle flag identifies the vsource tier, whose cases come
  // from a different generator -- the repro call must name it.
  out << "fuzz case " << r.case_index << " FAILED (repro: seed from the "
      << "report, "
      << (r.config.dense_oracle ? "vsource_case_from_seed"
                                : "fuzz_case_from_seed")
      << "(seed, " << r.case_index << "))\n";
  const FuzzCase& c = r.config;
  out << "  grid " << c.grid.rows << "x" << c.grid.cols << "x"
      << c.grid.layers << " (" << r.dimension << " unknowns), "
      << c.grid.source_count << " sources / " << c.grid.bump_shape_count
      << " shapes, cap_decades " << c.grid.cap_decades << "\n";
  out << "  t_end " << c.t_end << ", output_steps " << c.output_steps
      << ", gamma " << c.gamma << ", krylov_tol " << c.krylov_tol
      << ", vdd_scale " << c.vdd_scale << "\n";
  if (c.keep_vsources || c.dense_oracle)
    out << "  vsource deck: keep_vsources " << c.keep_vsources
        << ", dense_oracle " << c.dense_oracle << ", cap_free_fraction "
        << c.grid.cap_free_fraction << ", supply_ramp_time "
        << c.grid.supply_ramp_time << "\n";
  for (const MethodCheck& m : r.checks) {
    out << "  " << m.method << ": ";
    if (!m.ran)
      out << "threw: " << m.error;
    else
      out << (m.pass ? "ok" : "MISMATCH") << " max_err " << m.max_err
          << " tol " << m.tolerance;
    out << "\n";
  }
  if (r.minimized) {
    out << "  minimized repro: grid " << r.minimized->grid.rows << "x"
        << r.minimized->grid.cols << "x" << r.minimized->grid.layers
        << ", " << r.minimized->grid.source_count << " sources, "
        << r.minimized->output_steps << " output steps\n";
  }
  if (!r.artifact_path.empty())
    out << "  artifact: " << r.artifact_path << "\n";
  return out.str();
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  MATEX_CHECK(options.cases > 0, "fuzz campaign needs at least one case");
  FuzzReport report;
  report.seed = options.seed;
  report.cases = options.cases;

  MATEX_CHECK(options.case_factory != nullptr,
              "fuzz campaign needs a case factory");
  for (int index = 0; index < options.cases; ++index) {
    const FuzzCase fuzz_case = options.case_factory(options.seed, index);
    FuzzCaseResult result = run_fuzz_case(fuzz_case, options);
    result.case_index = index;
    for (const MethodCheck& c : result.checks) {
      ++report.checks;
      if (c.ran && c.pass && c.tolerance > 0.0)
        report.max_err_ratio =
            std::max(report.max_err_ratio, c.max_err / c.tolerance);
    }
    if (result.pass) {
      if (options.log && (index + 1) % 50 == 0)
        *options.log << "fuzz: " << (index + 1) << "/" << options.cases
                     << " cases ok\n";
      continue;
    }

    ++report.failures;
    if (options.minimize_failures) {
      // Greedy shrink to a fixpoint: keep any transform that still fails.
      FuzzCase current = result.config;
      bool shrunk = true;
      while (shrunk) {
        shrunk = false;
        for (int transform = 0; transform < 5; ++transform) {
          FuzzCase candidate = current;
          if (!apply_shrink(candidate, transform)) continue;
          const FuzzCaseResult rerun = run_fuzz_case(candidate, options);
          if (!rerun.pass) {
            current = candidate;
            shrunk = true;
          }
        }
      }
      result.minimized = current;
    }
    if (!options.artifact_dir.empty())
      result.artifact_path =
          write_repro_artifact(options, options.seed, result);
    if (options.log) *options.log << fuzz_failure_summary(result);
    report.failed.push_back(std::move(result));
  }
  if (options.log)
    *options.log << "fuzz: " << report.cases << " cases, "
                 << report.failures << " failures, worst err/tol "
                 << report.max_err_ratio << "\n";
  return report;
}

FuzzReport run_vsource_fuzz(FuzzOptions options) {
  options.case_factory = vsource_case_from_seed;
  // Re-rung the fixed-step/adaptive rungs for an *exact* oracle: the
  // classic tier compares against a 32x-finer TR run, whose own O(h^2)
  // bias partially cancels the fixed-step methods' truncation error; the
  // dense DAE oracle exposes the full error. Rungs carry ~2.5-3x
  // headroom over the worst ratio observed across 300 seeded vsource
  // cases (tr 2.6e-2 x swing, be 1.9e-2, tradpt 6.6e-3). The matex rung
  // is untouched: rmatex/imatex/dist land at 6.5e-5 x swing and
  // sign-aware-regularized MEXP at 1.7e-8, all far inside 1.5e-3.
  options.ladder.tr = 6e-2;
  options.ladder.be = 5e-2;
  options.ladder.tradpt = 2e-2;
  return run_fuzz(options);
}

// ------------------------------------------------------ batch-engine fuzz

BatchFuzzReport run_batch_fuzz(const BatchFuzzOptions& options) {
  MATEX_CHECK(options.decks > 0, "batch fuzz needs at least one deck");
  MATEX_CHECK(options.vsource_decks >= 0,
              "vsource deck count must be >= 0");
  BatchFuzzReport report;

  runtime::BatchOptions bopt;
  bopt.threads = options.threads;
  runtime::BatchEngine engine(bopt);

  // Per-deck fuzz cases: reuse the single-case generators for the grid
  // and solver parameters, then fan the corners out through the engine.
  // Decks [0, options.decks) are classic eliminated-supply grids; decks
  // after that are kept-vsource index-1 DAE grids assembled with
  // eliminate_grounded_vsources = false via the engine's per-deck
  // MnaOptions, checked against the dense DAE oracle below.
  const int total_decks = options.decks + options.vsource_decks;
  std::vector<FuzzCase> cases;
  std::vector<std::vector<la::index_t>> deck_probes;
  for (int d = 0; d < total_decks; ++d) {
    const bool vsrc = d >= options.decks;
    FuzzCase c = vsrc ? vsource_case_from_seed(options.seed ^ 0x5eedau,
                                               d - options.decks)
                      : fuzz_case_from_seed(options.seed ^ 0xba7cfu, d);
    c.vdd_scale = 1.0;  // corners are swept below instead
    cases.push_back(c);
    circuit::MnaOptions mna_options;
    mna_options.eliminate_grounded_vsources = !c.keep_vsources;
    circuit::Netlist netlist = pgbench::generate_power_grid(c.grid);
    const circuit::MnaSystem mna(netlist, mna_options);
    deck_probes.push_back(spread_probes(mna.dimension()));
    std::string label(vsrc ? "vsrc-deck-" : "fuzz-deck-");
    label += std::to_string(d);
    engine.add_deck(std::move(label), std::move(netlist), mna_options);
  }

  // Campaign: methods x gamma x Vdd corner per deck.
  std::vector<runtime::ScenarioSpec> scenarios;
  const double vdd_corners[] = {1.0, 0.9};
  for (int d = 0; d < total_decks; ++d) {
    const FuzzCase& c = cases[d];
    int made = 0;
    for (const auto kind :
         {krylov::KrylovKind::kRational, krylov::KrylovKind::kInverted})
      for (const double gamma_mul : {1.0, 2.0})
        for (const double vdd : vdd_corners) {
          if (made >= options.scenarios_per_deck) break;
          runtime::ScenarioSpec spec;
          spec.deck_index = static_cast<std::size_t>(d);
          spec.name = "deck" + std::to_string(d) + "/" +
                      krylov::kind_name(kind) + "/g" +
                      std::to_string(gamma_mul) + "/v" + std::to_string(vdd);
          spec.scheduler.t_end = c.t_end;
          spec.scheduler.output_times = solver::uniform_grid(
              0.0, c.t_end, c.t_end / c.output_steps);
          spec.scheduler.solver.kind = kind;
          spec.scheduler.solver.gamma = c.gamma * gamma_mul;
          spec.scheduler.solver.tolerance = c.krylov_tol;
          spec.vdd_scale = vdd;
          spec.probes = deck_probes[static_cast<std::size_t>(d)];
          scenarios.push_back(std::move(spec));
          ++made;
        }
  }
  report.scenarios = static_cast<int>(scenarios.size());

  const auto batch = engine.run(scenarios);
  report.cache = batch.cache;
  report.failures = batch.failures;
  for (const auto& r : batch.results)
    if (!r.ok) report.failure_names.push_back(r.name + ": " + r.error);

  // Differential check: every scenario against the per-(deck, Vdd)
  // reference -- a tight-step TR oracle for the classic decks, the dense
  // index-1 DAE oracle for the kept-vsource decks (no finer TR run is a
  // trusted reference for their algebraic unknowns).
  std::vector<std::vector<solver::WaveformTable>> oracles(
      static_cast<std::size_t>(total_decks));
  for (auto& per_deck : oracles) per_deck.resize(2);
  const auto oracle_for = [&](std::size_t deck,
                              double vdd) -> const solver::WaveformTable& {
    const std::size_t corner = vdd == 1.0 ? 0 : 1;
    solver::WaveformTable& slot = oracles[deck][corner];
    if (slot.times.empty()) {
      const FuzzCase& c = cases[deck];
      circuit::Netlist netlist = pgbench::generate_power_grid(c.grid);
      if (vdd != 1.0) netlist = runtime::scale_supplies(netlist, vdd);
      circuit::MnaOptions mna_options;
      mna_options.eliminate_grounded_vsources = !c.keep_vsources;
      const circuit::MnaSystem mna(netlist, mna_options);
      const std::vector<double> times = solver::uniform_grid(
          0.0, c.t_end, c.t_end / c.output_steps);
      if (c.dense_oracle) {
        slot = DenseReference(mna, 300).table(
            deck_probes[deck], spread_probe_names(deck_probes[deck]),
            times);
      } else {
        const solver::DcResult dc = solver::dc_operating_point(mna);
        slot = run_oracle(mna, dc.x, c, deck_probes[deck], times);
      }
    }
    return slot;
  };

  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const auto& res = batch.results[si];
    if (!res.ok) continue;
    const std::size_t deck = scenarios[si].deck_index;
    const solver::WaveformTable& oracle =
        oracle_for(deck, scenarios[si].vdd_scale);
    solver::WaveformTable run;
    run.names = oracle.names;
    run.times = res.times;
    run.columns = res.probe_waveforms;
    const double swing =
        std::max(waveform_swing(oracle),
                 1e-3 * cases[deck].grid.vdd * scenarios[si].vdd_scale);
    const double tol = options.ladder.matex * swing;
    const double err = max_abs_error(run, oracle);
    if (tol > 0.0)
      report.max_err_ratio = std::max(report.max_err_ratio, err / tol);
    if (err > tol) {
      ++report.failures;
      std::ostringstream what;
      what << res.name << ": max_err " << err << " > tol " << tol;
      report.failure_names.push_back(what.str());
      if (options.log) *options.log << "batch-fuzz MISMATCH " << what.str()
                                    << "\n";
    }
  }
  if (options.log)
    *options.log << "batch-fuzz: " << report.scenarios << " scenarios ("
                 << options.vsource_decks << " vsource decks), "
                 << report.failures << " failures, cache hits "
                 << report.cache.hits << "/" << (report.cache.hits +
                                                 report.cache.misses)
                 << ", symbolic hits " << report.cache.symbolic_hits << "\n";
  return report;
}

}  // namespace matex::verify
