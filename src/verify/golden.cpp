#include "verify/golden.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "core/input_view.hpp"
#include "core/matex_solver.hpp"
#include "core/scheduler.hpp"
#include "la/error.hpp"
#include "pgbench/pg_generator.hpp"
#include "solver/dc.hpp"
#include "solver/fixed_step.hpp"
#include "solver/json_writer.hpp"
#include "solver/observer.hpp"
#include "solver/tr_adaptive.hpp"
#include "verify/oracle.hpp"

namespace matex::verify {

std::string golden_to_json(const GoldenWaveform& golden) {
  golden.table.validate();
  solver::JsonWriter w;
  w.begin_object();
  w.key("kind").value("matex-golden-waveform");
  w.key("name").value(golden.name);
  w.key("method").value(golden.method);
  w.key("tolerance").value(golden.tolerance);
  w.key("times").begin_array();
  for (const double t : golden.table.times) w.value(t);
  w.end_array();
  w.key("probes").begin_array();
  for (std::size_t p = 0; p < golden.table.names.size(); ++p) {
    w.begin_object();
    w.key("name").value(golden.table.names[p]);
    w.key("values").begin_array();
    for (const double v : golden.table.columns[p]) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

GoldenWaveform golden_from_json(std::string_view json) {
  const solver::JsonValue doc = solver::parse_json(json);
  if (const solver::JsonValue* kind = doc.find("kind");
      !kind || kind->as_string() != "matex-golden-waveform")
    throw ParseError("not a matex-golden-waveform document");
  GoldenWaveform g;
  g.name = doc.at("name").as_string();
  g.method = doc.at("method").as_string();
  g.tolerance = doc.at("tolerance").as_number();
  g.table.times = doc.at("times").as_number_array();
  const solver::JsonValue& probes = doc.at("probes");
  if (probes.kind != solver::JsonValue::Kind::kArray)
    throw ParseError("golden \"probes\" must be an array");
  for (const solver::JsonValue& probe : probes.array) {
    g.table.names.push_back(probe.at("name").as_string());
    g.table.columns.push_back(probe.at("values").as_number_array());
  }
  g.table.validate();
  return g;
}

void write_golden_file(const GoldenWaveform& golden,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ParseError("cannot write golden file: " + path);
  out << golden_to_json(golden);
}

GoldenWaveform read_golden_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open golden file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return golden_from_json(buf.str());
}

GoldenCheck compare_golden(const GoldenWaveform& golden,
                           const solver::WaveformTable& run) {
  GoldenCheck check;
  const solver::WaveformTable& ref = golden.table;
  if (run.names != ref.names) {
    check.detail = "probe names differ from the golden";
    return check;
  }
  if (run.times.size() != ref.times.size()) {
    // matex-lint: allow(float-format): integer sample counts in a
    // diagnostic message, not waveform values.
    check.detail = "sample count differs from the golden (" +
                   std::to_string(run.times.size()) + " vs " +
                   std::to_string(ref.times.size()) + ")";
    return check;
  }
  for (std::size_t i = 0; i < ref.times.size(); ++i)
    if (std::abs(run.times[i] - ref.times[i]) >
        1e-12 * (1.0 + std::abs(ref.times[i]))) {
      // matex-lint: allow(float-format): integer sample index in a
      // diagnostic message, not a waveform value.
      check.detail = "time axis differs from the golden at sample " +
                     std::to_string(i);
      return check;
    }
  for (std::size_t p = 0; p < ref.columns.size(); ++p)
    for (std::size_t i = 0; i < ref.times.size(); ++i) {
      const double err = std::abs(run.columns[p][i] - ref.columns[p][i]);
      if (!(err <= golden.tolerance) && check.detail.empty()) {
        std::ostringstream msg;
        // matex-lint: allow(float-format): failure diagnostic printed at
        // full precision; never parsed back or compared.
        msg.precision(17);
        msg << "probe " << ref.names[p] << " sample " << i << ": |"
            << run.columns[p][i] << " - " << ref.columns[p][i] << "| = "
            << err << " > tolerance " << golden.tolerance;
        check.detail = msg.str();
      }
      if (std::isfinite(err)) check.max_err = std::max(check.max_err, err);
    }
  check.pass = check.detail.empty();
  return check;
}

// --------------------------------------------------------- standard suite

std::vector<GoldenScenario> standard_golden_suite() {
  return {
      {"rc_step_rmatex", "rc_step", "rmatex", 5e-8},
      {"rc_step_tr", "rc_step", "tr", 5e-8},
      {"rc_ladder_imatex", "rc_ladder", "imatex", 5e-8},
      {"pg_small_rmatex", "pg_small", "rmatex", 5e-8},
      {"pg_small_tradpt", "pg_small", "tradpt", 5e-8},
      {"pg_small_dist", "pg_small", "dist", 5e-8},
      {"pg_vsrc_rmatex", "pg_vsrc", "rmatex", 5e-8},
      {"pg_vsrc_tradpt", "pg_vsrc", "tradpt", 5e-8},
      // Refactorization behavior lock: a stiff mesh under adaptive TR,
      // whose step-size changes drive the numeric-refill path on every
      // re-factorization. The tolerance sits just above the golden
      // store's 12-significant-digit round-trip (~5e-12 on volt-scale
      // samples), far below any physical drift: the supernodal refill and
      // the full factorization must agree to the last stored digit, and
      // any future change to the refactorization's operation order
      // trips this gate instead of sliding under the 5e-8 suite gate.
      {"pg_stiff_tradpt", "pg_stiff", "tradpt", 2.5e-11},
  };
}

namespace {

/// Everything a scenario runner needs about its deck.
struct GoldenDeck {
  circuit::Netlist netlist;
  std::vector<std::string> probe_nodes;  ///< probed node names
  double t_end = 0.0;
  double h_out = 0.0;
  double gamma = 0.0;
  circuit::MnaOptions mna_options;  ///< pg_vsrc keeps its supplies
};

GoldenDeck make_deck(const std::string& key) {
  GoldenDeck deck;
  if (key == "rc_step") {
    SinglePoleRc rc;
    rc.r = 0.5;
    rc.c = 2e-12;
    rc.vdd = 1.8;
    rc.load.v2 = 5e-3;
    rc.load.delay = 2e-10;
    rc.load.rise = 1e-10;
    rc.load.width = 3e-10;
    rc.load.fall = 1e-10;
    deck.netlist = single_pole_rc_netlist(rc);
    deck.probe_nodes = {"n1"};
    // t_end as an exact multiple of h_out so every solver's observer
    // cadence lands on the same sample count.
    deck.h_out = 4e-11;
    deck.t_end = deck.h_out * 40;
    deck.gamma = 4e-10;
    return deck;
  }
  if (key == "rc_ladder") {
    RcLadder ladder;
    ladder.stages = 8;
    ladder.r = 0.5;
    ladder.c = 5e-13;
    ladder.vdd = 1.2;
    ladder.load.v2 = 8e-3;
    ladder.load.delay = 1e-10;
    ladder.load.rise = 1e-10;
    ladder.load.width = 4e-10;
    ladder.load.fall = 2e-10;
    deck.netlist = rc_ladder_netlist(ladder);
    deck.probe_nodes = {"n1", "n4", "n8"};
    deck.h_out = 4e-11;
    deck.t_end = deck.h_out * 40;
    deck.gamma = 4e-10;
    return deck;
  }
  if (key == "pg_small") {
    pgbench::PowerGridSpec spec;  // defaults: 20x20, 2 layers
    spec.rows = 6;
    spec.cols = 6;
    spec.source_count = 12;
    spec.bump_shape_count = 3;
    spec.seed = 7;
    spec.t_window = 1.6e-9;
    spec.rise_min = 5e-11;
    spec.rise_max = 1.5e-10;
    spec.width_min = 1e-10;
    spec.width_max = 4e-10;
    deck.netlist = pgbench::generate_power_grid(spec);
    deck.probe_nodes = {};  // filled from unknown indices below
    deck.h_out = 2.5e-11;
    deck.t_end = deck.h_out * 80;
    deck.gamma = 2.5e-10;
    return deck;
  }
  if (key == "pg_stiff") {
    // Capacitances spread over 1.5 decades: the LTE controller keeps
    // changing h, so the run re-factorizes C/h + G/2 repeatedly along
    // one cached symbolic analysis -- the numeric-refill path this
    // golden locks bitwise (see standard_golden_suite).
    pgbench::PowerGridSpec spec;
    spec.rows = 7;
    spec.cols = 7;
    spec.layers = 2;
    spec.source_count = 14;
    spec.bump_shape_count = 4;
    spec.seed = 23;
    spec.cap_decades = 1.5;
    spec.cap_variation = 0.4;
    spec.t_window = 1.6e-9;
    spec.rise_min = 5e-11;
    spec.rise_max = 1.5e-10;
    spec.width_min = 1e-10;
    spec.width_max = 4e-10;
    deck.netlist = pgbench::generate_power_grid(spec);
    deck.probe_nodes = {};  // spread over unknowns
    deck.h_out = 2.5e-11;
    deck.t_end = deck.h_out * 80;
    deck.gamma = 2.5e-10;
    return deck;
  }
  if (key == "pg_vsrc") {
    // Singular-C regression deck: non-eliminated supplies behind series-R
    // straps (decap-free pad nodes), capacitance-free internal junctions,
    // and a PWL supply ramp -- the index-1 DAE scenario class the dense
    // oracle gained in PR 4. Locks both the node voltages and the
    // algebraic unknowns (branch currents) sample-for-sample.
    pgbench::PowerGridSpec spec;
    spec.rows = 5;
    spec.cols = 5;
    spec.layers = 1;
    spec.source_count = 8;
    spec.bump_shape_count = 2;
    spec.seed = 11;
    spec.cap_free_fraction = 0.25;
    spec.pads_per_side = 1;
    deck.h_out = 2.5e-11;
    deck.t_end = deck.h_out * 80;
    spec.supply_ramp_time = 0.3 * deck.t_end;
    spec.t_window = 0.8 * deck.t_end;
    spec.rise_min = 5e-11;
    spec.rise_max = 1.5e-10;
    spec.width_min = 1e-10;
    spec.width_max = 4e-10;
    deck.netlist = pgbench::generate_power_grid(spec);
    deck.probe_nodes = {};  // spread over unknowns incl. branch currents
    deck.gamma = 2.5e-10;
    deck.mna_options.eliminate_grounded_vsources = false;
    return deck;
  }
  throw InvalidArgument("unknown golden deck: " + key);
}

}  // namespace

solver::WaveformTable run_golden_scenario(const GoldenScenario& scenario) {
  const GoldenDeck deck = make_deck(scenario.deck);
  const circuit::MnaSystem mna(deck.netlist, deck.mna_options);

  std::vector<la::index_t> probes;
  std::vector<std::string> names;
  if (deck.probe_nodes.empty()) {
    // Grid decks: probe a spread of unknowns by index (same selection as
    // the fuzz tier).
    probes = spread_probes(mna.dimension());
    names = spread_probe_names(probes);
  } else {
    for (const std::string& node : deck.probe_nodes) {
      const la::index_t idx =
          mna.unknown_index(deck.netlist.find_node(node));
      MATEX_CHECK(idx >= 0, "golden probe node is ground or eliminated");
      probes.push_back(idx);
      names.push_back(node);
    }
  }

  const std::vector<double> times =
      solver::uniform_grid(0.0, deck.t_end, deck.h_out);
  const solver::DcResult dc = solver::dc_operating_point(mna);
  solver::ProbeRecorder rec(probes);
  auto obs = rec.observer();

  if (scenario.method == "rmatex" || scenario.method == "imatex") {
    core::MatexOptions opt;
    opt.kind = scenario.method == "rmatex" ? krylov::KrylovKind::kRational
                                           : krylov::KrylovKind::kInverted;
    opt.gamma = deck.gamma;
    opt.tolerance = 1e-8;
    core::MatexCircuitSolver matex(mna, opt, dc.g_factors);
    const core::FullInput input(mna);
    matex.run(dc.x, 0.0, deck.t_end, input, times, obs);
  } else if (scenario.method == "tr") {
    solver::FixedStepOptions opt;
    opt.t_end = deck.t_end;
    opt.h = deck.h_out;
    run_fixed_step(mna, dc.x, solver::StepMethod::kTrapezoidal, opt, obs);
  } else if (scenario.method == "tradpt") {
    solver::AdaptiveTrOptions opt;
    opt.t_end = deck.t_end;
    opt.h_init = deck.h_out / 8.0;
    opt.lte_tol = 1e-5;
    opt.output_times = times;
    run_adaptive_trapezoidal(mna, dc.x, opt, obs);
  } else if (scenario.method == "dist") {
    core::SchedulerOptions opt;
    opt.t_end = deck.t_end;
    opt.solver.gamma = deck.gamma;
    opt.solver.tolerance = 1e-8;
    opt.output_times = times;
    core::run_distributed_matex(mna, opt, obs);
  } else {
    throw InvalidArgument("unknown golden method: " + scenario.method);
  }

  solver::WaveformTable table =
      solver::WaveformTable::from_recorder(rec, std::move(names));
  MATEX_CHECK(table.times.size() == times.size(),
              "golden scenario sample count mismatch");
  return table;
}

GoldenGateReport run_golden_gate(const std::string& goldens_dir,
                                 bool update, std::ostream* log) {
  GoldenGateReport report;
  for (const GoldenScenario& scenario : standard_golden_suite()) {
    const std::string path = goldens_dir + "/" + scenario.name + ".json";
    ++report.checked;
    try {
      const solver::WaveformTable run = run_golden_scenario(scenario);
      if (update) {
        GoldenWaveform golden;
        golden.name = scenario.name;
        golden.method = scenario.method;
        golden.tolerance = scenario.tolerance;
        golden.table = run;
        write_golden_file(golden, path);
        ++report.updated;
        if (log) *log << "golden " << scenario.name << ": updated\n";
        continue;
      }
      const GoldenWaveform golden = read_golden_file(path);
      const GoldenCheck check = compare_golden(golden, run);
      if (check.pass) {
        if (log)
          *log << "golden " << scenario.name << ": ok (max_err "
               << check.max_err << ")\n";
      } else {
        ++report.failures;
        const std::string msg = scenario.name + ": " + check.detail;
        report.messages.push_back(msg);
        if (log) *log << "golden " << msg << "\n";
      }
    } catch (const std::exception& e) {
      ++report.failures;
      const std::string msg = scenario.name + ": " + e.what() +
                              " (bless with --verify --update-goldens)";
      report.messages.push_back(msg);
      if (log) *log << "golden " << msg << "\n";
    }
  }
  return report;
}

}  // namespace matex::verify
