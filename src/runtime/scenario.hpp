/// \file scenario.hpp
/// \brief Scenario descriptions for the batch engine: one scenario is one
///        distributed MATEX job (a deck under a method/gamma/tolerance/
///        supply-scaling configuration).
///
/// A *campaign* is a set of scenarios over registered decks. Campaigns
/// are what a production PDN sign-off flow runs: the same grid swept over
/// solver settings and operating corners. Most of the work repeats
/// between scenarios -- the matrices of a deck don't change across a
/// gamma/tolerance sweep, and supply scaling only rescales u(t), never G
/// or C -- which is exactly what the runtime factorization cache
/// amortizes.
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "core/scheduler.hpp"

namespace matex::runtime {

/// One batch job: a deck index (into the engine's registered decks) plus
/// the full scheduler configuration to run it under.
struct ScenarioSpec {
  /// Display name (expand_campaign generates "deck/method/g=../tol=..").
  std::string name;
  /// Index of the deck registered with BatchEngine::add_deck.
  std::size_t deck_index = 0;
  /// Scheduler configuration (solver kind/gamma/tolerance, window, output
  /// grid, decomposition bound). `pool` and `factor_cache` are overridden
  /// by the engine's shared pool and cache, and `probes` by `probes`
  /// below.
  core::SchedulerOptions scheduler;
  /// Supply-voltage scaling: every voltage-source waveform of the deck is
  /// multiplied by this factor (a Vdd corner). G, C, and B are unchanged,
  /// so scaled scenarios share every factorization with the nominal deck.
  double vdd_scale = 1.0;
  /// Unknown indices whose waveforms are recorded into the result; empty
  /// records nothing (stats only), keeping large campaigns cheap. The
  /// engine runs the scheduler with exactly these probes, so only these
  /// rows are evaluated between segment ends and superposed.
  std::vector<la::index_t> probes;
};

/// Outcome of one scenario. Failures are reported, not thrown: one bad
/// configuration must not sink the rest of the campaign.
struct ScenarioResult {
  std::string name;
  std::size_t deck_index = 0;
  std::size_t scenario_index = 0;  ///< position in the campaign
  bool ok = false;
  /// True when the scenario was stopped by cancellation (SIGINT, campaign
  /// or per-scenario deadline) rather than failing. Implies !ok; never
  /// retried, never journaled.
  bool cancelled = false;
  std::string error;  ///< what() of the failure when !ok
  /// Stable failure type from the error taxonomy ("NumericalError",
  /// "bad_alloc", "InvalidArgument", "Cancelled", ...); empty when ok.
  std::string error_kind;
  /// Times the engine ran the scenario (> 1 after transient-failure
  /// retries; 0 for a result restored from a checkpoint).
  int attempts = 1;
  /// Scheduler outcome (group count, per-node stats, cache hits, ...).
  core::DistributedResult distributed;
  /// Wall time of the whole job as run by the engine (DC + decomposition
  /// + nodes + superposition), the throughput-facing number.
  double wall_seconds = 0.0;
  /// Output grid and recorded probe waveforms (aligned with
  /// ScenarioSpec::probes; empty when no probes were requested).
  std::vector<double> times;
  std::vector<std::vector<double>> probe_waveforms;
};

/// Cross-product campaign description: decks x methods x gamma x
/// tolerance x Vdd scaling, all sharing one base scheduler configuration.
struct CampaignSweep {
  /// Deck indices to sweep (default: deck 0 only).
  std::vector<std::size_t> deck_indices = {0};
  std::vector<krylov::KrylovKind> methods = {krylov::KrylovKind::kRational};
  /// Gamma values for R-MATEX (ignored by other methods, which appear
  /// once per method instead of once per gamma).
  std::vector<double> gammas = {};
  std::vector<double> tolerances = {};
  std::vector<double> vdd_scales = {1.0};
  /// Base configuration: window, output grid, decomposition bound.
  /// Solver kind/gamma/tolerance are overwritten per scenario. Its
  /// `parallelism` has no effect in a batch: the engine runs every
  /// scenario on its own pool, so that pool's size (BatchOptions::threads,
  /// or the caller's BatchOptions::pool) sets how many nodes run at once.
  core::SchedulerOptions base;
  /// Probes applied to every scenario.
  std::vector<la::index_t> probes;
};

/// Expands a sweep into the scenario list (deterministic order: deck
/// outermost, then method, gamma, tolerance, Vdd scale). Gammas/tolerances
/// left empty inherit the base configuration's value. `deck_labels` (one
/// per registered deck) feeds the generated names.
std::vector<ScenarioSpec> expand_campaign(
    const CampaignSweep& sweep, const std::vector<std::string>& deck_labels);

/// Returns a copy of `netlist` with every voltage-source waveform scaled
/// by `factor` (DC, PULSE, SIN, and PWL supplies all supported). Current
/// sources -- the switching loads -- are untouched: this is a supply
/// corner, not a load corner.
circuit::Netlist scale_supplies(const circuit::Netlist& netlist,
                                double factor);

}  // namespace matex::runtime
