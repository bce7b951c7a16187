/// \file bench_hotpath.cpp
/// \brief Per-step hot-path harness: factor vs numeric refactor, dense and
///        sparse-RHS substitution throughput, Arnoldi step cost, and heap
///        allocations per step. Emits BENCH_hotpath.json so every perf PR
///        has a measured trajectory, and doubles as the CI regression gate
///        (--check-against BASELINE.json compares the machine-independent
///        metrics with a 2x tolerance).
///
/// With step size fixed, MATEX performs its factorizations once and then
/// only substitution pairs and Arnoldi iterations per step (Sec. 1 / 3.3)
/// -- these kernels *are* the simulation, which is why this harness
/// tracks them in isolation.
///
/// Usage:
///   bench_hotpath [--json PATH] [--check-against BASELINE.json]
///                 [--max-regression X]
/// Environment: MATEX_BENCH_SCALE scales the mesh (default 1.0).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "circuit/mna.hpp"
#include "krylov/arnoldi.hpp"
#include "krylov/operator.hpp"
#include "la/sparse_csc.hpp"
#include "la/sparse_lu.hpp"
#include "la/vector_ops.hpp"
#include "obs/trace.hpp"
#include "pgbench/pg_generator.hpp"
#include "runtime/cancel.hpp"
#include "runtime/failpoint.hpp"
#include "solver/dc.hpp"
#include "solver/fixed_step.hpp"
#include "solver/json_writer.hpp"
#include "solver/stats.hpp"

// ---------------------------------------------------------------------------
// Allocation counting: replace the global allocator for this binary so the
// harness can assert "zero heap allocations per step after setup" instead
// of guessing.
static std::atomic<long long> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace matex;

long long allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

struct CliArgs {
  std::string json_path = "BENCH_hotpath.json";
  std::string baseline_path;
  double max_regression = 2.0;
};

CliArgs parse_args(int argc, char** argv) {
  CliArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_hotpath: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      a.json_path = next();
    } else if (arg == "--check-against") {
      a.baseline_path = next();
    } else if (arg == "--max-regression") {
      a.max_regression = std::atof(next());
    } else {
      std::fprintf(stderr, "bench_hotpath: unknown argument %s\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return a;
}

/// Deterministic pseudo-random vector (no <random> allocations).
void fill_random(std::span<double> v, std::uint64_t seed) {
  std::uint64_t s = seed * 2654435761u + 1;
  for (double& x : v) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    x = static_cast<double>(s % 2000001) * 1e-6 - 1.0;
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args = parse_args(argc, argv);
  const double scale = bench::env_scale();

  // ----------------------------------------------------------------- mesh
  auto spec = pgbench::table_benchmark_spec(2, scale);
  const auto netlist = pgbench::generate_power_grid(spec);
  const circuit::MnaSystem mna(netlist);
  const la::CscMatrix& c = mna.c();
  const la::CscMatrix& g = mna.g();
  const std::size_t n = static_cast<std::size_t>(mna.dimension());
  std::fprintf(stderr, "bench_hotpath: mesh n=%zu nnz(G)=%lld nnz(C)=%lld\n",
               n, static_cast<long long>(g.nnz()),
               static_cast<long long>(c.nnz()));

  // -------------------------------------- factor vs refactor (gamma sweep)
  // The R-MATEX campaign matrices C + gamma*G share one sparsity pattern
  // across the whole gamma sweep: one symbolic analysis, numeric refills
  // after that.
  const double gamma0 = 1e-10;
  constexpr int kSweep = 8;
  std::vector<la::CscMatrix> sweep;
  sweep.reserve(kSweep);
  for (int i = 0; i < kSweep; ++i)
    sweep.push_back(la::add_scaled(1.0, c, gamma0 * (1.0 + 0.5 * i), g));

  solver::Stopwatch clock;
  std::vector<std::unique_ptr<la::SparseLU>> full_factors;
  for (const auto& m : sweep)
    full_factors.push_back(std::make_unique<la::SparseLU>(m));
  const double full_seconds = clock.seconds() / kSweep;

  const auto symbolic = full_factors.front()->symbolic();
  clock.restart();
  std::vector<std::unique_ptr<la::SparseLU>> refactors;
  for (const auto& m : sweep)
    refactors.push_back(std::make_unique<la::SparseLU>(m, symbolic));
  const double refactor_seconds = clock.seconds() / kSweep;
  const double refactor_speedup = full_seconds / refactor_seconds;

  bool all_accepted = true;
  bool bitwise_identical = true;
  {
    std::vector<double> b(n), x_full(n), x_re(n), work(n);
    fill_random(b, 7);
    for (int i = 0; i < kSweep; ++i) {
      all_accepted = all_accepted && refactors[static_cast<std::size_t>(i)]
                                         ->refactored();
      la::copy(b, x_full);
      full_factors[static_cast<std::size_t>(i)]->solve_in_place(x_full, work);
      la::copy(b, x_re);
      refactors[static_cast<std::size_t>(i)]->solve_in_place(x_re, work);
      for (std::size_t k = 0; k < n; ++k)
        bitwise_identical = bitwise_identical && x_full[k] == x_re[k];
    }
  }

  // Supernode plan of the sweep's shared analysis -- the plan every
  // refill above ran on.
  const la::SupernodeStats& sn_stats = symbolic->supernode_stats();

  // ----------------------------------------------- dense solve throughput
  const la::SparseLU& lu_g = *full_factors.front();
  std::vector<double> b(n), work(n);
  fill_random(b, 13);
  int solve_reps = 20;
  {
    clock.restart();
    for (int i = 0; i < solve_reps; ++i) lu_g.solve_in_place(b, work);
    const double t = clock.seconds();
    solve_reps = std::max(20, static_cast<int>(0.25 * solve_reps / t));
  }
  const long long a0 = allocs();
  clock.restart();
  for (int i = 0; i < solve_reps; ++i) lu_g.solve_in_place(b, work);
  const double dense_solve_seconds = clock.seconds() / solve_reps;
  const double dense_solve_allocs =
      static_cast<double>(allocs() - a0) / solve_reps;

  // ------------------------------------------------- sparse-RHS solve
  // Localized current-source vector: a handful of bottom-layer nodes,
  // exactly what each node subtask of the distributed scheduler feeds the
  // particular-solution solves.
  la::SparseRhsWorkspace sparse_ws(static_cast<la::index_t>(n));
  std::vector<la::index_t> rhs_rows;
  std::vector<double> rhs_vals;
  for (int i = 0; i < 4; ++i) {
    rhs_rows.push_back(static_cast<la::index_t>((i * 7919) % n));
    rhs_vals.push_back(1e-3 * (1.0 + i));
  }
  std::vector<double> x_sparse(n, 0.0);
  // Warm-up sizes the workspace (the one-time setup allocation).
  auto pattern = lu_g.solve_sparse_rhs(rhs_rows, rhs_vals, x_sparse,
                                       sparse_ws);
  for (const la::index_t i : pattern) x_sparse[static_cast<std::size_t>(i)] =
      0.0;
  const long long a1 = allocs();
  clock.restart();
  for (int i = 0; i < solve_reps; ++i) {
    pattern = lu_g.solve_sparse_rhs(rhs_rows, rhs_vals, x_sparse, sparse_ws);
    for (const la::index_t k : pattern)
      x_sparse[static_cast<std::size_t>(k)] = 0.0;
  }
  const double sparse_solve_seconds = clock.seconds() / solve_reps;
  const double sparse_solve_allocs =
      static_cast<double>(allocs() - a1) / solve_reps;
  const double sparse_vs_dense = sparse_solve_seconds / dense_solve_seconds;

  // ------------------------------------- transient step marginal allocs
  // Marginal cost per step: run the TR stepper for N and 2N steps and
  // difference the counters, which cancels all setup allocations.
  const auto run_tr = [&](long long steps, long long* alloc_delta,
                          const runtime::CancelToken* cancel = nullptr) {
    solver::FixedStepOptions opt;
    opt.h = 1e-11;
    opt.t_start = 0.0;
    opt.t_end = static_cast<double>(steps) * opt.h;
    opt.cancel = cancel;
    const std::vector<double> x0(n, 0.0);
    const long long before = allocs();
    clock.restart();
    solver::run_fixed_step(mna, x0, solver::StepMethod::kTrapezoidal, opt,
                           {});
    const double t = clock.seconds();
    *alloc_delta = allocs() - before;
    return t;
  };
  long long tr_allocs_1 = 0, tr_allocs_2 = 0;
  constexpr long long kTrSteps = 128;
  run_tr(kTrSteps, &tr_allocs_1);
  const double tr_seconds_2 = run_tr(2 * kTrSteps, &tr_allocs_2);
  const double tr_allocs_per_step =
      static_cast<double>(tr_allocs_2 - tr_allocs_1) / kTrSteps;
  const double tr_steps_per_second = 2.0 * kTrSteps / tr_seconds_2;

  // ------------------------------------------------------- Arnoldi step
  // Marginal cost of one basis-growth iteration (operator apply + MGS):
  // build to dimension M and 2M with convergence checks pushed to the
  // very end, and difference. Zero allocations here means the whole
  // O(n) Arnoldi path runs out of the preallocated contiguous basis.
  const krylov::CircuitOperator op(c, g, krylov::KrylovKind::kRational,
                                   gamma0);
  const auto dc = solver::dc_operating_point(mna);
  std::vector<double> v0 = dc.x;
  la::scale(1.0 / la::norm2(v0), v0);
  constexpr int kArnoldiDim = 12;
  const auto run_arnoldi = [&](int m, long long* alloc_delta) {
    krylov::ArnoldiOptions opt;
    opt.max_dim = m;
    opt.tolerance = 1e-300;  // force the full dimension
    opt.dense_check_limit = 0;
    opt.check_stride = 1 << 20;  // convergence check only at max_dim
    const long long before = allocs();
    clock.restart();
    auto space = krylov::arnoldi(op, v0, gamma0, opt);
    const double t = clock.seconds();
    *alloc_delta = allocs() - before;
    return t;
  };
  long long arnoldi_allocs_1 = 0, arnoldi_allocs_2 = 0;
  const double arnoldi_t1 = run_arnoldi(kArnoldiDim, &arnoldi_allocs_1);
  const double arnoldi_t2 = run_arnoldi(2 * kArnoldiDim, &arnoldi_allocs_2);
  const double arnoldi_step_seconds =
      (arnoldi_t2 - arnoldi_t1) / kArnoldiDim;
  // Allocations per basis-growth iteration: marginal count between
  // adjacent dimensions. The final O(m^3) convergence check allocates a
  // handful of dense temporaries whose *count* can differ by one
  // squaring step between dimensions, so take the minimum over a few
  // adjacent pairs -- the O(n) growth path itself must contribute zero.
  double arnoldi_allocs_per_step = 1e30;
  for (const int m : {kArnoldiDim, kArnoldiDim + 4, kArnoldiDim + 8}) {
    long long lo = 0, hi = 0;
    run_arnoldi(m, &lo);
    run_arnoldi(m + 1, &hi);
    arnoldi_allocs_per_step =
        std::min(arnoldi_allocs_per_step, static_cast<double>(hi - lo));
  }

  // ------------------------------------------------------- observability
  // PR 6's zero-perturbation guarantee, measured: a disabled span costs a
  // relaxed flag load plus a branch and must never allocate; tracing a
  // whole TR run (a "solve" span per step plus the run span) must stay
  // within 5% of the untraced wall time.
  obs::stop_tracing();
  constexpr long long kSpanReps = 2000000;
  std::atomic<long long> span_sink{0};  // keeps the loop observable
  const long long obs_a0 = allocs();
  clock.restart();
  for (long long i = 0; i < kSpanReps; ++i) {
    MATEX_SPAN("disabled", "i", i);
    span_sink.fetch_add(1, std::memory_order_relaxed);
  }
  const double span_disabled_ns = clock.seconds() * 1e9 / kSpanReps;
  const long long span_disabled_allocs = allocs() - obs_a0;

  obs::start_tracing();
  { MATEX_SPAN("warmup"); }  // sizes this thread's ring outside the timing
  constexpr long long kEnabledSpans = 1000;
  const long long obs_a1 = allocs();
  for (long long i = 0; i < kEnabledSpans; ++i)
    MATEX_SPAN("enabled", "i", i);
  const long long span_enabled_allocs = allocs() - obs_a1;
  obs::discard_trace();
  obs::stop_tracing();

  // Traced-vs-untraced TR overhead: best-of-5 on both sides so scheduler
  // noise cannot fake a regression.
  constexpr long long kObsTrSteps = 512;
  const auto best_tr = [&](int reps) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      long long scratch = 0;
      best = std::min(best, run_tr(kObsTrSteps, &scratch));
      if (obs::trace_enabled()) obs::discard_trace();
    }
    return best;
  };
  const double untraced_tr_seconds = best_tr(5);
  obs::start_tracing();
  const double traced_tr_seconds = best_tr(5);
  obs::stop_tracing();
  obs::discard_trace();
  const double traced_tr_overhead_ratio =
      traced_tr_seconds / untraced_tr_seconds;

  // ------------------------------------------------------ fault tolerance
  // PR 7's zero-perturbation guarantee, measured the same way: a disarmed
  // failpoint costs a relaxed flag load plus a branch and must never
  // allocate, and a cancellation-guarded TR run (token polled every step,
  // never fired) must stay within 5% of the unguarded wall time.
  runtime::disarm_failpoints();
  const long long fp_a0 = allocs();
  clock.restart();
  for (long long i = 0; i < kSpanReps; ++i) {
    MATEX_FAILPOINT("bench.disarmed");
    span_sink.fetch_add(1, std::memory_order_relaxed);
  }
  const double failpoint_disarmed_ns = clock.seconds() * 1e9 / kSpanReps;
  const long long failpoint_disarmed_allocs = allocs() - fp_a0;

  runtime::CancelToken never_cancelled;
  const auto best_guarded_tr = [&](int reps) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      long long scratch = 0;
      best = std::min(best, run_tr(kObsTrSteps, &scratch,
                                   &never_cancelled));
    }
    return best;
  };
  const double guarded_tr_seconds = best_guarded_tr(5);
  const double guarded_tr_overhead_ratio =
      guarded_tr_seconds / untraced_tr_seconds;

  // ------------------------------------------------------------- report
  solver::JsonWriter w;
  w.begin_object();
  w.key("bench").value("hotpath");
  w.key("scale").value(scale);
  w.key("mesh").begin_object();
  w.key("n").value(n);
  w.key("nnz_g").value(static_cast<long long>(g.nnz()));
  w.key("nnz_c").value(static_cast<long long>(c.nnz()));
  w.end_object();
  w.key("factorization").begin_object();
  w.key("sweep_points").value(kSweep);
  w.key("full_seconds_avg").value(full_seconds);
  w.key("refactor_seconds_avg").value(refactor_seconds);
  w.key("refactor_speedup").value(refactor_speedup);
  w.key("refactor_all_accepted").value(all_accepted);
  w.key("solutions_bitwise_identical").value(bitwise_identical);
  w.end_object();
  w.key("supernodes").begin_object();
  w.key("mesh_n").value(n);
  w.key("count").value(static_cast<long long>(sn_stats.supernodes));
  w.key("max_width").value(static_cast<long long>(sn_stats.max_width));
  w.key("avg_width").value(
      sn_stats.avg_width(static_cast<la::index_t>(n)));
  w.key("padded_fraction").value(sn_stats.padded_fraction());
  w.end_object();
  w.key("solve").begin_object();
  w.key("solves_per_second").value(1.0 / dense_solve_seconds);
  w.key("dense_solve_allocs_per_call").value(dense_solve_allocs);
  w.key("sparse_rhs_allocs_per_call").value(sparse_solve_allocs);
  w.key("sparse_rhs_vs_dense_ratio").value(sparse_vs_dense);
  w.end_object();
  w.key("transient").begin_object();
  w.key("tr_steps_per_second").value(tr_steps_per_second);
  w.key("tr_allocs_per_step").value(tr_allocs_per_step);
  w.end_object();
  w.key("arnoldi").begin_object();
  w.key("dim").value(kArnoldiDim);
  w.key("step_seconds_avg").value(arnoldi_step_seconds);
  w.key("allocs_per_step").value(arnoldi_allocs_per_step);
  w.end_object();
  w.key("obs").begin_object();
  w.key("span_disabled_ns").value(span_disabled_ns);
  w.key("span_disabled_allocs").value(span_disabled_allocs);
  w.key("span_enabled_allocs").value(span_enabled_allocs);
  w.key("traced_tr_overhead_ratio").value(traced_tr_overhead_ratio);
  w.end_object();
  w.key("fault").begin_object();
  w.key("failpoint_disarmed_ns").value(failpoint_disarmed_ns);
  w.key("failpoint_disarmed_allocs").value(failpoint_disarmed_allocs);
  w.key("guarded_tr_overhead_ratio").value(guarded_tr_overhead_ratio);
  w.end_object();
  w.end_object();

  std::fputs(w.str().c_str(), stderr);
  {
    std::ofstream out(args.json_path);
    if (!out) {
      std::fprintf(stderr, "bench_hotpath: cannot write %s\n",
                   args.json_path.c_str());
      return 1;
    }
    out << w.str();
  }
  std::fprintf(stderr, "wrote %s\n", args.json_path.c_str());

  int failures = 0;
  if (!all_accepted) {
    std::fprintf(stderr, "FAIL: a same-pattern refactorization fell back "
                         "to full pivoting\n");
    ++failures;
  }
  if (!bitwise_identical) {
    std::fprintf(stderr,
                 "FAIL: refactorization solutions are not bitwise "
                 "identical to full factorization\n");
    ++failures;
  }
  if (span_disabled_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: disabled spans allocated %lld times over %lld "
                 "iterations (must be zero)\n",
                 span_disabled_allocs, kSpanReps);
    ++failures;
  }
  if (span_enabled_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: enabled spans allocated %lld times over %lld "
                 "emissions (the ring path must be allocation-free)\n",
                 span_enabled_allocs, kEnabledSpans);
    ++failures;
  }
  if (traced_tr_overhead_ratio > 1.05) {
    std::fprintf(stderr,
                 "FAIL: tracing slowed the TR run by %.1f%% (cap 5%%)\n",
                 100.0 * (traced_tr_overhead_ratio - 1.0));
    ++failures;
  }
  if (failpoint_disarmed_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: disarmed failpoints allocated %lld times over "
                 "%lld hits (must be zero)\n",
                 failpoint_disarmed_allocs, kSpanReps);
    ++failures;
  }
  if (guarded_tr_overhead_ratio > 1.05) {
    std::fprintf(stderr,
                 "FAIL: cancellation polling slowed the TR run by %.1f%% "
                 "(cap 5%%)\n",
                 100.0 * (guarded_tr_overhead_ratio - 1.0));
    ++failures;
  }

  // ------------------------------------------- baseline regression gate
  // Only machine-independent metrics are compared: speedup ratios (2x
  // tolerance) and allocation counts (absolute, +1 slack); absolute
  // timings vary across runners and are informational only.
  if (!args.baseline_path.empty()) {
    std::ifstream in(args.baseline_path);
    if (!in) {
      std::fprintf(stderr, "bench_hotpath: cannot read baseline %s\n",
                   args.baseline_path.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string base = buf.str();
    const auto check_ratio_min = [&](const char* key, double measured) {
      const double ref = solver::json_number_field(base, key, -1.0);
      if (ref < 0.0) return;
      if (measured < ref / args.max_regression) {
        std::fprintf(stderr,
                     "FAIL: %s regressed: %.3f vs baseline %.3f "
                     "(tolerance %.1fx)\n",
                     key, measured, ref, args.max_regression);
        ++failures;
      }
    };
    const auto check_ratio_max = [&](const char* key, double measured) {
      const double ref = solver::json_number_field(base, key, -1.0);
      if (ref < 0.0) return;
      if (measured > ref * args.max_regression) {
        std::fprintf(stderr,
                     "FAIL: %s regressed: %.3f vs baseline %.3f "
                     "(tolerance %.1fx)\n",
                     key, measured, ref, args.max_regression);
        ++failures;
      }
    };
    const auto check_allocs = [&](const char* key, double measured) {
      const double ref = solver::json_number_field(base, key, -1.0);
      if (ref < 0.0) return;
      if (measured > ref + 1.0) {
        std::fprintf(stderr,
                     "FAIL: %s regressed: %.2f allocations vs baseline "
                     "%.2f\n",
                     key, measured, ref);
        ++failures;
      }
    };
    check_ratio_min("refactor_speedup", refactor_speedup);
    check_ratio_max("sparse_rhs_vs_dense_ratio", sparse_vs_dense);
    check_allocs("dense_solve_allocs_per_call", dense_solve_allocs);
    check_allocs("sparse_rhs_allocs_per_call", sparse_solve_allocs);
    check_allocs("tr_allocs_per_step", tr_allocs_per_step);
    check_allocs("allocs_per_step", arnoldi_allocs_per_step);
    check_allocs("span_disabled_allocs", span_disabled_allocs);
    check_allocs("span_enabled_allocs", span_enabled_allocs);
    check_ratio_max("traced_tr_overhead_ratio", traced_tr_overhead_ratio);
    check_allocs("failpoint_disarmed_allocs", failpoint_disarmed_allocs);
    check_ratio_max("guarded_tr_overhead_ratio", guarded_tr_overhead_ratio);
    std::fprintf(stderr, "baseline check vs %s: %s\n",
                 args.baseline_path.c_str(),
                 failures == 0 ? "ok" : "FAILED");
  }
  return failures == 0 ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_hotpath: %s\n", e.what());
  return 1;
}
