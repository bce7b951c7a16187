#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of matex_cli.

Run from the repository root:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds matex_cli and the bench_e2e helper from source into .bench_build/,
generates the workload's deck from the seed, and runs the real matex_cli in
a closed loop (one process at a time, at most 4 threads) for S seconds.
With --trace 0 it reports the end-to-end metrics; with --trace 1 every run
is traced (--trace) and the spans are reduced to a per-layer table. Every
run's outputs are checked against a fixed-step reference and against each
other. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the full results, with
quartiles, samples and provenance, go to --out (default
.bench_build/results). Exits 1 after printing if any check failed, and 2
without a result when it cannot build or run at all. See README.md.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

BUILD_DIR = Path(".bench_build")
CMAKE_DIR = BUILD_DIR / "cmake"
CLI = CMAKE_DIR / "matex" / "matex_cli"
HELPER = CMAKE_DIR / "bench_e2e"

# Deck pins: table_benchmark_spec(6, scale). The seed moves element values,
# bump shapes and load sites, never the topology, so these hold for every
# seed; a mismatch means the generator or the MNA stamping changed.
DECKS = {
    "pg6x1": {"scale": 1, "unknowns": 6820, "nnz_g": 36796, "nnz_c": 6812,
              "inputs": 808, "groups": 16},
    "pg6x2": {"scale": 2, "unknowns": 13697, "nnz_g": 74283, "nnz_c": 13689,
              "inputs": 1608, "groups": 16},
}

GAMMA = "1e-10"  # matex_cli's default: 10 x the deck's 10 ps .tran step

# argv after the deck; `lattice` is k for the k x k grid of bottom-layer
# probes; `ops` are the distinct Krylov operators the set-up pass builds.
WORKLOADS = {
    "rmatex_single": {
        "deck": "pg6x2", "lattice": 4, "rung": "matex",
        "argv": ["--method", "rmatex"],
        "ops": ["rational:" + GAMMA],
    },
    "tradpt_refactor": {
        "deck": "pg6x1", "lattice": 4, "rung": "tradpt",
        "argv": ["--method", "tradpt", "--tol", "1e-4"],
        "ops": [],
    },
    "dist_table3": {
        "deck": "pg6x2", "lattice": 4, "rung": "matex",
        "argv": ["--method", "dist", "--threads", "4"],
        "ops": ["rational:" + GAMMA],
    },
    "campaign_sharded": {
        "deck": "pg6x1", "lattice": 17, "rung": "matex",
        "argv": ["--batch", "--shards", "2", "--threads", "2"],
        # The default sweep: R-MATEX at gamma and 2 gamma, I-MATEX.
        "ops": ["rational:" + GAMMA, "rational:2e-10", "inverted"],
    },
}
SINGLE_PROCESS_CAMPAIGN = ["--batch", "--threads", "4"]

MIN_RUNS = 3         # timed runs per --trace 0 invocation, whatever --seconds
SETUP_REPS = 5       # in-process set-up passes behind setup_s
RUN_TIMEOUT_S = 120  # a hung matex_cli is killed and counted as failed

# Worker lines of a sharded campaign on stderr (examples/matex_cli.cpp):
# scenario, groups, steps, solves, wall seconds, status. Restored
# scenarios end in "ok (restored)" and are not matched.
SCENARIO_LINE = re.compile(r"^\S+\s+\d+\s+\d+\s+\d+\s+(\d+\.\d+)\s+ok$")


class BenchError(Exception):
    """The benchmark itself cannot proceed (build, helper or I/O failure)."""


# ------------------------------------------------------------------ checks

class Checks:
    """Operations attempted and failed: matex_cli runs plus checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok


# -------------------------------------------------------------- processes

def build():
    """Configures once and builds matex_cli + bench_e2e (a no-op when fresh)."""
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", "bench/e2e", "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "matex_cli",
                  "bench_e2e", "-j", "4"])
    with open(log, "w") as out:
        for argv in steps:
            if subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def helper(*args):
    """Runs one bench_e2e command and returns its JSON output."""
    proc = subprocess.run([str(HELPER.resolve()), *map(str, args)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"bench_e2e {args[0]} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


class Run:
    """One matex_cli process: spawn to reap, with wait4's resource usage
    (user + sys and max RSS over the process and its reaped workers)."""

    def __init__(self, argv, cwd):
        stderr_path = cwd / "stderr.txt"
        with open(stderr_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([str(CLI.resolve()), *argv], cwd=cwd,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    start_new_session=True)
            # Kill the whole session (a sharded coordinator's workers too)
            # on timeout or on any exception while waiting.
            killer = threading.Timer(RUN_TIMEOUT_S, os.killpg,
                                     (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
        self.stderr = stderr_path.read_text(errors="replace")
        if self.code != 0:
            print(f"matex_cli exited {self.code}:\n{self.stderr[-2000:]}",
                  file=sys.stderr)


# ------------------------------------------------------------------ inputs

def lattice_probes(prefix, rows, k):
    """k x k bottom-layer nodes spread evenly over a rows x rows mesh."""
    idx = [round((i + 0.5) * rows / k - 0.5) for i in range(k)]
    return [f"{prefix}{r}_{c}" for r in idx for c in idx]


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def reference_table(deck_path, deck_info, cache_dir):
    """Fixed-step TR reference on the union of every workload's probes for
    this deck, cached per (deck bytes, probes, helper build); untimed."""
    probes = sorted({p for w in WORKLOADS.values() if w["deck"] == deck_info["name"]
                     for p in lattice_probes(deck_info["node_prefix"],
                                             deck_info["rows"], w["lattice"])})
    key = hashlib.sha256("\n".join(
        [sha256(deck_path), sha256(HELPER), *probes]).encode()).hexdigest()[:24]
    ref = cache_dir / f"ref-{key}.txt"
    if not ref.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        probe_file = cache_dir / f"ref-{key}.probes"
        probe_file.write_text("\n".join(probes) + "\n")
        tmp = cache_dir / f"ref-{key}.tmp"
        helper("reference", "--deck", deck_path.resolve(), "--probes",
               probe_file.resolve(), "--out", tmp.resolve())
        tmp.replace(ref)
    return ref


# ------------------------------------------------------------------ traces

EPS_US = 1e-3  # trace timestamps carry ~1e-5 us; nesting tolerance


def interval_union(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def reduce_trace(path):
    """Per-span-name self time (duration minus same-thread children), call
    counts and per-call durations, plus the unions pool utilization and
    unattributed time are computed from. Times in seconds."""
    doc = json.loads(Path(path).read_text())
    spans = defaultdict(list)
    instants = defaultdict(list)
    for e in doc["traceEvents"]:
        if e["ph"] == "X":
            spans[e["tid"]].append(e)
        elif e["ph"] == "i":
            instants[e["name"]].append(e["ts"])

    self_us = Counter()
    calls = defaultdict(list)
    args = defaultdict(Counter)
    task_busy_us = 0.0
    task_threads = 0
    self_consistent = True
    every_interval = []
    for tid, events in spans.items():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, name, dur, child_dur]
        thread_self = 0.0
        top = []

        def close(frame):
            nonlocal thread_self
            s = max(0.0, frame[2] - frame[3])
            self_us[frame[1]] += s
            thread_self += s

        for e in events:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and (stack[-1][0] <= start + EPS_US or
                             end > stack[-1][0] + EPS_US):
                close(stack.pop())
            if stack:
                stack[-1][3] += e["dur"]
            else:
                top.append((start, end))
            stack.append([end, e["name"], e["dur"], 0.0])
            calls[e["name"]].append(e["dur"])
            for key in ("kernel", "sparse_rhs"):
                if key in e.get("args", {}):
                    args[(e["name"], key)][e["args"][key]] += 1
            every_interval.append((start, end))
        while stack:
            close(stack.pop())
        covered = interval_union(top)
        if abs(thread_self - covered) > 0.01 * covered + 1.0:
            self_consistent = False
        tasks = [(e["ts"], e["ts"] + e["dur"]) for e in events if e["name"] == "task"]
        task_busy_us += interval_union(tasks)
        task_threads += bool(tasks)

    stamps = [t for ts in instants.values() for t in ts] + \
             [t for iv in every_interval for t in iv]
    window_us = (max(stamps) - min(stamps)) if stamps else 0.0
    fleet = []
    if instants["worker.spawn"] and instants["worker.exit"]:
        fleet = [(min(instants["worker.spawn"]), max(instants["worker.exit"]))]
    return {
        "self_s": {k: v / 1e6 for k, v in self_us.items()},
        "calls_s": {k: [d / 1e6 for d in v] for k, v in calls.items()},
        "args": args,
        "instant_n": {k: len(v) for k, v in instants.items()},
        "task_busy_s": task_busy_us / 1e6,
        "task_threads": task_threads,
        "window_s": window_us / 1e6,
        "fleet_s": (fleet[0][1] - fleet[0][0]) / 1e6 if fleet else 0.0,
        "covered_s": interval_union(every_interval + fleet) / 1e6,
        "events": sum(len(v) for v in spans.values()) +
                  sum(len(v) for v in instants.values()),
        "dropped": doc.get("droppedEvents", 0),
        "self_consistent": self_consistent,
    }


def percentile(values, q):
    """p50 / p90 of per-call durations; 0 below 100 calls."""
    if len(values) < 100:
        return 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def compute_layers(tr, perf, threads):
    """Per-layer metrics of one traced single-process run."""
    self_s = tr["self_s"]
    calls = tr["calls_s"]
    n = lambda name: len(calls.get(name, []))
    total = lambda name: sum(calls.get(name, []))
    scenarios = perf.get("per_scenario", [perf])
    steps = sum(s.get("steps", 0) for s in scenarios)
    rejected = sum(s.get("rejected_steps", 0) for s in scenarios)
    subspaces = sum(s.get("krylov_subspaces", 0) for s in scenarios)
    nodes = calls.get("node", [])
    hits = tr["instant_n"].get("cache.hit", 0)
    misses = n("cache.miss")
    # A thread blocked on a task group helps run tasks, so more threads than
    # the pool's may show task time.
    threads = max(threads, tr["task_threads"])
    m = {
        "circuit.stamp_s": self_s.get("stamp", 0.0),
        "solver.dc_s": self_s.get("dc", 0.0),
        "solver.tr_self_s": self_s.get("tr_adaptive", 0.0),
        "solver.tr_rejected_frac": rejected / (steps + rejected) if steps else 0.0,
        "la.factor_s": self_s.get("factor", 0.0),
        "la.factor_n": n("factor"),
        "la.refactor_s": self_s.get("refactor", 0.0),
        "la.refactor_n": n("refactor"),
        "la.refactor_call_p50_s": percentile(calls.get("refactor", []), 50),
        "la.refactor_call_p90_s": percentile(calls.get("refactor", []), 90),
        "la.panel_s": self_s.get("panel", 0.0),
        "la.solve_s": self_s.get("solve", 0.0),
        "la.solve_n": n("solve"),
        "la.solve_call_p50_s": percentile(calls.get("solve", []), 50),
        "la.solve_call_p90_s": percentile(calls.get("solve", []), 90),
        "la.solve_sparse_rhs_n": tr["args"][("solve", "sparse_rhs")].get(1, 0),
        "krylov.arnoldi_s": self_s.get("arnoldi", 0.0) +
                            self_s.get("arnoldi_extend", 0.0),
        "krylov.arnoldi_n": n("arnoldi"),
        "krylov.arnoldi_extend_n": n("arnoldi_extend"),
        "krylov.dim_avg": sum(s.get("krylov_dim_avg", 0.0) * s.get("krylov_subspaces", 0)
                              for s in scenarios) / subspaces if subspaces else 0.0,
        "krylov.dim_peak": max(s.get("krylov_dim_peak", 0) for s in scenarios),
        "core.matex_run_s": self_s.get("matex.run", 0.0),
        "core.groups": scenarios[0].get("groups", 0),
        "core.node_max_s": max(nodes, default=0.0),
        "core.node_imbalance": max(nodes) / statistics.mean(nodes) if nodes else 0.0,
        "core.superpose_s": self_s.get("superpose", 0.0),
        "runtime.pool_util": tr["task_busy_s"] / (threads * tr["window_s"])
                             if threads and tr["window_s"] else 0.0,
        "runtime.task_n": n("task"),
        "runtime.scenario_max_s": max(calls.get("scenario", []), default=0.0),
        "runtime.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        # cache.miss and cache.prewarm wrap factorizations: inclusive time.
        "runtime.cache_miss_s": total("cache.miss"),
        "runtime.prewarm_s": total("cache.prewarm"),
        "runtime.retries": perf.get("retries", 0),
        "obs.trace_events": tr["events"],
    }
    for kernel in ("blocked", "blocked-parallel", "scalar", "fallback"):
        m[f"la.refactor.{kernel}_n"] = tr["args"][("refactor", "kernel")].get(kernel, 0)
    return m


# ----------------------------------------------------------------- summary

def summary(values):
    """Median, quartiles and count of a sample list."""
    values = list(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def src_loc():
    return sum(len(p.read_bytes().splitlines())
               for p in sorted(Path("src").rglob("*"))
               if p.suffix in (".cpp", ".hpp"))


def provenance(deck_info):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True) if Path(".git").exists() else None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": deck_info["hardware_concurrency"],
        "compiler": deck_info["compiler"],
        "build_type": deck_info["build_type"],
        "git_sha": git.stdout.strip() if git and git.returncode == 0 else "unknown",
        "repo.src_loc": src_loc(),
    }


# -------------------------------------------------------------- workloads

class Workload:
    def __init__(self, name, seed, work, checks):
        self.spec = WORKLOADS[name]
        self.work = work
        self.checks = checks
        deck = DECKS[self.spec["deck"]]
        self.deck = work / "deck.sp"
        self.info = helper("deck", "--scale", deck["scale"], "--seed", seed,
                           "--out", self.deck.resolve())
        self.info["name"] = self.spec["deck"]
        pins = {k: deck[k] for k in ("unknowns", "nnz_g", "nnz_c", "inputs", "groups")}
        got = {k: self.info[k] for k in pins}
        checks.record(got == pins, f"deck pins {got} != {pins}")
        self.probes = lattice_probes(self.info["node_prefix"], self.info["rows"],
                                     self.spec["lattice"])
        self.campaign = name == "campaign_sharded"
        self.ref = reference_table(self.deck, self.info, BUILD_DIR / "cache")
        self.first_output = None
        self.output_hash = None

    def argv(self, trace=None, spec_argv=None, tag=""):
        argv = ["deck.sp", *(spec_argv or self.spec["argv"]),
                "--perf-json", f"perf{tag}.json"]
        for p in self.probes:
            argv += ["--probe", p]
        if self.campaign:
            argv += ["--checkpoint", f"journal{tag}.jsonl",
                     "--store", f"campaign{tag}.store"]
        else:
            argv += ["--out", "out.txt"]
        if trace:
            argv += ["--trace", trace]
        return argv

    def output(self, tag=""):
        return self.work / (f"campaign{tag}.store" if self.campaign else "out.txt")

    def fresh(self, tag=""):
        for p in self.work.glob(f"journal{tag}.jsonl*"):
            p.unlink()
        for name in (f"campaign{tag}.store", "out.txt", f"perf{tag}.json",
                     "trace.json"):
            (self.work / name).unlink(missing_ok=True)

    def run(self, trace=None, spec_argv=None, tag=""):
        """One closed-loop matex_cli run with fresh artifacts; checks the exit
        code and that the output bytes equal the first run's (for a campaign
        this also holds the single-process store to the sharded one)."""
        self.fresh(tag)
        run = Run(self.argv(trace, spec_argv, tag), self.work)
        ok = self.checks.record(run.code == 0, f"matex_cli exit {run.code}")
        run.perf = json.loads((self.work / f"perf{tag}.json").read_text()) if ok else {}
        if ok:
            digest = sha256(self.output(tag))
            if self.output_hash is None:
                self.output_hash = digest
                self.first_output = self.work / ("first" + self.output(tag).suffix)
                self.output(tag).replace(self.first_output)
            else:
                self.checks.record(digest == self.output_hash,
                                   "output differs from the first run's")
        return run

    def transient_s(self, run):
        if not self.campaign:
            return run.perf.get("max_node_transient_seconds",
                                run.perf.get("transient_seconds", 0.0))
        # The sharded coordinator only restores; the stepping happened in
        # the workers, which report per-scenario seconds on stderr.
        fresh = [float(m.group(1)) for m in
                 map(SCENARIO_LINE.match, run.stderr.splitlines()) if m]
        self.checks.record(len(fresh) == run.perf.get("scenarios"),
                           f"{len(fresh)} worker scenario reports, expected "
                           f"{run.perf.get('scenarios')}")
        return sum(fresh)

    def check_reference(self):
        """The first output against the reference, on the fuzz-ladder rung."""
        kind = "--store" if self.campaign else "--table"
        res = helper("check", "--ref", self.ref.resolve(), "--rung", self.spec["rung"],
                     kind, self.first_output.resolve())
        self.checks.record(res["err_ratio"] <= 1.0,
                           f"max error {res['max_err']:.3g} over tolerance "
                           f"{res['tolerance']:.3g}")
        return res["err_ratio"]

    def setup(self, reps):
        args = ["setup", "--deck", self.deck.resolve(), "--reps", reps]
        for op in self.spec["ops"]:
            args += ["--op", op]
        return helper(*args)


def timed_loop(seconds, min_runs, body):
    start = time.perf_counter()
    out = []
    while len(out) < min_runs or time.perf_counter() - start < seconds:
        out.append(body())
    return out


def end_to_end(w, seconds):
    setup = w.setup(SETUP_REPS)
    runs = [r for r in timed_loop(seconds, MIN_RUNS, w.run) if r.code == 0]
    if not runs:
        raise BenchError("no matex_cli run succeeded")
    err_ratio = w.check_reference()
    samples = {
        "wall_s": [r.wall_s for r in runs],
        "transient_s": [w.transient_s(r) for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "setup_s": setup["setup_s"],
    }
    return samples, err_ratio


def per_layer(w, seconds):
    """Traced runs for --seconds, one sample per run and metric. A campaign
    run pairs the traced sharded coordinator (timeline, fleet window) with
    a traced single-process run (compute layers: workers are not traced)."""
    setup = w.setup(1)
    parse_s = setup["parse_s"][0]
    trace_path = w.work / "trace.json"

    def reduce_checked():
        tr = reduce_trace(trace_path)
        w.checks.record(tr["dropped"] == 0, f"{tr['dropped']} trace events dropped")
        w.checks.record(tr["self_consistent"],
                        "per-thread self time != top-level span time")
        return tr

    def traced_sample():
        run = w.run(trace="trace.json")
        if run.code != 0:
            return None
        tr = reduce_checked()
        m = {
            "cli.unattributed_s": run.wall_s - parse_s - tr["covered_s"],
            "runtime.fleet_s": tr["fleet_s"],
            "obs.dropped_events": tr["dropped"],
        }
        if w.campaign:
            single = w.run(trace="trace.json", spec_argv=SINGLE_PROCESS_CAMPAIGN,
                           tag="-single")
            if single.code != 0:
                return None
            tr_single = reduce_checked()
            layers = compute_layers(tr_single, single.perf, single.perf["threads"])
            layers["runtime.retries"] = max(layers["runtime.retries"],
                                            run.perf.get("retries", 0))
            m["obs.dropped_events"] += tr_single["dropped"]
        else:
            threads = run.perf.get("workers_used", 0)
            layers = compute_layers(tr, run.perf, threads)
        m.update(layers)
        return m

    samples = defaultdict(list)
    for m in timed_loop(seconds, 1, traced_sample):
        for k, v in (m or {}).items():
            samples[k].append(v)
    if not samples:
        raise BenchError("no traced matex_cli run succeeded")

    # Journal and store have no span in the program: time them by replay.
    rep = {}
    if w.campaign:
        rep = helper("replay", "--journal", (w.work / "journal.jsonl").resolve(),
                     "--store", w.first_output.resolve(), "--work", w.work.resolve())
        w.checks.record(rep["store_identical"],
                        "WaveformStoreWriter replay differs from the store")
        w.checks.record(rep["journal_ok"] and rep["journal_skipped_lines"] == 0,
                        "journal replay failed")
    once = {f"{layer}.{key}": rep.get(key, 0.0) for layer, key in (
        ("solver", "store_write_s"), ("solver", "store_read_s"), ("solver", "store_mb"),
        ("runtime", "journal_append_s"), ("runtime", "journal_load_s"),
        ("runtime", "journal_mb"))}
    err_ratio = w.check_reference()
    once.update({
        "circuit.parse_s": parse_s,
        "circuit.unknowns": w.info["unknowns"],
        "circuit.nnz_g": w.info["nnz_g"],
        "circuit.nnz_c": w.info["nnz_c"],
        "circuit.inputs": w.info["inputs"],
        "la.lu_mb": setup["lu_mb"],
        "la.fill_ratio": setup["fill_ratio"],
        "la.supernode_avg_width": setup["supernode_avg_width"],
        "verify.err_ratio": err_ratio,
        "repo.src_loc": src_loc(),
    })
    for k, v in once.items():
        samples[k] = [v]
    return samples, err_ratio


# -------------------------------------------------------------------- main

def print_table(title, rows):
    print(title)
    print(f"  {'metric':32s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}")
    for name, unit, s in rows:
        print(f"  {name:32s} {unit:6s} {s['median']:12.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {s['n']:3d}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1006)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=BUILD_DIR / "results")
    opt = ap.parse_args()
    # Unwind (and so kill the running matex_cli session) on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (Path("CMakeLists.txt").is_file() and Path("src").is_dir()):
        print("run.py: run from the repository root (no CMakeLists.txt/src here)",
              file=sys.stderr)
        return 2
    try:
        # BENCHMARK.json names the metrics each mode reports, with units.
        spec = json.loads(Path("BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"]
                 for m in spec["per_layer" if opt.trace else "end_to_end"]}
        build()
        work = BUILD_DIR / "work" / f"{opt.workload}-seed{opt.seed}"
        work.mkdir(parents=True, exist_ok=True)
        for stale in work.iterdir():
            stale.unlink()
        checks = Checks()
        w = Workload(opt.workload, opt.seed, work, checks)
        samples, err_ratio = (per_layer if opt.trace else end_to_end)(w, opt.seconds)
        if set(units) != set(samples):
            raise BenchError(f"measured {sorted(samples)}, BENCHMARK.json "
                             f"names {sorted(units)}")
        stats = {k: summary(samples[k]) for k in units}
    except (BenchError, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2

    pins = {k: w.info[k] for k in ("unknowns", "nnz_g", "nnz_c", "inputs", "groups")}
    print_table(f"{opt.workload} on {w.spec['deck']} {pins}, seed {opt.seed}, "
                f"trace {opt.trace}",
                [(k, units[k], stats[k]) for k in units])
    print(f"checks: {checks.attempted} attempted, {len(checks.failures)} failed")

    metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in units.items()}
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures), "metrics": metrics}
    opt.out.mkdir(parents=True, exist_ok=True)
    (opt.out / f"{opt.workload}-seed{opt.seed}-trace{opt.trace}.json").write_text(
        json.dumps({**result, "workload": opt.workload, "seed": opt.seed,
                    "seconds": opt.seconds, "deck": w.spec["deck"],
                    "pins": pins, "summary": stats, "samples": samples,
                    "verify.err_ratio": err_ratio,
                    "failures": checks.failures,
                    "provenance": provenance(w.info)}, indent=1) + "\n")
    print(json.dumps(result))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
