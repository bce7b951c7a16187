#!/usr/bin/env bash
# Appends one benchmark trend point to bench/trend.jsonl (the per-PR
# performance dashboard data; ROADMAP PR-2 item).
#
# Usage:  bench/append_trend.sh PR_LABEL [BUILD_DIR]
#
# Runs bench_hotpath from BUILD_DIR (default: build), reduces its JSON
# artifact to the machine-independent ratios plus the headline throughput
# numbers, and appends a single JSON line. Run from the repo root once
# per PR and commit the updated trend.jsonl; absolute timings are kept
# only as context (points come from whatever machine built the PR).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: bench/append_trend.sh PR_LABEL [BUILD_DIR]" >&2
  exit 2
fi
pr_label="$1"
build_dir="${2:-build}"
out="bench/trend.jsonl"
tmp_json="$(mktemp)"
trap 'rm -f "$tmp_json"' EXIT

"$build_dir"/bench_hotpath --json "$tmp_json" >&2

# Multi-process campaign throughput (sharded coordinator at 1/2/4
# workers, byte-identical stores asserted by the bench). Needs matex_cli
# next to the bench; when it is absent the point simply omits the
# campaign metric and check_trend skips it.
campaign_json="$(mktemp)"
trap 'rm -f "$tmp_json" "$campaign_json"' EXIT
if ! "$build_dir"/bench_table3_distributed --campaign-only \
      --json "$campaign_json" >&2; then
  echo "append_trend: campaign leg failed; not appending" >&2
  exit 1
fi

# Gate the fresh measurement against the last committed point BEFORE
# appending (>2x regression on the machine-independent ratios fails and
# nothing is written): the dashboard is also the signal, and a regressed
# point must never become the next comparison baseline.
bench/check_trend.sh --candidate "$tmp_json"

jq -c --arg pr "$pr_label" --arg date "$(date -u +%Y-%m-%d)" \
      --slurpfile camp "$campaign_json" '{
  pr: $pr,
  date: $date,
  n: .mesh.n,
  refactor_speedup: .factorization.refactor_speedup,
  supernode_avg_width: .supernodes.avg_width,
  sparse_rhs_vs_dense_ratio: .solve.sparse_rhs_vs_dense_ratio,
  solves_per_second: .solve.solves_per_second,
  tr_steps_per_second: .transient.tr_steps_per_second,
  arnoldi_step_seconds: .arnoldi.step_seconds_avg,
  allocs_per_step: .arnoldi.allocs_per_step,
  tr_allocs_per_step: .transient.tr_allocs_per_step,
  span_disabled_ns: .obs.span_disabled_ns,
  span_disabled_allocs: .obs.span_disabled_allocs,
  span_enabled_allocs: .obs.span_enabled_allocs,
  traced_tr_overhead_ratio: .obs.traced_tr_overhead_ratio,
  campaign_scenarios_per_second:
    ($camp[0].campaign.campaign_scenarios_per_second // null),
  campaign_scenarios: ($camp[0].campaign.scenarios // null),
  campaign_workers: ($camp[0].campaign.workers // null)
}' "$tmp_json" >> "$out"

tail -1 "$out" >&2
echo "appended trend point for $pr_label to $out" >&2
