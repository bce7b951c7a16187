#!/usr/bin/env bash
# Gates bench/trend.jsonl: the per-PR performance dashboard data doubles
# as a regression signal. Machine-independent ratios of the newest trend
# point are compared against the previous point and the script fails on a
# >MAX_REGRESSION (default 2x) regression, mirroring the hotpath baseline
# gate; absolute timings and throughputs are never compared.
#
# Usage:
#   bench/check_trend.sh                      # last vs second-to-last line
#   bench/check_trend.sh --candidate HP.json  # reduce a bench_hotpath JSON
#                                             # artifact to a point and gate
#                                             # it against the last line
#   MAX_REGRESSION=1.5 bench/check_trend.sh   # tighter tolerance
#
# Gated metrics (missing on either side => skipped, so old points stay
# comparable as new metrics appear):
#   refactor_speedup                                 -- may not halve
#   sparse_rhs_vs_dense_ratio                        -- may not double
#   allocs_per_step, tr_allocs_per_step              -- may not grow by >1
#   span_disabled_allocs, span_enabled_allocs        -- may not grow by >1
#   traced_tr_overhead_ratio                         -- absolute cap 1.05x
#     (tracing a run may never cost more than 5%, regardless of history)
#   campaign_scenarios_per_second                    -- may not halve
#     (sharded-coordinator end-to-end throughput from
#     bench_table3_distributed --campaign-only; absent on points recorded
#     before the sharding PR and on --candidate hotpath artifacts, and
#     skipped like every other missing metric)
set -euo pipefail

trend="bench/trend.jsonl"
candidate_json=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --candidate)
      candidate_json="$2"
      shift 2
      ;;
    *)
      trend="$1"
      shift
      ;;
  esac
done
max_regression="${MAX_REGRESSION:-2.0}"

if [[ ! -s "$trend" ]]; then
  echo "check_trend: no trend file at $trend" >&2
  exit 2
fi

if [[ -n "$candidate_json" ]]; then
  prev="$(tail -1 "$trend")"
  current="$(jq -c '{
    refactor_speedup: .factorization.refactor_speedup,
    sparse_rhs_vs_dense_ratio: .solve.sparse_rhs_vs_dense_ratio,
    allocs_per_step: .arnoldi.allocs_per_step,
    tr_allocs_per_step: .transient.tr_allocs_per_step,
    span_disabled_allocs: .obs.span_disabled_allocs,
    span_enabled_allocs: .obs.span_enabled_allocs,
    traced_tr_overhead_ratio: .obs.traced_tr_overhead_ratio,
    campaign_scenarios_per_second:
      (.campaign.campaign_scenarios_per_second // null)
  }' "$candidate_json")"
  label="candidate $candidate_json vs last committed point"
else
  if [[ "$(wc -l < "$trend")" -lt 2 ]]; then
    echo "check_trend: fewer than two points in $trend; nothing to gate" >&2
    exit 0
  fi
  prev="$(tail -2 "$trend" | head -1)"
  current="$(tail -1 "$trend")"
  label="last two points of $trend"
fi

echo "check_trend: $label (tolerance ${max_regression}x)" >&2

jq -n -e --argjson prev "$prev" --argjson cur "$current" \
      --argjson tol "$max_regression" '
  def gate_min(key):
    if ($prev[key] != null and $cur[key] != null and
        $cur[key] < $prev[key] / $tol)
    then ["FAIL: \(key) regressed: \($cur[key]) vs \($prev[key])"]
    else [] end;
  def gate_max(key):
    if ($prev[key] != null and $cur[key] != null and
        $cur[key] > $prev[key] * $tol)
    then ["FAIL: \(key) regressed: \($cur[key]) vs \($prev[key])"]
    else [] end;
  def gate_allocs(key):
    if ($prev[key] != null and $cur[key] != null and
        $cur[key] > $prev[key] + 1)
    then ["FAIL: \(key) regressed: \($cur[key]) allocations vs \($prev[key])"]
    else [] end;
  def gate_cap(key; cap):
    if ($cur[key] != null and $cur[key] > cap)
    then ["FAIL: \(key) = \($cur[key]) exceeds the absolute cap \(cap)"]
    else [] end;
  ( gate_min("refactor_speedup")
  + gate_min("campaign_scenarios_per_second")
  + gate_max("sparse_rhs_vs_dense_ratio")
  + gate_allocs("allocs_per_step")
  + gate_allocs("tr_allocs_per_step")
  + gate_allocs("span_disabled_allocs")
  + gate_allocs("span_enabled_allocs")
  + gate_cap("traced_tr_overhead_ratio"; 1.05) ) as $failures
  | if ($failures | length) > 0
    then ($failures | join("\n")) | halt_error(1)
    else "trend gate: ok" end
' >&2
