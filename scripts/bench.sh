#!/usr/bin/env bash
# Perf ledger: run the benchmark that BENCHMARK.json declares once per
# workload untraced (profile, analyze, live), plus one traced analyze run,
# and write every run's provenance stamp, operation counts and metrics to
# one JSON file.
#
#   scripts/bench.sh [--seconds S] [--seed N] [--out PATH] [--check PREV]
#
#   --seconds S   seconds per run (default: BENCHMARK.json run_seconds)
#   --seed N      program-order seed passed to every run (default 1)
#   --out PATH    ledger to write (default bench.json)
#   --check PREV  compare the new ledger with an earlier one: name every
#                 end-to-end metric and workload that is worse than in PREV
#                 by more than its BENCHMARK.json bound (a fraction of the
#                 PREV value), and every workload with more failed
#                 operations; exit 1 if there is any
#
# Ledger schema:
#   {"schema": "dsspy-bench-ledger/1", "seed": N, "seconds": S,
#    "runs": [{"workload", "traced", "provenance", "correct", "attempted",
#              "failed", "metrics"}, ...]}
#
# Needs jq. Runs are sequential; compare only ledgers from the same host.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/bench.sh [--seconds S] [--seed N] [--out PATH] [--check PREV]" >&2
    exit 2
}

RUN_SECONDS=""
SEED=1
OUT="bench.json"
PREV=""
while [[ $# -gt 0 ]]; do
    case "$1" in
    --seconds | --seed | --out | --check)
        [[ $# -ge 2 ]] || usage
        case "$1" in
        --seconds) RUN_SECONDS="$2" ;;
        --seed) SEED="$2" ;;
        --out) OUT="$2" ;;
        --check) PREV="$2" ;;
        esac
        shift 2
        ;;
    *) usage ;;
    esac
done
command -v jq >/dev/null || {
    echo "bench: jq is required" >&2
    exit 2
}
[[ -n "$RUN_SECONDS" ]] || RUN_SECONDS="$(jq -r .run_seconds BENCHMARK.json)"
[[ "$RUN_SECONDS" =~ ^[0-9]+$ && "$SEED" =~ ^[0-9]+$ ]] || usage
[[ -z "$PREV" || -r "$PREV" ]] || {
    echo "bench: cannot read $PREV" >&2
    exit 2
}
mapfile -t CMD < <(jq -r '.command[]' BENCHMARK.json)

RUNS="$(mktemp)"
trap 'rm -f "$RUNS"' EXIT

# run WORKLOAD TRACE: one benchmark run. Its stdout ends with the provenance
# line and the result line; both go into the ledger.
run() {
    local out
    echo "bench: $1 (trace $2, ${RUN_SECONDS}s, seed $SEED)" >&2
    out="$("${CMD[@]}" --workload "$1" --seed "$SEED" --seconds "$RUN_SECONDS" --trace "$2")" || {
        echo "bench: the $1 run (trace $2) failed" >&2
        exit 1
    }
    jq -c -n --arg workload "$1" --argjson trace "$2" \
        --argjson stamp "$(tail -n 2 <<<"$out" | head -n 1)" \
        --argjson result "$(tail -n 1 <<<"$out")" \
        '{workload: $workload, traced: ($trace == 1)} + $stamp + $result' >>"$RUNS"
}

for workload in profile analyze live; do
    run "$workload" 0
done
run analyze 1
jq -s --argjson seed "$SEED" --argjson seconds "$RUN_SECONDS" \
    '{schema: "dsspy-bench-ledger/1", seed: $seed, seconds: $seconds, runs: .}' \
    "$RUNS" >"$OUT"
echo "bench: wrote $OUT" >&2

[[ -n "$PREV" ]] || exit 0
worse="$(jq -r --slurpfile prev "$PREV" --slurpfile bench BENCHMARK.json '
    def untraced: .runs | map(select(.traced | not)) | INDEX(.workload);
    ($prev[0] | untraced) as $p
    | untraced as $c
    | ($c | keys | map(select($p[.]))) as $both
    | ([$bench[0].end_to_end[] as $m
        | $both[] as $w
        | $p[$w].metrics[$m.name].value as $old
        | $c[$w].metrics[$m.name].value as $new
        | select($old != null and $new != null)
        | select(if $m.better == "lower"
                 then $new > $old * (1 + $m.bound)
                 else $new < $old * (1 - $m.bound) end)
        | "\($w) \($m.name): \($old) -> \($new) \($m.unit) (bound \($m.bound))"]
      + [$both[] as $w
        | select($c[$w].failed > $p[$w].failed)
        | "\($w) failed operations: \($p[$w].failed) -> \($c[$w].failed)"])
    | .[]' "$OUT")"
if [[ -n "$worse" ]]; then
    echo "bench: worse than $PREV beyond the BENCHMARK.json bounds:" >&2
    echo "$worse" >&2
    exit 1
fi
echo "bench: no end-to-end metric worse than $PREV beyond its bound" >&2
