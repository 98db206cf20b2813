#!/usr/bin/env bash
# CI gate: the tier-1 gate plus the cells tier-1 does not run.
#
#   full        scripts/tier1.sh (which runs the debug test suite), then
#               the whole test suite once more in release, then the docs
#               cell (rustdoc over the workspace with warnings denied, so a
#               broken intra-doc link fails), the one-fan-out cell (no
#               `thread::scope` in non-test code outside
#               crates/parallel/src; it names each offending file), then
#               explicit
#               --threads CLI runs, the bad-input cell (one table of
#               `args -> exit code` rows: malformed numeric values, unknown
#               flags, flags the command's mode does not take, extra
#               positionals, values outside their choices, zero counts
#               (`--requests 0`, `watch --batch 0`, `watch --every 0`,
#               `repro --runs 0`), `--inject-panic` without `--live`, a
#               repro flag no selected artifact reads (`--svg` without
#               `--figure`, `--table 1 --runs 9`) and `--all` with another
#               artifact all exit 2), the
#               capture-write-error cell (`demo /dev/full` exits 1
#               with "cannot write capture"), the corrupt-capture cell (a
#               flipped row byte makes every command that reads the capture
#               exit 1 naming the instance and the checksum), the
#               table4-drift cell (Table
#               IV detection columns identical in 30 runs under two busy
#               loops), the tier1-repeat cell (the debug suites
#               pipeline_end_to_end and logical_time, and dsspy-collect's
#               handoff and backpressure, pass 100 of 100 runs under two
#               busy loops), the closed-pipe cell (`analyze
#               --json | head` and `repro --all | head` exit 0 quietly;
#               usage and read errors
#               into a closed stderr keep exit 2 and 1), the doctor-capture
#               smoke (`doctor` on a plain capture is healthy), the
#               live-scrape smoke
#               (`telemetry serve --live --self-check`) and the follow
#               smoke (`watch --follow`), the perfbench-tests cell (the
#               benchmark's own tests against the changed crates, with
#               `--locked`, so a dependency edit that would rewrite
#               perfbench/Cargo.lock fails), then every Criterion bench once.
#   bench-smoke only the Criterion benches, one pass each (`-- --test`).
#
# Everything runs against the vendored in-tree dependencies; no network.
# A machine-readable summary (schema: DESIGN.md, "ci-summary.json") is
# written to --out; the exit code is 0 iff every cell passed.
#
#   scripts/ci.sh [--mode full|bench-smoke] [--out PATH]
set -uo pipefail # deliberately not -e: later cells still run after a failure
cd "$(dirname "$0")/.."

MODE="full"
OUT="ci-summary.json"
while [[ $# -gt 0 ]]; do
    case "$1" in
    --mode)
        MODE="${2:?--mode needs a value}"
        shift 2
        ;;
    --out)
        OUT="${2:?--out needs a value}"
        shift 2
        ;;
    *)
        echo "usage: scripts/ci.sh [--mode full|bench-smoke] [--out PATH]" >&2
        exit 2
        ;;
    esac
done
case "$MODE" in full | bench-smoke) ;; *)
    echo "ci: unknown mode '$MODE'" >&2
    exit 2
    ;;
esac

CELLS_FILE="$(mktemp)"
LOG_DIR="$(mktemp -d)"
trap 'rm -rf "$CELLS_FILE" "$LOG_DIR"' EXIT
OVERALL=0
STARTED="$(date +%s)"

# One line, JSON-string-safe: escape backslashes and quotes, flatten
# newlines/tabs/CRs.
json_escape() {
    tr '\n\r\t' '   ' | sed -e 's/\\/\\\\/g' -e 's/"/\\"/g'
}

# run_cell NAME EXTRA_JSON_FIELDS CMD...
# Runs CMD, captures its output, appends one JSON object (one per line) to
# CELLS_FILE: {"name":..., EXTRA, "ok":..., "seconds":..., "last_line":...}.
run_cell() {
    local name="$1" extra="$2"
    shift 2
    local log="$LOG_DIR/cell-$name.log" t0 t1 ok last
    echo "==> [$name] $*"
    t0="$(date +%s)"
    if "$@" >"$log" 2>&1; then
        ok=true
    else
        ok=false
        OVERALL=1
        echo "ci: cell '$name' FAILED; last lines:" >&2
        tail -n 20 "$log" >&2
    fi
    t1="$(date +%s)"
    last="$(tail -n 1 "$log" | json_escape)"
    printf '{"name":"%s",%s"ok":%s,"seconds":%s,"last_line":"%s"}\n' \
        "$name" "$extra" "$ok" "$((t1 - t0))" "$last" >>"$CELLS_FILE"
}

if [[ "$MODE" == "full" ]]; then
    run_cell tier1 '"kind":"gate",' ./scripts/tier1.sh
    # tier1 ran the suite in debug; this run catches release-only failures.
    # Width independence is a test of its own (tests/parallel_analysis.rs
    # decodes and analyzes every suite7 capture at 1, 2, 4 and 0 threads).
    run_cell test-release '"kind":"test","profile":"release",' \
        cargo test -q --release
    # Every crate's docs build with rustdoc warnings denied: a doc link to
    # a private or deleted item fails here.
    run_cell docs '"kind":"gate",' \
        env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
    # Parallel work goes through dsspy-parallel's one fan-out: outside
    # crates/parallel/src, no crate's non-test code (a file's lines before
    # its first `#[cfg(test)]`) opens a thread scope of its own.
    run_cell one-fan-out '"kind":"gate",' \
        bash -c '
            set -uo pipefail
            bad=0
            for f in $(find crates/*/src -name "*.rs" -not -path "crates/parallel/src/*" | sort); do
                if awk "/#\[cfg\(test\)\]/ { exit } /thread::scope/ { found = 1 } END { exit !found }" "$f"; then
                    echo "$f: thread::scope in non-test code outside crates/parallel/src"
                    bad=1
                fi
            done
            [[ "$bad" -eq 0 ]] || exit 1
            echo "no thread::scope in non-test code outside crates/parallel/src"
        ' one-fan-out
    # CLI --threads runs + live smokes against the release binary tier1 built.
    SMOKE="$LOG_DIR/ci-smoke.dsspycap"
    run_cell demo-capture '"kind":"smoke",' ./target/release/dsspy demo "$SMOKE"
    for t in 1 2 4; do
        run_cell "analyze-threads$t" \
            "$(printf '"kind":"smoke","threads":%s,' "$t")" \
            ./target/release/dsspy analyze "$SMOKE" --threads "$t"
    done
    # Malformed numeric values, zero counts, unknown flags, flags the
    # command's mode does not take, flags no selected repro artifact reads,
    # extra positionals, enumerated values outside their choices and
    # artifact requests repro would drop or repeat are rejected with usage
    # and exit 2 before any work, never silently replaced by a default or
    # ignored. One row per case: `args -> wanted exit code`, the
    # first word naming the binary and SMOKE standing for the capture.
    run_cell bad-input '"kind":"smoke",' \
        bash -c '
            set -uo pipefail
            smoke="$1" bad=0
            while IFS= read -r row; do
                want="${row##*-> }"
                read -ra argv <<<"${row% -> *}"
                argv=("${argv[@]//SMOKE/$smoke}")
                "./target/release/${argv[0]}" "${argv[@]:1}" >/dev/null 2>&1
                code=$?
                [[ "$code" -eq "$want" ]] || { echo "${argv[*]}: exit $code, want $want"; bad=1; }
            done <<"ROWS"
dsspy analyze SMOKE --threads abc -> 2
dsspy watch --follow --frames x -> 2
dsspy analyze SMOKE --thread 2 -> 2
dsspy watch --follow --window 8 -> 2
dsspy sketch SMOKE --json -> 2
dsspy csv SMOKE nope -> 2
dsspy telemetry SMOKE --format nope -> 2
dsspy demo SMOKE.nope --workload Nope -> 2
dsspy watch --follow --workload Nope -> 2
dsspy watch SMOKE --flight-recorder SMOKE.flight.json -> 2
dsspy analyze SMOKE extra -> 2
dsspy telemetry serve SMOKE --addr 127.0.0.1:0 --requests 0 --self-check -> 2
dsspy demo SMOKE.nope --inject-panic -> 2
repro --table 1 --svg SMOKE.svg -> 2
repro --all --table 4 -> 2
repro --table 1 --runs 9 -> 2
repro --figure 2 --scale full -> 2
repro --speedups --threads 2 -> 2
repro --runs 0 -> 2
dsspy watch SMOKE --batch 0 -> 2
dsspy watch --follow --every 0 -> 2
ROWS
            [[ "$bad" -eq 0 ]] || exit 1
            echo "bad values, zero counts, undeclared or unread flags and positionals, and dropped or repeated artifacts exit 2 with usage"
        ' bad-input "$SMOKE"
    # A save that fails is reported as a write failure with exit 1: /dev/full
    # accepts the open and fails the writes (or the final flush).
    run_cell capture-write-error '"kind":"smoke",' \
        bash -c '
            set -uo pipefail
            err="$(./target/release/dsspy demo /dev/full 2>&1 >/dev/null)"
            code=$?
            [[ "$code" -eq 1 ]] || { echo "demo /dev/full: exit $code, want 1"; exit 1; }
            grep -q "cannot write capture" <<<"$err" ||
                { echo "stderr lacks \"cannot write capture\": $err"; exit 1; }
            echo "demo into a full device exits 1 with \"cannot write capture\""
        ' capture-write-error
    # A flipped byte in a chunk's rows fails the chunk's checksum at load:
    # every command that reads the capture exits 1 naming the instance and
    # the checksum instead of decoding the bytes into other events. The byte flipped is the first row byte of
    # the first non-empty body (after the 20-byte preamble, the JSON header
    # and each body's 8-byte length, then the 12-byte chunk frame).
    CORRUPT="$LOG_DIR/ci-corrupt.dsspycap"
    run_cell corrupt-capture '"kind":"smoke",' \
        bash -c '
            set -uo pipefail
            cap="$1"
            ./target/release/dsspy demo "$cap" >/dev/null || exit 1
            u64_at() { od -An -t u8 -j "$1" -N 8 "$cap" | tr -d " "; }
            off=$((20 + $(u64_at 12)))
            while [[ "$(u64_at "$off")" -eq 0 ]]; do off=$((off + 8)); done
            pos=$((off + 8 + 12))
            byte="$(od -An -t u1 -j "$pos" -N 1 "$cap" | tr -d " ")"
            printf "$(printf "\\%03o" $((byte ^ 1)))" |
                dd of="$cap" bs=1 seek="$pos" conv=notrunc status=none || exit 1
            html="${cap%.dsspycap}.html"
            for cmd in "analyze $cap" "analyze $cap --json" "report $cap --out $html" \
                "chart $cap" "timeline $cap --instance 0" "csv $cap usecases" \
                "watch $cap --batch 256 --frames 4" "doctor $cap"; do
                # Word splitting is wanted: $cmd is the command and its arguments.
                # shellcheck disable=SC2086
                err="$(./target/release/dsspy $cmd 2>&1 >/dev/null)"
                code=$?
                [[ "$code" -eq 1 ]] || { echo "dsspy $cmd: exit $code, want 1: $err"; exit 1; }
                grep -q "instance ds#" <<<"$err" && grep -q "checksum" <<<"$err" ||
                    { echo "dsspy $cmd: stderr names no instance or checksum: $err"; exit 1; }
            done
            echo "a flipped row byte at offset $pos: every command exits 1: $err"
        ' corrupt-capture "$CORRUPT"
    # Event time is the session's logical clock, so CPU contention cannot
    # move a verdict: under two busy loops, 30 test-scale Table IV runs
    # must print identical #DS / Cases / Reduction columns, and the paper's
    # 104 / 24 / 76.92% total.
    run_cell table4-drift '"kind":"smoke",' \
        bash -c '
            set -uo pipefail
            pids=()
            for _ in 1 2; do
                (while :; do :; done) &
                pids+=("$!")
            done
            trap "kill ${pids[*]} 2>/dev/null" EXIT
            columns() {
                ./target/release/repro --table 4 --scale test --runs 1 |
                    grep -oE "[0-9]+ +[0-9]+ +[0-9.]+%" | tr -s " "
            }
            want="$(columns)" || exit 1
            [[ "$(tail -n 1 <<<"$want")" == "104 24 76.92%" ]] ||
                { echo "run 1 totals are not 104 / 24 / 76.92%:"; echo "$want"; exit 1; }
            for run in $(seq 2 30); do
                got="$(columns)" || exit 1
                [[ "$got" == "$want" ]] ||
                    { echo "run $run drifted:"; diff <(echo "$want") <(echo "$got"); exit 1; }
            done
            echo "Table IV #DS / Cases / Reduction identical in 30 of 30 runs under two busy loops"
        ' table4-drift
    # Event order is a per-thread Lamport clock, so how the scheduler
    # interleaves threads cannot move a verdict either: the two debug test
    # suites that record on several threads and pin logical time, and the
    # two dsspy-collect suites that pin the hand-off between producers and
    # the collector (wakes, lag, the cap), run 100 times under two busy
    # loops, and not one run may fail.
    run_cell tier1-repeat '"kind":"test",' \
        bash -c '
            set -uo pipefail
            suites=(--test pipeline_end_to_end --test logical_time)
            collect=(-p dsspy-collect --test handoff --test backpressure)
            cargo test -q --no-run "${suites[@]}" || exit 1
            cargo test -q --no-run "${collect[@]}" || exit 1
            pids=()
            for _ in 1 2; do
                (while :; do :; done) &
                pids+=("$!")
            done
            trap "kill ${pids[*]} 2>/dev/null" EXIT
            failed=0
            for run in $(seq 1 100); do
                if ! out="$(cargo test -q "${suites[@]}" 2>&1 &&
                    cargo test -q "${collect[@]}" 2>&1)"; then
                    failed=$((failed + 1))
                    echo "run $run failed:"
                    grep -E "panicked|FAILED" <<<"$out" | head -n 5
                fi
            done
            [[ "$failed" -eq 0 ]] || { echo "$failed of 100 runs failed"; exit 1; }
            echo "pipeline_end_to_end, logical_time, handoff and backpressure passed 100 of 100 runs under two busy loops"
        ' tier1-repeat
    # A reader that closes the pipe early ends the output quietly: the
    # Gpdotnet report (~97 KB of JSON) overflows the pipe buffer, so
    # `analyze` is still writing when `head` exits; `repro --all` is still
    # computing its next artifact. Exit 0, empty stderr, for both.
    PIPED="$LOG_DIR/ci-pipe.dsspycap"
    run_cell closed-pipe '"kind":"smoke",' \
        bash -c '
            set -uo pipefail
            cap="$1" err="$2"
            ./target/release/dsspy demo "$cap" --workload Gpdotnet >/dev/null || exit 1
            ./target/release/dsspy analyze "$cap" --json 2>"$err" | head -c 1 >/dev/null
            codes=("${PIPESTATUS[@]}")
            [[ "${codes[0]}" -eq 0 ]] || { echo "analyze exit ${codes[0]}, want 0"; cat "$err"; exit 1; }
            [[ ! -s "$err" ]] || { echo "analyze wrote to stderr:"; cat "$err"; exit 1; }
            ./target/release/repro --all 2>"$err" | head -c 1 >/dev/null
            codes=("${PIPESTATUS[@]}")
            [[ "${codes[0]}" -eq 0 ]] || { echo "repro exit ${codes[0]}, want 0"; cat "$err"; exit 1; }
            [[ ! -s "$err" ]] || { echo "repro wrote to stderr:"; cat "$err"; exit 1; }
            # A closed stderr keeps the exit code of the error it could not
            # print (a panic would exit 101).
            ./target/release/repro --table 1 --svg x.svg 2>&1 >/dev/null | head -c 0
            codes=("${PIPESTATUS[@]}")
            [[ "${codes[0]}" -eq 2 ]] || { echo "repro usage error into a closed stderr exit ${codes[0]}, want 2"; exit 1; }
            ./target/release/dsspy analyze 2>&1 | head -c 0
            codes=("${PIPESTATUS[@]}")
            [[ "${codes[0]}" -eq 2 ]] || { echo "dsspy analyze into a closed stderr exit ${codes[0]}, want 2"; exit 1; }
            ./target/release/dsspy analyze missing.dsspycap 2>&1 | head -c 0
            codes=("${PIPESTATUS[@]}")
            [[ "${codes[0]}" -eq 1 ]] || { echo "dsspy analyze missing.dsspycap into a closed stderr exit ${codes[0]}, want 1"; exit 1; }
            echo "analyze --json and repro --all into a closed pipe exit 0 with an empty stderr; errors into a closed stderr keep exit 2 and 1"
        ' closed-pipe "$PIPED" "$LOG_DIR/ci-pipe.err"
    # The scrape endpoint attached to a *running* session: re-collects the
    # capture live, serves a fresh validated exposition per scrape, scrapes
    # itself over TCP, and fails unless the streaming analyzer on the
    # fan-out converges with the post-mortem analysis.
    run_cell live-scrape-smoke '"kind":"smoke",' \
        ./target/release/dsspy telemetry serve "$SMOKE" --live \
        --addr 127.0.0.1:0 --requests 1 --self-check
    # Follow a live workload session through the same attached analyzer.
    run_cell watch-follow-smoke '"kind":"smoke",' \
        ./target/release/dsspy watch --follow --frames 3
    # doctor on a plain capture re-collects it through the live fan-out
    # (bounded replay channel, no pacing) and must find it healthy.
    run_cell doctor-capture '"kind":"smoke",' \
        bash -c '
            set -uo pipefail
            out="$(./target/release/dsspy doctor "$1")" || { echo "doctor exit $?, want 0"; exit 1; }
            grep -q "verdict: healthy" <<<"$out" || { echo "no healthy verdict:"; echo "$out"; exit 1; }
            echo "doctor re-collected the smoke capture: healthy, exit 0"
        ' doctor-capture "$SMOKE"
    # Flight-recorder + doctor smoke: a clean live demo with the recorder
    # armed must produce a dump `doctor` reads back with zero incidents
    # (exit 0) ...
    FLIGHT="$LOG_DIR/ci-flight.json"
    run_cell demo-flight-recorder '"kind":"smoke",' \
        ./target/release/dsspy demo "$SMOKE" --live --flight-recorder "$FLIGHT"
    run_cell doctor-clean '"kind":"smoke",' \
        ./target/release/dsspy doctor "$FLIGHT"
    # ... and the forced-incident run (--inject-panic poisons one fan-out
    # subscriber) must make doctor exit exactly 1 with an UNHEALTHY verdict
    # that names the panicking subscriber.
    run_cell doctor-incident '"kind":"smoke",' \
        bash -c '
            set -uo pipefail
            smoke="$1" flight="$2"
            ./target/release/dsspy demo "$smoke" --live \
                --flight-recorder "$flight" --inject-panic >/dev/null || exit 1
            out="$(./target/release/dsspy doctor "$flight")"
            code=$?
            [[ "$code" -eq 1 ]] || { echo "doctor exit $code, want 1"; exit 1; }
            grep -q "UNHEALTHY" <<<"$out" || { echo "no UNHEALTHY verdict"; exit 1; }
            grep -q "subscriber bomb" <<<"$out" || { echo "panicking subscriber not named"; exit 1; }
            echo "doctor reconstructed the injected incident (exit 1 as required)"
        ' doctor-incident "$SMOKE" "$FLIGHT"
    # The benchmark is a workspace of its own that builds against these
    # crates by path: its tests catch a change to any public API it uses,
    # and `--locked` a dependency change that would rewrite its lock file.
    run_cell perfbench-tests '"kind":"test",' \
        cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml
fi

if [[ "$MODE" == "full" || "$MODE" == "bench-smoke" ]]; then
    # One correctness pass over every Criterion bench (no timing window).
    benches="$(grep -A1 '^\[\[bench\]\]' crates/bench/Cargo.toml |
        sed -n 's/^name = "\(.*\)"/\1/p')"
    for bench in $benches; do
        run_cell "bench-smoke-$bench" '"kind":"bench",' \
            cargo bench -p dsspy-bench --bench "$bench" -- --test
    done
fi

FINISHED="$(date +%s)"
VERSION="$(sed -n 's/^version = "\(.*\)"$/\1/p' Cargo.toml | head -n 1)"
OK_JSON=$([[ "$OVERALL" -eq 0 ]] && echo true || echo false)
{
    printf '{\n'
    printf '  "schema": "dsspy-ci-summary/1",\n'
    printf '  "dsspy_version": "%s",\n' "$VERSION"
    printf '  "mode": "%s",\n' "$MODE"
    printf '  "started_unix": %s,\n' "$STARTED"
    printf '  "finished_unix": %s,\n' "$FINISHED"
    printf '  "ok": %s,\n' "$OK_JSON"
    printf '  "cells": [\n'
    sed -e 's/^/    /' -e '$!s/$/,/' "$CELLS_FILE"
    printf '  ]\n'
    printf '}\n'
} >"$OUT"

echo "ci: mode=$MODE ok=$OK_JSON summary=$OUT"
exit "$OVERALL"
