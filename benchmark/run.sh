#!/usr/bin/env bash
# Build the benchmark in release and run it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
#   benchmark/run.sh --selfcheck [--seed N] [--seconds S]
#   benchmark/run.sh --spec            # print BENCHMARK.json from the catalogue
#
# Without --workload every workload runs, each in a fresh process.
# --trace 0 (default) is the untraced pass: end-to-end metrics.
# --trace 1 is the traced pass: quarter length, spans, layer probes.
# --trace alone runs both passes. Each pass prints
# `workload metric value unit` lines and ends with one JSON result line;
# the exit code is non-zero if any output check failed.
#
# --selfcheck runs the untraced lineup twice on one seed and fails
# unless virtual-clock metrics repeat bit for bit on single-worker
# workloads and the other end-to-end metrics agree within their bounds.
#
# Run from anywhere; nothing is written outside this directory (and
# CARGO_TARGET_DIR, if set). See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workload="" seed=1 seconds="" trace=0 selfcheck=0 spec=0
while (($#)); do
    case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
        if [[ "${2:-}" =~ ^[01]$ ]]; then trace="$2"; shift 2; else trace="0 1"; shift; fi ;;
    --selfcheck) selfcheck=1; shift ;;
    --spec) spec=1; shift ;;
    *) sed -n '2,20p' "${BASH_SOURCE[0]}" >&2; exit 2 ;;
    esac
done

# Cargo's own output goes to stderr; stdout carries only results.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/falcon-benchmark"

if ((spec)); then
    exec "$bin" --spec "${seconds:-12}"
fi

# Run the chosen passes of the chosen workloads; 3 = skipped here.
lineup() {
    local status=0 rc w t
    for w in ${workload:-$("$bin" --list)}; do
        for t in $1; do
            rc=0
            "$bin" --workload "$w" --seed "$seed" ${seconds:+--seconds "$seconds"} \
                --trace "$t" --out "$here/out" || rc=$?
            if ((rc != 0 && rc != 3)); then status=1; fi
        done
    done
    return $status
}

if ((selfcheck)); then
    mkdir -p "$here/out"
    for i in 1 2; do
        lineup 0 >"$here/out/selfcheck_$i.txt" || {
            cat "$here/out/selfcheck_$i.txt"
            echo "selfcheck: lineup $i failed its output checks"
            exit 1
        }
    done
    exec "$bin" --compare "$here/out/selfcheck_1.txt" "$here/out/selfcheck_2.txt"
fi

if [[ -n "$workload" && "$trace" != "0 1" ]]; then
    # One workload, one pass: the exit code and the last line are the
    # process's own.
    exec "$bin" --workload "$workload" --seed "$seed" ${seconds:+--seconds "$seconds"} \
        --trace "$trace" --out "$here/out"
fi
lineup "$trace"
