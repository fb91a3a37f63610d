#!/usr/bin/env bash
# Full local gate: formatting, lints, tests, the race and chaos sweeps,
# the serving gate and the falcon-perf regression gate. This is what CI
# runs; keep it green.
#
# There is one cargo feature, pmem-sim's `trace` (the device carries an
# event recorder). falcon-check and falcon-race enable it, so every
# whole-workspace command below builds with the recorder; the one lint
# of the recorder-free build is the leg that lints exactly the crates
# `benchmark/` links.
set -euo pipefail
cd "$(dirname "$0")/.."

# Tunables (the defaults are the gate CI runs):
#   FALCON_CHAOS_ITERS      crash-recover-verify iterations per chaos spec
#   FALCON_PERF_TOL         relative tolerance of the falcon-perf regression gate
CHAOS_ITERS="${FALCON_CHAOS_ITERS:-200}"
PERF_TOL="${FALCON_PERF_TOL:-0}"
if [ "$CHAOS_ITERS" != 200 ]; then
    echo "!! non-default FALCON_CHAOS_ITERS=$CHAOS_ITERS (default 200)"
fi
if [ "$PERF_TOL" != 0 ]; then
    echo "!! non-default FALCON_PERF_TOL=$PERF_TOL (default 0: exact)"
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, recorder on)"
cargo clippy --all-targets -- -D warnings

echo "==> cargo clippy (the benchmark's crates, recorder off)"
# Only normal dependencies of these packages are resolved, and none of
# them enables `trace`: this lints the no-op emission helpers the
# benchmark actually runs.
cargo clippy -p pmem-sim -p falcon-storage -p falcon-index -p falcon-core \
    -p falcon-wl -p falcon-server --lib --bins -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q
# Release: the btree split crash-image sweeps brute-force every cut
# point of a leaf and an inner split and are debug-slow.
cargo test -q --release -p falcon-index

echo "==> race sweep (bounded interleaving explorer + real-thread smoke workloads)"
# Deterministic: every kernel's schedule space is enumerated with
# preemption bounding; a violation prints the exact
# `--repro NAME:SCHEDULE` line that replays it.
cargo run --release -q -p falcon-race

echo "==> miri (optional leg)"
# Interpreted UB detection. Only meaningful on toolchains with the
# miri component; the gate stays green without it but says so loudly.
if cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test -p falcon-race --lib
else
    echo "SKIP (toolchain): cargo +nightly miri not installed"
fi

echo "==> thread sanitizer (optional leg)"
# Real-thread TSan pass over the race-plane tests. Needs nightly with
# rust-src for -Zbuild-std; skipped visibly when unavailable.
if cargo +nightly --version >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q "^rust-src (installed)"; then
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -Zbuild-std \
        --target x86_64-unknown-linux-gnu -p falcon-race
else
    echo "SKIP (toolchain): nightly rust-src for -Zsanitizer=thread not installed"
fi

echo "==> chaos smoke (fixed seed, $CHAOS_ITERS crash-recover-verify iterations per spec, 17 specs)"
# Seeded and deterministic: any violation prints the exact
# `--spec/--seed/--repro SEED:CUT` command that replays it. The last
# spec, falcon-serve, is the serving layer's power-cut oracle: the
# falcon-server serving loop (the GroupCommitter that also serves TCP)
# with half its cuts inside a group-fence bracket, held to
# acked-implies-durable / unacked-implies-atomic / shed-implies-absent
# (DESIGN.md §15).
cargo run --release -q -p falcon-chaos -- --iterations "$CHAOS_ITERS"

echo "==> checkpoint chaos leg (fixed seed, dense ckpt-stress legs)"
# The falcon-ckpt specs again at a different fixed seed with every
# iteration running the checkpoint-stress legs (crash-mid-publish,
# crash-mid-truncation, re-crash during checkpoint recovery, and
# checkpoint-metadata bit-rot), so the epoch-publish atomicity oracle
# gets dense coverage beyond the sampled legs of the main sweep.
cargo run --release -q -p falcon-chaos -- --spec falcon-ckpt --iterations 60 \
    --legs-every 2 --seed 0xCC08

echo "==> serving-layer gate (smoke, overload shed, net faults)"
# Loopback smoke (pipelined mixed batch, graceful drain to an empty
# group-commit queue), overload at 2x the admission cap (typed
# Overloaded sheds, every request answered, zero panics), and a seeded
# sweep of misbehaving clients (reset mid-request, partial-write stall,
# slow-loris, vanish mid-batch). A failure prints the exact
# `falcon_net_chaos --<leg> --seed` line that replays it; the legs SKIP
# visibly where loopback is unavailable. (The serving power-cut oracle
# runs in the chaos sweep above.)
cargo test -q -p falcon-server
cargo run --release -q -p falcon-server --bin falcon_net_chaos

echo "==> falcon-perf regression gate (tolerance ±$PERF_TOL)"
# Rerun the seed-pinned single-worker benchmark lineup and diff it
# against the newest committed baseline; a regressed metric fails the
# gate with a per-metric delta table (see DESIGN.md §13).
BASELINE=$(ls bench/BENCH_*.json 2>/dev/null | sort | tail -1 || true)
if [ -n "$BASELINE" ]; then
    cargo run --release -q -p falcon-bench --bin falcon_perf -- \
        check --against "$BASELINE" --tol "$PERF_TOL"
else
    echo "SKIP (no baseline): commit one with" \
        "'cargo run --release -p falcon-bench --bin falcon_perf --" \
        "emit --label <pr> --out bench/BENCH_<pr>.json'"
fi

echo "All checks passed."
