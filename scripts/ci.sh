#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite.
#
# Everything resolves offline — external dependencies are local path
# shims under shims/ and Cargo.lock is committed — so this script is
# deterministic on a machine with only the Rust toolchain installed.
#
# Usage: ./scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --release
run cargo test --workspace -q
run cargo bench --no-run

# The trace-analysis example is the simulator's lifecycle trace end to
# end (ring sink, Gantt and queue-depth reconstruction); run it, not
# just compile it.
run cargo run --release -q --example trace_analysis

# Docs gate: rustdoc must build clean (broken intra-doc links and
# malformed doc comments are errors, not warnings).
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Backend × shard sweep: the serve end-to-end suite must hold on both
# wire front-ends (thread-per-connection and the epoll reactor), at one
# engine shard (the bit-identical-to-the-simulator pin) and at multiple
# shards (the router, fan-out, and report merge). The e2e trace's ids
# all hash to shard 0, so every cell of the matrix must replay it
# identically — including the drained lifecycle trace, byte for byte
# (trace_e2e). health_e2e drives the runtime health plane over the
# wire in every cell: heartbeat/stage/reactor sections of `health`,
# and the stage telescope summing to end-to-end latency. net_framing
# replays the shared framing edge-case table over live sockets against
# both backends.
for net in threads reactor; do
    for shards in 1 2 4; do
        echo "==> serve e2e at DVFS_SERVE_NET=$net DVFS_SERVE_SHARDS=$shards"
        DVFS_SERVE_NET="$net" DVFS_SERVE_SHARDS="$shards" cargo test -q --test serve_e2e
        DVFS_SERVE_NET="$net" DVFS_SERVE_SHARDS="$shards" cargo test -q --test trace_e2e
        DVFS_SERVE_NET="$net" DVFS_SERVE_SHARDS="$shards" cargo test -q --test health_e2e
    done
done
run cargo test -q --test net_framing

# Executor conformance: the simulator, the bare wall-clock executor,
# and the worker-backed service (shards 1/2/4) must replay the pinned
# trace bit-identically (dvfs-core's sched::conformance suite).
run cargo test -q --test conformance

# Concurrency stress: burst submitters race the drain loop and a wire
# shutdown on every backend × shard cell, repeatedly — the books must
# balance (admitted == completed across drained rounds, per-shard
# counts summing to round totals) under any interleaving of the
# worker command channels.
for net in threads reactor; do
    for shards in 1 2 4; do
        for rep in 1 2 3; do
            echo "==> concurrency stress at DVFS_SERVE_NET=$net DVFS_SERVE_SHARDS=$shards (rep $rep)"
            DVFS_SERVE_NET="$net" DVFS_SERVE_SHARDS="$shards" cargo test -q --test concurrency_stress -- --ignored
        done
    done
done

# Trace-overhead smoke: the ring sink on the LMC hot path must stay
# within an order of magnitude of running untraced (a miss means the
# record path started allocating or formatting; see dvfs-lint's
# determinism rules over crates/trace/src/{lib,ring}.rs).
run cargo test -q -p dvfs-bench --test trace_overhead -- --ignored

# Health-plane overhead smoke: the same drain workload with per-request
# stage telemetry off and on, back-to-back per rep, best pairwise
# ratio gated at 5% and against the committed ratio in
# BENCH_health_overhead.json, which the run only reads (its own numbers
# go under the target dir). A miss means per-task
# work crept onto the submit or completion hot path (stage records are
# batched per worker round by design).
run cargo test -q -p dvfs-bench --test health_overhead -- --ignored

# Reactor-at-scale smoke: a single epoll reactor holds ~10k idle
# connections while a small active set submits. Gates per-connection
# RSS and p99 submit latency against the committed BENCH_net_10k.json
# (generous bounds — a tripwire for complexity regressions, not a
# benchmark). The committed file is only read; the run's numbers go
# under the target dir.
run cargo test -q -p dvfs-bench --test net_10k -- --ignored

# Parallelism smoke: the same task set drained at 1 shard vs 4 shards.
# On a >=4-core host the 4-shard drain must be at least 2x faster
# (shard workers genuinely run concurrently); on smaller hosts the run
# is informational. Numbers land in BENCH_parallel.json under the
# target dir; the committed file is never rewritten.
run cargo test -q -p dvfs-bench --test parallel_drain -- --ignored

# Rebalancer smoke: a workload pinned to one shard of four, replayed
# with the cross-shard rebalancer off and on. Deterministic (replay
# never reads the wall clock): migrations must happen and the merged
# Eq. 27 cost must beat the skewed run, within a loose factor of the
# committed improvement in BENCH_rebalance.json, which the run only
# reads (its own numbers go under the target dir).
run cargo test -q -p dvfs-bench --test rebalance -- --ignored

# Sanitizer stage (gated, never tier-1): when a nightly toolchain with
# the right components is installed, rerun the concurrency stress under
# ThreadSanitizer and the dvfs-core/dvfs-sim unit tests under Miri.
# Both catch the bug classes dvfs-lint can only approximate statically
# (real data races, real UB). Absent nightly/components the stage skips
# with a visible notice — tier-1 stays stable-toolchain-only by design.
if rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    host_target="$(rustc -vV | sed -n 's/^host: //p')"
    if rustup component list --toolchain nightly 2>/dev/null \
            | grep -q '^rust-src.*(installed)'; then
        echo "==> concurrency stress under ThreadSanitizer (nightly)"
        RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std --target "$host_target" \
            --test concurrency_stress -- --ignored
    else
        echo "==> SKIPPED: ThreadSanitizer (nightly rust-src component not installed)"
    fi
    if rustup component list --toolchain nightly 2>/dev/null \
            | grep -q '^miri.*(installed)'; then
        echo "==> dvfs-core + dvfs-sim unit tests under Miri (nightly)"
        cargo +nightly miri test -p dvfs-core -p dvfs-sim --lib
    else
        echo "==> SKIPPED: Miri (nightly miri component not installed)"
    fi
else
    echo "==> SKIPPED: sanitizer stage (no nightly toolchain installed)"
fi

# Invariant gate: dvfs-lint enforces the contracts no compiler checks —
# determinism (no hash-order iteration / raw wall-clock reads outside
# the serve clock seam), engine ownership (no Mutex<Engine> or retired
# engine-lock helpers outside the worker module — engines are owned by
# their shard worker threads), layering (dvfs-core/dvfs-serve must not reach
# dvfs-sim over normal deps; parsed natively from Cargo.toml, replacing
# the old `cargo tree | grep` function), migration protocol (engine
# steal/inject primitives only via worker commands), wire-path
# panic-freedom, and — via the two-pass workspace symbol table — the
# concurrency contracts: atomics-discipline (Relaxed only on blessed
# advisory sites; cross-module handshakes need Acquire/Release or
# SeqCst), channel-protocol (reply-completeness on worker commands, no
# unbounded channels off the blessed list), reactor-nonblocking (no
# blocking calls in the epoll loop), and unsafe-audit (unsafe confined
# to the syscall boundary, every block `// SAFETY:`-documented).
# See DESIGN.md "Enforced invariants" for the rule list and waiver
# syntax.
run cargo test -p dvfs-lint -q
run cargo run -p dvfs-lint --release -- --deny all

echo "ci: all gates passed"
