#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 verification gate.
# Usage: ./ci.sh                 (full pipeline)
#        ./ci.sh --lint          (invariant-checker stage only)
#        ./ci.sh --faults        (fault-tolerance stage only)
#        ./ci.sh --transport     (cross-transport equivalence stage only)
#        ./ci.sh --inspect      (run-ledger / inspect CLI stage only)
#        ./ci.sh --bench-report  (regenerate BENCH_tempograph.json + gate)
set -euo pipefail
cd "$(dirname "$0")"

FAULTS_ONLY=0
LINT_ONLY=0
INSPECT_ONLY=0
TRANSPORT_ONLY=0
BENCH_REPORT=0
for arg in "$@"; do
    case "$arg" in
        --faults) FAULTS_ONLY=1 ;;
        --lint) LINT_ONLY=1 ;;
        --inspect) INSPECT_ONLY=1 ;;
        --transport) TRANSPORT_ONLY=1 ;;
        --bench-report) BENCH_REPORT=1 ;;
        *) echo "unknown argument: $arg (expected --lint, --faults, --transport, --inspect, or --bench-report)" >&2; exit 2 ;;
    esac
done

# Workspace analyzer: the v2 call-graph passes must come back clean —
# transitive panic-freedom / clock / allocation rules over the hot-path
# closure (P01, D02, H01 with root→violation chains), the per-file rules
# (D01-D03, A01, W01, F01), and the wire-schema lock against the
# committed schemas/ goldens (W02; drift without a version bump exits 2)
# — modulo the committed, justified lint-allow.toml. Fast: runs before
# the main build. The self-test stage exercises the analyzer itself: the
# per-rule fixture pairs, the ws_* fixture workspaces (indirect panics,
# trait dispatch, aliases, cfg(test) masking, schema drift), and the
# binary's 0/1/2 exit-code matrix.
lint_stage() {
    echo "==> tempograph-lint: self-test suite (fixtures + exit-code matrix)"
    cargo test -q -p tempograph-lint

    echo "==> tempograph-lint: workspace invariants (transitive P01/D02/H01, D01-D03, A01, W01, F01, W02 schema lock)"
    cargo run -q -p tempograph-lint
}

# Fault-tolerance gate: the recovery-equivalence suite (fixed seeds baked
# into the tests), the seeded fault-plan property tests, and the smoke test
# asserting the disabled hooks add zero hot-path allocations.
faults_stage() {
    echo "==> faults: recovery-equivalence suite (all algorithms, 3 and 6 partitions)"
    cargo test -q --test recovery_equivalence

    echo "==> faults: engine fault-plan property tests (PROPTEST_CASES=${PROPTEST_CASES:-64})"
    PROPTEST_CASES="${PROPTEST_CASES:-64}" \
        cargo test -q -p tempograph-engine --test fault_recovery_prop

    echo "==> faults: checkpoint overhead smoke test (disabled hooks must not allocate)"
    cargo test -q --release --test checkpoint_overhead -- --ignored
}

# Transport gate: every algorithm must produce byte-identical results over
# in-process channels, a localhost TCP thread mesh, and real spawned worker
# processes (the equivalence suite covers all three plus delivery-order
# probes, telemetry equivalence, and frame-codec fuzzing), no batch may be
# delivered outside the phase it was sent in (the sentinel/generation fence
# that replaced the second per-superstep barrier), and the
# `tempograph` binary must drive a 2-process localhost cluster end-to-end —
# plain and with observability armed (worker telemetry shards merged into
# the coordinator registry). Skips loudly when loopback
# sockets are unavailable in the sandbox (the tests print a NOTICE and
# pass; the CLI smoke is guarded the same way).
transport_stage() {
    echo "==> transport: cross-transport equivalence suite (5 algorithms, 3 and 6 partitions)"
    cargo test -q --test transport_equivalence

    echo "==> transport: phase isolation (every delivery sent in exactly the previous phase; in-process + TCP)"
    cargo test -q -p tempograph-engine --test phase_isolation

    echo "==> transport: frame codec property tests (PROPTEST_CASES=${PROPTEST_CASES:-64})"
    PROPTEST_CASES="${PROPTEST_CASES:-64}" \
        cargo test -q --test frame_codec_prop

    echo "==> transport: 2-process localhost smoke via the CLI"
    local work
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' RETURN
    cargo build -q --release --bin tempograph
    local tg=target/release/tempograph
    "$tg" generate --out "$work/ds" --preset carn --scale 0.3 \
        --workload tweets --timesteps 6 --partitions 2 >/dev/null
    "$tg" run --algo hash --data "$work/ds" --transport inprocess \
        > "$work/inproc.txt"
    if "$tg" run --algo hash --data "$work/ds" --transport tcp-process \
            > "$work/tcp.txt"; then
        # Identical summaries modulo the header (transport tag) and the
        # wall-clock line.
        sed -e '/^running /d' -e '/^finished in /d' "$work/inproc.txt" > "$work/a.txt"
        sed -e '/^running /d' -e '/^finished in /d' "$work/tcp.txt" > "$work/b.txt"
        diff -u "$work/a.txt" "$work/b.txt" \
            || { echo "FAIL: tcp-process output differs from in-process" >&2; exit 1; }
        echo "    2-process smoke OK"
    else
        echo "    NOTICE: tcp-process CLI run failed (loopback sockets" \
             "unavailable in this sandbox?); skipping smoke"
    fi

    echo "==> transport: 2-process telemetry smoke (worker shards merged at the coordinator)"
    "$tg" run --algo hash --data "$work/ds" --observe true \
        --transport inprocess > "$work/inproc-obs.txt"
    if "$tg" run --algo hash --data "$work/ds" --observe true \
            --transport tcp-process > "$work/tcp-obs.txt"; then
        sed -e '/^running /d' -e '/^finished in /d' "$work/inproc-obs.txt" > "$work/a-obs.txt"
        sed -e '/^running /d' -e '/^finished in /d' "$work/tcp-obs.txt" > "$work/b-obs.txt"
        diff -u "$work/a-obs.txt" "$work/b-obs.txt" \
            || { echo "FAIL: telemetry-merged registry differs from in-process" >&2; exit 1; }
        # Coordinator snapshot totals must equal the worker-local sums
        # printed beside them (both lines come out of the same run).
        local loc_loads reg_loads spans
        loc_loads="$(awk -F': *' '/^slice loads/{print $2}' "$work/tcp-obs.txt")"
        reg_loads="$(sed -n 's/^registry.*slice loads \([0-9]*\),.*/\1/p' "$work/tcp-obs.txt")"
        [[ -n "$reg_loads" && "$loc_loads" == "$reg_loads" ]] \
            || { echo "FAIL: registry slice-load total ($reg_loads) != worker-local sum ($loc_loads)" >&2; exit 1; }
        # Histogram content only reaches a tcp-process coordinator via
        # telemetry frames — zero observations would mean no shard arrived.
        spans="$(sed -n 's/^registry.*compute spans \([0-9]*\),.*/\1/p' "$work/tcp-obs.txt")"
        [[ -n "$spans" && "$spans" -gt 0 ]] \
            || { echo "FAIL: no compute-span observations in merged registry" >&2; exit 1; }
        echo "    telemetry smoke OK (slice loads $reg_loads, compute spans $spans)"
    else
        echo "    NOTICE: tcp-process telemetry run failed (loopback sockets" \
             "unavailable in this sandbox?); skipping telemetry smoke"
    fi
}

# Best-effort: run the wire-codec and GoFS round-trip tests (slice format,
# column walkers, flat text decoder and splice) under miri to catch UB in
# the decode paths. The container may lack the nightly miri component;
# skip loudly rather than fail.
miri_stage() {
    echo "==> miri (best effort): wire + slice codec round-trips, column walkers, text decoder"
    if ! command -v rustup >/dev/null 2>&1; then
        echo "    rustup not installed; skipping miri"
        return 0
    fi
    if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
        echo "    no nightly toolchain; skipping miri"
        return 0
    fi
    if ! rustup component list --toolchain nightly 2>/dev/null \
            | grep -q 'miri.*(installed)'; then
        echo "    miri component not installed on nightly; skipping miri"
        return 0
    fi
    cargo +nightly miri test -q -p tempograph-engine wire::tests
    cargo +nightly miri test -q -p tempograph-gofs slice::tests
    cargo +nightly miri test -q -p tempograph-gofs codec::tests
    cargo +nightly miri test -q -p tempograph-core text::tests
}

# Run-ledger gate: the ledger integration tests (stripped-record
# byte-identity, measured-cost rebalance correctness), the release-only
# ablation + zero-alloc smoke tests, and an end-to-end CLI smoke: two
# seeded deterministic runs must record byte-identical ledger files, and
# list/show/diff/rebalance must all work over them.
inspect_stage() {
    echo "==> ledger: integration tests (byte-identity + rebalance correctness)"
    cargo test -q --test ledger_integration

    echo "==> ledger: rebalance ablation (release; observed makespan must drop)"
    cargo test -q --release --test ledger_integration -- --ignored

    echo "==> ledger: attribution overhead smoke test (disabled must not allocate)"
    cargo test -q --release --test ledger_overhead -- --ignored

    echo "==> inspect CLI smoke: generate -> 2x run --ledger -> list/show/diff/rebalance"
    local work
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' RETURN
    cargo build -q --release --bin tempograph
    local tg=target/release/tempograph
    "$tg" generate --out "$work/ds" --preset carn --scale 0.3 \
        --workload tweets --timesteps 8 --partitions 3 >/dev/null
    "$tg" run --algo hash --data "$work/ds" --ledger "$work/runs-a" \
        --seed 3405691582 --deterministic true >/dev/null
    "$tg" run --algo hash --data "$work/ds" --ledger "$work/runs-b" \
        --seed 3405691582 --deterministic true >/dev/null
    cmp "$work"/runs-a/*.tgrun "$work"/runs-b/*.tgrun \
        || { echo "FAIL: deterministic ledger records differ byte-wise" >&2; exit 1; }
    # The same seeded deterministic run over TCP must record the exact
    # same bytes: its attribution table and counter totals arrive at the
    # coordinator via telemetry frames instead of shared memory.
    if "$tg" run --algo hash --data "$work/ds" --ledger "$work/runs-tcp" \
            --transport tcp --seed 3405691582 --deterministic true >/dev/null; then
        cmp "$work"/runs-b/*.tgrun "$work"/runs-tcp/*.tgrun \
            || { echo "FAIL: tcp ledger record differs byte-wise from in-process" >&2; exit 1; }
        echo "    tcp ledger record byte-identical to in-process"
    else
        echo "    NOTICE: tcp run failed (loopback sockets unavailable" \
             "in this sandbox?); skipping tcp ledger byte-identity"
    fi
    local run
    run="$(basename "$work"/runs-a/*.tgrun .tgrun)"
    "$tg" inspect list --ledger "$work/runs-a" >/dev/null
    "$tg" inspect show "$run" --ledger "$work/runs-a" > "$work/show-a.txt"
    "$tg" inspect show "$run" --ledger "$work/runs-b" > "$work/show-b.txt"
    diff -u "$work/show-a.txt" "$work/show-b.txt" \
        || { echo "FAIL: inspect show is not deterministic" >&2; exit 1; }
    "$tg" inspect show "$run" --ledger "$work/runs-a" --json true > "$work/show-a.json"
    "$tg" inspect show "$run" --ledger "$work/runs-b" --json true > "$work/show-b.json"
    diff -u "$work/show-a.json" "$work/show-b.json" \
        || { echo "FAIL: inspect show --json is not deterministic" >&2; exit 1; }
    cp "$work"/runs-b/*.tgrun "$work/runs-a/other.tgrun"
    "$tg" inspect diff "$run" other --ledger "$work/runs-a" >/dev/null \
        || { echo "FAIL: identical runs must diff clean" >&2; exit 1; }
    "$tg" inspect rebalance "$run" --data "$work/ds" --ledger "$work/runs-a" \
        --cost invocations >/dev/null \
        || { echo "FAIL: inspect rebalance errored" >&2; exit 1; }
    echo "    inspect smoke OK (run $run)"
}

# Bench-report gate: regenerate the committed machine-readable report
# (fixed-seed HASH/MEME/TDSP x 3/6-partition matrix with the metrics
# registry armed), then regression-gate the fresh run against the
# committed baseline. `bench compare` exits 2 when a top-level *_ns
# aggregate grew past +50 % and past the 25 ms noise floor.
bench_report_stage() {
    echo "==> bench report: HASH/MEME/TDSP x {3,6} partitions -> BENCH_tempograph.json.new"
    cargo run -q --release -p tempograph-bench --bin bench -- \
        report --out BENCH_tempograph.json.new
    echo "==> bench report: gate fresh run against committed baseline"
    cargo run -q --release -p tempograph-bench --bin bench -- \
        compare BENCH_tempograph.json BENCH_tempograph.json.new
    mv BENCH_tempograph.json.new BENCH_tempograph.json
    echo "    baseline refreshed: BENCH_tempograph.json (commit if it should stick)"
}

if [[ "$BENCH_REPORT" -eq 1 ]]; then
    bench_report_stage
    echo "CI OK (bench-report)"
    exit 0
fi

if [[ "$LINT_ONLY" -eq 1 ]]; then
    lint_stage
    echo "CI OK (lint)"
    exit 0
fi

if [[ "$FAULTS_ONLY" -eq 1 ]]; then
    faults_stage
    echo "CI OK (faults)"
    exit 0
fi

if [[ "$TRANSPORT_ONLY" -eq 1 ]]; then
    transport_stage
    echo "CI OK (transport)"
    exit 0
fi

if [[ "$INSPECT_ONLY" -eq 1 ]]; then
    inspect_stage
    echo "CI OK (inspect)"
    exit 0
fi

lint_stage

echo "==> cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "    rustfmt not installed; skipping"
fi

echo "==> cargo clippy -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "    clippy not installed; skipping"
fi

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release --workspace
cargo test -q --workspace

echo "==> gofs: column-lazy reads vs written projections, corrupt records (PROPTEST_CASES=${PROPTEST_CASES:-64})"
PROPTEST_CASES="${PROPTEST_CASES:-64}" \
    cargo test -q -p tempograph-gofs --test proptest_lazy

echo "==> algos: TDSP frontier vs sequential reference (PROPTEST_CASES=${PROPTEST_CASES:-64})"
PROPTEST_CASES="${PROPTEST_CASES:-64}" \
    cargo test -q -p tempograph-algos --test tdsp_frontier

echo "==> trace crate under --all-features (deep-validate)"
cargo test -q -p tempograph-trace --all-features

echo "==> trace overhead smoke test (tracing disabled must be ~free)"
cargo test -q --release --test trace_integration -- --ignored

echo "==> metrics overhead smoke test (disabled instruments must not allocate)"
# One at a time: both tests read the same process-wide allocation counter.
cargo test -q --release --test metrics_overhead -- --ignored --test-threads=1

faults_stage

transport_stage

inspect_stage

miri_stage

echo "CI OK"
