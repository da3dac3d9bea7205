#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 verification gate.
# Usage: ./ci.sh                 (full pipeline)
#        ./ci.sh --lint          (invariant-checker stage only)
#        ./ci.sh --faults        (fault-tolerance stage only)
#        ./ci.sh --transport     (cross-transport equivalence stage only)
#        ./ci.sh --inspect      (run-ledger / inspect CLI stage only)
set -euo pipefail
cd "$(dirname "$0")"

FAULTS_ONLY=0
LINT_ONLY=0
INSPECT_ONLY=0
TRANSPORT_ONLY=0
for arg in "$@"; do
    case "$arg" in
        --faults) FAULTS_ONLY=1 ;;
        --lint) LINT_ONLY=1 ;;
        --inspect) INSPECT_ONLY=1 ;;
        --transport) TRANSPORT_ONLY=1 ;;
        *) echo "unknown argument: $arg (expected --lint, --faults, --transport, or --inspect)" >&2; exit 2 ;;
    esac
done

# Workspace analyzer: the v2 call-graph passes must come back clean —
# transitive panic-freedom / clock / allocation rules over the hot-path
# closure (P01, D02, H01 with root→violation chains) and the per-file
# rules (D01-D03, A01, W01, F01) — modulo the committed, justified
# lint-allow.toml. Fast: runs before the main build. The self-test stage
# exercises the analyzer itself: the per-rule fixture pairs, the ws_*
# fixture workspaces (indirect panics, trait dispatch, aliases, cfg(test)
# masking, stale allowlist entries), and the binary's 0/1/2 exit-code
# matrix. Then every byte golden runs once: each `golden_*` test pins the
# bytes of a frame, payload, checkpoint, ledger record or GoFS metadata
# file under its version constant, and fails on a byte change that came
# without a bump.
lint_stage() {
    echo "==> tempograph-lint: self-test suite (fixtures + exit-code matrix)"
    cargo test -q -p tempograph-lint

    echo "==> tempograph-lint: workspace invariants (transitive P01/D02/H01, D01-D03, A01, W01, F01, U01)"
    cargo run -q -p tempograph-lint

    echo "==> byte goldens: frames, payloads, checkpoints, run records, GoFS metadata (golden_*)"
    cargo test -q --workspace golden_
}

# Fault-tolerance gate over the failures a cluster can suffer: injected
# worker deaths (threads and worker processes), torn checkpoint writes and
# worker-process kills must each recover from the latest checkpoint,
# byte-identical to a clean run. It runs the recovery-equivalence suite
# (fixed seeds baked into the tests), the seeded fault-plan property tests,
# the smoke test asserting the disabled hooks add zero hot-path
# allocations, and a CLI smoke where a worker process dies and its
# relaunched successor restores program state from a checkpoint file. Links
# are not faulted: they deliver in order or fail. The CLI smoke skips
# loudly when loopback sockets are unavailable, as the transport smoke
# does.
faults_stage() {
    echo "==> faults: recovery-equivalence suite (seven programs, 3 and 6 partitions)"
    cargo test -q --test recovery_equivalence

    echo "==> faults: engine fault-plan property tests (PROPTEST_CASES=${PROPTEST_CASES:-64})"
    PROPTEST_CASES="${PROPTEST_CASES:-64}" \
        cargo test -q -p tempograph-engine --test fault_recovery_prop

    echo "==> faults: checkpoint overhead smoke test (disabled hooks must not allocate)"
    cargo test -q --release --test checkpoint_overhead -- --ignored

    echo "==> faults: 2-process recovery smoke via the CLI (TDSP and MEME, a worker process dies)"
    local work
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' RETURN
    cargo build -q --release --bin tempograph
    local tg=target/release/tempograph
    "$tg" generate --out "$work/ds" --preset carn --scale 0.3 \
        --workload tweets --timesteps 6 --partitions 2 >/dev/null
    "$tg" generate --out "$work/roads" --preset carn --scale 0.3 \
        --workload road --timesteps 6 --partitions 2 >/dev/null
    # Checkpoints commit after timesteps 1, 3 and 5; partition 1 dies at
    # superstep 0 of timestep 4, so its relaunched process restores the
    # checkpoint of timestep 3.
    local fired="injected fault: worker for partition 1 killed at timestep 4, superstep 0"
    local run algo ds
    for run in tdsp:roads meme:ds; do
        algo="${run%%:*}"
        ds="${run#*:}"
        if ! "$tg" run --algo "$algo" --data "$work/$ds" --transport tcp-process \
                >/dev/null 2>&1; then
            echo "    NOTICE: tcp-process CLI run failed (loopback sockets" \
                 "unavailable in this sandbox?); skipping $algo recovery smoke"
            continue
        fi
        "$tg" run --algo "$algo" --data "$work/$ds" --transport inprocess \
            > "$work/clean-$algo.txt"
        "$tg" run --algo "$algo" --data "$work/$ds" --transport tcp-process \
            --checkpoint-dir "$work/ckpt-$algo" --checkpoint-every 2 \
            --faults "panic@p1:t4:s0" \
            > "$work/faulted-$algo.txt" 2> "$work/faulted-$algo.err" \
            || { cat "$work/faulted-$algo.err" >&2; echo "FAIL: faulted $algo run did not recover" >&2; exit 1; }
        grep -qF "$fired" "$work/faulted-$algo.err" \
            || { echo "FAIL: the injected $algo fault never fired" >&2; exit 1; }
        # Identical summaries modulo the header, the wall-clock line and the
        # slice-load count: the relaunched workers reload the slices their
        # predecessors had cached.
        sed -e '/^running /d' -e '/^finished in /d' -e '/^slice loads/d' \
            "$work/clean-$algo.txt" > "$work/a.txt"
        sed -e '/^running /d' -e '/^finished in /d' -e '/^slice loads/d' \
            "$work/faulted-$algo.txt" > "$work/b.txt"
        diff -u "$work/a.txt" "$work/b.txt" \
            || { echo "FAIL: recovered tcp-process $algo output differs from in-process" >&2; exit 1; }
        echo "    recovered 2-process $algo smoke OK ($(grep '^emitted values' "$work/b.txt"))"
    done
}

# Transport gate: every algorithm must produce byte-identical results over
# in-process links, a localhost TCP thread mesh, and real spawned worker
# processes (the equivalence suite covers all three plus delivery-order
# probes and telemetry equivalence; no frame is dropped, duplicated or
# reordered on purpose, and the frame-codec fuzzing checks that damaged
# bytes are a typed error, never a panic), no batch may be
# delivered outside the phase it was sent in (the sentinel fence, the same
# on every cluster, that replaced the second per-superstep barrier), and the
# `tempograph` binary must drive a 2-process localhost cluster end-to-end —
# plain and with observability armed (worker shards carried home in the
# Output frames and folded into the coordinator registry). Skips loudly
# when loopback sockets are unavailable in the sandbox (the tests print a
# NOTICE and pass; the CLI smoke is guarded the same way).
transport_stage() {
    echo "==> transport: cross-transport equivalence suite (5 algorithms, 3 and 6 partitions)"
    cargo test -q --test transport_equivalence

    echo "==> transport: phase isolation (every delivery sent in exactly the previous phase; in-process + TCP)"
    cargo test -q -p tempograph-engine --test phase_isolation

    echo "==> transport: frame codec property tests (PROPTEST_CASES=${PROPTEST_CASES:-64})"
    PROPTEST_CASES="${PROPTEST_CASES:-64}" \
        cargo test -q --test frame_codec_prop

    echo "==> transport: 2-process localhost smoke via the CLI (HASH and TDSP)"
    local work
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' RETURN
    cargo build -q --release --bin tempograph
    local tg=target/release/tempograph
    "$tg" generate --out "$work/ds" --preset carn --scale 0.3 \
        --workload tweets --timesteps 6 --partitions 2 >/dev/null
    "$tg" generate --out "$work/roads" --preset carn --scale 0.3 \
        --workload road --timesteps 6 --partitions 2 >/dev/null
    # `emitted values` carries an order-sensitive digest of the result, so
    # the diff also checks the coordinator's merge of the workers' sorted
    # emit runs across a process boundary.
    local run algo ds
    for run in hash:ds tdsp:roads; do
        algo="${run%%:*}"
        ds="${run#*:}"
        "$tg" run --algo "$algo" --data "$work/$ds" --transport inprocess \
            > "$work/inproc-$algo.txt"
        if "$tg" run --algo "$algo" --data "$work/$ds" --transport tcp-process \
                > "$work/tcp-$algo.txt"; then
            # Identical summaries modulo the header (transport tag) and the
            # wall-clock line.
            sed -e '/^running /d' -e '/^finished in /d' "$work/inproc-$algo.txt" > "$work/a.txt"
            sed -e '/^running /d' -e '/^finished in /d' "$work/tcp-$algo.txt" > "$work/b.txt"
            diff -u "$work/a.txt" "$work/b.txt" \
                || { echo "FAIL: tcp-process $algo output differs from in-process" >&2; exit 1; }
            echo "    2-process $algo smoke OK ($(grep '^emitted values' "$work/b.txt"))"
        else
            echo "    NOTICE: tcp-process CLI run failed (loopback sockets" \
                 "unavailable in this sandbox?); skipping $algo smoke"
        fi
    done

    echo "==> transport: 2-process observability smoke (worker shards carried home in Output frames)"
    "$tg" run --algo hash --data "$work/ds" --observe true \
        --transport inprocess > "$work/inproc-obs.txt"
    if "$tg" run --algo hash --data "$work/ds" --observe true \
            --transport tcp-process > "$work/tcp-obs.txt"; then
        sed -e '/^running /d' -e '/^finished in /d' "$work/inproc-obs.txt" > "$work/a-obs.txt"
        sed -e '/^running /d' -e '/^finished in /d' "$work/tcp-obs.txt" > "$work/b-obs.txt"
        diff -u "$work/a-obs.txt" "$work/b-obs.txt" \
            || { echo "FAIL: tcp-process registry differs from in-process" >&2; exit 1; }
        # Coordinator snapshot totals must equal the worker-local sums
        # printed beside them (both lines come out of the same run).
        local loc_loads reg_loads spans
        loc_loads="$(awk -F': *' '/^slice loads/{print $2}' "$work/tcp-obs.txt")"
        reg_loads="$(sed -n 's/^registry.*slice loads \([0-9]*\),.*/\1/p' "$work/tcp-obs.txt")"
        [[ -n "$reg_loads" && "$loc_loads" == "$reg_loads" ]] \
            || { echo "FAIL: registry slice-load total ($reg_loads) != worker-local sum ($loc_loads)" >&2; exit 1; }
        # Histogram content only reaches a tcp-process coordinator in the
        # workers' Output frames — zero observations would mean no shard
        # arrived.
        spans="$(sed -n 's/^registry.*compute spans \([0-9]*\),.*/\1/p' "$work/tcp-obs.txt")"
        [[ -n "$spans" && "$spans" -gt 0 ]] \
            || { echo "FAIL: no compute-span observations in merged registry" >&2; exit 1; }
        echo "    observability smoke OK (slice loads $reg_loads, compute spans $spans)"
    else
        echo "    NOTICE: tcp-process observability run failed (loopback sockets" \
             "unavailable in this sandbox?); skipping observability smoke"
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
    cargo +nightly miri test -q -p tempograph-core wire::tests
    cargo +nightly miri test -q -p tempograph-gofs slice::tests
    cargo +nightly miri test -q -p tempograph-gofs codec::tests
    cargo +nightly miri test -q -p tempograph-core text::tests
}

# Run-ledger gate: the ledger integration tests (stripped-record
# byte-identity, measured-cost rebalance correctness), the release-only
# ablation + zero-alloc smoke tests, and an end-to-end CLI smoke: `inspect
# DIR` must pass a freshly generated store and fail each copy with one byte
# flipped in a slice (its middle, or the last chunk of the largest one), a
# slice cut one byte short, or one byte flipped in meta.bin or in
# partitioning.bin, two seeded
# deterministic runs must record byte-identical
# ledger files, and list/show/diff/rebalance must all work over them.
inspect_stage() {
    echo "==> ledger: integration tests (byte-identity + rebalance correctness)"
    cargo test -q --test ledger_integration

    echo "==> ledger: rebalance ablation (release; observed makespan must drop)"
    cargo test -q --release --test ledger_integration -- --ignored

    echo "==> ledger: attribution overhead smoke test (disabled must not allocate)"
    cargo test -q --release --test ledger_overhead -- --ignored

    echo "==> inspect CLI smoke: generate -> inspect DIR (fresh + corrupt) -> 2x run --ledger -> list/show/diff/rebalance"
    local work
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' RETURN
    cargo build -q --release --bin tempograph
    local tg=target/release/tempograph
    "$tg" generate --out "$work/ds" --preset carn --scale 0.3 \
        --workload tweets --timesteps 8 --partitions 3 >/dev/null
    "$tg" inspect "$work/ds" >/dev/null \
        || { echo "FAIL: inspect rejected a freshly generated store" >&2; exit 1; }
    # One file damaged in each copy of the store: a byte flipped in the
    # middle of the first slice, a byte flipped in the last chunk of the
    # largest slice, the first slice cut one byte short, a byte flipped
    # in the middle of each metadata file.
    local damage victim size at byte
    for damage in slice largest-slice-last-chunk truncated-slice meta.bin partitioning.bin; do
        rm -rf "$work/ds-bad"
        cp -r "$work/ds" "$work/ds-bad"
        case "$damage" in
            slice | truncated-slice)
                victim="$(find "$work/ds-bad" -name '*.slice' | sort | head -n 1)" ;;
            largest-slice-last-chunk)
                victim="$(find "$work/ds-bad" -name '*.slice' -printf '%s %p\n' \
                    | sort -k1,1nr -k2 | head -n 1 | cut -d' ' -f2-)" ;;
            *)
                victim="$work/ds-bad/$damage" ;;
        esac
        size="$(wc -c < "$victim")"
        if [[ "$damage" == truncated-slice ]]; then
            truncate -s $((size - 1)) "$victim"
        else
            at=$((size / 2))
            [[ "$damage" == largest-slice-last-chunk ]] && at=$((size - 1))
            byte="$(od -An -tu1 -j "$at" -N1 "$victim" | tr -d ' ')"
            printf "$(printf '\\%03o' $((byte ^ 255)))" \
                | dd of="$victim" bs=1 seek="$at" conv=notrunc status=none
        fi
        if "$tg" inspect "$work/ds-bad" >/dev/null 2>&1; then
            echo "FAIL: inspect passed a store with a damaged $damage" >&2; exit 1
        fi
    done
    echo "    inspect DIR: fresh store validated; corrupt slices (middle, last chunk, cut short), meta.bin and partitioning.bin refused"
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

# Rustdoc over the first-party crates only (the default members: the root
# package and crates/*): a link to a private item, an ambiguous one, or a
# paper reference like [11] that parses as a link fails the gate. The
# vendored shims stay out — proptest's docs carry an unresolved link.
echo "==> cargo doc -D warnings (first-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release --workspace
cargo test -q --workspace

# The benchmark (perfbench/, its own package and lock file) builds against
# this tree, so a public-API change that breaks it fails here. Building it
# rewrites perfbench/Cargo.lock; the committed file is put back either way.
echo "==> perfbench builds against this tree (perfbench/Cargo.lock restored)"
perfbench_lock="$(mktemp)"
cp perfbench/Cargo.lock "$perfbench_lock"
perfbench_status=0
cargo build -q --release --offline --manifest-path perfbench/Cargo.toml || perfbench_status=$?
cp "$perfbench_lock" perfbench/Cargo.lock
rm -f "$perfbench_lock"
[[ "$perfbench_status" -eq 0 ]] || { echo "FAIL: perfbench does not build" >&2; exit 1; }

# Each workload once at smoke size, untraced: perfbench exits non-zero on a
# failed repetition or a wrong output. Each run's digest is pinned with
# --golden (taken at seed 1, smoke size), so a wrong TDSP label fails here
# too, not only a missing vertex or repetitions that disagree; a run with
# `--golden 0` prints the actual digest. About a second for all four.
echo "==> perfbench smoke: every workload's output digest pinned"
for pinned in tdsp_road:88d8d5c9d627124a tdsp_hashcut_tcp:b56936c40e44c923 \
        hash_tweets:254781fa9f0ae2e5 tdsp_road_ckpt_proc:88d8d5c9d627124a; do
    workload="${pinned%%:*}"
    perfbench/target/release/perfbench --workload "$workload" --size smoke --trace 0 \
        --golden "${pinned##*:}" >/dev/null \
        || { echo "FAIL: perfbench smoke $workload" >&2; exit 1; }
done

echo "==> pregel: engine-hosted vertex programs vs sequential reference (PROPTEST_CASES=${PROPTEST_CASES:-64})"
PROPTEST_CASES="${PROPTEST_CASES:-64}" \
    cargo test -q -p tempograph-pregel --test reference

echo "==> gofs: column-lazy reads, in-place Double cells and text counts on delta records vs written projections and the decoder, corrupt records (PROPTEST_CASES=${PROPTEST_CASES:-64})"
PROPTEST_CASES="${PROPTEST_CASES:-64}" \
    cargo test -q -p tempograph-gofs --test proptest_lazy

echo "==> gofs: template codec vs raw-column oracle, corrupt templates (PROPTEST_CASES=${PROPTEST_CASES:-64})"
PROPTEST_CASES="${PROPTEST_CASES:-64}" \
    cargo test -q -p tempograph-gofs --test proptest_template

echo "==> gofs: slot-per-bin slice cache vs written projections, held instances, one load per (bin, pack) in order (PROPTEST_CASES=${PROPTEST_CASES:-64})"
PROPTEST_CASES="${PROPTEST_CASES:-64}" \
    cargo test -q -p tempograph-gofs --test proptest_cache

echo "==> partition: subgraph discovery vs its definition (PROPTEST_CASES=${PROPTEST_CASES:-64})"
PROPTEST_CASES="${PROPTEST_CASES:-64}" \
    cargo test -q -p tempograph-partition --test proptest_discover

echo "==> algos: TDSP frontier vs sequential reference, fixed and WhileActive arms (WhileActive: no local messages, stops after the last finalization) (PROPTEST_CASES=${PROPTEST_CASES:-64})"
PROPTEST_CASES="${PROPTEST_CASES:-64}" \
    cargo test -q -p tempograph-algos --test tdsp_frontier

echo "==> trace crate under --all-features (deep-validate)"
cargo test -q -p tempograph-trace --all-features

echo "==> metrics overhead smoke test (disabled instruments must not allocate)"
# One at a time: both tests read the same process-wide allocation counter.
cargo test -q --release --test metrics_overhead -- --ignored --test-threads=1

faults_stage

transport_stage

inspect_stage

miri_stage

echo "CI OK"
