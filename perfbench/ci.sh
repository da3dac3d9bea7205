#!/usr/bin/env bash
# perfbench's own gate: unit tests (median, quantile, relative difference,
# digest, /proc parsers, BENCHMARK.json agreement) and the smoke run of all
# four workloads, both passes. The root ci.sh does not call this.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release -q
cargo run --offline --release --quiet -- --size smoke >/dev/null
echo "perfbench ci: ok"
