#!/usr/bin/env bash
# The benchmark's one entry point: builds the benchmark package offline (its
# own workspace, the root release profile copied) and runs it from the root of
# the checkout. See benchmark/README.md.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#   benchmark/run.sh --compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/swarm-benchmark" "$@"
