#!/usr/bin/env bash
# Builds the `car` binary and the benchmark driver from this checkout's
# sources, then runs one workload, for example:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
# Build artifacts, daemon logs, data directories and span dumps all land
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p car-cli --bin car 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$target/release/perfbench" --car "$target/release/car" --out "$target/perfbench" "$@"
