#!/usr/bin/env bash
# Builds the `asyncmap` CLI and the benchmark harness from source, then runs
# the harness. Run from the repository root:
#
#   bash perfbench/run.sh --workload table5-suite --seed 7 --seconds 45 --trace 0
#
# The last line of standard output is the JSON result; build output goes to
# standard error.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin asyncmap >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/asyncmap-perfbench" \
    --cli "$CARGO_TARGET_DIR/release/asyncmap" \
    --work "$CARGO_TARGET_DIR/perfbench-work" "$@"
