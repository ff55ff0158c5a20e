#!/usr/bin/env bash
# The benchmark's one command: builds rsbench (release, offline), then
# runs it from the repository root with the arguments given.
#
#   benchmark/run.sh [--workload W]... [--seed S] [--seconds T]
#                    [--layers | --trace 0|1] [--quick] [--out DIR]
#   benchmark/run.sh agree A.json B.json
#
# See benchmark/README.md. Build output goes to standard error so the
# last line of standard output stays the result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/rsbench" "$@"
