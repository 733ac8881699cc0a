#!/usr/bin/env bash
# Build `repro` and the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload <scorecard|traced-faulted|serve|fleet> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p pim-bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --repro "$target/release/repro" "$@"
