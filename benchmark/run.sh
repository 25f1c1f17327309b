#!/usr/bin/env bash
# Entry point of the benchmark: build (offline, release) and run.
#   run.sh --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
#   run.sh --print-benchmark-json | --smoke | --spread <k> | --repeat <k>
# Builds into $CARGO_TARGET_DIR when the caller sets it, else benchmark/target.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr: the last line of stdout is the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2
export LVRM_BENCH_OUT="$here/out"
exec "$target/release/lvrm-benchmark" "$@"
