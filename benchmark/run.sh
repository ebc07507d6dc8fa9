#!/usr/bin/env bash
# Build the benchmark from source, offline, and run it.
#
#   benchmark/run.sh --workload <name> --seed <u64> --seconds <n> --trace <0|1>
#       one run; the last stdout line is the result as one JSON object
#   benchmark/run.sh [--seed <u64>] [--seconds <n>] [--repeat]
#       every workload, untraced then traced; --repeat does it twice and
#       holds the second set against the first by the declared bounds
#
# Run it from the repository root or from anywhere: paths are resolved from
# this script. CARGO_TARGET_DIR is honoured; the default is benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's progress goes to stderr, so stdout stays the benchmark's own.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/sqm-benchmark" --out "$here/out" "$@"
