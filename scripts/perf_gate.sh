#!/usr/bin/env bash
# Run the deterministic perf suites and gate them against the committed
# baseline (bench/baseline.json).
#
# Usage: scripts/perf_gate.sh [--warn-only] [--suite small|full]
#
#   --warn-only   report wall-clock regressions but do not fail on them
#                 (what CI uses: shared runners are too noisy); a drift in
#                 the deterministic rounds/messages/bytes counters still
#                 fails
#   --suite TIER  workload tier, default "small"
#
# Refresh the baseline after an intentional perf or protocol change:
#   cargo run --release -p sqm-experiments --bin sqm-perf -- --suite small --write-baseline
set -euo pipefail
cd "$(dirname "$0")/.."

SUITE=small
EXTRA=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --warn-only) EXTRA+=(--warn-only) ;;
    --suite)
      shift
      SUITE="$1"
      ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
  shift
done

# Stamp artifacts with the commit under test when git metadata is present.
SQM_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export SQM_COMMIT

cargo run --release -p sqm-experiments --bin sqm-perf -- \
  --suite "$SUITE" --gate --gate-self-test "${EXTRA[@]:-}"
