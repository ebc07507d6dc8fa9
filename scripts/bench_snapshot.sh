#!/usr/bin/env bash
# Snapshot the benchmark: one untraced run of each named workload through
# the unmodified benchmark/run.sh (seed 1), written to BENCH_<workload>.json
# in the current directory as
#
#   {"workload": ..., "commit": <git rev-parse HEAD>,
#    "dirty": <true when tracked files differ from that commit>,
#    "tree": <the tree hash of the measured working tree's tracked files>,
#    "nproc": ..., "seconds": <the run window, or null for the benchmark's
#    default>, "run": <the run's last-line JSON>}
#
# A snapshot taken before its change is committed names the parent as
# "commit" with "dirty": true; "tree" then names the code it measured:
# `git rev-parse <commit>^{tree}` of the commit that lands it matches.
#
# Usage: scripts/bench_snapshot.sh [--seconds N] <workload>...
#   e.g. scripts/bench_snapshot.sh cov_wide stream_tcp lr_train cov_clients serve_mix
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

seconds=()
seconds_json=null
if [ "${1:-}" = "--seconds" ]; then
  [ -n "${2:-}" ] || { echo "error: --seconds needs a number" >&2; exit 2; }
  seconds=(--seconds "$2")
  seconds_json="$2"
  shift 2
fi
[ "$#" -gt 0 ] || { echo "usage: $0 [--seconds N] <workload>..." >&2; exit 2; }

commit="$(git -C "$repo" rev-parse HEAD)"
dirty=false
[ -z "$(git -C "$repo" status --porcelain --untracked-files=no)" ] || dirty=true
# `git stash create` records the working tree without touching it; it
# prints nothing when the tree is clean.
stash="$(git -C "$repo" stash create)"
tree="$(git -C "$repo" rev-parse "${stash:-HEAD}^{tree}")"
cores="$(nproc)"

for workload in "$@"; do
  # run.sh's stdout is the benchmark's own; its last line is the result.
  last="$(bash "$repo/benchmark/run.sh" --workload "$workload" --seed 1 \
    "${seconds[@]}" --trace 0 | tail -n 1)"
  case "$last" in
    "{"*"}") ;;
    *) echo "error: $workload: last line is not a JSON object: $last" >&2; exit 1 ;;
  esac
  printf '{"workload": "%s", "commit": "%s", "dirty": %s, "tree": "%s", "nproc": %s, "seconds": %s, "run": %s}\n' \
    "$workload" "$commit" "$dirty" "$tree" "$cores" "$seconds_json" "$last" >"BENCH_$workload.json"
  echo "wrote BENCH_$workload.json" >&2
done
