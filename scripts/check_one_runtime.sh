#!/usr/bin/env bash
# Structural guard for the party runtime (crates/mpc/src/runtime.rs): the
# engines must keep sharing ONE instrumented exchange and ONE run loop, and
# no library code may touch the process-wide panic hook. Fails if
#   * `fn exchange` is defined anywhere but once under crates/mpc/src,
#   * `catch_unwind` appears on more than one line under crates/mpc/src,
#   * `set_hook` / `take_hook` / `panic_any` appears in crates/*/src outside
#     a `#[cfg(test)]` module (test modules close every file here, so each
#     file is read up to its first `#[cfg(test)]`),
#   * the deleted per-element execution mode comes back: `Batching`,
#     `FrameMode`, `PerElement`, `set_frame_mode` or `with_batching` as a
#     whole word under crates/, tests/ or examples/ (`BatchingReport` is not
#     a hit).
#
# Usage: scripts/check_one_runtime.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
count() { grep -rn "$1" crates/mpc/src --include='*.rs' | wc -l; }

if [ "$(count 'fn exchange')" -ne 1 ]; then
  echo "expected exactly one 'fn exchange' under crates/mpc/src:" >&2
  grep -rn 'fn exchange' crates/mpc/src >&2 || true
  fail=1
fi
if [ "$(count 'catch_unwind')" -ne 1 ]; then
  echo "expected exactly one 'catch_unwind' under crates/mpc/src:" >&2
  grep -rn 'catch_unwind' crates/mpc/src >&2 || true
  fail=1
fi

hooks=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0 }
  /#\[cfg\(test\)\]/ { in_tests = 1 }
  !in_tests && /set_hook|take_hook|panic_any/ { print FILENAME ":" FNR ": " $0 }
')
if [ -n "$hooks" ]; then
  echo "panic-hook / panic_any use outside #[cfg(test)]:" >&2
  echo "$hooks" >&2
  fail=1
fi

if grep -rnwE 'Batching|FrameMode|PerElement|set_frame_mode|with_batching' \
    crates tests examples >&2; then
  echo "the per-element mode is deleted: one wire framing, one sharing path" >&2
  fail=1
fi

[ "$fail" -eq 0 ] && echo "one runtime: ok"
exit "$fail"
