#!/usr/bin/env bash
# Run `cargo test ARGS...` and fail when no test ran. A name filter that
# matches nothing (a misspelling, a renamed test) makes cargo report
# `0 passed` in every binary and exit 0; this turns that into a failure.
#
# Usage: scripts/cargo_test_filtered.sh -p sqm-mpc chacha -- --nocapture
set -euo pipefail

log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' "$log"; then
  echo "::error::cargo test $* selected no test" >&2
  exit 1
fi
