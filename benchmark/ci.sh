#!/usr/bin/env bash
# Offline build, the harness's own tests, then one full pass. Fails on a
# failed op, an undeclared or unmeasured metric name, or a failing test.
# (Wiring this into .github/workflows is left to a later change.)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# --release so that the tests share run.sh's build of the dependencies.
cargo test --release --offline --manifest-path "$here/Cargo.toml"

"$here/run.sh" "$@"
