#!/usr/bin/env bash
# Structural guard for the party runtime (crates/mpc/src/runtime.rs): ONE
# engine over ONE instrumented exchange and ONE run loop, and no library
# code may touch the process-wide panic hook. Fails if
#   * `fn exchange` is defined anywhere but once under crates/mpc/src,
#   * `catch_unwind` appears on more than one line under crates/mpc/src,
#   * `set_hook` / `take_hook` appears anywhere in a file under crates/*/src,
#     test modules included (unit tests share one process: a swapped hook
#     silences whatever fails beside it), or `panic_any` appears there
#     outside a `#[cfg(test)]` module (test modules close every file here,
#     so each file is read up to its first `#[cfg(test)]`),
#   * the deleted per-element execution mode comes back: `Batching`,
#     `FrameMode`, `PerElement`, `set_frame_mode` or `with_batching` as a
#     whole word under crates/, tests/ or examples/ (`BatchingReport` is not
#     a hit),
#   * the deleted Shamir-mask release comes back: `mask_shares` or
#     `share_all_masked` as a whole word under crates/, tests/ or examples/,
#   * the deleted second engine comes back: `AdditiveEngine`, `AdditiveCtx`,
#     `AdditiveTriple`, `dealer_triples`, `mul_beaver` or
#     `column_sums_skellam_additive` as a whole word under crates/, tests/
#     or examples/,
#   * the deleted second and third yardsticks come back (the wall-clock
#     gate crate and its binary, the gate script, the stand-in bench
#     harness under compat/): their names as whole words in Cargo.toml,
#     crates/, compat/, scripts/ or .github/. Wall-clock is measured by
#     benchmark/run.sh; exact counters are pinned by tests/release_counters.rs.
#
# And for the one release path above the engine (crates/vfl, crates/serve),
# again reading each file up to its first `#[cfg(test)]`:
#   * `FieldChoice::for_magnitude` on exactly one line under crates/vfl/src
#     (one place turns a magnitude bound into a field),
#   * no `.run::<` under crates/vfl/src (the panicking engine entry: every
#     protocol core is fallible),
#   * `PrivacyOdometer::new` / `PrivacyLedger::new` nowhere under
#     crates/serve/src and only in session.rs under crates/vfl/src (one
#     account owns both books),
#   * at most two `match` on the stream's field enum (counted by their
#     `<Enum>::M61(..) =>` arm) in crates/vfl/src/stream.rs,
#   * no `.open(` / `open_centered` under crates/vfl/src (every release
#     ends in `sum_to_receiver`).
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

# non_test PATTERN DIR...: `file:line: text` for every match of the awk
# regex PATTERN in DIR's sources outside their test modules.
non_test() {
  local pattern=$1
  shift
  find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk -v pattern="$pattern" '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && $0 ~ pattern { print FILENAME ":" FNR ": " $0 }
  '
}
# expect WHAT WANT HITS: fail unless HITS has WANT lines (`N`, or `-N` for
# at most N).
expect() {
  local what=$1 want=$2 hits=$3 n
  n=$(printf '%s' "$hits" | grep -c . || true)
  case $want in
    -*) [ "$n" -le "${want#-}" ] && return 0 ;;
    *) [ "$n" -eq "$want" ] && return 0 ;;
  esac
  echo "$what (found $n):" >&2
  echo "$hits" >&2
  fail=1
}

expect "the process-wide panic hook is touched under crates/*/src (tests included)" 0 \
  "$(grep -rnE 'set_hook|take_hook' crates/*/src --include='*.rs' || true)"
expect "panic_any outside #[cfg(test)]" 0 "$(non_test 'panic_any' crates/*/src)"

if grep -rnwE 'Batching|FrameMode|PerElement|set_frame_mode|with_batching|BatchingReport|batching_report' \
    crates tests examples >&2; then
  echo "the per-element mode and its what-if analyzer are deleted: one wire framing, one sharing path" >&2
  fail=1
fi

if grep -rnwE 'mask_shares|share_all_masked' crates tests examples >&2; then
  echo "the Shamir-mask release is deleted: round 2 is PartyCtx::sum_to_receiver" >&2
  fail=1
fi

if grep -rnwE 'AdditiveEngine|AdditiveCtx|AdditiveTriple|dealer_triples|mul_beaver|column_sums_skellam_additive' \
    crates tests examples >&2; then
  echo "the additive engine is deleted: one engine, and a release's masked sum is its additive step" >&2
  fail=1
fi

# Spelled with bracket expressions so this file does not match itself.
expect "a second yardstick is back (benchmark/run.sh times, tests/release_counters.rs pins)" 0 \
  "$(grep -rnwE 'criteri[o]n|sqm[-_]bench|sqm[-_]perf|perf[_]gate' \
    Cargo.toml crates compat scripts .github || true)"

expect "a process global is back in obs::live / obs::prof" 0 \
  "$(non_test '^ *(pub(\\(crate\\))? )?static ' crates/obs/src/live.rs crates/obs/src/prof.rs)"
expect "the party runtime hand-feeds a telemetry API again" 0 \
  "$(non_test 'live::|prof::|metrics::|PartyRecorder' crates/mpc/src/runtime.rs)"
expect "the TCP round path observes for itself again" 0 \
  "$(non_test 'sqm_obs::live|metrics::histogram_record' crates/net/src/tcp.rs)"
expect "transport incidents have a side door again (fn drain_events)" 0 \
  "$(grep -rn 'fn drain_events' crates/net/src || true)"
expect "an observer test serialises on a mutex again" 0 \
  "$(grep -n 'LOCK: Mutex<()>' crates/mpc/tests/live.rs crates/mpc/tests/prof.rs \
    crates/vfl/tests/prof.rs 2>/dev/null || true)"

expect "expected FieldChoice::for_magnitude on exactly one line under crates/vfl/src" 1 \
  "$(non_test 'FieldChoice::for_magnitude' crates/vfl/src)"
expect "the panicking engine entry (.run::<) is back under crates/vfl/src" 0 \
  "$(non_test '[.]run::<' crates/vfl/src)"
expect "a privacy book is built outside vfl::session::PrivacyAccount" 0 \
  "$(non_test 'Privacy(Odometer|Ledger)::new' crates/vfl/src crates/serve/src |
    grep -v '^crates/vfl/src/session.rs:' || true)"
expect "more than two matches on the stream's field enum in crates/vfl/src/stream.rs" -2 \
  "$(non_test '^ *[A-Za-z]+::M61[(].*=>' crates/vfl/src/stream.rs)"

expect "a release opens to every party again (.open( / open_centered under crates/vfl/src)" 0 \
  "$(non_test '[.]open[(]|open_centered' crates/vfl/src)"

[ "$fail" -eq 0 ] && echo "one engine, one runtime, one round event, one release path: ok"
exit "$fail"
