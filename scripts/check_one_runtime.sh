#!/usr/bin/env bash
# Structural guard for the party runtime (crates/mpc/src/runtime.rs): ONE
# engine over ONE instrumented exchange and ONE run loop, and no library
# code may touch the process-wide panic hook. Fails if
#   * `fn exchange` is defined anywhere but once under crates/mpc/src,
#   * the body of `fn sum_to_receiver` mentions `lagrange`: round 2 is plain
#     masked aggregation of one private vector per party, and the Shamir
#     weights are the caller's (`PartyCtx::lagrange_weight`),
#   * `catch_unwind` appears on more than one line under crates/mpc/src,
#   * a thread is spawned (`thread::spawn`, `thread::scope`, `spawn_scoped`,
#     `Builder::new`) outside its test modules under crates/vfl/src or in
#     crates/serve/src/tenant.rs, or anywhere under crates/mpc/src (test
#     modules included) but runtime.rs: the one party worker and the only
#     party threads, scoped for a one-shot run or resident in a `PartyPool`.
#     A party's arithmetic runs on its own thread,
#   * the deleted per-party batch pool or the deleted plaintext twin of the
#     generic release comes back: `BatchOptions`, `batch_options`,
#     `min_parallel_width`, `sqm_polynomial`, `sqm_monomial`, `SqmParams` or
#     `quantize_matrix` as a whole word under crates/, tests/ or examples/,
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
#   * the deleted trace header comes back: `TraceHeader`, `exchange_stamped`,
#     `BadTraceHeader`, `headers_of` or `stamps_of` as a whole word under
#     crates/, tests/ or examples/ (payloads travel bare),
#   * the deleted causal stamps and send/receive matching come back:
#     `MsgStamp`, `CausalRound`, `record_causal_round`, `link_seq`,
#     `lamport`, `unmatched_sends`, `unmatched_recvs`, `fully_matched`,
#     `lamport_violations`, `CriticalSummary`, `PartyCost`, `MessageDag` or
#     `wall_wait` as a whole word under crates/, tests/ or examples/ (each
#     exchange is one round record; flows are read off the senders'
#     `dests`),
#   * the deleted second and third yardsticks come back (the wall-clock
#     gate crate and its binary, the gate script, the stand-in bench
#     harness under compat/): their names as whole words in Cargo.toml,
#     crates/, compat/, scripts/ or .github/. Wall-clock is measured by
#     benchmark/run.sh; exact counters are pinned by tests/release_counters.rs,
#   * `unsafe` appears as a whole word under crates/, compat/, tests/ or
#     examples/, or a library root (crates/*/src/lib.rs, compat/*/src/lib.rs)
#     lacks `#![forbid(unsafe_code)]`,
#   * the deleted live event ring comes back: the ring type, its phase tag,
#     its capacity option or its drop counter by name (whole words) under
#     crates/, scripts/ or tests/, or a thread spawned (`thread::spawn`,
#     `Builder::new`) in crates/obs/src/live.rs outside its tests — a round
#     is folded into the collector at the call, under one lock,
#   * a second tally of a run's rounds comes back: the deleted trace
#     summary's and phase totals' names, the wall-on-demand switch, or the
#     deleted knobs (`TraceSummary`, `PhaseRow`, `PhaseTotal`,
#     `phase_totals`, `wants_wall`, `trace_event_cap`, `with_stall_min`) as
#     whole words under crates/, tests/ or examples/, or a `struct
#     PartyStats` anywhere there but crates/obs/src (one per-party tally,
#     in `obs::round`, merged once into `RunStats`),
#   * a second serve tracing switch or an observer knob no caller set comes
#     back: `request_tracing`, `dump_all`, `slow_factor`, `slow_min`,
#     `retain_cap`, `history_buckets`, `stall_factor`, `stall_min`,
#     `flight_cap` or `with_flight_cap` as a whole word under crates/,
#     tests/ or examples/ (`ServerConfig::tracing` is the one switch; the
#     span collector and the live collector's caps are constants).
#
# And for the one release path above the engine (crates/vfl, crates/serve),
# again reading each file up to its first `#[cfg(test)]`:
#   * `FieldChoice::for_magnitude` on exactly one line under crates/vfl/src
#     (one place turns a magnitude bound into a field),
#   * no `.run::<` under crates/vfl/src (the panicking engine entry: every
#     protocol core is fallible),
#   * one privacy book: `PrivacyOdometer::new`, `.compose(` or
#     `compose_rounds` under crates/vfl/src, crates/serve/src or
#     crates/obs/src only in crates/obs/src/ledger.rs, which composes once
#     (the client-observed curve; the server-side spend is its odometer's),
#     and `PrivacyLedger::new` there only in vfl's session.rs and serve's
#     tenant.rs,
#   * the deleted second book comes back: `PrivacyAccount`,
#     `budget_consistent_with_ledger`, `with_delta` or `DEFAULT_LEDGER_DELTA`
#     as a whole word under crates/, tests/ or examples/,
#   * at most two `match` on the stream's field enum (counted by their
#     `<Enum>::M61(..) =>` arm) in crates/vfl/src/stream.rs,
#   * no `.open(` / `open_centered` under crates/vfl/src (every release
#     ends in `sum_to_receiver`),
#   * `fn add_gram` defined exactly once under crates/vfl/src (one Gram
#     kernel, fed runs of triangle rows: own blocks and shared rows alike),
#   * the deleted 1x4 Gram tile comes back: `dot4` as a whole word under
#     crates/, tests/ or examples/ (`add_gram` runs on Winograd's pair
#     products, `PrimeField::winograd4`; one tile, not two beside each
#     other),
#   * `fn quantize_columns` defined other than exactly once under
#     crates/vfl/src (one column quantizer behind every input round),
#   * a deleted plaintext twin comes back: `covariance_skellam_plaintext` or
#     `column_sums_skellam_plaintext` as a whole word under crates/, tests/
#     or examples/, or `gradient_sum_skellam_plaintext` there anywhere but
#     its definition (each release has one plaintext path, its bit-exact
#     oracle; that name stays only as a wrapper for outside callers),
#   * one of the ten protocol stream constants on more than one code line
#     (comments aside) under crates/vfl/src: each release module names its
#     streams once, in the helper its protocol body and its oracle share,
#   * `Skellam::new` under crates/vfl/src anywhere but lib.rs (`noisy_sum`),
#     plan.rs and generic.rs: the degree-2 releases draw noise in one
#     program and replay it in one oracle, `ReleasePlan::exact`,
#   * the deleted second per-party program comes back: `gradient_impl` as
#     a whole word under crates/, tests/ or examples/ (the gradient runs
#     `ReleasePlan::party_release`).
#
# And for the sharing kernel: `horner` anywhere in crates/mpc/src/shamir.rs
# outside the body of `fn share_secret` (tests and docs included). The
# scalar `share_secret` is the specification the batch path is held to;
# `share_secrets_batch` and recombination run on `PrimeField::combine`.
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
if find crates/mpc/src -name '*.rs' -print0 | xargs -0 awk '
    /fn sum_to_receiver/ { inside = 1 }
    inside && /lagrange/ { print FILENAME ":" FNR ": " $0; hit = 1 }
    inside && /^    }$/ { inside = 0 }
    END { exit !hit }
  ' >&2; then
  echo "fn sum_to_receiver weights its input again: it sums one private vector per party" >&2
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

spawns='thread::(spawn|scope)|spawn_scoped|Builder::new'
expect "a thread spawned under crates/vfl/src or in crates/serve/src/tenant.rs (party threads are mpc::runtime's)" 0 \
  "$(non_test "$spawns" crates/vfl/src crates/serve/src/tenant.rs)"
expect "a thread started under crates/mpc/src outside runtime.rs (one thread per party)" 0 \
  "$(grep -rnE "$spawns" crates/mpc/src --include='*.rs' | grep -v '^crates/mpc/src/runtime.rs:' || true)"
expect "the per-party batch pool or the plaintext twin sqm_core::mechanism is back" 0 \
  "$(grep -rnwE 'BatchOptions|batch_options|min_parallel_width|sqm_polynomial|sqm_monomial|SqmParams|quantize_matrix' \
    crates tests examples || true)"

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

if grep -rnwE 'TraceHeader|exchange_stamped|BadTraceHeader|headers_of|stamps_of' \
    crates tests examples >&2; then
  echo "the trace header is deleted: one Transport::exchange, payloads travel bare" >&2
  fail=1
fi
expect "the causal stamps or their matching are back (each exchange is one round record; flows are read off the senders' dests)" 0 \
  "$(grep -rnwE 'MsgStamp|CausalRound|record_causal_round|link_seq|lamport|unmatched_sends|unmatched_recvs|fully_matched|lamport_violations|CriticalSummary|PartyCost|MessageDag|wall_wait' \
    crates tests examples || true)"

# Spelled with bracket expressions so this file does not match itself.
expect "a second yardstick is back (benchmark/run.sh times, tests/release_counters.rs pins)" 0 \
  "$(grep -rnwE 'criteri[o]n|sqm[-_]bench|sqm[-_]perf|perf[_]gate' \
    Cargo.toml crates compat scripts .github || true)"

expect "unsafe is back (whole word) under crates/ compat/ tests/ examples/" 0 \
  "$(grep -rnw unsafe crates compat tests examples || true)"
expect "a library root without #![forbid(unsafe_code)]" 0 \
  "$(grep -L '^#!\[forbid(unsafe_code)\]' crates/*/src/lib.rs compat/*/src/lib.rs || true)"
# Spelled with bracket expressions so this file does not match itself.
expect "the live event ring is back (live telemetry folds each round under one lock)" 0 \
  "$(grep -rnwE 'EventRin[g]|PhaseTa[g]|ring_capacit[y]|events_droppe[d]' crates scripts tests || true)"
expect "a second tally of the rounds is back (one PartyStats in obs::round, one merge)" 0 \
  "$(grep -rnwE 'TraceSummary|PhaseRow|PhaseTotal|phase_totals|wants_wall|trace_event_cap|with_stall_min' \
    crates tests examples || true)"
expect "a deleted serve tracing switch or observer knob is back (one switch: ServerConfig::tracing)" 0 \
  "$(grep -rnwE 'request_tracing|dump_all|slow_factor|slow_min|retain_cap|history_buckets|stall_factor|stall_min|flight_cap|with_flight_cap' \
    crates tests examples || true)"
expect "a struct PartyStats outside crates/obs/src" 0 \
  "$(grep -rnw 'struct PartyStats' crates tests examples | grep -v '^crates/obs/src/' || true)"
expect "obs::live spawns a thread of its own again" 0 \
  "$(non_test 'thread::spawn|Builder::new' crates/obs/src/live.rs)"
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
expect "a server-side spend is composed outside the ledger's odometer" 0 \
  "$(non_test 'PrivacyOdometer::new|[.]compose[(]|compose_rounds' crates/vfl/src crates/serve/src \
    crates/obs/src | grep -v '^crates/obs/src/ledger.rs:' || true)"
expect "expected one composition in crates/obs/src/ledger.rs (the client-observed curve)" 1 \
  "$(non_test '[.]compose[(]' crates/obs/src/ledger.rs)"
expect "a privacy book is built outside VflSession and serve::Tenant" 0 \
  "$(non_test 'PrivacyLedger::new' crates/vfl/src crates/serve/src |
    grep -vE '^crates/(vfl/src/session|serve/src/tenant)[.]rs:' || true)"
expect "the deleted second privacy book is back (one book: obs::ledger::PrivacyLedger)" 0 \
  "$(grep -rnwE 'PrivacyAccount|budget_consistent_with_ledger|with_delta|DEFAULT_LEDGER_DELTA' \
    crates tests examples || true)"
expect "more than two matches on the stream's field enum in crates/vfl/src/stream.rs" -2 \
  "$(non_test '^ *[A-Za-z]+::M61[(].*=>' crates/vfl/src/stream.rs)"

expect "a release opens to every party again (.open( / open_centered under crates/vfl/src)" 0 \
  "$(non_test '[.]open[(]|open_centered' crates/vfl/src)"
expect "expected fn add_gram defined exactly once under crates/vfl/src (one Gram kernel)" 1 \
  "$(grep -rnw 'fn add_gram' crates/vfl/src || true)"
expect "the deleted dot4 tile is back (the Gram kernel is PrimeField::winograd4)" 0 \
  "$(grep -rnw 'dot4' crates tests examples || true)"

expect "expected fn quantize_columns defined exactly once under crates/vfl/src (one column quantizer)" 1 \
  "$(grep -rnw 'fn quantize_columns' crates/vfl/src || true)"
word() { printf '(^|[^A-Za-z0-9_])(%s)([^A-Za-z0-9_]|$)' "$1"; }
expect "a deleted plaintext twin is back (each release's plaintext path is its oracle)" 0 \
  "$(non_test "$(word 'covariance_skellam_plaintext|column_sums_skellam_plaintext')" \
    crates tests examples)"
expect "gradient_sum_skellam_plaintext is called or named outside its definition" 0 \
  "$(non_test "$(word gradient_sum_skellam_plaintext)" crates tests examples |
    grep -v '^crates/vfl/src/gradient.rs:[0-9]*: *pub fn gradient_sum_skellam_plaintext<' || true)"
for salt in 0xA11C_E000 0x5E11_A000 0x3EA4_0000 0x5E11_D000 0x96AD_0000 0x5E11_B000 \
  0xC0EF_F1C1 0x9E4E_0000 0x5E11_C000 0xC0EF_0000; do
  expect "stream constant $salt on more than one code line under crates/vfl/src" -1 \
    "$(non_test "$salt" crates/vfl/src | grep -v '^[^:]*:[0-9]*: *//' || true)"
done

expect "Skellam::new under crates/vfl/src outside lib.rs, plan.rs and generic.rs (one noise program, one replay)" 0 \
  "$(non_test 'Skellam::new' crates/vfl/src | grep -vE '^crates/vfl/src/(lib|plan|generic)[.]rs:' || true)"
expect "the deleted second per-party program is back (gradient_impl; the gradient runs ReleasePlan::party_release)" 0 \
  "$(grep -rnw 'gradient_impl' crates tests examples || true)"

expect "horner outside fn share_secret in crates/mpc/src/shamir.rs (batch sharing runs on PrimeField::combine)" 0 \
  "$(awk '
    /fn share_secret[<(]/ { inside = 1 }
    !inside && /horner/ { print FILENAME ":" FNR ": " $0 }
    inside && /^}$/ { inside = 0 }
  ' crates/mpc/src/shamir.rs)"

[ "$fail" -eq 0 ] && echo "one engine, one runtime, one round event, one tally, one release path, one privacy book: ok"
exit "$fail"
