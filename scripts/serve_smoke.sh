#!/usr/bin/env bash
# Serving smoke test: start `sqm-serve` (multi-tenant endpoint + seeded
# closed-loop load with request tracing on), curl `/metrics` and `/status`
# *while the server is up*, and assert the run produced at least one
# enforced budget refusal, per-tenant request-duration samples, the
# deterministic slow-request dump and the HTML report with the "Serving
# SLO" section. Outputs land in results/serve_smoke/ so CI can upload them
# as artifacts.
#
# Usage: scripts/serve_smoke.sh [addr]   (default 127.0.0.1:9190)
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${1:-127.0.0.1:9190}"
OUT=results/serve_smoke
mkdir -p "$OUT"
# The report is the "load finished" signal below: never read a stale one.
rm -f "$OUT/serve_report.html"

# Build up front so the curl-retry window measures the run, not rustc.
cargo build --release -p sqm-experiments --bin sqm-serve

timeout 420 cargo run --release -p sqm-experiments --bin sqm-serve -- \
  --addr "$ADDR" --hold-secs 45 --out "$OUT" >"$OUT/run.log" 2>&1 &
RUN_PID=$!
trap 'kill "$RUN_PID" 2>/dev/null || true' EXIT

echo "sqm-serve pid $RUN_PID; polling http://$ADDR/metrics"
for i in $(seq 1 120); do
  if ! kill -0 "$RUN_PID" 2>/dev/null; then
    echo "error: sqm-serve exited before the endpoint answered" >&2
    cat "$OUT/run.log" >&2
    exit 1
  fi
  # The refusal counter appears once the load run inside the binary has
  # hit a tenant's budget; keep polling until it does.
  if curl -sf "http://$ADDR/metrics" -o "$OUT/metrics.prom" \
      && grep -q '^sqm_serve_budget_refusals [1-9]' "$OUT/metrics.prom"; then
    break
  fi
  sleep 1
done

# The budget gate must have refused at least one release, and the
# scheduler counters must be present alongside it.
grep -q '^sqm_serve_budget_refusals [1-9]' "$OUT/metrics.prom" \
  || { echo "error: no budget refusal in /metrics" >&2; cat "$OUT/run.log" >&2; exit 1; }
grep -q '^sqm_serve_releases_admitted [1-9]' "$OUT/metrics.prom"

curl -sf "http://$ADDR/status" -o "$OUT/status.json"
python3 -m json.tool "$OUT/status.json" >/dev/null
grep -q '"tenants"' "$OUT/status.json"

# Request tracing: the load ran with tracing on and its artifacts are
# written before the hold window, so while the server is still up every
# tenant's request-duration summary must carry samples, and the span
# collector must have written the deterministic request log plus the SLO
# report (the report is written last: wait for it).
for i in $(seq 1 60); do
  [ -s "$OUT/serve_report.html" ] && break
  sleep 1
done
curl -sf "http://$ADDR/metrics" -o "$OUT/metrics.prom"
for t in 0 1 2; do
  grep -q "^sqm_serve_request_duration_ns_load_${t}_count [1-9]" "$OUT/metrics.prom" \
    || { echo "error: no request-duration samples for tenant load-$t" >&2
         grep '^sqm_serve_' "$OUT/metrics.prom" >&2 || true; exit 1; }
done
# Smoke seed is 20250808, so the pinned-zero-threshold dump (the full
# deterministic request log) is slowreq_20250808.jsonl.
[ -s "$OUT/slowreq_20250808.jsonl" ] \
  || { echo "error: missing slowreq_20250808.jsonl" >&2; exit 1; }
python3 -c 'import json,sys; [json.loads(l) for l in open(sys.argv[1])]' \
  "$OUT/slowreq_20250808.jsonl"
grep -q 'Serving SLO' "$OUT/serve_report.html"

echo "mid-run /metrics, /status and tracing artifacts OK:"
grep '^sqm_serve_' "$OUT/metrics.prom" || true

# Done probing; end the hold window early and collect the exit status.
kill "$RUN_PID" 2>/dev/null || true
wait "$RUN_PID" && STATUS=$? || STATUS=$?
trap - EXIT
# 143 = terminated by our own SIGTERM during the hold window: success.
if [ "$STATUS" -ne 0 ] && [ "$STATUS" -ne 143 ]; then
  echo "sqm-serve finished with unexpected status $STATUS" >&2
  cat "$OUT/run.log" >&2
  exit "$STATUS"
fi
echo "sqm-serve smoke OK (status $STATUS)"
