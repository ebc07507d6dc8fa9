#!/usr/bin/env bash
# Live-telemetry smoke test: start a Table II workload with `--live`,
# fetch `/metrics` and `/snapshot` over HTTP *while the run is in
# progress*, and assert both are non-empty and well-formed. Outputs land
# in results/live_smoke/ so CI can upload them as artifacts.
#
# Usage: scripts/live_smoke.sh [addr]   (default 127.0.0.1:9184)
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${1:-127.0.0.1:9184}"
OUT=results/live_smoke
mkdir -p "$OUT"

# Build up front so the curl-retry window measures the run, not rustc.
cargo build --release -p sqm-experiments

timeout 420 cargo run --release -p sqm-experiments --bin table2_dim_scaling -- \
  --live "$ADDR" >"$OUT/run.log" 2>&1 &
RUN_PID=$!
trap 'kill "$RUN_PID" 2>/dev/null || true' EXIT

# A quick Table II run is under a second of wall on a fast box, so poll
# every 20 ms (up to 120 s) and take both endpoints in the same pass: the
# run must still be serving when the second fetch lands.
rm -f "$OUT/metrics.prom" "$OUT/snapshot.json"
echo "workload pid $RUN_PID; polling http://$ADDR/metrics and /snapshot"
for i in $(seq 1 6000); do
  if ! kill -0 "$RUN_PID" 2>/dev/null; then
    echo "error: workload exited before the endpoint answered" >&2
    cat "$OUT/run.log" >&2
    exit 1
  fi
  if curl -sf "http://$ADDR/metrics" -o "$OUT/metrics.prom" \
      && [ -s "$OUT/metrics.prom" ] \
      && curl -sf "http://$ADDR/snapshot" -o "$OUT/snapshot.json" \
      && [ -s "$OUT/snapshot.json" ]; then
    break
  fi
  sleep 0.02
done
[ -s "$OUT/snapshot.json" ] || { echo "error: /metrics and /snapshot never answered" >&2; exit 1; }

# Well-formedness: Prometheus text exposition with the live family and
# parseable JSON naming the run.
grep -q '^# TYPE sqm_live_runs_started_total counter' "$OUT/metrics.prom"
grep -q '^sqm_live_runs_started_total [0-9]' "$OUT/metrics.prom"
python3 -m json.tool "$OUT/snapshot.json" >/dev/null
grep -q '"runs_started"' "$OUT/snapshot.json"
echo "mid-run /metrics and /snapshot OK:"
grep '^sqm_live_runs_started_total\|^sqm_live_run_in_progress' "$OUT/metrics.prom" || true

wait "$RUN_PID"
STATUS=$?
trap - EXIT
echo "workload finished with status $STATUS"
exit "$STATUS"
