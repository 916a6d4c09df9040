#!/bin/sh
# In-tree smoke of the omu_serve / omu_client / omu_top trio: start the
# service on a Unix socket with an ephemeral /metrics HTTP port, drive it
# with concurrent tenants (insert -> subscribe -> query -> close, the
# client exits nonzero unless every tenant's mirror converged to the
# server's content hash), then scrape and render the live Prometheus
# endpoint. CI's service-smoke job runs the same flow under ASan+UBSan;
# this copy runs as a plain ctest so the pair can't rot between CI runs.
#
#   service_smoke.sh <omu_serve> <omu_client> <omu_top>
set -eu

SERVE="$1"
CLIENT="$2"
TOP="$3"

DIR="$(mktemp -d "${TMPDIR:-/tmp}/omu_service_smoke.XXXXXX")"
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ]; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$DIR"
}
trap cleanup EXIT

"$SERVE" --unix "$DIR/svc.sock" --metrics-port 0 --world-root "$DIR/world" \
  > "$DIR/serve.log" 2>&1 &
SERVE_PID=$!

# Wait for the socket (the server prints "listening" once it is bound).
tries=0
while [ ! -S "$DIR/svc.sock" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "service_smoke: omu_serve never bound its socket" >&2
    cat "$DIR/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done

"$CLIENT" smoke --unix "$DIR/svc.sock" --tenants 4 --scans 12
"$CLIENT" smoke --unix "$DIR/svc.sock" --tenants 2 --scans 8 --backend world
"$CLIENT" smoke --unix "$DIR/svc.sock" --tenants 2 --scans 8 --backend hybrid

# Scrape the live HTTP endpoint the server announced and render it.
METRICS_URL="$(grep -o 'http://[^ ]*' "$DIR/serve.log" | head -1)"
if [ -z "$METRICS_URL" ]; then
  echo "service_smoke: omu_serve never announced a metrics endpoint" >&2
  cat "$DIR/serve.log" >&2
  exit 1
fi
"$TOP" --prometheus "$METRICS_URL"

kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "service_smoke: ok"
