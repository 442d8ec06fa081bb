#!/usr/bin/env sh
# End-to-end HTTP smoke test: build neogeod, start it durable (-wal +
# -data-dir), submit one report and one question over the API, and
# assert the answer names the hotel the report was about. Then the
# crash-recovery leg: checkpoint over the admin endpoint, submit one
# more report (acknowledged after the checkpoint), SIGKILL the daemon,
# restart it against the same WAL and data directory, and assert the
# pre-crash knowledge — both the checkpointed and the replayed half —
# still answers. Exercises the full submit -> background drain -> ask ->
# stats -> checkpoint -> crash -> recover path a deployment depends on.
# The hot-read-path legs then assert the answer cache serves a repeated
# question (hit counter advances on /metrics) and that a standing query
# registered over /v1/subscribe streams a matching report as an SSE
# event end to end. The tracing legs drive the span layer: an explained
# ask returns its own stage breakdown, a request kept by the slow
# threshold (forced low via -trace-slow) is fetchable by its
# X-Request-Id at /v1/traces/{id}, and the flight-recorder view serves
# on the debug listener only.
set -eu

echo "== preflight: static analysis (scripts/lint.sh)"
sh "$(dirname "$0")/lint.sh"

ADDR="127.0.0.1:${SMOKE_PORT:-8765}"
BASE="http://$ADDR"
DEBUG_ADDR="127.0.0.1:${SMOKE_DEBUG_PORT:-8766}"
DEBUG_BASE="http://$DEBUG_ADDR"
BIN="$(mktemp -d)/neogeod"
STATE="$(mktemp -d)"
WAL="$STATE/queue.wal"
DATA="$STATE/data"

go build -o "$BIN" ./cmd/neogeod

start_daemon() {
  # -workers 1 keeps drains in queue order so record IDs are stable
  # across crash-replay restarts — the feedback leg rejects a record by
  # ID and asserts the effect survives a second SIGKILL.
  # -trace-slow 1us marks every request slow, so the tracing legs
  # below can fetch an ordinary (non-explain) request's trace by ID.
  "$BIN" -trace-slow 1us -addr "$ADDR" -debug-addr "$DEBUG_ADDR" -wal "$WAL" -data-dir "$DATA" -shards 2 -workers 1 -drain-interval 50ms -answer-cache 64 &
  PID=$!
}

# acked_total reads the queue's acknowledged-message counter off the
# Prometheus exposition (0 when the series does not exist yet).
acked_total() {
  curl -fsS "$BASE/metrics" | awk 'BEGIN {v = 0} $1 == "neogeo_mq_acked_total" {v = int($2)} END {print v}'
}

wait_healthy() {
  i=0
  until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || { echo "neogeod never became healthy" >&2; exit 1; }
    sleep 0.1
  done
}

wait_hotels() {
  want=$1
  i=0
  until curl -fsS "$BASE/v1/stats" | grep -q "\"Hotels\": $want"; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || { echo "report never integrated:" >&2; curl -fsS "$BASE/v1/stats" >&2; exit 1; }
    sleep 0.1
  done
}

start_daemon
trap 'kill "$PID" 2>/dev/null || true' EXIT
wait_healthy

echo "== submit one report"
SUBMIT=$(curl -fsS -X POST "$BASE/v1/messages" \
  -H 'Content-Type: application/json' \
  -d '{"text":"loved the Axel Hotel in Berlin, great stay","source":"alice"}')
echo "$SUBMIT"
echo "$SUBMIT" | grep -q '"status": "queued"' || { echo "submit not acknowledged" >&2; exit 1; }

echo "== wait for the drain loop to integrate it"
wait_hotels 1
curl -fsS "$BASE/v1/stats"

echo "== ask the question"
ANSWER=$(curl -fsS -X POST "$BASE/v1/ask" \
  -H 'Content-Type: application/json' \
  -d '{"question":"can anyone recommend a good hotel in Berlin?","source":"bob"}')
echo "$ANSWER"
echo "$ANSWER" | grep -qi "axel hotel" || { echo "answer does not name the reported hotel" >&2; exit 1; }

echo "== scrape /metrics: pipeline families present after traffic"
METRICS=$(curl -fsS "$BASE/metrics")
for fam in neogeo_mq_enqueued_total neogeo_mq_acked_total neogeo_pipeline_stage_seconds \
  neogeo_pipeline_transit_seconds neogeo_ask_seconds neogeo_http_requests_total \
  neogeo_http_request_seconds neogeo_mq_pending; do
  echo "$METRICS" | grep -q "^# TYPE $fam" || { echo "metrics family $fam missing" >&2; exit 1; }
done
ACKED1=$(acked_total)
[ "$ACKED1" -ge 1 ] || { echo "no acknowledged messages recorded in metrics" >&2; exit 1; }

echo "== X-Request-Id round-trip on the public surface"
curl -fsS -D - -o /dev/null -H 'X-Request-Id: smoke-trace-1' "$BASE/healthz" |
  grep -qi '^x-request-id: smoke-trace-1' || { echo "request id not echoed" >&2; exit 1; }

echo "== debug listener: metrics and pprof, off the public mux"
curl -fsS "$DEBUG_BASE/metrics" | grep -q '^# TYPE neogeo_mq_enqueued_total' ||
  { echo "debug listener does not serve metrics" >&2; exit 1; }
curl -fsS "$DEBUG_BASE/debug/pprof/cmdline" >/dev/null || { echo "debug listener does not serve pprof" >&2; exit 1; }
if curl -fsS "$BASE/debug/pprof/cmdline" >/dev/null 2>&1; then
  echo "pprof leaked onto the public mux" >&2; exit 1
fi

echo "== explain ask: the answer carries its own span breakdown"
EXPLAIN=$(curl -fsS -X POST "$BASE/v1/ask" \
  -H 'Content-Type: application/json' \
  -d '{"question":"can anyone recommend a good hotel in Berlin?","source":"bob","explain":true}')
echo "$EXPLAIN" | grep -q '"trace"' || { echo "explain response has no trace" >&2; exit 1; }
echo "$EXPLAIN" | grep -q '"ask_explain"' || { echo "explain breakdown missing its root span" >&2; exit 1; }
# The same question was asked above, so this ride goes through the
# answer cache — the breakdown shows the ask stage and its cache lookup.
for span in '"ask"' '"cache_lookup"'; do
  echo "$EXPLAIN" | grep -q "\"name\": $span" || { echo "explain breakdown missing stage span $span" >&2; exit 1; }
done
echo "$EXPLAIN" | grep -qi "axel hotel" || { echo "explained answer lost the answer itself" >&2; exit 1; }

echo "== /metrics format negotiation: classic scrape stays exemplar-free, OpenMetrics carries them"
# The explain ask above stored an exemplar on the ask histogram; the
# classic 0.0.4 exposition must never show it (its grammar rejects
# tokens after the sample value), while an OpenMetrics Accept header
# switches to the exemplar-bearing, # EOF-terminated exposition.
CLASSIC=$(curl -fsS "$BASE/metrics")
if echo "$CLASSIC" | grep -q ' # {trace_id='; then
  echo "classic text exposition leaked an exemplar" >&2; exit 1
fi
OM=$(curl -fsS -H 'Accept: application/openmetrics-text; version=1.0.0' "$BASE/metrics")
echo "$OM" | grep -q ' # {trace_id=' || { echo "OpenMetrics exposition has no exemplar" >&2; exit 1; }
echo "$OM" | tail -1 | grep -q '^# EOF' || { echo "OpenMetrics exposition not terminated by # EOF" >&2; exit 1; }

echo "== slow trace kept by the recorder and fetchable by request ID"
curl -fsS -X POST "$BASE/v1/ask" \
  -H 'Content-Type: application/json' \
  -H 'X-Request-Id: smoke-slow-1' \
  -d '{"question":"can anyone recommend a good hotel in Berlin?","source":"bob"}' >/dev/null
# The root span completes just after the response is written, so give
# the recorder a beat before declaring the trace lost.
TRACE=""
for _ in $(seq 1 20); do
  TRACE=$(curl -fsS "$BASE/v1/traces/smoke-slow-1" 2>/dev/null) && break
  sleep 0.1
done
echo "$TRACE" | grep -q '"trace_id": "smoke-slow-1"' || { echo "trace not fetchable by ID" >&2; exit 1; }
echo "$TRACE" | grep -q '"http_request"' || { echo "trace missing the middleware root span" >&2; exit 1; }
if curl -fsS "$BASE/v1/traces/no-such-trace" >/dev/null 2>&1; then
  echo "unknown trace ID did not 404" >&2; exit 1
fi

echo "== flight-recorder view on the debug listener, off the public mux"
curl -fsS "$DEBUG_BASE/debug/traces" | grep -q 'flight recorder' ||
  { echo "debug listener does not serve /debug/traces" >&2; exit 1; }
curl -fsS "$DEBUG_BASE/debug/traces?format=json" | grep -q '"enabled": true' ||
  { echo "/debug/traces JSON view broken" >&2; exit 1; }
if curl -fsS "$BASE/debug/traces" >/dev/null 2>&1; then
  echo "/debug/traces leaked onto the public mux" >&2; exit 1
fi

echo "== checkpoint over the admin endpoint"
CKPT=$(curl -fsS -X POST "$BASE/v1/checkpoint")
echo "$CKPT"
echo "$CKPT" | grep -q '"status": "written"' || { echo "checkpoint not written" >&2; exit 1; }

echo "== submit a second report, acknowledged after the checkpoint"
curl -fsS -X POST "$BASE/v1/messages" \
  -H 'Content-Type: application/json' \
  -d '{"text":"very impressed by the Movenpick Hotel in Berlin, well done","source":"carol"}' >/dev/null
wait_hotels 2

echo "== acked counter advanced with the second report"
ACKED2=$(acked_total)
[ "$ACKED2" -gt "$ACKED1" ] || { echo "acked counter did not advance ($ACKED1 -> $ACKED2)" >&2; exit 1; }

echo "== SIGKILL the daemon (no graceful shutdown, no final checkpoint)"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

echo "== restart against the same WAL and data directory"
start_daemon
trap 'kill "$PID" 2>/dev/null || true' EXIT
wait_healthy

echo "== the checkpointed report and the WAL-replayed one both recovered"
wait_hotels 2

echo "== metrics recording resumed after the crash restart"
[ "$(acked_total)" -ge 1 ] || { echo "no acks recorded after restart (replay drain should ack)" >&2; exit 1; }
curl -fsS "$BASE/v1/stats"
curl -fsS "$BASE/v1/stats" | grep -q '"enabled": true' || { echo "durability not reported in stats" >&2; exit 1; }

ANSWER=$(curl -fsS -X POST "$BASE/v1/ask" \
  -H 'Content-Type: application/json' \
  -d '{"question":"can anyone recommend a good hotel in Berlin?","source":"bob"}')
echo "$ANSWER"
echo "$ANSWER" | grep -qi "axel hotel" || { echo "checkpointed knowledge lost after crash" >&2; exit 1; }
echo "$ANSWER" | grep -qi "movenpick" || { echo "WAL-replayed knowledge lost after crash" >&2; exit 1; }

echo "== feedback round-trip: two tied reports, reject the leader"
curl -fsS -X POST "$BASE/v1/messages" \
  -H 'Content-Type: application/json' \
  -d '{"text":"wonderful stay at the Hotel Kilo in Paris, lovely place","source":"dave"}' >/dev/null
curl -fsS -X POST "$BASE/v1/messages" \
  -H 'Content-Type: application/json' \
  -d '{"text":"wonderful stay at the Hotel Lima in Paris, lovely place","source":"erin"}' >/dev/null
wait_hotels 4

first_paris_hotel() {
  curl -fsS -X POST "$BASE/v1/ask" \
    -H 'Content-Type: application/json' \
    -d '{"question":"can anyone recommend a good hotel in Paris?","source":"bob"}' |
    grep -o 'Hotel Kilo\|Hotel Lima' | head -1
}

ANSWER=$(curl -fsS -X POST "$BASE/v1/ask" \
  -H 'Content-Type: application/json' \
  -d '{"question":"can anyone recommend a good hotel in Paris?","source":"bob"}')
echo "$ANSWER"
[ "$(first_paris_hotel)" = "Hotel Kilo" ] || { echo "expected Hotel Kilo to lead the tied ranking" >&2; exit 1; }
TOP_ID=$(echo "$ANSWER" | grep -o '"id": [0-9]*' | head -1 | grep -o '[0-9]*')

echo "== reject record $TOP_ID over /v1/feedback"
FB=$(curl -fsS -X POST "$BASE/v1/feedback" \
  -H 'Content-Type: application/json' \
  -d "{\"record_id\":$TOP_ID,\"verdict\":\"reject\",\"source\":\"bob\"}")
echo "$FB"
echo "$FB" | grep -q '"status": "accepted"' || { echo "feedback not accepted" >&2; exit 1; }

echo "== wait for the background loop to apply the verdict"
i=0
until curl -fsS "$BASE/v1/stats" | grep -q '"rejected": 1'; do
  i=$((i + 1))
  [ "$i" -lt 100 ] || { echo "verdict never applied:" >&2; curl -fsS "$BASE/v1/stats" >&2; exit 1; }
  sleep 0.1
done
[ "$(first_paris_hotel)" = "Hotel Lima" ] || { echo "reject did not change the ranking" >&2; exit 1; }
echo "== ranking flipped to Hotel Lima"

echo "== SIGKILL again: the applied verdict must survive via ledger replay"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
start_daemon
trap 'kill "$PID" 2>/dev/null || true' EXIT
wait_healthy
i=0
until [ "$(first_paris_hotel 2>/dev/null || true)" = "Hotel Lima" ]; do
  i=$((i + 1))
  [ "$i" -lt 100 ] || { echo "feedback effect lost after crash:" >&2; curl -fsS "$BASE/v1/stats" >&2; exit 1; }
  sleep 0.1
done
echo "== feedback survived the crash"

echo "== answer cache: a repeated question is served from the cache"
cache_hits() {
  curl -fsS "$BASE/metrics" | awk 'BEGIN {v = 0} $1 == "neogeo_cache_hits_total" {v = int($2)} END {print v}'
}
HITS0=$(cache_hits)
curl -fsS -X POST "$BASE/v1/ask" \
  -H 'Content-Type: application/json' \
  -d '{"question":"can anyone recommend a good hotel in Berlin?","source":"bob"}' >/dev/null
curl -fsS -X POST "$BASE/v1/ask" \
  -H 'Content-Type: application/json' \
  -d '{"question":"can anyone recommend a good hotel in Berlin?","source":"bob"}' >/dev/null
HITS1=$(cache_hits)
[ "$HITS1" -gt "$HITS0" ] || { echo "cache hit counter did not advance ($HITS0 -> $HITS1)" >&2; exit 1; }
curl -fsS "$BASE/v1/stats" | grep -q '"enabled": true' || { echo "cache not reported in stats" >&2; exit 1; }
echo "== cache hits advanced $HITS0 -> $HITS1"

echo "== standing query: subscribe, stream, and watch a matching write arrive"
SUB=$(curl -fsS -X POST "$BASE/v1/subscribe" \
  -H 'Content-Type: application/json' \
  -d '{"collection":"Hotels","key":"Hotel Sierra"}')
echo "$SUB"
SUB_ID=$(echo "$SUB" | grep -o '"id": "[^"]*"' | head -1 | sed 's/.*"id": "//;s/"$//')
[ -n "$SUB_ID" ] || { echo "subscribe returned no id" >&2; exit 1; }
SSE="$STATE/sse.out"
curl -fsS -N "$BASE/v1/subscribe/$SUB_ID/stream" >"$SSE" &
SSE_PID=$!
trap 'kill "$PID" "$SSE_PID" 2>/dev/null || true' EXIT
sleep 0.3 # let the stream attach before the write lands
curl -fsS -X POST "$BASE/v1/messages" \
  -H 'Content-Type: application/json' \
  -d '{"text":"wonderful stay at the Hotel Sierra in Rome, lovely place","source":"frank"}' >/dev/null
i=0
until grep -q 'Hotel Sierra' "$SSE" 2>/dev/null; do
  i=$((i + 1))
  [ "$i" -lt 100 ] || { echo "no SSE event arrived:" >&2; cat "$SSE" >&2; exit 1; }
  sleep 0.1
done
grep -q '^event: record' "$SSE" || { echo "stream frames malformed:" >&2; cat "$SSE" >&2; exit 1; }
grep -q '"action":"inserted"' "$SSE" || { echo "event is not the insert:" >&2; cat "$SSE" >&2; exit 1; }
kill "$SSE_PID" 2>/dev/null || true
wait "$SSE_PID" 2>/dev/null || true
curl -fsS -X DELETE "$BASE/v1/subscribe/$SUB_ID" | grep -q '"status": "cancelled"' ||
  { echo "unsubscribe failed" >&2; exit 1; }
echo "== SSE event delivered and subscription cancelled"

echo "== smoke OK (including crash recovery, the feedback loop, the hot read path and tracing)"
