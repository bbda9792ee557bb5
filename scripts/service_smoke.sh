#!/usr/bin/env bash
# End-to-end smoke test for `repro serve`, run by CI and runnable
# locally: boot the service on an ephemeral port, prove the result
# cache works over real HTTP, scrape /metrics and /statusz, render
# them with `repro top --once` / `repro logs`, then check that
# SIGTERM drains cleanly (exit 0).
set -euo pipefail

workdir="$(mktemp -d)"
trap 'kill "${server_pid:-}" 2>/dev/null || true; rm -rf "$workdir"' EXIT

python -m repro serve --port 0 --port-file "$workdir/port" \
    --jobs 2 --log-file "$workdir/events.jsonl" --log-level debug \
    2>"$workdir/serve.log" &
server_pid=$!

for _ in $(seq 1 100); do
    [ -s "$workdir/port" ] && break
    kill -0 "$server_pid" 2>/dev/null || {
        echo "server died during startup:" >&2
        cat "$workdir/serve.log" >&2
        exit 1
    }
    sleep 0.1
done
[ -s "$workdir/port" ] || { echo "no port file after 10s" >&2; exit 1; }
port="$(cat "$workdir/port")"
base="http://127.0.0.1:$port"
echo "serving on $base"

payload='{"script": "I`E`X (\"wri\"+\"te-host smoke\")"}'

first="$(curl -sf "$base/deobfuscate" -d "$payload")"
echo "$first" | python -c '
import json, sys
body = json.load(sys.stdin)
assert body["status"] == "ok", body
assert body["cache_hit"] is False, body
assert "Write-Host smoke" in body["script"], body
'

second="$(curl -sf "$base/deobfuscate" -d "$payload")"
echo "$second" | python -c '
import json, sys
body = json.load(sys.stdin)
assert body["cache_hit"] is True, body
'
echo "cache hit confirmed on second request"

curl -sf "$base/healthz" >"$workdir/healthz.json"
curl -sf "$base/metrics.json" >"$workdir/metrics.json"
python - "$workdir/healthz.json" "$workdir/metrics.json" <<'PY'
import json, sys
health = json.load(open(sys.argv[1], encoding="utf-8"))
snapshot = json.load(open(sys.argv[2], encoding="utf-8"))
assert health["status"] == "ok", health
assert health["version"], health
# /healthz is a view of the /metrics.json snapshot.
assert snapshot["version"] == health["version"], (snapshot, health)
PY

metrics="$(curl -sf "$base/metrics")"
echo "$metrics" | grep -q '^repro_service_requests_total 2$'
echo "$metrics" | grep -q '^repro_service_cache_hits_total 1$'
echo "$metrics" | grep -q '^repro_pipeline_pieces_recovered_total'
echo "metrics scrape confirmed"

curl -sf "$base/statusz" | python -c '
import json, sys
status = json.load(sys.stdin)
one = status["windows"]["1m"]
assert one["requests"] == 2, one
assert one["latency_p50_ms"] > 0, one
# The exemplar trace id must resolve into the event-log tail.
exemplar = one["exemplar"]["trace_id"]
traces = {e.get("trace_id") for e in status["log_tail"]}
assert exemplar in traces, (exemplar, traces)
assert status["window_raw"]["slots"], status
'
echo "/statusz windows + exemplar correlation confirmed"

python -m repro top --url "$base" --once > "$workdir/top.out"
grep -q "repro top — $base" "$workdir/top.out"
grep -q "1m " "$workdir/top.out"
echo "repro top --once confirmed"

python -m repro logs "$workdir/events.jsonl" --level warning \
    > "$workdir/logs.out"
python -m repro logs "$workdir/events.jsonl" --logger service \
    --tail 5 > "$workdir/logs-tail.out"
grep -q "service" "$workdir/logs-tail.out"
echo "repro logs filters confirmed"

kill -TERM "$server_pid"
wait "$server_pid"
status=$?
[ "$status" -eq 0 ] || {
    echo "server exited $status after SIGTERM" >&2
    cat "$workdir/serve.log" >&2
    exit 1
}
grep -q "drained cleanly" "$workdir/serve.log"
echo "SIGTERM drain confirmed (exit 0)"
