#!/usr/bin/env bash
# End-to-end smoke test for `repro fleet`, run by CI and runnable
# locally: boot 2 instances behind the consistent-hash router, prove
# routing is deterministic (X-Repro-Instance stable across
# resubmission), scrape the aggregated /metrics, then kill one
# instance, restart it on the same port and cache directory, and
# require >=90% of the previously-seen scripts to be answered from the
# persisted cache.
set -euo pipefail

workdir="$(mktemp -d)"
cleanup() {
    kill -TERM "${restart_pid:-}" 2>/dev/null || true
    kill -TERM "${fleet_pid:-}" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

python -m repro fleet --instances 2 --port 0 \
    --port-file "$workdir/router-port" \
    --workdir "$workdir/fleet" --cache-root "$workdir/cache" \
    --jobs 2 2>"$workdir/fleet.log" &
fleet_pid=$!

for _ in $(seq 1 300); do
    [ -s "$workdir/router-port" ] && break
    kill -0 "$fleet_pid" 2>/dev/null || {
        echo "fleet died during startup:" >&2
        cat "$workdir/fleet.log" >&2
        exit 1
    }
    sleep 0.1
done
[ -s "$workdir/router-port" ] || { echo "no router port after 30s" >&2; exit 1; }
base="http://127.0.0.1:$(cat "$workdir/router-port")"
echo "fleet routing on $base"

# One POST through the router; prints "<instance>\t<cache_hit>".
submit() {
    curl -sf -D "$workdir/headers" "$base/deobfuscate" \
        -d "{\"script\": \"write-host fleet-$1\"}" >"$workdir/body"
    python - "$workdir/headers" "$workdir/body" <<'PY'
import json, sys
headers = {}
for line in open(sys.argv[1], encoding="utf-8"):
    if ":" in line:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
body = json.load(open(sys.argv[2], encoding="utf-8"))
assert body["status"] == "ok", body
print(f"{headers['x-repro-instance']}\t{body['cache_hit']}")
PY
}

# Round 1: ten unique scripts, record where each lands.
: >"$workdir/round1"
for i in $(seq 1 10); do
    submit "$i" >>"$workdir/round1"
done
if grep -q "True" "$workdir/round1"; then
    echo "unexpected cache hit on first sight of a script" >&2
    exit 1
fi

# Round 2: resubmission routes to the same instance and hits its cache.
: >"$workdir/round2"
for i in $(seq 1 10); do
    submit "$i" >>"$workdir/round2"
done
paste "$workdir/round1" "$workdir/round2" | python -c '
import sys
for line in sys.stdin:
    inst1, _hit1, inst2, hit2 = line.split("\t")
    assert inst1 == inst2, f"routing moved: {inst1} -> {inst2}"
    assert hit2.strip() == "True", "resubmission missed the cache"
'
echo "deterministic routing and cache affinity confirmed"

metrics="$(curl -sf "$base/metrics")"
echo "$metrics" | grep -q '^repro_fleet_instances 2$'
echo "$metrics" | grep -q '^repro_fleet_healthy_instances 2$'
echo "$metrics" | grep -q '^repro_service_requests_total 20$'
routed_total="$(echo "$metrics" \
    | awk '/^repro_fleet_routed_total{/ {sum += $2} END {print sum}')"
[ "$routed_total" -eq 20 ] || {
    echo "routed counters sum to $routed_total, expected 20" >&2
    exit 1
}
echo "aggregated metrics confirmed"

curl -sf "$base/healthz" | python -c '
import json, sys
health = json.load(sys.stdin)
assert health["healthy_instances"] == 2, health
assert all(report["version"] for report in health["instances"].values()), health
'
echo "per-instance health confirmed"

curl -sf "$base/statusz" | python -c '
import json, sys
status = json.load(sys.stdin)
assert status["instances"] == 2, status
# Counters and windows come from the same scrape of each instance.
assert status["counters"]["requests"] == 20, status["counters"]
one = status["windows"]["1m"]
assert one["requests"] == 20, one
assert one["exemplar"]["trace_id"], one
assert sum(status["router"]["routed"].values()) == 20, status["router"]
'
python -m repro top --url "$base" --once > "$workdir/top.out"
grep -q "instances=2" "$workdir/top.out"
echo "fleet /statusz aggregation confirmed"

# Kill instance 0, then restart it on the same port with the same
# persisted cache directory.
port0="$(cat "$workdir/fleet/port-0")"
# -o: the oldest match is the serve process itself; forked workers
# share its command line.  The fleet parent only reaps children at its
# own shutdown, so a drained instance lingers as a zombie — check the
# process *state*, not `kill -0` (which succeeds on zombies).
inst0_pid="$(pgrep -o -f "$workdir/fleet/port-0")"
inst0_gone() {
    state="$(awk '{print $3}' "/proc/$inst0_pid/stat" 2>/dev/null || echo gone)"
    [ "$state" = "Z" ] || [ "$state" = "gone" ]
}
kill -TERM "$inst0_pid"
for _ in $(seq 1 100); do
    inst0_gone && break
    sleep 0.1
done
if ! inst0_gone; then
    echo "instance 0 did not exit after SIGTERM" >&2
    exit 1
fi
echo "instance 0 stopped"

python -m repro serve --port "$port0" \
    --port-file "$workdir/fleet/port-0-restarted" \
    --cache-dir "$workdir/cache/instance-0" \
    --jobs 2 2>"$workdir/serve-restart.log" &
restart_pid=$!
for _ in $(seq 1 100); do
    [ -s "$workdir/fleet/port-0-restarted" ] && break
    sleep 0.1
done
[ -s "$workdir/fleet/port-0-restarted" ] || {
    echo "restarted instance never came up:" >&2
    cat "$workdir/serve-restart.log" >&2
    exit 1
}

curl -sf "http://127.0.0.1:$port0/healthz" | python -c '
import json, sys
health = json.load(sys.stdin)
warm = health["warm_start"]
assert warm["warm_start"] is True, warm
assert warm["loaded_entries"] >= 1, warm
'
echo "instance 0 warm-started from its persisted cache"

# Give the router's prober a moment to mark the instance back up.
for _ in $(seq 1 100); do
    healthy="$(curl -sf "$base/healthz" | python -c '
import json, sys
print(json.load(sys.stdin)["healthy_instances"])
' || echo 0)"
    [ "$healthy" = "2" ] && break
    sleep 0.2
done
[ "$healthy" = "2" ] || { echo "instance 0 never rejoined" >&2; exit 1; }

# Round 3: the same ten scripts again.  Routing must match round 1 and
# >=90% must come straight from cache — the restarted instance answers
# its share from disk without re-executing the pipeline.
: >"$workdir/round3"
for i in $(seq 1 10); do
    submit "$i" >>"$workdir/round3"
done
paste "$workdir/round1" "$workdir/round3" | python -c '
import sys
hits = total = 0
for line in sys.stdin:
    inst1, _hit1, inst3, hit3 = line.split("\t")
    assert inst1 == inst3, f"routing moved after restart: {inst1} -> {inst3}"
    total += 1
    hits += hit3.strip() == "True"
assert total == 10, total
assert hits >= 9, f"only {hits}/{total} warm cache hits after restart"
print(f"warm cache hits after restart: {hits}/{total}")
'

kill -TERM "$restart_pid"
wait "$restart_pid" || { echo "restarted instance exited non-zero" >&2; exit 1; }
restart_pid=""
kill -TERM "$fleet_pid"
wait "$fleet_pid" || { echo "fleet exited non-zero" >&2; exit 1; }
fleet_pid=""
grep -q "drained cleanly" "$workdir/fleet.log"
echo "fleet drain confirmed (exit 0)"
