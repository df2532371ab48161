#!/usr/bin/env bash
# Boots THREE radar-serve replicas (each hosting the same two tiny
# models) behind one radar-fleet router and smoke-tests the routed
# control plane end to end: the merged /v1/models listing, routed sync
# inference, a tag-routed async job round trip with cancellation, a broadcast
# hot add/remove, killing one replica mid-run (traffic must keep
# flowing), and a zero-downtime rolling rekey under live traffic.
# Used by `make fleet-smoke` and the CI fleet-integration job.
set -euo pipefail

SERVE_BIN=${1:-./radar-serve}
FLEET_BIN=${2:-./radar-fleet}
BASE_PORT=18180
FLEET_ADDR=127.0.0.1:18190
LOGDIR=$(mktemp -d)
PIDS=()

cleanup() {
    for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
    cat "$LOGDIR"/*.log 2>/dev/null || true
}
trap cleanup EXIT

# Three replicas, same model set on each.
for i in 0 1 2; do
    port=$((BASE_PORT + i))
    "$SERVE_BIN" -model a=tiny -model b=tiny -addr "127.0.0.1:$port" -scrub 50ms \
        >"$LOGDIR/serve$i.log" 2>&1 &
    PIDS+=($!)
done
for i in 0 1 2; do
    port=$((BASE_PORT + i))
    up=""
    for _ in $(seq 1 50); do
        if curl -fs "http://127.0.0.1:$port/v1/models" >/dev/null 2>&1; then up=1; break; fi
        sleep 0.2
    done
    [ -n "$up" ] || { echo "replica $i never came up"; exit 1; }
done

# The router, probing fast so the kill below is noticed quickly.
"$FLEET_BIN" -replica "http://127.0.0.1:$BASE_PORT" \
             -replica "http://127.0.0.1:$((BASE_PORT + 1))" \
             -replica "http://127.0.0.1:$((BASE_PORT + 2))" \
             -addr "$FLEET_ADDR" -health-interval 100ms \
             >"$LOGDIR/fleet.log" 2>&1 &
PIDS+=($!)
up=""
for _ in $(seq 1 50); do
    if curl -fs "http://$FLEET_ADDR/v1/fleet" >/dev/null 2>&1; then up=1; break; fi
    sleep 0.2
done
[ -n "$up" ] || { echo "fleet router never came up"; exit 1; }

# Merged listing: both models present, each annotated with its ring owner.
models=$(curl -fs "http://$FLEET_ADDR/v1/models")
echo "$models" | grep -q '"name": "a"' || { echo "merged listing missing model a"; exit 1; }
echo "$models" | grep -q '"name": "b"' || { echo "merged listing missing model b"; exit 1; }
echo "$models" | grep -q '"owner"' || { echo "merged listing lacks owners"; exit 1; }
curl -fs "http://$FLEET_ADDR/v1/models/a" | grep -q '"name": "a"' || { echo "routed model info for a failed"; exit 1; }

# One 3x8x8 input (the tiny spec's shape), all values 0.1.
payload=$(awk 'BEGIN{printf "{\"input\":["; for(i=0;i<192;i++){printf "%s0.1",(i?",":"")}; printf "]}"}')

# Routed sync inference on both models.
for m in a b; do
    curl -fs -X POST -d "$payload" "http://$FLEET_ADDR/v1/models/$m/infer" | grep -q '"class"' \
        || { echo "routed sync infer on $m failed"; exit 1; }
done

# Async job round trip: submit through the fleet, poll through the fleet
# (routed by the ID's replica tag: only the minting replica can answer)
# until done, poll the finished job twice more — the router forgets no tag
# on a finished job — then cancel a second one.
job=$(curl -fs -X POST -d "$payload" "http://$FLEET_ADDR/v1/models/a/jobs")
jid=$(echo "$job" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$jid" ] || { echo "routed job submit failed: $job"; exit 1; }
done=""
for _ in $(seq 1 50); do
    st=$(curl -fs "http://$FLEET_ADDR/v1/jobs/$jid")
    if echo "$st" | grep -q '"state": *"done"'; then done=1; break; fi
    sleep 0.1
done
[ -n "$done" ] || { echo "routed job $jid never completed"; exit 1; }
for _ in 1 2; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$FLEET_ADDR/v1/jobs/$jid")
    [ "$code" = "200" ] || { echo "finished job $jid re-polled $code, want 200"; exit 1; }
done
job2=$(curl -fs -X POST -d "$payload" "http://$FLEET_ADDR/v1/models/b/jobs")
jid2=$(echo "$job2" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
curl -fs -X DELETE "http://$FLEET_ADDR/v1/jobs/$jid2" | grep -q '"state"' \
    || { echo "routed job cancel failed"; exit 1; }

# Broadcast hot-add: model c appears on every replica, serves through the
# fleet, then broadcast hot-remove takes it back out everywhere.
curl -fs -X POST -d '{"source":"tiny"}' "http://$FLEET_ADDR/v1/admin/models/c" \
    | grep -q '"op": "add-model"' || { echo "broadcast hot-add failed"; exit 1; }
for i in 0 1 2; do
    curl -fs "http://127.0.0.1:$((BASE_PORT + i))/v1/models" | grep -q '"name": "c"' \
        || { echo "replica $i missing hot-added model c"; exit 1; }
done
curl -fs -X POST -d "$payload" "http://$FLEET_ADDR/v1/models/c/infer" | grep -q '"class"' \
    || { echo "routed infer on hot-added model failed"; exit 1; }
curl -fs -X DELETE "http://$FLEET_ADDR/v1/admin/models/c" \
    | grep -q '"op": "remove-model"' || { echo "broadcast hot-remove failed"; exit 1; }

# Kill replica 2 and keep the traffic coming: every request must still be
# answered (the router ejects the dead replica on first contact and
# retries on the next ring owner).
kill -9 "${PIDS[2]}" 2>/dev/null || true
wait "${PIDS[2]}" 2>/dev/null || true
fails=0
for n in $(seq 1 20); do
    m=$([ $((n % 2)) = 0 ] && echo a || echo b)
    curl -fs -X POST -d "$payload" "http://$FLEET_ADDR/v1/models/$m/infer" | grep -q '"class"' \
        || fails=$((fails + 1))
done
[ "$fails" = "0" ] || { echo "$fails/20 requests failed after replica kill"; exit 1; }

# The router noticed: two replicas left in the ring.
sleep 0.5
curl -fs "http://$FLEET_ADDR/v1/fleet" | grep -q '"in_ring": 2' \
    || { echo "fleet did not eject the killed replica"; curl -fs "http://$FLEET_ADDR/v1/fleet"; exit 1; }

# Zero-downtime rolling rekey across the survivors: a background client
# keeps inferring on both models across the whole call and logs every
# HTTP status; anything but 200 fails the smoke.
(
    n=0
    while [ ! -e "$LOGDIR/rekey.done" ]; do
        m=$([ $((n % 2)) = 0 ] && echo a || echo b)
        curl -s -o /dev/null -w '%{http_code}\n' -X POST -d "$payload" \
            "http://$FLEET_ADDR/v1/models/$m/infer" || true
        n=$((n + 1))
    done
) >"$LOGDIR/rekey.codes" &
loader=$!
PIDS+=("$loader")
rekey=$(curl -fs -X POST -d '{}' "http://$FLEET_ADDR/v1/admin/rekey") || true
touch "$LOGDIR/rekey.done"
wait "$loader"
echo "$rekey" | grep -q '"op": "rolling-rekey"' || { echo "rolling rekey failed: $rekey"; exit 1; }
live=$(echo "$rekey" | grep -c '"status": 200') || true
[ "$live" = "2" ] || { echo "rolling rekey reached $live replicas, want 2"; exit 1; }
sent=$(wc -l <"$LOGDIR/rekey.codes")
bad=$(grep -vc '^200$' "$LOGDIR/rekey.codes") || true
[ "$sent" -gt 0 ] && [ "$bad" = "0" ] \
    || { echo "$bad of $sent requests failed during the rolling rekey"; sort "$LOGDIR/rekey.codes" | uniq -c; exit 1; }
echo "rolling rekey under load: $sent/$sent requests answered 200"

# One scrape sees the whole fleet: the router's own series plus every
# surviving replica's exposition re-emitted under a replica="host" label.
metrics=$(curl -fs "http://$FLEET_ADDR/v1/metrics")
echo "$metrics" | grep -q '^radar_fleet_replica_up{replica="' \
    || { echo "router metrics missing replica-up gauges"; exit 1; }
echo "$metrics" | grep -q '^radar_fleet_requests_total{route="' \
    || { echo "router metrics missing per-route counters"; exit 1; }
echo "$metrics" | grep -Eq '^radar_requests_total\{replica="[^"]+",model="a"\} [1-9]' \
    || { echo "no replica-labelled request counter for model a"; echo "$metrics" | grep radar_requests_total; exit 1; }
echo "$metrics" | grep -Eq '^radar_scrub_cycles_total\{replica="[^"]+",model="a"\} [1-9]' \
    || { echo "no replica-labelled scrub counter"; exit 1; }
echo "$metrics" | grep -q '^radar_request_latency_seconds_bucket{replica="' \
    || { echo "no replica-labelled latency histogram"; exit 1; }

# Fleet-wide stage traces: the router merges per-replica traces, each
# carrying its queue / batch / verify / forward split.
traces=$(curl -fs "http://$FLEET_ADDR/v1/debug/traces?n=5")
for stage in queue batch verify forward; do
    echo "$traces" | grep -q "\"name\": \"$stage\"" \
        || { echo "merged traces missing stage $stage"; echo "$traces"; exit 1; }
done
echo "$traces" | grep -q '"replica": "' || { echo "merged traces lack replica tags"; exit 1; }

for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
trap - EXIT
rm -rf "$LOGDIR"
echo "fleet smoke OK (3 replicas: routing + tag-routed jobs + broadcast add/remove + replica kill + rolling rekey + aggregated metrics/traces)"
