#!/usr/bin/env bash
# Boots THREE radar-serve replicas, puts a fault-injecting radar-chaos
# proxy in front of each, routes through radar-fleet, and smoke-tests the
# self-healing stack end to end:
#
#   1. clean routed traffic through passthrough proxies;
#   2. a reconciliation drill — one replica is made unreachable (its proxy
#      resets every connection), a model is hot-added fleet-wide while it
#      is out, and on readmission the fleet must repair the replica's
#      hosted set before putting it back in the ring;
#   3. a gray-failure storm — every proxy injects hangs, TCP resets and
#      5xx — through which ≥99% of 200 routed inferences must succeed.
#
# Used by `make chaos-smoke` and the CI chaos-integration job.
set -euo pipefail

SERVE_BIN=${1:-./radar-serve}
FLEET_BIN=${2:-./radar-fleet}
CHAOS_BIN=${3:-./radar-chaos}
BASE_PORT=18280
CHAOS_PORT=18290
FLEET_ADDR=127.0.0.1:18299
LOGDIR=$(mktemp -d)
PIDS=()

cleanup() {
    for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
    cat "$LOGDIR"/*.log 2>/dev/null || true
}
trap cleanup EXIT

# Three replicas, same model set on each, plus a chaos proxy in front of
# each (passthrough until told otherwise).
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
    "$CHAOS_BIN" -addr "127.0.0.1:$((CHAOS_PORT + i))" \
        -target "http://127.0.0.1:$port" -seed $((i + 1)) \
        >"$LOGDIR/chaos$i.log" 2>&1 &
    PIDS+=($!)
done
for i in 0 1 2; do
    up=""
    for _ in $(seq 1 50); do
        if curl -fs "http://127.0.0.1:$((CHAOS_PORT + i))/chaos/stats" >/dev/null 2>&1; then up=1; break; fi
        sleep 0.2
    done
    [ -n "$up" ] || { echo "chaos proxy $i never came up"; exit 1; }
done

# The router sees only the chaos proxies, on a short attempt deadline and
# fast probes (the probe timeout, drain wait and shed window follow the
# 100ms interval).
"$FLEET_BIN" -replica "http://127.0.0.1:$CHAOS_PORT" \
             -replica "http://127.0.0.1:$((CHAOS_PORT + 1))" \
             -replica "http://127.0.0.1:$((CHAOS_PORT + 2))" \
             -addr "$FLEET_ADDR" -health-interval 100ms -attempt-timeout 500ms \
             >"$LOGDIR/fleet.log" 2>&1 &
PIDS+=($!)
up=""
for _ in $(seq 1 50); do
    if curl -fs "http://$FLEET_ADDR/v1/fleet" >/dev/null 2>&1; then up=1; break; fi
    sleep 0.2
done
[ -n "$up" ] || { echo "fleet router never came up"; exit 1; }

# One 3x8x8 input (the tiny spec's shape), all values 0.1.
payload=$(awk 'BEGIN{printf "{\"input\":["; for(i=0;i<192;i++){printf "%s0.1",(i?",":"")}; printf "]}"}')

# Phase 1: clean routed inference through the passthrough proxies.
for m in a b; do
    curl -fs -X POST -d "$payload" "http://$FLEET_ADDR/v1/models/$m/infer" | grep -q '"class"' \
        || { echo "routed sync infer on $m failed"; exit 1; }
done

# Phase 2: reconciliation drill. Replica 2 goes dark (its proxy resets
# every connection), a hot-add lands fleet-wide while it is out, and the
# fleet must repair the stale hosted set before readmitting it.
curl -fs -X POST -d '{"reset":1}' "http://127.0.0.1:$((CHAOS_PORT + 2))/chaos/config" >/dev/null \
    || { echo "could not switch proxy 2 to reset"; exit 1; }
ejected=""
for _ in $(seq 1 100); do
    # Keep a trickle of traffic flowing so the data plane notices fast.
    curl -fs -m 3 -X POST -d "$payload" "http://$FLEET_ADDR/v1/models/a/infer" >/dev/null 2>&1 || true
    if curl -fs "http://$FLEET_ADDR/v1/fleet" | grep -q '"in_ring": 2'; then ejected=1; break; fi
    sleep 0.1
done
[ -n "$ejected" ] || { echo "fleet never ejected the dark replica"; curl -fs "http://$FLEET_ADDR/v1/fleet"; exit 1; }

# Hot-add model c while replica 2 is unreachable: the broadcast reaches
# replicas 0 and 1 and records the intent for the missing one.
curl -fs -X POST -d '{"source":"tiny"}' "http://$FLEET_ADDR/v1/admin/models/c" \
    | grep -q '"op": "add-model"' || { echo "broadcast hot-add failed"; exit 1; }
curl -fs "http://127.0.0.1:$((BASE_PORT + 2))/v1/models" | grep -q '"name": "c"' \
    && { echo "dark replica received the broadcast it should have missed"; exit 1; }

# Lift the fault; the prober must reconcile the drift (add c) and only
# then readmit replica 2.
curl -fs -X POST -d '{}' "http://127.0.0.1:$((CHAOS_PORT + 2))/chaos/config" >/dev/null \
    || { echo "could not reset proxy 2 to passthrough"; exit 1; }
readmitted=""
for _ in $(seq 1 100); do
    if curl -fs "http://$FLEET_ADDR/v1/fleet" | grep -q '"in_ring": 3'; then readmitted=1; break; fi
    sleep 0.1
done
[ -n "$readmitted" ] || { echo "dark replica never readmitted"; curl -fs "http://$FLEET_ADDR/v1/fleet"; exit 1; }
curl -fs "http://127.0.0.1:$((BASE_PORT + 2))/v1/models" | grep -q '"name": "c"' \
    || { echo "readmitted replica missing reconciled model c"; exit 1; }
curl -fs -X POST -d "$payload" "http://$FLEET_ADDR/v1/models/c/infer" | grep -q '"class"' \
    || { echo "routed infer on reconciled model failed"; exit 1; }
echo "reconciliation drill OK (eject → fleet-wide hot-add → repair on readmission)"

# Phase 3: gray-failure storm. Every proxy now mixes hangs (held up to
# 1s, cut short by the router's 500ms attempt deadline), TCP resets and
# injected 502s; the client must still see ≥99% success over 200 routed
# inferences.
for i in 0 1 2; do
    curl -fs -X POST -d '{"hang":0.02,"reset":0.02,"err5xx":0.02,"hang_for":1000000000}' \
        "http://127.0.0.1:$((CHAOS_PORT + i))/chaos/config" >/dev/null \
        || { echo "could not arm chaos proxy $i"; exit 1; }
done
total=200
ok=0
for n in $(seq 1 $total); do
    m=$([ $((n % 2)) = 0 ] && echo a || echo b)
    if curl -fs -m 5 -X POST -d "$payload" "http://$FLEET_ADDR/v1/models/$m/infer" 2>/dev/null | grep -q '"class"'; then
        ok=$((ok + 1))
    fi
done
[ "$ok" -ge $((total * 99 / 100)) ] \
    || { echo "chaos storm: only $ok/$total requests succeeded, want ≥99%"; curl -fs "http://$FLEET_ADDR/v1/fleet"; exit 1; }

# The storm was real: the proxies actually injected faults.
injected=0
for i in 0 1 2; do
    stats=$(curl -fs "http://127.0.0.1:$((CHAOS_PORT + i))/chaos/stats")
    n=$(echo "$stats" | tr ',{}' '\n' | grep -Ev '"none"' | grep -Eo ':[0-9]+' | tr -d : | awk '{s+=$1} END{print s+0}')
    injected=$((injected + n))
done
[ "$injected" -gt 0 ] || { echo "chaos proxies injected no faults — storm was a no-op"; exit 1; }

for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
trap - EXIT
rm -rf "$LOGDIR"
echo "chaos smoke OK ($ok/$total through the storm; $injected faults injected; reconciliation drill passed)"
