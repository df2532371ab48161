#!/usr/bin/env bash
# Boots radar-serve with TWO models on the tiny testdata checkpoint and
# smoke-tests the v1 HTTP control plane end to end: /v1/models must list
# both models, a sync infer must classify, an async job must round-trip
# submit → poll → done, a second job must cancel via DELETE, an admin
# rekey must answer rekeyed=true, a model must hot-add and hot-remove, an
# injected adversary campaign must land on the right recovery path (model
# a boots with -correct: ECC repairs, zero weights zeroed; model b is
# zeroing-only: groups destroyed), and the removed pre-v1 shims must
# answer 404; and model b, left without traffic, must stay scrubbed
# (scanned layers advancing, exposure window under 0.2 s at -scrub 50ms).
# First, a negative -scrub and the removed -verify flag must be refused at
# flag parse.
# Used by `make serve-smoke` and the CI serve-integration job.
set -euo pipefail

BIN=${1:-./radar-serve}
ADDR=127.0.0.1:18080
LOG=$(mktemp)

# A negative -scrub would switch the scrubber off without a word, and
# verified fetch has no off switch: both must exit 2 before any model loads
# or the listener binds (under timeout 10, so a regression fails, not hangs).
for bad in "-scrub -1ms" "-verify=false"; do
    code=0
    # $bad is unquoted: a flag and its value split into two arguments.
    neg=$(timeout 10 "$BIN" -model tiny -addr "$ADDR" $bad 2>&1) || code=$?
    [ "$code" = "2" ] || { echo "radar-serve $bad exited $code, want 2: $neg"; exit 1; }
    if echo "$neg" | grep -q 'loading\|serving'; then
        echo "radar-serve $bad got past flag parse: $neg"; exit 1
    fi
done

"$BIN" -model a=tiny -model b=tiny -correct a -addr "$ADDR" -scrub 50ms >"$LOG" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; cat "$LOG"' EXIT

# Wait for the service to come up (tiny checkpoints load in well under 10s).
up=""
for _ in $(seq 1 50); do
    if curl -fs "http://$ADDR/v1/models" >/dev/null 2>&1; then up=1; break; fi
    sleep 0.2
done
[ -n "$up" ] || { echo "server never came up"; exit 1; }

# Both models are hosted and healthy.
models=$(curl -fs "http://$ADDR/v1/models")
echo "$models" | grep -q '"name": "a"' || { echo "/v1/models missing model a"; exit 1; }
echo "$models" | grep -q '"name": "b"' || { echo "/v1/models missing model b"; exit 1; }
echo "$models" | grep -q '"healthy": true' || { echo "models not healthy"; exit 1; }
# The listing carries identity, configuration and health, not figures: the
# job table's live occupancy is /v1/metrics' alone.
if echo "$models" | grep -q '"jobs"'; then echo "/v1/models copies the job-table figures"; exit 1; fi

# One 3x8x8 input (the tiny spec's shape), all values 0.1.
payload=$(awk 'BEGIN{printf "{\"input\":["; for(i=0;i<192;i++){printf "%s0.1",(i?",":"")}; printf "]}"}')

# Sync inference against model a.
curl -fs -X POST -d "$payload" "http://$ADDR/v1/models/a/infer" | grep -q '"class"' \
    || { echo "v1 sync infer failed"; exit 1; }

# Unknown model names must 404.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d "$payload" "http://$ADDR/v1/models/nope/infer")
[ "$code" = "404" ] || { echo "unknown model answered $code, want 404"; exit 1; }

# Async job round trip against model b: submit → poll until done.
job=$(curl -fs -X POST -d "$payload" "http://$ADDR/v1/models/b/jobs")
echo "$job" | grep -q '"id"' || { echo "job submit failed: $job"; exit 1; }
jid=$(echo "$job" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$jid" ] || { echo "no job id in: $job"; exit 1; }
done=""
for _ in $(seq 1 50); do
    st=$(curl -fs "http://$ADDR/v1/jobs/$jid")
    if echo "$st" | grep -q '"state": *"done"'; then
        echo "$st" | grep -q '"class"' || { echo "done job has no result: $st"; exit 1; }
        done=1
        break
    fi
    sleep 0.1
done
[ -n "$done" ] || { echo "job $jid never completed"; exit 1; }

# Job cancellation: submit another job and DELETE it. Whether it is still
# pending (cancelled) or already finished (done), the DELETE must answer
# 200 and free the slot — a follow-up poll answers 404.
job2=$(curl -fs -X POST -d "$payload" "http://$ADDR/v1/models/b/jobs")
jid2=$(echo "$job2" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$jid2" ] || { echo "second job submit failed: $job2"; exit 1; }
curl -fs -X DELETE "http://$ADDR/v1/jobs/$jid2" | grep -q '"state"' \
    || { echo "job cancel failed"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/jobs/$jid2")
[ "$code" = "404" ] || { echo "cancelled job still polls ($code), want 404"; exit 1; }

# Live admin rekey of model a, then an admin scrub of everything.
curl -fs -X POST -d '{"model":"a"}' "http://$ADDR/v1/admin/rekey" | grep -q '"rekeyed": true' \
    || { echo "admin rekey failed"; exit 1; }
curl -fs -X POST -d '{"full":true}' "http://$ADDR/v1/admin/scrub" | grep -q '"model": "b"' \
    || { echo "admin scrub did not cover both models"; exit 1; }

# Model a must still classify after the rekey.
curl -fs -X POST -d "$payload" "http://$ADDR/v1/models/a/infer" | grep -q '"class"' \
    || { echo "post-rekey infer failed"; exit 1; }

# Hot model add/remove: add model c from the tiny zoo source, infer on
# it, then remove it and watch the routes 404.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"source":"tiny"}' "http://$ADDR/v1/admin/models/c")
[ "$code" = "201" ] || { echo "hot-add answered $code, want 201"; exit 1; }
curl -fs -X POST -d "$payload" "http://$ADDR/v1/models/c/infer" | grep -q '"class"' \
    || { echo "infer on hot-added model failed"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "http://$ADDR/v1/admin/models/c")
[ "$code" = "204" ] || { echo "hot-remove answered $code, want 204"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d "$payload" "http://$ADDR/v1/models/c/infer")
[ "$code" = "404" ] || { echo "removed model still serves ($code), want 404"; exit 1; }

# The pre-v1 shims are gone: every legacy route must answer 404.
for route in /infer /healthz /metrics; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR$route")
    [ "$code" = "404" ] || { echo "legacy $route answered $code, want 404"; exit 1; }
done

# An idle model is the scrubber's alone: after 0.6 s without traffic to b,
# its ticks (-scrub 50ms) must still be scanning b's layers and keeping its
# exposure window near one interval, not near a multi-tick cycle.
scanned_b() { sed -n 's/^radar_scrub_layers_total{model="b",outcome="scanned"} //p'; }
scanned0=$(curl -fs "http://$ADDR/v1/metrics" | scanned_b)
sleep 0.6
idle=$(curl -fs "http://$ADDR/v1/metrics")
scanned1=$(echo "$idle" | scanned_b)
[ -n "$scanned0" ] && [ "$scanned1" -gt "$scanned0" ] \
    || { echo "scrubber not scanning idle model b: $scanned0 -> $scanned1"; exit 1; }
window=$(echo "$idle" | sed -n 's/^radar_exposure_window_seconds{model="b"} //p')
awk -v w="$window" 'BEGIN{exit !(w != "" && w < 0.2)}' \
    || { echo "idle model b exposure window ${window}s, want < 0.2s"; exit 1; }

# One model's info route answers for it.
curl -fs "http://$ADDR/v1/models/b" | grep -q '"name": "b"' \
    || { echo "model b info missing"; curl -fs "http://$ADDR/v1/models/b"; exit 1; }

# Prometheus exposition, the one metrics surface: model a served exactly
# 2 sync requests (before and after the rekey), the scrubber has cycled
# (50ms interval), and the latency histogram carries every answered
# request.
ct=$(curl -fs -o /dev/null -w '%{content_type}' "http://$ADDR/v1/metrics")
echo "$ct" | grep -q 'text/plain' || { echo "/v1/metrics content type: $ct"; exit 1; }
metrics=$(curl -fs "http://$ADDR/v1/metrics")
echo "$metrics" | grep -q '^radar_requests_total{model="a"} 2$' \
    || { echo "radar_requests_total for model a off"; echo "$metrics" | grep radar_requests_total; exit 1; }
scrubs=$(echo "$metrics" | sed -n 's/^radar_scrub_cycles_total{model="a"} //p')
[ -n "$scrubs" ] && [ "$scrubs" -gt 0 ] || { echo "radar_scrub_cycles_total not advancing: '$scrubs'"; exit 1; }
echo "$metrics" | grep -q '^radar_request_latency_seconds_bucket{model="a",le="+Inf"} 2$' \
    || { echo "latency histogram missing model a samples"; exit 1; }
echo "$metrics" | grep -q '^radar_queue_depth{model="a"}' \
    || { echo "queue depth gauge missing"; exit 1; }
echo "$metrics" | grep -q '^radar_jobs_capacity 1024$' \
    || { echo "job capacity gauge off"; echo "$metrics" | grep radar_jobs; exit 1; }

# Per-request stage traces: every HTTP infer left a trace with its queue /
# batch / verify / forward split.
traces=$(curl -fs "http://$ADDR/v1/debug/traces?n=8")
for stage in queue batch verify forward; do
    echo "$traces" | grep -q "\"name\": \"$stage\"" \
        || { echo "traces missing stage $stage"; echo "$traces"; exit 1; }
done

# Injected adversary campaigns land on the right recovery path. Model a
# runs ECC-corrected recovery (-correct a survives the earlier rekey): a
# sigstore volley against its golden store is repaired in place — groups
# corrected, nothing zeroed. Model b is zeroing-only: an oblivious weight
# volley gets its flagged groups destroyed.
curl -fs -X POST -d '{"model":"a","adversary":"sigstore","flips":3,"seed":7}' "http://$ADDR/v1/admin/inject" \
    | grep -q '"sig_flips": 3' || { echo "sigstore inject on a failed"; exit 1; }
curl -fs -X POST -d '{"model":"b","adversary":"oblivious","flips":4,"seed":9}' "http://$ADDR/v1/admin/inject" \
    | grep -q '"weight_flips": 4' || { echo "oblivious inject on b failed"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"model":"a","adversary":"bogus","flips":3}' "http://$ADDR/v1/admin/inject")
[ "$code" = "400" ] || { echo "bogus adversary answered $code, want 400"; exit 1; }
curl -fs -X POST -d '{"full":true}' "http://$ADDR/v1/admin/scrub" >/dev/null \
    || { echo "post-inject scrub failed"; exit 1; }
metrics=$(curl -fs "http://$ADDR/v1/metrics")
echo "$metrics" | grep -q '^radar_adversary_flips_total{model="a"} 3$' \
    || { echo "adversary flip counter for a off"; echo "$metrics" | grep radar_adversary; exit 1; }
corrected=$(echo "$metrics" | sed -n 's/^radar_groups_corrected_total{model="a"} //p')
[ -n "$corrected" ] && [ "$corrected" -gt 0 ] || { echo "model a corrected nothing: '$corrected'"; exit 1; }
echo "$metrics" | grep -q '^radar_groups_zeroed_total{model="a"} 0$' \
    || { echo "ECC model a zeroed groups"; echo "$metrics" | grep radar_groups; exit 1; }
zeroed=$(echo "$metrics" | sed -n 's/^radar_groups_zeroed_total{model="b"} //p')
[ -n "$zeroed" ] && [ "$zeroed" -gt 0 ] || { echo "model b zeroed nothing: '$zeroed'"; exit 1; }
echo "$metrics" | grep -q '^radar_groups_corrected_total{model="b"} 0$' \
    || { echo "zeroing-only model b corrected groups"; echo "$metrics" | grep radar_groups; exit 1; }

# Model a's weights were never touched by the sigstore campaign: it must
# still classify.
curl -fs -X POST -d "$payload" "http://$ADDR/v1/models/a/infer" | grep -q '"class"' \
    || { echo "post-inject infer on a failed"; exit 1; }

kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
trap - EXIT
echo "serve smoke OK (2 models, sync + async + cancel + hot add/remove + admin rekey/scrub + adversary inject ECC/zeroing split + metrics/traces, shims gone)"
