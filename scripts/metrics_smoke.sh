#!/bin/sh
# End-to-end metrics smoke gate: boot a serve_server, drive real generate
# requests through serve_client, scrape the kMetrics wire endpoint, and
# assert (1) the Prometheus body parses and (2) serve_requests_completed
# matches the number of requests actually served. A second phase reruns the
# loop with --prefix-sharing under shared-prefix traffic and asserts the
# serve_prefix_* series tell that story (and are absent when sharing is off).
# A third phase kills shard 0 mid-workload (scripted fault) and pulls the
# kTraceDump frame over TCP: the body must be valid JSON and must contain a
# flow-event pair ("s" at the harvest, "f" at the resubmit, same id) linking
# one request's spans across the two shards.
#
#   scripts/metrics_smoke.sh [build_dir]     # default: ./build
set -eu

build=${1:-build}
server="$build/examples/serve_server"
client="$build/examples/serve_client"
for bin in "$server" "$client"; do
    if [ ! -x "$bin" ]; then
        echo "metrics_smoke: missing $bin (build the examples first)" >&2
        exit 2
    fi
done

requests=5
workdir=$(mktemp -d)
server_pid=""
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

# Boots $server with the given flags, writes its log to $workdir/$1.out, and
# sets $port / $server_pid from the line it prints.
boot_server() {
    log="$workdir/$1.out"
    shift
    "$server" "$@" --port 0 --serve-seconds 60 >"$log" 2>&1 &
    server_pid=$!
    port=""
    for _ in $(seq 1 100); do
        port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")
        [ -n "$port" ] && break
        kill -0 "$server_pid" 2>/dev/null || {
            echo "metrics_smoke: server died during startup:" >&2
            cat "$log" >&2
            exit 1
        }
        sleep 0.1
    done
    if [ -z "$port" ]; then
        echo "metrics_smoke: server never reported its port" >&2
        exit 1
    fi
}

# Ephemeral port: the server prints the one it bound.
boot_server server --shards 2
echo "metrics_smoke: server up on port $port"

"$client" --port "$port" --count "$requests" --tokens 4 >"$workdir/client.out"

"$client" --port "$port" --metrics >"$workdir/metrics.prom"
"$client" --port "$port" --metrics-json >"$workdir/metrics.json"

# Prometheus validity: every sample line is "<name> <number>", every # line
# is a HELP or TYPE comment, and every family announces both before its
# samples. A malformed line fails the gate.
awk '
    /^# HELP / { help[$3] = 1; next }
    /^# TYPE / { type[$3] = 1; next }
    /^#/ { print "bad comment: " $0; bad = 1; next }
    /^$/ { next }
    NF != 2 || $2 !~ /^[0-9.eE+-]+$/ { print "bad sample: " $0; bad = 1; next }
    {
        fam = $1
        sub(/[{][^}]*[}]$/, "", fam)
        sub(/_(bucket|sum|count)$/, "", fam)
        if (!(fam in help) || !(fam in type)) {
            print "sample without HELP/TYPE: " $0; bad = 1
        }
    }
    END { exit bad }
' "$workdir/metrics.prom" || {
    echo "metrics_smoke: Prometheus body failed to parse" >&2
    exit 1
}

completed=$(awk '$1 == "serve_requests_completed" { print $2 }' \
    "$workdir/metrics.prom")
if [ "$completed" != "$requests" ]; then
    echo "metrics_smoke: serve_requests_completed=$completed, want $requests" >&2
    cat "$workdir/metrics.prom" >&2
    exit 1
fi

# The same count must appear in the JSON body, and TTFT must have samples.
grep -q "\"serve_requests_completed\":$requests" "$workdir/metrics.json" || {
    echo "metrics_smoke: JSON body disagrees with Prometheus body" >&2
    exit 1
}
ttft_count=$(awk '$1 == "serve_ttft_ns_count" { print $2 }' \
    "$workdir/metrics.prom")
if [ "$ttft_count" != "$requests" ]; then
    echo "metrics_smoke: serve_ttft_ns_count=$ttft_count, want $requests" >&2
    exit 1
fi

# Sharing off, the serve_prefix_* series must be ABSENT — scrapes stay
# honest about what the engine is doing.
if grep -q "serve_prefix" "$workdir/metrics.prom"; then
    echo "metrics_smoke: serve_prefix_* series present with sharing off" >&2
    exit 1
fi

kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true

# ---- shared-prefix phase: the serve_prefix_* series under real traffic ----
# Two identical 47-char prompts (48 tokens: 3 aligned 16-token pages). The
# first registers the chain; the second fully matches, adopts mid-page
# (prompt-1 cap), and must copy-on-write its last page. Affinity routes it
# onto the warm shard, so the cluster scrape shows the hit, the CoW, and the
# pinned pages.
boot_server server_prefix --shards 2 --policy prefix-affinity --prefix-sharing
echo "metrics_smoke: prefix-sharing server up on port $port"

sys_prompt=$(printf '%047d' 0 | tr '0' 's')
"$client" --port "$port" --prompt "$sys_prompt" --tokens 4 >"$workdir/warm.out"
"$client" --port "$port" --prompt "$sys_prompt" --tokens 4 >"$workdir/hit.out"
"$client" --port "$port" --metrics >"$workdir/prefix.prom"

prefix_metric() {
    awk -v name="$1" '$1 == name { print $2 }' "$workdir/prefix.prom"
}
hits=$(prefix_metric serve_prefix_hits_total)
covered=$(prefix_metric serve_prefix_covered_tokens_total)
cows=$(prefix_metric serve_prefix_cow_copies_total)
shared=$(prefix_metric serve_prefix_pages_shared)
if [ "$hits" != "1" ] || [ "$covered" != "47" ] || [ "$cows" != "1" ]; then
    echo "metrics_smoke: prefix counters wrong: hits=$hits covered=$covered" \
        "cow=$cows (want 1/47/1)" >&2
    cat "$workdir/prefix.prom" >&2
    exit 1
fi
if [ -z "$shared" ] || [ "$(printf '%.0f' "$shared")" -lt 1 ]; then
    echo "metrics_smoke: serve_prefix_pages_shared=$shared, want >= 1" >&2
    cat "$workdir/prefix.prom" >&2
    exit 1
fi

kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true

# ---- trace phase: the kTraceDump frame after a scripted shard kill ----
# Shard 0 dies at its 8th decode step (its prompts take one tile step, so
# this is mid-decode); its in-flight requests fail over to shard 1. The live trace dump must parse as JSON and carry the failover as
# a flow-event pair — "s" (harvest) on the dying shard and "f" (resubmit) on
# the survivor, joined by the request id — plus exactly one first_token
# instant per request (exactly-once streaming across the failover).
boot_server server_trace --shards 2 --fault-shard0 step:8 \
    --trace-out "$workdir/unused_trace.json"
echo "metrics_smoke: trace server up on port $port"

client_pids=""
i=0
while [ "$i" -lt 4 ]; do
    "$client" --port "$port" --prompt "trace probe $i" --tokens 16 \
        >>"$workdir/trace_client.out" 2>&1 &
    client_pids="$client_pids $!"
    i=$((i + 1))
done
for pid in $client_pids; do
    wait "$pid" || true
done

"$client" --port "$port" --trace >"$workdir/trace.json"

python3 -m json.tool "$workdir/trace.json" >/dev/null || {
    echo "metrics_smoke: trace dump is not valid JSON" >&2
    exit 1
}
python3 - "$workdir/trace.json" <<'EOF' || exit 1
import collections
import json
import sys

events = json.load(open(sys.argv[1]))["traceEvents"]
starts = [e for e in events if e["ph"] == "s"]
finishes = [e for e in events if e["ph"] == "f"]
linked = {e["id"] for e in starts} & {e["id"] for e in finishes}
assert linked, "no flow pair links a harvest to a resubmit"
for rid in linked:
    src = {e["pid"] for e in starts if e["id"] == rid}
    dst = {e["pid"] for e in finishes if e["id"] == rid}
    assert src and dst and src != dst, f"flow for request {rid} never crossed shards"
first = collections.Counter(
    e["args"]["request"]
    for e in events
    if e["ph"] == "i" and e["name"] == "first_token"
)
dupes = {r: n for r, n in first.items() if n != 1}
assert not dupes, f"first_token not exactly-once: {dupes}"
print(
    f"metrics_smoke: trace ok ({len(events)} events, "
    f"{len(linked)} failover flow(s), first_token exactly-once)"
)
EOF

kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true

# ---- alert phase: the SLO loop end to end over the wire ----
# A queue-depth alert with a 25ms sampling cadence, overload protection and
# the flight recorder armed. A burst of slow requests drives the queue past
# the threshold: the alert must FIRE (fired_total in the scrape), requests
# submitted with hopeless deadlines while engaged must be SHED, a flight
# bundle must land on disk as valid JSON, the kQuery frame must return the
# TSDB tail, and once the burst drains the alert must RESOLVE.
# One shard (4 slots) against 10 sustained clients keeps ~6 requests queued
# for the whole burst — comfortably past the gt:3 threshold at every sample.
mkdir -p "$workdir/flight"
boot_server server_slo --shards 1 \
    --slo "overload=threshold:serve_queued:gt:3:0" \
    --slo-interval-ms 25 --flight-dir "$workdir/flight"
echo "metrics_smoke: slo server up on port $port"

# Warm TTFT so the shed sweep has an estimate to judge hopelessness by.
"$client" --port "$port" --prompt "slo warm" --tokens 4 >"$workdir/slo.out"

burst_pids=""
i=0
while [ "$i" -lt 10 ]; do
    "$client" --port "$port" --prompt "slo burst $i" --count 6 --tokens 64 \
        >>"$workdir/slo.out" 2>&1 &
    burst_pids="$burst_pids $!"
    i=$((i + 1))
done
sleep 0.4  # a few samples with the queue deep: the alert fires, bundle drops

# Hopeless by construction: 50ms of budget is more than a couple of decode
# steps (the deadline sweep won't expire it first) but far less than the
# observed TTFT behind a 6-deep queue. The engaged governor's shed sweep
# must retire these without burning a batch slot.
i=0
while [ "$i" -lt 3 ]; do
    "$client" --port "$port" --prompt "doomed $i" --tokens 32 \
        --deadline-ms 50 >>"$workdir/slo.out" 2>&1 || true
    i=$((i + 1))
done

for pid in $burst_pids; do
    wait "$pid" || true
done

slo_metric() {
    awk -v name="$1" '$1 == name { print $2 }' "$workdir/$2"
}

# The rule reads the series' latest point, which is the mean of the current
# 1 s time-series bucket, so the deep-queue samples of the burst keep the
# alert firing until a bucket of clear samples opens: up to ~1 s after the
# queue drains. Poll the scrape every 0.1 s until the alert has resolved,
# with a 2 s deadline (one bucket plus margin); the checks below judge the
# final scrape.
polls=20
while :; do
    "$client" --port "$port" --metrics >"$workdir/slo_poll.prom"
    resolved=$(slo_metric serve_alerts_resolved_total slo_poll.prom)
    firing_now=$(slo_metric serve_alerts_firing slo_poll.prom)
    [ "$firing_now" = "0" ] && [ "${resolved:-0}" -ge 1 ] && break
    polls=$((polls - 1))
    [ "$polls" -le 0 ] && break
    sleep 0.1
done

"$client" --port "$port" --alerts >"$workdir/alerts.json"
"$client" --port "$port" --query serve_queued --window 60 >"$workdir/query.json"
"$client" --port "$port" --metrics >"$workdir/slo_end.prom"
kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
fired=$(slo_metric serve_alerts_fired_total slo_end.prom)
if [ -z "$fired" ] || [ "$fired" -lt 1 ]; then
    echo "metrics_smoke: alert never fired (serve_alerts_fired_total=$fired)" >&2
    cat "$workdir/slo_end.prom" >&2
    exit 1
fi
shed=$(slo_metric serve_requests_shed slo_end.prom)
if [ -z "$shed" ] || [ "$shed" -lt 1 ]; then
    echo "metrics_smoke: no requests shed under overload (shed=$shed)" >&2
    cat "$workdir/slo_end.prom" >&2
    exit 1
fi
resolved=$(slo_metric serve_alerts_resolved_total slo_end.prom)
firing_now=$(slo_metric serve_alerts_firing slo_end.prom)
if [ -z "$resolved" ] || [ "$resolved" -lt 1 ] || [ "$firing_now" != "0" ]; then
    echo "metrics_smoke: alert never resolved (resolved=$resolved," \
        "firing=$firing_now)" >&2
    cat "$workdir/slo_end.prom" >&2
    exit 1
fi
grep -q '"name":"overload"' "$workdir/alerts.json" || {
    echo "metrics_smoke: kAlerts body missing the rule" >&2
    cat "$workdir/alerts.json" >&2
    exit 1
}
grep -q '"serve_queued"' "$workdir/query.json" || {
    echo "metrics_smoke: kQuery body missing the series" >&2
    cat "$workdir/query.json" >&2
    exit 1
}
bundle=$(ls "$workdir/flight"/flight_*.json 2>/dev/null | head -n 1)
if [ -z "$bundle" ]; then
    echo "metrics_smoke: no flight bundle written on alert firing" >&2
    ls -la "$workdir/flight" >&2 || true
    exit 1
fi
python3 -m json.tool "$bundle" >/dev/null || {
    echo "metrics_smoke: flight bundle is not valid JSON: $bundle" >&2
    exit 1
}
grep -q '"reason"' "$bundle" && grep -q '"tsdb"' "$bundle" || {
    echo "metrics_smoke: flight bundle missing reason/tsdb sections" >&2
    exit 1
}
echo "metrics_smoke: slo ok (alert fired=$fired resolved=$resolved," \
    "shed=$shed, flight bundle $(basename "$bundle") parses)"

echo "metrics_smoke: ok ($requests requests, counters match, body parses," \
    "prefix series truthful, trace dump linked across failover," \
    "slo loop fired/shed/resolved with a flight bundle)"
