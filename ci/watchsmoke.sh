#!/bin/sh
# watchsmoke.sh — end-to-end wormwatchd smoke: start the daemon, replay
# an attack scenario feed through the engine tap, and assert the HTTP
# surface serves its alerts, dictionary and metrics — and, the tap being
# lossless, the same /alerts bytes at two -engine-shards values. Then
# durability, sharding and resharding (stages 2-4). This is the CI gate
# that keeps the daemon's boot path, feed wiring, and JSON endpoints
# honest.
set -eu

ADDR="${WATCHSMOKE_ADDR:-127.0.0.1:8571}"
SCENARIO="${WATCHSMOKE_SCENARIO:-rtbh}"
BIN="$(mktemp -d)/wormwatchd"

go build -o "$BIN" ./cmd/wormwatchd

# dict_after_replay ADDR LOG... prints ADDR's /dict once every LOG has
# logged the scenario replay's completion and two reads further apart
# than the daemon's 500 ms publication heartbeat agree: the second read
# then serves a dictionary published after the replay ended.
dict_after_replay() {
    addr=$1
    shift
    for log in "$@"; do
        i=0
        until grep -q "scenario $SCENARIO success=" "$log"; do
            i=$((i + 1))
            if [ "$i" -ge 300 ]; then
                echo "watchsmoke: replay never finished ($log)" >&2
                cat "$log" >&2
                return 1
            fi
            sleep 0.2
        done
    done
    prev=""
    i=0
    while [ "$i" -lt 30 ]; do
        body=$(curl -fsS "http://$addr/dict")
        if [ -n "$prev" ] && [ "$body" = "$prev" ]; then
            printf '%s' "$body"
            return 0
        fi
        prev="$body"
        i=$((i + 1))
        sleep 0.6
    done
    echo "watchsmoke: /dict on $addr never stabilized" >&2
    return 1
}

LOG1=$(mktemp)
"$BIN" -addr "$ADDR" -scenario "$SCENARIO" 2>"$LOG1" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# Wait for the listener.
i=0
until curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -ge 50 ] && { echo "watchsmoke: daemon never became healthy"; exit 1; }
    sleep 0.2
done

# Wait for the scenario replay to raise alerts.
count=0
i=0
while [ "$i" -lt 150 ]; do
    count=$(curl -fsS "http://$ADDR/alerts" | sed -n 's/.*"count": *\([0-9]*\).*/\1/p' | head -1)
    [ "${count:-0}" -ge 1 ] && break
    i=$((i + 1))
    sleep 0.2
done

echo "== /stats"
curl -fsS "http://$ADDR/stats"
echo "== /healthz"
curl -fsS "http://$ADDR/healthz"

if [ "${count:-0}" -lt 1 ]; then
    echo "watchsmoke: FAIL — no alerts after scenario replay"
    exit 1
fi

# Dictionary endpoints: the same replay must have inferred a community
# dictionary; /dict names the ASes, /dict/{asn} serves one of them.
echo "== /dict/stats"
curl -fsS "http://$ADDR/dict/stats"
comms=$(curl -fsS "http://$ADDR/dict/stats" | sed -n 's/.*"communities": *\([0-9]*\).*/\1/p' | head -1)
if [ "${comms:-0}" -lt 1 ]; then
    echo "watchsmoke: FAIL — dictionary inference produced no communities"
    exit 1
fi
asn=$(curl -fsS "http://$ADDR/dict" | sed -n 's/.*"asn": *\([0-9]*\).*/\1/p' | head -1)
if [ -z "$asn" ]; then
    echo "watchsmoke: FAIL — /dict index lists no ASes"
    exit 1
fi
echo "== /dict/$asn"
curl -fsS "http://$ADDR/dict/$asn" | head -30
# The whole replay's /dict, its first AS's /dict/{asn} and its
# communities count: stage 3 requires the fleet to serve the same.
single_dict=$(dict_after_replay "$ADDR" "$LOG1")
first_asn=$(printf '%s\n' "$single_dict" | sed -n 's/.*"asn": *\([0-9]*\).*/\1/p' | head -1)
single_asdict=$(curl -fsS "http://$ADDR/dict/$first_asn")
single_comms=$(curl -fsS "http://$ADDR/dict/stats" | sed -n 's/.*"communities": *\([0-9]*\).*/\1/p' | head -1)

# Metrics: the Prometheus endpoint must serve the watch/semantics/HTTP
# series, and the watch counters must reflect the replay that just ran.
echo "== /metrics (head)"
metrics=$(curl -fsS "http://$ADDR/metrics")
echo "$metrics" | head -20
for series in watch_ingested_total watch_alerts_total semantics_ingested_total http_requests_total; do
    if ! echo "$metrics" | grep -q "^$series"; then
        echo "watchsmoke: FAIL — /metrics missing series $series"
        exit 1
    fi
done
ingested=$(echo "$metrics" | sed -n 's/^watch_ingested_total \([0-9]*\)$/\1/p')
if [ "${ingested:-0}" -lt 1 ]; then
    echo "watchsmoke: FAIL — watch_ingested_total is zero after scenario replay"
    exit 1
fi

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

# The replay is lossless and the alert set shard-count invariant, so two
# replays at different -engine-shards serve identical /alerts bytes.
# -dict=false: the dictionary detectors read a holder refreshed on a
# wall-clock heartbeat, the determinism contract's one stated exemption.
# replay_alerts N prints /alerts once the daemon has logged the replay's
# completion.
replay_alerts() {
    log=$(mktemp)
    "$BIN" -addr "$ADDR" -scenario "$SCENARIO" -dict=false -engine-shards "$1" 2>"$log" &
    rpid=$!
    i=0
    until grep -q "scenario $SCENARIO success=" "$log"; do
        i=$((i + 1))
        if [ "$i" -ge 150 ]; then
            echo "watchsmoke: replay at -engine-shards $1 never finished" >&2
            cat "$log" >&2
            kill "$rpid" 2>/dev/null || true
            return 1
        fi
        sleep 0.2
    done
    curl -fsS "http://$ADDR/alerts"
    kill "$rpid" 2>/dev/null || true
    wait "$rpid" 2>/dev/null || true
    rm -f "$log"
}
echo "== determinism: the same replay at -engine-shards 1 and 4"
alerts_1=$(replay_alerts 1)
alerts_4=$(replay_alerts 4)
case "$alerts_1" in *'"detector"'*) ;; *)
    echo "watchsmoke: FAIL — the -dict=false replay raised no alerts"
    exit 1 ;;
esac
if [ "$alerts_1" != "$alerts_4" ]; then
    echo "watchsmoke: FAIL — /alerts differs between -engine-shards 1 and 4"
    exit 1
fi
count1=$(printf '%s' "$alerts_1" | sed -n 's/.*"count": *\([0-9]*\).*/\1/p' | head -1)

echo "watchsmoke: stage 1 OK — $count alerts, $comms dictionary communities, $ingested updates scraped from scenario $SCENARIO; $count1 alerts byte-identical at 1 and 4 engine shards"

# ---------------------------------------------------------------------
# Stage 2 — durability: hard-kill the daemon mid-feed, restart it on the
# same WAL directory, and assert recovery converges on a stable alert
# set that a further kill -9 + restart reproduces byte-for-byte (zero
# alert loss through recovery).
ADDR2="${WATCHSMOKE_ADDR2:-127.0.0.1:8572}"
WALDIR=$(mktemp -d)
PID2=""
trap 'kill "$PID2" 2>/dev/null || true; rm -rf "$WALDIR"' EXIT

start_durable() {
    "$BIN" -addr "$ADDR2" -scenario "$SCENARIO" \
        -wal "$WALDIR" -fsync 5ms -snapshot-interval 2s &
    PID2=$!
    i=0
    until curl -fsS "http://$ADDR2/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 50 ] && { echo "watchsmoke: durable daemon never became healthy"; exit 1; }
        sleep 0.2
    done
}

# wait_stable polls $1/alerts until two consecutive reads agree and
# show at least one alert, then prints the stable body.
wait_stable() {
    prev=""
    i=0
    while [ "$i" -lt 150 ]; do
        body=$(curl -fsS "http://$1/alerts")
        if [ -n "$prev" ] && [ "$body" = "$prev" ]; then
            case "$body" in *'"count": 0'*) ;; *) printf '%s' "$body"; return 0 ;; esac
        fi
        prev="$body"
        i=$((i + 1))
        sleep 0.2
    done
    echo "watchsmoke: /alerts never stabilized" >&2
    return 1
}

echo "== durability: start with -wal, kill -9 mid-feed"
start_durable
# Kill as soon as the first alert lands — the feed is still running.
i=0
while [ "$i" -lt 150 ]; do
    c=$(curl -fsS "http://$ADDR2/alerts" | sed -n 's/.*"count": *\([0-9]*\).*/\1/p' | head -1)
    [ "${c:-0}" -ge 1 ] && break
    i=$((i + 1))
    sleep 0.1
done
kill -9 "$PID2"
wait "$PID2" 2>/dev/null || true

echo "== durability: restart 1 — recover + resume the feed"
start_durable
alerts_a=$(wait_stable "$ADDR2")
recovered=$(curl -fsS "http://$ADDR2/durable" | sed -n 's/.*"recovered": *\([0-9]*\).*/\1/p' | head -1)
if [ "${recovered:-0}" -lt 1 ]; then
    echo "watchsmoke: FAIL — restart did not recover from the WAL"
    exit 1
fi
# Let the WAL group-commit absorb the tail, then hard-kill again.
sleep 1
kill -9 "$PID2"
wait "$PID2" 2>/dev/null || true

echo "== durability: restart 2 — recovered state must be byte-identical"
start_durable
alerts_b=$(wait_stable "$ADDR2")
if [ "$alerts_a" != "$alerts_b" ]; then
    echo "watchsmoke: FAIL — alert set changed across kill -9 + recovery"
    exit 1
fi
metrics=$(curl -fsS "http://$ADDR2/metrics")
for series in wal_records_total wal_bytes wal_last_seq durable_seq snapshot_seq durable_snapshots_total; do
    if ! echo "$metrics" | grep -q "^$series"; then
        echo "watchsmoke: FAIL — /metrics missing durability series $series"
        exit 1
    fi
done
kill "$PID2" 2>/dev/null || true
wait "$PID2" 2>/dev/null || true
count2=$(printf '%s' "$alerts_b" | sed -n 's/.*"count": *\([0-9]*\).*/\1/p' | head -1)
echo "watchsmoke: stage 2 OK — $count2 alerts stable across two kill -9 recoveries (recovered seq $recovered)"

# ---------------------------------------------------------------------
# Stage 3 — sharding: two shard daemons on a prefix-range split behind
# the scatter-gather frontend; the merged surface must serve alerts, a
# healthy fleet view, the frontend metrics series, and, once both
# replays are done, the single daemon's /dict bytes.
SADDR0="${WATCHSMOKE_SADDR0:-127.0.0.1:8573}"
SADDR1="${WATCHSMOKE_SADDR1:-127.0.0.1:8574}"
FADDR="${WATCHSMOKE_FADDR:-127.0.0.1:8575}"
SHDIR=$(mktemp -d)
SPID0="" SPID1="" FPID=""
trap 'kill "$SPID0" "$SPID1" "$FPID" 2>/dev/null || true; wait "$SPID0" "$SPID1" "$FPID" 2>/dev/null || true; rm -rf "$WALDIR" "$SHDIR"' EXIT

echo "== sharding: 2 shards + frontend"
"$BIN" -addr "$SADDR0" -scenario "$SCENARIO" -shards 2 -shard-index 0 -wal "$SHDIR/s0" -fsync 5ms 2>"$SHDIR/s0.log" &
SPID0=$!
"$BIN" -addr "$SADDR1" -scenario "$SCENARIO" -shards 2 -shard-index 1 -wal "$SHDIR/s1" -fsync 5ms 2>"$SHDIR/s1.log" &
SPID1=$!
"$BIN" -addr "$FADDR" -frontend "http://$SADDR0,http://$SADDR1" &
FPID=$!
i=0
until curl -fsS "http://$FADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -ge 100 ] && { echo "watchsmoke: frontend never became healthy"; exit 1; }
    sleep 0.2
done
i=0
fcount=0
while [ "$i" -lt 150 ]; do
    fcount=$(curl -fsS "http://$FADDR/alerts" | sed -n 's/.*"count": *\([0-9]*\).*/\1/p' | head -1)
    [ "${fcount:-0}" -ge 1 ] && break
    i=$((i + 1))
    sleep 0.2
done
if [ "${fcount:-0}" -lt 1 ]; then
    echo "watchsmoke: FAIL — frontend served no merged alerts"
    exit 1
fi
healthy=$(curl -fsS "http://$FADDR/healthz" | sed -n 's/.*"shards_healthy": *\([0-9]*\).*/\1/p' | head -1)
if [ "${healthy:-0}" -ne 2 ]; then
    echo "watchsmoke: FAIL — frontend sees $healthy healthy shards, want 2"
    exit 1
fi
fmetrics=$(curl -fsS "http://$FADDR/metrics")
for series in frontend_scatter_seconds frontend_upstream_errors_total http_requests_total; do
    if ! echo "$fmetrics" | grep -q "$series"; then
        echo "watchsmoke: FAIL — frontend /metrics missing series $series"
        exit 1
    fi
done
fleet_dict=$(dict_after_replay "$FADDR" "$SHDIR/s0.log" "$SHDIR/s1.log")
if [ "$fleet_dict" != "$single_dict" ]; then
    echo "watchsmoke: FAIL — the 2-shard frontend's /dict differs from the single daemon's"
    exit 1
fi
if [ "$(curl -fsS "http://$FADDR/dict/$first_asn")" != "$single_asdict" ]; then
    echo "watchsmoke: FAIL — the 2-shard frontend's /dict/$first_asn differs from the single daemon's"
    exit 1
fi
fleet_comms=$(curl -fsS "http://$FADDR/dict/stats" | sed -n 's/.*"communities": *\([0-9]*\).*/\1/p' | head -1)
if [ "${fleet_comms:-x}" != "${single_comms:-y}" ]; then
    echo "watchsmoke: FAIL — the 2-shard frontend's /dict/stats counts $fleet_comms communities, the single daemon $single_comms"
    exit 1
fi

echo "watchsmoke: stage 3 OK — $fcount merged alerts from 2 shards, /dict and /dict/$first_asn byte-identical to one daemon's, $fleet_comms communities"

# ---------------------------------------------------------------------
# Stage 4 — fleet reshaping + replication: capture the stable merged
# surface, stop the 2-shard fleet gracefully (final checkpoints), run
# walreshard 2→3, boot the new fleet feed-less, and require the
# byte-identical merge. Then replicate shard 0 ("url|url"), kill -9 one
# replica, and require the frontend to fail over; kill the whole set
# and require the honest 502 + degraded /healthz.
TADDR0="${WATCHSMOKE_TADDR0:-127.0.0.1:8576}"
TADDR1="${WATCHSMOKE_TADDR1:-127.0.0.1:8577}"
TADDR2="${WATCHSMOKE_TADDR2:-127.0.0.1:8578}"
F2ADDR="${WATCHSMOKE_F2ADDR:-127.0.0.1:8579}"
RADDR="${WATCHSMOKE_RADDR:-127.0.0.1:8580}"
F3ADDR="${WATCHSMOKE_F3ADDR:-127.0.0.1:8581}"
TPID0="" TPID1="" TPID2="" F2PID="" RPID="" F3PID=""
trap 'kill "$SPID0" "$SPID1" "$FPID" "$TPID0" "$TPID1" "$TPID2" "$F2PID" "$RPID" "$F3PID" 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$WALDIR" "$SHDIR"' EXIT

echo "== resharding: capture, graceful stop, walreshard 2 -> 3"
pre=$(wait_stable "$FADDR")
kill "$SPID0" "$SPID1" 2>/dev/null || true
wait "$SPID0" "$SPID1" 2>/dev/null || true
kill "$FPID" 2>/dev/null || true
wait "$FPID" 2>/dev/null || true

RBIN="${BIN%/*}/walreshard"
go build -o "$RBIN" ./cmd/walreshard
mkdir -p "$SHDIR/t0" "$SHDIR/t1" "$SHDIR/t2"
"$RBIN" -from "$SHDIR/s0,$SHDIR/s1" -to "$SHDIR/t0,$SHDIR/t1,$SHDIR/t2"

# The new fleet boots with no feed at all: recovery is the only source.
"$BIN" -addr "$TADDR0" -shards 3 -shard-index 0 -wal "$SHDIR/t0" &
TPID0=$!
"$BIN" -addr "$TADDR1" -shards 3 -shard-index 1 -wal "$SHDIR/t1" &
TPID1=$!
"$BIN" -addr "$TADDR2" -shards 3 -shard-index 2 -wal "$SHDIR/t2" &
TPID2=$!
"$BIN" -addr "$F2ADDR" -frontend "http://$TADDR0,http://$TADDR1,http://$TADDR2" &
F2PID=$!
i=0
until healthy=$(curl -fsS "http://$F2ADDR/healthz" 2>/dev/null | sed -n 's/.*"shards_healthy": *\([0-9]*\).*/\1/p' | head -1) \
    && [ "${healthy:-0}" -eq 3 ]; do
    i=$((i + 1))
    [ "$i" -ge 100 ] && { echo "watchsmoke: FAIL — resharded fleet never became healthy"; exit 1; }
    sleep 0.2
done
post=$(curl -fsS "http://$F2ADDR/alerts")
if [ "$pre" != "$post" ]; then
    echo "watchsmoke: FAIL — resharded fleet /alerts diverged from the pre-reshard capture"
    exit 1
fi
kill "$F2PID" 2>/dev/null || true
wait "$F2PID" 2>/dev/null || true

echo "== replication: shard 0 replica set, kill -9 one replica"
cp -r "$SHDIR/t0" "$SHDIR/t0b"
"$BIN" -addr "$RADDR" -shards 3 -shard-index 0 -wal "$SHDIR/t0b" &
RPID=$!
"$BIN" -addr "$F3ADDR" -frontend "http://$TADDR0|http://$RADDR,http://$TADDR1,http://$TADDR2" &
F3PID=$!
i=0
until healthy=$(curl -fsS "http://$F3ADDR/healthz" 2>/dev/null | sed -n 's/.*"shards_healthy": *\([0-9]*\).*/\1/p' | head -1) \
    && [ "${healthy:-0}" -eq 3 ]; do
    i=$((i + 1))
    [ "$i" -ge 100 ] && { echo "watchsmoke: FAIL — replicated fleet never became healthy"; exit 1; }
    sleep 0.2
done
# The range is healthy as soon as one replica answers; the kill below
# needs the other one up too.
i=0
until curl -fsS "http://$RADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -ge 100 ] && { echo "watchsmoke: FAIL — replica never became healthy"; exit 1; }
    sleep 0.2
done
kill -9 "$TPID0"
wait "$TPID0" 2>/dev/null || true
r=$(curl -fsS "http://$F3ADDR/alerts")
if [ "$r" != "$pre" ]; then
    echo "watchsmoke: FAIL — /alerts changed (or failed) after killing one replica"
    exit 1
fi
failovers=$(curl -fsS "http://$F3ADDR/metrics" | sed -n 's/^frontend_failover_total \([0-9]*\).*/\1/p' | head -1)
if [ "${failovers:-0}" -lt 1 ]; then
    echo "watchsmoke: FAIL — replica kill not counted by frontend_failover_total"
    exit 1
fi
hcode=$(curl -s -o /dev/null -w '%{http_code}' "http://$F3ADDR/healthz")
if [ "$hcode" != "200" ]; then
    echo "watchsmoke: FAIL — /healthz $hcode with one replica still up, want 200"
    exit 1
fi

# Whole set down: no silent partial merge.
kill -9 "$RPID"
wait "$RPID" 2>/dev/null || true
acode=$(curl -s -o /dev/null -w '%{http_code}' "http://$F3ADDR/alerts")
hcode=$(curl -s -o /dev/null -w '%{http_code}' "http://$F3ADDR/healthz")
if [ "$acode" != "502" ] || [ "$hcode" != "503" ]; then
    echo "watchsmoke: FAIL — whole replica set down: /alerts $acode (want 502), /healthz $hcode (want 503)"
    exit 1
fi

echo "watchsmoke: OK — stage 1 ($count alerts), stage 2 ($count2 alerts through recovery), stage 3 ($fcount merged alerts from 2 shards, /dict as one daemon's), stage 4 (2->3 reshard byte-identical, replica failover with $failovers failover(s))"
