#!/bin/sh
# service_smoke.sh drives the end-to-end service smoke test:
#
#   1. build asyncnocd and the servicesmoke client
#   2. start asyncnocd on an ephemeral port with a temp cache dir
#   3. submit the same Fig.6a-point job twice, then the same job on a
#      4x4 mesh twice (servicesmoke asserts each second response is a
#      cache hit served in < 10ms)
#   4. SIGTERM the server and assert a clean drain (exit 0, store flushed)
#   5. restart over the same cache dir and assert both hits survive the
#      restart (persistence, not just the in-memory memo)
set -eu

GO=${GO:-go}
BIN=bin
LOG="$BIN/asyncnocd_smoke.log"

mkdir -p "$BIN"
$GO build -o "$BIN/asyncnocd" ./cmd/asyncnocd
$GO build -o "$BIN/servicesmoke" ./examples/servicesmoke

CACHE=$(mktemp -d)
SRV_PID=
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$CACHE"
}
trap cleanup EXIT

start_server() {
    : >"$LOG"
    "$BIN/asyncnocd" -addr 127.0.0.1:0 -cache-dir "$CACHE" 2>>"$LOG" &
    SRV_PID=$!
    ADDR=
    i=0
    while [ $i -lt 100 ]; do
        ADDR=$(sed -n 's/.*serving on \([^ ]*\).*/\1/p' "$LOG" | head -n 1)
        [ -n "$ADDR" ] && return 0
        i=$((i + 1))
        sleep 0.1
    done
    echo "service-smoke: server never reported its address" >&2
    cat "$LOG" >&2
    exit 1
}

stop_server() {
    kill -TERM "$SRV_PID"
    RC=0
    wait "$SRV_PID" || RC=$?
    SRV_PID=
    if [ "$RC" -ne 0 ]; then
        echo "service-smoke: server exited $RC on SIGTERM, want 0" >&2
        cat "$LOG" >&2
        exit 1
    fi
    if ! grep -q "clean drain" "$LOG"; then
        echo "service-smoke: no clean-drain line in the server log" >&2
        cat "$LOG" >&2
        exit 1
    fi
}

start_server
"$BIN/servicesmoke" -server "http://$ADDR"
stop_server

# Fresh process over the same cache dir: the hit must come from disk.
start_server
"$BIN/servicesmoke" -server "http://$ADDR" -expect-warm
stop_server

echo "service-smoke: OK (MoT and mesh jobs: cold run, warm hit, clean drain, warm across restart)"
