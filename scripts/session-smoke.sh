#!/bin/sh
# session-smoke: end-to-end gate for the live-session subsystem
# (make session-smoke).
#
# Boots a real ppmserved on an ephemeral port and drives the session API with
# ppmctl:
#   1. creates a PPM-hyb session and trains it over a real predict stream;
#   2. downloads the trained snapshot and restores it into a second, fresh
#      session; re-downloading that session's state must return the snapshot
#      byte-for-byte;
#   3. restores the snapshot into a session of another family and a
#      byte-flipped copy into a fresh PPM-hyb session: ppmctl must exit
#      non-zero on the 409 (configuration mismatch) and the 400 (corrupt
#      snapshot) — the typed restore failures, proven through the daemon;
#   4. streams the same continuation run through both sessions: the NDJSON
#      prediction streams (session ids blanked) and the final snapshots must
#      be byte-identical — the warm-start contract, proven over a real
#      socket rather than in-process;
#   5. checks the stats surface counted the sessions, saves, loads, rejected
#      snapshots and streamed records;
#   6. SIGTERMs the daemon with both sessions live: the drain must complete
#      cleanly (exit 0, "draining"/"stopped" on stderr).
set -eu

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
pid=""
cleanup() {
    if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/ppmserved" ./cmd/ppmserved
go build -o "$tmp/ppmctl" ./cmd/ppmctl

"$tmp/ppmserved" -addr 127.0.0.1:0 -drain-timeout 60s 2>"$tmp/served.log" &
pid=$!

addr=""
i=0
while [ $i -lt 100 ]; do
    addr="$(sed -n 's/^ppmserved: listening on //p' "$tmp/served.log")"
    if [ -n "$addr" ]; then break; fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "session-smoke: ppmserved died at startup:" >&2
        cat "$tmp/served.log" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "session-smoke: ppmserved did not report an address" >&2
    cat "$tmp/served.log" >&2
    exit 1
fi
server="http://$addr"
echo "session-smoke: ppmserved up at $server"

sid() { sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$1" | head -n 1; }

# 1. Create a session and train it over a real predict stream.
"$tmp/ppmctl" -server "$server" session create -predictor PPM-hyb >"$tmp/a.json"
a="$(sid "$tmp/a.json")"
if [ -z "$a" ]; then
    echo "session-smoke: no session id in create response:" >&2
    cat "$tmp/a.json" >&2
    exit 1
fi
"$tmp/ppmctl" -server "$server" session predict -workload troff.ped -events 600 "$a" >"$tmp/a-train.ndjson"
if ! grep -q '"type":"done"' "$tmp/a-train.ndjson"; then
    echo "session-smoke: training stream ended without a done event" >&2
    tail -n 3 "$tmp/a-train.ndjson" >&2
    exit 1
fi

# 2. Snapshot the trained session and restore it into a fresh one; the
#    restored session's re-downloaded state must be the snapshot, exactly.
"$tmp/ppmctl" -server "$server" session state -o "$tmp/a.state" "$a"
"$tmp/ppmctl" -server "$server" session create -predictor PPM-hyb >"$tmp/b.json"
b="$(sid "$tmp/b.json")"
"$tmp/ppmctl" -server "$server" session restore "$b" "$tmp/a.state" >/dev/null
"$tmp/ppmctl" -server "$server" session state -o "$tmp/b.state" "$b"
if ! cmp -s "$tmp/a.state" "$tmp/b.state"; then
    echo "session-smoke: restored session's state differs from the uploaded snapshot" >&2
    exit 1
fi

# 3. Typed restore failures: the PPM-hyb snapshot into a BTB session is a
#    configuration mismatch (HTTP 409); a copy with one payload byte flipped
#    fails its section CRC (HTTP 400). Both sessions are closed afterwards,
#    since a failed restore leaves a session partially overwritten.
expect_restore_fail() { # session-id snapshot-file http-status
    rc=0
    "$tmp/ppmctl" -server "$server" session restore "$1" "$2" >/dev/null 2>"$tmp/restore.err" || rc=$?
    if [ "$rc" -eq 0 ] || ! grep -q "HTTP $3" "$tmp/restore.err"; then
        echo "session-smoke: restoring $2 exited $rc, want a failure naming HTTP $3:" >&2
        cat "$tmp/restore.err" >&2
        exit 1
    fi
}
"$tmp/ppmctl" -server "$server" session create -predictor BTB >"$tmp/c.json"
c="$(sid "$tmp/c.json")"
expect_restore_fail "$c" "$tmp/a.state" 409
cp "$tmp/a.state" "$tmp/flipped.state"
off=12 # inside the first section's payload, past its id and length
byte="$(od -An -tu1 -j $off -N1 "$tmp/a.state" | tr -d ' ')"
printf "\\$(printf %o $((byte ^ 0x41)))" | dd of="$tmp/flipped.state" bs=1 seek=$off conv=notrunc 2>/dev/null
if cmp -s "$tmp/a.state" "$tmp/flipped.state"; then
    echo "session-smoke: the flipped snapshot equals the original" >&2
    exit 1
fi
"$tmp/ppmctl" -server "$server" session create -predictor PPM-hyb >"$tmp/d.json"
d="$(sid "$tmp/d.json")"
expect_restore_fail "$d" "$tmp/flipped.state" 400
for s in "$c" "$d"; do
    "$tmp/ppmctl" -server "$server" session close "$s" >/dev/null
done

# 4. Identical continuation: the same run streamed through the original and
#    the restored session must produce byte-identical prediction streams
#    (ids blanked) and byte-identical final snapshots.
for s in "$a" "$b"; do
    "$tmp/ppmctl" -server "$server" session predict -workload eqn -events 400 "$s" \
        | sed 's/"id":"[^"]*"/"id":""/' >"$tmp/cont-$s.ndjson"
done
if ! diff -u "$tmp/cont-$a.ndjson" "$tmp/cont-$b.ndjson"; then
    echo "session-smoke: restored session's predictions diverge from the original's" >&2
    exit 1
fi
"$tmp/ppmctl" -server "$server" session state -o "$tmp/a2.state" "$a"
"$tmp/ppmctl" -server "$server" session state -o "$tmp/b2.state" "$b"
if ! cmp -s "$tmp/a2.state" "$tmp/b2.state"; then
    echo "session-smoke: final snapshots diverged after the continuation" >&2
    exit 1
fi

# 5. The stats surface counted the session traffic.
"$tmp/ppmctl" -server "$server" stats >"$tmp/stats.json"
for want in '"sessions_created":4' '"live_sessions":2' '"state_loads":1' '"state_saves":4' '"bad_state":2'; do
    if ! grep -q "$want" "$tmp/stats.json"; then
        echo "session-smoke: /statsz missing $want:" >&2
        cat "$tmp/stats.json" >&2
        exit 1
    fi
done
if grep -q '"predict_records":0,' "$tmp/stats.json"; then
    echo "session-smoke: /statsz counted no streamed records" >&2
    exit 1
fi

# 6. Graceful shutdown with both sessions live.
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" -ne 0 ]; then
    echo "session-smoke: drain exited $rc (want 0):" >&2
    cat "$tmp/served.log" >&2
    exit 1
fi
for want in draining stopped; do
    if ! grep -q "$want" "$tmp/served.log"; then
        echo "session-smoke: shutdown log missing \"$want\":" >&2
        cat "$tmp/served.log" >&2
        exit 1
    fi
done

echo "session-smoke: OK"
