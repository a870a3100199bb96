#!/usr/bin/env bash
#
# cobra_serve end-to-end smoke: the CI leg of docs/SERVICE.md's
# robustness claims. Exercises, against a real daemon process:
#
#   1. a mixed spool: a healthy grid, a fault-injected grid, and an
#      invalid request — per-point records, schema-valid result and
#      status documents, explicit rejection;
#   2. graceful drain: SIGTERM mid-run exits 0 with a checkpointed
#      journal and a "stopped" status document;
#   3. crash recovery: kill -9 mid-run, restart on the same spool,
#      and verify the journaled points were republished verbatim
#      rather than re-simulated.
#
# Usage: tools/serve_smoke.sh [path-to-cobra_serve]
set -euo pipefail

SERVE="${1:-build/tools/cobra_serve}"
CHECK="$(dirname "$0")/check_stats_schema.py"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/cobra_serve_smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

say() { printf '\n=== %s ===\n' "$*"; }
die() { printf 'serve_smoke: FAIL: %s\n' "$*" >&2; exit 1; }

submit() { # submit <spool> <name> <json-text>
    printf '%s' "$3" > "$1/incoming/$2.tmp"
    mv "$1/incoming/$2.tmp" "$1/incoming/$2"
}

wait_for_point() { # wait_for_point <spool>: a point is journaled
    for _ in $(seq 1 1000); do
        grep -qs '"ev": "point"' "$1/journal.log" && return 0
        sleep 0.02
    done
    return 1
}

# ---------------------------------------------------------------------
say "leg 1: mixed spool, --once drain"
S1="$WORK/spool1"
mkdir -p "$S1/incoming"

submit "$S1" healthy.json '{
  "id": "healthy", "client": "ci", "priority": 2,
  "designs": ["tagel", "b2"], "workloads": ["leela"],
  "insts": 30000, "warmup": 5000}'
submit "$S1" faulty.json '{
  "id": "faulty", "client": "ci",
  "designs": ["b2"], "workloads": ["x264"],
  "insts": 30000, "warmup": 5000,
  "fault_rate": 1e-4, "fault_seed": 7}'
# Unknown design: must become an explicit rejection, not silence.
submit "$S1" invalid.json '{
  "id": "invalid", "client": "ci",
  "designs": ["warpcore"], "workloads": ["leela"]}'

"$SERVE" --spool "$S1" --jobs 2 --once --verbose

[ -f "$S1/done/healthy.json" ]    || die "healthy request not retired to done/"
[ -f "$S1/done/faulty.json" ]     || die "faulty request not retired to done/"
[ -f "$S1/failed/invalid.json" ]  || die "invalid request not moved to failed/"

python3 "$CHECK" --kind serve-result "$S1/results/healthy.json"
python3 "$CHECK" --kind serve-result "$S1/results/faulty.json"
python3 "$CHECK" --kind serve-result "$S1/results/invalid.json"
python3 "$CHECK" --kind serve-status "$S1/status.json"

python3 - "$S1" <<'EOF'
import json, sys
root = sys.argv[1]
healthy = json.load(open(f"{root}/results/healthy.json"))
assert healthy["status"] == "ok", healthy["status"]
labels = [p["label"] for p in healthy["points"]]
assert labels == ["TAGE-L/leela", "B2/leela"], labels
assert all(p["status"] == "ok" and p["attempts"] == 1
           for p in healthy["points"])
faulty = json.load(open(f"{root}/results/faulty.json"))
assert faulty["points"][0]["faults_injected"] > 0, "no faults injected"
invalid = json.load(open(f"{root}/results/invalid.json"))
assert invalid["status"] == "rejected", invalid["status"]
assert invalid["reason"] == "invalid_request", invalid["reason"]
assert "design" in invalid["detail"], invalid["detail"]
status = json.load(open(f"{root}/status.json"))
assert status["state"] == "stopped" and status["retired"] == 2, status
counters = status["stats"]["serve"]["counters"]
assert counters["accepted"] == 2 and counters["rejected"] == 1, counters
assert counters["points_ok"] == 3, counters
print("leg 1 OK: 2 retired, 1 rejected, 3 points ok")
EOF

# ---------------------------------------------------------------------
say "leg 2: SIGTERM graceful drain"
S2="$WORK/spool2"
mkdir -p "$S2/incoming"
# Requests run one at a time, 12 points each on 2 workers. SIGTERM
# goes out once the first point is journaled: the running request
# still has points that have not started, so the drain interrupts it
# however fast the host is.
for i in 1 2 3 4; do
    submit "$S2" "drain$i.json" '{
      "id": "drain'"$i"'", "client": "ci",
      "designs": ["tagel", "b2", "tourney", "refbig"],
      "workloads": ["leela", "x264", "gcc"],
      "insts": 200000, "warmup": 5000}'
done

"$SERVE" --spool "$S2" --jobs 2 --poll-ms 50 &
PID=$!
wait_for_point "$S2" || die "no point completed before the drain"
kill -TERM "$PID"
if ! wait "$PID"; then die "daemon exited non-zero on SIGTERM"; fi

python3 "$CHECK" --kind serve-status "$S2/status.json"
python3 - "$S2" <<'EOF'
import json, sys
status = json.load(open(f"{sys.argv[1]}/status.json"))
assert status["state"] == "stopped", status["state"]
assert status["parked"] >= 1, f"drain interrupted nothing: {status}"
print(f"leg 2 OK: clean drain, retired={status['retired']}, "
      f"parked={status['parked']}")
EOF
[ -s "$S2/journal.log" ] || die "drain left no checkpointed journal"

# ---------------------------------------------------------------------
say "leg 3: kill -9, restart, journal recovery"
S3="$WORK/spool3"
mkdir -p "$S3/incoming"
# A long grid: the hard kill lands while later points still run, so
# the journal holds completed points the restart must NOT redo.
submit "$S3" recover.json '{
  "id": "recover", "client": "ci",
  "designs": ["tagel", "b2", "tourney"],
  "workloads": ["leela", "x264"],
  "insts": 120000, "warmup": 5000}'

"$SERVE" --spool "$S3" --jobs 1 --poll-ms 50 &
PID=$!
wait_for_point "$S3" || die "no point completed before the hard kill"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

JOURNALED=$(grep -c '"ev": "point"' "$S3/journal.log")
[ -f "$S3/active/recover.json" ] || die "request not left in active/"

"$SERVE" --spool "$S3" --jobs 2 --once --verbose

[ -f "$S3/done/recover.json" ] || die "restart did not retire the request"
python3 "$CHECK" --kind serve-result "$S3/results/recover.json"
python3 - "$S3" "$JOURNALED" <<'EOF'
import json, sys
root, journaled = sys.argv[1], int(sys.argv[2])
doc = json.load(open(f"{root}/results/recover.json"))
assert doc["status"] == "ok", doc["status"]
assert len(doc["points"]) == 6, len(doc["points"])
assert all(p["status"] == "ok" for p in doc["points"])
status = json.load(open(f"{root}/status.json"))
recovered = status["stats"]["serve"]["counters"]["recovered_points"]
assert recovered == journaled, (recovered, journaled)
assert recovered >= 1, "journal recovery replayed nothing"
print(f"leg 3 OK: {recovered} journaled points replayed, "
      f"{6 - recovered} re-run after restart")
EOF

say "serve_smoke: all legs passed"
