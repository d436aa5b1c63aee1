#!/usr/bin/env bash
# Crash-durability smoke test of the continuous trace pipeline
# (docs/observability.md):
#
#   1. start cedr_daemon with --trace-dir and a fast flush interval,
#   2. submit the example IPC application and let a few flushes land,
#   3. SIGKILL the daemon mid-run — no shutdown path, no final flush,
#   4. assert the rotated `.cbt` segments on disk still convert: every
#      flushed segment parses (CRC-clean), stitches into a monotonic
#      stream, and exports Chrome trace-event JSON that brackets the run;
#   5. assert the offline report (the daemon's only execution log) from
#      the same segments summarizes both apps and every PE, and renders one
#      Gantt row per PE.
#
# This is the property the binary segment format exists for: a crashed or
# wedged daemon leaves a usable trace up to the last completed flush,
# unlike the shutdown-time --trace-out export which dies with the process.
#
# usage: run_trace_pipeline_smoke.sh [BUILD_DIR]   (default: ./build)
set -euo pipefail

BUILD_DIR="${1:-build}"
DAEMON="$BUILD_DIR/tools/cedr_daemon"
SUBMIT="$BUILD_DIR/tools/cedr_submit"
REPORT="$BUILD_DIR/tools/cedr_trace_report"
APP_SO="$BUILD_DIR/examples/libipc_app.so"

for f in "$DAEMON" "$SUBMIT" "$REPORT" "$APP_SO"; do
  if [ ! -e "$f" ]; then
    echo "missing $f (build the tree first)" >&2
    exit 1
  fi
done

WORK_DIR="$(mktemp -d)"
SOCK="$WORK_DIR/cedr.sock"
TRACE_DIR="$WORK_DIR/traces"
DAEMON_LOG="$WORK_DIR/daemon.log"
DAEMON_PID=""
cleanup() {
  if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -9 "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

# Small segments + fast flushing so several flushes complete quickly.
"$DAEMON" "$SOCK" --platform zcu102 --metrics-interval 0.05 \
    --trace-dir "$TRACE_DIR" --trace-flush-interval 0.05 \
    --trace-segment-events 256 >"$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.05
done
[ -S "$SOCK" ] || { echo "daemon never opened $SOCK" >&2; cat "$DAEMON_LOG" >&2; exit 1; }

"$SUBMIT" "$SOCK" submit "$APP_SO" crash_pd
"$SUBMIT" "$SOCK" submit "$APP_SO" crash_tx
"$SUBMIT" "$SOCK" wait

# Give the flusher time to drain the completed work, then pull the plug.
sleep 0.3
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

# The segments the flusher managed to write must convert without the
# daemon ever having run its shutdown path.
ls -l "$TRACE_DIR" >&2
SUMMARY="$("$REPORT" --from-segments "$TRACE_DIR" --chrome "$WORK_DIR/chrome.json")"
echo "$SUMMARY"
case "$SUMMARY" in
  *"segments"*"events"*"chrome trace written"*) ;;
  *) echo "unexpected report output" >&2; exit 1 ;;
esac

python3 - "$WORK_DIR/chrome.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "no events survived the crash"
named = [e for e in events if e.get("ph") == "X"]
assert named, "no complete spans survived the crash"
names = {e["name"] for e in events}
assert "runtime_start" in names, "missing runtime_start instant"
# Worker spans from the submitted apps must have been flushed before the
# SIGKILL (both apps completed and a flush interval elapsed).
cats = {e.get("cat") for e in named}
assert "worker" in cats, f"no worker spans flushed before SIGKILL: {sorted(cats)}"
# Per-track monotonicity survives stitching.
last = {}
for e in events:
    if e.get("ph") != "X":
        continue
    key = (e["pid"], e["tid"])
    assert e["ts"] >= last.get(key, -1), f"non-monotonic track {key}"
    last[key] = e["ts"]
print("crash durability ok: %d events, %d complete spans" % (len(events), len(named)))
EOF

# The offline report from the same segments: per-app and per-PE summary
# lines, and a Gantt chart with exactly one 80-column row per PE.
"$REPORT" --from-segments "$TRACE_DIR" --gantt 80 >"$WORK_DIR/report.txt"
cat "$WORK_DIR/report.txt"
python3 - "$WORK_DIR/report.txt" <<'EOF'
import re, sys
lines = open(sys.argv[1]).read().splitlines()
def section(title):
    out = []
    for line in lines[lines.index(title) + 1:]:
        if not line.startswith("  "):
            break
        out.append(line)
    return out
apps = [l for l in section("applications (by arrival)")
        if re.match(r"  #\d+ \S+: arrival ", l)]
names = {l.split()[1].rstrip(":") for l in apps}
assert names >= {"crash_pd", "crash_tx"}, f"per-app lines: {apps}"
pes = [l.split(":")[0].strip() for l in section("processing elements")
       if " tasks, busy " in l]
assert pes, "no per-PE summary lines"
rows = [l for l in section("gantt (task placement over time)")
        if re.match(r"  \S+\s*\|[^|]{80}\|$", l)]
row_pes = [l.split("|")[0].strip() for l in rows]
assert sorted(row_pes) == sorted(pes), f"gantt rows {row_pes} != PEs {pes}"
print(f"offline report ok: {len(apps)} apps, {len(pes)} PEs, "
      f"{len(rows)} gantt rows")
EOF

echo "trace pipeline smoke passed"
