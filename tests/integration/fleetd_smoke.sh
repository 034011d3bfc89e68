#!/usr/bin/env bash
# Multi-process deployment smoke test (docs/DEPLOYMENT.md): launches 4 fleetd
# processes over loopback UDP running tests/integration/fleetd_smoke.scn (an
# 8-node monitored Chord fleet, 2 nodes per process), then asserts from the
# per-process stats reports that
#   - the best-successor pointers form one cycle over all 8 nodes,
#   - no reliable tuple was shed under overload (shed_reliable == 0),
#   - envelope batching did real work (> 1 tuple per datagram),
# and prints each process's pump timer lateness (timer_lag_p50_us / _p99_us),
# failing if a report lacks either field. The lateness has no bound here: the
# CI runner is shared, so its wakes say little about the code.
#
# Usage: tests/integration/fleetd_smoke.sh <path-to-fleetd> [workdir]
set -u

FLEETD=${1:?usage: fleetd_smoke.sh <path-to-fleetd> [workdir]}
WORK=${2:-$(mktemp -d)}
PROFILE="$(cd "$(dirname "$0")" && pwd)/fleetd_smoke.scn"
PORT=${FLEETD_SMOKE_PORT:-19764}
PROCS=4

mkdir -p "$WORK"
pids=()
for i in $(seq 1 $((PROCS - 1))); do
  "$FLEETD" --profile "$PROFILE" --procs $PROCS --index "$i" \
    --seed "127.0.0.1:$PORT" --stats-out "$WORK/stats_$i.json" \
    > "$WORK/proc_$i.log" 2>&1 &
  pids+=($!)
done
"$FLEETD" --profile "$PROFILE" --procs $PROCS --index 0 \
  --listen "127.0.0.1:$PORT" --stats-out "$WORK/stats_0.json" \
  > "$WORK/proc_0.log" 2>&1
status=$?

fail=0
if [ $status -ne 0 ]; then
  echo "FAIL: seed process exited $status"
  fail=1
fi
for pid in "${pids[@]}"; do
  if ! wait "$pid"; then
    echo "FAIL: a joiner process exited non-zero"
    fail=1
  fi
done
if [ $fail -ne 0 ]; then
  for i in $(seq 0 $((PROCS - 1))); do
    echo "--- proc $i"; cat "$WORK/proc_$i.log"
  done
  exit 1
fi

python3 - "$WORK" $PROCS <<'EOF'
import json, sys
work, procs = sys.argv[1], int(sys.argv[2])
succ, shed, envelopes, datagrams = {}, 0, 0, 0
ok = True
for i in range(procs):
    report = json.load(open(f"{work}/stats_{i}.json"))
    lag = [report.get(f"timer_lag_{q}_us") for q in ("p50", "p99")]
    if None in lag:
        print(f"FAIL: process {i} reports no timer_lag_p50_us / timer_lag_p99_us")
        ok = False
    else:
        print(f"process {i}: timer lag p50 {lag[0]} us, p99 {lag[1]} us")
    shed += report["shed_reliable"]
    envelopes += report["envelopes_sent"]
    datagrams += report["datagrams_sent"]
    for node in report["nodes"]:
        succ[node["addr"]] = node["best_succ"]
cur, seen = "n0", []
while cur in succ and cur not in seen:
    seen.append(cur)
    cur = succ[cur]
if cur != "n0" or len(seen) != len(succ):
    print(f"FAIL: successor pointers do not form one {len(succ)}-cycle: "
          f"{' -> '.join(seen)} -> {cur}")
    ok = False
if shed != 0:
    print(f"FAIL: shed_reliable = {shed}, expected 0")
    ok = False
ratio = envelopes / datagrams if datagrams else 0.0
if ratio <= 1.0:
    print(f"FAIL: batching ratio {ratio:.2f} <= 1 tuple/datagram")
    ok = False
if ok:
    print(f"OK: {len(succ)}-node ring converged across {procs} processes, "
          f"shed_reliable=0, batching {ratio:.2f} envelopes/datagram")
sys.exit(0 if ok else 1)
EOF
