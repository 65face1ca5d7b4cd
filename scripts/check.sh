#!/usr/bin/env bash
# CI check: tier-1 verify (full build + ctest, see ROADMAP.md) followed by
# an ASan smoke pass — a sanitized build of the observability suite plus a
# `spectra scenarios` smoke run, catching memory bugs in the trace/metrics
# hot paths that the plain build would miss — and a TSan smoke of the batch
# runner: the exec suite (thread pool, concurrent logging, metrics merge,
# batch determinism), the island-executor suite, and multi-worker CLI runs
# including a multi-island fleet (3 islands on 4 workers), catching data
# races in the parallel fan-out and the island barrier protocol that
# neither the plain nor the ASan build can see.
# A serve-chaos stage then gates the daemon's survivability: a wire-chaos
# soak with self-healing clients (every shed/timeout/drop must reconcile
# between stats JSON and trace lines), and a kill -9 → --resume crash
# recovery whose combined record must be byte-identical to an
# uninterrupted run. A UBSan smoke then drives the fault paths (chaos +
# journal suites and a small CLI soak), and a ~25-plan chaos soak across
# all three applications follows. Perf smokes gate the decision hot path
# and fleet throughput against scripts/perf_baseline.json floors, and a
# memory smoke gates the 100k-client world's peak RSS against the
# fleet_mem_ceiling bytes-per-client ceiling.
#
# Usage: scripts/check.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

# start_daemon LOG [SERVE-FLAG...]: start `spectra serve --port=0` in the
# background with its output in LOG, wait for it to listen, and set
# SERVE_PID and PORT — or print LOG and fail.
start_daemon() {
  local log="$1"
  shift
  "$BUILD/src/cli/spectra" serve --port=0 "$@" > "$log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    grep -q "listening on" "$log" 2>/dev/null && break
    sleep 0.1
  done
  PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")
  [ -n "$PORT" ] || { echo "serve daemon failed to start:" >&2
                      cat "$log" >&2; exit 1; }
}

echo "== tier-1: configure + build =="
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$(nproc)"

echo "== tier-1: ctest =="
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

echo "== serve smoke =="
# A real daemon on loopback: 64 concurrent nullop loadgen sessions and 4 of
# each simulated app, their record replayed byte-identically over the wire
# and in-process, a clean SIGINT shutdown (sinks flushed, exit 130), and a
# nullop throughput gate against serve_floor in scripts/perf_baseline.json.
SERVE_TMP="$(mktemp -d)"
trap 'rm -rf "$SERVE_TMP"' EXIT
start_daemon "$SERVE_TMP/serve.log" --record="$SERVE_TMP/rec.jsonl"
"$BUILD/src/cli/spectra" loadgen --port="$PORT" --clients=64 --ops=4 \
    --json="$SERVE_TMP/loadgen.json" >/dev/null
for app in speech latex pangloss; do
  "$BUILD/src/cli/spectra" loadgen --port="$PORT" --app="$app" --clients=4 \
      --ops=4 >/dev/null
done
cp "$SERVE_TMP/rec.jsonl" "$SERVE_TMP/rec_snapshot.jsonl"
"$BUILD/src/cli/spectra" replay "$SERVE_TMP/rec_snapshot.jsonl" --port="$PORT" >/dev/null
kill -INT "$SERVE_PID"
SERVE_RC=0; wait "$SERVE_PID" || SERVE_RC=$?
[ "$SERVE_RC" -eq 130 ] || { echo "serve daemon exit $SERVE_RC != 130 on SIGINT" >&2
                             cat "$SERVE_TMP/serve.log" >&2; exit 1; }
grep -q "shut down (signal)" "$SERVE_TMP/serve.log" || {
  echo "serve daemon did not report signal shutdown" >&2; exit 1; }
"$BUILD/src/cli/spectra" replay "$SERVE_TMP/rec_snapshot.jsonl" >/dev/null
python3 - "$SERVE_TMP/loadgen.json" <<'PYEOF'
import json, sys
cur = json.load(open(sys.argv[1]))
floor = json.load(open('scripts/perf_baseline.json'))['serve_floor']
got = cur['requests_per_sec']
limit = floor['requests_per_sec'] * 0.9
status = 'ok' if got >= limit else 'REGRESSION'
print(f"  serve_64: {got:.0f} requests/s (floor*0.9 = {limit:.0f}) {status}")
sys.exit(0 if got >= limit else 1)
PYEOF

echo "== serve chaos + crash recovery =="
# Survivability gates for the daemon. First a chaos soak: self-healing
# loadgen clients mangle their own frames (delays, splits, slowloris
# stalls, corrupt headers, RST aborts) against a daemon with deadlines
# armed — every op must complete exactly once, the daemon must exit
# cleanly on SIGINT, and every shed/timeout/close/drop it performed must
# be accounted in both its stats JSON and the lifecycle trace lines.
start_daemon "$SERVE_TMP/chaos_serve.log" \
    --record="$SERVE_TMP/chaos_wal.jsonl" \
    --idle-timeout=1.5 --frame-timeout=1.0 \
    --stats-json="$SERVE_TMP/chaos_stats.json"
"$BUILD/src/cli/spectra" loadgen --port="$PORT" --clients=6 --ops=8 \
    --seed=31 --chaos=1.5 --json="$SERVE_TMP/chaos_loadgen.json" \
    > "$SERVE_TMP/chaos_loadgen.txt" \
  || { echo "chaos loadgen failed:" >&2
       cat "$SERVE_TMP/chaos_loadgen.txt" >&2; exit 1; }
# Provoke one frame timeout the soak may not have: a slowloris that sends
# three header bytes and stalls past --frame-timeout.
python3 - "$PORT" <<'PYEOF'
import socket, sys, time
s = socket.create_connection(('127.0.0.1', int(sys.argv[1])))
s.sendall(b'\x10\x00\x00')  # 3 of 5 header bytes, then silence
deadline = time.time() + 10
s.settimeout(10)
while time.time() < deadline:
    if s.recv(4096) == b'':  # daemon cut us loose
        sys.exit(0)
print('slowloris connection was never closed', file=sys.stderr)
sys.exit(1)
PYEOF
kill -INT "$SERVE_PID"
SERVE_RC=0; wait "$SERVE_PID" || SERVE_RC=$?
[ "$SERVE_RC" -eq 130 ] || { echo "chaos daemon exit $SERVE_RC != 130 on SIGINT" >&2
                             cat "$SERVE_TMP/chaos_serve.log" >&2; exit 1; }
python3 - "$SERVE_TMP/chaos_stats.json" "$SERVE_TMP/chaos_wal.jsonl" \
          "$SERVE_TMP/chaos_loadgen.json" <<'PYEOF'
import json, sys
stats = json.load(open(sys.argv[1]))
events = {}
drop_frames = 0
slow_closes = 0
for line in open(sys.argv[2]):
    rec = json.loads(line)
    t = rec.get('type', '')
    if not t.startswith('serve.'):
        continue
    events[t] = events.get(t, 0) + 1
    if t == 'serve.drop':
        drop_frames += rec['frames']
    if t == 'serve.close' and rec.get('reason') == 'slow_consumer':
        slow_closes += 1
checks = [
    ('sheds', stats['sheds'], events.get('serve.shed', 0)),
    ('timeouts', stats['idle_timeouts'] + stats['frame_timeouts'],
     events.get('serve.timeout', 0)),
    ('dropped_frames', stats['dropped_frames'], drop_frames),
    ('slow_consumer_closes', stats['slow_consumer_closes'], slow_closes),
]
failed = False
for name, in_stats, in_trace in checks:
    ok = in_stats == in_trace
    failed |= not ok
    print(f"  {name}: stats={in_stats} trace={in_trace} "
          f"{'ok' if ok else 'MISMATCH'}")
assert stats['frame_timeouts'] >= 1, 'slowloris was not timed out'
lg = json.load(open(sys.argv[3]))
assert lg['errors'] == 0, f"chaos loadgen saw {lg['errors']} client errors"
assert lg['ops'] == 48, f"chaos loadgen completed {lg['ops']} of 48 ops"
assert lg['faults_injected'] > 0, 'chaos injected no faults'
print(f"  chaos soak: {lg['ops']} ops, {lg['faults_injected']} faults, "
      f"{lg['reconnects']} reconnects, {lg['resumes']} resumes")
sys.exit(1 if failed else 0)
PYEOF

# Then the crash-recovery gate: kill -9 a recording daemon mid-loadgen,
# restart it on the same port with --resume on its own record (the
# write-ahead log), and require (a) the surviving client finishes every op,
# (b) the combined pre+post-crash record replays byte-identically
# in-process, (c) it is byte-identical (in canonical form, lifecycle lines
# excluded) to a run that never crashed, and (d) a copy with one corrupted
# digit is refused at resume: the daemon exits non-zero without listening.
WAL="$SERVE_TMP/kill_wal.jsonl"
REF="$SERVE_TMP/kill_ref.jsonl"
start_daemon "$SERVE_TMP/kill_serve.log" --record="$WAL"
# Chaos slows the client enough that the kill lands mid-run; corruption
# is header-only by design, so the WAL bytes stay clean.
"$BUILD/src/cli/spectra" loadgen --port="$PORT" --clients=1 --ops=40 \
    --seed=77 --chaos=1.0 --json="$SERVE_TMP/kill_loadgen.json" \
    > "$SERVE_TMP/kill_loadgen.txt" 2>&1 &
LOADGEN_PID=$!
sleep 1
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
"$BUILD/src/cli/spectra" serve --port="$PORT" --record="$WAL" --resume \
    > "$SERVE_TMP/kill_serve2.log" 2>&1 &
SERVE_PID=$!
LOADGEN_RC=0; wait "$LOADGEN_PID" || LOADGEN_RC=$?
[ "$LOADGEN_RC" -eq 0 ] || { echo "loadgen did not survive the kill/restart:" >&2
                             cat "$SERVE_TMP/kill_loadgen.txt" >&2
                             cat "$SERVE_TMP/kill_serve2.log" >&2; exit 1; }
kill -INT "$SERVE_PID"
wait "$SERVE_PID" || true
# The client must actually have seen the crash (reconnected at least
# once), or the kill landed after the run finished and proved nothing.
python3 - "$SERVE_TMP/kill_loadgen.json" <<'PYEOF'
import json, sys
lg = json.load(open(sys.argv[1]))
assert lg['reconnects'] >= 1, \
    'kill -9 landed outside the run: client never reconnected'
assert lg['resumes'] >= 1, 'client reconnected without resuming its session'
PYEOF
# Reference run: same seed, same ops, no crash.
start_daemon "$SERVE_TMP/kill_ref.log" --record="$REF"
"$BUILD/src/cli/spectra" loadgen --port="$PORT" --clients=1 --ops=40 \
    --seed=77 >/dev/null
kill -INT "$SERVE_PID"
wait "$SERVE_PID" || true
"$BUILD/src/cli/spectra" replay "$WAL" >/dev/null || {
  echo "combined crash+resume record does not replay identically" >&2; exit 1; }
python3 - "$WAL" "$REF" <<'PYEOF'
import json, sys
# Only lifecycle lines (shed/timeout/close/drop/resume/recovered) may
# differ between the crash run and the reference; the op record
# (serve.session/serve.begin/serve.end) must match byte for byte.
LIFECYCLE = {'serve.shed', 'serve.timeout', 'serve.close', 'serve.drop',
             'serve.resume', 'serve.recovered'}
def canonical(path):
    return [l for l in open(path)
            if json.loads(l).get('type', '') not in LIFECYCLE]
wal, ref = canonical(sys.argv[1]), canonical(sys.argv[2])
assert wal, 'crash+resume record has no op lines — gate would be vacuous'
if wal != ref:
    print('crash+resume record diverged from the uninterrupted run',
          file=sys.stderr)
    for a, b in zip(wal, ref):
        if a != b:
            print(f'  crash run: {a!r}\n  reference: {b!r}', file=sys.stderr)
            break
    print(f'  ({len(wal)} vs {len(ref)} canonical lines)', file=sys.stderr)
    sys.exit(1)
print(f"  kill -9 + --resume: {len(wal)} canonical lines, byte-identical "
      f"to the uninterrupted run")
PYEOF
CORRUPT="$SERVE_TMP/corrupt_wal.jsonl"
python3 - "$WAL" "$CORRUPT" <<'PYEOF'
import sys
# Bump one digit of the first recorded pred_time.
text = open(sys.argv[1]).read()
i = text.index('"pred_time":') + len('"pred_time":')
while not text[i].isdigit():
    i += 1
text = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
open(sys.argv[2], 'w').write(text)
PYEOF
CORRUPT_RC=0
timeout 20 "$BUILD/src/cli/spectra" serve --port=0 --record="$CORRUPT" \
    --resume > "$SERVE_TMP/corrupt_serve.log" 2>&1 || CORRUPT_RC=$?
if [ "$CORRUPT_RC" -eq 0 ] || grep -q "listening on" "$SERVE_TMP/corrupt_serve.log"; then
  echo "a WAL with a corrupted pred_time was resumed (exit $CORRUPT_RC):" >&2
  cat "$SERVE_TMP/corrupt_serve.log" >&2; exit 1
fi
echo "  corrupted WAL refused at resume (exit $CORRUPT_RC)"

echo "== sanitize smoke (address) =="
# obs_test covers the trace/metrics hot paths; fleet_test drives the
# admission queue, load board, and the parallel fleet tick pipeline (its
# determinism suites run --jobs=8 worlds) under ASan. predict_test covers
# the flat X'X regrowth and the multi-response index arithmetic,
# monitor_test the network monitor's refresh cursor, and golden_trace_test
# whole Pangloss, speech and Latex decisions against their goldens.
# solver_test, apps_test, core_test and integration_test run the indexed
# fidelity settings through the space, the solver, the apps' hooks, the
# client's one candidate evaluator and its forced-alternative check.
# serve_test sends wire input through the daemon, including the begin
# parameters the client maps onto slots or refuses.
SMOKE="$BUILD-asan"
cmake -B "$SMOKE" -S . -DSPECTRA_SANITIZE=address >/dev/null
cmake --build "$SMOKE" -j "$(nproc)" --target obs_test fleet_test \
    predict_test monitor_test golden_trace_test solver_test apps_test \
    core_test integration_test serve_test spectra
"$SMOKE/tests/obs_test"
"$SMOKE/tests/fleet_test"
"$SMOKE/tests/predict_test"
"$SMOKE/tests/monitor_test"
"$SMOKE/tests/golden_trace_test"
"$SMOKE/tests/solver_test"
"$SMOKE/tests/apps_test"
"$SMOKE/tests/core_test"
"$SMOKE/tests/integration_test"
"$SMOKE/tests/serve_test"
"$SMOKE/src/cli/spectra" scenarios >/dev/null
# 10k-client multi-island fleet under ASan: the SoA client store, the
# per-island tick arenas, and the admission cookie/metadata slot reuse at
# scale — exactly the structures the memory diet rebuilt.
"$SMOKE/src/cli/spectra" fleet --clients=10000 --servers=80 --islands=8 \
    --horizon=30 --jobs=4 >/dev/null

echo "== sanitize smoke (thread) =="
TSMOKE="$BUILD-tsan"
cmake -B "$TSMOKE" -S . -DSPECTRA_SANITIZE=thread >/dev/null
cmake --build "$TSMOKE" -j "$(nproc)" --target exec_test island_test spectra
"$TSMOKE/tests/exec_test"
"$TSMOKE/tests/island_test"
SPECTRA_TRIALS=2 "$TSMOKE/src/cli/spectra" speech --trials=2 --jobs=4 >/dev/null
# Island-parallel fleet under TSan: a multi-island world (600 clients, 3
# islands) advancing on 4 workers. Any cross-island write that escapes the
# barrier protocol is a data race here, not just a determinism bug.
"$TSMOKE/src/cli/spectra" fleet --clients=600 --servers=6 --islands=3 \
    --horizon=30 --jobs=4 >/dev/null
# And at 10k clients on 8 islands: pool-granular latency buffers and arena
# resets cross worker threads here, so a misattributed write is a reported
# race, not a silent fingerprint flake.
"$TSMOKE/src/cli/spectra" fleet --clients=10000 --servers=80 --islands=8 \
    --horizon=15 --jobs=4 >/dev/null

echo "== sanitize smoke (undefined) =="
# UB in the failure paths (journal replay, breaker arithmetic, fingerprint
# hashing) only executes under faults, so the UBSan build drives the chaos
# suite plus a small soak through the CLI.
USMOKE="$BUILD-ubsan"
cmake -B "$USMOKE" -S . -DSPECTRA_SANITIZE=undefined >/dev/null
cmake --build "$USMOKE" -j "$(nproc)" --target chaos_test journal_test spectra
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
"$USMOKE/tests/chaos_test"
"$USMOKE/tests/journal_test"
"$USMOKE/src/cli/spectra" chaos --app=latex --plans=3 --ops=2 --jobs=2 >/dev/null
unset UBSAN_OPTIONS

echo "== chaos soak =="
# ~25 seeded plans spread over all three applications; fails on any
# invariant violation or replay divergence.
"$BUILD/src/cli/spectra" chaos --app=all --plans=9 --jobs="$(nproc)" >/dev/null

echo "== perf smoke: decision hot path =="
# Decision-overhead regression gate (the paper's fig10 measurement): the
# median of three micro_decision runs per scenario must not fall more than
# 10% below the throughput floors recorded in scripts/perf_baseline.json.
# Floors are conservative (minimum observed across runs) and the median
# discards one outlying run, so a trip means a real hot-path regression,
# not scheduler noise.
for run in 1 2 3; do
  "$BUILD/bench/micro_decision" --json="$BUILD/decision_smoke_$run.json" \
      >/dev/null
done
python3 - "$BUILD"/decision_smoke_{1,2,3}.json <<'PYEOF'
import json, statistics, sys
runs = [{s['name']: s for s in json.load(open(p))['scenarios']}
        for p in sys.argv[1:]]
base = json.load(open('scripts/perf_baseline.json'))
failed = False
for floor in base['floor_scenarios']:
    name = floor['name']
    samples = sorted(r[name]['decisions_per_sec'] for r in runs)
    got = statistics.median(samples)
    limit = floor['decisions_per_sec'] * 0.9
    status = 'ok' if got >= limit else 'REGRESSION'
    if got < limit:
        failed = True
    runs_txt = ', '.join(f'{x:.0f}' for x in samples)
    print(f"  {name}: median {got:.0f} decisions/s of [{runs_txt}] "
          f"(floor*0.9 = {limit:.0f}) {status}")
sys.exit(1 if failed else 0)
PYEOF

echo "== perf smoke: fleet decisions =="
# Whole-fleet throughput gate: the 1000-client fleet world must not fall
# more than 10% below the (deliberately loose) fleet_floor in
# scripts/perf_baseline.json.
"$BUILD/bench/fleet_scale" --clients=1000 --jobs=1 \
    --json="$BUILD/fleet_smoke.json" >/dev/null
python3 - "$BUILD/fleet_smoke.json" <<'PYEOF'
import json, sys
cur = json.load(open(sys.argv[1]))['scales'][0]
base = json.load(open('scripts/perf_baseline.json'))
failed = False

floor = base['fleet_floor']
got = cur['wall']['decisions_per_sec']
limit = floor['decisions_per_sec'] * 0.9
status = 'ok' if got >= limit else 'REGRESSION'
failed |= got < limit
print(f"  fleet_1000: {got:.0f} decisions/s (floor*0.9 = {limit:.0f}) {status}")

# Island pipeline gate: the same 1000-client run auto-shards into islands;
# events/sec (decisions + completions per wall second) must hold the
# island_floor even at --jobs=1, so barrier/mail overhead cannot creep in
# unnoticed on hosts where parallel speedup is unmeasurable.
ifloor = base['island_floor']
assert cur['islands'] == ifloor['islands'], \
    f"shard planner changed: {cur['islands']} islands vs {ifloor['islands']}"
got = cur['wall']['events_per_sec']
limit = ifloor['events_per_sec'] * 0.9
status = 'ok' if got >= limit else 'REGRESSION'
failed |= got < limit
print(f"  fleet_1000 islands={cur['islands']}: {got:.0f} events/s "
      f"(floor*0.9 = {limit:.0f}) {status}")
sys.exit(1 if failed else 0)
PYEOF

echo "== mem smoke: fleet at 100k clients =="
# Memory ceiling gate: the 100k-client world must stay under the
# bytes-per-client ceiling in scripts/perf_baseline.json (fleet_mem_ceiling).
# The pre-diet seed sat at ~8.3 KB/client; the diet landed ~1.6 KB/client;
# the ceiling splits the difference so scattered per-client heap state
# cannot creep back in without tripping here.
"$BUILD/bench/fleet_scale" --clients=100000 --jobs="$(nproc)" \
    --json="$BUILD/fleet_mem_smoke.json" >/dev/null
python3 - "$BUILD/fleet_mem_smoke.json" <<'PYEOF'
import json, sys
mem = json.load(open(sys.argv[1]))['mem']
gate = json.load(open('scripts/perf_baseline.json'))['fleet_mem_ceiling']
assert mem['max_clients'] == gate['clients'], \
    f"mem smoke ran {mem['max_clients']} clients, gate expects {gate['clients']}"
got = mem['bytes_per_client']
limit = gate['bytes_per_client_ceiling']
status = 'ok' if got <= limit else 'REGRESSION'
print(f"  fleet_100k: {got} bytes/client peak RSS "
      f"(ceiling {limit}) {status}")
sys.exit(0 if got <= limit else 1)
PYEOF

echo "OK"
