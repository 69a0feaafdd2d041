#!/usr/bin/env bash
# Loopback smoke: boot four ftm-serve replicas of the transformed
# Byzantine replicated log on 127.0.0.1, kill one mid-run and restart it
# into the live cluster, while 64 concurrent clients push commands
# through the survivors.
#
# The run exercises the whole §15 stack in one shot:
#   * the single-threaded readiness-loop transport under 64 concurrent
#     client connections (ftm-load --clients);
#   * command batching (--batch 8) on every replica;
#   * peer reconnect + checkpoint catch-up: replica 3 is SIGKILLed once
#     the run is underway and restarted ~1 s later with the same flags
#     as the first time, so it must redial, catch up via checkpoint
#     certificates and finish the log in step.
#
# A --delay-ms hop latency paces the slot cadence, so the kill lands
# mid-run by construction on any machine speed: with DELAY_MS=3 a slot
# costs ≥ 6 ms of network time, bounding the run's pace well below the
# kill timer regardless of CPU.
#
# Exit 0 requires ALL of:
#   * ftm-load exits 0 — every replica (the restarted one included)
#     halted, completed every slot, produced the same log digest, kept
#     the batching ledger conservation law, and convicted nobody;
#   * replicas 0-2 and the restarted replica 3 all exit 0 — each log
#     halted uncontradicted. (The killed first incarnation of replica 3
#     is expected to die by SIGKILL and is not waited on.)
#
# Tunables (env): SLOTS (default 1000), BASE_PORT (7100), SEED (0xD00D),
# OUT (loopback-report.json), BIN (target/release), TIMEOUT_MS (120000),
# CLIENTS (64), REQUESTS (8), BATCH (8), DELAY_MS (3), KILL_AFTER_S (4),
# RESTART_GAP_S (1).
set -euo pipefail

SLOTS="${SLOTS:-1000}"
BASE_PORT="${BASE_PORT:-7100}"
SEED="${SEED:-0xD00D}"
OUT="${OUT:-loopback-report.json}"
BIN="${BIN:-target/release}"
TIMEOUT_MS="${TIMEOUT_MS:-120000}"
CLIENTS="${CLIENTS:-64}"
REQUESTS="${REQUESTS:-8}"
BATCH="${BATCH:-8}"
DELAY_MS="${DELAY_MS:-3}"
KILL_AFTER_S="${KILL_AFTER_S:-4}"
RESTART_GAP_S="${RESTART_GAP_S:-1}"

PEERS="127.0.0.1:${BASE_PORT},127.0.0.1:$((BASE_PORT + 1)),127.0.0.1:$((BASE_PORT + 2)),127.0.0.1:$((BASE_PORT + 3))"
# Clients avoid replica 3: it is down for part of the run.
TARGETS="127.0.0.1:${BASE_PORT},127.0.0.1:$((BASE_PORT + 1)),127.0.0.1:$((BASE_PORT + 2))"

serve() {
    local id="$1"
    shift
    # exec: the backgrounded pid must be ftm-serve itself, not a wrapping
    # subshell — the chaos kill below has to hit the real process.
    exec "$BIN/ftm-serve" --id "$id" --peers "$PEERS" --protocol hr --f 1 \
        --slots "$SLOTS" --seed "$SEED" --timeout-ms "$TIMEOUT_MS" \
        --batch "$BATCH" --delay-ms "$DELAY_MS" "$@"
}

pids=()
restart_pid=""
cleanup() {
    for pid in "${pids[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    [ -n "$restart_pid" ] && kill "$restart_pid" 2>/dev/null || true
}
trap cleanup EXIT

for i in 0 1 2 3; do
    serve "$i" &
    pids+=("$!")
done

# Chaos timer: once the run is underway, SIGKILL replica 3 (its listener
# and every socket vanish — peers see EOF and start backoff redials),
# wait out the gap, then restart it on the same address with a fresh
# process. Checkpoint catch-up must rebuild its log.
(
    sleep "$KILL_AFTER_S"
    echo "== chaos: SIGKILL replica 3 (pid ${pids[3]}) =="
    kill -9 "${pids[3]}" 2>/dev/null || true
    sleep "$RESTART_GAP_S"
    echo "== chaos: restarting replica 3 =="
) &
chaos_timer="$!"

"$BIN/ftm-load" --peers "$PEERS" --slots "$SLOTS" --cluster 0 \
    --clients "$CLIENTS" --requests-per-client "$REQUESTS" \
    --targets "$TARGETS" --seed "$SEED" \
    --timeout-ms "$TIMEOUT_MS" --out "$OUT" &
load_pid="$!"

# Restart replica 3 after the chaos window (the subshell above only
# prints; the restart happens here so the new pid is waitable).
wait "$chaos_timer"
serve 3 &
restart_pid="$!"

wait "$load_pid"

# ftm-load shut every replica down; the survivors and the restarted
# replica 3 must each report a clean (exit 0) run. The SIGKILLed first
# incarnation is reaped without checking: dying was its job.
for i in 0 1 2; do
    wait "${pids[$i]}"
done
wait "${pids[3]}" 2>/dev/null || true
wait "$restart_pid"
restart_pid=""
trap - EXIT

echo "== load report ($OUT) =="
cat "$OUT"
