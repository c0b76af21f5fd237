#!/usr/bin/env sh
# grid_smoke.sh — end-to-end smoke test of the distributed simulation
# grid: 1 job server + 2 worker processes + `sweep -grid` over a small
# job set. Asserts (a) grid-routed results are byte-identical to the
# local RunBatch output, (b) a rerun is served from the content-addressed
# result store (cache hits > 0), (c) a worker process being killed
# mid-study is survived via lease reassignment, (d) a disk-backed
# server killed with SIGKILL and restarted on the same -store-dir serves
# the rerun entirely from the recovered cache (0 misses), byte-identical,
# (e) the federation chaos leg: of two federated servers sharing a
# -store-shard 2 cache tier, the first-listed member — the one streaming
# the ladder — is SIGKILLed mid-batch, the client fails the unfinished
# jobs over to the survivor, and a rerun listing the dead member first
# is 100% served from the survivor's store — still byte-identical to
# the local run, and (f) the multi-tenant service leg: an autoscaled
# server federated over a -store-shard 2 tier, under two tenant
# identities, survives the SIGKILL of the federation peer streaming
# its batch (client failover) AND of an autoscaled worker mid-study
# (the supervisor respawns it), loses no job, enforces the metered
# tenant's rate limit (429 + client retry), and still produces
# byte-identical results, (g) the sharded cache leg: a 3-member
# secreted federation runs with -store-shard 2, the replica holder
# streaming the ladder is SIGKILLed mid-batch, results stay
# byte-identical after client failover and the rerun — dead member
# still listed first — is served 100% from the surviving replicas (no
# new cache misses), and (h) the auth leg: a peer started with the
# wrong -peer-secret is refused at the gossip seam (403s counted in
# peer_auth_rejected) and never joins the membership.
#
# Run it via `make grid-smoke`; it builds into a temp dir and cleans up
# after itself.
set -eu

WORKDIR="$(mktemp -d)"
PIDS=""
cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

echo "grid-smoke: building sweep + helperd"
go build -o "$WORKDIR/sweep" ./cmd/sweep
go build -o "$WORKDIR/helperd" ./cmd/helperd

# A fast, deterministic study: 3 jobs (baseline + two confidence points).
STUDY="-study confidence -workload gcc -n 8000"

echo "grid-smoke: local reference run"
"$WORKDIR/sweep" $STUDY > "$WORKDIR/local.txt" 2>/dev/null

# --- 1 server + 2 workers ------------------------------------------------
PORT=18547
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORT" -lease 750ms 2>"$WORKDIR/serve.log" &
PIDS="$PIDS $!"
# Wait for the server to come up.
i=0
until "$WORKDIR/helperd" metrics -server "127.0.0.1:$PORT" >/dev/null 2>&1; do
    i=$((i+1))
    [ "$i" -gt 50 ] && { echo "grid-smoke: server never came up"; cat "$WORKDIR/serve.log"; exit 1; }
    sleep 0.1
done
"$WORKDIR/helperd" work -server "127.0.0.1:$PORT" -workers 2 -name w1 2>"$WORKDIR/w1.log" &
PIDS="$PIDS $!"
"$WORKDIR/helperd" work -server "127.0.0.1:$PORT" -workers 2 -name w2 2>"$WORKDIR/w2.log" &
W2_PID=$!
PIDS="$PIDS $W2_PID"

echo "grid-smoke: grid run (1 server + 2 workers)"
"$WORKDIR/sweep" $STUDY -grid "127.0.0.1:$PORT" > "$WORKDIR/grid.txt" 2>/dev/null

if ! diff "$WORKDIR/local.txt" "$WORKDIR/grid.txt"; then
    echo "grid-smoke: FAIL — grid results differ from local RunBatch"
    exit 1
fi
echo "grid-smoke: grid results byte-identical to local run"

# --- rerun: content-addressed cache --------------------------------------
"$WORKDIR/sweep" $STUDY -grid "127.0.0.1:$PORT" > "$WORKDIR/grid2.txt" 2>/dev/null
diff "$WORKDIR/grid.txt" "$WORKDIR/grid2.txt" >/dev/null || {
    echo "grid-smoke: FAIL — cached rerun drifted"; exit 1; }
HITS=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORT" | grep -o '"cache_hits": [0-9]*' | grep -o '[0-9]*')
if [ "${HITS:-0}" -lt 1 ]; then
    echo "grid-smoke: FAIL — rerun reported no cache hits"
    exit 1
fi
echo "grid-smoke: rerun served from content-addressed store ($HITS hits)"

# --- worker death mid-study ----------------------------------------------
# Kill one worker shortly after the full ladder study starts; lease
# reassignment (750ms TTL) must carry the stranded jobs to the surviving
# worker.
echo "grid-smoke: killing a worker mid-study (ladder)"
( sleep 0.3; kill -9 "$W2_PID" 2>/dev/null || true ) &
"$WORKDIR/sweep" -study ladder -n 20000 -grid "127.0.0.1:$PORT" \
    > "$WORKDIR/gridkill.txt" 2>"$WORKDIR/gridkill.err"
"$WORKDIR/sweep" -study ladder -n 20000 > "$WORKDIR/localkill.txt" 2>/dev/null
if ! diff "$WORKDIR/localkill.txt" "$WORKDIR/gridkill.txt"; then
    echo "grid-smoke: FAIL — results after worker death differ from local run"
    cat "$WORKDIR/gridkill.err"
    exit 1
fi
REASSIGNED=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORT" | grep -o '"reassigned": [0-9]*' | grep -o '[0-9]*')
echo "grid-smoke: study survived worker death with identical results (${REASSIGNED:-0} leases reassigned)"

# --- server restart with an on-disk store --------------------------------
# A second server runs disk-backed, gets SIGKILLed (no graceful shutdown,
# no flush) and is restarted on the same directory; the rerun must be
# answered entirely from the recovered cache. The worker stays up across
# the restart — its backoff loop must reconnect on its own.
PORT2=18549
STOREDIR="$WORKDIR/store"
wait_server() {
    i=0
    until "$WORKDIR/helperd" metrics -server "127.0.0.1:$1" >/dev/null 2>&1; do
        i=$((i+1))
        [ "$i" -gt 50 ] && { echo "grid-smoke: server on :$1 never came up"; exit 1; }
        sleep 0.1
    done
}
echo "grid-smoke: disk-backed server (store: $STOREDIR)"
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORT2" -lease 750ms -store-dir "$STOREDIR" 2>"$WORKDIR/serve2a.log" &
SERVE2_PID=$!
PIDS="$PIDS $SERVE2_PID"
wait_server "$PORT2"
"$WORKDIR/helperd" work -server "127.0.0.1:$PORT2" -workers 2 -name w3 2>"$WORKDIR/w3.log" &
PIDS="$PIDS $!"

"$WORKDIR/sweep" $STUDY -grid "127.0.0.1:$PORT2" > "$WORKDIR/disk1.txt" 2>/dev/null
diff "$WORKDIR/local.txt" "$WORKDIR/disk1.txt" >/dev/null || {
    echo "grid-smoke: FAIL — disk-backed results differ from local run"; exit 1; }

echo "grid-smoke: SIGKILLing the disk-backed server and restarting on the same dir"
kill -9 "$SERVE2_PID" 2>/dev/null || true
wait "$SERVE2_PID" 2>/dev/null || true
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORT2" -lease 750ms -store-dir "$STOREDIR" 2>"$WORKDIR/serve2b.log" &
PIDS="$PIDS $!"
wait_server "$PORT2"

"$WORKDIR/sweep" $STUDY -grid "127.0.0.1:$PORT2" > "$WORKDIR/disk2.txt" 2>/dev/null
diff "$WORKDIR/disk1.txt" "$WORKDIR/disk2.txt" >/dev/null || {
    echo "grid-smoke: FAIL — post-restart rerun drifted"; exit 1; }
MISSES2=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORT2" | grep -o '"cache_misses": [0-9]*' | grep -o '[0-9]*')
HITS2=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORT2" | grep -o '"cache_hits": [0-9]*' | grep -o '[0-9]*')
if [ "${MISSES2:-1}" -ne 0 ] || [ "${HITS2:-0}" -lt 1 ]; then
    echo "grid-smoke: FAIL — restarted server re-simulated (hits=$HITS2 misses=$MISSES2, want 100% hits)"
    cat "$WORKDIR/serve2b.log"
    exit 1
fi
echo "grid-smoke: restart kept the cache ($HITS2 hits, 0 misses — 100% cached)"

# failed_over PORT prints how many client submissions the server on PORT
# accepted that did not come from its own steals: a stolen task reaches
# the thief's queue as a loopback submission (counted in steals_in), so
# on a member listed after the one streaming the batch, the rest came
# through client failover.
failed_over() {
    m=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$1")
    sub=$(echo "$m" | grep -o '"submitted": [0-9]*' | grep -o '[0-9]*')
    stolen=$(echo "$m" | grep -o '"steals_in": [0-9]*' | grep -o '[0-9]*')
    echo $((${sub:-0} - ${stolen:-0}))
}

# --- federation chaos: kill a member mid-ladder ---------------------------
# Two federated servers share one cache tier: -store-shard 2 replicates
# every result onto both members (A's shard on disk, B's in memory).
# `sweep -grid B,A` submits the whole ladder to B, and A's workers steal
# part of it; B is SIGKILLed mid-study. Its result stream ends early, so
# the client resubmits every unfinished job to A, whose workers finish
# everything — byte-identical to the local run. The rerun, with B still
# dead, lists B first again: the client must fail over to A, which
# answers entirely from its store.
PORTA=18551
PORTB=18552
FEDSTORE="$WORKDIR/fedstore"
echo "grid-smoke: federation of two servers (sharded store, A's shard: $FEDSTORE)"
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORTA" -lease 750ms -store-dir "$FEDSTORE" -store-shard 2 \
    -self "127.0.0.1:$PORTA" -peers "127.0.0.1:$PORTB" 2>"$WORKDIR/fedA.log" &
PIDS="$PIDS $!"
wait_server "$PORTA"
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORTB" -lease 750ms -store-shard 2 \
    -self "127.0.0.1:$PORTB" -peers "127.0.0.1:$PORTA" 2>"$WORKDIR/fedB.log" &
FEDB_PID=$!
PIDS="$PIDS $FEDB_PID"
wait_server "$PORTB"
"$WORKDIR/helperd" work -server "127.0.0.1:$PORTA" -workers 2 -name fa 2>"$WORKDIR/fa.log" &
PIDS="$PIDS $!"
"$WORKDIR/helperd" work -server "127.0.0.1:$PORTB" -workers 2 -name fb 2>"$WORKDIR/fb.log" &
PIDS="$PIDS $!"

echo "grid-smoke: SIGKILLing federation member B mid-ladder (B streams the batch)"
( sleep 0.5; kill -9 "$FEDB_PID" 2>/dev/null || true ) &
"$WORKDIR/sweep" -study ladder -n 20000 -grid "127.0.0.1:$PORTB,127.0.0.1:$PORTA" \
    > "$WORKDIR/fedkill.txt" 2>"$WORKDIR/fedkill.err"
if ! diff "$WORKDIR/localkill.txt" "$WORKDIR/fedkill.txt"; then
    echo "grid-smoke: FAIL — results after federation member death differ from local run"
    cat "$WORKDIR/fedkill.err"
    exit 1
fi
FAILED_OVER=$(failed_over "$PORTA")
if [ "$FAILED_OVER" -lt 1 ]; then
    echo "grid-smoke: FAIL — no job failed over from B to A (client submissions on A = $FAILED_OVER)"
    exit 1
fi
echo "grid-smoke: surviving member finished the ladder with identical results ($FAILED_OVER jobs failed over)"

# The rerun lists dead B first: the client must fail over to A and
# serve every job from the shared store (no new misses on A).
MISSA=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTA" | grep -o '"cache_misses": [0-9]*' | grep -o '[0-9]*')
"$WORKDIR/sweep" -study ladder -n 20000 -grid "127.0.0.1:$PORTB,127.0.0.1:$PORTA" \
    > "$WORKDIR/fedrerun.txt" 2>/dev/null
diff "$WORKDIR/fedkill.txt" "$WORKDIR/fedrerun.txt" >/dev/null || {
    echo "grid-smoke: FAIL — federated rerun drifted"; exit 1; }
MISSB=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTA" | grep -o '"cache_misses": [0-9]*' | grep -o '[0-9]*')
if [ "${MISSB:-1}" -ne "${MISSA:-0}" ]; then
    echo "grid-smoke: FAIL — federated rerun re-simulated (misses $MISSA -> $MISSB, want no change)"
    exit 1
fi
STEALS=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTA" | grep -o '"steals_out": [0-9]*' | grep -o '[0-9]*')
echo "grid-smoke: federated rerun 100% from the shared store (steals_out=${STEALS:-0})"

# --- multi-tenant service: autoscaling + quotas + chaos --------------------
# Server C runs in service mode: it supervises its own worker fleet
# (min 1, max 3) and meters two tenants — alice (weight 4, unmetered)
# and bob (weight 1, rate 2 jobs/s, burst 4). Peer D federates with C
# over a -store-shard 2 cache tier and has no workers of its own; the
# ladder goes to D, the first-listed member, and C's workers steal it.
# Mid-ladder, D is SIGKILLed (the client fails the unfinished jobs
# over to C, whose shard degrades to its local copy) and so is one of
# C's autoscaled workers (the supervisor must respawn it). No job may
# be lost and the output must stay byte-identical. Then bob runs the
# small study twice CONCURRENTLY:
# two 3-job batches against a burst of 4 guarantee the second one
# overdraws his token bucket, so the server must answer 429 +
# Retry-After and the client must retry it to success — quotas
# enforced, work still byte-identical.
PORTC=18554
PORTD=18555
SVCSTORE="$WORKDIR/svcstore"
echo "grid-smoke: service-mode server (autoscaled min=1 max=3, tenants alice+bob)"
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORTC" -lease 750ms -store-dir "$SVCSTORE" \
    -min-workers 1 -max-workers 3 -scale-tick 100ms -worker-parallel 2 \
    -tenants "alice,weight=4;bob,weight=1,rate=2,burst=4" -log warn -store-shard 2 \
    -self "127.0.0.1:$PORTC" -peers "127.0.0.1:$PORTD" 2>"$WORKDIR/svcC.log" &
PIDS="$PIDS $!"
wait_server "$PORTC"
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORTD" -lease 750ms -store-shard 2 \
    -self "127.0.0.1:$PORTD" -peers "127.0.0.1:$PORTC" 2>"$WORKDIR/svcD.log" &
SVCD_PID=$!
PIDS="$PIDS $SVCD_PID"
wait_server "$PORTD"

echo "grid-smoke: SIGKILLing peer D and the autoscaled workers mid-ladder (tenant alice)"
( sleep 0.6; kill -9 "$SVCD_PID" 2>/dev/null || true
  pkill -9 -f "$WORKDIR/helperd work .*$PORTC" 2>/dev/null || true ) &
"$WORKDIR/sweep" -study ladder -n 20000 -grid "127.0.0.1:$PORTD,127.0.0.1:$PORTC" \
    -grid-client alice > "$WORKDIR/svckill.txt" 2>"$WORKDIR/svckill.err"
if ! diff "$WORKDIR/localkill.txt" "$WORKDIR/svckill.txt"; then
    echo "grid-smoke: FAIL — service-mode results differ from local run after peer+worker SIGKILL"
    cat "$WORKDIR/svckill.err"
    exit 1
fi
SVC_FAILED_OVER=$(failed_over "$PORTC")
if [ "$SVC_FAILED_OVER" -lt 1 ]; then
    echo "grid-smoke: FAIL — no job failed over from D to C (client submissions on C = $SVC_FAILED_OVER)"
    exit 1
fi
UPS=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTC" 2>/dev/null | grep -o '"scale_ups": [0-9]*' | grep -o '[0-9]*')
if [ "${UPS:-0}" -lt 2 ]; then
    echo "grid-smoke: FAIL — autoscaler never churned (scale_ups=${UPS:-0}, want >= 2: floor + respawn/spike)"
    cat "$WORKDIR/svcC.log"
    exit 1
fi
echo "grid-smoke: autoscaled fleet survived peer+worker SIGKILL, identical results (scale_ups=$UPS, $SVC_FAILED_OVER jobs failed over)"

echo "grid-smoke: tenant bob overdraws his rate limit (expect 429 + client retry)"
"$WORKDIR/sweep" $STUDY -grid "127.0.0.1:$PORTC" -grid-client bob > "$WORKDIR/bob1.txt" 2>/dev/null &
BOB1_PID=$!
"$WORKDIR/sweep" $STUDY -grid "127.0.0.1:$PORTC" -grid-client bob > "$WORKDIR/bob2.txt" 2>/dev/null
wait "$BOB1_PID"
diff "$WORKDIR/local.txt" "$WORKDIR/bob1.txt" >/dev/null || {
    echo "grid-smoke: FAIL — metered tenant's results differ from local run"; exit 1; }
diff "$WORKDIR/bob1.txt" "$WORKDIR/bob2.txt" >/dev/null || {
    echo "grid-smoke: FAIL — metered tenant's rerun drifted"; exit 1; }
REJECTED=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTC" | grep -o '"rejected": [0-9]*' | grep -o '[0-9]*')
if [ "${REJECTED:-0}" -lt 1 ]; then
    echo "grid-smoke: FAIL — rate limit never bit (rejected=${REJECTED:-0}); quotas are not enforced"
    exit 1
fi
echo "grid-smoke: quota enforced and retried through (rejected=$REJECTED), results byte-identical"

# --- observability: trace span trees, spill, top ---------------------------
# A fresh traced server + worker run the small study twice and `helperd
# trace` must reconstruct a complete span tree for (a) a job that ran
# locally (exec: admitted → enqueued → leased → completed) and (b) the
# rerun answered by the store (cached: a cache_hit terminal and a zero
# exec span). The NDJSON spill must have streamed events, and `helperd
# top -once` must render the trace ring.
PORTE=18557
echo "grid-smoke: observability leg (trace + spill + top)"
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORTE" -lease 750ms \
    -trace-spill "$WORKDIR/spill.ndjson" 2>"$WORKDIR/serveE.log" &
PIDS="$PIDS $!"
wait_server "$PORTE"
"$WORKDIR/helperd" work -server "127.0.0.1:$PORTE" -workers 2 -name we 2>"$WORKDIR/we.log" &
PIDS="$PIDS $!"

"$WORKDIR/sweep" $STUDY -grid "127.0.0.1:$PORTE" > /dev/null 2>&1
TRACE_ID=$("$WORKDIR/helperd" trace -server "127.0.0.1:$PORTE" -limit 1 | awk '{print $1}')
if [ -z "$TRACE_ID" ]; then
    echo "grid-smoke: FAIL — server recorded no traces"
    exit 1
fi
"$WORKDIR/helperd" trace -server "127.0.0.1:$PORTE" -check exec "$TRACE_ID" > "$WORKDIR/trace_exec.txt" || {
    echo "grid-smoke: FAIL — local job's span tree incomplete"
    cat "$WORKDIR/trace_exec.txt"; exit 1; }
echo "grid-smoke: local job span tree complete ($TRACE_ID)"

"$WORKDIR/sweep" $STUDY -grid "127.0.0.1:$PORTE" > /dev/null 2>&1
"$WORKDIR/helperd" trace -server "127.0.0.1:$PORTE" -check cached "$TRACE_ID" > "$WORKDIR/trace_cached.txt" || {
    echo "grid-smoke: FAIL — cached rerun's span tree incomplete"
    cat "$WORKDIR/trace_cached.txt"; exit 1; }
echo "grid-smoke: cached rerun span tree complete (zero exec span)"

[ -s "$WORKDIR/spill.ndjson" ] || {
    echo "grid-smoke: FAIL — trace spill file is empty"; exit 1; }
"$WORKDIR/helperd" top -server "127.0.0.1:$PORTE" -once > "$WORKDIR/top.txt"
grep -q "trace" "$WORKDIR/top.txt" || {
    echo "grid-smoke: FAIL — helperd top renders no trace ring line"
    cat "$WORKDIR/top.txt"; exit 1; }
echo "grid-smoke: spill streamed $(wc -l < "$WORKDIR/spill.ndjson") events; top renders"

# --- observability: a stolen job's trace crosses the hop -------------------
# Federated pair F (no workers) + G (all the workers): every job
# submitted to F is stolen by G, so the span tree reconstructed FROM F
# must contain the steal hop — `helperd trace` follows the stolen
# event's peer URL to G and merges both rings before validating.
PORTF=18558
PORTG=18559
echo "grid-smoke: tracing a stolen job across a federation hop"
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORTF" -lease 750ms \
    -self "127.0.0.1:$PORTF" -peers "127.0.0.1:$PORTG" 2>"$WORKDIR/serveF.log" &
PIDS="$PIDS $!"
wait_server "$PORTF"
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORTG" -lease 750ms \
    -self "127.0.0.1:$PORTG" -peers "127.0.0.1:$PORTF" 2>"$WORKDIR/serveG.log" &
PIDS="$PIDS $!"
wait_server "$PORTG"
"$WORKDIR/helperd" work -server "127.0.0.1:$PORTG" -workers 2 -name wg 2>"$WORKDIR/wg.log" &
PIDS="$PIDS $!"

"$WORKDIR/sweep" -study confidence -workload gcc -n 4000 -grid "127.0.0.1:$PORTF" > /dev/null 2>&1
STOLEN_ID=$("$WORKDIR/helperd" trace -server "127.0.0.1:$PORTF" -limit 1 | awk '{print $1}')
if [ -z "$STOLEN_ID" ]; then
    echo "grid-smoke: FAIL — victim recorded no traces"
    exit 1
fi
"$WORKDIR/helperd" trace -server "127.0.0.1:$PORTF" -check stolen "$STOLEN_ID" > "$WORKDIR/trace_stolen.txt" || {
    echo "grid-smoke: FAIL — stolen job's span tree incomplete or missing the hop"
    cat "$WORKDIR/trace_stolen.txt"; exit 1; }
grep -q "127.0.0.1:$PORTG" "$WORKDIR/trace_stolen.txt" || {
    echo "grid-smoke: FAIL — merged trace never names the thief"
    cat "$WORKDIR/trace_stolen.txt"; exit 1; }
echo "grid-smoke: stolen job span tree complete across the hop ($STOLEN_ID)"

# --- sharded cache tier: SIGKILL a replica holder mid-ladder ---------------
# Three members H/I/J share a secret and shard the result store over the
# live membership (-store-shard 2: every hash lives on two owners).
# The client lists I first, so I streams the whole ladder; workers run
# on H only, so H steals every task from I and banks each result in the
# shard. I is SIGKILLed mid-ladder: the client fails its unfinished
# jobs over to H, results stay byte-identical, and the rerun — with
# dead I still listed first — must be answered entirely from the
# surviving replicas: zero new cache misses on H and J combined.
PORTH=18560
PORTI=18561
PORTJ=18562
SECRET="smoke-shard-secret"
echo "grid-smoke: 3-member sharded federation (-store-shard 2, shared secret)"
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORTH" -lease 750ms -peer-secret "$SECRET" \
    -store-shard 2 -self "127.0.0.1:$PORTH" -peers "127.0.0.1:$PORTI,127.0.0.1:$PORTJ" \
    2>"$WORKDIR/shardH.log" &
PIDS="$PIDS $!"
wait_server "$PORTH"
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORTI" -lease 750ms -peer-secret "$SECRET" \
    -store-shard 2 -self "127.0.0.1:$PORTI" -peers "127.0.0.1:$PORTH,127.0.0.1:$PORTJ" \
    2>"$WORKDIR/shardI.log" &
SHARDI_PID=$!
PIDS="$PIDS $SHARDI_PID"
wait_server "$PORTI"
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORTJ" -lease 750ms -peer-secret "$SECRET" \
    -store-shard 2 -self "127.0.0.1:$PORTJ" -peers "127.0.0.1:$PORTH,127.0.0.1:$PORTI" \
    2>"$WORKDIR/shardJ.log" &
PIDS="$PIDS $!"
wait_server "$PORTJ"
"$WORKDIR/helperd" work -server "127.0.0.1:$PORTH" -workers 2 -name wh 2>"$WORKDIR/wh.log" &
PIDS="$PIDS $!"

# Wait for the gossip to converge so the shard spans all three members.
i=0
until "$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTH" | grep -q '"peers": 2'; do
    i=$((i+1))
    [ "$i" -gt 50 ] && { echo "grid-smoke: sharded membership never converged"; exit 1; }
    sleep 0.1
done
"$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTH" | grep -q '"store_replication": 2' || {
    echo "grid-smoke: FAIL — -store-shard 2 not reflected in metrics"; exit 1; }

echo "grid-smoke: SIGKILLing shard replica holder I mid-ladder"
( sleep 0.5; kill -9 "$SHARDI_PID" 2>/dev/null || true ) &
"$WORKDIR/sweep" -study ladder -n 20000 \
    -grid "127.0.0.1:$PORTI,127.0.0.1:$PORTH,127.0.0.1:$PORTJ" \
    > "$WORKDIR/shardkill.txt" 2>"$WORKDIR/shardkill.err"
if ! diff "$WORKDIR/localkill.txt" "$WORKDIR/shardkill.txt"; then
    echo "grid-smoke: FAIL — results after shard replica death differ from local run"
    cat "$WORKDIR/shardkill.err"
    exit 1
fi
SHARD_FAILED_OVER=$(failed_over "$PORTH")
if [ "$SHARD_FAILED_OVER" -lt 1 ]; then
    echo "grid-smoke: FAIL — no job failed over from I to H (client submissions on H = $SHARD_FAILED_OVER)"
    exit 1
fi
echo "grid-smoke: ladder survived the replica death with identical results ($SHARD_FAILED_OVER jobs failed over)"

# The rerun still lists dead I first; the batch fails over to H, and
# every job must be served from a surviving replica — local or across
# the wire — with no re-simulation anywhere.
MH1=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTH" | grep -o '"cache_misses": [0-9]*' | grep -o '[0-9]*')
MJ1=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTJ" | grep -o '"cache_misses": [0-9]*' | grep -o '[0-9]*')
"$WORKDIR/sweep" -study ladder -n 20000 \
    -grid "127.0.0.1:$PORTI,127.0.0.1:$PORTH,127.0.0.1:$PORTJ" \
    > "$WORKDIR/shardrerun.txt" 2>/dev/null
diff "$WORKDIR/shardkill.txt" "$WORKDIR/shardrerun.txt" >/dev/null || {
    echo "grid-smoke: FAIL — sharded rerun drifted"; exit 1; }
MH2=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTH" | grep -o '"cache_misses": [0-9]*' | grep -o '[0-9]*')
MJ2=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTJ" | grep -o '"cache_misses": [0-9]*' | grep -o '[0-9]*')
if [ "$((${MH2:-1} + ${MJ2:-1}))" -ne "$((${MH1:-0} + ${MJ1:-0}))" ]; then
    echo "grid-smoke: FAIL — sharded rerun re-simulated (misses H:$MH1->$MH2 J:$MJ1->$MJ2, want no change)"
    exit 1
fi
DROPPED=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTH" | grep -o '"store_puts_dropped": [0-9]*' | grep -o '[0-9]*')
echo "grid-smoke: sharded rerun 100% from surviving replicas (replica puts shed to the dead peer: ${DROPPED:-0})"

# --- peer auth: a wrong-secret member never joins --------------------------
# E shares the topology but not the secret: every announce it sends is
# refused 403 (counted in peer_auth_rejected) and H's membership stays
# at two peers.
PORTE2=18563
echo "grid-smoke: peer with the wrong secret knocks on the federation"
"$WORKDIR/helperd" serve -addr "127.0.0.1:$PORTE2" -lease 750ms -peer-secret "not-$SECRET" \
    -self "127.0.0.1:$PORTE2" -peers "127.0.0.1:$PORTH" 2>"$WORKDIR/shardE.log" &
PIDS="$PIDS $!"
wait_server "$PORTE2"
i=0
REJECTED_AUTH=0
while [ "$i" -lt 50 ]; do
    REJECTED_AUTH=$("$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTH" | grep -o '"peer_auth_rejected": [0-9]*' | grep -o '[0-9]*')
    [ "${REJECTED_AUTH:-0}" -ge 1 ] && break
    i=$((i+1))
    sleep 0.1
done
if [ "${REJECTED_AUTH:-0}" -lt 1 ]; then
    echo "grid-smoke: FAIL — wrong-secret peer was never rejected (peer_auth_rejected=0)"
    exit 1
fi
"$WORKDIR/helperd" metrics -server "127.0.0.1:$PORTH" | grep -q '"peers": 2' || {
    echo "grid-smoke: FAIL — wrong-secret peer made it into the membership"
    exit 1; }
echo "grid-smoke: wrong-secret peer refused ($REJECTED_AUTH rejects), membership unchanged"

echo "grid-smoke: PASS"
