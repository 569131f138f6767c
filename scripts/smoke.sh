#!/bin/sh
# End-to-end smoke test. Three layers:
#   1. robustness: fault-injected traces must fail strict ingestion,
#      pass lenient ingestion with a repair report; diameter must run
#      on a window shorter than 1 s and fail with a typed E-WINDOW on
#      one that spans no time; --max-hops 2 must print a two-column
#      curve table; a NaN or infinite horizon or rate, a NaN epsilon,
#      budget or heartbeat timeout, a NaN forwarding deadline or a
#      negative epidemic TTL, a NaN --min-duration (which must not
#      write its -o file), `theory -n` below 2, an auth-bad shard
#      fault without a key, and each of the six fleet flags without
#      --workers (refused before the trace is read) must exit 2
#      within 10 s with an E-USAGE error naming it and nothing on
#      stdout; an unknown flag (the removed
#      --worker-ckpt-dir, --retries, --task-deadline and --quarantine
#      too) or a removed command (chaos, delay-cdf) must exit 2, never
#      the 124 of a PARTIAL run;
#   2. budget/resume: a diameter run truncated by --budget-seconds must
#      exit 124 with a PARTIAL banner, and resuming from its checkpoint
#      must reproduce the uninterrupted run byte for byte;
#   3. observability: --metrics must emit a snapshot containing frontier
#      prune counters, per-domain pool busy time and the span tree;
#   4. resilience: on a chain whose source 0 needs 1,029 journey
#      rounds (the most its 1,030 nodes allow), a run must exit 0 with
#      the same stdout and the same result, "max_rounds_used": 1029, at
#      1 and 2 domains and on 2 workers; a corrupted checkpoint must
#      fall back to the
#      rotated .prev generation, say so in its run status
#      ("ckpt_fallback": true) and otherwise reproduce the
#      uninterrupted output;
#   5. timeline: --trace-out must emit a Chrome trace with per-domain
#      tracks and chunk/pool duration events, and `omn report
#      --fail-dropped` must digest it with zero dropped events;
#   6. sharding: a 3-worker sharded run must be byte-identical (modulo
#      manifest) to the single-process run, and must stay byte-identical
#      with exit 0 when a worker is killed mid-run (failover), also
#      with all six fleet flags given at once; a two-"machine"
#      loopback-TCP fleet of pre-started authenticated workers must
#      survive an induced network partition with identical bytes, a
#      wrong key (--auth-key or OMN_SHARD_KEY) must exit 2 with E-AUTH,
#      and no worker may outlive the section;
#   7. fleet telemetry: a 2-worker loopback-TCP run with --stat-addr,
#      --metrics and --trace-out must serve a live Prometheus
#      exposition with the worker-spawn counter mid-run, emit one
#      merged Perfetto trace with offset-corrected per-worker tracks
#      and a fleet footer, keep the result byte-identical (modulo
#      manifest) to the single-process run, and render the per-worker
#      table under `omn report --fleet --fail-dropped`; a bare
#      `omn worker --id -1` must parse;
#   8. streaming + sampling: a sharded on-disk generation must hold the
#      records of the same generation written as one flat file, in
#      order, under the flat file's header in every shard; stats,
#      transform and diameter without --stream must read the index as
#      they read the flat file (diameter as with --stream); streamed
#      back through the sampled estimator with the sample covering every
#      source it must be byte-identical (modulo manifest and the sample
#      block) to the exact in-memory engine, and every malformed
#      sampling flag must be rejected with the usage exit code 2;
#   9. cross-driver identity: on a trace with fractional contact times,
#      every way of running the driver (plain, --progress, --checkpoint,
#      budget-truncated and resumed, a budget-truncated two-worker run
#      resumed on two workers, exact on two workers, an exhaustive
#      --sample) must print the same curves.
# Run via `make check`. CI uploads $SMOKE_METRICS, $SMOKE_TRACE,
# $SMOKE_REPORT, $SMOKE_SHARD_TRACE, $SMOKE_SHARD_REPORT,
# $SMOKE_FLEET_TRACE, $SMOKE_FLEET_METRICS and $SMOKE_FLEET_REPORT as
# artifacts.
set -eu

OMN="${OMN:-_build/default/bin/omn.exe}"
SMOKE_METRICS="${SMOKE_METRICS:-SMOKE_metrics.json}"
SMOKE_TRACE="${SMOKE_TRACE:-SMOKE_trace.json}"
SMOKE_REPORT="${SMOKE_REPORT:-SMOKE_report.json}"
SMOKE_SHARD_TRACE="${SMOKE_SHARD_TRACE:-SMOKE_shard_trace.json}"
SMOKE_SHARD_REPORT="${SMOKE_SHARD_REPORT:-SMOKE_shard_report.json}"
SMOKE_FLEET_TRACE="${SMOKE_FLEET_TRACE:-SMOKE_fleet_trace.json}"
SMOKE_FLEET_METRICS="${SMOKE_FLEET_METRICS:-SMOKE_fleet_metrics.json}"
SMOKE_FLEET_REPORT="${SMOKE_FLEET_REPORT:-SMOKE_fleet_report.json}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Every result JSON now opens with a provenance manifest whose cmdline,
# hostname and timestamps legitimately differ between runs; strip that
# one block (it is always the first key, closed at two-space indent)
# before any bit-identity comparison.
strip_manifest() {
  sed '/^  "manifest": {/,/^  },$/d' "$1"
}
same_result() {
  [ "$(strip_manifest "$1")" = "$(strip_manifest "$2")" ]
}

# --- 1. robustness ----------------------------------------------------------

"$OMN" gen --preset random --nodes 12 --hours 2 --seed 7 -o "$tmp/clean.omn" >/dev/null

for fault in truncate mangle nan self-loop negative-id window-lie; do
  "$OMN" corrupt "$tmp/clean.omn" --fault "$fault" --seed 3 -o "$tmp/bad.omn" >/dev/null
  if "$OMN" stats "$tmp/bad.omn" >/dev/null 2>&1; then
    echo "smoke FAIL: strict ingestion accepted fault '$fault'" >&2
    exit 1
  fi
  "$OMN" stats --lenient "$tmp/bad.omn" >/dev/null 2>"$tmp/report.txt"
  grep -q '^repair-report' "$tmp/report.txt" || {
    echo "smoke FAIL: no repair report for fault '$fault'" >&2
    exit 1
  }
done

# The delay grid starts at span / 5000, at least 1 s, and never above
# the span: a 0.5 s window still has curves. A window that spans no
# time has no delays at all, which is a typed window error.
printf '# window 0 0.5\n0 1 0 0.2\n1 2 0.3 0.4\n' >"$tmp/short.omn"
printf '# window 5 5\n0 1 5 5\n' >"$tmp/instant.omn"
rc=0
"$OMN" diameter "$tmp/short.omn" >/dev/null 2>"$tmp/short.err" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "smoke FAIL: 'omn diameter' on a 0.5 s window exited $rc" >&2
  cat "$tmp/short.err" >&2
  exit 1
fi
rc=0
"$OMN" diameter "$tmp/instant.omn" >/dev/null 2>"$tmp/instant.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q 'E-WINDOW' "$tmp/instant.err"; then
  echo "smoke FAIL: 'omn diameter' on a zero-span window exited $rc, expected 2 with E-WINDOW" >&2
  cat "$tmp/instant.err" >&2
  exit 1
fi

# The curve table prints hop columns 1 to min(4, --max-hops).
rc=0
"$OMN" diameter "$tmp/clean.omn" --max-hops 2 >"$tmp/hops2.out" 2>&1 || rc=$?
if [ "$rc" -ne 0 ] || ! grep -Eq '^delay +1h +2h +flood$' "$tmp/hops2.out"; then
  echo "smoke FAIL: 'omn diameter --max-hops 2' exited $rc, expected 0 with a two-column table" >&2
  cat "$tmp/hops2.out" >&2
  exit 1
fi

# NaN fails every comparison, so a guard written as `x <= 0` lets it
# through into a generator loop or an assertion; an auth-bad fault
# without a shard key cannot be injected; a fleet flag without
# --workers has no fleet to shape, and is refused before the trace is
# read (mangled.omn fails strict ingestion). Each line: the name the
# error must carry, then the arguments, run with no OMN_SHARD_KEY.
"$OMN" corrupt "$tmp/clean.omn" --fault mangle --seed 3 -o "$tmp/mangled.omn" >/dev/null
while IFS='|' read -r name args; do
  rc=0
  # shellcheck disable=SC2086
  timeout 10 env -u OMN_SHARD_KEY "$OMN" $args </dev/null >"$tmp/usage.out" 2>"$tmp/nonfinite.err" || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q "E-USAGE.*$name" "$tmp/nonfinite.err"; then
    echo "smoke FAIL: 'omn $args' exited $rc, expected 2 with E-USAGE naming $name" >&2
    cat "$tmp/nonfinite.err" >&2
    exit 1
  fi
  if [ -s "$tmp/usage.out" ]; then
    echo "smoke FAIL: 'omn $args' printed on stdout before its usage error:" >&2
    cat "$tmp/usage.out" >&2
    exit 1
  fi
done <<CASES
horizon|gen --preset random --hours inf
window|gen --preset conference --hours inf
horizon|gen --preset waypoint --hours inf
lambda|gen --preset random --lambda inf
window|gen --preset conference --hours nan
horizon|gen --preset random --hours nan
lambda|gen --preset random --lambda nan
horizon|gen --preset waypoint --hours nan
epsilon|diameter $tmp/clean.omn --epsilon nan
budget|diameter $tmp/clean.omn --budget-seconds nan
heartbeat|diameter $tmp/clean.omn --workers 2 --heartbeat-timeout nan
lambda|theory --lambda nan
auth-bad|diameter $tmp/clean.omn --workers 2 --shard-fault auth-bad:1:0
--heartbeat-timeout|diameter $tmp/mangled.omn --heartbeat-timeout 30
--shard-fault|diameter $tmp/mangled.omn --shard-fault worker-kill:2:1
--listen|diameter $tmp/mangled.omn --listen 127.0.0.1:0
--auth-key|diameter $tmp/mangled.omn --auth-key smoke-key
--worker-trace-cache|diameter $tmp/mangled.omn --worker-trace-cache $tmp/wtc
--stat-addr|diameter $tmp/mangled.omn --workers 0 --stat-addr 127.0.0.1:0
deadline|forward $tmp/clean.omn --deadline nan
TTL|forward $tmp/clean.omn --ttl=-1
threshold|transform $tmp/clean.omn --min-duration nan -o $tmp/nan_duration.omn
n < 2|theory -n 0
n < 2|theory -n 1
CASES
if [ -e "$tmp/nan_duration.omn" ]; then
  echo "smoke FAIL: 'omn transform --min-duration nan' wrote its output file" >&2
  exit 1
fi

# A command-line parse error is a usage error: 124 means a
# budget-truncated PARTIAL run, one to resume.
for args in "diameter --no-such-flag $tmp/clean.omn" \
  "diameter --worker-ckpt-dir $tmp/d $tmp/clean.omn" "chaos --shard" \
  "delay-cdf $tmp/clean.omn --max-hops 6" "diameter --retries 2 $tmp/clean.omn" \
  "diameter --task-deadline 1 $tmp/clean.omn" "diameter $tmp/clean.omn --max-hops 6 --quarantine"; do
  rc=0
  # shellcheck disable=SC2086
  "$OMN" $args >/dev/null 2>"$tmp/parse.err" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "smoke FAIL: 'omn $args' exited $rc, expected 2" >&2
    cat "$tmp/parse.err" >&2
    exit 1
  fi
done

"$OMN" diameter "$tmp/clean.omn" --budget-seconds 5 --checkpoint "$tmp/ck" >/dev/null
"$OMN" diameter "$tmp/clean.omn" --checkpoint "$tmp/ck" --resume >/dev/null

# --- 2. budget expiry (exit 124) and resume ---------------------------------

# The reference: one uninterrupted run.
"$OMN" diameter "$tmp/clean.omn" --max-hops 6 -o "$tmp/full.json" >/dev/null

# A zero budget must stop after the first chunk with the partial exit code.
rc=0
"$OMN" diameter "$tmp/clean.omn" --max-hops 6 \
  --budget-seconds 0 --checkpoint-every 1 --checkpoint "$tmp/cdf.ck" \
  -o "$tmp/partial.json" >"$tmp/partial.out" 2>&1 || rc=$?
if [ "$rc" -ne 124 ]; then
  echo "smoke FAIL: budget-truncated diameter exited $rc, expected 124" >&2
  exit 1
fi
grep -q 'PARTIAL' "$tmp/partial.out" || {
  echo "smoke FAIL: truncated diameter printed no PARTIAL banner" >&2
  exit 1
}
[ -f "$tmp/cdf.ck" ] || {
  echo "smoke FAIL: truncated diameter left no checkpoint" >&2
  exit 1
}

# Resuming from that checkpoint must complete and agree exactly.
"$OMN" diameter "$tmp/clean.omn" --max-hops 6 \
  --checkpoint-every 1 --checkpoint "$tmp/cdf.ck" --resume -o "$tmp/resumed.json" >/dev/null
same_result "$tmp/full.json" "$tmp/resumed.json" || {
  echo "smoke FAIL: resumed diameter differs from uninterrupted run" >&2
  exit 1
}
if [ -f "$tmp/cdf.ck" ]; then
  echo "smoke FAIL: checkpoint not removed after successful resume" >&2
  exit 1
fi

# --- 3. observability -------------------------------------------------------

"$OMN" diameter "$tmp/clean.omn" --max-hops 6 --domains 2 --progress \
  --metrics "$SMOKE_METRICS" >/dev/null 2>"$tmp/progress.out"
for key in '"schema": "omn-metrics 1"' 'frontier.points_pruned' 'frontier.points_kept' \
  'pool.busy_seconds' 'delay_cdf.pairs_done' '"spans"' 'driver.run'; do
  grep -q "$key" "$SMOKE_METRICS" || {
    echo "smoke FAIL: metrics snapshot lacks $key" >&2
    exit 1
  }
done
grep -q 'sources' "$tmp/progress.out" || {
  echo "smoke FAIL: --progress printed nothing" >&2
  exit 1
}

# --- 4. resilience -----------------------------------------------------------

# The chain: contact i-(i+1) at time i over 1,030 nodes. Flooding from
# source s takes 1,029 - s hops, so source 0's fixpoint takes 1,029
# rounds, the most Journey.run's bound of n_nodes rounds allows (a
# delay-optimal journey never repeats a node). The run completes, with
# the same stdout and the same result on every executor.
{
  printf '# nodes 1030\n'
  i=0
  while [ "$i" -lt 1029 ]; do
    printf '%d %d %d %d\n' "$i" "$((i + 1))" "$i" "$i"
    i=$((i + 1))
  done
} >"$tmp/chain.omn"
chain_run() {
  rc=0
  "$OMN" diameter "$tmp/chain.omn" --max-hops 4 "$@" 2>"$tmp/chain.err" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "smoke FAIL: chain run ($*) exited $rc, expected 0" >&2
    cat "$tmp/chain.err" >&2
    exit 1
  fi
}
for ex in "--domains 1" "--domains 2" "--workers 2"; do
  tag=$(printf '%s' "$ex" | tr -d ' -')
  # shellcheck disable=SC2086
  chain_run $ex >"$tmp/chain.$tag.out"
  # shellcheck disable=SC2086
  chain_run $ex -o "$tmp/chain.$tag.json" >/dev/null
  grep -q '^  "max_rounds_used": 1029$' "$tmp/chain.$tag.json" || {
    echo "smoke FAIL: chain result ($ex) does not read \"max_rounds_used\": 1029" >&2
    exit 1
  }
  cmp -s "$tmp/chain.domains1.out" "$tmp/chain.$tag.out" || {
    echo "smoke FAIL: chain run ($ex) printed other curves than --domains 1" >&2
    exit 1
  }
  same_result "$tmp/chain.domains1.json" "$tmp/chain.$tag.json" || {
    echo "smoke FAIL: chain result ($ex) differs from --domains 1" >&2
    exit 1
  }
done

# Two zero-budget runs leave two checkpoint generations on disk.
for flag in "" "--resume"; do
  rc=0
  "$OMN" diameter "$tmp/clean.omn" --max-hops 6 --budget-seconds 0 --checkpoint-every 1 \
    --checkpoint "$tmp/res.ck" $flag >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 124 ]; then
    echo "smoke FAIL: zero-budget run exited $rc, expected 124" >&2
    exit 1
  fi
done
[ -f "$tmp/res.ck.prev" ] || {
  echo "smoke FAIL: checkpoint rotation left no .prev generation" >&2
  exit 1
}

# Corrupt the current generation: resume must detect the bad CRC, fall
# back to .prev, redo the lost chunk, and agree byte for byte — except
# for the run status, which records the fallback.
"$OMN" corrupt "$tmp/res.ck" --fault ckpt-flip --seed 3 -o "$tmp/res.ck" >/dev/null
"$OMN" diameter "$tmp/clean.omn" --max-hops 6 --checkpoint-every 1 \
  --checkpoint "$tmp/res.ck" --resume -o "$tmp/fallback.json" >/dev/null 2>"$tmp/fallback.err"
grep -q 'previous generation' "$tmp/fallback.err" || {
  echo "smoke FAIL: corrupt checkpoint produced no fallback notice" >&2
  exit 1
}
grep -q '^  "ckpt_fallback": true,$' "$tmp/fallback.json" || {
  echo "smoke FAIL: post-fallback result does not record ckpt_fallback true" >&2
  exit 1
}
but_fallback() {
  strip_manifest "$1" | sed '/^  "ckpt_fallback": /d'
}
[ "$(but_fallback "$tmp/full.json")" = "$(but_fallback "$tmp/fallback.json")" ] || {
  echo "smoke FAIL: post-fallback output differs from uninterrupted run" >&2
  exit 1
}
if [ -f "$tmp/res.ck" ] || [ -f "$tmp/res.ck.prev" ]; then
  echo "smoke FAIL: checkpoint generations not removed after completion" >&2
  exit 1
fi

# --- 5. timeline + report ----------------------------------------------------

# One traced run, then the report analyzer over its trace + metrics.
# --fail-dropped turns any ring overflow into a failing exit code, so a
# trace too small for its run can never pass silently.
"$OMN" diameter "$tmp/clean.omn" --max-hops 6 --domains 2 \
  --trace-out "$SMOKE_TRACE" --metrics "$SMOKE_METRICS" -o "$tmp/traced.json" >/dev/null
for key in '"omn-timeline 1"' 'traceEvents' 'thread_name' '"chunk"' 'pool.work' \
  '"manifest"' 'trace_sha256'; do
  grep -q "$key" "$SMOKE_TRACE" || {
    echo "smoke FAIL: trace export lacks $key" >&2
    exit 1
  }
done
same_result "$tmp/full.json" "$tmp/traced.json" || {
  echo "smoke FAIL: traced run differs from untraced run" >&2
  exit 1
}
"$OMN" report "$tmp/traced.json" --timeline "$SMOKE_TRACE" --metrics "$SMOKE_METRICS" \
  --json --fail-dropped -o "$SMOKE_REPORT" >/dev/null || {
  echo "smoke FAIL: omn report rejected the traced run (dropped events?)" >&2
  exit 1
}
for key in '"omn-report 1"' '"dropped_events": 0' '"domains"' '"chunks"' '"manifest"'; do
  grep -q "$key" "$SMOKE_REPORT" || {
    echo "smoke FAIL: report lacks $key" >&2
    exit 1
  }
done

# --- 6. sharded execution -----------------------------------------------------

# Results must not depend on how the work is placed: a 3-worker sharded
# run is the same bytes as the single-process run, and the manifest
# records the worker count.
"$OMN" diameter "$tmp/clean.omn" --max-hops 6 --workers 3 \
  -o "$tmp/sharded.json" >/dev/null
same_result "$tmp/full.json" "$tmp/sharded.json" || {
  echo "smoke FAIL: 3-worker sharded run differs from single-process run" >&2
  exit 1
}
grep -q '"workers": 3' "$tmp/sharded.json" || {
  echo "smoke FAIL: sharded manifest lacks the worker count" >&2
  exit 1
}

# Killing a worker mid-run must not cost a source, a byte of output, or
# the exit code: its unacknowledged sources go to the workers that have
# room and the worker is respawned.
rc=0
"$OMN" diameter "$tmp/clean.omn" --max-hops 6 --workers 3 \
  --shard-fault worker-kill:2:1 --trace-out "$SMOKE_SHARD_TRACE" \
  -o "$tmp/sharded-kill.json" >/dev/null 2>"$tmp/shard.err" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "smoke FAIL: worker-kill sharded run exited $rc, expected 0" >&2
  exit 1
fi
same_result "$tmp/full.json" "$tmp/sharded-kill.json" || {
  echo "smoke FAIL: worker-kill sharded run differs from single-process run" >&2
  exit 1
}
grep -q 'shard failover' "$tmp/shard.err" || {
  echo "smoke FAIL: worker-kill run printed no failover summary" >&2
  exit 1
}
grep -q 'worker.spawn' "$SMOKE_SHARD_TRACE" || {
  echo "smoke FAIL: shard trace lacks worker.spawn events" >&2
  exit 1
}
"$OMN" report "$tmp/sharded-kill.json" --timeline "$SMOKE_SHARD_TRACE" \
  --json -o "$SMOKE_SHARD_REPORT" >/dev/null || {
  echo "smoke FAIL: omn report rejected the sharded run" >&2
  exit 1
}
for key in '"shard"' '"worker_spawns"' '"reassigned_sources"'; do
  grep -q "$key" "$SMOKE_SHARD_REPORT" || {
    echo "smoke FAIL: shard report lacks $key" >&2
    exit 1
  }
done

# All six fleet flags at once reach the fleet: keyed workers spawned
# with a trace store, dialling a TCP listener, under their own heartbeat
# timeout and a kill, with a stats endpoint up — and the same bytes.
rc=0
"$OMN" diameter "$tmp/clean.omn" --max-hops 6 --workers 2 --heartbeat-timeout 30 \
  --shard-fault worker-kill:2:1 --listen 127.0.0.1:0 --auth-key smoke-flag-key \
  --worker-trace-cache "$tmp/wstore" --stat-addr 127.0.0.1:0 \
  -o "$tmp/flags.json" >/dev/null 2>"$tmp/flags.err" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "smoke FAIL: run with every fleet flag exited $rc, expected 0" >&2
  cat "$tmp/flags.err" >&2
  exit 1
fi
same_result "$tmp/full.json" "$tmp/flags.json" || {
  echo "smoke FAIL: run with every fleet flag differs from single-process run" >&2
  exit 1
}
grep -q 'shard failover' "$tmp/flags.err" && grep -q 'fleet stats on' "$tmp/flags.err" || {
  echo "smoke FAIL: run with every fleet flag reported no failover or stats endpoint" >&2
  exit 1
}
[ -n "$(ls -A "$tmp/wstore" 2>/dev/null)" ] || {
  echo "smoke FAIL: --worker-trace-cache left the workers' store empty" >&2
  exit 1
}

# --- 6b. multi-machine sharding over loopback TCP -----------------------------

# Two pre-started workers play the remote machines: each listens on an
# ephemeral TCP port with the pre-shared key (via OMN_SHARD_KEY, never
# argv) and a digest-addressed trace cache. The coordinator dials them,
# ships the trace once, and must produce the same bytes as the
# single-process run even with a network partition injected mid-run.
SHARD_KEY="smoke-preshared-key"
OMN_SHARD_KEY="$SHARD_KEY" "$OMN" worker --listen 127.0.0.1:0 \
  --trace-cache "$tmp/store" 2>"$tmp/w1.log" &
w1=$!
OMN_SHARD_KEY="$SHARD_KEY" "$OMN" worker --listen 127.0.0.1:0 \
  --trace-cache "$tmp/store" 2>"$tmp/w2.log" &
w2=$!
# the workers are normally dead by the time the trap fires; under
# set -e a failing kill inside an EXIT trap would turn "smoke ok"
# into exit 1
trap 'kill "$w1" "$w2" 2>/dev/null || true; rm -rf "$tmp"' EXIT
port_of() {
  i=0
  while [ "$i" -lt 100 ]; do
    p=$(sed -n 's/^omn worker: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$1")
    if [ -n "$p" ]; then
      echo "$p"
      return 0
    fi
    sleep 0.1
    i=$((i + 1))
  done
  echo "smoke FAIL: worker never reported its listening port ($1)" >&2
  exit 1
}
p1=$(port_of "$tmp/w1.log")
p2=$(port_of "$tmp/w2.log")

rc=0
OMN_SHARD_KEY="$SHARD_KEY" "$OMN" diameter "$tmp/clean.omn" --max-hops 6 \
  --workers 127.0.0.1:"$p1",127.0.0.1:"$p2" --shard-fault net-partition:2:0 \
  -o "$tmp/tcp.json" >/dev/null 2>"$tmp/tcp.err" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "smoke FAIL: partitioned TCP sharded run exited $rc, expected 0" >&2
  cat "$tmp/tcp.err" >&2
  exit 1
fi
same_result "$tmp/full.json" "$tmp/tcp.json" || {
  echo "smoke FAIL: partitioned TCP sharded run differs from single-process run" >&2
  exit 1
}

# A coordinator with the wrong key must be turned away with a typed
# E-AUTH error (exit 2) — never a hang, a crash, or a silent accept.
rc=0
"$OMN" diameter "$tmp/clean.omn" --max-hops 6 \
  --workers 127.0.0.1:"$p1",127.0.0.1:"$p2" --auth-key wrong-key \
  -o "$tmp/tcp-bad.json" >/dev/null 2>"$tmp/auth.err" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "smoke FAIL: wrong-key coordinator exited $rc, expected 2" >&2
  exit 1
fi
grep -q 'E-AUTH' "$tmp/auth.err" || {
  echo "smoke FAIL: wrong-key rejection carried no E-AUTH code" >&2
  exit 1
}
# The same through the environment, the way spawned workers get the key.
rc=0
OMN_SHARD_KEY=wrong-key "$OMN" diameter "$tmp/clean.omn" --max-hops 6 \
  --workers 127.0.0.1:"$p1",127.0.0.1:"$p2" \
  -o "$tmp/tcp-badenv.json" >/dev/null 2>"$tmp/auth-env.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q 'E-AUTH' "$tmp/auth-env.err"; then
  echo "smoke FAIL: OMN_SHARD_KEY=wrong-key coordinator exited $rc, expected 2 with E-AUTH" >&2
  cat "$tmp/auth-env.err" >&2
  exit 1
fi

# The workers must have kept serving: a correct run still completes
# after the rejected one, now warm (trace held by digest on both ends).
OMN_SHARD_KEY="$SHARD_KEY" "$OMN" diameter "$tmp/clean.omn" --max-hops 6 \
  --workers 127.0.0.1:"$p1",127.0.0.1:"$p2" -o "$tmp/tcp2.json" >/dev/null
same_result "$tmp/full.json" "$tmp/tcp2.json" || {
  echo "smoke FAIL: post-rejection TCP run differs from single-process run" >&2
  exit 1
}
kill "$w1" "$w2" 2>/dev/null || true
wait "$w1" "$w2" 2>/dev/null || true
for w in "$w1" "$w2"; do
  if kill -0 "$w" 2>/dev/null; then
    echo "smoke FAIL: omn worker $w outlived its section" >&2
    exit 1
  fi
done

# --- 7. fleet telemetry --------------------------------------------------------

# A bare negative worker id must parse (Cmdliner cannot eat `--id -1`
# unaided; the CLI glues it into `--id=-1`). The correct failure is the
# missing-endpoint usage error, never "unknown option".
rc=0
"$OMN" worker --id -1 >/dev/null 2>"$tmp/id.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q 'need one of' "$tmp/id.err"; then
  echo "smoke FAIL: bare 'omn worker --id -1' did not parse (exit $rc)" >&2
  cat "$tmp/id.err" >&2
  exit 1
fi

# One telemetry-on fleet run: 2 spawned workers over loopback TCP, the
# net-slow fault stretching the run enough to scrape the live stats
# endpoint mid-flight. The stat port is announced on stderr, a file
# created here first: the backgrounded redirect may open it only after
# the first read below, which under set -e would end the script.
rc=0
: >"$tmp/fleet.err"
OMN_SHARD_KEY="$SHARD_KEY" "$OMN" diameter "$tmp/clean.omn" --max-hops 6 \
  --workers 2 --listen 127.0.0.1:0 --stat-addr 127.0.0.1:0 \
  --shard-fault net-slow:1:0 \
  --metrics "$SMOKE_FLEET_METRICS" --trace-out "$SMOKE_FLEET_TRACE" \
  -o "$tmp/fleet.json" >/dev/null 2>"$tmp/fleet.err" &
fleet=$!
scrape=""
if command -v curl >/dev/null 2>&1; then
  i=0
  while [ "$i" -lt 200 ]; do
    sp=$(sed -n 's/^omn: fleet stats on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$tmp/fleet.err")
    if [ -n "$sp" ]; then
      if scrape=$(curl -fsS --max-time 2 "http://127.0.0.1:$sp/metrics" 2>/dev/null) \
        && [ -n "$scrape" ]; then
        break
      fi
    fi
    if ! kill -0 "$fleet" 2>/dev/null; then
      break
    fi
    sleep 0.05
    i=$((i + 1))
  done
fi
wait "$fleet" || {
  echo "smoke FAIL: fleet telemetry run failed" >&2
  cat "$tmp/fleet.err" >&2
  exit 1
}
if command -v curl >/dev/null 2>&1; then
  case "$scrape" in
  *"# TYPE omn_shard_worker_spawns counter"*) : ;;
  *)
    echo "smoke FAIL: live stats endpoint served no worker-spawn counter" >&2
    exit 1
    ;;
  esac
fi
# telemetry never changes the result
same_result "$tmp/full.json" "$tmp/fleet.json" || {
  echo "smoke FAIL: fleet telemetry run differs from single-process run" >&2
  exit 1
}
# the merged trace has the coordinator track, both worker tracks,
# shard.compute spans and the offset-bearing fleet footer
for key in 'omn coordinator' '"worker 0"' '"worker 1"' 'shard.compute' \
  '"fleet"' 'clock_offset_s' 'rtt_s'; do
  grep -q "$key" "$SMOKE_FLEET_TRACE" || {
    echo "smoke FAIL: merged fleet trace lacks $key" >&2
    exit 1
  }
done
# the pulled worker metrics carry the stamped dropped counter, so
# --fail-dropped works from metrics alone
grep -q 'timeline.dropped_events' "$SMOKE_FLEET_METRICS" || {
  echo "smoke FAIL: fleet metrics lack the stamped dropped counter" >&2
  exit 1
}
# the per-worker table renders, and the JSON report carries the rows
"$OMN" report "$tmp/fleet.json" --timeline "$SMOKE_FLEET_TRACE" \
  --metrics "$SMOKE_FLEET_METRICS" --fleet --fail-dropped >"$tmp/fleet-report.txt" || {
  echo "smoke FAIL: omn report --fleet rejected the fleet run" >&2
  exit 1
}
grep -q 'fleet imbalance' "$tmp/fleet-report.txt" || {
  echo "smoke FAIL: fleet report printed no imbalance line" >&2
  exit 1
}
"$OMN" report "$tmp/fleet.json" --timeline "$SMOKE_FLEET_TRACE" \
  --metrics "$SMOKE_FLEET_METRICS" --fleet --fail-dropped --json \
  -o "$SMOKE_FLEET_REPORT" >/dev/null
for key in '"fleet"' '"busy_s"' '"imbalance"' '"clock_offset_s"'; do
  grep -q "$key" "$SMOKE_FLEET_REPORT" || {
    echo "smoke FAIL: fleet report JSON lacks $key" >&2
    exit 1
  }
done

# --- 8. streaming ingestion + sampled estimator -------------------------------

# Sharded on-disk generation: the conference preset streams straight to
# disk, so the index + shards must exist and stream back losslessly.
"$OMN" gen --preset conference --nodes 20 --hours 3 --seed 11 --shards 4 \
  -o "$tmp/conf.idx" >/dev/null
[ -f "$tmp/conf.idx" ] && [ -f "$tmp/conf.idx.0003" ] || {
  echo "smoke FAIL: sharded gen left no index or shards" >&2
  exit 1
}

# The shards cut the flat file by start time: generated with the same
# preset and flags as one flat file, their records, concatenated in
# index order, are its records, and every shard has its header lines.
# Checked on the run above and on a random-preset run whose fractional
# times fill every shard.
shards_equal_flat() {
  sed -n '/^#/p' "$2" >"$2.head"
  : >"$2.records"
  for s in $(sed '/^#/d' "$1"); do
    sed -n '/^#/p' "$(dirname "$1")/$s" | cmp -s - "$2.head" || {
      echo "smoke FAIL: shard $s header differs from the flat file's" >&2
      exit 1
    }
    sed '/^#/d' "$(dirname "$1")/$s" >>"$2.records"
  done
  sed '/^#/d' "$2" | cmp -s - "$2.records" || {
    echo "smoke FAIL: the records of $1's shards differ from those of $2" >&2
    exit 1
  }
}
"$OMN" gen --preset conference --nodes 20 --hours 3 --seed 11 -o "$tmp/conf.omn" >/dev/null
shards_equal_flat "$tmp/conf.idx" "$tmp/conf.omn"
"$OMN" gen --preset random --nodes 30 --hours 6 --seed 11 --shards 4 -o "$tmp/rnd.idx" >/dev/null
"$OMN" gen --preset random --nodes 30 --hours 6 --seed 11 -o "$tmp/rnd.omn" >/dev/null
shards_equal_flat "$tmp/rnd.idx" "$tmp/rnd.omn"

# The exact engine over the streamed trace is the reference.
"$OMN" diameter "$tmp/conf.idx" --stream -o "$tmp/exact.json" >/dev/null

# Every command reads the index, with or without --stream: stats and
# transform as they read the flat file of the same generation, diameter
# as it reads the index under --stream.
"$OMN" stats "$tmp/conf.idx" >"$tmp/stats.idx.out"
"$OMN" stats "$tmp/conf.omn" >"$tmp/stats.omn.out"
cmp -s "$tmp/stats.idx.out" "$tmp/stats.omn.out" || {
  echo "smoke FAIL: 'omn stats' on the shard index differs from the flat file" >&2
  exit 1
}
"$OMN" transform "$tmp/conf.idx" --drop-prob 0.5 --seed 1 -o "$tmp/thin.idx.omn" >/dev/null
"$OMN" transform "$tmp/conf.omn" --drop-prob 0.5 --seed 1 -o "$tmp/thin.flat.omn" >/dev/null
cmp -s "$tmp/thin.idx.omn" "$tmp/thin.flat.omn" || {
  echo "smoke FAIL: 'omn transform' on the shard index differs from the flat file" >&2
  exit 1
}
"$OMN" diameter "$tmp/conf.idx" -o "$tmp/exact-index.json" >/dev/null
same_result "$tmp/exact.json" "$tmp/exact-index.json" || {
  echo "smoke FAIL: 'omn diameter' on the shard index without --stream differs" >&2
  exit 1
}

# A sample that covers every source must reproduce it byte for byte,
# modulo the manifest and the sample block (both strippable the same
# way: first-level keys closed at two-space indent).
strip_sample() {
  sed '/^  "manifest": {/,/^  },$/d; /^  "sample": {/,/^  },$/d' "$1"
}
"$OMN" diameter "$tmp/conf.idx" --stream --sample 1000 \
  -o "$tmp/sampled.json" >/dev/null
[ "$(strip_sample "$tmp/exact.json")" = "$(strip_sample "$tmp/sampled.json")" ] || {
  echo "smoke FAIL: exhaustive sampled run differs from the exact engine" >&2
  exit 1
}
grep -q '"exhaustive": true' "$tmp/sampled.json" || {
  echo "smoke FAIL: sample covering all sources not reported exhaustive" >&2
  exit 1
}

# The sharded sampled path must agree too.
"$OMN" diameter "$tmp/conf.idx" --stream --sample 1000 --workers 2 \
  -o "$tmp/sampled-shard.json" >/dev/null
[ "$(strip_sample "$tmp/exact.json")" = "$(strip_sample "$tmp/sampled-shard.json")" ] || {
  echo "smoke FAIL: sharded sampled run differs from the exact engine" >&2
  exit 1
}

# Malformed sampling flags: typed usage errors, exit code 2.
for bad in "--sample 0" "--sample=-2" "--ci-width 0 --sample 4" \
  "--ci-width=-1 --sample 4" "--epsilon 0 --sample 4" "--epsilon 1.5 --sample 4" \
  "--ci-width 0.5" "--confidence 0.9" "--bootstrap 100" "--sample-seed 1"; do
  rc=0
  # shellcheck disable=SC2086
  "$OMN" diameter "$tmp/conf.idx" --stream $bad >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "smoke FAIL: 'omn diameter $bad' exited $rc, expected usage error 2" >&2
    exit 1
  fi
done

# --- 9. cross-driver identity -----------------------------------------------

# One merge order everywhere: the curves depend only on which sources
# completed. The conference preset has fractional contact times, where
# another merge order changes the last ulp of the curves, so every run
# below must print the same curve fields (everything from "grid" on;
# the manifest, the sample block and the run-status keys come before).
curve_fields() {
  sed -n '/^  "grid": \[/,$p' "$1"
}
"$OMN" gen --preset conference --nodes 60 --hours 12 --seed 5 -o "$tmp/x.omn" >/dev/null
"$OMN" diameter "$tmp/x.omn" -o "$tmp/x-plain.json" >/dev/null
"$OMN" diameter "$tmp/x.omn" --progress -o "$tmp/x-progress.json" >/dev/null 2>&1
"$OMN" diameter "$tmp/x.omn" --checkpoint "$tmp/x.ck" -o "$tmp/x-ckpt.json" >/dev/null
rc=0
"$OMN" diameter "$tmp/x.omn" --budget-seconds 0 --checkpoint-every 1 \
  --checkpoint "$tmp/x-budget.ck" -o "$tmp/x-partial.json" >/dev/null || rc=$?
if [ "$rc" -ne 124 ]; then
  echo "smoke FAIL: zero-budget diameter exited $rc, expected 124" >&2
  exit 1
fi
# the resume needs no matching --checkpoint-every: batches are not part
# of the checkpoint
"$OMN" diameter "$tmp/x.omn" --checkpoint "$tmp/x-budget.ck" --resume \
  -o "$tmp/x-resumed.json" >/dev/null
# the fleet is one more executor of the driver: a zero budget still
# completes a batch and checkpoints it, and the resume finishes on the
# fleet
rc=0
"$OMN" diameter "$tmp/x.omn" --workers 2 --budget-seconds 0 --checkpoint-every 1 \
  --checkpoint "$tmp/x-fleet.ck" -o "$tmp/x-fleet-partial.json" >"$tmp/x-fleet.out" || rc=$?
if [ "$rc" -ne 124 ]; then
  echo "smoke FAIL: zero-budget fleet diameter exited $rc, expected 124" >&2
  exit 1
fi
if grep -q 'after 0 of' "$tmp/x-fleet.out"; then
  echo "smoke FAIL: zero-budget fleet run completed no source" >&2
  exit 1
fi
"$OMN" diameter "$tmp/x.omn" --workers 2 --checkpoint "$tmp/x-fleet.ck" --resume \
  -o "$tmp/x-fleetresumed.json" >/dev/null
"$OMN" diameter "$tmp/x.omn" --workers 2 -o "$tmp/x-diamworkers.json" >/dev/null
"$OMN" diameter "$tmp/x.omn" --sample 1000 -o "$tmp/x-sample.json" >/dev/null
curve_fields "$tmp/x-plain.json" >"$tmp/x-plain.curves"
[ -s "$tmp/x-plain.curves" ] || {
  echo "smoke FAIL: no curve fields in the plain diameter output" >&2
  exit 1
}
for run in progress ckpt resumed fleetresumed diamworkers sample; do
  curve_fields "$tmp/x-$run.json" | cmp -s - "$tmp/x-plain.curves" || {
    echo "smoke FAIL: $run curves differ from plain omn diameter" >&2
    exit 1
  }
done
if [ -f "$tmp/x.ck" ] || [ -f "$tmp/x-budget.ck" ] || [ -f "$tmp/x-fleet.ck" ]; then
  echo "smoke FAIL: completed runs left their checkpoints behind" >&2
  exit 1
fi

echo "smoke ok"
