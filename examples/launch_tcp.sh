#!/usr/bin/env bash
# Launches one multi-process SPMD partition run on localhost: p copies of
# kappa_cli connected by the TCP transport, one rank per process.
#
#   usage: launch_tcp.sh <p> <graph.metis> <k> [extra kappa_cli flags...]
#
#   KAPPA_CLI=path/to/kappa_cli   binary (default: ./build/kappa_cli)
#   KAPPA_PORT=17771              rank 0's rendezvous port
#   KAPPA_TRACE_OUT=trace.json    traced run: every rank gets
#                                 --trace-out (the tracing decision is
#                                 collective); rank 0 writes the single
#                                 merged Chrome-trace JSON here
#   KAPPA_METRICS_OUT=m.json      metrics, traced or not: rank 0 writes
#                                 the document here, ranks > 0 the same
#                                 complete document (every rank's
#                                 counters) to m.json.rank<R>
#   KAPPA_WATCH_OUT=watch.jsonl   kappa-watch: rank 0 streams live
#                                 kappa.snapshot.v1 snapshots here (watch
#                                 them with tools/kappa_top.py); ranks > 0
#                                 write stall reports, if any, to
#                                 watch.jsonl.rank<R>
#   KAPPA_STALL_TIMEOUT_MS=2000   arm the per-rank stall watchdog: a rank
#                                 that stops advancing for this long emits
#                                 a structured stall report
#   KAPPA_RECV_TIMEOUT_MS=60000   dead-peer deadline of blocking receives
#                                 (--recv-timeout-ms on every rank)
#
# Ranks 1..p-1 run in the background; rank 0 runs in the foreground and
# prints the result. Every rank computes the identical partition.
set -euo pipefail

if [ "$#" -lt 3 ]; then
  echo "usage: $0 <p> <graph.metis> <k> [extra kappa_cli flags...]" >&2
  exit 2
fi

p="$1"; graph="$2"; k="$3"; shift 3
cli="${KAPPA_CLI:-./build/kappa_cli}"
port="${KAPPA_PORT:-17771}"

if ! [ -x "$cli" ]; then
  echo "error: kappa_cli binary not found at '$cli' (set KAPPA_CLI)" >&2
  exit 1
fi

# Observability plumbing: the flags must reach EVERY rank — tracing is a
# collective decision (rank 0 gathers every rank's span buffer at the end
# of the run), so a rank launched without them would leave the gather
# hanging. Rank 0 ends up with the one merged trace and the metrics
# file; ranks > 0 suffix their complete metrics dumps with .rank<R>
# themselves.
obs_flags=()
if [ -n "${KAPPA_TRACE_OUT:-}" ]; then
  obs_flags+=(--trace-out="$KAPPA_TRACE_OUT")
fi
if [ -n "${KAPPA_METRICS_OUT:-}" ]; then
  obs_flags+=(--metrics-out="$KAPPA_METRICS_OUT")
fi
# kappa-watch knobs, same every-rank rule: heartbeats are only useful when
# every peer sends them, and a watchdog on one rank classifies the others.
if [ -n "${KAPPA_WATCH_OUT:-}" ]; then
  obs_flags+=(--watch-out="$KAPPA_WATCH_OUT")
fi
if [ -n "${KAPPA_STALL_TIMEOUT_MS:-}" ]; then
  obs_flags+=(--stall-timeout-ms="$KAPPA_STALL_TIMEOUT_MS")
fi
if [ -n "${KAPPA_RECV_TIMEOUT_MS:-}" ]; then
  obs_flags+=(--recv-timeout-ms="$KAPPA_RECV_TIMEOUT_MS")
fi

pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

for ((rank = 1; rank < p; ++rank)); do
  "$cli" "$graph" "$k" --pes="$p" --transport=tcp --rank="$rank" \
    --peers=127.0.0.1:"$port" "${obs_flags[@]:-}" "$@" >/dev/null 2>&1 &
  pids+=("$!")
done

"$cli" "$graph" "$k" --pes="$p" --transport=tcp --rank=0 \
  --peers=127.0.0.1:"$port" "${obs_flags[@]:-}" "$@"

for pid in "${pids[@]:-}"; do
  wait "$pid"
done
trap - EXIT
