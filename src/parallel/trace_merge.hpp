/// \file trace_merge.hpp
/// \brief End-of-run trace collection: clock-offset handshake + gather of
/// every rank's event buffer and observability snapshot on global rank 0.
///
/// The collector is a collective over the run's PEContext, called once by
/// every rank AFTER the partition is materialized — its handshake and
/// gather traffic shows up in CommStats (honestly: collection is part of
/// the run) but can never influence the partition, which is the
/// observer-only guarantee the trace_test determinism check pins.
///
/// Clock alignment: the in-process backend shares one steady clock, so
/// offsets are zero by construction. Across TCP processes rank 0
/// ping-pongs each rank (a few rounds, keeping the minimum-RTT sample)
/// and estimates offset_q = T_q - (T_0 + T_1)/2 — the classic NTP
/// midpoint, exact when the two legs are symmetric, bounded by RTT/2
/// when not. On one host the processes still share CLOCK_MONOTONIC, so
/// the estimate doubles as a self-check (it must come out near zero).
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/comm_stats.hpp"
#include "parallel/pe_runtime.hpp"
#include "util/trace.hpp"

namespace kappa {

/// One rank's scalar observability block, shipped to rank 0 alongside its
/// trace buffer. On the TCP backend each process only observes its own
/// counters; gathering these makes rank 0's metrics as complete as an
/// in-process run's.
struct RankSnapshot {
  CommStats comm;
  ShardFootprint shard_memory;
  ShardFootprint hierarchy_memory;
  ShardFootprint partition_memory;
  PairShipStats pair_ship;
};

/// Result of collect_trace(): populated on global rank 0, empty (zero
/// ranks) everywhere else.
struct CollectedTrace {
  MergedTrace trace;
  std::vector<RankSnapshot> ranks;
};

/// Collective: every rank of \p pe's run must call it exactly once, at
/// the same program point. Rank 0 returns the merged, clock-aligned
/// trace plus every rank's snapshot; other ranks return an empty result
/// after shipping their buffers.
[[nodiscard]] CollectedTrace collect_trace(PEContext& pe,
                                           const TraceRecorder& recorder,
                                           const RankSnapshot& mine);

}  // namespace kappa
