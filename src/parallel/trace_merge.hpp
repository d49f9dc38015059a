/// \file trace_merge.hpp
/// \brief End-of-run trace collection: clock-offset handshake + gather of
/// every rank's event buffer on global rank 0.
///
/// The collector is a collective over the run's PEContext, called once by
/// every rank AFTER the partition is materialized and the rank's counter
/// record captured — so its traffic is never counted and can never
/// influence the partition (the observer-only guarantee trace_test
/// pins). It ships event buffers only: the counters travel in the record
/// gather every SPMD run performs, traced or not.
///
/// Clock alignment: the in-process backend shares one steady clock, so
/// offsets are zero by construction. Across TCP processes rank 0
/// ping-pongs each rank (a few rounds, keeping the minimum-RTT sample)
/// and estimates offset_q = T_q - (T_0 + T_1)/2 — the classic NTP
/// midpoint, exact when the two legs are symmetric, bounded by RTT/2
/// when not. On one host the processes still share CLOCK_MONOTONIC, so
/// the estimate doubles as a self-check (it must come out near zero).
#pragma once

#include "parallel/pe_runtime.hpp"
#include "util/trace.hpp"

namespace kappa {

/// Collective: every rank of \p pe's run must call it exactly once, at
/// the same program point. Rank 0 returns the merged, clock-aligned
/// trace of every rank; other ranks return an empty trace (zero ranks)
/// after shipping their buffers.
[[nodiscard]] MergedTrace collect_trace(PEContext& pe,
                                        const TraceRecorder& recorder);

}  // namespace kappa
