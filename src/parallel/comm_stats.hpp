/// \file comm_stats.hpp
/// \brief Per-PE communication counters of the SPMD runtime.
///
/// A standalone header so that result types (core/partitioner.hpp) can
/// carry communication statistics without pulling in the whole thread
/// runtime — entry points forward-declare PERuntime instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace kappa {

/// Halo-exchange traffic of one coarsening level: the point-to-point
/// messages the distributed hierarchy store sends while building the
/// level (ghost refreshes, boundary match decisions, coarse-edge
/// contributions) — the per-level communication shape of shard-owned
/// contraction.
struct LevelHaloStats {
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
};

/// Per-PE communication statistics. The wire model is uniform: every
/// point-to-point send counts one message plus its payload words, and a
/// collective counts one message plus one payload copy *per destination
/// rank* (p - 1 of them for a flat all-gather or a broadcast root) — the
/// counters model what a non-hierarchical MPI implementation would put on
/// the wire, so a single-PE runtime communicates nothing.
struct CommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t words_sent = 0;
  /// Receive-side twins of the send counters: messages and payload words
  /// this PE took delivery of (point-to-point and collective lanes). In a
  /// closed run Σ messages_received = Σ messages_sent over all ranks —
  /// the per-rank split exposes asymmetric roles (a broadcast root) that
  /// the send counters alone hide.
  std::uint64_t messages_received = 0;
  std::uint64_t words_received = 0;
  std::uint64_t barriers = 0;
  /// Nanoseconds this PE spent blocked inside collectives / barriers —
  /// the time a rank waits for the slowest participant instead of doing
  /// pair work. The color-class schedule pays this at every class
  /// boundary.
  std::uint64_t collective_idle_ns = 0;
  /// Nanoseconds this PE spent blocked in a point-to-point receive with
  /// an empty mailbox (waiting for work or for a partner's side).
  std::uint64_t recv_idle_ns = 0;
  /// Scheduling rounds (color classes) in which this rank neither
  /// executed a pair nor shipped a partner side — it only waited for the
  /// round to pass.
  std::uint64_t rounds_waited = 0;
  /// Bytes this rank's transport endpoint actually put on / took off the
  /// physical wire during the run (frame headers and collective-lane
  /// traffic included). Zero on the in-process backend — these measure
  /// the real interconnect, the counterpart to the modeled word counters
  /// above.
  std::uint64_t wire_bytes_sent = 0;
  std::uint64_t wire_bytes_received = 0;
  /// kappa-watch heartbeat frames / payload words this rank's endpoint
  /// put on the wire during the run — the measured overhead of live
  /// observability, kept out of the modeled counters above (heartbeats
  /// are transport-internal observer traffic, not algorithm traffic) but
  /// included in wire_bytes_sent. Zero with watch off or in-process.
  std::uint64_t heartbeat_frames_sent = 0;
  std::uint64_t heartbeat_words_sent = 0;
  /// Per-coarsening-level halo-exchange breakdown (subset of the totals
  /// above), indexed by level; empty outside the SPMD coarsening path.
  std::vector<LevelHaloStats> halo_per_level;

  /// Total nanoseconds blocked (collectives plus empty-mailbox receives).
  [[nodiscard]] std::uint64_t idle_ns() const {
    return collective_idle_ns + recv_idle_ns;
  }
};

/// Peak resident footprint of the data-sharded SPMD graph structures on
/// one rank: the owned-node CSR plus the one-hop ghost layer (§3.3) and
/// the §5.2 block-row store of the refiner. `arcs` counts resident
/// adjacency entries (directed). The replicated structures every rank
/// keeps regardless of p (the level partition vector, ownership maps) are
/// deliberately excluded: this measures the O(n/p + halo) graph data.
struct ShardFootprint {
  std::uint64_t owned_nodes = 0;  ///< peak owned nodes resident at once
  std::uint64_t ghost_nodes = 0;  ///< peak ghost/halo nodes resident at once
  std::uint64_t arcs = 0;         ///< peak resident adjacency entries

  /// Pointwise peak of two footprints.
  void merge_peak(const ShardFootprint& other) {
    owned_nodes = std::max(owned_nodes, other.owned_nodes);
    ghost_nodes = std::max(ghost_nodes, other.ghost_nodes);
    arcs = std::max(arcs, other.arcs);
  }

  /// Resident nodes, owned plus ghosts.
  [[nodiscard]] std::uint64_t resident_nodes() const {
    return owned_nodes + ghost_nodes;
  }
};

/// Volume of the §5.2 partner-side shipping during SPMD pairwise
/// refinement, accumulated per rank. Sender-side counters compare what
/// band shipping put on the wire against a counterfactual: the whole
/// block a whole-block send would have needed for the same pairs (counted,
/// never shipped). The executor side counts the pairs it ran.
/// `rows_shipped` tracks the band (plus its one-hop fringe stubs), on
/// large blocks far below `whole_block_rows`.
struct PairShipStats {
  std::uint64_t pairs_executed = 0;   ///< pairs this rank executed
  std::uint64_t pairs_shipped = 0;    ///< partner sides this rank sent
  std::uint64_t rows_shipped = 0;     ///< band rows + fringe stubs sent
  std::uint64_t words_shipped = 0;    ///< wire words of the sent sides
  std::uint64_t whole_block_rows = 0; ///< rows a whole-block send needed

  void operator+=(const PairShipStats& other) {
    pairs_executed += other.pairs_executed;
    pairs_shipped += other.pairs_shipped;
    rows_shipped += other.rows_shipped;
    words_shipped += other.words_shipped;
    whole_block_rows += other.whole_block_rows;
  }
};

/// Aggregates per-rank counters into one total: messages, words, and idle
/// time add up; barriers are synchronization points every rank passes
/// together, so the aggregate is the maximum, not the sum.
///
/// Covers EVERY CommStats field — the pinned aggregation test in
/// trace_test.cpp static-asserts on sizeof(CommStats), so a new field
/// cannot land without either being aggregated here or being explicitly
/// exempted there.
[[nodiscard]] inline CommStats total_comm_stats(
    const std::vector<CommStats>& per_rank) {
  CommStats total;
  for (const CommStats& s : per_rank) {
    total.messages_sent += s.messages_sent;
    total.words_sent += s.words_sent;
    total.messages_received += s.messages_received;
    total.words_received += s.words_received;
    total.barriers = std::max(total.barriers, s.barriers);
    total.collective_idle_ns += s.collective_idle_ns;
    total.recv_idle_ns += s.recv_idle_ns;
    total.rounds_waited += s.rounds_waited;
    total.wire_bytes_sent += s.wire_bytes_sent;
    total.wire_bytes_received += s.wire_bytes_received;
    total.heartbeat_frames_sent += s.heartbeat_frames_sent;
    total.heartbeat_words_sent += s.heartbeat_words_sent;
    if (s.halo_per_level.size() > total.halo_per_level.size()) {
      total.halo_per_level.resize(s.halo_per_level.size());
    }
    for (std::size_t l = 0; l < s.halo_per_level.size(); ++l) {
      total.halo_per_level[l].messages += s.halo_per_level[l].messages;
      total.halo_per_level[l].words += s.halo_per_level[l].words;
    }
  }
  return total;
}

}  // namespace kappa
