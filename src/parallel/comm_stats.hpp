/// \file comm_stats.hpp
/// \brief Per-rank counters of an SPMD run: the counter structs, the one
/// record (RankCounters) that carries all of them per rank, and the table
/// (kRankCounters) that declares each scalar counter once — name, unit,
/// aggregation. The fold, the record's wire codec, the metrics export and,
/// through the metrics document's `counters` declaration, its validator
/// all walk the table: a new counter is one struct field plus one row.
///
/// A standalone header so that result types (core/partitioner.hpp) can
/// carry the counters without pulling in the whole thread runtime —
/// entry points forward-declare PERuntime instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
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
};

/// One rank's post-repartitioning data intake (§5.2): the nodes migrated
/// into its blocks plus the adjacency entries shipped with them. Zero on
/// from-scratch runs.
struct MigrationIntake {
  std::uint64_t nodes = 0;  ///< nodes migrated into this rank's blocks
  std::uint64_t edges = 0;  ///< adjacency entries shipped with them
};

/// §3 matching shape of the SPMD coarsening on one rank, over all levels.
struct MatchStats {
  std::uint64_t local_pairs = 0;  ///< pairs this rank matched in its shards
  std::uint64_t gap_pairs = 0;    ///< cross-shard pairs this rank decided
  std::uint64_t gap_rounds = 0;   ///< locally-heaviest gap-graph rounds
};

/// Every counter of one rank over one run. The rank's PEContext holds the
/// live record the SPMD phases count into; the run captures it once,
/// right after the partition is materialized — before the record gather
/// and trace collection, so observation traffic is never counted.
struct RankCounters {
  CommStats comm;
  ShardFootprint shard_memory;      ///< peak single sharded structure
  ShardFootprint hierarchy_memory;  ///< whole distributed hierarchy store
  ShardFootprint partition_memory;  ///< sharded partition state
  PairShipStats pair_ship;
  MigrationIntake migration;
  MatchStats matching;
};

/// How a counter aggregates over ranks: volumes add up; synchronization
/// points every rank passes together (barriers, gap rounds) and peak
/// footprints take the maximum.
enum class CounterFold { kSum, kMax };

/// One row of the counter table. In the metrics document the aggregate
/// is `<group>.<name>` and the per-rank list `<group>.per_rank.<name>`.
struct CounterField {
  const char* group;
  const char* name;
  const char* unit;
  CounterFold fold;
  std::uint64_t& (*ref)(RankCounters&);

  /// The field in \p c.
  [[nodiscard]] std::uint64_t& of(RankCounters& c) const { return ref(c); }
  [[nodiscard]] std::uint64_t of(const RankCounters& c) const {
    return ref(const_cast<RankCounters&>(c));
  }
};

/// The field \p Field of the record part \p Part.
template <auto Part, auto Field>
std::uint64_t& counter_ref(RankCounters& c) {
  return (c.*Part).*Field;
}

#define KAPPA_ROW(group, part, field, unit, fold)                    \
  CounterField {                                                     \
    group, #field, unit, CounterFold::fold,                          \
        &counter_ref<&RankCounters::part,                            \
                     &decltype(RankCounters::part)::field>           \
  }

/// The counter table: every scalar field of RankCounters, once.
inline constexpr CounterField kRankCounters[] = {
    KAPPA_ROW("comm", comm, messages_sent, "messages", kSum),
    KAPPA_ROW("comm", comm, words_sent, "words", kSum),
    KAPPA_ROW("comm", comm, messages_received, "messages", kSum),
    KAPPA_ROW("comm", comm, words_received, "words", kSum),
    KAPPA_ROW("comm", comm, barriers, "barriers", kMax),
    KAPPA_ROW("comm", comm, collective_idle_ns, "ns", kSum),
    KAPPA_ROW("comm", comm, recv_idle_ns, "ns", kSum),
    KAPPA_ROW("comm", comm, rounds_waited, "rounds", kSum),
    KAPPA_ROW("comm", comm, wire_bytes_sent, "bytes", kSum),
    KAPPA_ROW("comm", comm, wire_bytes_received, "bytes", kSum),
    KAPPA_ROW("comm", comm, heartbeat_frames_sent, "frames", kSum),
    KAPPA_ROW("comm", comm, heartbeat_words_sent, "words", kSum),
    KAPPA_ROW("memory.shard", shard_memory, owned_nodes, "nodes", kMax),
    KAPPA_ROW("memory.shard", shard_memory, ghost_nodes, "nodes", kMax),
    KAPPA_ROW("memory.shard", shard_memory, arcs, "arcs", kMax),
    KAPPA_ROW("memory.hierarchy", hierarchy_memory, owned_nodes, "nodes", kMax),
    KAPPA_ROW("memory.hierarchy", hierarchy_memory, ghost_nodes, "nodes", kMax),
    KAPPA_ROW("memory.hierarchy", hierarchy_memory, arcs, "arcs", kMax),
    KAPPA_ROW("memory.partition", partition_memory, owned_nodes, "nodes", kMax),
    KAPPA_ROW("memory.partition", partition_memory, ghost_nodes, "nodes", kMax),
    KAPPA_ROW("memory.partition", partition_memory, arcs, "arcs", kMax),
    KAPPA_ROW("ship", pair_ship, pairs_executed, "pairs", kSum),
    KAPPA_ROW("ship", pair_ship, pairs_shipped, "pairs", kSum),
    KAPPA_ROW("ship", pair_ship, rows_shipped, "rows", kSum),
    KAPPA_ROW("ship", pair_ship, words_shipped, "words", kSum),
    KAPPA_ROW("ship", pair_ship, whole_block_rows, "rows", kSum),
    KAPPA_ROW("migration", migration, nodes, "nodes", kSum),
    KAPPA_ROW("migration", migration, edges, "arcs", kSum),
    KAPPA_ROW("coarsening", matching, local_pairs, "pairs", kSum),
    KAPPA_ROW("coarsening", matching, gap_pairs, "pairs", kSum),
    KAPPA_ROW("coarsening", matching, gap_rounds, "rounds", kMax),
};

#undef KAPPA_ROW

// Coverage guard: RankCounters is the table's scalars plus the halo
// vector, nothing else — a field added without a row trips this.
static_assert(sizeof(RankCounters) ==
                  std::size(kRankCounters) * sizeof(std::uint64_t) +
                      sizeof(std::vector<LevelHaloStats>),
              "RankCounters changed shape: give every new scalar counter a "
              "row in kRankCounters");

/// Aggregates per-rank records into one: each table field by its fold,
/// the halo breakdown level by level.
[[nodiscard]] RankCounters fold_counters(
    const std::vector<RankCounters>& per_rank);

/// Wire encoding of one record: the table's field count, the fields in
/// table order, the halo level count, then (messages, words) per level.
[[nodiscard]] std::vector<std::uint64_t> encode_counters(
    const RankCounters& counters);

/// Inverse of encode_counters(). Throws TransportError on a truncated,
/// extended or otherwise malformed record.
[[nodiscard]] RankCounters decode_counters(
    const std::vector<std::uint64_t>& words);

}  // namespace kappa
