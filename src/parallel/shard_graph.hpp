/// \file shard_graph.hpp
/// \brief Per-PE data sharding of the SPMD pipeline: the owned-node CSR
/// with a one-hop ghost layer (§3.3) and the §5.2 block-row store.
///
/// The paper's distributed design gives every PE only its own node shard
/// plus a halo of ghost nodes — resident graph memory is O(n/p + halo),
/// not O(n). Two structures realize that here:
///
///   ShardGraph   — built per contraction level for the SPMD matcher: a
///     compact CSR over the rank's owned nodes (union of its virtual
///     shards) plus the one-hop ghost layer, a static adjacency array
///     as in §5.2. The owned rows are the level's only arc data; ghosts
///     carry a weight and a weighted degree but no row. Every level is
///     sealed the same way from ShardGraphParts: the finest level's owned
///     rows are extracted from the resident input graph, coarse levels'
///     rows come out of the halo-exchanged contraction. Global ids are
///     resolved to local ids once, at the seal — owned ids by arithmetic,
///     ghosts by binary search in the sorted ghost list — so no per-arc
///     step of matching or contraction hashes. Ghost node weights and
///     weighted degrees are dynamic per level and are *not* read off the
///     replica: they arrive over channels from the owning ranks, so the
///     CommStats counters see every ghost refresh.
///
///   BlockRowShard — built per uncoarsening level for the SPMD refiner:
///     the CSR rows of the nodes currently assigned to this rank's
///     blocks (blocks are owned round-robin like shards, see
///     round_robin_owner()).
///     "Immediately after uncontracting a matching, every PE stores the
///     partition it is responsible for in a static adjacency array
///     representation ... In addition, we use a hash table to store
///     migrated nodes and a second edge array" (§5.2): the level-start
///     rows are the static core; nodes that migrate between blocks
///     mid-level move their rows between ranks through the side arena.
///
/// Rows travel verbatim (source id space, source arc order; see
/// RowSet in graph/subgraph.hpp), so every structure assembled from them
/// is a pure function of the replica content and the partition state —
/// independent of which rank held or shipped the data. That invariant is
/// what keeps the SPMD pipeline's results identical for every PE count.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/static_graph.hpp"
#include "graph/subgraph.hpp"
#include "parallel/comm_stats.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/wire_format.hpp"
#include "util/seeded_hash.hpp"
#include "util/types.hpp"

namespace kappa {

class DistPartition;

/// Rank that owns the virtual PE \p id — a coarsening shard or a
/// refinement block — in a runtime of \p num_pes PEs: round-robin, the
/// p-invariant work distribution.
[[nodiscard]] inline int round_robin_owner(BlockID id, int num_pes) {
  return static_cast<int>(id % static_cast<BlockID>(num_pes));
}

/// Calls \p visit(q) once for every rank q other than \p rank that
/// \p owner_of names for one of \p targets — for a row of an owned node,
/// exactly the peers that hold the node as a ghost. \p served is
/// scratch.
template <typename Targets, typename OwnerOf, typename Visit>
void for_each_other_owner(const Targets& targets, int rank,
                          OwnerOf&& owner_of, std::vector<int>& served,
                          Visit&& visit) {
  served.clear();
  for (const NodeID t : targets) {
    const int q = owner_of(t);
    if (q == rank ||
        std::find(served.begin(), served.end(), q) != served.end()) {
      continue;
    }
    served.push_back(q);
    visit(q);
  }
}

/// Ingredients of a ShardGraph, assembled by its builder and sealed by
/// the ShardGraph constructor: finest_shard_parts() extracts them from
/// the resident input graph, the distributed hierarchy store builds each
/// coarse level's parts shard-locally (owned rows from the
/// halo-exchanged contraction, ghost weights/degrees from the peer
/// refresh). Rows are in *global* id space; id lists must be sorted.
struct ShardGraphParts {
  std::vector<NodeID> owned;                        ///< sorted global ids
  RowSet owned_rows;                                ///< rows of `owned`
  std::vector<NodeID> ghosts;                       ///< sorted global ids
  std::vector<NodeWeight> ghost_weights;            ///< parallel to ghosts
  std::vector<EdgeWeight> ghost_weighted_degrees;   ///< parallel to ghosts
  /// Optional dense owned-id table: global id -> owned local id,
  /// kInvalidNode elsewhere. finest_shard_parts() fills it, because the
  /// finest level's owned ids are scattered over the whole id range;
  /// without it, owned ids resolve through the runs of consecutive ids
  /// in `owned` (one per owned shard at coarse levels, whose coarse ids
  /// are contiguous per shard).
  std::vector<NodeID> owned_index;
};

/// Which part of the resident layer a received halo record must name.
enum class HaloKind { kOwned, kGhost };

/// Number of \p stride-word records in a received halo payload; throws
/// TransportError on a trailing partial record.
[[nodiscard]] std::size_t halo_records(std::span<const std::uint64_t> payload,
                                       std::size_t stride);

/// Position of a received node id in the sorted id list \p ids (a ghost
/// list that is not sealed yet); throws TransportError unless the id is
/// listed.
[[nodiscard]] std::size_t halo_position(std::span<const NodeID> ids,
                                        std::uint64_t word);

/// One rank's resident graph for one matching level: compact CSR over
/// owned nodes (local ids [0, num_owned())) followed by the one-hop
/// ghost layer (local ids [num_owned(), num_local())). Owned rows carry
/// the node's full arc list in source arc order (owned and ghost
/// targets, as local ids); ghost rows are empty — a ghost has only its
/// weight and its full-row weighted degree. Ids are resolved once, when
/// the structure is sealed: local_of() is arithmetic for owned ids
/// (dense table or contiguous runs, see ShardGraphParts) and a binary
/// search of the sorted ghost list for ghosts — no hash table.
class ShardGraph {
 public:
  ShardGraph() = default;

  /// Seals \p parts into the local CSR — the one construction path.
  /// Every owned row's targets must be owned or listed ghosts.
  explicit ShardGraph(ShardGraphParts parts);

  /// The sealed local CSR (owned rows, then the empty ghost rows).
  [[nodiscard]] const StaticGraph& csr() const { return csr_; }

  [[nodiscard]] NodeID num_owned() const { return num_owned_; }
  [[nodiscard]] NodeID num_ghost() const {
    return static_cast<NodeID>(local_to_global_.size()) - num_owned_;
  }
  [[nodiscard]] NodeID num_local() const {
    return static_cast<NodeID>(local_to_global_.size());
  }

  [[nodiscard]] bool is_owned(NodeID local) const {
    return local < num_owned_;
  }

  /// Global id of a resident node.
  [[nodiscard]] NodeID global_of(NodeID local) const {
    return local_to_global_[local];
  }

  /// Local id of an owned global node; kInvalidNode if not owned here.
  [[nodiscard]] NodeID owned_local(NodeID global) const {
    if (!owned_index_.empty()) {
      return global < owned_index_.size() ? owned_index_[global]
                                          : kInvalidNode;
    }
    const auto it =
        std::upper_bound(run_first_.begin(), run_first_.end(), global);
    if (it == run_first_.begin()) return kInvalidNode;
    const std::size_t r = static_cast<std::size_t>(it - run_first_.begin()) - 1;
    const NodeID offset = global - run_first_[r];
    return offset < run_local_[r + 1] - run_local_[r] ? run_local_[r] + offset
                                                      : kInvalidNode;
  }

  /// Local id of a ghost global node; kInvalidNode if not a ghost here.
  [[nodiscard]] NodeID ghost_local(NodeID global) const {
    const auto begin = local_to_global_.begin() + num_owned_;
    const auto it = std::lower_bound(begin, local_to_global_.end(), global);
    return it != local_to_global_.end() && *it == global
               ? static_cast<NodeID>(it - local_to_global_.begin())
               : kInvalidNode;
  }

  /// Local id of a global node; kInvalidNode if not resident here.
  [[nodiscard]] NodeID local_of(NodeID global) const {
    const NodeID local = owned_local(global);
    return local != kInvalidNode ? local : ghost_local(global);
  }

  /// The checked lookup of every halo receive loop: local id of the node
  /// a peer's record names, which must be resident here as \p kind.
  /// Throws TransportError otherwise.
  [[nodiscard]] NodeID halo_local(std::uint64_t word, HaloKind kind) const;

  /// Full-row weighted degrees by local id: owned entries computed from
  /// the resident row, ghost entries received from the owner.
  [[nodiscard]] const std::vector<EdgeWeight>& weighted_degrees() const {
    return weighted_degrees_;
  }

  /// Resident size of this structure (owned + halo nodes, resident arcs).
  [[nodiscard]] ShardFootprint footprint() const;

 private:
  NodeID num_owned_ = 0;
  StaticGraph csr_;
  std::vector<NodeID> local_to_global_;  ///< owned, then ghosts (sorted)
  std::vector<NodeID> owned_index_;  ///< dense owned table (finest level)
  std::vector<NodeID> run_first_;    ///< first global id of each owned run
  std::vector<NodeID> run_local_;    ///< local id of each run start, + end
  std::vector<EdgeWeight> weighted_degrees_;
};

/// The finest level's ShardGraph parts for \p pe's rank, cut from the
/// resident input graph \p level along the node -> shard map
/// \p node_to_shard (shards owned round-robin): the owned nodes and the
/// owned-id table in one pass over the map, the owned rows verbatim
/// (extract_rows), and the sorted one-hop ghost list read off those
/// rows. Ghost node weights and weighted degrees are not read off the
/// input graph: the neighboring ranks send them over \p pe's channels
/// (counted in its CommStats). With one PE the ghost layer is empty.
[[nodiscard]] ShardGraphParts finest_shard_parts(
    const StaticGraph& level, const std::vector<BlockID>& node_to_shard,
    PEContext& pe);

/// One full CSR row in global id space — the unit the refiner's stores
/// exchange when a node's block (and with it the row's home rank)
/// changes.
struct GraphRow {
  NodeWeight weight = 0;
  std::vector<NodeID> targets;      ///< global ids, replica arc order
  std::vector<EdgeWeight> weights;  ///< parallel to targets
};

/// Zero-copy view of a resident row (spans into the owning store).
struct GraphRowView {
  NodeWeight weight = 0;
  std::span<const NodeID> targets;
  std::span<const EdgeWeight> weights;
  /// Partition-state slots of the targets, parallel to targets; empty
  /// while the store is unbound (see BlockRowShard::bind_slots()).
  std::span<const NodeID> slots = {};
};

/// Appends one row in the shared wire layout [id, weight, narcs,
/// (target, weight)*], keeping only the arcs \p keep admits. The single
/// encoder behind row migration and the block-row distribution of the
/// SPMD pipeline.
template <typename Keep>
void append_row_words(std::vector<std::uint64_t>& words, NodeID id,
                      const GraphRowView& row, Keep&& keep);

/// Decodes one row at \p cursor (inverse of append_row_words), advancing
/// the cursor; returns the node id. Every count is checked against the
/// remaining payload before anything is reserved or read: truncated,
/// oversized or out-of-range input raises TransportError.
NodeID decode_row_words(const std::vector<std::uint64_t>& words,
                        std::size_t& cursor, GraphRow& row);

/// Same, appending the row to the end of \p rows (whose xadj must hold
/// its leading 0): the one copy of a received row into a store's core.
NodeID decode_row_words(const std::vector<std::uint64_t>& words,
                        std::size_t& cursor, RowSet& rows);

/// Checks the row at \p cursor like decode_row_words() and advances past
/// it without copying; returns the node id.
NodeID skip_row_words(const std::vector<std::uint64_t>& words,
                      std::size_t& cursor);

/// Assembles the \p n-node graph whose rows the ranks all-gathered in
/// \p gathered (each payload a run of append_row_words() rows) — the
/// one-time coarsest-level gather. Besides decode_row_words()'s checks,
/// a row id or target >= \p n, a row sent twice, a row nobody sent, a
/// negative weight, and node or arc weights whose sum leaves the weight
/// range raise TransportError.
[[nodiscard]] StaticGraph decode_gathered_graph(
    const std::vector<std::vector<std::uint64_t>>& gathered, NodeID n);

/// One rank's §5.2 block-row store for one uncoarsening level: the rows
/// of all nodes currently assigned to the rank's blocks. The level-start
/// extraction is the static core; rows that migrate in mid-level live in
/// a side arena; rows that migrate out are marked non-resident and
/// revived in place if their node returns.
///
/// Every row ever resident this level has a dense *handle* (core rows
/// first, then arena rows in arrival order). Once bound to the partition
/// state's dense slots (bind_slots()), the store also resolves each
/// resident arc to its target's slot and keeps the referrer index
/// (target slot -> rows naming it), so the refiner's pair path reads
/// rows and blocks through dense ids only.
class BlockRowShard {
 public:
  /// Extracts the rows of the nodes whose block \p assignment maps to
  /// \p rank's blocks.
  BlockRowShard(const StaticGraph& level,
                const std::vector<BlockID>& assignment, BlockID k, int rank,
                int num_pes);

  /// Assembles the store from pre-distributed rows — the replica-free
  /// path of the SPMD pipeline, whose rows arrive from the shard owners
  /// over channels together with each row's block. \p core must hold
  /// exactly the rows of the nodes assigned to this rank's blocks, sorted
  /// by global id, targets in global id space; \p row_blocks is parallel
  /// to core.ids (no rank holds the full assignment vector anymore — the
  /// partition state itself is sharded, see parallel/dist_partition.hpp).
  BlockRowShard(RowSet core, const std::vector<BlockID>& row_blocks, BlockID k,
                int rank, int num_pes);

  [[nodiscard]] int rank() const { return rank_; }

  /// Sorted global ids of the nodes currently in owned block \p b.
  [[nodiscard]] const std::vector<NodeID>& members(BlockID b) const {
    return members_[b];
  }

  /// Whether this rank owns block \p b.
  [[nodiscard]] bool owns_block(BlockID b) const {
    return round_robin_owner(b, num_pes_) == rank_;
  }

  /// Read access to the row of a resident node (must be resident);
  /// returns an owned copy (for shipping).
  [[nodiscard]] GraphRow row(NodeID global) const;

  /// Zero-copy view of a resident row (must be resident); invalidated by
  /// apply_move() on the same node.
  [[nodiscard]] GraphRowView row_view(NodeID global) const {
    const auto it = handle_of_.find(global);
    assert(it != handle_of_.end() && member_block_[it->second] != kInvalidBlock &&
           "row lookup requires a resident node");
    return row_at(it->second);
  }

  /// Visits every resident row as (global id, GraphRow view) without
  /// materializing copies: \p visit(NodeID, NodeWeight, span targets,
  /// span weights).
  template <typename Visitor>
  void for_each_resident_row(Visitor&& visit) const {
    const NodeID num_core = static_cast<NodeID>(core_.ids.size());
    for (NodeID h = 0; h < num_core; ++h) {
      if (member_block_[h] == kInvalidBlock) continue;
      const GraphRowView row = row_at(h);
      visit(core_.ids[h], row.weight, row.targets, row.weights);
    }
    // Arena rows arrive in message order; visit them in sorted id order
    // so callers see a deterministic sequence regardless of arrival.
    std::vector<std::pair<NodeID, NodeID>> migrated;
    for (NodeID j = 0; j < arena_ids_.size(); ++j) {
      if (member_block_[num_core + j] != kInvalidBlock) {
        migrated.emplace_back(arena_ids_[j], num_core + j);
      }
    }
    std::sort(migrated.begin(), migrated.end());
    for (const auto& [u, h] : migrated) {
      const GraphRowView row = row_at(h);
      visit(u, row.weight, row.targets, row.weights);
    }
  }

  /// Applies one committed move u: \p from -> \p to. Only membership and
  /// row residency are updated; \p incoming_row must be set when \p to
  /// is owned here and the row was never resident here this level
  /// (shipped by the old owner). Returns the departing row when \p from
  /// is owned here and \p to is not (for shipping); empty otherwise. A
  /// bound store resolves a newly arrived row's arcs to the slots of
  /// \p partition (required then: the state the store is bound to) and
  /// adds the row to the referrer index.
  GraphRow apply_move(NodeID u, BlockID from, BlockID to,
                      const GraphRow* incoming_row,
                      const DistPartition* partition = nullptr);

  /// Resident size of this structure (rows + arcs currently held).
  [[nodiscard]] ShardFootprint footprint() const;

  // --- Dense-id access of the refiner's pair path. ---

  /// Binds the store to the dense slots of \p partition: resolves the
  /// node and the arc targets of every row to their slots (every id must
  /// be known there) and builds the referrer index. Rows arriving later
  /// are resolved by apply_move() against the same partition state. The
  /// pipeline binds each level's store to that level's partition state
  /// right after the ghost-block fetch.
  void bind_slots(const DistPartition& partition);

  /// Number of row handles (every row resident at some point this level).
  [[nodiscard]] NodeID num_handles() const {
    return static_cast<NodeID>(member_block_.size());
  }

  /// Global id of the row behind \p handle.
  [[nodiscard]] NodeID handle_global(NodeID handle) const {
    const NodeID num_core = static_cast<NodeID>(core_.ids.size());
    return handle < num_core ? core_.ids[handle]
                             : arena_ids_[handle - num_core];
  }

  /// Owned block the row's node currently belongs to; kInvalidBlock once
  /// the row departed.
  [[nodiscard]] BlockID member_block(NodeID handle) const {
    return member_block_[handle];
  }

  /// Zero-copy view of the row behind \p handle (slots set when bound).
  /// Inline: the band builders and the pair-row gather read rows through
  /// it per arc scan.
  [[nodiscard]] GraphRowView row_at(NodeID handle) const {
    const NodeID num_core = static_cast<NodeID>(core_.ids.size());
    if (handle >= num_core) {
      const std::size_t j = handle - num_core;
      const GraphRow& r = arena_[j];
      return {r.weight, r.targets, r.weights,
              bound_ ? std::span<const NodeID>(arena_arc_slots_[j])
                     : std::span<const NodeID>()};
    }
    const EdgeID begin = core_.xadj[handle];
    const EdgeID end = core_.xadj[handle + 1];
    return {core_.vwgt[handle],
            std::span<const NodeID>(core_.adj.data() + begin,
                                    core_.adj.data() + end),
            std::span<const EdgeWeight>(core_.ewgt.data() + begin,
                                        core_.ewgt.data() + end),
            bound_ ? std::span<const NodeID>(core_arc_slots_.data() + begin,
                                             core_arc_slots_.data() + end)
                   : std::span<const NodeID>()};
  }

  /// Slot of the row's own node (bound stores only).
  [[nodiscard]] NodeID handle_slot(NodeID handle) const {
    return handle_slot_[handle];
  }

  /// Handle of the row whose node sits in \p slot; kInvalidNode if no
  /// row of that node was resident here this level (bound stores only).
  [[nodiscard]] NodeID handle_at_slot(NodeID slot) const {
    return slot < handle_at_slot_.size() ? handle_at_slot_[slot]
                                         : kInvalidNode;
  }

  /// Visits the handle of every row that names \p slot as a target,
  /// departed rows included (callers filter by member_block()).
  template <typename Visitor>
  void for_each_referrer(NodeID slot, Visitor&& visit) const {
    if (slot >= ref_head_.size()) return;
    for (NodeID e = ref_head_[slot]; e != kInvalidNode; e = ref_next_[e]) {
      visit(ref_handle_[e]);
    }
  }

 private:
  void insert_member(BlockID b, NodeID u);
  void erase_member(BlockID b, NodeID u);
  /// Resolves \p handle's node and arcs and indexes it as a referrer.
  void bind_handle(NodeID handle, const DistPartition& partition);

  int rank_ = 0;
  int num_pes_ = 1;
  RowSet core_;                       ///< level-start rows (handles first)
  std::vector<GraphRow> arena_;       ///< migrated-in rows
  std::vector<NodeID> arena_ids_;     ///< parallel to arena_
  // kappa-lint: allow(dense-level-ids, "rows migrate in mid-level with arbitrary global ids; one lookup per row event, never per arc")
  hash_map<NodeID, NodeID> handle_of_;  ///< global -> row handle
  std::vector<BlockID> member_block_;   ///< by handle; invalid: departed
  std::vector<std::vector<NodeID>> members_;  ///< per block, sorted
  std::uint64_t resident_nodes_ = 0;
  std::uint64_t resident_arcs_ = 0;

  // Slot binding (empty while unbound).
  bool bound_ = false;
  std::vector<NodeID> handle_slot_;      ///< by handle
  std::vector<NodeID> core_arc_slots_;   ///< parallel to core_.adj
  std::vector<std::vector<NodeID>> arena_arc_slots_;  ///< parallel to arena_
  std::vector<NodeID> handle_at_slot_;   ///< by slot
  std::vector<NodeID> ref_head_;         ///< by slot: first referrer entry
  std::vector<NodeID> ref_next_;         ///< by entry: next entry
  std::vector<NodeID> ref_handle_;       ///< by entry: referring row
};

template <typename Keep>
void append_row_words(std::vector<std::uint64_t>& words, NodeID id,
                      const GraphRowView& row, Keep&& keep) {
  words.push_back(id);
  words.push_back(weight_bits(row.weight));
  const std::size_t count_slot = words.size();
  words.push_back(0);
  std::uint64_t narcs = 0;
  for (std::size_t i = 0; i < row.targets.size(); ++i) {
    if (!keep(row.targets[i])) continue;
    words.push_back(row.targets[i]);
    words.push_back(weight_bits(row.weights[i]));
    ++narcs;
  }
  words[count_slot] = narcs;
}

}  // namespace kappa
