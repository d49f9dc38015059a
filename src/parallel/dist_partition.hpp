/// \file dist_partition.hpp
/// \brief The sharded partition-state store: block ids live only where
/// they are needed — no rank holds the O(n_l) assignment vector.
///
/// The distributed hierarchy store (PR 4) removed every replicated level
/// graph, but the partition itself was still replicated: each
/// uncoarsening step all-gathered O(n_l) block ids so that every PE could
/// answer block(u) for every node. This subsystem makes the partition the
/// last O(n) state to go sub-linear per rank:
///
///   * owned entries — each rank stores the block of exactly its
///     shard-owned nodes of one hierarchy level (the same ownership map
///     the DistLevel already replicates in O(num_shards)),
///   * a ghost-block cache — blocks of non-owned nodes this rank needs
///     (members of its §5.2 block-row store and the targets of their
///     resident rows), filled by point-to-point fetches from the shard
///     owners and kept current by the moved-node deltas every rank
///     applies after each refinement color class,
///   * replicated O(k) block weights, maintained incrementally from the
///     deltas and re-derived per level with one O(k) all-reduce.
///
/// Uncoarsening projects shard-locally: each rank maps its owned fine
/// nodes through its own slice of the contraction map and fetches the few
/// cross-rank coarse ids (halo pairs) point-to-point — no block-id vector
/// is ever all-gathered. The full assignment is materialized exactly
/// once, for the final PartitionResult (carrying a kappa-lint allow()
/// for the no-partition-gathers check).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/partition.hpp"
#include "parallel/comm_stats.hpp"
#include "parallel/dist_hierarchy.hpp"
#include "parallel/pe_runtime.hpp"
#include "util/seeded_hash.hpp"
#include "util/types.hpp"

namespace kappa {

/// One rank's share of the partition state of one hierarchy level.
class DistPartition {
 public:
  DistPartition() = default;

  /// Seeds the sharded store for \p level from a replicated partition —
  /// the once-gathered coarsest assignment after initial partitioning.
  /// Each rank keeps only its owned entries; no communication.
  DistPartition(const DistLevel& level, const Partition& replicated,
                PEContext& pe);

  /// Fully-cached stand-in with no owned domain, used by tests and
  /// oracles that have a replica anyway (e.g. the distributed-quotient
  /// equivalence suite). fetch/project/materialize are unavailable.
  [[nodiscard]] static DistPartition from_replica(const Partition& replicated);

  [[nodiscard]] BlockID k() const { return k_; }

  /// Block of \p global. The node must be known here: shard-owned, or
  /// learned/fetched into the ghost-block cache.
  [[nodiscard]] BlockID block(NodeID global) const {
    const NodeID slot = slot_of(global);
    if (slot == kInvalidNode) {
      throw std::out_of_range("DistPartition::block: node unknown here");
    }
    return entries_[slot];
  }

  /// Whether this rank can answer block(\p global) locally.
  [[nodiscard]] bool knows(NodeID global) const {
    return slot_of(global) != kInvalidNode;
  }

  /// Dense slot of \p global's entry, kInvalidNode if unknown here. Owned
  /// nodes occupy their shard-local ids [0, num_owned), cached nodes the
  /// slots after them in insertion order. A slot is stable for the
  /// lifetime of this object (cache entries are never evicted; only
  /// attach()'s transient slots go, when their pair ends), so the
  /// refiner's row store resolves every resident arc to a slot once and
  /// its pair path reads blocks with block_at() — no hashing per arc.
  [[nodiscard]] NodeID slot_of(NodeID global) const {
    if (level_ != nullptr) {
      const NodeID local = level_->shard.owned_local(global);
      if (local != kInvalidNode) return local;
    }
    const auto it = cache_slot_.find(global);
    return it == cache_slot_.end() ? kInvalidNode : it->second;
  }

  /// Block of the entry in \p slot (see slot_of()).
  [[nodiscard]] BlockID block_at(NodeID slot) const { return entries_[slot]; }

  /// Global id of the entry in \p slot.
  [[nodiscard]] NodeID global_at(NodeID slot) const {
    return slot < num_owned_ ? level_->shard.global_of(slot)
                             : cache_ids_[slot - num_owned_];
  }

  /// Number of slots (owned entries plus cached entries).
  [[nodiscard]] NodeID num_slots() const {
    return static_cast<NodeID>(entries_.size());
  }

  /// The change journal: the slot of every entry write since the last
  /// clear_journal() — apply_move(), and any learn() or fetch that
  /// inserted an entry or changed its value. A slot may appear more than
  /// once. The refiner clears it when it takes the
  /// quotient graph, so the journal names every node whose block may
  /// differ from the one the quotient's boundary lists saw.
  [[nodiscard]] const std::vector<NodeID>& journal() const { return journal_; }
  void clear_journal() { journal_.clear(); }

  /// Records the block of a non-owned node in the ghost-block cache (the
  /// §5.2 data distribution and row migrations tell the block owner the
  /// blocks it needs without a fetch). Owned entries are authoritative
  /// already: a peer record that contradicts one raises TransportError.
  void learn(NodeID global, BlockID b);

  /// Applies one committed move: updates every entry this rank holds for
  /// \p u (owned or cached; ranks that hold neither still account the
  /// replicated block weights). Every rank applies every gathered delta,
  /// which is what keeps owned entries, caches and weights globally
  /// consistent. A delta whose \p from disagrees with the held entry, or
  /// whose blocks are >= k, raises TransportError and changes nothing.
  void apply_move(NodeID u, BlockID from, BlockID to, NodeWeight weight);

  /// Gives \p global, which this rank does not hold, a transient slot in
  /// block \p b — no journal entry, no block weights, no footprint. The
  /// pair executor attaches the partner band's unknown ids for the length
  /// of one pair and drops them with detach(); no entry may be inserted
  /// in between.
  NodeID attach(NodeID global, BlockID b);

  /// Drops every attached slot.
  void detach();

  /// Writes \p b into the entry in \p slot and nothing else: no journal
  /// entry, no block weights. The pair search writes its tentative moves
  /// through here and restores every entry it changed before the delta
  /// exchange applies the pair's net moves with apply_move().
  void write_tentative(NodeID slot, BlockID b) { entries_[slot] = b; }

  [[nodiscard]] NodeWeight block_weight(BlockID b) const {
    return block_weight_[b];
  }

  [[nodiscard]] NodeWeight max_block_weight() const {
    NodeWeight mx = 0;
    for (const NodeWeight w : block_weight_) mx = std::max(mx, w);
    return mx;
  }

  /// Fetches the blocks of every unknown id in \p needed from the shard
  /// owners (one deterministic request/response rendezvous over the
  /// channels) and caches them. Collective in lockstep: every rank must
  /// call, with its own — possibly empty — need list.
  void fetch_blocks(std::span<const NodeID> needed, PEContext& pe);

  /// Shard-local uncoarsening projection: each rank maps its owned nodes
  /// of \p fine through its slice of the contraction map; the few coarse
  /// ids owned by other ranks (cross-rank matched pairs) are fetched
  /// point-to-point, and block weights are re-derived with one O(k)
  /// all-reduce. No O(n_l) gather anywhere.
  [[nodiscard]] static DistPartition project(const DistLevel& fine,
                                             const DistLevel& coarse_level,
                                             const DistPartition& coarse,
                                             PEContext& pe);

  /// Materializes the full replicated partition — the one permitted
  /// block-id gather, used exactly once to fill the final
  /// PartitionResult.
  [[nodiscard]] Partition materialize(PEContext& pe) const;

  /// Resident size of this rank's partition state: owned entries plus
  /// ghost-block cache entries (arcs unused).
  [[nodiscard]] ShardFootprint footprint() const {
    ShardFootprint fp;
    fp.owned_nodes = num_owned_;
    fp.ghost_nodes = cache_ids_.size() - num_attached_;
    return fp;
  }

 private:
  /// Writes \p b into \p slot, journaling the write if \p always or the
  /// value changes.
  void write(NodeID slot, BlockID b, bool always) {
    if (!always && entries_[slot] == b) return;
    entries_[slot] = b;
    journal_.push_back(slot);
  }

  /// Caches \p b for the non-owned \p global (insert or overwrite).
  void cache(NodeID global, BlockID b);

  const DistLevel* level_ = nullptr;  ///< ownership map; null: replica mode
  int num_pes_ = 1;
  int rank_ = 0;
  BlockID k_ = 0;
  NodeID num_owned_ = 0;
  /// Entries by slot: the shard-owned nodes' blocks (by owned local id),
  /// then the ghost-block cache.
  std::vector<BlockID> entries_;
  /// Global ids of the cached slots, and the cache's global -> slot map.
  std::vector<NodeID> cache_ids_;
  hash_map<NodeID, NodeID> cache_slot_;
  NodeID num_attached_ = 0;  ///< transient tail of the cache (attach())
  std::vector<NodeID> journal_;
  /// Replicated per-block weights (O(k)).
  std::vector<NodeWeight> block_weight_;
};

/// One moved-node delta of a refinement color class.
struct MoveDelta {
  NodeID u = 0;
  BlockID from = 0;
  BlockID to = 0;
  NodeWeight weight = 0;
};

/// Appends \p delta in the three-word layout the class delta exchange
/// all-gathers: [(u, to), weight bits, from].
void append_move_delta(std::vector<std::uint64_t>& words,
                       const MoveDelta& delta);

/// Decodes a peer's delta payload (inverse of append_move_delta()); a
/// partial record or a block >= \p k anywhere raises TransportError.
[[nodiscard]] std::vector<MoveDelta> decode_move_deltas(
    std::span<const std::uint64_t> words, BlockID k);

/// Decodes a shard owner's reply to a block lookup, one (id, block) word
/// per id of \p request in request order, into the blocks. Another length,
/// id or a block >= \p k raises TransportError.
[[nodiscard]] std::vector<BlockID> decode_block_reply(
    std::span<const std::uint64_t> request,
    std::span<const std::uint64_t> reply, BlockID k);

/// Reassembles the blocks of every node of \p level from \p gathered,
/// one all-gathered payload per rank holding the blocks of its owned
/// nodes in ascending global-id order (DistLevel::for_each_owned()). A
/// payload of another length than the rank's owned-node count, or a
/// block >= \p k, raises TransportError.
[[nodiscard]] std::vector<BlockID> decode_owned_blocks(
    const DistLevel& level,
    const std::vector<std::vector<std::uint64_t>>& gathered, BlockID k);

/// Decodes a broadcast assignment of \p n nodes, one block word per node;
/// another length or a block >= \p k raises TransportError.
[[nodiscard]] std::vector<BlockID> decode_assignment(
    std::span<const std::uint64_t> words, NodeID n, BlockID k);

}  // namespace kappa
