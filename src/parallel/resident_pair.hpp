/// \file resident_pair.hpp
/// \brief The SPMD executor's pair model: every pair runs on rows its
/// executor gathers once, in partition-state slots.
///
/// The executor of a pair {a, b} holds the rows of the blocks it owns in
/// its block-row store (§5.2); when the other block lives on another
/// rank, that rank ships its band (parallel/pair_side.hpp). One model
/// serves both cases. Its ids are partition-state slots: the executor's
/// own nodes and the partner ids it already holds keep their slots, and
/// the partner ids it does not hold get transient ones
/// (DistPartition::attach()) for the length of the pair. The rows are
/// gathered once per pair, for the movable nodes only — the two side
/// bands: each band node's weight and in-pair arcs, from the store for
/// the executor's band(s) and from the shipped side for the partner's.
/// Frozen context nodes (fringes, targets outside both bands) have a
/// slot and a block but no row, which the kernel never asks for
/// (refinement/pair_model.hpp). The order key is the global id. So a pair
/// moves the same way whichever owner runs it and whether or not a side
/// was shipped; pair_path_test compares every executed pair at several p
/// with p = 1, where every pair runs fully resident.
///
/// Tentative moves are written through to the partition state's entries
/// (DistPartition::write_tentative(): no journal, no block weights); the
/// model tracks the pair's two block weights itself, starting from the
/// replicated global weights. restore() reverts the written entries, so
/// the partition state, its journal and the store change only in the
/// delta exchange.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "parallel/dist_partition.hpp"
#include "parallel/pair_side.hpp"
#include "parallel/shard_graph.hpp"
#include "refinement/pair_model.hpp"
#include "util/types.hpp"

namespace kappa {

/// The rows of one pair's movable nodes, indexed by slot: each node's
/// weight and its in-pair arcs as (slot, weight), in row order.
class PairRows {
 public:
  /// Drops the rows of the last pair.
  void clear() {
    for (const NodeID slot : slot_) row_of_[slot] = kInvalidNode;
    slot_.clear();
    weight_.clear();
    end_.clear();
    targets_.clear();
    weights_.clear();
  }

  /// Opens the row of the movable node in \p slot; the arcs added next
  /// are its in-pair arcs.
  void begin_row(NodeID slot, NodeWeight weight) {
    if (slot >= row_of_.size()) row_of_.resize(slot + 1, kInvalidNode);
    row_of_[slot] = static_cast<NodeID>(slot_.size());
    slot_.push_back(slot);
    weight_.push_back(weight);
    end_.push_back(targets_.size());
  }
  void add_arc(NodeID target, EdgeWeight weight) {
    targets_.push_back(target);
    weights_.push_back(weight);
    ++end_.back();
  }

  /// Whether \p slot has a row, i.e. may move.
  [[nodiscard]] bool contains(NodeID slot) const {
    return slot < row_of_.size() && row_of_[slot] != kInvalidNode;
  }
  [[nodiscard]] PairRow row(NodeID slot) const {
    const NodeID r = row_of_[slot];
    const std::size_t begin = r == 0 ? 0 : end_[r - 1];
    return {std::span(targets_).subspan(begin, end_[r] - begin),
            std::span(weights_).subspan(begin, end_[r] - begin)};
  }
  [[nodiscard]] NodeWeight weight(NodeID slot) const {
    return weight_[row_of_[slot]];
  }

 private:
  std::vector<NodeID> row_of_;  ///< by slot: row index, or kInvalidNode
  std::vector<NodeID> slot_;    ///< by row
  std::vector<NodeWeight> weight_;  ///< by row
  std::vector<std::size_t> end_;    ///< by row: end of its arcs
  std::vector<NodeID> targets_;     ///< arc targets, as slots
  std::vector<EdgeWeight> weights_;  ///< parallel to targets_
};

/// Adds the rows of \p band — slots of resident rows of \p store, which
/// must be bound to \p partition — to \p rows, keeping the arcs into
/// blocks \p a and \p b.
void gather_resident_rows(const BlockRowShard& store,
                          const DistPartition& partition, BlockID a, BlockID b,
                          std::span<const NodeID> band, PairRows& rows);

/// Attaches the partner's \p side of block \p shipped to this rank's
/// state for one pair whose other block, \p own, this rank owns: the band
/// and fringe ids resolve to the slots they are held in, or to transient
/// slots in \p shipped (DistPartition::attach()), and the band rows join
/// \p rows with their targets resolved to slots. Raises TransportError
/// for an id listed in both band and fringe, for a band or fringe id held
/// here in another block than \p shipped, and for a global reference that
/// names no node held here in \p own.
void attach_shipped_side(const PairSide& side, BlockID shipped, BlockID own,
                         DistPartition& partition, PairRows& rows);

/// One pair {a, b} over its gathered rows, ids partition-state slots.
class SlotPairModel {
 public:
  SlotPairModel(const PairRows& rows, DistPartition& partition, BlockID a,
                BlockID b)
      : rows_(rows),
        partition_(partition),
        a_(a),
        b_(b),
        weight_{partition.block_weight(a), partition.block_weight(b)} {}

  [[nodiscard]] NodeID id_space() const { return partition_.num_slots(); }
  [[nodiscard]] PairRow row(NodeID slot) const { return rows_.row(slot); }
  [[nodiscard]] NodeWeight node_weight(NodeID slot) const {
    return rows_.weight(slot);
  }
  [[nodiscard]] BlockID block(NodeID slot) const {
    return partition_.block_at(slot);
  }
  void move(NodeID slot, BlockID to) {
    const NodeWeight w = node_weight(slot);
    const int side = to == a_ ? 0 : 1;
    weight_[side] += w;
    weight_[side ^ 1] -= w;
    partition_.write_tentative(slot, to);
  }
  [[nodiscard]] NodeWeight block_weight(BlockID b) const {
    return weight_[b == a_ ? 0 : 1];
  }
  [[nodiscard]] bool may_move(NodeID slot) const {
    return rows_.contains(slot);
  }
  [[nodiscard]] NodeID order_key(NodeID slot) const {
    return partition_.global_at(slot);
  }

  /// Reverts the entries of the pair's net \p moves (slot, final block)
  /// to their entry blocks — the other block of the pair. Nodes that moved
  /// and came back are restored already.
  void restore(const std::vector<std::pair<NodeID, BlockID>>& moves) {
    for (const auto& [slot, to] : moves) {
      partition_.write_tentative(slot, to == a_ ? b_ : a_);
    }
  }

 private:
  const PairRows& rows_;
  DistPartition& partition_;
  BlockID a_;
  BlockID b_;
  NodeWeight weight_[2];
};

}  // namespace kappa
