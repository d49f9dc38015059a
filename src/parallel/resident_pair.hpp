/// \file resident_pair.hpp
/// \brief The SPMD executor's resident rows as a pair model: a pair whose
/// two blocks share an owner runs in place.
///
/// The owner of both blocks of a pair {a, b} holds every row of both
/// blocks in its block-row store (§5.2), so the pair kernel
/// (refinement/pair_model.hpp) runs on those rows directly: no side is
/// encoded and no view is built. Ids are partition-state slots; a node's
/// row is its resident row with the targets resolved to slots, its block
/// is its partition-state entry. The caller supplies the movable set: the
/// union of the pair's two §5.2 side bands, computed by the seed rule of
/// build_pair_side() — exactly the band nodes of the view the pair would
/// get if a side were shipped. The order key is the global id, the order
/// in which that view numbers its nodes. So a pair gives the same moves
/// in place as through its view; pair_path_test replays every in-place
/// pair of full runs through build_pair_view() to check that.
///
/// Tentative moves are written through to the partition state's entries
/// (DistPartition::write_tentative(): no journal, no block weights); the
/// model tracks the pair's two block weights itself, starting from the
/// replicated global weights. restore() reverts the written entries, so
/// the partition state, its journal and the store change only in the
/// delta exchange.
#pragma once

#include <cassert>
#include <utility>
#include <vector>

#include "parallel/dist_partition.hpp"
#include "parallel/shard_graph.hpp"
#include "refinement/pair_model.hpp"
#include "util/stamp_set.hpp"
#include "util/types.hpp"

namespace kappa {

class ResidentPairModel {
 public:
  /// \p store must be bound to \p partition's slots and own blocks \p a
  /// and \p b; \p movable holds slots of resident rows of the pair.
  ResidentPairModel(const BlockRowShard& store, DistPartition& partition,
                    BlockID a, BlockID b, const StampSet& movable)
      : store_(store),
        partition_(partition),
        a_(a),
        b_(b),
        weight_{partition.block_weight(a), partition.block_weight(b)},
        movable_(movable) {}

  [[nodiscard]] NodeID id_space() const { return partition_.num_slots(); }
  /// Row of a node of the pair (every one has a resident row here).
  [[nodiscard]] PairRow row(NodeID slot) const {
    const GraphRowView r = resident_row(slot);
    return {r.slots, r.weights};
  }
  [[nodiscard]] NodeWeight node_weight(NodeID slot) const {
    return resident_row(slot).weight;
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
    return movable_.contains(slot);
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
  [[nodiscard]] GraphRowView resident_row(NodeID slot) const {
    const NodeID handle = store_.handle_at_slot(slot);
    assert(handle != kInvalidNode && "pair node without a resident row");
    return store_.row_at(handle);
  }

  const BlockRowShard& store_;
  DistPartition& partition_;
  BlockID a_;
  BlockID b_;
  NodeWeight weight_[2];
  const StampSet& movable_;
};

}  // namespace kappa
