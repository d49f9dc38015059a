#include "parallel/resident_pair.hpp"

#include <cstdint>
#include <string>

#include "parallel/transport.hpp"

namespace kappa {

void gather_resident_rows(const BlockRowShard& store,
                          const DistPartition& partition, BlockID a, BlockID b,
                          std::span<const NodeID> band, PairRows& rows) {
  for (const NodeID slot : band) {
    const GraphRowView row = store.row_at(store.handle_at_slot(slot));
    rows.begin_row(slot, row.weight);
    for (std::size_t i = 0; i < row.slots.size(); ++i) {
      const BlockID bt = partition.block_at(row.slots[i]);
      if (bt == a || bt == b) rows.add_arc(row.slots[i], row.weights[i]);
    }
  }
}

void attach_shipped_side(const PairSide& side, BlockID shipped, BlockID own,
                         DistPartition& partition, PairRows& rows) {
  const auto malformed = [](const char* what) {
    throw TransportError(std::string("inconsistent pair side: ") + what);
  };
  // Both id lists ascend (PairSide::parse() checks), so one merge finds
  // an id listed twice.
  const std::span<const std::uint64_t> band = side.band_ids();
  const std::span<const std::uint64_t> fringe = side.fringe_ids();
  for (std::size_t i = 0, j = 0; i < band.size() && j < fringe.size();) {
    if (band[i] == fringe[j]) malformed("id in both band and fringe");
    band[i] < fringe[j] ? ++i : ++j;
  }

  // The slot of every listed id, in reference order: band, then fringe.
  thread_local std::vector<NodeID> listed;
  listed.clear();
  for (const std::span<const std::uint64_t> ids : {band, fringe}) {
    for (const std::uint64_t id : ids) {
      NodeID slot = partition.slot_of(static_cast<NodeID>(id));
      if (slot == kInvalidNode) {
        slot = partition.attach(static_cast<NodeID>(id), shipped);
      } else if (partition.block_at(slot) != shipped) {
        malformed("listed id held in another block");
      }
      listed.push_back(slot);
    }
  }
  // A tagged reference names a cross-side target: a node of this rank's
  // own block, so one it holds.
  const auto own_slot = [&](NodeID global) {
    const NodeID slot = partition.slot_of(global);
    if (slot == kInvalidNode || partition.block_at(slot) != own) {
      malformed("global reference outside the executor's block");
    }
    return slot;
  };
  for (NodeID i = 0; i < side.band_size(); ++i) {
    rows.begin_row(listed[i], side.band_weight(i));
    for (std::uint64_t e = side.row_begin(i); e < side.row_end(i); ++e) {
      const std::uint64_t ref = side.target_ref(e);
      rows.add_arc(ref < PairSide::kGlobalTag
                       ? listed[ref]
                       : own_slot(side.target_global(e)),
                   side.arc_weight(e));
    }
  }
}

}  // namespace kappa
