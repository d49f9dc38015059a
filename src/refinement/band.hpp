/// \file band.hpp
/// \brief Boundary band extraction by bounded BFS (§5.2), and the pair
/// boundary refresh between local searches.
///
/// "Before a local search operation, we perform a bounded breadth first
/// search starting from the boundary of each block, and send copies of
/// this boundary array to the partner PE ... The local search is then
/// limited to this boundary area. This way, for large graphs, only a small
/// fraction of each block has to be communicated." If a search would
/// profit from leaving the band, it can do so in a later outer iteration.
///
/// Both steps belong to the pair kernel: templates over a pair model
/// (refinement/pair_model.hpp), so the sequential refiner and the SPMD
/// executor's pair rows run the same code. boundary_band() below scans a
/// StaticGraph for its seeds and runs the BFS on GraphPairModel.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "graph/partition.hpp"
#include "graph/static_graph.hpp"
#include "refinement/pair_model.hpp"
#include "util/stamp_set.hpp"
#include "util/types.hpp"

namespace kappa {

/// Returns the band of blocks \p a and \p b: the nodes of these two
/// blocks reachable within \p depth BFS hops from \p seeds, staying inside
/// the two blocks; depth = 1 returns the admitted seeds. Seed lists can be
/// stale after mid-level block moves: seeds whose node left the pair — or
/// that lie outside the model's id space altogether, as happens when a
/// seed list outlives the graph it was collected on — are skipped, never
/// expanded. Nodes the model does not let move are neither admitted nor
/// crossed. Band order: the admitted seeds in the given order, then BFS
/// discovery order (rows in model order).
template <typename Model>
[[nodiscard]] std::vector<NodeID> boundary_band_from_seeds(
    const Model& model, BlockID a, BlockID b, std::span<const NodeID> seeds,
    int depth) {
  thread_local StampSet in_band;
  in_band.clear(model.id_space());
  auto admit = [&](NodeID u) {
    if (in_band.contains(u)) return false;
    const BlockID bu = model.block(u);
    if ((bu != a && bu != b) || !model.may_move(u)) return false;
    in_band.insert(u);
    return true;
  };

  std::vector<NodeID> band;
  std::vector<NodeID> frontier;
  for (const NodeID u : seeds) {
    if (u >= model.id_space() || !admit(u)) continue;
    band.push_back(u);
    frontier.push_back(u);
  }
  std::vector<NodeID> next;
  for (int level = 1; level < depth && !frontier.empty(); ++level) {
    next.clear();
    for (const NodeID u : frontier) {
      for (const NodeID v : model.row(u).targets) {
        if (!admit(v)) continue;
        band.push_back(v);
        next.push_back(v);
      }
    }
    frontier.swap(next);
  }
  return band;
}

/// The movable pair boundary among \p candidates and their in-pair
/// neighbors — the nodes of a or b that may move and have an arc into
/// the other block — ascending by order key. After an FM pass only nodes
/// inside the old band, or their direct neighbors, can have become
/// boundary, so passing the band gives the complete boundary. Frozen
/// nodes are skipped without reading their rows: the band BFS the
/// boundary seeds would never admit them. Candidates are deduplicated by
/// stamp; only the boundary itself is sorted.
template <typename Model>
[[nodiscard]] std::vector<NodeID> refresh_boundary(
    const Model& model, BlockID a, BlockID b,
    std::span<const NodeID> candidates) {
  thread_local StampSet seen;
  seen.clear(model.id_space());
  std::vector<NodeID> boundary;
  auto visit = [&](NodeID u) {
    if (!seen.insert(u)) return;
    const BlockID bu = model.block(u);
    if ((bu != a && bu != b) || !model.may_move(u)) return;
    const BlockID other = bu == a ? b : a;
    for (const NodeID v : model.row(u).targets) {
      if (model.block(v) == other) {
        boundary.push_back(u);
        return;
      }
    }
  };
  for (const NodeID u : candidates) {
    visit(u);
    for (const NodeID v : model.row(u).targets) {
      const BlockID bv = model.block(v);
      if (bv == a || bv == b) visit(v);
    }
  }
  std::sort(boundary.begin(), boundary.end(), [&](NodeID x, NodeID y) {
    return model.order_key(x) < model.order_key(y);
  });
  return boundary;
}

/// Returns the band of blocks \p a and \p b: all nodes of these two blocks
/// reachable within \p depth BFS hops from the pair boundary (nodes of a
/// adjacent to b and vice versa), staying inside the two blocks. depth = 1
/// returns exactly the boundary nodes.
[[nodiscard]] std::vector<NodeID> boundary_band(const StaticGraph& graph,
                                                const Partition& partition,
                                                BlockID a, BlockID b,
                                                int depth);

}  // namespace kappa
