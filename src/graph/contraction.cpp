#include "graph/contraction.hpp"

#include <algorithm>
#include <cassert>

namespace kappa {

ContractionResult contract(const StaticGraph& graph,
                           const std::vector<NodeID>& partner,
                           const std::vector<BlockID>& node_to_shard) {
  const NodeID n = graph.num_nodes();
  assert(partner.size() == n);
  const bool sharded = !node_to_shard.empty();
  assert(!sharded || node_to_shard.size() == n);

  // One coarse node per canonical endpoint (the lower id of a pair, or an
  // unmatched node), numbered in ascending fine id — shard by shard when
  // sharded.
  std::vector<NodeID> canonical;
  for (NodeID u = 0; u < n; ++u) {
    assert(partner[u] == u || partner[partner[u]] == u);  // symmetry
    if (partner[u] >= u) canonical.push_back(u);
  }
  if (sharded) {
    std::stable_sort(canonical.begin(), canonical.end(),
                     [&](NodeID a, NodeID b) {
                       return node_to_shard[a] < node_to_shard[b];
                     });
  }
  const NodeID coarse_n = static_cast<NodeID>(canonical.size());
  ContractionResult result;
  result.fine_to_coarse.resize(n);
  std::vector<NodeWeight> coarse_vwgt(coarse_n);
  for (NodeID c = 0; c < coarse_n; ++c) {
    const NodeID u = canonical[c];
    const NodeID v = partner[u];
    result.fine_to_coarse[u] = c;
    result.fine_to_coarse[v] = c;
    coarse_vwgt[c] = graph.node_weight(u) + (v != u ? graph.node_weight(v) : 0);
    if (sharded) result.coarse_to_shard.push_back(node_to_shard[u]);
  }
  const std::vector<NodeID>& fine_to_coarse = result.fine_to_coarse;

  // Coarse rows: the arcs of both members in coarse target space, the
  // contracted edge dropped and parallel arcs merged — sorted by target
  // (sharded), or through a timestamped scatter array in first-encounter
  // order (classic O(m) multilevel contraction).
  std::vector<EdgeID> coarse_xadj(coarse_n + 1, 0);
  std::vector<NodeID> coarse_adj;
  std::vector<EdgeWeight> coarse_ewgt;
  coarse_adj.reserve(graph.num_arcs());
  coarse_ewgt.reserve(graph.num_arcs());
  std::vector<std::pair<NodeID, EdgeWeight>> row;  // sharded only
  std::vector<NodeID> seen_at(sharded ? 0 : coarse_n, kInvalidNode);
  std::vector<EdgeID> slot_of(sharded ? 0 : coarse_n, 0);
  for (NodeID c = 0; c < coarse_n; ++c) {
    row.clear();
    for (const NodeID u : {canonical[c], partner[canonical[c]]}) {
      for (EdgeID e = graph.first_arc(u); e < graph.last_arc(u); ++e) {
        const NodeID cv = fine_to_coarse[graph.arc_target(e)];
        if (cv == c) continue;  // the contracted edge
        if (sharded) {
          row.emplace_back(cv, graph.arc_weight(e));
        } else if (seen_at[cv] == c) {
          coarse_ewgt[slot_of[cv]] += graph.arc_weight(e);
        } else {
          seen_at[cv] = c;
          slot_of[cv] = coarse_adj.size();
          coarse_adj.push_back(cv);
          coarse_ewgt.push_back(graph.arc_weight(e));
        }
      }
      if (partner[u] == u) break;  // unmatched: one member
    }
    if (sharded) (void)merge_coarse_row(row, coarse_adj, coarse_ewgt);
    coarse_xadj[c + 1] = coarse_adj.size();
  }

  // The coarse level keeps its own arcs, not the fine level's reservation.
  coarse_adj.shrink_to_fit();
  coarse_ewgt.shrink_to_fit();
  result.coarse_graph =
      StaticGraph(std::move(coarse_xadj), std::move(coarse_adj),
                  std::move(coarse_ewgt), std::move(coarse_vwgt));
  return result;
}

EdgeWeight merge_coarse_row(std::vector<std::pair<NodeID, EdgeWeight>>& arcs,
                            std::vector<NodeID>& adj,
                            std::vector<EdgeWeight>& ewgt) {
  std::sort(arcs.begin(), arcs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::size_t row_begin = adj.size();
  EdgeWeight wdeg = 0;
  for (const auto& [target, weight] : arcs) {
    if (adj.size() > row_begin && adj.back() == target) {
      ewgt.back() += weight;  // a parallel coarse arc
    } else {
      adj.push_back(target);
      ewgt.push_back(weight);
    }
    wdeg += weight;
  }
  return wdeg;
}

Partition project_partition(const StaticGraph& fine_graph,
                            const std::vector<NodeID>& fine_to_coarse,
                            const Partition& coarse_partition) {
  const NodeID n = fine_graph.num_nodes();
  assert(fine_to_coarse.size() == n);
  std::vector<BlockID> assignment(n);
  for (NodeID u = 0; u < n; ++u) {
    assignment[u] = coarse_partition.block(fine_to_coarse[u]);
  }
  return Partition(fine_graph, std::move(assignment), coarse_partition.k());
}

}  // namespace kappa
