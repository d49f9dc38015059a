#include "graph/subgraph.hpp"

#include <cassert>

namespace kappa {

Subgraph induced_subgraph(const StaticGraph& graph,
                          const std::vector<NodeID>& nodes) {
  Subgraph result;
  result.local_to_global = nodes;
  result.global_to_local.assign(graph.num_nodes(), kInvalidNode);
  for (NodeID local = 0; local < nodes.size(); ++local) {
    assert(result.global_to_local[nodes[local]] == kInvalidNode);
    result.global_to_local[nodes[local]] = local;
  }

  const NodeID sub_n = static_cast<NodeID>(nodes.size());
  std::vector<EdgeID> xadj(sub_n + 1, 0);
  std::vector<NodeID> adj;
  std::vector<EdgeWeight> ewgt;
  std::vector<NodeWeight> vwgt(sub_n);

  for (NodeID local = 0; local < sub_n; ++local) {
    const NodeID u = nodes[local];
    vwgt[local] = graph.node_weight(u);
    for (EdgeID e = graph.first_arc(u); e < graph.last_arc(u); ++e) {
      const NodeID lv = result.global_to_local[graph.arc_target(e)];
      if (lv == kInvalidNode) continue;
      adj.push_back(lv);
      ewgt.push_back(graph.arc_weight(e));
    }
    xadj[local + 1] = adj.size();
  }

  result.graph = StaticGraph(std::move(xadj), std::move(adj), std::move(ewgt),
                             std::move(vwgt));
  return result;
}

RowSet extract_rows(const StaticGraph& graph,
                    const std::vector<NodeID>& nodes) {
  RowSet rows;
  rows.ids = nodes;
  rows.xadj.reserve(nodes.size() + 1);
  rows.xadj.push_back(0);
  rows.vwgt.reserve(nodes.size());
  for (const NodeID u : nodes) {
    rows.vwgt.push_back(graph.node_weight(u));
    for (EdgeID e = graph.first_arc(u); e < graph.last_arc(u); ++e) {
      rows.adj.push_back(graph.arc_target(e));
      rows.ewgt.push_back(graph.arc_weight(e));
    }
    rows.xadj.push_back(rows.adj.size());
  }
  return rows;
}

}  // namespace kappa
