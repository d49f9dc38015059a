#include "coarsening/prepartition.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>

namespace kappa {

namespace {

/// Recursively splits nodes[begin, end) into \p parts PEs, alternating the
/// split axis, writing ids starting at \p first_part.
void split_recursive(const StaticGraph& graph, std::vector<NodeID>& nodes,
                     std::size_t begin, std::size_t end, BlockID first_part,
                     BlockID parts, bool split_x,
                     std::vector<BlockID>& result) {
  if (parts == 1) {
    for (std::size_t i = begin; i < end; ++i) result[nodes[i]] = first_part;
    return;
  }
  // Proportional split for non-power-of-two part counts.
  const BlockID left_parts = parts / 2;
  const BlockID right_parts = parts - left_parts;
  const std::size_t count = end - begin;
  const std::size_t left_count =
      count * left_parts / parts;

  auto key = [&](NodeID u) {
    const Point2D& p = graph.coordinate(u);
    return split_x ? p.x : p.y;
  };
  std::nth_element(nodes.begin() + begin, nodes.begin() + begin + left_count,
                   nodes.begin() + end,
                   [&](NodeID a, NodeID b) { return key(a) < key(b); });

  split_recursive(graph, nodes, begin, begin + left_count, first_part,
                  left_parts, !split_x, result);
  split_recursive(graph, nodes, begin + left_count, end,
                  first_part + left_parts, right_parts, !split_x, result);
}

}  // namespace

std::vector<BlockID> geometric_prepartition(const StaticGraph& graph,
                                            BlockID num_pes) {
  assert(graph.has_coordinates());
  const NodeID n = graph.num_nodes();
  std::vector<NodeID> nodes(n);
  std::iota(nodes.begin(), nodes.end(), NodeID{0});
  std::vector<BlockID> result(n, 0);
  if (num_pes <= 1 || n == 0) return result;
  split_recursive(graph, nodes, 0, n, 0, num_pes, /*split_x=*/true, result);
  return result;
}

std::vector<BlockID> bfs_order_prepartition(const StaticGraph& graph,
                                            BlockID num_pes) {
  const NodeID n = graph.num_nodes();
  std::vector<BlockID> result(n, 0);
  if (num_pes <= 1 || n == 0) return result;
  // The BFS order: components by their lowest id, one BFS from that id.
  std::vector<NodeID> order;
  order.reserve(n);
  std::vector<std::uint8_t> seen(n, 0);
  for (NodeID root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = 1;
    order.push_back(root);
    for (std::size_t i = order.size() - 1; i < order.size(); ++i) {
      for (const NodeID v : graph.neighbors(order[i])) {
        if (!seen[v]) {
          seen[v] = 1;
          order.push_back(v);
        }
      }
    }
  }
  // Position i of the order goes to range floor(i * num_pes / n).
  for (std::size_t i = 0; i < n; ++i) {
    result[order[i]] = static_cast<BlockID>(
        static_cast<std::uint64_t>(i) * num_pes / n);
  }
  return result;
}

std::vector<BlockID> prepartition(const StaticGraph& graph, BlockID num_pes) {
  if (graph.has_coordinates()) {
    return geometric_prepartition(graph, num_pes);
  }
  return bfs_order_prepartition(graph, num_pes);
}

}  // namespace kappa
