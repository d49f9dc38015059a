#include "matching/tentative_match.hpp"

#include <cassert>
#include <limits>

#include "graph/subgraph.hpp"

namespace kappa {

void match_shard(const StaticGraph& graph, const std::vector<NodeID>& nodes,
                 BlockID shard, MatcherAlgo algo,
                 const MatchingOptions& options, const Rng& level_rng,
                 std::vector<NodeID>& partner) {
  if (nodes.empty()) return;
  const Subgraph sub = induced_subgraph(graph, nodes);
  MatchingOptions sub_options = options;
  std::vector<BlockID> sub_blocks;
  if (options.blocks != nullptr) {
    sub_blocks.reserve(nodes.size());
    for (const NodeID u : nodes) sub_blocks.push_back((*options.blocks)[u]);
    sub_options.blocks = &sub_blocks;
  }
  Rng shard_rng = level_rng.fork(1 + shard);
  const std::vector<NodeID> matched =
      compute_matching(sub.graph, algo, sub_options, shard_rng);
  for (NodeID lu = 0; lu < matched.size(); ++lu) {
    const NodeID lv = matched[lu];
    if (lv <= lu) continue;  // handle each pair once, skip unmatched
    partner[nodes[lu]] = nodes[lv];
    partner[nodes[lv]] = nodes[lu];
  }
}

TentativeMatchRater::TentativeMatchRater(const StaticGraph& graph,
                                         const MatchingOptions& options)
    : graph_(&graph), options_(&options) {
  if (options.rating == EdgeRating::kInnerOuter) {
    out_.resize(graph.num_nodes());
    for (NodeID u = 0; u < graph.num_nodes(); ++u) {
      out_[u] = graph.weighted_degree(u);
    }
  }
}

TentativeMatchRater::TentativeMatchRater(
    const StaticGraph& graph, const MatchingOptions& options,
    std::vector<EdgeWeight> weighted_degrees)
    : graph_(&graph), options_(&options) {
  if (options.rating == EdgeRating::kInnerOuter) {
    assert(weighted_degrees.size() == graph.num_nodes());
    out_ = std::move(weighted_degrees);
  }
}

double TentativeMatchRater::rate_arc(NodeID u, NodeID v, EdgeWeight w) const {
  const EdgeWeight ou = out_.empty() ? 0 : out_[u];
  const EdgeWeight ov = out_.empty() ? 0 : out_[v];
  return rate_edge(options_->rating, w, graph_->node_weight(u),
                   graph_->node_weight(v), ou, ov);
}

double TentativeMatchRater::match_rating(NodeID u, NodeID partner_u) const {
  if (partner_u == u) return 0.0;
  for (EdgeID e = graph_->first_arc(u); e < graph_->last_arc(u); ++e) {
    if (graph_->arc_target(e) == partner_u) {
      return rate_arc(u, partner_u, graph_->arc_weight(e));
    }
  }
  return 0.0;
}

bool TentativeMatchRater::admits_gap_edge(NodeID u, NodeID v, EdgeWeight w,
                                          double rating_u, double rating_v,
                                          double* rating_out) const {
  if (options_->max_pair_weight != std::numeric_limits<NodeWeight>::max() &&
      graph_->node_weight(u) + graph_->node_weight(v) >
          options_->max_pair_weight) {
    return false;
  }
  if (!options_->same_block(u, v)) return false;
  const double r = rate_arc(u, v, w);
  if (r > rating_u && r > rating_v) {
    *rating_out = r;
    return true;
  }
  return false;
}

}  // namespace kappa
