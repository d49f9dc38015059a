#include "matching/parallel_match.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

#include "matching/tentative_match.hpp"

namespace kappa {

std::vector<NodeID> parallel_matching(const StaticGraph& graph,
                                      const std::vector<BlockID>& node_to_pe,
                                      BlockID num_pes, MatcherAlgo algo,
                                      const MatchingOptions& options,
                                      const Rng& level_rng,
                                      ParallelMatchingStats* stats) {
  const NodeID n = graph.num_nodes();
  assert(node_to_pe.size() == n);

  std::vector<NodeID> partner(n);
  std::iota(partner.begin(), partner.end(), NodeID{0});

  // --- Phase 1: sequential matching on each PE's induced subgraph. ---
  std::vector<std::vector<NodeID>> pe_nodes(num_pes);
  for (NodeID u = 0; u < n; ++u) pe_nodes[node_to_pe[u]].push_back(u);
  for (BlockID pe = 0; pe < num_pes; ++pe) {
    match_shard(graph, pe_nodes[pe], pe, algo, options, level_rng, partner);
  }
  if (stats != nullptr) stats->local_pairs = matching_size(partner);

  // Rating of the locally matched edge at each node (0 if unmatched).
  const TentativeMatchRater rater(graph, options);
  std::vector<double> local_match_rating(n, 0.0);
  for (NodeID u = 0; u < n; ++u) {
    local_match_rating[u] = rater.match_rating(u, partner[u]);
  }

  // --- Phase 2: gap graph (§3.3). ---
  std::vector<RatedEdge> gap;
  for (NodeID u = 0; u < n; ++u) {
    for (EdgeID e = graph.first_arc(u); e < graph.last_arc(u); ++e) {
      const NodeID v = graph.arc_target(e);
      if (u >= v || node_to_pe[u] == node_to_pe[v]) continue;
      const EdgeWeight w = graph.arc_weight(e);
      double r = 0.0;
      if (rater.admits_gap_edge(u, v, w, local_match_rating[u],
                                local_match_rating[v], &r)) {
        gap.push_back({u, v, w, r});
      }
    }
  }
  if (stats != nullptr) stats->gap_edges = gap.size();

  // Iterated locally-heaviest matching: in every round each free node
  // nominates its best gap edge with a free other endpoint — by rating,
  // then by the lower (u, v), the order of DistHierarchy's edge keys —
  // and an edge nominated by both endpoints is matched, dissolving
  // tentative local matches. Two such edges never share an endpoint, so
  // the order of the matching pass does not matter.
  auto better = [&](std::size_t i, std::size_t b) {
    if (gap[i].rating != gap[b].rating) return gap[i].rating > gap[b].rating;
    return std::pair(gap[i].u, gap[i].v) < std::pair(gap[b].u, gap[b].v);
  };
  std::vector<std::uint8_t> node_taken(n, 0);
  std::vector<std::size_t> best(n);
  std::size_t rounds = 0;
  std::size_t matched = 1;
  while (matched != 0) {
    ++rounds;
    std::fill(best.begin(), best.end(), gap.size());
    for (std::size_t i = 0; i < gap.size(); ++i) {
      if (node_taken[gap[i].u] || node_taken[gap[i].v]) continue;  // retired
      for (const NodeID x : {gap[i].u, gap[i].v}) {
        if (best[x] == gap.size() || better(i, best[x])) best[x] = i;
      }
    }
    matched = 0;
    for (std::size_t i = 0; i < gap.size(); ++i) {
      const NodeID u = gap[i].u;
      const NodeID v = gap[i].v;
      if (best[u] != i || best[v] != i) continue;
      for (const NodeID x : {u, v}) {
        if (partner[x] != x) partner[partner[x]] = partner[x];  // dissolve
      }
      partner[u] = v;
      partner[v] = u;
      node_taken[u] = 1;
      node_taken[v] = 1;
      ++matched;
    }
    if (stats != nullptr) stats->gap_pairs += matched;
  }
  if (stats != nullptr) stats->gap_rounds = rounds;
  return partner;
}

}  // namespace kappa
