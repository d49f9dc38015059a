/// \file flow_refiner.hpp
/// \brief Flow-based pairwise refinement (the paper's §8 future work,
/// realized later in KaFFPa).
///
/// Within the pairwise framework, the cut between two blocks restricted
/// to the boundary band is exactly a minimum s-t cut problem: anchor the
/// band's inner rims to s and t, give band edges their weights as
/// capacities, and the min cut is the best possible pair cut achievable
/// by reassigning band nodes — a *global* optimum over the band, where FM
/// only hill-climbs. The catch is balance: a min cut may shift too much
/// weight, in which case the result is discarded (KaFFPa's adaptive
/// band-scaling is approximated here by the caller retrying with a
/// smaller depth).
///
/// The pass is part of the pair kernel: a template over a pair model
/// (refinement/pair_model.hpp). The StaticGraph overload wraps
/// GraphPairModel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/partition.hpp"
#include "graph/static_graph.hpp"
#include "refinement/max_flow.hpp"
#include "refinement/pair_model.hpp"
#include "util/stamp_set.hpp"
#include "util/types.hpp"

namespace kappa {

/// Balance bounds for the flow step (same semantics as TwoWayFMOptions).
struct FlowRefineOptions {
  NodeWeight max_block_weight = 0;
  NodeWeight max_block_weight_b = 0;  ///< 0 = same as block a
};

/// Outcome of one flow step.
struct FlowRefineResult {
  EdgeWeight cut_gain = 0;  ///< improvement of the pair cut (0 if skipped)
  bool applied = false;     ///< false if the min cut was infeasible/worse
};

/// Runs one min-cut pass on the pair (a, b) of \p model restricted to
/// \p band.
///
/// Precondition: \p band contains every node of blocks a/b that is on the
/// current pair boundary (bands from boundary_band*() satisfy this). The
/// move is applied only if it strictly improves the pair cut and both
/// blocks stay within their bounds; otherwise the partition is unchanged.
template <typename Model>
[[nodiscard]] FlowRefineResult flow_refine_pair(
    Model& model, BlockID a, BlockID b, std::span<const NodeID> band,
    const FlowRefineOptions& options) {
  FlowRefineResult result;
  if (band.empty()) return result;

  // Local indexing of the band (thread-local scratch, same pattern as FM).
  thread_local StampSet in_band;
  thread_local std::vector<std::uint32_t> local_index;
  in_band.clear(model.id_space());
  if (local_index.size() < model.id_space()) {
    local_index.resize(model.id_space());
  }
  for (std::uint32_t i = 0; i < band.size(); ++i) {
    in_band.insert(band[i]);
    local_index[band[i]] = i;
  }

  const std::size_t s = band.size();
  const std::size_t t = band.size() + 1;
  FlowNetwork network(band.size() + 2);
  constexpr FlowNetwork::Flow kInf =
      std::numeric_limits<FlowNetwork::Flow>::max() / 4;

  // Current pair cut (to compare against the min cut value) and network
  // construction in one sweep.
  EdgeWeight old_pair_cut = 0;
  bool any_anchor_a = false;
  bool any_anchor_b = false;
  for (std::uint32_t i = 0; i < band.size(); ++i) {
    const NodeID u = band[i];
    const BlockID bu = model.block(u);
    const PairRow row = model.row(u);
    bool anchor_a = false;
    bool anchor_b = false;
    for (std::size_t e = 0; e < row.targets.size(); ++e) {
      const NodeID v = row.targets[e];
      const BlockID bv = model.block(v);
      if (bu == a && bv == b) old_pair_cut += row.weights[e];
      if (in_band.contains(v)) {
        // Band-internal edge: capacity once per undirected edge.
        if (model.order_key(u) < model.order_key(v) &&
            (bv == a || bv == b)) {
          network.add_undirected_edge(i, local_index[v], row.weights[e]);
        }
      } else if (bv == a) {
        anchor_a = true;  // rim neighbor stays in a: u is tied to s
      } else if (bv == b) {
        anchor_b = true;
      }
    }
    if (anchor_a) {
      network.add_edge(s, i, kInf);
      any_anchor_a = true;
    }
    if (anchor_b) {
      network.add_edge(i, t, kInf);
      any_anchor_b = true;
    }
  }

  // If the band swallowed a whole block there is no rim on that side and
  // the min cut would degenerate to "move everything". Anchor the band
  // node of that block farthest from the pair boundary instead (BFS
  // distance), preserving a non-trivial core.
  if (!any_anchor_a || !any_anchor_b) {
    constexpr std::uint32_t kFar = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> dist(band.size(), kFar);
    std::vector<std::uint32_t> queue;
    for (std::uint32_t i = 0; i < band.size(); ++i) {
      const NodeID u = band[i];
      const BlockID other = model.block(u) == a ? b : a;
      for (const NodeID v : model.row(u).targets) {
        if (model.block(v) == other) {
          dist[i] = 0;
          queue.push_back(i);
          break;
        }
      }
    }
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::uint32_t i = queue[qi];
      for (const NodeID v : model.row(band[i]).targets) {
        if (!in_band.contains(v)) continue;
        const std::uint32_t j = local_index[v];
        if (dist[j] > dist[i] + 1) {
          dist[j] = dist[i] + 1;
          queue.push_back(j);
        }
      }
    }
    for (const BlockID side_block : {a, b}) {
      if ((side_block == a && any_anchor_a) ||
          (side_block == b && any_anchor_b)) {
        continue;
      }
      std::uint32_t best = kFar;
      std::uint32_t best_dist = 0;
      for (std::uint32_t i = 0; i < band.size(); ++i) {
        if (model.block(band[i]) != side_block) continue;
        const std::uint32_t d = dist[i] == kFar ? kFar - 1 : dist[i];
        if (best == kFar || d > best_dist) {
          best = i;
          best_dist = d;
        }
      }
      if (best == kFar) {
        return result;  // one side of the pair is empty: nothing to do
      }
      if (side_block == a) {
        network.add_edge(s, best, kInf);
      } else {
        network.add_edge(best, t, kInf);
      }
    }
  }

  const FlowNetwork::Flow flow = network.max_flow(s, t);
  if (flow >= old_pair_cut) return result;  // no strict improvement

  // The source side of the min cut goes to block a, the rest to b.
  const std::vector<bool> source_side = network.min_cut_source_side(s);

  // Feasibility check before touching the partition.
  NodeWeight weight_a = model.block_weight(a);
  NodeWeight weight_b = model.block_weight(b);
  for (std::uint32_t i = 0; i < band.size(); ++i) {
    const NodeID u = band[i];
    const BlockID target = source_side[i] ? a : b;
    const BlockID current = model.block(u);
    if (target != current) {
      const NodeWeight w = model.node_weight(u);
      if (current == a) {
        weight_a -= w;
        weight_b += w;
      } else {
        weight_a += w;
        weight_b -= w;
      }
    }
  }
  const NodeWeight bound_a = options.max_block_weight;
  const NodeWeight bound_b = options.max_block_weight_b != 0
                                 ? options.max_block_weight_b
                                 : options.max_block_weight;
  // Apply only if the move does not increase overload on either side.
  const NodeWeight old_overload =
      std::max<NodeWeight>(0, model.block_weight(a) - bound_a) +
      std::max<NodeWeight>(0, model.block_weight(b) - bound_b);
  const NodeWeight new_overload =
      std::max<NodeWeight>(0, weight_a - bound_a) +
      std::max<NodeWeight>(0, weight_b - bound_b);
  if (new_overload > old_overload) return result;

  for (std::uint32_t i = 0; i < band.size(); ++i) {
    const NodeID u = band[i];
    const BlockID target = source_side[i] ? a : b;
    if (model.block(u) != target) model.move(u, target);
  }
  result.cut_gain = old_pair_cut - static_cast<EdgeWeight>(flow);
  result.applied = true;
  return result;
}

/// flow_refine_pair() on a StaticGraph and its Partition.
[[nodiscard]] FlowRefineResult flow_refine_pair(
    const StaticGraph& graph, Partition& partition, BlockID a, BlockID b,
    std::span<const NodeID> band, const FlowRefineOptions& options);

}  // namespace kappa
