#include "refinement/pairwise_refiner.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "graph/quotient_graph.hpp"
#include "refinement/band.hpp"
#include "refinement/edge_coloring.hpp"
#include "refinement/flow_refiner.hpp"
#include "util/seeded_hash.hpp"

namespace kappa {

namespace {

/// Recomputes the pair boundary among \p candidates and their in-pair
/// neighbors. After an FM pass only nodes inside the old band (or their
/// direct neighbors) can have become boundary, so this is complete.
std::vector<NodeID> refresh_boundary(const StaticGraph& graph,
                                     const Partition& partition, BlockID a,
                                     BlockID b,
                                     const std::vector<NodeID>& candidates) {
  std::vector<NodeID> expanded;
  expanded.reserve(candidates.size() * 2);
  for (const NodeID u : candidates) {
    expanded.push_back(u);
    for (const NodeID v : graph.neighbors(u)) {
      const BlockID bv = partition.block(v);
      if (bv == a || bv == b) expanded.push_back(v);
    }
  }
  std::sort(expanded.begin(), expanded.end());
  expanded.erase(std::unique(expanded.begin(), expanded.end()),
                 expanded.end());

  std::vector<NodeID> boundary;
  for (const NodeID u : expanded) {
    const BlockID bu = partition.block(u);
    if (bu != a && bu != b) continue;
    const BlockID other = bu == a ? b : a;
    for (const NodeID v : graph.neighbors(u)) {
      if (partition.block(v) == other) {
        boundary.push_back(u);
        break;
      }
    }
  }
  return boundary;
}

/// Runs one FM search on the pair, optionally duplicated with a second
/// seed — the better of the two outcomes is adopted.
TwoWayFMResult search_pair(const StaticGraph& graph, Partition& partition,
                           BlockID a, BlockID b,
                           const std::vector<NodeID>& band,
                           const PairwiseRefinerOptions& options, Rng rng_a,
                           Rng rng_b) {
  if (!options.duplicate_search) {
    return twoway_fm(graph, partition, a, b, band, options.fm, rng_a);
  }

  // Snapshot the pair state (band assignments suffice: FM only moves band
  // nodes between a and b).
  std::vector<BlockID> before(band.size());
  for (std::size_t i = 0; i < band.size(); ++i) {
    before[i] = partition.block(band[i]);
  }
  auto restore = [&](const std::vector<BlockID>& snapshot) {
    for (std::size_t i = 0; i < band.size(); ++i) {
      const NodeID u = band[i];
      if (partition.block(u) != snapshot[i]) {
        partition.move(u, snapshot[i], graph.node_weight(u));
      }
    }
  };

  const TwoWayFMResult result_a =
      twoway_fm(graph, partition, a, b, band, options.fm, rng_a);
  std::vector<BlockID> after_a(band.size());
  for (std::size_t i = 0; i < band.size(); ++i) {
    after_a[i] = partition.block(band[i]);
  }

  restore(before);
  const TwoWayFMResult result_b =
      twoway_fm(graph, partition, a, b, band, options.fm, rng_b);

  // Lexicographic comparison: prefer the larger imbalance gain, then the
  // larger cut gain ("the better partitioning of the two blocks is
  // adopted").
  const bool a_wins =
      result_a.imbalance_gain != result_b.imbalance_gain
          ? result_a.imbalance_gain > result_b.imbalance_gain
          : result_a.cut_gain > result_b.cut_gain;
  if (a_wins) {
    restore(after_a);
    return result_a;
  }
  return result_b;
}

}  // namespace

PairRefineResult refine_pair(const StaticGraph& graph, Partition& partition,
                             BlockID a, BlockID b,
                             const std::vector<NodeID>& boundary_seeds,
                             const PairwiseRefinerOptions& options,
                             const Rng& rng, std::uint64_t seed_tag,
                             bool collect_moves,
                             const std::vector<char>* movable) {
  PairRefineResult result;

  // Entry block of every node that ever enters a band; FM (and the flow
  // pass) only move band nodes, so the union of bands covers all moves.
  // First-entry order is recorded separately: moves are emitted in that
  // order, never in the hash map's.
  hash_map<NodeID, BlockID> entry_block;
  std::vector<NodeID> entry_order;
  auto record_band = [&](const std::vector<NodeID>& nodes) {
    if (!collect_moves) return;
    for (const NodeID u : nodes) {
      if (entry_block.emplace(u, partition.block(u)).second) {
        entry_order.push_back(u);
      }
    }
  };

  // One stream per pair (odd tags, disjoint from the coloring stream),
  // then one fork per local search: no two work units share a stream.
  const Rng pair_rng = rng.fork(2 * seed_tag + 1);

  std::vector<NodeID> band = boundary_band_from_seeds(
      graph, partition, a, b, boundary_seeds, options.bfs_depth, movable);
  record_band(band);
  for (int local = 0; local < options.local_iterations; ++local) {
    if (band.empty()) break;
    Rng rng_a = pair_rng.fork(2 * static_cast<std::uint64_t>(local));
    Rng rng_b = pair_rng.fork(2 * static_cast<std::uint64_t>(local) + 1);
    const TwoWayFMResult fm =
        search_pair(graph, partition, a, b, band, options, rng_a, rng_b);
    result.cut_gain += fm.cut_gain;
    result.imbalance_gain += fm.imbalance_gain;
    if (fm.moved_nodes == 0) break;  // converged for this pair
    if (local + 1 < options.local_iterations) {
      const std::vector<NodeID> boundary =
          refresh_boundary(graph, partition, a, b, band);
      band = boundary_band_from_seeds(graph, partition, a, b, boundary,
                                      options.bfs_depth, movable);
      record_band(band);
    }
  }
  if (options.use_flow) {
    // One min-cut pass on a freshly computed band (the flow model
    // requires the band to contain the entire current pair boundary).
    const std::vector<NodeID> boundary =
        refresh_boundary(graph, partition, a, b, band);
    band = boundary_band_from_seeds(graph, partition, a, b, boundary,
                                    options.bfs_depth, movable);
    record_band(band);
    FlowRefineOptions flow_options;
    flow_options.max_block_weight = options.fm.max_block_weight;
    flow_options.max_block_weight_b = options.fm.max_block_weight_b;
    const FlowRefineResult flow =
        flow_refine_pair(graph, partition, a, b, band, flow_options);
    result.cut_gain += flow.cut_gain;
  }

  for (const NodeID u : entry_order) {
    if (partition.block(u) != entry_block.at(u)) {
      result.moves.emplace_back(u, partition.block(u));
    }
  }
  return result;
}

PairwiseRefineReport pairwise_refine(const StaticGraph& graph,
                                     Partition& partition,
                                     const PairwiseRefinerOptions& options,
                                     Rng& rng) {
  PairwiseRefineReport report;
  int no_change_streak = 0;

  for (int global = 0; global < options.max_global_iterations; ++global) {
    const QuotientGraph quotient(graph, partition);
    if (quotient.edges().empty()) break;  // every block is isolated

    Rng color_rng = rng.fork(coloring_fork_tag(global));
    const EdgeColoring coloring = color_quotient_edges(quotient, color_rng);
    report.colors_last_iteration = coloring.num_colors;

    // The pairs of one color class are block-disjoint; they run one after
    // another, in class order.
    EdgeWeight iteration_cut_gain = 0;
    NodeWeight iteration_imbalance_gain = 0;
    for (int color = 0; color < coloring.num_colors; ++color) {
      for (const std::size_t e : coloring.color_class(color)) {
        const QuotientEdge& edge = quotient.edges()[e];
        const PairRefineResult result =
            refine_pair(graph, partition, edge.a, edge.b, edge.boundary,
                        options, rng, pair_seed_tag(global, e),
                        /*collect_moves=*/false);
        iteration_cut_gain += result.cut_gain;
        iteration_imbalance_gain += result.imbalance_gain;
      }
    }

    report.total_cut_gain += iteration_cut_gain;
    report.total_imbalance_gain += iteration_imbalance_gain;
    report.global_iterations = global + 1;

    if (iteration_cut_gain > 0 || iteration_imbalance_gain > 0) {
      no_change_streak = 0;
    } else if (++no_change_streak >= options.stop_no_change) {
      break;
    }
  }
  return report;
}

}  // namespace kappa
