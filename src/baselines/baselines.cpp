#include "baselines/baselines.hpp"

#include <algorithm>

#include "coarsening/hierarchy.hpp"
#include "graph/contraction.hpp"
#include "graph/metrics.hpp"
#include "initial/recursive_bisection.hpp"
#include "matching/tentative_match.hpp"
#include "refinement/kway_refiner.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace kappa {

namespace {

BaselineResult finish(const StaticGraph& graph, Partition partition,
                      const Timer& timer) {
  BaselineResult result;
  result.cut = edge_cut(graph, partition);
  result.balance = balance(graph, partition);
  result.total_time = timer.elapsed_s();
  result.partition = std::move(partition);
  return result;
}

/// Shared skeleton of the two Metis-like partitioners: coarsen with SHEM
/// and the plain weight rating, recursive-bisection the coarsest graph,
/// refine greedily per level.
BaselineResult metis_like(const StaticGraph& graph, BlockID k, double eps,
                          std::uint64_t seed, bool parallel_flavor) {
  Timer timer;
  Rng rng(seed);

  CoarseningOptions coarsening;
  coarsening.rating = EdgeRating::kWeight;  // the classic Metis rating
  coarsening.matcher = MatcherAlgo::kSHEM;
  coarsening.contraction_limit =
      std::max<NodeID>(100, 15 * k);  // Metis' c * k coarsest size

  Hierarchy hierarchy = [&] {
    if (!parallel_flavor) {
      Rng coarsen_rng = rng.fork(1);
      return build_hierarchy(graph, coarsening, coarsen_rng);
    }
    // parMetis flavour: every PE matches only its local subgraph; edges
    // crossing PE boundaries are never contracted (parMetis does folding
    // instead; the net effect — worse matchings near boundaries — is the
    // same). We emulate with the parallel matcher minus its gap phase:
    // match_shard() on each PE's contiguous range of the level's node
    // numbering, parMetis' input distribution.
    Hierarchy h(graph);
    MatchingOptions match_options;
    match_options.rating = coarsening.rating;
    std::size_t level = 0;
    while (h.coarsest().num_nodes() > coarsening.contraction_limit) {
      const StaticGraph& current = h.coarsest();
      const NodeID n = current.num_nodes();
      std::vector<std::vector<NodeID>> pe_nodes(k);
      std::vector<NodeID> partner(n);
      for (NodeID u = 0; u < n; ++u) {
        pe_nodes[static_cast<std::uint64_t>(u) * k / n].push_back(u);
        partner[u] = u;
      }
      const Rng level_rng = rng.fork(4 + level);
      for (BlockID pe = 0; pe < k; ++pe) {
        match_shard(current, pe_nodes[pe], pe, MatcherAlgo::kSHEM,
                    match_options, level_rng, partner);
      }
      const NodeID pairs = matching_size(partner);
      if (pairs == 0) break;
      const double shrink = static_cast<double>(pairs) /
                            static_cast<double>(current.num_nodes());
      ContractionResult contraction = contract(current, partner);
      h.push_level(std::move(contraction.coarse_graph),
                   std::move(contraction.fine_to_coarse));
      ++level;
      if (shrink < 0.05) break;
    }
    return h;
  }();

  // Initial partitioning on the coarsest graph: flat recursive bisection.
  RecursiveBisectionOptions rb;
  rb.eps = eps;
  rb.bisection.growing_attempts = parallel_flavor ? 2 : 4;
  Rng initial_rng = rng.fork(2);
  Partition partition =
      recursive_bisection(hierarchy.coarsest(), k, rb, initial_rng);

  // Uncoarsen with greedy k-way refinement.
  KWayRefinerOptions refine;
  // parMetis' balance handling is laxer: it refines against a looser
  // bound, which is why its reported balances hover around 1.047 where the
  // constraint asked for 1.03 (Tables 16/18/20).
  const double effective_eps = parallel_flavor ? eps + 0.02 : eps;
  refine.passes = parallel_flavor ? 1 : 3;
  Rng refine_rng = rng.fork(3);
  for (std::size_t level = hierarchy.num_levels(); level-- > 0;) {
    const StaticGraph& current = hierarchy.graph(level);
    if (level + 1 < hierarchy.num_levels()) {
      partition = project_partition(current, hierarchy.map(level), partition);
    }
    refine.max_block_weight =
        max_block_weight_bound(current, k, effective_eps);
    Rng level_rng = refine_rng.fork(level);
    (void)kway_refine(current, partition, refine, level_rng);
  }
  return finish(graph, std::move(partition), timer);
}

}  // namespace

BaselineResult scotch_partition(const StaticGraph& graph, BlockID k,
                                double eps, std::uint64_t seed) {
  Timer timer;
  Rng rng(seed);
  RecursiveBisectionOptions options;
  options.eps = eps;
  options.bisection.fm_rounds = 3;
  options.bisection.growing_attempts = 5;
  // Band-style refinement on every level of every bisection is Scotch's
  // scheme; our multilevel_bisection already does full-boundary FM.
  Partition partition = recursive_bisection(graph, k, options, rng);
  return finish(graph, std::move(partition), timer);
}

BaselineResult kmetis_partition(const StaticGraph& graph, BlockID k,
                                double eps, std::uint64_t seed) {
  return metis_like(graph, k, eps, seed, /*parallel_flavor=*/false);
}

BaselineResult parmetis_partition(const StaticGraph& graph, BlockID k,
                                  double eps, std::uint64_t seed) {
  return metis_like(graph, k, eps, seed, /*parallel_flavor=*/true);
}

}  // namespace kappa
