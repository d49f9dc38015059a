#include "core/phases.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>

#include "graph/contraction.hpp"
#include "graph/metrics.hpp"
#include "initial/initial_partitioner.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace kappa {

namespace {

/// The warm input projected onto the coarsest level of a hierarchy built
/// with the block-respecting policy. Composes the per-level maps into
/// finest -> coarsest ids and reads the blocks off the input: every
/// coarse node is pure, so the last write per coarse node wins harmlessly
/// (all writers agree).
Partition project_warm_start(const Hierarchy& hierarchy,
                             const Partition& warm, BlockID k) {
  const NodeID n = hierarchy.graph(0).num_nodes();
  assert(warm.num_nodes() == n);
  std::vector<NodeID> coarse_id(n);
  std::iota(coarse_id.begin(), coarse_id.end(), NodeID{0});
  for (std::size_t level = 0; level + 1 < hierarchy.num_levels(); ++level) {
    const std::vector<NodeID>& map = hierarchy.map(level);
    for (NodeID u = 0; u < n; ++u) coarse_id[u] = map[coarse_id[u]];
  }
  std::vector<BlockID> blocks(hierarchy.coarsest().num_nodes(), 0);
  for (NodeID u = 0; u < n; ++u) {
    assert(warm.block(u) < k);
    blocks[coarse_id[u]] = warm.block(u);
  }
  return Partition(hierarchy.coarsest(), std::move(blocks), k);
}

}  // namespace

PartitionResult run_multilevel(const StaticGraph& graph, const Config& config,
                               const Partition* warm) {
  Timer total_timer;
  PartitionResult result;
  const Rng rng(config.seed);

  // --- Phase 1: contraction (§3). ---
  Timer phase_timer;
  const Hierarchy hierarchy = [&] {
    KAPPA_TRACE_SPAN("phase.coarsen");
    Rng coarsen_rng = rng.fork(1);
    return build_hierarchy(graph, coarsening_options(graph, config, warm),
                           coarsen_rng);
  }();
  result.coarsening_time = phase_timer.elapsed_s();
  result.hierarchy_levels = hierarchy.num_levels();
  result.coarsest_nodes = hierarchy.coarsest().num_nodes();
  for (std::size_t l = 0; l < hierarchy.num_levels(); ++l) {
    result.hierarchy_level_nodes.push_back(hierarchy.graph(l).num_nodes());
  }

  // --- Phase 2: initial partitioning (§4), or the projected warm input. ---
  phase_timer.restart();
  Partition partition = [&] {
    KAPPA_TRACE_SPAN("phase.initial");
    if (warm != nullptr) return project_warm_start(hierarchy, *warm, config.k);
    InitialPartitionOptions initial;
    initial.eps = config.eps;
    initial.repeats = config.init_repeats;
    Rng initial_rng = rng.fork(2);
    return initial_partition(hierarchy.coarsest(), config.k, initial,
                             initial_rng);
  }();
  result.initial_time = phase_timer.elapsed_s();

  // --- Phase 3: uncoarsening with pairwise refinement (§5). ---
  phase_timer.restart();
  const Rng refine_rng = rng.fork(3);
  const NodeWeight global_bound =
      max_block_weight_bound(graph, config.k, config.eps);
  {
    KAPPA_TRACE_SPAN("phase.refine");
    for (std::size_t level = hierarchy.num_levels(); level-- > 0;) {
      KAPPA_TRACE_SPAN("refine.level", level);
      const StaticGraph& current = hierarchy.graph(level);
      if (level + 1 < hierarchy.num_levels()) {
        partition =
            project_partition(current, hierarchy.map(level), partition);
      }
      Rng level_rng = refine_rng.fork(level);
      const PairwiseRefineReport report = pairwise_refine(
          current, partition,
          level_refine_options(config, global_bound,
                               current.max_node_weight()),
          level_rng);
      if (log_level() >= LogLevel::kDebug) {
        std::ostringstream msg;
        msg << "refine level " << level << ": cut gain "
            << report.total_cut_gain << " in " << report.global_iterations
            << " global iterations";
        log_debug(msg.str());
      }
    }
    KAPPA_TRACE_SPAN("phase.rebalance");
    rebalance_until_feasible(graph, partition, config, global_bound,
                             refine_rng);
  }
  result.refinement_time = phase_timer.elapsed_s();

  result.cut = edge_cut(graph, partition);
  result.balance = balance(graph, partition);
  result.balanced = is_balanced(graph, partition, config.eps);
  result.partition = std::move(partition);
  result.total_time = total_timer.elapsed_s();
  return result;
}

CoarseningOptions coarsening_options(const StaticGraph& graph,
                                     const Config& config,
                                     const Partition* warm) {
  CoarseningOptions coarsening;
  coarsening.rating = config.rating;
  coarsening.matcher = config.matcher;
  coarsening.contraction_limit = contraction_stop_threshold(
      graph.num_nodes(), config.k, kContractionStopAlpha);
  coarsening.matching_pes = config.k;
  coarsening.warm_start = warm;
  if (warm != nullptr) {
    coarsening.max_pair_weight_cap = repartition_pair_weight_cap(graph, config);
  }
  return coarsening;
}

NodeWeight repartition_pair_weight_cap(const StaticGraph& graph,
                                       const Config& config) {
  const NodeWeight average =
      (graph.total_node_weight() + static_cast<NodeWeight>(config.k) - 1) /
      static_cast<NodeWeight>(config.k);
  return std::max<NodeWeight>(
      max_block_weight_bound(graph, config.k, config.eps) - average, 1);
}

PairwiseRefinerOptions level_refine_options(const Config& config,
                                            NodeWeight global_bound,
                                            NodeWeight level_max_node_weight) {
  PairwiseRefinerOptions refine;
  refine.fm.queue_selection = config.queue_selection;
  refine.fm.patience_alpha = config.fm_alpha;
  // The balance target is the *input-level* Lmax. Coarse levels have a
  // laxer intrinsic bound (their max node weight is larger), so refining
  // against the final bound from the start makes every level pull toward
  // final feasibility; the lexicographic FM objective reduces overload as
  // far as each level's granularity permits.
  refine.fm.max_block_weight = std::max(global_bound, level_max_node_weight);
  refine.bfs_depth = config.bfs_depth;
  refine.local_iterations = config.local_iterations;
  refine.max_global_iterations = config.max_global_iterations;
  refine.stop_no_change = config.stop_no_change;
  refine.duplicate_search = config.duplicate_search;
  return refine;
}

PairwiseRefinerOptions rebalance_options(const Config& config,
                                         const StaticGraph& graph,
                                         NodeWeight global_bound,
                                         int attempt) {
  PairwiseRefinerOptions rebalance;
  rebalance.fm.queue_selection = QueueSelection::kMaxLoad;
  rebalance.fm.patience_alpha = std::max(config.fm_alpha, 0.25);
  // Late attempts target the eps = 0 bound: a pair sitting exactly at
  // Lmax with odd total weight has no max-based gradient, but against
  // the tighter target its interior neighbors gain an incentive to
  // drain it, unsticking the chain. The true bound is only checked by
  // the caller's loop condition.
  rebalance.fm.max_block_weight =
      attempt < 8 ? global_bound : max_block_weight_bound(graph, config.k, 0.0);
  rebalance.bfs_depth =
      std::min(64, std::max(config.bfs_depth, 5) * (1 + attempt / 2));
  rebalance.local_iterations = 1;
  rebalance.max_global_iterations = 2;
  return rebalance;
}

void rebalance_until_feasible(const StaticGraph& graph, Partition& partition,
                              const Config& config, NodeWeight global_bound,
                              const Rng& refine_rng) {
  // Rebalancing insurance: should the finest level still be overloaded
  // (possible with the minimal preset's single shallow iteration, or on
  // road networks where weight must flow through narrow bridges), run
  // additional MaxLoad-driven iterations with escalating band depth —
  // this is the §5.2 exception rule applied until the constraint holds.
  // Each global iteration moves weight one quotient-graph hop, so chains
  // of near-full blocks drain over several attempts.
  for (int attempt = 0; attempt < kMaxRebalanceAttempts &&
                        !is_balanced(graph, partition, config.eps);
       ++attempt) {
    Rng rebalance_rng = refine_rng.fork(100 + attempt);
    (void)pairwise_refine(
        graph, partition,
        rebalance_options(config, graph, global_bound, attempt),
        rebalance_rng);
  }
}

}  // namespace kappa
