#include "core/phases.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>

#include "graph/contraction.hpp"
#include "graph/metrics.hpp"
#include "parallel/dist_hierarchy.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace kappa {

PartitionResult run_multilevel(const StaticGraph& graph, const Config& config,
                               SequentialCoarsener& coarsener,
                               InitialPartitioner& initial,
                               SequentialRefiner& refiner) {
  Timer total_timer;
  PartitionResult result;

  // --- Phase 1: contraction (§3). ---
  Timer phase_timer;
  const Hierarchy hierarchy = [&] {
    KAPPA_TRACE_SPAN("phase.coarsen");
    return coarsener.coarsen(graph);
  }();
  result.coarsening_time = phase_timer.elapsed_s();
  result.hierarchy_levels = hierarchy.num_levels();
  result.coarsest_nodes = hierarchy.coarsest().num_nodes();

  // --- Phase 2: initial partitioning (§4). ---
  phase_timer.restart();
  Partition partition = [&] {
    KAPPA_TRACE_SPAN("phase.initial");
    initial.observe_hierarchy(hierarchy);
    return initial.partition(hierarchy.coarsest());
  }();
  result.initial_time = phase_timer.elapsed_s();

  // --- Phase 3: uncoarsening with pairwise refinement (§5). ---
  phase_timer.restart();
  {
    KAPPA_TRACE_SPAN("phase.refine");
    for (std::size_t level = hierarchy.num_levels(); level-- > 0;) {
      KAPPA_TRACE_SPAN("refine.level", level);
      const StaticGraph& current = hierarchy.graph(level);
      if (level + 1 < hierarchy.num_levels()) {
        partition =
            project_partition(current, hierarchy.map(level), partition);
      }
      refiner.refine(current, partition, level);
    }
    KAPPA_TRACE_SPAN("phase.rebalance");
    refiner.rebalance(graph, partition);
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
                                     const Config& config) {
  CoarseningOptions coarsening;
  coarsening.rating = config.rating;
  coarsening.matcher = config.matcher;
  coarsening.contraction_limit = contraction_stop_threshold(
      graph.num_nodes(), config.k, config.stop_alpha);
  coarsening.matching_pes = config.matching_pes;
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
  refine.num_threads = config.num_threads;
  refine.duplicate_search = config.duplicate_search;
  refine.use_flow = config.enable_flow_refinement;
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
  rebalance.num_threads = config.num_threads;
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

// ------------------------------------------------------------ sequential ----

Hierarchy SequentialCoarsener::coarsen(const StaticGraph& graph) {
  Rng coarsen_rng = rng_.fork(1);
  CoarseningOptions options = coarsening_options(graph, config_);
  options.warm_start = warm_start_;
  if (warm_start_ != nullptr) {
    options.max_pair_weight_cap = repartition_pair_weight_cap(graph, config_);
  }
  return build_hierarchy(graph, options, coarsen_rng);
}

void WarmStartInitialPartitioner::observe_hierarchy(
    const Hierarchy& hierarchy) {
  // Compose the per-level maps into finest -> coarsest ids, then read the
  // coarsest assignment off the input. Block-respecting contraction makes
  // every coarse node pure, so the last write per coarse node wins
  // harmlessly (all writers agree).
  const NodeID n = hierarchy.graph(0).num_nodes();
  assert(current_->num_nodes() == n);
  std::vector<NodeID> coarse_id(n);
  std::iota(coarse_id.begin(), coarse_id.end(), NodeID{0});
  for (std::size_t level = 0; level + 1 < hierarchy.num_levels(); ++level) {
    const std::vector<NodeID>& map = hierarchy.map(level);
    for (NodeID u = 0; u < n; ++u) coarse_id[u] = map[coarse_id[u]];
  }
  projected_.assign(hierarchy.coarsest().num_nodes(), 0);
  for (NodeID u = 0; u < n; ++u) {
    assert(current_->block(u) < k_);
    projected_[coarse_id[u]] = current_->block(u);
  }
}

void WarmStartInitialPartitioner::observe_hierarchy(
    const DistHierarchy& hierarchy) {
  // The distributed store keeps the projection chain sharded: every rank
  // walks its own ownership chain (coarse ownership is inherited from the
  // canonical endpoint, so the chain never leaves the rank) and only the
  // O(coarsest) result is gathered — no per-level map replica exists.
  projected_ = hierarchy.coarsest_warm_assignment();
}

Partition WarmStartInitialPartitioner::partition(const StaticGraph& coarsest) {
  assert(projected_.size() == coarsest.num_nodes() &&
         "observe_hierarchy() must run before partition()");
  return Partition(coarsest, projected_, k_);
}

Partition SequentialInitialPartitioner::partition(
    const StaticGraph& coarsest) {
  InitialPartitionOptions initial;
  initial.eps = config_.eps;
  initial.repeats = config_.init_repeats;
  Rng initial_rng = rng_.fork(2);
  return initial_partition(coarsest, config_.k, initial, initial_rng);
}

SequentialRefiner::SequentialRefiner(const StaticGraph& finest,
                                     const Config& config, Rng rng)
    : config_(config),
      rng_(rng.fork(3)),
      global_bound_(max_block_weight_bound(finest, config.k, config.eps)) {}

void SequentialRefiner::refine(const StaticGraph& graph, Partition& partition,
                               std::size_t level) {
  const PairwiseRefinerOptions options =
      level_refine_options(config_, global_bound_, graph.max_node_weight());
  Rng level_rng = rng_.fork(level);
  const PairwiseRefineReport report =
      pairwise_refine(graph, partition, options, level_rng);
  if (log_level() >= LogLevel::kDebug) {
    std::ostringstream msg;
    msg << "refine level " << level << ": cut gain " << report.total_cut_gain
        << " in " << report.global_iterations << " global iterations";
    log_debug(msg.str());
  }
}

void SequentialRefiner::rebalance(const StaticGraph& graph,
                                  Partition& partition) {
  rebalance_until_feasible(graph, partition, config_, global_bound_, rng_);
}

}  // namespace kappa
