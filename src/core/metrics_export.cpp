/// \file metrics_export.cpp
/// \brief PartitionResult -> MetricsRegistry flattening.
#include "core/metrics_export.hpp"

#include <cstdint>
#include <vector>

namespace kappa {

MetricsRegistry metrics_from_result(const PartitionResult& result,
                                    const Config& config,
                                    const std::string& backend) {
  MetricsRegistry registry;

  registry.set_u64("run.k", config.k);
  registry.set_f64("run.eps", config.eps);
  registry.set_u64("run.seed", config.seed);
  registry.set_u64("run.num_pes",
                   static_cast<std::uint64_t>(result.num_pes));
  registry.set_str("run.backend", backend);

  registry.set_i64("partition.cut", result.cut);
  registry.set_f64("partition.balance", result.balance);
  registry.set_u64("partition.feasible", result.balanced ? 1 : 0);

  registry.set_i64("repartition.initial_cut", result.initial_cut);
  registry.set_u64("repartition.migrated_nodes", result.migrated_nodes);

  registry.set_f64("time.total_s", result.total_time);
  registry.set_f64("time.coarsen_s", result.coarsening_time);
  registry.set_f64("time.initial_s", result.initial_time);
  registry.set_f64("time.refine_s", result.refinement_time);

  registry.set_u64("hierarchy.levels", result.hierarchy_levels);
  registry.set_u64("hierarchy.coarsest_nodes", result.coarsest_nodes);
  {
    std::vector<std::uint64_t> levels;
    for (const NodeID n : result.hierarchy_level_nodes) levels.push_back(n);
    registry.set_u64_list("hierarchy.level_nodes", std::move(levels));
  }

  const std::vector<RankCounters>& ranks = result.counters_per_pe;
  const RankCounters total = fold_counters(ranks);
  for (const CounterField& field : kRankCounters) {
    std::vector<std::uint64_t> per_rank;
    per_rank.reserve(ranks.size());
    for (const RankCounters& counters : ranks) {
      per_rank.push_back(field.of(counters));
    }
    registry.set_counter(field, field.of(total), std::move(per_rank));
  }
  {
    std::vector<std::uint64_t> messages;
    std::vector<std::uint64_t> words;
    for (const LevelHaloStats& level : total.comm.halo_per_level) {
      messages.push_back(level.messages);
      words.push_back(level.words);
    }
    registry.set_u64_list("comm.halo.messages_per_level",
                          std::move(messages));
    registry.set_u64_list("comm.halo.words_per_level", std::move(words));
  }

  return registry;
}

}  // namespace kappa
