/// \file metrics_export.cpp
/// \brief PartitionResult -> MetricsRegistry flattening.
#include "core/metrics_export.hpp"

#include <cstdint>
#include <vector>

namespace kappa {

namespace {

/// Per-rank projections of a CommStats vector.
std::vector<std::uint64_t> per_rank(
    const std::vector<CommStats>& stats,
    std::uint64_t (*field)(const CommStats&)) {
  std::vector<std::uint64_t> values;
  values.reserve(stats.size());
  for (const CommStats& s : stats) values.push_back(field(s));
  return values;
}

std::vector<std::uint64_t> footprint_field(
    const std::vector<ShardFootprint>& footprints,
    std::uint64_t (*field)(const ShardFootprint&)) {
  std::vector<std::uint64_t> values;
  values.reserve(footprints.size());
  for (const ShardFootprint& f : footprints) values.push_back(field(f));
  return values;
}

}  // namespace

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
  {
    std::vector<std::uint64_t> migrated;
    for (const NodeID n : result.migrated_per_pe) migrated.push_back(n);
    registry.set_u64_list("repartition.migrated_per_rank",
                          std::move(migrated));
    std::vector<std::uint64_t> edges;
    for (const std::size_t e : result.migrated_edges_per_pe) {
      edges.push_back(e);
    }
    registry.set_u64_list("repartition.migrated_edges_per_rank",
                          std::move(edges));
  }

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

  const CommStats& comm = result.comm;
  registry.set_u64("comm.messages_sent", comm.messages_sent);
  registry.set_u64("comm.words_sent", comm.words_sent);
  registry.set_u64("comm.messages_received", comm.messages_received);
  registry.set_u64("comm.words_received", comm.words_received);
  registry.set_u64("comm.barriers", comm.barriers);
  registry.set_u64("comm.collective_idle_ns", comm.collective_idle_ns);
  registry.set_u64("comm.recv_idle_ns", comm.recv_idle_ns);
  registry.set_u64("comm.rounds_waited", comm.rounds_waited);
  registry.set_u64("comm.wire_bytes_sent", comm.wire_bytes_sent);
  registry.set_u64("comm.wire_bytes_received", comm.wire_bytes_received);
  registry.set_u64("comm.heartbeat_frames_sent", comm.heartbeat_frames_sent);
  registry.set_u64("comm.heartbeat_words_sent", comm.heartbeat_words_sent);
  const std::vector<CommStats>& per_pe = result.comm_per_pe;
  registry.set_u64_list(
      "comm.per_rank.messages_sent",
      per_rank(per_pe, [](const CommStats& s) { return s.messages_sent; }));
  registry.set_u64_list(
      "comm.per_rank.words_sent",
      per_rank(per_pe, [](const CommStats& s) { return s.words_sent; }));
  registry.set_u64_list(
      "comm.per_rank.messages_received",
      per_rank(per_pe,
               [](const CommStats& s) { return s.messages_received; }));
  registry.set_u64_list(
      "comm.per_rank.words_received",
      per_rank(per_pe, [](const CommStats& s) { return s.words_received; }));
  registry.set_u64_list(
      "comm.per_rank.idle_ns",
      per_rank(per_pe, [](const CommStats& s) { return s.idle_ns(); }));
  registry.set_u64_list(
      "comm.per_rank.rounds_waited",
      per_rank(per_pe, [](const CommStats& s) { return s.rounds_waited; }));
  registry.set_u64_list(
      "comm.per_rank.wire_bytes_sent",
      per_rank(per_pe, [](const CommStats& s) { return s.wire_bytes_sent; }));
  registry.set_u64_list(
      "comm.per_rank.wire_bytes_received",
      per_rank(per_pe,
               [](const CommStats& s) { return s.wire_bytes_received; }));
  {
    std::vector<std::uint64_t> messages;
    std::vector<std::uint64_t> words;
    for (const LevelHaloStats& level : comm.halo_per_level) {
      messages.push_back(level.messages);
      words.push_back(level.words);
    }
    registry.set_u64_list("comm.halo.messages_per_level",
                          std::move(messages));
    registry.set_u64_list("comm.halo.words_per_level", std::move(words));
  }

  PairShipStats ship;
  std::vector<std::uint64_t> pairs_per_rank;
  for (const PairShipStats& s : result.pair_ship_per_pe) {
    ship += s;
    pairs_per_rank.push_back(s.pairs_executed);
  }
  registry.set_u64("ship.pairs_executed", ship.pairs_executed);
  registry.set_u64("ship.pairs_shipped", ship.pairs_shipped);
  registry.set_u64("ship.rows_shipped", ship.rows_shipped);
  registry.set_u64("ship.words_shipped", ship.words_shipped);
  registry.set_u64("ship.whole_block_rows", ship.whole_block_rows);
  registry.set_u64_list("ship.per_rank.pairs_executed",
                        std::move(pairs_per_rank));

  registry.set_u64_list(
      "memory.shard.owned_per_rank",
      footprint_field(result.shard_memory_per_pe,
                      [](const ShardFootprint& f) { return f.owned_nodes; }));
  registry.set_u64_list(
      "memory.shard.ghost_per_rank",
      footprint_field(result.shard_memory_per_pe,
                      [](const ShardFootprint& f) { return f.ghost_nodes; }));
  registry.set_u64_list(
      "memory.shard.arcs_per_rank",
      footprint_field(result.shard_memory_per_pe,
                      [](const ShardFootprint& f) { return f.arcs; }));
  registry.set_u64_list(
      "memory.hierarchy.resident_nodes_per_rank",
      footprint_field(result.hierarchy_memory_per_pe,
                      [](const ShardFootprint& f) {
                        return f.resident_nodes();
                      }));
  registry.set_u64_list(
      "memory.partition.resident_per_rank",
      footprint_field(result.partition_memory_per_pe,
                      [](const ShardFootprint& f) {
                        return f.resident_nodes();
                      }));

  return registry;
}

}  // namespace kappa
