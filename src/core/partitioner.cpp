/// \file partitioner.cpp
/// \brief The unified entry point: both workloads (from-scratch and
/// warm-started) in both execution contexts (sequential and SPMD) through
/// the one shared run_multilevel() driver.
#include "core/partitioner.hpp"

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/phases.hpp"
#include "graph/metrics.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/spmd_phases.hpp"
#include "parallel/trace_merge.hpp"
#include "parallel/watch.hpp"
#include "util/progress.hpp"
#include "util/random.hpp"
#include "util/trace.hpp"

namespace kappa {

namespace {

/// Fills the repartitioning delta fields of \p result against the input
/// assignment.
void record_migration(const StaticGraph& graph, const Partition& current,
                      EdgeWeight input_cut, PartitionResult& result) {
  result.initial_cut = input_cut;
  result.migrated_nodes = 0;
  for (NodeID u = 0; u < graph.num_nodes(); ++u) {
    if (result.partition.block(u) != current.block(u)) {
      ++result.migrated_nodes;
    }
  }
}

PartitionResult run_sequential(const StaticGraph& graph, const Config& config,
                               const Partition* warm, TraceSink* sink) {
  const bool tracing = trace_run_enabled(config.trace_enabled);
  TraceRecorder recorder(tracing ? trace_buffer_capacity() : 1);
  const ThreadTraceScope bind_trace(tracing ? &recorder : nullptr);
  const Rng rng(config.seed);
  SequentialCoarsener coarsener(config, rng, warm);
  SequentialRefiner refiner(graph, config, rng);
  PartitionResult result;
  if (warm != nullptr) {
    WarmStartInitialPartitioner initial(*warm, config.k);
    result = run_multilevel(graph, config, coarsener, initial, refiner);
  } else {
    SequentialInitialPartitioner initial(config, rng);
    result = run_multilevel(graph, config, coarsener, initial, refiner);
  }
  if (tracing && sink != nullptr) {
    sink->on_trace(merge_local_trace(recorder, /*rank=*/0, /*num_ranks=*/1));
  }
  return result;
}

PartitionResult run_spmd(const StaticGraph& graph, const Config& config,
                         PERuntime& runtime, const Partition* warm,
                         TraceSink* sink) {
  const int p = runtime.num_pes();
  const bool tracing = trace_run_enabled(config.trace_enabled);
  PartitionResult result;
  std::vector<MigrationIntake> intake(p);
  std::vector<ShardFootprint> footprints(p);
  std::vector<ShardFootprint> hierarchy_memory(p);
  std::vector<ShardFootprint> partition_memory(p);
  std::vector<PairShipStats> pair_ship(p);
  // Populated by the global rank 0 thread iff tracing (empty elsewhere —
  // on a multi-process fabric only the process hosting rank 0 gets it).
  CollectedTrace collected;

  // kappa-watch: boards live in THIS scope, outside the per-rank lambda,
  // because rank q's thread may finish while another rank's sampler is
  // still reading q's board through the in-process registry.
  const WatchOptions watch =
      resolve_watch_options(config.watch_out, config.stall_timeout_ms,
                            config.watch_interval_ms,
                            config.heartbeat_interval_ms);
  std::vector<ProgressBoard> boards(
      watch.enabled() ? static_cast<std::size_t>(p) : 0);
  std::string watch_path = watch.snapshot_path;
  if (!watch_path.empty() && runtime.primary_rank() != 0) {
    // Multi-process fabric, secondary process: keep rank 0's file name for
    // the sampler's stream and give this process's stall reports (the only
    // records it can emit) a sibling file, like the metrics export does.
    watch_path += ".rank" + std::to_string(runtime.primary_rank());
  }
  const std::unique_ptr<WatchSink> watch_sink =
      watch.enabled() ? std::make_unique<WatchSink>(watch_path) : nullptr;

  const std::vector<CommStats> per_pe = runtime.run([&](PEContext& pe) {
    TraceRecorder recorder(tracing ? trace_buffer_capacity() : 1);
    const ThreadTraceScope bind_trace(tracing ? &recorder : nullptr);
    ProgressBoard* board =
        boards.empty() ? nullptr : &boards[static_cast<std::size_t>(pe.rank())];
    const ThreadProgressScope bind_progress(board);
    // Destroyed before the scopes above unwind: the watchdog and sampler
    // threads stop (and the transport's heartbeats with them) while the
    // board and the PE context are still fully alive.
    std::optional<RankWatch> rank_watch;
    if (board != nullptr) {
      progress_phase(ProgressPhase::kIdle);
      rank_watch.emplace(pe, *board, watch, watch_sink.get(),
                         /*run_sampler=*/pe.rank() == 0);
    }
    SpmdCoarsener coarsener(config, pe, warm);
    SpmdRefiner refiner(graph, config, pe, warm);
    PartitionResult local;
    if (warm != nullptr) {
      WarmStartInitialPartitioner initial(*warm, config.k);
      local = run_multilevel_spmd(graph, config, coarsener, initial, refiner);
      // Shard-local migration intake, counted from the refiner's
      // incrementally maintained finest-level store (each block's delta
      // is accounted at its owning rank, with membership read off the
      // store itself).
      intake[pe.rank()] = refiner.migration_intake();
    } else {
      SpmdInitialPartitioner initial(config, pe);
      local = run_multilevel_spmd(graph, config, coarsener, initial, refiner);
    }
    // Peak resident graph data of this rank across both sharded phases,
    // plus the resident hierarchy store (all levels stay sharded) and the
    // sharded partition state.
    ShardFootprint footprint = coarsener.stats().footprint;
    footprint.merge_peak(refiner.footprint());
    footprints[pe.rank()] = footprint;
    hierarchy_memory[pe.rank()] = coarsener.stats().hierarchy_resident;
    partition_memory[pe.rank()] = refiner.partition_footprint();
    pair_ship[pe.rank()] = refiner.ship_stats();
    // Every rank materializes the identical partition; the runtime's
    // primary (lowest locally hosted) rank keeps it — rank 0 in-process,
    // this process's own rank on a multi-process fabric.
    if (pe.rank() == runtime.primary_rank()) result = std::move(local);
    if (tracing) {
      // The partition is already materialized — everything from here on
      // is observation and cannot feed back into it.
      RankSnapshot snapshot;
      snapshot.comm = pe.stats();
      snapshot.comm.wire_bytes_sent = pe.wire_bytes_sent();
      snapshot.comm.wire_bytes_received = pe.wire_bytes_received();
      snapshot.comm.heartbeat_frames_sent = pe.heartbeat_frames_sent();
      snapshot.comm.heartbeat_words_sent = pe.heartbeat_words_sent();
      snapshot.shard_memory = footprints[pe.rank()];
      snapshot.hierarchy_memory = hierarchy_memory[pe.rank()];
      snapshot.partition_memory = partition_memory[pe.rank()];
      snapshot.pair_ship = pair_ship[pe.rank()];
      CollectedTrace mine = collect_trace(pe, recorder, snapshot);
      if (pe.rank() == 0) collected = std::move(mine);
    }
  });

  result.num_pes = p;
  result.comm = total_comm_stats(per_pe);
  result.comm_per_pe = per_pe;
  result.shard_memory_per_pe = std::move(footprints);
  result.hierarchy_memory_per_pe = std::move(hierarchy_memory);
  result.partition_memory_per_pe = std::move(partition_memory);
  result.pair_ship_per_pe = std::move(pair_ship);
  if (warm != nullptr) {
    result.migrated_per_pe.reserve(p);
    result.migrated_edges_per_pe.reserve(p);
    for (const MigrationIntake& i : intake) {
      result.migrated_per_pe.push_back(i.nodes);
      result.migrated_edges_per_pe.push_back(i.edges);
    }
  }
  if (tracing && !collected.ranks.empty()) {
    // Multi-process fabrics only observe their local ranks; the gathered
    // snapshots fill the slots of remotely hosted ranks, so rank 0's
    // result (and any metrics built from it) is as complete as an
    // in-process run's. Locally observed slots stay authoritative.
    for (int q = 0; q < p; ++q) {
      const std::size_t slot = static_cast<std::size_t>(q);
      const CommStats& have = result.comm_per_pe[slot];
      if (have.messages_sent != 0 || have.barriers != 0) continue;
      result.comm_per_pe[slot] = collected.ranks[slot].comm;
      result.shard_memory_per_pe[slot] = collected.ranks[slot].shard_memory;
      result.hierarchy_memory_per_pe[slot] =
          collected.ranks[slot].hierarchy_memory;
      result.partition_memory_per_pe[slot] =
          collected.ranks[slot].partition_memory;
      result.pair_ship_per_pe[slot] = collected.ranks[slot].pair_ship;
    }
    result.comm = total_comm_stats(result.comm_per_pe);
    if (sink != nullptr) sink->on_trace(collected.trace);
  }
  return result;
}

}  // namespace

PartitionResult Partitioner::partition(const StaticGraph& graph) const {
  if (context_.is_spmd()) {
    return run_spmd(graph, context_.config(), *context_.runtime(), nullptr,
                    trace_sink_);
  }
  return run_sequential(graph, context_.config(), nullptr, trace_sink_);
}

PartitionResult Partitioner::repartition(const StaticGraph& graph,
                                         const Partition& current) const {
  assert(current.k() == context_.config().k);
  const EdgeWeight input_cut = edge_cut(graph, current);
  PartitionResult result =
      context_.is_spmd()
          ? run_spmd(graph, context_.config(), *context_.runtime(), &current,
                     trace_sink_)
          : run_sequential(graph, context_.config(), &current, trace_sink_);
  record_migration(graph, current, input_cut, result);
  return result;
}

}  // namespace kappa
