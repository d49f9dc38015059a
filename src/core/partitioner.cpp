/// \file partitioner.cpp
/// \brief The unified entry point: both workloads (from-scratch and
/// warm-started) in both execution contexts — sequential through
/// run_multilevel(), SPMD through run_multilevel_spmd().
#include "core/partitioner.hpp"

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/phases.hpp"
#include "graph/metrics.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/spmd_phases.hpp"
#include "parallel/trace_merge.hpp"
#include "parallel/watch.hpp"
#include "util/progress.hpp"
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
  PartitionResult result = run_multilevel(graph, config, warm);
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
  // Filled by the global rank 0 thread iff tracing (empty elsewhere — on
  // a multi-process fabric only the process hosting rank 0 gets it).
  MergedTrace trace;

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

  (void)runtime.run([&](PEContext& pe) {
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
    PartitionResult local = run_multilevel_spmd(graph, config, pe, warm);
    // The partition is materialized: the counters stop here, and the
    // record gather and trace collection below are observation that can
    // neither be counted nor feed back into the partition.
    const std::vector<std::vector<std::uint64_t>> records =
        pe.all_gather_vectors(encode_counters(pe.counters()));
    // Every rank materializes the identical partition and gathers the
    // identical records; the runtime's primary (lowest locally hosted)
    // rank keeps them — rank 0 in-process, this process's own rank on a
    // multi-process fabric.
    if (pe.rank() == runtime.primary_rank()) {
      result = std::move(local);
      for (const std::vector<std::uint64_t>& words : records) {
        result.counters_per_pe.push_back(decode_counters(words));
      }
    }
    if (tracing) {
      MergedTrace merged = collect_trace(pe, recorder);
      if (pe.rank() == 0) trace = std::move(merged);
    }
  });

  result.num_pes = p;
  for (const RankCounters& counters : result.counters_per_pe) {
    result.comm_per_pe.push_back(counters.comm);
    result.shard_memory_per_pe.push_back(counters.shard_memory);
    result.hierarchy_memory_per_pe.push_back(counters.hierarchy_memory);
    result.partition_memory_per_pe.push_back(counters.partition_memory);
    result.pair_ship_per_pe.push_back(counters.pair_ship);
    if (warm != nullptr) {
      result.migrated_per_pe.push_back(
          static_cast<NodeID>(counters.migration.nodes));
      result.migrated_edges_per_pe.push_back(
          static_cast<std::size_t>(counters.migration.edges));
    }
  }
  result.comm = fold_counters(result.counters_per_pe).comm;
  if (sink != nullptr && trace.num_ranks > 0) sink->on_trace(trace);
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
  if (current.k() != context_.config().k) {
    throw std::invalid_argument(
        "repartition: the current partition has " +
        std::to_string(current.k()) + " blocks, the config asks for k = " +
        std::to_string(context_.config().k));
  }
  if (current.num_nodes() != graph.num_nodes()) {
    throw std::invalid_argument(
        "repartition: the current partition covers " +
        std::to_string(current.num_nodes()) + " nodes, the graph has " +
        std::to_string(graph.num_nodes()));
  }
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
