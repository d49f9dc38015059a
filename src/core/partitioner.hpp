/// \file partitioner.hpp
/// \brief The unified partitioner API: one context-based entry point for
/// from-scratch partitioning, repartitioning, and SPMD runs.
///
/// A Context fixes *how* a run executes — in-process on one thread of
/// control (Context::sequential) or SPMD on a PE runtime (Context::spmd)
/// — and a Partitioner exposes *what* runs: partition() builds a k-way
/// partition from scratch, repartition() improves an existing assignment
/// (§8: repartitioning of adaptive meshes as the natural generalization of
/// the multilevel pipeline). Each context has its own driver —
/// run_multilevel() (core/phases.hpp) and run_multilevel_spmd()
/// (parallel/spmd_phases.hpp) — and both warm-start from the current
/// assignment: block-respecting contraction, the assignment projected to
/// the coarsest level in place of initial partitioning, then the ordinary
/// refinement phase — sequential or shard-local with moved-node delta
/// exchange.
///
/// Every run returns one PartitionResult; fields that a particular
/// workload does not produce stay at their zero defaults (e.g. the SPMD
/// counters of a sequential run, or migrated_nodes of a from-scratch run).
///
/// This Context/Partitioner surface is the only entry point; the former
/// free functions (kappa_partition, kappa_partition_parallel,
/// repartition) completed their deprecation cycle and were removed — see
/// the migration table in README.md.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "graph/partition.hpp"
#include "graph/static_graph.hpp"
#include "parallel/comm_stats.hpp"
#include "util/trace.hpp"
#include "util/types.hpp"

namespace kappa {

class PERuntime;

/// Result of one partitioning or repartitioning run with phase statistics.
struct PartitionResult {
  Partition partition;
  EdgeWeight cut = 0;
  double balance = 1.0;   ///< max block weight / average block weight
  bool balanced = false;  ///< obeys the Lmax bound

  // Repartitioning (zero on from-scratch runs).
  EdgeWeight initial_cut = 0;  ///< cut of the input partition
  NodeID migrated_nodes = 0;   ///< nodes whose block changed vs. the input
  /// SPMD repartitioning only: nodes migrated *into* the blocks owned by
  /// each rank (blocks are owned round-robin, block b -> rank b mod p).
  /// Sums to migrated_nodes. Copied from counters_per_pe[q].migration.
  std::vector<NodeID> migrated_per_pe;
  /// SPMD repartitioning only: adjacency entries each rank receives with
  /// its migrated nodes — the §5.2 overlay-edge volume of the data
  /// migration, indexed like migrated_per_pe.
  std::vector<std::size_t> migrated_edges_per_pe;

  // Phase breakdown (seconds).
  double coarsening_time = 0.0;
  double initial_time = 0.0;
  double refinement_time = 0.0;
  double total_time = 0.0;

  std::size_t hierarchy_levels = 0;
  NodeID coarsest_nodes = 0;
  /// Node count of every hierarchy level, finest first (the replicated
  /// per-rank baseline an old-style SPMD run would hold is the sum of
  /// these).
  std::vector<NodeID> hierarchy_level_nodes;

  // SPMD run shape (zero/empty on sequential runs).
  int num_pes = 0;  ///< PEs of the runtime that ran this
  /// Every rank's counter record, indexed by rank — the same gathered
  /// records on every process of the run, counted up to materialization.
  /// The per-part vectors below are copies of these records' parts.
  std::vector<RankCounters> counters_per_pe;
  /// Aggregate communication volume: the fold of the records' comm parts.
  CommStats comm;
  std::vector<CommStats> comm_per_pe;  ///< per-PE counters, indexed by rank
  /// Peak resident footprint of any single data-sharded graph structure
  /// per rank (one level's §3.3 owned+ghost CSR, the §5.2 block-row
  /// store with its transient pair intake, or the once-gathered coarsest
  /// replica), indexed by rank. With p >= 2 each rank's resident node
  /// count stays near n/p plus its one-hop halo — strictly below n —
  /// instead of the replicated O(n).
  std::vector<ShardFootprint> shard_memory_per_pe;
  /// Resident size of the whole distributed hierarchy store per rank:
  /// the sum of the per-level owned+ghost footprints,
  /// Σ_levels (n_level / p + halo). The replicated design this store
  /// replaces held Σ_levels n_level on *every* rank (the sum of
  /// hierarchy_level_nodes); the ratio is the memory payoff of
  /// shard-owned contraction, tabulated in EXPERIMENTS.md.
  std::vector<ShardFootprint> hierarchy_memory_per_pe;
  /// Peak resident partition state per rank (parallel/dist_partition.hpp):
  /// owned_nodes = block ids of the rank's shard-owned nodes (n_l / p),
  /// ghost_nodes = ghost-block cache entries (block members + resident-row
  /// targets). The replicated design held the full O(n_l) assignment on
  /// every rank; with the sharded store the per-rank resident share drops
  /// sub-linearly, tabulated in EXPERIMENTS.md.
  std::vector<ShardFootprint> partition_memory_per_pe;
  /// §5.2 pair-shipping volume per rank: what the refiner's partner-side
  /// band shipments put on the wire against the whole-block volume the
  /// same pairs would have needed (a counterfactual; nothing ships it).
  std::vector<PairShipStats> pair_ship_per_pe;
};

/// Execution context of a Partitioner: the configuration plus where the
/// pipeline runs. Construct with one of the factories; the config is
/// copied, the runtime (if any) is borrowed and must outlive the context.
class Context {
 public:
  /// Runs the sequential pipeline in-process, on the calling thread.
  [[nodiscard]] static Context sequential(Config config) {
    return Context(config, nullptr);
  }

  /// Runs the pipeline SPMD on \p runtime: every PE executes every phase
  /// on its replica, synchronizing through messages and collectives, as
  /// in the paper's MPI implementation. Deterministic and p-invariant:
  /// with a fixed config.seed the result is identical for every runtime
  /// size p (work is keyed to virtual shards, not physical PEs). A
  /// runtime whose run failed is spent: an in-process runtime throws
  /// TransportError at the first receive or barrier of its next run, so
  /// partition again on a new runtime.
  [[nodiscard]] static Context spmd(Config config, PERuntime& runtime) {
    return Context(config, &runtime);
  }

  [[nodiscard]] const Config& config() const { return config_; }

  /// The SPMD runtime, or nullptr for a sequential context.
  [[nodiscard]] PERuntime* runtime() const { return runtime_; }

  [[nodiscard]] bool is_spmd() const { return runtime_ != nullptr; }

 private:
  Context(const Config& config, PERuntime* runtime)
      : config_(config), runtime_(runtime) {}

  Config config_;
  PERuntime* runtime_;
};

/// Facade over the multilevel pipeline: one object, every workload.
///
///   Partitioner partitioner(Context::sequential(config));
///   PartitionResult fresh = partitioner.partition(graph);
///   ... the mesh adapts, the assignment degrades ...
///   PartitionResult next = partitioner.repartition(graph, fresh.partition);
class Partitioner {
 public:
  explicit Partitioner(const Context& context) : context_(context) {}

  [[nodiscard]] const Context& context() const { return context_; }

  /// Registers a consumer for the merged per-rank trace of subsequent
  /// runs (borrowed; must outlive the runs). Fires only when tracing is
  /// on (config.trace_enabled or KAPPA_TRACE), after the result is
  /// assembled, on the process that hosts global rank 0 — exactly once
  /// per run there, never elsewhere. Sequential runs produce a one-rank
  /// trace. Tracing is observer-only: the partition is byte-identical
  /// with or without a sink.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

  [[nodiscard]] TraceSink* trace_sink() const { return trace_sink_; }

  /// Partitions \p graph into context().config().k blocks from scratch:
  /// contraction, initial partitioning, uncoarsening with refinement.
  [[nodiscard]] PartitionResult partition(const StaticGraph& graph) const;

  /// Improves \p current with the warm-started pipeline: contraction only
  /// matches nodes of the same current block (so the assignment projects
  /// exactly onto every level), the coarsest partition is the projected
  /// assignment, and refinement proceeds as usual. The cut improves,
  /// feasibility is restored, and — the point of the exercise — far fewer
  /// nodes migrate than under a from-scratch run. Throws
  /// std::invalid_argument, before any work, unless \p current has
  /// config.k blocks and one entry per node of \p graph.
  [[nodiscard]] PartitionResult repartition(const StaticGraph& graph,
                                            const Partition& current) const;

 private:
  Context context_;
  TraceSink* trace_sink_ = nullptr;
};

}  // namespace kappa
