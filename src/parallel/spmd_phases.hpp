/// \file spmd_phases.hpp
/// \brief The SPMD pipeline (§3-§5) and its driver.
///
/// Every PE of the runtime calls run_multilevel_spmd() with identical
/// arguments; the phases synchronize internally. The graph *data* is
/// sharded end to end: every coarsening level exists only as per-PE
/// shards of the distributed hierarchy store (parallel/dist_hierarchy.hpp),
/// and the partition *state* is sharded too (parallel/dist_partition.hpp)
/// — each rank holds block ids only for its shard-owned nodes plus a
/// ghost-block cache maintained by the moved-node deltas. The driver calls
/// the phases directly:
///
///   DistHierarchy          — shard-local matching with gap resolution
///     over peer channels, owner-computes contraction with halo exchange
///     of boundary match decisions and coarse-edge contributions (§3.3).
///     No contraction map and no level graph is ever gathered.
///   spmd_initial_partition — best-of-p on the once-gathered coarsest
///     graph: the attempts (each with a private RNG stream) are
///     distributed over the PEs, an all-reduce picks the winner and the
///     owning PE broadcasts the partition (§4). Warm starts use the
///     store's coarsest_warm_assignment() instead.
///   SpmdRefiner            — per level, the rows travel from their shard
///     owners to the owners of their nodes' blocks (§5.2 BlockRowShard
///     data distribution, each row with its block word); the quotient
///     graph is merged from per-rank contributions. The pairs run in the
///     §5.1 schedule: rounds follow an edge coloring of the quotient,
///     which every rank computes itself with color_quotient_edges() on
///     the merged quotient it holds, from the same seed — no message is
///     sent, and every rank knows every pair of every class. Within a
///     class, pair_executors() gives each pair {a, b} to the owner of a
///     or of b, balancing the ranks' boundary load. Both blocks' owners
///     run the bounded boundary-band BFS on their resident rows, and the
///     pair search is confined to the union of the two bands, with exact
///     gains. Partner-block shipping is band-limited (§5.2): when the
///     other block lives on another rank, its owner ships only its band
///     plus a one-hop fringe of frozen context nodes, and migration
///     volume drops from |block| to |band| per pair. Every pair runs on
///     one model (parallel/resident_pair.hpp): the executor gathers the
///     rows of both bands once — its own from the resident store, the
///     partner's from the shipped side — over its partition-state
///     slots, and the pair kernel runs on them. At p = 1 every pair is
///     fully resident. Moved-node
///     deltas (with entry block and weight) plus migrating rows are
///     exchanged after every color class; every rank applies every
///     delta, which keeps the sharded partition state and the replicated
///     O(k) block weights globally consistent.
///
///     The rebalancing insurance loop runs through the same machinery on
///     the retained finest-level store, from which warm starts also count
///     each rank's §5.2 migration intake.
///
/// Determinism: all work units are keyed to *virtual* ids — shards, attempt
/// indices, quotient-edge indices — and their RNG streams are forked from
/// config.seed with those ids; every pair's rows, and so its search, are
/// a pure function of the globally consistent store + partition state.
/// The physical PE count p only decides which PE executes which
/// unit, so a fixed seed yields the
/// identical partition for every p (verified by spmd_pipeline_test and
/// dist_partition_test, p = 1..9 incl. ragged p and p > k). Every receive
/// names its source, and delivery is FIFO per (source, lane) only, so the
/// arrival order across sources cannot reach the partition either
/// (pair_path_test replays a run under randomly delayed sends): the
/// partition is a pure function of (graph, config, seed) for every p and
/// every transport backend.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/phases.hpp"
#include "graph/quotient_graph.hpp"
#include "parallel/dist_hierarchy.hpp"
#include "parallel/dist_partition.hpp"
#include "parallel/pair_side.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/resident_pair.hpp"
#include "parallel/shard_graph.hpp"
#include "refinement/pairwise_refiner.hpp"

namespace kappa {

/// Distributed quotient-graph construction (§5.1 on sharded data): every
/// rank contributes the cut arcs its resident block rows see — target
/// blocks answered by the sharded partition state's ghost-block cache —
/// and the all-gathered contributions are merged identically on every PE:
/// same edge order (first-encounter order of a row scan), same cut
/// weights, same sorted boundary lists. \p store must be bound to
/// \p partition's slots (BlockRowShard::bind_slots). Exposed for the
/// shard-graph test suite.
[[nodiscard]] QuotientGraph gather_quotient(const BlockRowShard& store,
                                            const DistPartition& partition,
                                            BlockID k, PEContext& pe);

/// Scratch of the refiner's pair path, indexed by partition-state slot:
/// the rows dirtied since the iteration's quotient was taken (the
/// incremental seed state), the band BFS stamps and the side's indices,
/// and the executed pair's rows and seeds.
struct PairPathState {
  std::vector<NodeID> dirty;         ///< each dirty slot once
  std::vector<char> is_dirty;        ///< by slot
  std::size_t journal_seen = 0;      ///< journal prefix folded into dirty
  std::vector<std::uint32_t> stamp;  ///< by slot: band / fringe epochs
  std::vector<NodeID> index;  ///< by stamped slot: band / fringe index
  std::uint32_t epoch = 0;
  std::vector<NodeID> band;  ///< slots of the last side: seeds first
  std::size_t num_seeds = 0;  ///< band prefix that seeded the BFS
  std::vector<NodeID> frontier;
  std::vector<NodeID> next;
  std::vector<std::pair<NodeID, NodeID>> order;  ///< (global, slot)
  std::vector<NodeID> fringe;  ///< global ids, in discovery order
  // The executed pair:
  PairRows rows;              ///< the rows of both side bands
  std::vector<NodeID> seeds;  ///< the quotient's boundary list as slots
};

/// Restarts the incremental seed state at the moment a quotient graph is
/// taken: clears \p partition's change journal and the dirty set, so the
/// quotient's boundary lists plus the rows dirtied from here on describe
/// every current pair boundary.
void restart_pair_path(PairPathState& state, DistPartition& partition);

/// Builds block \p side's half of the pair \p edge at the side's owner
/// (§5.2 band shipping): the BFS of depth \p ship_depth from the exact
/// current seeds — the quotient edge's boundary nodes still in this side
/// plus the rows dirtied since restart_pair_path() that are pair boundary
/// now — plus the one-hop same-side fringe. No block is scanned.
/// \p store must be bound to \p partition's slots. Exposed for the
/// pair-path test suite, which checks it against a whole-block scan.
[[nodiscard]] PairSide build_pair_side(const BlockRowShard& store,
                                       const DistPartition& partition,
                                       const QuotientEdge& edge, BlockID side,
                                       int ship_depth, PairPathState& state);

/// A pair as its executor ran it, for the observer: the seed tag of its
/// search and its outcome, with moves in partition slots.
struct ExecutedPair {
  std::uint64_t seed_tag = 0;
  const PairRefineResult& result;
};

/// One pair side as the refiner built it, handed to a test observer
/// (passed to run_multilevel_spmd) — enough state to recompute the side
/// from a whole-block scan and compare. Every side is reported with the
/// partition state of the pair's start: a shipped side right after its
/// build, with its encoding; at the executor, the band of the other block
/// when it owns both right after its build, and the band of its own
/// block after the pair ran — restored, the partner's attached ids still
/// held — with the executed pair.
struct PairSideProbe {
  const BlockRowShard& store;
  const DistPartition& partition;
  const QuotientEdge& edge;
  BlockID side = 0;
  int depth = 0;                       ///< band depth
  std::span<const NodeID> seed_slots;  ///< BFS seeds (partition slots)
  std::span<const NodeID> band_slots;  ///< the whole band, seeds first
  const PairSide* built = nullptr;     ///< shipped side; null at executor
  const ExecutedPair* executed = nullptr;  ///< the run, once per pair
};
using PairSideObserver = std::function<void(const PairSideProbe&)>;

/// Initial partitioning on the gathered coarsest graph (§4): the attempt
/// pool, keyed by attempt index and spread over the PEs, with an
/// all-reduced winner that its PE broadcasts. Every PE returns the same
/// partition, independent of p.
[[nodiscard]] Partition spmd_initial_partition(const StaticGraph& coarsest,
                                               const Config& config,
                                               PEContext& pe);

/// The rank whose all-gathered attempt entry (infeasible, cut, attempt)
/// is the lexicographic minimum — the initial partitioning winner. An
/// entry of another length than three words raises TransportError.
[[nodiscard]] int attempt_winner(
    const std::vector<std::vector<std::uint64_t>>& entries);

/// The executor rank of each pair of one color class (\p pairs indexes
/// \p quotient's edges): the class's pairs are taken by decreasing
/// boundary size, ties in class order, and each goes to the one of its
/// two block owners with the smaller running boundary load, ties to block
/// a's owner. A pair whose blocks share an owner goes to that owner. A
/// pure function of the quotient, the class and p, so every rank derives
/// the same executors without a message. Parallel to \p pairs.
[[nodiscard]] std::vector<int> pair_executors(
    const QuotientGraph& quotient, std::span<const std::size_t> pairs, int p);

class SpmdRefiner {
 public:
  /// \p warm is the repartitioning input assignment (nullptr on
  /// from-scratch runs); it anchors the migration view. The refiner
  /// counts its §5.2 shipping volume (band vs. whole block) and the peak
  /// resident block-row store (partner-band intake as ghosts) and
  /// partition state into \p pe's record. \p observer (a test hook, may
  /// be empty) sees every pair side this rank builds.
  SpmdRefiner(const StaticGraph& finest, const Config& config, PEContext& pe,
              const Partition* warm, PairSideObserver observer);

  /// Refines the sharded \p partition on hierarchy level \p level in
  /// place. The level's rows are distributed into this rank's block-row
  /// store and the partition state's ghost-block cache is refreshed for
  /// the resident rows' targets; the finest level's store is retained for
  /// rebalance() and the migration view.
  void refine(const DistHierarchy& hierarchy, std::size_t level,
              DistPartition& partition);

  /// Post-pass on the finest level: the §5.2 exception rule applied until
  /// the Lmax bound holds (or attempts run out), running through the same
  /// distributed color-class machinery as refine() on the retained
  /// finest-level store. Warm starts then count this rank's §5.2
  /// migration intake into the PE's record.
  void rebalance(DistPartition& partition);

 private:
  /// Warm starts only: this rank's §5.2 migration intake, counted from
  /// the incrementally maintained finest-level store — the members of its
  /// blocks whose warm-input block differs, and their row arcs to resident
  /// rows. Block membership is read exclusively from the store (a member
  /// of block b is in block b — no partition replica is consulted); the
  /// warm input assignment is the resident-by-contract API input.
  [[nodiscard]] MigrationIntake migration_intake() const;

  /// One pairwise_refine()-shaped run on the distributed store: global
  /// iterations over the merged quotient, each run as color classes, with
  /// the stop rule on the all-reduced iteration gains. The outcome mirrors
  /// the replicated implementation's loop, RNG forks and stop rules
  /// exactly — a pure function of (store content, partition state,
  /// options, rng), independent of p.
  void run_pairwise(BlockRowShard& store, DistPartition& partition,
                    const PairwiseRefinerOptions& options, const Rng& base_rng);

  /// Takes the iteration's quotient graph and restarts the incremental
  /// seed state: the journal is cleared at exactly the state the
  /// quotient's boundary lists describe.
  [[nodiscard]] QuotientGraph take_quotient(const BlockRowShard& store,
                                            DistPartition& partition);

  /// Hands the side band last built in the pair-path state to the
  /// observer, if one is set.
  void report_side(const BlockRowShard& store, const DistPartition& partition,
                   const QuotientEdge& edge, BlockID side, int depth,
                   const PairSide* built, const ExecutedPair* executed);

  /// Runs \p edge at this rank, which owns one or both of its blocks:
  /// the bands of the owned blocks (build_pair_side()'s seed rule) and
  /// the \p partner side, shipped when this rank owns one block only,
  /// give the pair's rows; the quotient's boundary list seeds the search.
  /// Appends the pair's moved-node deltas to \p delta_words and leaves
  /// the partition state as it found it, attached ids dropped.
  [[nodiscard]] PairRefineResult run_pair(
      const BlockRowShard& store, DistPartition& partition,
      const QuotientEdge& edge, const PairSide* partner,
      const PairwiseRefinerOptions& options, const Rng& base_rng,
      std::uint64_t seed_tag, std::vector<std::uint64_t>& delta_words);

  /// One iteration: color classes as global rounds, each pair run at
  /// the owner pair_executors() picks, with the other side shipped at
  /// band depth options.bfs_depth when another rank owns it — then the
  /// moved-node delta all-gather and row migration after every class.
  /// The classes come from color_quotient_edges() on \p quotient, which
  /// every rank computes alike.
  void run_color_classes(BlockRowShard& store, DistPartition& partition,
                         const PairwiseRefinerOptions& options,
                         const Rng& base_rng, const QuotientGraph& quotient,
                         int global, EdgeWeight& my_cut_gain,
                         NodeWeight& my_imbalance_gain);

  const StaticGraph& finest_;
  const Config& config_;
  PEContext& pe_;
  Rng rng_;
  NodeWeight global_bound_;
  const Partition* warm_;
  PairPathState pair_state_;
  PairSideObserver observer_;
  /// The finest level's store, retained after refine(level 0) for the
  /// rebalancing insurance loop and the migration view.
  std::optional<BlockRowShard> finest_store_;
};

/// The SPMD twin of run_multilevel(): coarsen into the distributed
/// hierarchy store, initial-partition the once-gathered coarsest graph
/// (or, with a non-null \p warm, project the repartitioning input onto
/// it), then project and refine level by level through the sharded
/// contraction maps and the sharded partition state, and run the
/// distributed rebalancing insurance. The full assignment is materialized
/// exactly once, for the returned PartitionResult. Every PE calls this
/// with identical arguments; \p observer is the refiner's test hook.
[[nodiscard]] PartitionResult run_multilevel_spmd(
    const StaticGraph& graph, const Config& config, PEContext& pe,
    const Partition* warm = nullptr, PairSideObserver observer = {});

}  // namespace kappa
