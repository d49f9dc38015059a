/// \file config.hpp
/// \brief KaPPa configuration and the minimal/fast/strong presets (Table 2).
///
/// Table 2 settings that every preset shares are constants, not fields:
/// contraction stops at alpha = 60 (kContractionStopAlpha in
/// coarsening/hierarchy.hpp), and the two-phase matching runs on k
/// shards, the paper's one PE per block (coarsening_options() in
/// core/phases.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "matching/matchers.hpp"
#include "refinement/twoway_fm.hpp"
#include "util/types.hpp"

namespace kappa {

/// The three main strategies of Table 2 ("there is also a minimal variant
/// where for all parameters the smallest possible value is chosen").
enum class Preset { kMinimal, kFast, kStrong };

/// Human-readable preset name.
[[nodiscard]] const char* preset_name(Preset preset);

/// All knobs of the partitioner. Defaults equal the fast preset.
///
/// Determinism: for every Config, the SPMD partition is a pure function of
/// (graph, config, seed), identical for every PE count p and every
/// transport backend. The refiner runs the §5.1 color-class schedule,
/// every receive names its source, and delivery is FIFO per (source,
/// lane), so neither thread timing nor the arrival order of messages
/// from different ranks can reach the partition.
struct Config {
  BlockID k = 2;         ///< number of blocks (= PEs, as in the paper)
  double eps = 0.03;     ///< allowed imbalance (paper default 3%)
  std::uint64_t seed = 1;

  // --- Contraction (§3, Table 2 rows 1-3). ---
  EdgeRating rating = EdgeRating::kExpansionStar2;
  MatcherAlgo matcher = MatcherAlgo::kGPA;

  // --- Initial partitioning (§4, Table 2 row "init. repeats"). ---
  int init_repeats = 3;

  // --- Refinement (§5, Table 2 rows 6-12). ---
  QueueSelection queue_selection = QueueSelection::kTopGain;
  /// Depth of the boundary-band BFS that confines each pair search (§5.2).
  /// The SPMD refiner's partner owner ships this band plus a one-hop
  /// fringe of frozen context nodes, never the whole block.
  int bfs_depth = 5;
  /// Stop after this many consecutive global iterations without
  /// improvement (fast: 1 "no change", strong: 2 "2x no change").
  int stop_no_change = 1;
  int max_global_iterations = 15;
  int local_iterations = 3;
  /// FM patience alpha (Table 2: 1% / 5% / 20%; Walshaw mode 30%).
  double fm_alpha = 0.05;
  /// Refine each pair with two seeds and adopt the better result (§5);
  /// in the MPI original this is free because both PEs of a pair work.
  bool duplicate_search = true;
  /// Observability: record per-rank spans (phases, per-level halo,
  /// color classes, pair refinement, transport) into a preallocated
  /// buffer and merge them on the primary rank after the run — see
  /// util/trace.hpp and Partitioner::set_trace_sink(). Also switchable
  /// per run with the KAPPA_TRACE environment variable. Observer-only:
  /// the partition is byte-identical with tracing on or off.
  bool trace_enabled = false;
  /// Observability: kappa-watch live health. `watch_out` streams
  /// `kappa.snapshot.v1` JSONL snapshots (metrics deltas + per-rank
  /// progress) to the given path; `stall_timeout_ms > 0` arms a per-rank
  /// watchdog that emits a structured stall report when a rank stops
  /// advancing. Both also switchable per run with KAPPA_WATCH_OUT /
  /// KAPPA_STALL_TIMEOUT_MS (see parallel/watch.hpp). Observer-only like
  /// tracing: the partition is byte-identical with watch on or off.
  std::string watch_out;
  int stall_timeout_ms = 0;
  /// Snapshot cadence of the sampler and heartbeat cadence of the TCP
  /// transport's liveness lane (KAPPA_WATCH_INTERVAL_MS /
  /// KAPPA_HEARTBEAT_INTERVAL_MS override).
  int watch_interval_ms = 250;
  int heartbeat_interval_ms = 100;

  /// The Table 2 preset for a given k and eps.
  [[nodiscard]] static Config preset(Preset preset, BlockID k,
                                     double eps = 0.03);

  /// The further-strengthened strong configuration used for the Walshaw
  /// benchmark (§6.3): BFS depth 20, FM patience 30%. The rating is left
  /// to the caller, which tries innerOuter / expansion* / expansion*2.
  [[nodiscard]] static Config walshaw(BlockID k, double eps,
                                      EdgeRating rating);
};

}  // namespace kappa
