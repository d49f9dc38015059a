/// \file watch.hpp
/// \brief kappa-watch: live run health — the per-rank stall watchdog and
/// the streaming snapshot sampler over the ProgressBoard / heartbeat
/// substrate (util/progress.hpp, the transport watch hooks).
///
/// kappa-trace (trace_merge.hpp) explains a run after it ends; this layer
/// answers the operator's question *while the run is in flight*: is every
/// rank moving, and if not, which rank is slow, which is stalled, and
/// which is dead? Three verdicts with three distinct evidence sources:
///
///   dead    — the transport saw the peer's connection die without the
///             shutdown handshake (PR 7's dead-peer deadline); pending
///             receives also fail with TransportError.
///   stalled — the connection is up but the peer's progress word has not
///             advanced within the stall timeout. This is what a
///             SIGSTOP'd or wedged rank looks like: heartbeats stop (or
///             repeat an unchanged advance counter) while the socket
///             stays open.
///   alive   — progress evidence within the timeout.
///
/// Everything here is observer-only: RankWatch reads atomics and
/// transport introspection (queue depths, peer health) through PEContext
/// and writes JSONL + stderr; it never sends on an algorithm lane and
/// never feeds anything back, so the partition is byte-identical with
/// watch on or off.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "parallel/pe_runtime.hpp"
#include "util/progress.hpp"

namespace kappa {

/// Knobs of the watch layer, after environment resolution.
struct WatchOptions {
  /// JSONL snapshot/stall-report path (--watch-out). Empty: no sampler;
  /// stall reports fall back to stderr.
  std::string snapshot_path;
  /// Stall watchdog timeout (--stall-timeout-ms); 0 disables the watchdog.
  int stall_timeout_ms = 0;
  /// Snapshot cadence of the rank-0 sampler.
  int sample_interval_ms = 250;
  /// Heartbeat cadence on multi-process transports.
  int heartbeat_interval_ms = 100;

  [[nodiscard]] bool enabled() const {
    return !snapshot_path.empty() || stall_timeout_ms > 0;
  }
};

/// Applies the environment overrides to the Config-level knobs:
/// KAPPA_WATCH_OUT and KAPPA_STALL_TIMEOUT_MS override the arguments,
/// KAPPA_WATCH_INTERVAL_MS / KAPPA_HEARTBEAT_INTERVAL_MS tune the
/// cadences. Mirrors trace_run_enabled()'s config-or-environment rule.
[[nodiscard]] WatchOptions resolve_watch_options(
    const std::string& snapshot_path, int stall_timeout_ms,
    int sample_interval_ms = 250, int heartbeat_interval_ms = 100);

/// Thread-safe JSONL appender shared by one process's RankWatch
/// instances. Opens the file lazily on the first record, so a rank whose
/// watch never has anything to say (no sampler, no stalls) leaves no
/// file behind. With an empty path, records go to stderr.
class WatchSink {
 public:
  explicit WatchSink(std::string path) : path_(std::move(path)) {}

  /// Appends one JSON record (no trailing newline in \p json_line) and
  /// flushes, so a reader tailing the file — or a post-mortem after a
  /// kill — always sees complete lines.
  void append(const std::string& json_line);

 private:
  std::mutex mutex_;
  std::string path_;
  std::ofstream out_;
  bool opened_ = false;
};

/// One rank's live-health observer: a watchdog thread that emits a
/// structured stall report when the rank's own board stops advancing for
/// stall_timeout_ms, and — on the sampling rank only — a sampler thread
/// streaming `kappa.snapshot.v1` records to the sink. Construction
/// enables the transport's watch hooks (heartbeats); destruction joins
/// both threads, emits the sampler's final snapshot, and disables the
/// hooks again. \p board and \p sink must outlive this object.
class RankWatch {
 public:
  RankWatch(PEContext& pe, const ProgressBoard& board, WatchOptions options,
            WatchSink* sink, bool run_sampler);
  ~RankWatch();
  RankWatch(const RankWatch&) = delete;
  RankWatch& operator=(const RankWatch&) = delete;

  /// Stall reports emitted so far (0 on a healthy run).
  [[nodiscard]] std::uint64_t stall_reports() const {
    return stall_reports_.load(std::memory_order_relaxed);
  }

 private:
  /// Joins the watchdog and sampler threads (whichever run) and disables
  /// the transport's watch hooks.
  void stop();
  void watchdog_loop();
  void sampler_loop();
  void emit_stall_report(const ProgressSnapshot& snap, std::uint64_t now_ns,
                         std::uint64_t stalled_ns);
  void emit_snapshot(std::uint64_t seq);
  [[nodiscard]] std::string rank_table_json(std::uint64_t now_ns) const;

  PEContext& pe_;
  const ProgressBoard& board_;
  WatchOptions options_;
  WatchSink* sink_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  ///< guarded by mutex_
  std::atomic<std::uint64_t> stall_reports_{0};
  std::thread watchdog_;
  std::thread sampler_;

  // Sampler delta baselines (sampler thread only).
  std::uint64_t prev_wire_sent_ = 0;
  std::uint64_t prev_wire_received_ = 0;
  std::uint64_t prev_hb_frames_ = 0;
  std::uint64_t prev_hb_words_ = 0;
  std::uint64_t prev_pairs_ = 0;
  std::uint64_t prev_advances_ = 0;
};

}  // namespace kappa
