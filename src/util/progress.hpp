/// \file progress.hpp
/// \brief Per-rank progress boards: the data plane of kappa-watch.
///
/// A ProgressBoard is one rank's always-current answer to "where are you
/// and when did you last move?" — a handful of atomics the rank's own
/// thread updates at the span boundaries kappa-trace already instruments
/// (phase id, coarsening/refinement level, refinement iteration, pairs
/// executed, last-advance timestamp via trace_now_ns()), plus a bounded
/// open-span stack and a last-N event ring so a stall report can name
/// *what* the rank was inside when it stopped moving.
///
/// Ownership and thread model mirror the trace recorder: exactly one
/// writer (the rank thread, bound via ThreadProgressScope), any number of
/// lock-free readers (the watchdog and sampler threads, and — through the
/// transport's heartbeat lane or the in-process board registry — every
/// peer). All cross-thread state is std::atomic; readers may observe a
/// board mid-update, which costs them a momentarily inconsistent *view*,
/// never a data race and never back-pressure on the rank thread.
///
/// Like tracing, the whole layer is observer-only: when no board is bound
/// to the current thread every publication site is one thread-local load
/// and a branch, and a watched run produces the byte-identical partition
/// of an unwatched one.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace kappa {

/// Coarse phase of the multilevel pipeline a rank is executing. Published
/// by the SPMD driver (spmd_phases.cpp); kIdle before the pipeline
/// starts, kDone after materialization.
enum class ProgressPhase : std::uint8_t {
  kIdle = 0,
  kCoarsen = 1,
  kInitial = 2,
  kRefine = 3,
  kRebalance = 4,
  kMaterialize = 5,
  kDone = 6,
};

/// Stable lower-case name for JSON snapshots ("idle", "coarsen", ...).
[[nodiscard]] const char* progress_phase_name(ProgressPhase phase);

/// One coherent reading of a board — the progress word peers exchange
/// over the heartbeat lane.
struct ProgressSnapshot {
  ProgressPhase phase = ProgressPhase::kIdle;
  std::uint32_t level = 0;          ///< current multilevel hierarchy level
  std::uint32_t iteration = 0;      ///< current refinement iteration
  std::uint64_t pairs_executed = 0; ///< pairwise refinements run so far
  std::uint64_t advances = 0;       ///< monotone count of all publications
  std::uint64_t last_advance_ns = 0; ///< trace_now_ns() of the newest one
};

/// One rank's progress board. Writer: the rank thread only. Readers: any.
class ProgressBoard {
 public:
  static constexpr std::size_t kMaxSpanDepth = 16;
  static constexpr std::size_t kRecentEvents = 16;
  /// Packed wire size of a snapshot (see pack()/unpack()).
  static constexpr std::size_t kWireWords = 4;

  // --- writer side (owner thread) ---------------------------------------
  void set_phase(ProgressPhase phase, std::uint64_t now_ns);
  void set_level(std::uint32_t level, std::uint64_t now_ns);
  void set_iteration(std::uint32_t iteration, std::uint64_t now_ns);
  void count_pair(std::uint64_t now_ns);
  /// Pushes \p name (a string literal, like trace names) onto the open-span
  /// stack and notes it in the recent-event ring. Depth beyond
  /// kMaxSpanDepth is counted but not stored.
  void push_span(const char* name, std::uint64_t now_ns);
  void pop_span(std::uint64_t now_ns);
  /// Bumps the advance counter without changing any field — "still alive,
  /// still moving" evidence from sites with nothing structured to report.
  void touch(std::uint64_t now_ns);

  // --- reader side (any thread) ------------------------------------------
  [[nodiscard]] ProgressSnapshot snapshot() const;
  /// Open span names, outermost first. Best-effort under concurrent
  /// writes: entries are individually atomic, the stack as a whole is not.
  [[nodiscard]] std::vector<const char*> open_spans() const;
  struct RecentEvent {
    const char* name = nullptr;
    std::uint64_t at_ns = 0;
  };
  /// The last up-to-kRecentEvents span entries/exits, oldest first.
  [[nodiscard]] std::vector<RecentEvent> recent_events() const;

  /// Packs a snapshot into the kWireWords heartbeat payload and back.
  [[nodiscard]] std::array<std::uint64_t, kWireWords> pack() const;
  [[nodiscard]] static ProgressSnapshot unpack(
      const std::array<std::uint64_t, kWireWords>& words);

 private:
  void advance(std::uint64_t now_ns);
  void note(const char* name, std::uint64_t now_ns);

  /// phase | level | iteration packed into one word so a snapshot reads
  /// the trio coherently: (phase << 56) | (level << 32) | iteration.
  std::atomic<std::uint64_t> word_{0};
  std::atomic<std::uint64_t> pairs_{0};
  std::atomic<std::uint64_t> advances_{0};
  std::atomic<std::uint64_t> last_advance_ns_{0};
  std::atomic<std::uint32_t> span_depth_{0};
  std::array<std::atomic<const char*>, kMaxSpanDepth> span_stack_{};
  std::atomic<std::uint32_t> recent_head_{0};
  std::array<std::atomic<const char*>, kRecentEvents> recent_name_{};
  std::array<std::atomic<std::uint64_t>, kRecentEvents> recent_ns_{};
};

/// The board bound to the current thread (one per watched SPMD rank), or
/// nullptr when kappa-watch is off — the exact analogue of thread_trace().
[[nodiscard]] ProgressBoard* thread_progress();

/// Binds \p board to the current thread for the scope's lifetime and
/// restores the previous binding on exit. Bind nullptr to publish nothing.
class ThreadProgressScope {
 public:
  explicit ThreadProgressScope(ProgressBoard* board);
  ~ThreadProgressScope();
  ThreadProgressScope(const ThreadProgressScope&) = delete;
  ThreadProgressScope& operator=(const ThreadProgressScope&) = delete;

 private:
  ProgressBoard* previous_;
};

// Publication sites in the algorithm layers call these free helpers; with
// no board bound each is one thread-local load and a branch. Timestamps
// come from trace_now_ns(), the one sanctioned clock.
void progress_phase(ProgressPhase phase);
void progress_level(std::uint32_t level);
void progress_iteration(std::uint32_t iteration);
void progress_pair();

}  // namespace kappa
