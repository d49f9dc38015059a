/// \file trace.hpp
/// \brief Per-rank span tracing: a low-overhead event recorder, the
/// thread-local binding that routes instrumentation sites to it, and the
/// merged Chrome-trace/Perfetto export types.
///
/// Design contract (enforced by kappa-lint):
///  - `trace_now_ns()` is the ONE sanctioned wall-clock read for the
///    partition-reaching layers (`trace-clock-confinement`). Every idle
///    counter and every span duration flows through it, so the rule table
///    can prove no other clock read exists that could leak timing into
///    partition decisions.
///  - Tracing is observer-only. The recorder's read side
///    (`read_events()`, `read_dropped()`) and the merged types are
///    forbidden in algorithm layers (`trace-no-feedback`): trace data can
///    be *written* anywhere but *read* only by the merge/export layer, so
///    a traced run and an untraced run produce byte-identical partitions.
///
/// When no recorder is bound to the current thread (tracing off, or a
/// worker thread outside the SPMD rank set), every instrumentation site
/// is one thread-local load and a branch — no clock read, no allocation.
/// Defining KAPPA_TRACE_DISABLED compiles the macro sites to nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/progress.hpp"

namespace kappa {

/// Monotonic nanoseconds since an arbitrary epoch (the process-wide
/// steady clock; on one host all processes share it, across hosts the
/// trace merge aligns it with a measured offset).
[[nodiscard]] std::uint64_t trace_now_ns();

enum class TraceEventKind : std::uint8_t {
  kSpan = 0,     ///< interval [start_ns, start_ns + dur_ns)
  kCounter = 1,  ///< sampled value (arg0) at start_ns
  kInstant = 2,  ///< point event at start_ns
};

/// One recorded event. \p name must outlive the recorder — in practice a
/// string literal: the recorder stores the pointer, the merge step
/// interns the characters once.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  TraceEventKind kind = TraceEventKind::kSpan;
};

/// Per-rank event recorder: a ring of \c capacity preallocated slots
/// appended to by exactly one thread (the rank's own). The buffer never
/// grows on the hot path; once full, new events are dropped and counted,
/// so an undersized buffer costs trace completeness (CI fails on a
/// nonzero drop count), never a reallocation inside a timed region.
class TraceRecorder {
 public:
  /// Events per rank; override per run with KAPPA_TRACE_BUFFER.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 17;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  /// Records a completed interval with explicit bounds (already-measured
  /// windows like a blocked receive).
  void span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
            std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

  /// Records a sampled value at the current time.
  void counter(const char* name, std::uint64_t value);

  /// Records a point event at the current time.
  void instant(const char* name, std::uint64_t arg0 = 0,
               std::uint64_t arg1 = 0);

  // Read side — the merge/export layer only. kappa-lint's
  // `trace-no-feedback` rule forbids these symbols in algorithm layers.
  [[nodiscard]] const std::vector<TraceEvent>& read_events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t read_dropped() const { return dropped_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  void push(const TraceEvent& event);

  std::vector<TraceEvent> events_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
};

/// The recorder bound to the current thread (one per SPMD rank), or
/// nullptr when tracing is off.
[[nodiscard]] TraceRecorder* thread_trace();

/// Binds \p recorder to the current thread for the scope's lifetime and
/// restores the previous binding on exit. Bind nullptr to trace nothing.
class ThreadTraceScope {
 public:
  explicit ThreadTraceScope(TraceRecorder* recorder);
  ~ThreadTraceScope();
  ThreadTraceScope(const ThreadTraceScope&) = delete;
  ThreadTraceScope& operator=(const ThreadTraceScope&) = delete;

 private:
  TraceRecorder* previous_;
};

/// RAII scoped span recorded into the current thread's recorder, and —
/// when a ProgressBoard is bound (kappa-watch on) — pushed/popped on the
/// board's open-span stack, so every instrumented span boundary doubles
/// as a liveness advance without a second set of publication sites.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::uint64_t arg0 = 0,
                     std::uint64_t arg1 = 0)
      : recorder_(thread_trace()),
        board_(thread_progress()),
        name_(name),
        arg0_(arg0),
        arg1_(arg1) {
    if (recorder_ != nullptr || board_ != nullptr) {
      start_ns_ = trace_now_ns();
    }
    if (board_ != nullptr) board_->push_span(name, start_ns_);
  }
  ~TraceSpan() {
    if (recorder_ == nullptr && board_ == nullptr) return;
    const std::uint64_t end_ns = trace_now_ns();
    if (recorder_ != nullptr) {
      recorder_->span(name_, start_ns_, end_ns, arg0_, arg1_);
    }
    if (board_ != nullptr) board_->pop_span(end_ns);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  ProgressBoard* board_;
  const char* name_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg0_;
  std::uint64_t arg1_;
};

inline void trace_counter(const char* name, std::uint64_t value) {
  if (TraceRecorder* recorder = thread_trace()) {
    recorder->counter(name, value);
  }
}

inline void trace_instant(const char* name, std::uint64_t arg0 = 0,
                          std::uint64_t arg1 = 0) {
  if (TraceRecorder* recorder = thread_trace()) {
    recorder->instant(name, arg0, arg1);
  }
}

// Instrumentation sites use the macros so a build with
// -DKAPPA_TRACE_DISABLED compiles them out entirely.
#if defined(KAPPA_TRACE_DISABLED)
#define KAPPA_TRACE_SPAN(...) static_cast<void>(0)
#define KAPPA_TRACE_COUNTER(...) static_cast<void>(0)
#define KAPPA_TRACE_INSTANT(...) static_cast<void>(0)
#else
#define KAPPA_TRACE_CONCAT_IMPL(a, b) a##b
#define KAPPA_TRACE_CONCAT(a, b) KAPPA_TRACE_CONCAT_IMPL(a, b)
#define KAPPA_TRACE_SPAN(...)                                        \
  ::kappa::TraceSpan KAPPA_TRACE_CONCAT(kappa_trace_span_, __LINE__)( \
      __VA_ARGS__)
#define KAPPA_TRACE_COUNTER(name, value) ::kappa::trace_counter(name, value)
#define KAPPA_TRACE_INSTANT(...) ::kappa::trace_instant(__VA_ARGS__)
#endif

/// Whether tracing is on for a run: the Config flag, or the KAPPA_TRACE
/// environment variable set to anything but "" / "0".
[[nodiscard]] bool trace_run_enabled(bool config_flag);

/// Recorder capacity for a run: KAPPA_TRACE_BUFFER (events per rank) when
/// set to a positive integer, else TraceRecorder::kDefaultCapacity.
[[nodiscard]] std::size_t trace_buffer_capacity();

/// One event of a merged multi-rank trace, on rank 0's clock.
struct MergedTraceEvent {
  std::uint32_t name_index = 0;  ///< into MergedTrace::names
  std::int32_t rank = 0;
  std::uint64_t start_ns = 0;  ///< clock-offset-aligned to rank 0
  std::uint64_t dur_ns = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  TraceEventKind kind = TraceEventKind::kSpan;
};

/// Every rank's events on one aligned clock, sorted by (rank, start time)
/// — the post-collection form the export layer consumes.
struct MergedTrace {
  int num_ranks = 0;
  std::vector<std::string> names;
  std::vector<MergedTraceEvent> events;
  std::vector<std::uint64_t> dropped_per_rank;
  /// Offset applied per rank: a timestamp read on rank r's clock plus
  /// clock_offset_ns[r] is the event's time on rank 0's clock. All zero
  /// for single-process runs (every rank shares the process clock).
  std::vector<std::int64_t> clock_offset_ns;
};

/// Merges one recorder's buffer as rank \p rank of \p num_ranks with zero
/// clock offset — sequential runs and per-rank local dumps.
[[nodiscard]] MergedTrace merge_local_trace(const TraceRecorder& recorder,
                                            int rank, int num_ranks);

/// Writes \p trace in the Chrome "Trace Event Format" (JSON): one pid,
/// one tid per rank, "X" complete events for spans, "C" for counters,
/// "i" for instants. Open the file in https://ui.perfetto.dev or
/// chrome://tracing. Timestamps are microseconds relative to the
/// earliest event.
void write_chrome_trace(const MergedTrace& trace, std::ostream& out);

/// Consumer hook for the merged trace of a run — see
/// Partitioner::set_trace_sink().
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_trace(const MergedTrace& trace) = 0;
};

}  // namespace kappa
