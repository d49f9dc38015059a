#include "util/progress.hpp"

#include <algorithm>

#include "util/trace.hpp"

namespace kappa {

namespace {

thread_local ProgressBoard* g_thread_board = nullptr;

constexpr std::uint64_t pack_word(ProgressPhase phase, std::uint32_t level,
                                  std::uint32_t iteration) {
  return (static_cast<std::uint64_t>(phase) << 56) |
         ((static_cast<std::uint64_t>(level) & 0xFFFFFFu) << 32) |
         static_cast<std::uint64_t>(iteration);
}

}  // namespace

const char* progress_phase_name(ProgressPhase phase) {
  switch (phase) {
    case ProgressPhase::kIdle: return "idle";
    case ProgressPhase::kCoarsen: return "coarsen";
    case ProgressPhase::kInitial: return "initial";
    case ProgressPhase::kRefine: return "refine";
    case ProgressPhase::kRebalance: return "rebalance";
    case ProgressPhase::kMaterialize: return "materialize";
    case ProgressPhase::kDone: return "done";
  }
  return "unknown";
}

void ProgressBoard::advance(std::uint64_t now_ns) {
  last_advance_ns_.store(now_ns, std::memory_order_relaxed);
  advances_.fetch_add(1, std::memory_order_release);
}

void ProgressBoard::note(const char* name, std::uint64_t now_ns) {
  const std::uint32_t head = recent_head_.load(std::memory_order_relaxed);
  const std::size_t slot = head % kRecentEvents;
  recent_name_[slot].store(name, std::memory_order_relaxed);
  recent_ns_[slot].store(now_ns, std::memory_order_relaxed);
  recent_head_.store(head + 1, std::memory_order_release);
}

void ProgressBoard::set_phase(ProgressPhase phase, std::uint64_t now_ns) {
  const std::uint64_t word = word_.load(std::memory_order_relaxed);
  word_.store(pack_word(phase, static_cast<std::uint32_t>(word >> 32) &
                                   0xFFFFFFu,
                        static_cast<std::uint32_t>(word)),
              std::memory_order_relaxed);
  note(progress_phase_name(phase), now_ns);
  advance(now_ns);
}

void ProgressBoard::set_level(std::uint32_t level, std::uint64_t now_ns) {
  const std::uint64_t word = word_.load(std::memory_order_relaxed);
  word_.store(pack_word(static_cast<ProgressPhase>(word >> 56), level,
                        static_cast<std::uint32_t>(word)),
              std::memory_order_relaxed);
  advance(now_ns);
}

void ProgressBoard::set_iteration(std::uint32_t iteration,
                                  std::uint64_t now_ns) {
  const std::uint64_t word = word_.load(std::memory_order_relaxed);
  word_.store(pack_word(static_cast<ProgressPhase>(word >> 56),
                        static_cast<std::uint32_t>(word >> 32) & 0xFFFFFFu,
                        iteration),
              std::memory_order_relaxed);
  advance(now_ns);
}

void ProgressBoard::count_pair(std::uint64_t now_ns) {
  pairs_.fetch_add(1, std::memory_order_relaxed);
  advance(now_ns);
}

void ProgressBoard::push_span(const char* name, std::uint64_t now_ns) {
  const std::uint32_t depth = span_depth_.load(std::memory_order_relaxed);
  if (depth < kMaxSpanDepth) {
    span_stack_[depth].store(name, std::memory_order_relaxed);
  }
  span_depth_.store(depth + 1, std::memory_order_release);
  note(name, now_ns);
  advance(now_ns);
}

void ProgressBoard::pop_span(std::uint64_t now_ns) {
  const std::uint32_t depth = span_depth_.load(std::memory_order_relaxed);
  if (depth > 0) {
    span_depth_.store(depth - 1, std::memory_order_release);
  }
  advance(now_ns);
}

void ProgressBoard::touch(std::uint64_t now_ns) { advance(now_ns); }

ProgressSnapshot ProgressBoard::snapshot() const {
  ProgressSnapshot snap;
  const std::uint64_t word = word_.load(std::memory_order_relaxed);
  snap.phase = static_cast<ProgressPhase>(word >> 56);
  snap.level = static_cast<std::uint32_t>(word >> 32) & 0xFFFFFFu;
  snap.iteration = static_cast<std::uint32_t>(word);
  snap.pairs_executed = pairs_.load(std::memory_order_relaxed);
  snap.advances = advances_.load(std::memory_order_acquire);
  snap.last_advance_ns = last_advance_ns_.load(std::memory_order_relaxed);
  return snap;
}

std::vector<const char*> ProgressBoard::open_spans() const {
  const std::uint32_t depth =
      std::min<std::uint32_t>(span_depth_.load(std::memory_order_acquire),
                              static_cast<std::uint32_t>(kMaxSpanDepth));
  std::vector<const char*> names;
  names.reserve(depth);
  for (std::uint32_t i = 0; i < depth; ++i) {
    if (const char* name = span_stack_[i].load(std::memory_order_relaxed)) {
      names.push_back(name);
    }
  }
  return names;
}

std::vector<ProgressBoard::RecentEvent> ProgressBoard::recent_events()
    const {
  const std::uint32_t head = recent_head_.load(std::memory_order_acquire);
  const std::uint32_t count =
      std::min<std::uint32_t>(head, static_cast<std::uint32_t>(kRecentEvents));
  std::vector<RecentEvent> events;
  events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t slot = (head - count + i) % kRecentEvents;
    RecentEvent event;
    event.name = recent_name_[slot].load(std::memory_order_relaxed);
    event.at_ns = recent_ns_[slot].load(std::memory_order_relaxed);
    if (event.name != nullptr) events.push_back(event);
  }
  return events;
}

std::array<std::uint64_t, ProgressBoard::kWireWords> ProgressBoard::pack()
    const {
  const ProgressSnapshot snap = snapshot();
  return {pack_word(snap.phase, snap.level, snap.iteration),
          snap.pairs_executed, snap.advances, snap.last_advance_ns};
}

ProgressSnapshot ProgressBoard::unpack(
    const std::array<std::uint64_t, kWireWords>& words) {
  ProgressSnapshot snap;
  snap.phase = static_cast<ProgressPhase>(words[0] >> 56);
  snap.level = static_cast<std::uint32_t>(words[0] >> 32) & 0xFFFFFFu;
  snap.iteration = static_cast<std::uint32_t>(words[0]);
  snap.pairs_executed = words[1];
  snap.advances = words[2];
  snap.last_advance_ns = words[3];
  return snap;
}

ProgressBoard* thread_progress() { return g_thread_board; }

ThreadProgressScope::ThreadProgressScope(ProgressBoard* board)
    : previous_(g_thread_board) {
  g_thread_board = board;
}

ThreadProgressScope::~ThreadProgressScope() { g_thread_board = previous_; }

void progress_phase(ProgressPhase phase) {
  if (ProgressBoard* board = g_thread_board) {
    board->set_phase(phase, trace_now_ns());
  }
}

void progress_level(std::uint32_t level) {
  if (ProgressBoard* board = g_thread_board) {
    board->set_level(level, trace_now_ns());
  }
}

void progress_iteration(std::uint32_t iteration) {
  if (ProgressBoard* board = g_thread_board) {
    board->set_iteration(iteration, trace_now_ns());
  }
}

void progress_pair() {
  if (ProgressBoard* board = g_thread_board) {
    board->count_pair(trace_now_ns());
  }
}

}  // namespace kappa
