/// \file trace.cpp
/// \brief Recorder, thread binding, local merge, and Chrome-trace export.
#include "util/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <ostream>

#include "util/json.hpp"

namespace kappa {

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  events_.reserve(capacity_);
}

void TraceRecorder::push(const TraceEvent& event) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

void TraceRecorder::span(const char* name, std::uint64_t start_ns,
                         std::uint64_t end_ns, std::uint64_t arg0,
                         std::uint64_t arg1) {
  push({name, start_ns, end_ns >= start_ns ? end_ns - start_ns : 0, arg0,
        arg1, TraceEventKind::kSpan});
}

void TraceRecorder::counter(const char* name, std::uint64_t value) {
  push({name, trace_now_ns(), 0, value, 0, TraceEventKind::kCounter});
}

void TraceRecorder::instant(const char* name, std::uint64_t arg0,
                            std::uint64_t arg1) {
  push({name, trace_now_ns(), 0, arg0, arg1, TraceEventKind::kInstant});
}

namespace {

thread_local TraceRecorder* tl_recorder = nullptr;

}  // namespace

TraceRecorder* thread_trace() { return tl_recorder; }

ThreadTraceScope::ThreadTraceScope(TraceRecorder* recorder)
    : previous_(tl_recorder) {
  tl_recorder = recorder;
}

ThreadTraceScope::~ThreadTraceScope() { tl_recorder = previous_; }

bool trace_run_enabled(bool config_flag) {
  if (config_flag) return true;
  const char* env = std::getenv("KAPPA_TRACE");
  if (env == nullptr || env[0] == '\0') return false;
  return !(env[0] == '0' && env[1] == '\0');
}

std::size_t trace_buffer_capacity() {
  if (const char* env = std::getenv("KAPPA_TRACE_BUFFER")) {
    char* end = nullptr;
    const unsigned long long value = std::strtoull(env, &end, 10);
    if (end != env && value > 0) return static_cast<std::size_t>(value);
  }
  return TraceRecorder::kDefaultCapacity;
}

MergedTrace merge_local_trace(const TraceRecorder& recorder, int rank,
                              int num_ranks) {
  MergedTrace merged;
  merged.num_ranks = num_ranks;
  merged.dropped_per_rank.assign(static_cast<std::size_t>(num_ranks), 0);
  merged.clock_offset_ns.assign(static_cast<std::size_t>(num_ranks), 0);
  merged.dropped_per_rank[static_cast<std::size_t>(rank)] =
      recorder.read_dropped();
  std::map<std::string, std::uint32_t> interned;
  merged.events.reserve(recorder.read_events().size());
  for (const TraceEvent& event : recorder.read_events()) {
    const auto [it, fresh] = interned.try_emplace(
        event.name, static_cast<std::uint32_t>(merged.names.size()));
    if (fresh) merged.names.emplace_back(event.name);
    merged.events.push_back({it->second, rank, event.start_ns, event.dur_ns,
                             event.arg0, event.arg1, event.kind});
  }
  // Spans are recorded at their *end*, so buffer order is not start
  // order; the merged form is sorted by start (outer spans before the
  // nested ones they contain).
  std::stable_sort(merged.events.begin(), merged.events.end(),
                   [](const MergedTraceEvent& a, const MergedTraceEvent& b) {
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     return a.dur_ns > b.dur_ns;
                   });
  return merged;
}

namespace {

/// Microseconds with nanosecond precision kept as a decimal fraction.
void write_ts_us(std::ostream& out, std::uint64_t ns) {
  out << ns / 1000 << '.' << static_cast<char>('0' + (ns / 100) % 10)
      << static_cast<char>('0' + (ns / 10) % 10)
      << static_cast<char>('0' + ns % 10);
}

}  // namespace

void write_chrome_trace(const MergedTrace& trace, std::ostream& out) {
  std::uint64_t epoch = ~std::uint64_t{0};
  for (const MergedTraceEvent& event : trace.events) {
    epoch = std::min(epoch, event.start_ns);
  }
  if (trace.events.empty()) epoch = 0;

  out << "{\"traceEvents\":[";
  bool first = true;
  for (int rank = 0; rank < trace.num_ranks; ++rank) {
    if (!first) out << ',';
    first = false;
    out << "\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << rank
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"rank " << rank
        << "\"}}";
  }
  for (const MergedTraceEvent& event : trace.events) {
    if (!first) out << ',';
    first = false;
    out << "\n{\"ph\":\"";
    switch (event.kind) {
      case TraceEventKind::kSpan:
        out << 'X';
        break;
      case TraceEventKind::kCounter:
        out << 'C';
        break;
      case TraceEventKind::kInstant:
        out << 'i';
        break;
    }
    out << "\",\"pid\":0,\"tid\":" << event.rank << ",\"ts\":";
    write_ts_us(out, event.start_ns - epoch);
    if (event.kind == TraceEventKind::kSpan) {
      out << ",\"dur\":";
      write_ts_us(out, event.dur_ns);
    }
    out << ",\"name\":";
    out << json_string(
        trace.names[static_cast<std::size_t>(event.name_index)]);
    if (event.kind == TraceEventKind::kCounter) {
      out << ",\"args\":{\"value\":" << event.arg0 << '}';
    } else {
      if (event.kind == TraceEventKind::kInstant) out << ",\"s\":\"t\"";
      out << ",\"args\":{\"arg0\":" << event.arg0 << ",\"arg1\":"
          << event.arg1 << '}';
    }
    out << '}';
  }
  out << "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{"
      << "\"num_ranks\":" << trace.num_ranks << ",\"dropped_per_rank\":[";
  for (std::size_t r = 0; r < trace.dropped_per_rank.size(); ++r) {
    out << (r == 0 ? "" : ",") << trace.dropped_per_rank[r];
  }
  out << "],\"clock_offset_ns\":[";
  for (std::size_t r = 0; r < trace.clock_offset_ns.size(); ++r) {
    out << (r == 0 ? "" : ",") << trace.clock_offset_ns[r];
  }
  out << "]}}\n";
}

}  // namespace kappa
