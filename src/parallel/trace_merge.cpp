/// \file trace_merge.cpp
/// \brief The event-buffer wire codec, the clock-offset handshake, and
/// the rank-0 merge.
#include "parallel/trace_merge.hpp"

#include <algorithm>
#include <map>
#include <string>

namespace kappa {

namespace {

constexpr int kOffsetRounds = 4;

/// Appends the recorder's buffer: per-rank name table, then the events
/// referencing it by index.
void encode_buffer(const TraceRecorder& recorder,
                   std::vector<std::uint64_t>& out) {
  std::map<std::string, std::uint64_t> interned;
  std::vector<const std::string*> names;
  std::vector<std::uint64_t> indices;
  indices.reserve(recorder.read_events().size());
  for (const TraceEvent& event : recorder.read_events()) {
    const auto [it, fresh] =
        interned.try_emplace(event.name, interned.size());
    if (fresh) names.push_back(&it->first);
    indices.push_back(it->second);
  }
  out.push_back(recorder.read_dropped());
  out.push_back(names.size());
  for (const std::string* name : names) {
    out.push_back(name->size());
    for (const char c : *name) {
      out.push_back(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  const auto& events = recorder.read_events();
  out.push_back(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    out.push_back(indices[i]);
    out.push_back(static_cast<std::uint64_t>(events[i].kind));
    out.push_back(events[i].start_ns);
    out.push_back(events[i].dur_ns);
    out.push_back(events[i].arg0);
    out.push_back(events[i].arg1);
  }
}

/// Interns \p name into the merged table, returning its index.
std::uint32_t intern(const std::string& name, MergedTrace& merged,
                     std::map<std::string, std::uint32_t>& table) {
  const auto [it, fresh] = table.try_emplace(
      name, static_cast<std::uint32_t>(merged.names.size()));
  if (fresh) merged.names.push_back(name);
  return it->second;
}

std::uint64_t shift_ns(std::uint64_t ns, std::int64_t offset) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(ns) + offset);
}

}  // namespace

MergedTrace collect_trace(PEContext& pe, const TraceRecorder& recorder) {
  const int p = pe.size();
  const int rank = pe.rank();
  MergedTrace merged;

  if (rank != 0) {
    // Handshake: echo rank-local time for each of rank 0's pings.
    for (int round = 0; round < kOffsetRounds; ++round) {
      (void)pe.receive(0);
      pe.send(0, {trace_now_ns()});
    }
    std::vector<std::uint64_t> buffer;
    encode_buffer(recorder, buffer);
    pe.send(0, std::move(buffer));
    return merged;
  }

  // Rank 0: estimate each rank's clock offset (minimum-RTT midpoint),
  // then gather the buffers in rank order. Sequential per rank keeps the
  // ping-pong free of queueing noise from other ranks' replies.
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(p), 0);
  for (int q = 1; q < p; ++q) {
    std::uint64_t best_rtt = ~std::uint64_t{0};
    for (int round = 0; round < kOffsetRounds; ++round) {
      const std::uint64_t t0 = trace_now_ns();
      pe.send(q, {0});
      const Message reply = pe.receive(q);
      const std::uint64_t t1 = trace_now_ns();
      const std::uint64_t rtt = t1 - t0;
      if (rtt < best_rtt) {
        best_rtt = rtt;
        const std::uint64_t midpoint = t0 + (t1 - t0) / 2;
        offsets[static_cast<std::size_t>(q)] =
            static_cast<std::int64_t>(midpoint) -
            static_cast<std::int64_t>(reply.payload.at(0));
      }
    }
  }

  merged.num_ranks = p;
  merged.dropped_per_rank.assign(static_cast<std::size_t>(p), 0);
  merged.clock_offset_ns = offsets;
  std::map<std::string, std::uint32_t> table;

  for (int q = 1; q < p; ++q) {
    const Message msg = pe.receive(q);
    std::size_t pos = 0;
    merged.dropped_per_rank[static_cast<std::size_t>(q)] =
        msg.payload.at(pos++);
    std::vector<std::uint32_t> local_names;
    const std::uint64_t num_names = msg.payload.at(pos++);
    local_names.reserve(num_names);
    for (std::uint64_t n = 0; n < num_names; ++n) {
      std::string name(msg.payload.at(pos++), '\0');
      for (char& c : name) {
        c = static_cast<char>(msg.payload.at(pos++));
      }
      local_names.push_back(intern(name, merged, table));
    }
    const std::int64_t offset = offsets[static_cast<std::size_t>(q)];
    const std::uint64_t num_events = msg.payload.at(pos++);
    for (std::uint64_t n = 0; n < num_events; ++n) {
      MergedTraceEvent event;
      event.name_index = local_names.at(msg.payload.at(pos++));
      event.kind = static_cast<TraceEventKind>(msg.payload.at(pos++));
      event.start_ns = shift_ns(msg.payload.at(pos++), offset);
      event.dur_ns = msg.payload.at(pos++);
      event.arg0 = msg.payload.at(pos++);
      event.arg1 = msg.payload.at(pos++);
      event.rank = q;
      merged.events.push_back(event);
    }
  }

  // Own buffer last: it now also contains the net spans of the
  // collection itself, so the timeline shows what collection cost.
  merged.dropped_per_rank[0] = recorder.read_dropped();
  for (const TraceEvent& event : recorder.read_events()) {
    merged.events.push_back({intern(event.name, merged, table), 0,
                             event.start_ns, event.dur_ns, event.arg0,
                             event.arg1, event.kind});
  }

  std::stable_sort(merged.events.begin(), merged.events.end(),
                   [](const MergedTraceEvent& a, const MergedTraceEvent& b) {
                     if (a.rank != b.rank) return a.rank < b.rank;
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     return a.dur_ns > b.dur_ns;
                   });
  return merged;
}

}  // namespace kappa
