/// \file trace_test.cpp
/// \brief Tests of the observability layer: the per-rank span recorder,
/// the merged Chrome-trace export, the unified metrics registry, and the
/// guarantees the layer makes — the counter table covers every field of
/// the per-rank record, and tracing is observer-only (a traced and an
/// untraced run produce byte-identical partitions and equal counters,
/// in-process and across forked TCP processes).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>

#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics_export.hpp"
#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "parallel/channel.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/transport_tcp.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace kappa {
namespace {

// ------------------------------------------------------------ recorder ----

TEST(TraceRecorder, NestedSpansRecordContainment) {
  TraceRecorder recorder(16);
  const ThreadTraceScope bind(&recorder);
  {
    TraceSpan outer("outer", 7, 8);
    {
      TraceSpan inner("inner");
      KAPPA_TRACE_INSTANT("tick", 3);
    }
  }
  // Completion order: the instant, then the inner span, then the outer.
  const std::vector<TraceEvent>& events = recorder.read_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "tick");
  EXPECT_EQ(events[0].kind, TraceEventKind::kInstant);
  EXPECT_EQ(events[0].arg0, 3u);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[2].arg0, 7u);
  EXPECT_EQ(events[2].arg1, 8u);
  // The outer interval contains the inner one, which contains the tick.
  const TraceEvent& outer = events[2];
  const TraceEvent& inner = events[1];
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.start_ns + outer.dur_ns, inner.start_ns + inner.dur_ns);
  EXPECT_LE(inner.start_ns, events[0].start_ns);
  EXPECT_EQ(recorder.read_dropped(), 0u);
}

TEST(TraceRecorder, RingOverflowDropsAndCounts) {
  TraceRecorder recorder(4);
  const ThreadTraceScope bind(&recorder);
  for (int i = 0; i < 6; ++i) {
    KAPPA_TRACE_INSTANT("e", static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(recorder.read_events().size(), 4u);
  EXPECT_EQ(recorder.read_dropped(), 2u);
  // The first `capacity` events survive; overflow drops the tail.
  EXPECT_EQ(recorder.read_events()[3].arg0, 3u);
}

TEST(TraceRecorder, UnboundThreadSitesAreNoops) {
  ASSERT_EQ(thread_trace(), nullptr);
  {
    TraceSpan span("ignored");
    KAPPA_TRACE_COUNTER("ignored", 1);
    KAPPA_TRACE_INSTANT("ignored");
  }  // must not crash, must not record anywhere
}

TEST(TraceRecorder, EnvironmentTogglesAndBufferOverride) {
  ASSERT_EQ(::unsetenv("KAPPA_TRACE"), 0);
  EXPECT_FALSE(trace_run_enabled(false));
  EXPECT_TRUE(trace_run_enabled(true));
  ASSERT_EQ(::setenv("KAPPA_TRACE", "1", 1), 0);
  EXPECT_TRUE(trace_run_enabled(false));
  ASSERT_EQ(::setenv("KAPPA_TRACE", "0", 1), 0);
  EXPECT_FALSE(trace_run_enabled(false));
  ASSERT_EQ(::unsetenv("KAPPA_TRACE"), 0);

  ASSERT_EQ(::unsetenv("KAPPA_TRACE_BUFFER"), 0);
  EXPECT_EQ(trace_buffer_capacity(), TraceRecorder::kDefaultCapacity);
  ASSERT_EQ(::setenv("KAPPA_TRACE_BUFFER", "64", 1), 0);
  EXPECT_EQ(trace_buffer_capacity(), 64u);
  ASSERT_EQ(::unsetenv("KAPPA_TRACE_BUFFER"), 0);
}

// ------------------------------------------------------ export helpers ----

/// Structural JSON well-formedness without a parser: every brace/bracket
/// outside string literals balances, and the document is one object.
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

bool has_name(const MergedTrace& trace, const std::string& name) {
  for (const std::string& n : trace.names) {
    if (n == name) return true;
  }
  return false;
}

TEST(ChromeTrace, LocalMergeExportsWellFormedJson) {
  TraceRecorder recorder(16);
  {
    const ThreadTraceScope bind(&recorder);
    TraceSpan span("alpha", 1, 2);
    KAPPA_TRACE_COUNTER("gauge", 41);
    KAPPA_TRACE_INSTANT("mark");
  }
  const MergedTrace merged = merge_local_trace(recorder, 0, 1);
  EXPECT_EQ(merged.num_ranks, 1);
  ASSERT_EQ(merged.dropped_per_rank, std::vector<std::uint64_t>{0});
  EXPECT_TRUE(has_name(merged, "alpha"));
  EXPECT_TRUE(has_name(merged, "gauge"));
  EXPECT_TRUE(has_name(merged, "mark"));

  std::ostringstream out;
  write_chrome_trace(merged, out);
  const std::string json = out.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"num_ranks\":1"), std::string::npos);
}

// ----------------------------------------------------- traced SPMD runs ----

struct CaptureSink final : TraceSink {
  MergedTrace trace;
  int fired = 0;
  void on_trace(const MergedTrace& merged) override {
    trace = merged;
    ++fired;
  }
};

/// Shared p=4 in-process run; tracing toggled by the caller's config.
PartitionResult run_inproc(const StaticGraph& graph, const Config& config,
                           TraceSink* sink) {
  PERuntime runtime(4, config.seed);
  Partitioner partitioner(Context::spmd(config, runtime));
  partitioner.set_trace_sink(sink);
  return partitioner.partition(graph);
}

TEST(TracedRun, InprocMergeCoversEveryRank) {
  const StaticGraph graph = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;
  config.trace_enabled = true;

  CaptureSink sink;
  (void)run_inproc(graph, config, &sink);
  ASSERT_EQ(sink.fired, 1);
  const MergedTrace& trace = sink.trace;
  EXPECT_EQ(trace.num_ranks, 4);
  ASSERT_EQ(trace.dropped_per_rank.size(), 4u);
  for (const std::uint64_t dropped : trace.dropped_per_rank) {
    EXPECT_EQ(dropped, 0u);
  }
  // One process, one steady clock: rank 0's offset is zero by
  // definition and the handshake's estimates for the others are pure
  // scheduling jitter — microseconds, bounded here at 100 ms.
  ASSERT_EQ(trace.clock_offset_ns.size(), 4u);
  EXPECT_EQ(trace.clock_offset_ns[0], 0);
  for (const std::int64_t offset : trace.clock_offset_ns) {
    EXPECT_LT(offset, 100'000'000);
    EXPECT_GT(offset, -100'000'000);
  }

  std::vector<bool> rank_has_events(4, false);
  std::vector<std::uint64_t> last_start(4, 0);
  int last_rank = 0;
  for (const MergedTraceEvent& event : trace.events) {
    ASSERT_GE(event.rank, 0);
    ASSERT_LT(event.rank, 4);
    const auto r = static_cast<std::size_t>(event.rank);
    rank_has_events[r] = true;
    // Sorted by (rank, aligned start): each rank's track is monotone.
    EXPECT_GE(event.rank, last_rank);
    EXPECT_GE(event.start_ns, last_start[r]);
    last_rank = event.rank;
    last_start[r] = event.start_ns;
  }
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_TRUE(rank_has_events[static_cast<std::size_t>(rank)])
        << "rank " << rank << " contributed no events";
  }
  for (const char* name :
       {"phase.coarsen", "phase.initial", "phase.refine", "coarsen.level",
        "refine.iteration"}) {
    EXPECT_TRUE(has_name(trace, name)) << "span name missing: " << name;
  }

  std::ostringstream out;
  write_chrome_trace(trace, out);
  EXPECT_TRUE(json_balanced(out.str()));
}

TEST(TracedRun, UndersizedBufferCountsDropsInsteadOfGrowing) {
  const StaticGraph graph = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;
  config.trace_enabled = true;

  ASSERT_EQ(::setenv("KAPPA_TRACE_BUFFER", "8", 1), 0);
  CaptureSink sink;
  (void)run_inproc(graph, config, &sink);
  ASSERT_EQ(::unsetenv("KAPPA_TRACE_BUFFER"), 0);

  ASSERT_EQ(sink.fired, 1);
  ASSERT_EQ(sink.trace.dropped_per_rank.size(), 4u);
  std::vector<std::size_t> events_per_rank(4, 0);
  for (const MergedTraceEvent& event : sink.trace.events) {
    ++events_per_rank[static_cast<std::size_t>(event.rank)];
  }
  for (int rank = 0; rank < 4; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    EXPECT_LE(events_per_rank[r], 8u);
    EXPECT_GT(sink.trace.dropped_per_rank[r], 0u)
        << "rank " << rank << " should have overflowed an 8-slot ring";
  }
}

TEST(TracedRun, ObserverOnlyPartitionByteIdentical) {
  const StaticGraph graph = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;

  config.trace_enabled = false;
  const PartitionResult plain = run_inproc(graph, config, nullptr);

  config.trace_enabled = true;
  CaptureSink sink;
  const PartitionResult traced = run_inproc(graph, config, &sink);

  ASSERT_EQ(sink.fired, 1);
  EXPECT_EQ(traced.cut, plain.cut);
  EXPECT_EQ(traced.balance, plain.balance);
  ASSERT_EQ(traced.partition.k(), plain.partition.k());
  for (NodeID u = 0; u < graph.num_nodes(); ++u) {
    ASSERT_EQ(traced.partition.block(u), plain.partition.block(u))
        << "node " << u;
  }
  // The counters stop at materialization, before trace collection: a
  // traced run counts exactly what an untraced one does, idle time aside.
  ASSERT_EQ(traced.counters_per_pe.size(), 4u);
  ASSERT_EQ(plain.counters_per_pe.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    const RankCounters& a = traced.counters_per_pe[r];
    const RankCounters& b = plain.counters_per_pe[r];
    for (const CounterField& field : kRankCounters) {
      const std::string name = field.name;
      if (name == "collective_idle_ns" || name == "recv_idle_ns") continue;
      EXPECT_EQ(field.of(a), field.of(b))
          << "rank " << r << " " << field.group << "." << name;
    }
    ASSERT_EQ(a.comm.halo_per_level.size(), b.comm.halo_per_level.size());
    for (std::size_t l = 0; l < a.comm.halo_per_level.size(); ++l) {
      EXPECT_EQ(a.comm.halo_per_level[l].messages,
                b.comm.halo_per_level[l].messages);
      EXPECT_EQ(a.comm.halo_per_level[l].words,
                b.comm.halo_per_level[l].words);
    }
  }
  EXPECT_EQ(traced.comm.messages_sent, plain.comm.messages_sent);
  EXPECT_EQ(traced.comm.words_sent, plain.comm.words_sent);
}

// -------------------------------------------------- forked TCP tracing ----

std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

TcpOptions local_options(int rank, int num_ranks, std::uint16_t port) {
  TcpOptions options;
  options.rank = rank;
  options.num_ranks = num_ranks;
  options.rendezvous_host = "127.0.0.1";
  options.rendezvous_port = port;
  options.connect_timeout_ms = 20000;
  options.recv_timeout_ms = 120000;
  return options;
}

std::vector<int> spawn_ranks(int num_ranks,
                             const std::function<int(int)>& body) {
  std::vector<pid_t> pids(static_cast<std::size_t>(num_ranks), -1);
  for (int rank = 0; rank < num_ranks; ++rank) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      int code = 43;
      try {
        code = body(rank);
      } catch (const TransportError&) {
        code = 42;
      } catch (...) {
      }
      std::_Exit(code);
    }
    EXPECT_GT(pid, 0);
    pids[static_cast<std::size_t>(rank)] = pid;
  }
  std::vector<int> codes(static_cast<std::size_t>(num_ranks), -1);
  for (int rank = 0; rank < num_ranks; ++rank) {
    int status = 0;
    EXPECT_EQ(::waitpid(pids[static_cast<std::size_t>(rank)], &status, 0),
              pids[static_cast<std::size_t>(rank)]);
    codes[static_cast<std::size_t>(rank)] =
        WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return codes;
}

TEST(TracedRun, TcpProcessesMergeOnRankZeroWithAlignedClocks) {
  // Four localhost processes, one traced run: the sink must fire exactly
  // once (on the rank-0 process), the merged trace must carry clock-
  // aligned, sorted events from every rank, and no ring may overflow.
  // Non-zero exit codes name the failed check.
  const StaticGraph graph = make_instance("rgg14", 11);
  const std::uint16_t port = pick_free_port();
  const auto codes = spawn_ranks(4, [&](int rank) -> int {
    Config config = Config::preset(Preset::kMinimal, 8);
    config.seed = 42;
    config.trace_enabled = true;
    PERuntime runtime(make_tcp_fabric(local_options(rank, 4, port)),
                      config.seed);
    CaptureSink sink;
    Partitioner partitioner(Context::spmd(config, runtime));
    partitioner.set_trace_sink(&sink);
    (void)partitioner.partition(graph);
    if (rank != 0) return sink.fired == 0 ? 0 : 50;
    if (sink.fired != 1) return 51;
    const MergedTrace& trace = sink.trace;
    if (trace.num_ranks != 4) return 52;
    if (trace.dropped_per_rank.size() != 4 ||
        trace.clock_offset_ns.size() != 4) {
      return 53;
    }
    for (const std::uint64_t dropped : trace.dropped_per_rank) {
      if (dropped != 0) return 54;
    }
    std::vector<bool> seen(4, false);
    std::vector<std::uint64_t> last_start(4, 0);
    int last_rank = 0;
    for (const MergedTraceEvent& event : trace.events) {
      if (event.rank < 0 || event.rank >= 4) return 55;
      const auto r = static_cast<std::size_t>(event.rank);
      seen[r] = true;
      // Sorted by (rank, start) with starts on rank 0's clock: each
      // rank's track must be monotone after offset alignment.
      if (event.rank < last_rank) return 56;
      if (event.start_ns < last_start[r]) return 56;
      last_rank = event.rank;
      last_start[r] = event.start_ns;
    }
    for (const bool s : seen) {
      if (!s) return 57;
    }
    for (const char* name : {"phase.coarsen", "phase.initial",
                             "phase.refine"}) {
      bool found = false;
      for (const std::string& n : trace.names) found |= (n == name);
      if (!found) return 58;
    }
    return 0;
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0, 0, 0}));
}

// ---------------------------------------------------- metrics registry ----

TEST(MetricsRegistry, MatchesLegacyResultCounters) {
  // The registry is a renaming, never a recomputation: every exported
  // value must equal the PartitionResult field it came from.
  const StaticGraph graph = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 3;
  PERuntime runtime(4, config.seed);
  const PartitionResult result =
      Partitioner(Context::spmd(config, runtime)).partition(graph);

  const MetricsRegistry registry =
      metrics_from_result(result, config, runtime.backend());

  EXPECT_EQ(registry.str("run.backend"), runtime.backend());
  EXPECT_EQ(registry.u64("run.k"), static_cast<std::uint64_t>(config.k));
  EXPECT_EQ(registry.u64("run.seed"), config.seed);
  EXPECT_EQ(registry.u64("run.num_pes"), 4u);

  EXPECT_EQ(registry.i64("partition.cut"), result.cut);
  EXPECT_EQ(registry.f64("partition.balance"), result.balance);
  EXPECT_EQ(registry.u64("partition.feasible"), result.balanced ? 1u : 0u);

  EXPECT_EQ(registry.f64("time.total_s"), result.total_time);
  EXPECT_EQ(registry.f64("time.coarsen_s"), result.coarsening_time);
  EXPECT_EQ(registry.u64("hierarchy.levels"), result.hierarchy_levels);
  EXPECT_EQ(registry.u64_list("hierarchy.level_nodes").size(),
            result.hierarchy_level_nodes.size());

  // Every declared counter, against the per-part result fields: rank q's
  // record reassembled from comm_per_pe[q], shard_memory_per_pe[q], ...
  ASSERT_EQ(result.counters_per_pe.size(), 4u);
  std::vector<RankCounters> from_fields(4);
  for (std::size_t q = 0; q < 4; ++q) {
    RankCounters& r = from_fields[q];
    r.comm = result.comm_per_pe.at(q);
    r.shard_memory = result.shard_memory_per_pe.at(q);
    r.hierarchy_memory = result.hierarchy_memory_per_pe.at(q);
    r.partition_memory = result.partition_memory_per_pe.at(q);
    r.pair_ship = result.pair_ship_per_pe.at(q);
    r.matching = result.counters_per_pe[q].matching;  // no per-part field
  }
  ASSERT_EQ(registry.counters().size(), std::size(kRankCounters));
  for (std::size_t f = 0; f < std::size(kRankCounters); ++f) {
    const CounterField& field = kRankCounters[f];
    EXPECT_EQ(registry.counters()[f], &field);
    const std::string key = std::string(field.group) + "." + field.name;
    const std::vector<std::uint64_t>& per_rank = registry.u64_list(
        std::string(field.group) + ".per_rank." + field.name);
    ASSERT_EQ(per_rank.size(), 4u) << key;
    std::uint64_t fold = 0;
    for (std::size_t q = 0; q < 4; ++q) {
      EXPECT_EQ(per_rank[q], field.of(from_fields[q])) << key << " rank " << q;
      fold = field.fold == CounterFold::kSum ? fold + per_rank[q]
                                             : std::max(fold, per_rank[q]);
    }
    EXPECT_EQ(registry.u64(key), fold) << key;
  }
  EXPECT_EQ(registry.u64("comm.messages_sent"), result.comm.messages_sent);
  EXPECT_EQ(registry.u64("comm.barriers"), result.comm.barriers);
  EXPECT_EQ(registry.u64_list("comm.halo.messages_per_level").size(),
            result.comm.halo_per_level.size());

  // In a closed run every delivered message was sent by someone: the
  // receive-side totals mirror the send-side totals over all ranks.
  EXPECT_EQ(registry.u64("comm.messages_sent"),
            registry.u64("comm.messages_received"));

  std::ostringstream out;
  registry.write_json(out);
  EXPECT_TRUE(json_balanced(out.str()));
  EXPECT_NE(out.str().find("\"schema\": \"kappa.metrics.v2\""),
            std::string::npos);
  EXPECT_NE(out.str().find("{\"group\": \"coarsening\", \"name\": "
                           "\"gap_rounds\", \"unit\": \"rounds\", "
                           "\"fold\": \"max\"}"),
            std::string::npos);
}

// --------------------------------------------------------- counter table ----

TEST(CounterTable, FoldAggregatesEveryField) {
  // Rank r's record holds 100 * r + f + 1 in table row f. The static_assert
  // next to the table guarantees the rows cover every scalar of the
  // record; distinct values read back here guarantee no two rows alias.
  std::vector<RankCounters> ranks(3);
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    for (std::size_t f = 0; f < std::size(kRankCounters); ++f) {
      kRankCounters[f].of(ranks[r]) = 100 * r + f + 1;
    }
  }
  for (std::size_t f = 0; f < std::size(kRankCounters); ++f) {
    EXPECT_EQ(kRankCounters[f].of(ranks[1]), 100 + f + 1)
        << kRankCounters[f].name << " aliases another row";
  }
  ranks[0].comm.halo_per_level = {{100, 200}};
  ranks[2].comm.halo_per_level = {{1000, 2000}, {1, 2}};
  // Rank 1 holds the largest barrier count: max, not the last or a sum.
  kRankCounters[4].of(ranks[1]) = 999;
  ASSERT_STREQ(kRankCounters[4].name, "barriers");

  const RankCounters total = fold_counters(ranks);
  for (std::size_t f = 0; f < std::size(kRankCounters); ++f) {
    const CounterField& field = kRankCounters[f];
    const std::uint64_t expected =
        field.fold == CounterFold::kSum
            ? field.of(ranks[0]) + field.of(ranks[1]) + field.of(ranks[2])
            : std::max({field.of(ranks[0]), field.of(ranks[1]),
                        field.of(ranks[2])});
    EXPECT_EQ(field.of(total), expected) << field.group << "." << field.name;
  }
  EXPECT_EQ(total.comm.barriers, 999u);
  ASSERT_EQ(total.comm.halo_per_level.size(), 2u);
  EXPECT_EQ(total.comm.halo_per_level[0].messages, 1100u);
  EXPECT_EQ(total.comm.halo_per_level[0].words, 2200u);
  EXPECT_EQ(total.comm.halo_per_level[1].messages, 1u);
  EXPECT_EQ(total.comm.halo_per_level[1].words, 2u);
  EXPECT_EQ(fold_counters({}).comm.messages_sent, 0u);
}

}  // namespace
}  // namespace kappa
