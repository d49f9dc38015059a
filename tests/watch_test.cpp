/// \file watch_test.cpp
/// \brief Tests of kappa-watch: the ProgressBoard data plane, the
/// transport liveness hooks (queue depths, peer health, heartbeats), the
/// stall watchdog and snapshot sampler, and the acceptance criteria —
/// watch is observer-only (byte-identical partition with watch on or
/// off, in-process and across TCP processes), a SIGSTOP'd TCP rank is
/// classified *stalled* (not dead) with a stall report naming its open
/// span stack, and an abruptly killed rank still surfaces as the
/// dead-peer TransportError.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>

#include <netinet/in.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/validation.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/transport_tcp.hpp"
#include "parallel/watch.hpp"
#include "util/progress.hpp"
#include "util/trace.hpp"

namespace kappa {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t count_substr(const std::string& haystack,
                         const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "watch_test." + tag + "." +
         std::to_string(::getpid());
}

// ------------------------------------------------------- ProgressBoard ----

TEST(ProgressBoard, SnapshotAndPackRoundTrip) {
  ProgressBoard board;
  board.set_phase(ProgressPhase::kRefine, 100);
  board.set_level(3, 200);
  board.set_iteration(7, 300);
  board.count_pair(400);
  board.count_pair(500);

  const ProgressSnapshot snap = board.snapshot();
  EXPECT_EQ(snap.phase, ProgressPhase::kRefine);
  EXPECT_EQ(snap.level, 3u);
  EXPECT_EQ(snap.iteration, 7u);
  EXPECT_EQ(snap.pairs_executed, 2u);
  EXPECT_EQ(snap.advances, 5u);
  EXPECT_EQ(snap.last_advance_ns, 500u);

  const ProgressSnapshot wired = ProgressBoard::unpack(board.pack());
  EXPECT_EQ(wired.phase, snap.phase);
  EXPECT_EQ(wired.level, snap.level);
  EXPECT_EQ(wired.iteration, snap.iteration);
  EXPECT_EQ(wired.pairs_executed, snap.pairs_executed);
  EXPECT_EQ(wired.advances, snap.advances);
  EXPECT_EQ(wired.last_advance_ns, snap.last_advance_ns);
}

TEST(ProgressBoard, TraceSpansPublishToTheBoundBoard) {
  // TraceSpan pushes/pops on the thread's board even with tracing off —
  // span boundaries double as liveness advances for free.
  ProgressBoard board;
  const ThreadProgressScope bind(&board);
  const std::uint64_t before = board.snapshot().advances;
  {
    KAPPA_TRACE_SPAN("watch.outer");
    {
      KAPPA_TRACE_SPAN("watch.inner");
      const std::vector<const char*> open = board.open_spans();
      ASSERT_EQ(open.size(), 2u);
      EXPECT_STREQ(open[0], "watch.outer");
      EXPECT_STREQ(open[1], "watch.inner");
    }
  }
  EXPECT_TRUE(board.open_spans().empty());
  EXPECT_GE(board.snapshot().advances, before + 4);  // 2 pushes + 2 pops

  const std::vector<ProgressBoard::RecentEvent> recent =
      board.recent_events();
  ASSERT_FALSE(recent.empty());
  bool saw_inner = false;
  for (const ProgressBoard::RecentEvent& e : recent) {
    if (std::string(e.name) == "watch.inner") saw_inner = true;
  }
  EXPECT_TRUE(saw_inner);
}

TEST(ProgressBoard, RecentRingIsBounded) {
  ProgressBoard board;
  for (int i = 0; i < 40; ++i) {
    board.push_span("watch.loop", static_cast<std::uint64_t>(i));
    board.pop_span(static_cast<std::uint64_t>(i));
  }
  EXPECT_LE(board.recent_events().size(), ProgressBoard::kRecentEvents);
  EXPECT_TRUE(board.open_spans().empty());
}

// -------------------------------------------------------- WatchOptions ----

TEST(WatchOptions, EnvironmentOverridesConfig) {
  ::setenv("KAPPA_WATCH_OUT", "/tmp/env_override.jsonl", 1);
  ::setenv("KAPPA_STALL_TIMEOUT_MS", "1234", 1);
  ::setenv("KAPPA_WATCH_INTERVAL_MS", "77", 1);
  ::setenv("KAPPA_HEARTBEAT_INTERVAL_MS", "55", 1);
  const WatchOptions options = resolve_watch_options("config.jsonl", 10);
  ::unsetenv("KAPPA_WATCH_OUT");
  ::unsetenv("KAPPA_STALL_TIMEOUT_MS");
  ::unsetenv("KAPPA_WATCH_INTERVAL_MS");
  ::unsetenv("KAPPA_HEARTBEAT_INTERVAL_MS");
  EXPECT_EQ(options.snapshot_path, "/tmp/env_override.jsonl");
  EXPECT_EQ(options.stall_timeout_ms, 1234);
  EXPECT_EQ(options.sample_interval_ms, 77);
  EXPECT_EQ(options.heartbeat_interval_ms, 55);
  EXPECT_TRUE(options.enabled());

  const WatchOptions plain = resolve_watch_options("", 0);
  EXPECT_FALSE(plain.enabled());
}

TEST(WatchSink, OpensLazilyOnFirstRecord) {
  const std::string path = temp_path("lazy_sink");
  std::remove(path.c_str());
  {
    WatchSink sink(path);
    // No record appended: a watch with nothing to say leaves no file.
  }
  EXPECT_FALSE(std::ifstream(path).good());
  {
    WatchSink sink(path);
    sink.append("{\"schema\":\"kappa.snapshot.v1\"}");
  }
  EXPECT_EQ(count_substr(slurp(path), "kappa.snapshot.v1"), 1u);
  std::remove(path.c_str());
}

// ------------------------------------------- in-process liveness hooks ----

TEST(InprocWatch, QueueDepthsSeeUndrainedMailbox) {
  PERuntime runtime(2, /*seed=*/3);
  runtime.run([](PEContext& pe) {
    if (pe.rank() == 0) {
      pe.send(1, {11});
      pe.send(1, {22});
    }
    pe.barrier();  // in-process sends are delivered synchronously
    if (pe.rank() == 1) {
      const std::vector<LaneQueueDepth> depths = pe.queue_depths();
      std::size_t app_from_0 = 0;
      for (const LaneQueueDepth& d : depths) {
        if (d.source == 0 && d.lane == Lane::kApp) app_from_0 = d.depth;
      }
      if (app_from_0 != 2) throw std::logic_error("queue depth not seen");
      (void)pe.receive(0);
      (void)pe.receive(0);
    }
    pe.barrier();
  });
}

TEST(InprocWatch, PeerHealthReadsTheRegisteredBoard) {
  PERuntime runtime(2, /*seed=*/3);
  ProgressBoard board;  // outlives both rank threads
  runtime.run([&](PEContext& pe) {
    if (pe.rank() == 1) {
      const ThreadProgressScope bind(&board);
      progress_phase(ProgressPhase::kCoarsen);
      progress_level(5);
      pe.barrier();  // rank 0 checked the unregistered board
      pe.enable_watch(&board, 100);
      pe.barrier();  // board registered and populated
      pe.barrier();  // rank 0 done reading
      pe.disable_watch();
    } else {
      if (pe.peer_health(1).has_value()) {
        throw std::logic_error("heard from an unregistered peer");
      }
      pe.barrier();
      pe.barrier();
      const std::optional<PeerHealth> health = pe.peer_health(1);
      if (!health.has_value()) throw std::logic_error("no peer health");
      if (health->dead) throw std::logic_error("live peer reported dead");
      if (health->progress.phase != ProgressPhase::kCoarsen ||
          health->progress.level != 5) {
        throw std::logic_error("peer progress not visible");
      }
      pe.barrier();
    }
  });
}

// --------------------------------------------- watchdog + sampler (inproc) --

TEST(RankWatch, CleanRunEmitsSnapshotsAndNoStallReports) {
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;

  // Reference: the identical run with watch off.
  PERuntime plain_runtime(4, config.seed);
  const PartitionResult plain =
      Partitioner(Context::spmd(config, plain_runtime)).partition(g);
  ASSERT_EQ(validate_partition(g, plain.partition), "");

  const std::string path = temp_path("clean_run");
  std::remove(path.c_str());
  config.watch_out = path;
  config.stall_timeout_ms = 30000;  // generous: a clean run never stalls
  config.watch_interval_ms = 50;
  PERuntime watched_runtime(4, config.seed);
  const PartitionResult watched =
      Partitioner(Context::spmd(config, watched_runtime)).partition(g);

  // Observer-only: byte-identical partition with watch on.
  EXPECT_EQ(watched.cut, plain.cut);
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(watched.partition.block(u), plain.partition.block(u))
        << "node " << u;
  }
  EXPECT_EQ(watched.comm.messages_sent, plain.comm.messages_sent);
  EXPECT_EQ(watched.comm.words_sent, plain.comm.words_sent);
  // In-process: heartbeats never touch a wire.
  EXPECT_EQ(watched.comm.heartbeat_frames_sent, 0u);

  const std::string log = slurp(path);
  EXPECT_GE(count_substr(log, "\"schema\":\"kappa.snapshot.v1\""), 1u);
  EXPECT_EQ(count_substr(log, "kappa.stall.v1"), 0u);
  // The final snapshot saw all four ranks.
  EXPECT_GE(count_substr(log, "\"num_ranks\":4"), 1u);
  std::remove(path.c_str());
}

TEST(RankWatch, WatchdogReportsARankStuckInsideASpan) {
  const std::string path = temp_path("inproc_stall");
  std::remove(path.c_str());
  PERuntime runtime(2, /*seed=*/7);
  std::vector<ProgressBoard> boards(2);
  WatchOptions options;
  options.snapshot_path = path;
  options.stall_timeout_ms = 100;
  options.sample_interval_ms = 50;
  WatchSink sink(path);
  std::uint64_t reports_on_rank0 = 0;
  runtime.run([&](PEContext& pe) {
    const std::size_t slot = static_cast<std::size_t>(pe.rank());
    const ThreadProgressScope bind(&boards[slot]);
    progress_phase(ProgressPhase::kRefine);
    RankWatch watch(pe, boards[slot], options, &sink,
                    /*run_sampler=*/pe.rank() == 0);
    if (pe.rank() == 0) {
      KAPPA_TRACE_SPAN("test.block");
      ::usleep(400 * 1000);  // no advances for 4x the stall timeout
    }
    pe.barrier();
    if (pe.rank() == 0) reports_on_rank0 = watch.stall_reports();
  });
  EXPECT_GE(reports_on_rank0, 1u);
  const std::string log = slurp(path);
  EXPECT_GE(count_substr(log, "\"schema\":\"kappa.stall.v1\""), 1u);
  // The report names the span the rank was stuck inside.
  EXPECT_GE(count_substr(log, "test.block"), 1u);
  std::remove(path.c_str());
}

// ------------------------------------------------------ TCP multi-proc ----

/// Binds an ephemeral localhost port, closes the socket, and returns the
/// port number: free at pick time, immediately reusable by rank 0.
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

TcpOptions local_options(int rank, int num_ranks, std::uint16_t port,
                         int recv_timeout_ms = 30000) {
  TcpOptions options;
  options.rank = rank;
  options.num_ranks = num_ranks;
  options.rendezvous_host = "127.0.0.1";
  options.rendezvous_port = port;
  options.connect_timeout_ms = 20000;
  options.recv_timeout_ms = recv_timeout_ms;
  return options;
}

/// Forks one child per rank (body's return value becomes the exit code;
/// 42 on uncaught TransportError, 43 on any other exception) and returns
/// the exit codes indexed by rank. \p while_running runs in the parent
/// with the children's pids while they execute.
std::vector<int> spawn_ranks(
    int num_ranks, const std::function<int(int)>& body,
    const std::function<void(const std::vector<pid_t>&)>& while_running =
        nullptr) {
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
  if (while_running) while_running(pids);
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

TEST(TcpWatch, SigstoppedPeerIsStalledNotDeadAndTheRunRecovers) {
  // The acceptance scenario: rank 1 SIGSTOPs itself mid-run while rank 0
  // blocks in a receive. Rank 0's watchdog must classify rank 1 *stalled*
  // (connection up, no advance evidence) — not dead — and name rank 0's
  // own open span stack in the report. After SIGCONT the run completes
  // cleanly on both ranks: nobody died.
  const std::uint16_t port = pick_free_port();
  const std::string path = temp_path("tcp_stall");
  std::remove(path.c_str());
  const auto codes = spawn_ranks(
      2,
      [&](int rank) -> int {
        PERuntime runtime(make_tcp_fabric(local_options(
                              rank, 2, port, /*recv_timeout_ms=*/60000)),
                          /*seed=*/7);
        int code = 0;
        runtime.run([&](PEContext& pe) {
          ProgressBoard board;
          const ThreadProgressScope bind(&board);
          progress_phase(ProgressPhase::kRefine);
          WatchOptions options;
          options.snapshot_path = path;
          options.stall_timeout_ms = 300;
          options.sample_interval_ms = 100;
          options.heartbeat_interval_ms = 50;
          WatchSink sink(path);
          RankWatch watch(pe, board, options,
                          pe.rank() == 0 ? &sink : nullptr,
                          /*run_sampler=*/pe.rank() == 0);
          pe.barrier();
          if (pe.rank() == 1) {
            ::usleep(200 * 1000);
            ::raise(SIGSTOP);  // parent SIGCONTs us ~2 s later
            pe.send(0, {1});
          } else {
            // Last local advance, then block: the watchdog fires with
            // this span open while rank 1 is frozen.
            ::usleep(150 * 1000);
            KAPPA_TRACE_SPAN("test.wait");
            const Message msg = pe.receive(1);
            if (msg.payload != std::vector<std::uint64_t>{1}) code = 44;
            if (watch.stall_reports() == 0) code = 45;
            const std::optional<PeerHealth> health = pe.peer_health(1);
            if (!health.has_value() || health->dead) code = 46;
          }
        });
        return code;
      },
      [](const std::vector<pid_t>& pids) {
        ::usleep(2000 * 1000);
        ::kill(pids[1], SIGCONT);
      });
  EXPECT_EQ(codes, (std::vector<int>{0, 0}));
  const std::string log = slurp(path);
  EXPECT_GE(count_substr(log, "\"schema\":\"kappa.stall.v1\""), 1u);
  EXPECT_GE(count_substr(log, "test.wait"), 1u);
  // Rank 0's peers table carries the verdict on the frozen rank.
  EXPECT_GE(count_substr(log, "\"rank\":1,\"state\":\"stalled\""), 1u);
  EXPECT_EQ(count_substr(log, "\"rank\":1,\"state\":\"dead\""), 0u);
  std::remove(path.c_str());
}

TEST(TcpWatch, KilledPeerStillSurfacesAsDeadPeerError) {
  // PR 7's dead-peer guarantee survives the watch layer: an abrupt death
  // is a TransportError on the blocked receive (not reclassified as a
  // stall), and the transport's health verdict for the peer is `dead`.
  const std::uint16_t port = pick_free_port();
  const auto codes = spawn_ranks(2, [port](int rank) -> int {
    PERuntime runtime(make_tcp_fabric(local_options(rank, 2, port)),
                      /*seed=*/7);
    int code = 1;
    runtime.run([&](PEContext& pe) {
      ProgressBoard board;
      const ThreadProgressScope bind(&board);
      WatchOptions options;
      options.stall_timeout_ms = 300;
      options.heartbeat_interval_ms = 50;
      RankWatch watch(pe, board, options, nullptr, /*run_sampler=*/false);
      pe.barrier();
      if (pe.rank() == 1) {
        std::_Exit(0);  // no BYE, no teardown
      }
      try {
        (void)pe.receive(1);
        code = 44;  // a message appeared out of nowhere
      } catch (const TransportError&) {
        const std::optional<PeerHealth> health = pe.peer_health(1);
        if (health.has_value() && health->dead) throw;  // the expected path
        code = 47;  // error fired but the peer was not marked dead
      }
    });
    return code;
  });
  EXPECT_EQ(codes[0], 42);  // TransportError, with the peer marked dead
  EXPECT_EQ(codes[1], 0);
}

TEST(TcpWatch, WatchedTcpPartitionIsByteIdenticalToUnwatched) {
  const StaticGraph g = make_instance("rgg14", 11);
  Config base = Config::preset(Preset::kMinimal, 4);
  base.seed = 42;

  const auto run_and_dump = [&](const Config& config,
                                const std::string& out_path) {
    const std::uint16_t port = pick_free_port();
    return spawn_ranks(2, [&, port](int rank) -> int {
      PERuntime runtime(
          make_tcp_fabric(local_options(rank, 2, port,
                                        /*recv_timeout_ms=*/120000)),
          config.seed);
      const PartitionResult result =
          Partitioner(Context::spmd(config, runtime)).partition(g);
      if (rank != 0) return 0;
      // Watched runs must actually heartbeat; unwatched must not.
      const bool watch_on = !config.watch_out.empty();
      if (watch_on && result.comm.heartbeat_frames_sent == 0) return 48;
      if (!watch_on && result.comm.heartbeat_frames_sent != 0) return 49;
      std::FILE* out = std::fopen(out_path.c_str(), "w");
      if (out == nullptr) return 46;
      std::fprintf(out, "%lld\n", static_cast<long long>(result.cut));
      for (NodeID u = 0; u < g.num_nodes(); ++u) {
        std::fprintf(out, "%u\n", result.partition.block(u));
      }
      std::fclose(out);
      return 0;
    });
  };

  const std::string plain_path = temp_path("tcp_plain");
  ASSERT_EQ(run_and_dump(base, plain_path), (std::vector<int>{0, 0}));

  Config watched = base;
  watched.watch_out = temp_path("tcp_watch_log");
  watched.stall_timeout_ms = 60000;
  watched.heartbeat_interval_ms = 20;
  const std::string watched_path = temp_path("tcp_watched");
  ASSERT_EQ(run_and_dump(watched, watched_path), (std::vector<int>{0, 0}));

  const std::string a = slurp(plain_path);
  const std::string b = slurp(watched_path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical cut + assignment

  const std::string log = slurp(watched.watch_out);
  EXPECT_GE(count_substr(log, "\"schema\":\"kappa.snapshot.v1\""), 1u);
  EXPECT_EQ(count_substr(log, "kappa.stall.v1"), 0u);
  std::remove(plain_path.c_str());
  std::remove(watched_path.c_str());
  std::remove(watched.watch_out.c_str());
  std::remove((watched.watch_out + ".rank1").c_str());
}

}  // namespace
}  // namespace kappa
