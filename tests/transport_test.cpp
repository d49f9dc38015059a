/// \file transport_test.cpp
/// \brief Tests of the pluggable transport layer: the per-source mailbox,
/// fail-fast runtime construction, and the TCP socket backend — including
/// the cross-backend acceptance criterion (same seed, byte-identical
/// partition from the in-process fabric and four localhost processes) and
/// the failure-surfacing guarantees (a dead or silent peer becomes a
/// TransportError within the configured deadline, never a hang).
///
/// The multi-process tests fork() before any thread exists in the child:
/// each child builds its own TCP fabric (whose receiver threads are
/// process-private) and reports through its exit status or a temp file.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>

#include <netinet/in.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/validation.hpp"
#include "parallel/channel.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/transport_tcp.hpp"

namespace kappa {
namespace {

// ------------------------------------------------------------ Mailbox ----

TEST(Mailbox, FifoPerSource) {
  Mailbox box;
  box.push({1, {10}});
  box.push({2, {20}});
  box.push({1, {11}});
  EXPECT_EQ(box.size(), 3u);
  EXPECT_EQ(box.pop(1).payload, (std::vector<std::uint64_t>{10}));
  EXPECT_EQ(box.pop(1).payload, (std::vector<std::uint64_t>{11}));
  EXPECT_EQ(box.pop(2).payload, (std::vector<std::uint64_t>{20}));
  EXPECT_EQ(box.size(), 0u);
}

TEST(Mailbox, PopUntilTimesOutEmpty) {
  Mailbox box;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  EXPECT_FALSE(box.pop_until(0, deadline).has_value());
  EXPECT_LT(std::chrono::steady_clock::now(),
            deadline + std::chrono::seconds(5));
}

TEST(Mailbox, FinishedSourceDrainsThenThrows) {
  Mailbox box;
  box.push({0, {7}});
  box.finish_source(0);
  EXPECT_EQ(box.pop(0).payload, (std::vector<std::uint64_t>{7}));
  EXPECT_THROW((void)box.pop(0), TransportError);
}

TEST(Mailbox, FailPoisonsEveryPop) {
  Mailbox box;
  box.push({0, {7}});
  box.fail("peer died");
  EXPECT_THROW((void)box.pop(0), TransportError);
  EXPECT_THROW((void)box.try_pop(0), TransportError);
}

TEST(Mailbox, NegativeSourceIsRejectedNotAnySource) {
  // Every receive names its source; -1 is an argument error, raised at
  // once instead of blocking or matching whichever message came first.
  Mailbox box;
  box.push({0, {7}});
  EXPECT_THROW((void)box.try_pop(-1), std::invalid_argument);
  EXPECT_THROW((void)box.pop(-1), std::invalid_argument);
  EXPECT_EQ(box.size(), 1u);
}

// ------------------------------------- fail-fast runtime construction ----

TEST(PERuntimeValidation, RejectsNonPositivePeCount) {
  EXPECT_THROW(PERuntime runtime(0), std::invalid_argument);
  EXPECT_THROW(PERuntime runtime(-2), std::invalid_argument);
}

TEST(PESubGroupValidation, RejectsMalformedLocalArguments) {
  PERuntime runtime(1);
  runtime.run([&](PEContext& pe) {
    // Owner outside the rank range.
    EXPECT_THROW(PESubGroup(pe, {5}, {}), std::invalid_argument);
    // A rank is not its own neighbor.
    EXPECT_THROW(PESubGroup(pe, {0}, {0}), std::invalid_argument);
    // Neighbor outside the rank range.
    EXPECT_THROW(PESubGroup(pe, {0}, {3}), std::invalid_argument);
  });
}

TEST(PESubGroupValidation, DuplicateNeighborThrows) {
  PERuntime runtime(2);
  runtime.run([&](PEContext& pe) {
    const int other = 1 - pe.rank();
    EXPECT_THROW(PESubGroup(pe, {0, 1}, {other, other}),
                 std::invalid_argument);
  });
}

TEST(PESubGroupValidation, AsymmetricNeighborListsThrowOnEveryRank) {
  // Rank 0 lists rank 1 but not vice versa — exchange() would deadlock
  // (rank 0 waits forever for a bundle rank 1 never sends). validate()
  // turns that into an immediate error on *every* rank; debug builds run
  // it automatically at construction.
  PERuntime runtime(2);
  runtime.run([&](PEContext& pe) {
    std::vector<int> neighbors;
    if (pe.rank() == 0) neighbors.push_back(1);
    EXPECT_THROW(
        {
          PESubGroup group(pe, {0, 1}, neighbors);
          group.validate();
        },
        std::invalid_argument);
  });
}

TEST(PESubGroupValidation, MismatchedOwnerMapsThrowOnEveryRank) {
  PERuntime runtime(2);
  runtime.run([&](PEContext& pe) {
    // Symmetric neighbors, but the ranks disagree on who hosts virtual
    // PE 1 — rank-local routing would silently diverge.
    const std::vector<int> owner =
        pe.rank() == 0 ? std::vector<int>{0, 1} : std::vector<int>{0, 0};
    EXPECT_THROW(
        {
          PESubGroup group(pe, owner, {1 - pe.rank()});
          group.validate();
        },
        std::invalid_argument);
  });
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

/// Forks one child per rank; each runs \p body(rank) and exits with its
/// return value (42 on uncaught TransportError, 43 on any other
/// exception). Returns the children's exit codes indexed by rank.
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

TEST(TcpTransport, PingPongCollectivesAndWireBytes) {
  const std::uint16_t port = pick_free_port();
  const auto codes = spawn_ranks(2, [port](int rank) -> int {
    PERuntime runtime(make_tcp_fabric(local_options(rank, 2, port)),
                      /*seed=*/7);
    const std::vector<CommStats> stats =
        runtime.run([](PEContext& pe) {
          // Point-to-point ping-pong on the application lane.
          if (pe.rank() == 0) {
            pe.send(1, {1, 2, 3});
            const Message echo = pe.receive(1);
            if (echo.payload != std::vector<std::uint64_t>{3, 2, 1}) {
              throw std::logic_error("bad echo");
            }
          } else {
            const Message ping = pe.receive(0);
            pe.send(0, {ping.payload[2], ping.payload[1], ping.payload[0]});
          }
          // The full collective family, generic over transport p2p.
          if (pe.all_reduce_sum(static_cast<std::uint64_t>(pe.rank()) + 1) !=
              3) {
            throw std::logic_error("bad all_reduce_sum");
          }
          if (pe.all_gather(static_cast<std::uint64_t>(pe.rank()) * 10) !=
              std::vector<std::uint64_t>{0, 10}) {
            throw std::logic_error("bad all_gather");
          }
          const auto ragged = pe.all_gather_vectors(std::vector<std::uint64_t>(
              static_cast<std::size_t>(pe.rank()) + 1, 9));
          if (ragged[0].size() != 1 || ragged[1].size() != 2) {
            throw std::logic_error("bad all_gather_vectors");
          }
          const auto word =
              pe.broadcast(pe.rank() == 1
                               ? std::vector<std::uint64_t>{77}
                               : std::vector<std::uint64_t>{},
                           1);
          if (word != std::vector<std::uint64_t>{77}) {
            throw std::logic_error("bad broadcast");
          }
          pe.barrier();
        });
    // Only this process's rank is populated; real socket traffic flowed.
    const CommStats& mine = stats[static_cast<std::size_t>(rank)];
    if (mine.wire_bytes_sent == 0 || mine.wire_bytes_received == 0) {
      return 44;
    }
    if (runtime.primary_rank() != rank || runtime.num_pes() != 2) return 45;
    return 0;
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0}));
}

TEST(TcpTransport, PartitionBitIdenticalToInprocAcrossProcesses) {
  // The cross-backend acceptance criterion: one seed, one instance — the
  // in-process fabric at p = 4 and four localhost processes over TCP must
  // produce byte-identical partitions and identical modeled comm totals.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;

  PERuntime inproc_runtime(4, config.seed);
  const PartitionResult inproc =
      Partitioner(Context::spmd(config, inproc_runtime)).partition(g);
  ASSERT_EQ(validate_partition(g, inproc.partition), "");

  const std::uint16_t port = pick_free_port();
  const std::string path =
      ::testing::TempDir() + "transport_bit_identity." +
      std::to_string(::getpid());
  const auto codes = spawn_ranks(4, [&](int rank) -> int {
    PERuntime runtime(
        make_tcp_fabric(local_options(rank, 4, port, /*recv_timeout_ms=*/
                                      120000)),
        config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    // Every rank holds the full result; rank 0 reports it to the parent.
    if (rank != 0) return 0;
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return 46;
    std::fprintf(out, "%lld %llu %llu\n", static_cast<long long>(result.cut),
                 static_cast<unsigned long long>(result.comm.messages_sent),
                 static_cast<unsigned long long>(result.comm.words_sent));
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      std::fprintf(out, "%u\n", result.partition.block(u));
    }
    std::fclose(out);
    return 0;
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0, 0, 0}));

  std::FILE* in = std::fopen(path.c_str(), "r");
  ASSERT_NE(in, nullptr);
  long long cut = -1;
  unsigned long long messages = 0;
  unsigned long long words = 0;
  ASSERT_EQ(std::fscanf(in, "%lld %llu %llu", &cut, &messages, &words), 3);
  EXPECT_EQ(cut, static_cast<long long>(inproc.cut));
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    unsigned block = 0;
    ASSERT_EQ(std::fscanf(in, "%u", &block), 1) << "node " << u;
    ASSERT_EQ(block, inproc.partition.block(u)) << "node " << u;
  }
  std::fclose(in);
  std::remove(path.c_str());
  // The wire model is backend-independent: rank 0's modeled counters must
  // match the in-process run's rank 0 exactly.
  EXPECT_EQ(messages, inproc.comm_per_pe[0].messages_sent);
  EXPECT_EQ(words, inproc.comm_per_pe[0].words_sent);
}

TEST(TcpTransport, DeadPeerSurfacesAsErrorNotHang) {
  const std::uint16_t port = pick_free_port();
  const auto start = std::chrono::steady_clock::now();
  const auto codes = spawn_ranks(2, [port](int rank) -> int {
    auto fabric = make_tcp_fabric(local_options(rank, 2, port));
    if (rank == 1) {
      // Dies abruptly after the mesh is up: no BYE, no graceful close of
      // the runtime — rank 0 must see the EOF as a TransportError.
      std::_Exit(0);
    }
    Transport& pe = fabric->endpoint(0);
    (void)pe.receive(1, Lane::kApp);  // never sent -> peer-death error
    return 1;                         // unreachable
  });
  EXPECT_EQ(codes[0], 42);  // TransportError
  EXPECT_EQ(codes[1], 0);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(60));
}

/// Rendezvous half of a TCP rank, for a fake rank 1 of a two-rank run:
/// sends the 5-word hello {magic, protocol version, rank, num_ranks,
/// listen port} to rank 0, reads its 4-word address table and returns the
/// connected socket — or -1 if rank 0 never showed up.
int fake_rank1_rendezvous(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  for (int attempt = 0; attempt < 400; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      ::usleep(50 * 1000);  // rank 0 is not listening yet
      continue;
    }
    const std::uint64_t hello[5] = {0x6b6150506154ull, 1, 1, 2, 0};
    std::uint64_t table[4];
    if (::send(fd, hello, sizeof hello, MSG_NOSIGNAL) !=
        static_cast<ssize_t>(sizeof hello)) {
      ::close(fd);
      return -1;
    }
    std::size_t got = 0;
    while (got < sizeof table) {
      const ssize_t n =
          ::recv(fd, reinterpret_cast<char*>(table) + got, sizeof table - got,
                 0);
      if (n <= 0) {
        ::close(fd);
        return -1;
      }
      got += static_cast<std::size_t>(n);
    }
    return fd;
  }
  return -1;
}

TEST(TcpTransport, PeerLostBeforeRendezvousBarrierIsAnError) {
  // Rank 1 completes the rendezvous and closes before its barrier pulse,
  // so rank 0's constructor fails in its closing barrier — after its
  // receiver threads started. That must surface as TransportError, not
  // as std::terminate on the half-built endpoint's joinable threads.
  const std::uint16_t port = pick_free_port();
  const auto start = std::chrono::steady_clock::now();
  const auto codes = spawn_ranks(2, [port](int rank) -> int {
    if (rank == 1) {
      const int fd = fake_rank1_rendezvous(port);
      if (fd < 0) return 1;
      ::close(fd);
      return 0;
    }
    const auto fabric = make_tcp_fabric(local_options(0, 2, port));
    return 2;  // the constructor must have thrown
  });
  EXPECT_EQ(codes[0], 42);  // TransportError
  EXPECT_EQ(codes[1], 0);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(60));
}

TEST(TcpTransport, SilentPeerHitsReceiveDeadline) {
  const std::uint16_t port = pick_free_port();
  const auto start = std::chrono::steady_clock::now();
  const auto codes = spawn_ranks(2, [port](int rank) -> int {
    auto fabric = make_tcp_fabric(
        local_options(rank, 2, port, /*recv_timeout_ms=*/1000));
    if (rank == 1) {
      // Alive but silent: holds the connection open without sending.
      ::usleep(4000 * 1000);
      return 0;
    }
    Transport& pe = fabric->endpoint(0);
    try {
      (void)pe.receive(1, Lane::kApp);
      return 1;  // a message appeared out of nowhere
    } catch (const TransportError&) {
      return 0;  // the deadline fired
    }
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0}));
  // Deadline semantics: the error fired near the 1 s deadline, not after
  // the silent peer's 4 s nap (and certainly not never).
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(30));
}

}  // namespace
}  // namespace kappa
