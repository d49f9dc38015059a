/// \file transport_test.cpp
/// \brief Tests of the pluggable transport layer: the per-source mailbox,
/// fail-fast runtime construction, and the TCP socket backend — including
/// the cross-backend acceptance criterion (same seed, byte-identical
/// partition and equal modeled counters for every rank on every process,
/// from the in-process fabric and four localhost processes) and the
/// failure-surfacing guarantees (a dead or silent peer, or a hostile
/// frame, becomes a TransportError within the configured deadline, never
/// a hang or an abort).
///
/// The multi-process tests fork() before any thread exists in the child:
/// each child builds its own TCP fabric (whose receiver threads are
/// process-private) and reports through its exit status or a temp file.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>

#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
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
#include "parallel/comm_stats.hpp"
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
    const std::vector<RankCounters> stats =
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
    const CommStats& mine = stats[static_cast<std::size_t>(rank)].comm;
    if (mine.wire_bytes_sent == 0 || mine.wire_bytes_received == 0) {
      return 44;
    }
    if (runtime.primary_rank() != rank || runtime.num_pes() != 2) return 45;
    return 0;
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0}));
}

/// Rank \p q's counter record as the per-part result slots hold it
/// (comm_per_pe[q], shard_memory_per_pe[q], ..., migrated_per_pe[q] on
/// warm starts; the matching counters have no per-part slot and come
/// from the record itself).
RankCounters slot_record(const PartitionResult& result, std::size_t q) {
  RankCounters r;
  r.comm = result.comm_per_pe.at(q);
  r.shard_memory = result.shard_memory_per_pe.at(q);
  r.hierarchy_memory = result.hierarchy_memory_per_pe.at(q);
  r.partition_memory = result.partition_memory_per_pe.at(q);
  r.pair_ship = result.pair_ship_per_pe.at(q);
  if (!result.migrated_per_pe.empty()) {
    r.migration = {result.migrated_per_pe.at(q),
                   result.migrated_edges_per_pe.at(q)};
  }
  r.matching = result.counters_per_pe.at(q).matching;
  return r;
}

/// The first modeled counter (messages, words, barriers, rounds,
/// shipping, memory, coarsening, halo levels) on which \p a and \p b
/// differ, or "" if none does. Idle nanoseconds and wire bytes measure
/// the machine and the backend, so they are skipped.
std::string modeled_difference(const RankCounters& a, const RankCounters& b) {
  for (const CounterField& field : kRankCounters) {
    const std::string unit = field.unit;
    if (unit == "ns" || unit == "bytes") continue;
    if (field.of(a) != field.of(b)) {
      return std::string(field.group) + "." + field.name;
    }
  }
  const std::vector<LevelHaloStats>& x = a.comm.halo_per_level;
  const std::vector<LevelHaloStats>& y = b.comm.halo_per_level;
  if (x.size() != y.size()) return "comm.halo_per_level";
  for (std::size_t l = 0; l < x.size(); ++l) {
    if (x[l].messages != y[l].messages || x[l].words != y[l].words) {
      return "comm.halo_per_level";
    }
  }
  return "";
}

/// Exit code of a TCP rank whose result must report \p expected's
/// modeled counters for every rank, in every slot and in the aggregate,
/// plus non-zero wire bytes for every rank: 0, or the failed check.
int check_every_slot(const PartitionResult& result,
                     const PartitionResult& expected, int rank) {
  const std::size_t p = expected.counters_per_pe.size();
  if (result.counters_per_pe.size() != p || result.comm_per_pe.size() != p) {
    return 60;
  }
  for (std::size_t q = 0; q < p; ++q) {
    for (const RankCounters& got :
         {result.counters_per_pe[q], slot_record(result, q)}) {
      const std::string diff =
          modeled_difference(got, expected.counters_per_pe[q]);
      if (!diff.empty()) {
        std::fprintf(stderr, "rank %d: slot %zu differs on %s\n", rank, q,
                     diff.c_str());
        return 61;
      }
    }
    if (result.comm_per_pe[q].wire_bytes_sent == 0) return 62;
  }
  RankCounters total;
  total.comm = result.comm;
  RankCounters expected_total;
  expected_total.comm = expected.comm;
  if (!modeled_difference(total, expected_total).empty()) return 63;
  return 0;
}

TEST(TcpTransport, PartitionBitIdenticalToInprocAcrossProcesses) {
  // The cross-backend acceptance criterion: one seed, one instance — the
  // in-process fabric at p = 4 and four localhost processes over TCP must
  // produce byte-identical partitions, and every process must report the
  // in-process run's modeled counters for every rank. The run is
  // untraced: gathering the counters is not tied to tracing.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;

  PERuntime inproc_runtime(4, config.seed);
  const PartitionResult inproc =
      Partitioner(Context::spmd(config, inproc_runtime)).partition(g);
  ASSERT_EQ(validate_partition(g, inproc.partition), "");

  const std::uint16_t port = pick_free_port();
  const auto codes = spawn_ranks(4, [&](int rank) -> int {
    PERuntime runtime(
        make_tcp_fabric(local_options(rank, 4, port, /*recv_timeout_ms=*/
                                      120000)),
        config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    if (result.cut != inproc.cut) return 46;
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      if (result.partition.block(u) != inproc.partition.block(u)) return 47;
    }
    return check_every_slot(result, inproc, rank);
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0, 0, 0}));
}

TEST(TcpTransport, RepartitionReportsEveryRanksMigration) {
  // Every process reports every rank's migration intake, equal to the
  // in-process run's, and the split sums to the migrated total.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;
  Partition input =
      Partitioner(Context::sequential(config)).partition(g).partition;
  for (NodeID u = 0; u < g.num_nodes(); u += 17) {
    input.move(u, (input.block(u) + 1) % config.k, g.node_weight(u));
  }

  PERuntime inproc_runtime(4, config.seed);
  const PartitionResult inproc = Partitioner(Context::spmd(config,
                                                           inproc_runtime))
                                     .repartition(g, input);
  ASSERT_EQ(inproc.migrated_per_pe.size(), 4u);
  NodeID split = 0;
  for (const NodeID n : inproc.migrated_per_pe) split += n;
  ASSERT_EQ(split, inproc.migrated_nodes);
  ASSERT_GT(inproc.migrated_nodes, 0u);

  const std::uint16_t port = pick_free_port();
  const auto codes = spawn_ranks(4, [&](int rank) -> int {
    PERuntime runtime(
        make_tcp_fabric(local_options(rank, 4, port, /*recv_timeout_ms=*/
                                      120000)),
        config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).repartition(g, input);
    if (result.migrated_nodes != inproc.migrated_nodes) return 46;
    if (result.migrated_per_pe != inproc.migrated_per_pe) return 47;
    if (result.migrated_edges_per_pe != inproc.migrated_edges_per_pe) {
      return 48;
    }
    return check_every_slot(result, inproc, rank);
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0, 0, 0}));
}

TEST(TcpTransport, ReusedRuntimeReportsPerRunWireBytesForEveryRank) {
  // Two runs on one TCP runtime: every slot reports this run's wire bytes
  // (the same in both runs), never the endpoint's lifetime total. Bytes
  // received are left out: a fast peer's record frame may land before
  // this rank captures its counters.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;
  const std::uint16_t port = pick_free_port();
  const auto codes = spawn_ranks(3, [&](int rank) -> int {
    PERuntime runtime(
        make_tcp_fabric(local_options(rank, 3, port, /*recv_timeout_ms=*/
                                      120000)),
        config.seed);
    const Partitioner partitioner(Context::spmd(config, runtime));
    const PartitionResult first = partitioner.partition(g);
    const PartitionResult second = partitioner.partition(g);
    if (first.comm_per_pe.size() != 3 || second.comm_per_pe.size() != 3) {
      return 46;
    }
    for (std::size_t q = 0; q < 3; ++q) {
      const std::uint64_t sent = first.comm_per_pe[q].wire_bytes_sent;
      if (sent == 0) return 47;
      if (second.comm_per_pe[q].wire_bytes_sent != sent) {
        std::fprintf(stderr, "rank %d: slot %zu sent %llu then %llu\n",
                     rank, q, static_cast<unsigned long long>(sent),
                     static_cast<unsigned long long>(
                         second.comm_per_pe[q].wire_bytes_sent));
        return 48;
      }
    }
    return 0;
  });
  EXPECT_EQ(codes, (std::vector<int>{0, 0, 0}));
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

/// The exception a test program injects into one rank.
struct InjectedFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST(TcpTransport, ARankThatThrowsFailsEveryProcessInsteadOfHangingIt) {
  // The TCP twin of PERuntime.ARankThatThrowsFailsTheRunInsteadOfHangingIt:
  // one process per rank runs a barrier, an all-gather of vectors, a named
  // receive around a ring, and again — except that rank r throws just
  // before its i-th. Its process must end with the injected error; every
  // peer is blocked in, or about to enter, an operation the failed rank
  // never joins and must end with a TransportError. A peer that waited
  // for its receive deadline instead would push the case past kMaxCase.
  constexpr int kOps = 6;
  constexpr int kInjected = 7;
  constexpr auto kMaxCase = std::chrono::seconds(10);
  for (const int p : {2, 3, 4}) {
    for (int failing = 0; failing < p; ++failing) {
      for (const int before : {0, 1, 3}) {
        const std::string what = "rank " + std::to_string(failing) +
                                 " before op " + std::to_string(before);
        const std::uint16_t port = pick_free_port();
        const auto start = std::chrono::steady_clock::now();
        const auto codes = spawn_ranks(p, [&](int rank) -> int {
          PERuntime runtime(make_tcp_fabric(local_options(rank, p, port)));
          try {
            runtime.run([&](PEContext& pe) {
              for (int op = 0; op < kOps; ++op) {
                if (pe.rank() == failing && op == before) {
                  throw InjectedFailure(what);
                }
                switch (op % 3) {
                  case 0:
                    pe.barrier();
                    break;
                  case 1:
                    (void)pe.all_gather_vectors(
                        {static_cast<std::uint64_t>(pe.rank())});
                    break;
                  default:
                    pe.send((pe.rank() + 1) % p, {7});
                    (void)pe.receive((pe.rank() + p - 1) % p);
                    break;
                }
              }
            });
          } catch (const InjectedFailure& error) {
            return std::string(error.what()) == what ? kInjected : 44;
          }
          return 0;  // the run returned
        });
        std::vector<int> expected(static_cast<std::size_t>(p), 42);
        expected[static_cast<std::size_t>(failing)] = kInjected;
        EXPECT_EQ(codes, expected) << "p=" << p << " " << what;
        EXPECT_LT(std::chrono::steady_clock::now() - start, kMaxCase)
            << "p=" << p << " " << what;
      }
    }
  }
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

/// Fake rank 1 of a two-rank run that completes the rendezvous and its
/// barrier pulse, then sends one application-frame header claiming
/// \p words payload words and closes without sending any of them. It
/// reads rank 0's pulse first, so the close is a clean EOF, not a reset.
int fake_rank1_header_then_eof(std::uint16_t port, std::uint64_t words) {
  const int fd = fake_rank1_rendezvous(port);
  if (fd < 0) return 1;
  const timeval timeout{30, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  std::uint64_t pulse[2];
  std::size_t got = 0;
  while (got < sizeof pulse) {
    const ssize_t n = ::recv(fd, reinterpret_cast<char*>(pulse) + got,
                             sizeof pulse - got, 0);
    if (n <= 0) {
      ::close(fd);
      return 2;
    }
    got += static_cast<std::size_t>(n);
  }
  // Frame headers {tag, payload words}: tag 1 is the collective lane
  // (the barrier pulse), tag 0 the application lane.
  const std::uint64_t frames[4] = {1, 0, 0, words};
  const bool sent = ::send(fd, frames, sizeof frames, MSG_NOSIGNAL) ==
                    static_cast<ssize_t>(sizeof frames);
  ::close(fd);
  return sent ? 0 : 3;
}

/// Caps this process's address space at its current size (from
/// /proc/self/statm) plus \p extra bytes.
bool limit_address_space(std::uint64_t extra) {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return false;
  unsigned long long pages = 0;
  const bool read = std::fscanf(statm, "%llu", &pages) == 1;
  std::fclose(statm);
  rlimit limit{};
  if (!read || ::getrlimit(RLIMIT_AS, &limit) != 0) return false;
  const std::uint64_t cap =
      pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) + extra;
  limit.rlim_cur = std::min<rlim_t>(static_cast<rlim_t>(cap), limit.rlim_max);
  return ::setrlimit(RLIMIT_AS, &limit) == 0;
}

TEST(TcpTransport, OversizedFrameHeaderIsAnErrorNotAnAllocation) {
  // A header claiming 2^32 words (32 GiB) must not make rank 0 allocate
  // ahead of the bytes: under a 4 GiB address-space headroom the EOF
  // that follows must surface as TransportError, not std::bad_alloc.
  const std::uint16_t port = pick_free_port();
  const auto codes = spawn_ranks(2, [port](int rank) -> int {
    if (rank == 1) {
      return fake_rank1_header_then_eof(port, std::uint64_t{1} << 32);
    }
    if (!limit_address_space(std::uint64_t{4} << 30)) return 3;
    const auto fabric = make_tcp_fabric(local_options(0, 2, port));
    (void)fabric->endpoint(0).receive(1, Lane::kApp);
    return 2;  // a message was delivered
  });
  EXPECT_EQ(codes[0], 42);  // TransportError
  EXPECT_EQ(codes[1], 0);
}

TEST(TcpTransport, EofAfterFrameHeaderIsAnErrorNotAMessage) {
  // The peer closes right after a 3-word header: the zero-filled payload
  // must never be delivered as a message.
  const std::uint16_t port = pick_free_port();
  const auto codes = spawn_ranks(2, [port](int rank) -> int {
    if (rank == 1) return fake_rank1_header_then_eof(port, 3);
    const auto fabric = make_tcp_fabric(local_options(0, 2, port));
    (void)fabric->endpoint(0).receive(1, Lane::kApp);
    return 2;  // a message was delivered
  });
  EXPECT_EQ(codes[0], 42);  // TransportError
  EXPECT_EQ(codes[1], 0);
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
