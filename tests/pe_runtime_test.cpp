/// \file pe_runtime_test.cpp
/// \brief Tests for the thread-based PE runtime (the MPI substitute).
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <system_error>

#include "parallel/pe_runtime.hpp"
#include "util/random.hpp"

namespace kappa {
namespace {

TEST(PERuntime, RanksAreDistinctAndComplete) {
  PERuntime runtime(6);
  std::atomic<std::uint64_t> rank_mask{0};
  runtime.run([&](PEContext& pe) {
    rank_mask.fetch_or(std::uint64_t{1} << pe.rank());
    EXPECT_EQ(pe.size(), 6);
  });
  EXPECT_EQ(rank_mask.load(), 0b111111u);
}

TEST(PERuntime, PingPong) {
  PERuntime runtime(2);
  runtime.run([&](PEContext& pe) {
    if (pe.rank() == 0) {
      pe.send(1, {42, 7});
      const Message reply = pe.receive(1);
      EXPECT_EQ(reply.payload, (std::vector<std::uint64_t>{43, 8}));
    } else {
      const Message msg = pe.receive(0);
      EXPECT_EQ(msg.source, 0);
      pe.send(0, {msg.payload[0] + 1, msg.payload[1] + 1});
    }
  });
}

TEST(PERuntime, FIFOPerSource) {
  PERuntime runtime(2);
  runtime.run([&](PEContext& pe) {
    if (pe.rank() == 0) {
      for (std::uint64_t i = 0; i < 100; ++i) pe.send(1, {i});
    } else {
      for (std::uint64_t i = 0; i < 100; ++i) {
        EXPECT_EQ(pe.receive(0).payload[0], i);
      }
    }
  });
}

TEST(PERuntime, ManyToOneGather) {
  PERuntime runtime(8);
  runtime.run([&](PEContext& pe) {
    if (pe.rank() != 0) {
      pe.send(0, {static_cast<std::uint64_t>(pe.rank())});
    } else {
      std::uint64_t sum = 0;
      for (int q = 1; q < 8; ++q) sum += pe.receive(q).payload[0];
      EXPECT_EQ(sum, 1u + 2 + 3 + 4 + 5 + 6 + 7);
    }
  });
}

TEST(PERuntime, AllReduceSumAndMax) {
  PERuntime runtime(5);
  runtime.run([&](PEContext& pe) {
    const std::uint64_t rank = static_cast<std::uint64_t>(pe.rank());
    EXPECT_EQ(pe.all_reduce_sum(rank + 1), 15u);
    EXPECT_EQ(pe.all_reduce_max(rank * 10), 40u);
    // Repeated collectives stay consistent (barrier discipline).
    EXPECT_EQ(pe.all_reduce_sum(1), 5u);
  });
}

TEST(PERuntime, AllReduceSumVecRejectsAContributionOfAnotherLength) {
  // A peer's vector is outside input: summed unchecked, a shorter one
  // would be read past its end.
  PERuntime runtime(2);
  EXPECT_THROW(runtime.run([](PEContext& pe) {
                 (void)pe.all_reduce_sum_vec(std::vector<std::uint64_t>(
                     1 + static_cast<std::size_t>(pe.rank()), 1));
               }),
               TransportError);
}

TEST(PERuntime, AllGatherRejectsAPeerPayloadOfAnotherLength) {
  // A scalar all-gather takes exactly one word from every peer: an empty
  // payload must not be read past its end, and a longer one must not be
  // cut to its first word. all_reduce_sum/max and the per-shard gathers
  // sit on this collective.
  for (const std::vector<std::uint64_t>& peer_payload :
       {std::vector<std::uint64_t>{}, std::vector<std::uint64_t>{5, 6}}) {
    PERuntime runtime(2);
    EXPECT_THROW(runtime.run([&](PEContext& pe) {
                   if (pe.rank() == 0) {
                     (void)pe.all_gather(7);
                   } else {
                     (void)pe.all_gather_vectors(peer_payload);
                   }
                 }),
                 TransportError)
        << "peer payload of " << peer_payload.size() << " words";
  }
}

TEST(PERuntime, AllGatherOrdersByRank) {
  PERuntime runtime(4);
  runtime.run([&](PEContext& pe) {
    const auto gathered =
        pe.all_gather(static_cast<std::uint64_t>(pe.rank()) * 2);
    EXPECT_EQ(gathered, (std::vector<std::uint64_t>{0, 2, 4, 6}));
  });
}

TEST(PERuntime, AllGatherVectorsOrdersByRankWithRaggedLengths) {
  PERuntime runtime(4);
  runtime.run([&](PEContext& pe) {
    // Rank r contributes r words (rank 0 an empty buffer).
    std::vector<std::uint64_t> payload(
        static_cast<std::size_t>(pe.rank()),
        static_cast<std::uint64_t>(pe.rank()) * 100);
    const auto gathered = pe.all_gather_vectors(payload);
    ASSERT_EQ(gathered.size(), 4u);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(gathered[r].size(), static_cast<std::size_t>(r));
      for (const std::uint64_t w : gathered[r]) {
        EXPECT_EQ(w, static_cast<std::uint64_t>(r) * 100);
      }
    }
  });
}

TEST(PERuntime, AllGatherVectorsRepeatsStayConsistent) {
  PERuntime runtime(3);
  runtime.run([&](PEContext& pe) {
    for (std::uint64_t round = 0; round < 10; ++round) {
      const auto gathered = pe.all_gather_vectors(
          {round, static_cast<std::uint64_t>(pe.rank())});
      for (int r = 0; r < 3; ++r) {
        ASSERT_EQ(gathered[r],
                  (std::vector<std::uint64_t>{
                      round, static_cast<std::uint64_t>(r)}));
      }
    }
  });
}

TEST(PERuntime, AllGatherVectorsCountsTraffic) {
  PERuntime runtime(2);
  const std::vector<RankCounters> per_rank = runtime.run([&](PEContext& pe) {
    (void)pe.all_gather_vectors({1, 2, 3});
  });
  // Every PE delivers its 3-word contribution to the one other rank.
  const CommStats stats = fold_counters(per_rank).comm;
  EXPECT_EQ(stats.words_sent, 6u);
  EXPECT_EQ(stats.messages_sent, 2u);
}

TEST(PERuntime, CollectivesCountPerDestinationRank) {
  // Pinned counts for a known exchange at p = 4: a collective costs one
  // message plus one payload copy per *destination* rank (3 here), never
  // one per call.
  PERuntime runtime(4);
  const std::vector<RankCounters> per_rank = runtime.run([&](PEContext& pe) {
    (void)pe.all_gather(7);  // 1 word to each of 3 destinations
    (void)pe.all_gather_vectors(
        std::vector<std::uint64_t>(static_cast<std::size_t>(pe.rank()), 1));
    std::vector<std::uint64_t> payload;
    if (pe.rank() == 2) payload.assign(5, 9);
    (void)pe.broadcast(payload, 2);  // only the root sends: 5 words x 3
  });
  ASSERT_EQ(per_rank.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    const std::uint64_t rank = static_cast<std::uint64_t>(r);
    const std::uint64_t root_msgs = r == 2 ? 3u : 0u;
    const std::uint64_t root_words = r == 2 ? 15u : 0u;
    EXPECT_EQ(per_rank[r].comm.messages_sent, 6u + root_msgs) << "rank " << r;
    EXPECT_EQ(per_rank[r].comm.words_sent, 3u + 3u * rank + root_words)
        << "rank " << r;
  }
}

TEST(PERuntime, SinglePeCollectivesPutNothingOnTheWire) {
  PERuntime runtime(1);
  const std::vector<RankCounters> per_rank = runtime.run([&](PEContext& pe) {
    (void)pe.all_gather(1);
    (void)pe.all_gather_vectors({1, 2});
    (void)pe.broadcast({3}, 0);
    EXPECT_EQ(pe.all_reduce_sum(5), 5u);
  });
  EXPECT_EQ(per_rank[0].comm.messages_sent, 0u);
  EXPECT_EQ(per_rank[0].comm.words_sent, 0u);
}

TEST(PERuntime, BroadcastFromEveryRoot) {
  PERuntime runtime(4);
  runtime.run([&](PEContext& pe) {
    for (int root = 0; root < 4; ++root) {
      std::vector<std::uint64_t> payload;
      if (pe.rank() == root) {
        payload = {static_cast<std::uint64_t>(root), 99};
      }
      const auto result = pe.broadcast(payload, root);
      EXPECT_EQ(result,
                (std::vector<std::uint64_t>{static_cast<std::uint64_t>(root),
                                            99}));
    }
  });
}

TEST(PERuntime, RngStreamsDifferAcrossPEsButReplayDeterministically) {
  std::vector<std::uint64_t> first_run(4);
  std::vector<std::uint64_t> second_run(4);
  for (auto* out : {&first_run, &second_run}) {
    PERuntime runtime(4, /*seed=*/99);
    runtime.run([&](PEContext& pe) {
      (*out)[pe.rank()] = pe.rng()();
    });
  }
  EXPECT_EQ(first_run, second_run);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      EXPECT_NE(first_run[i], first_run[j]);
    }
  }
}

TEST(PERuntime, CommStatsCountTraffic) {
  PERuntime runtime(3);
  const std::vector<RankCounters> per_rank = runtime.run([&](PEContext& pe) {
    if (pe.rank() == 0) {
      pe.send(1, {1, 2, 3});
      pe.send(2, {4});
    }
    pe.barrier();
    if (pe.rank() != 0) (void)pe.try_receive(0);
  });
  // run() surfaces the counters per rank: all traffic of this program
  // originates at rank 0, but every rank passes the barrier.
  ASSERT_EQ(per_rank.size(), 3u);
  EXPECT_EQ(per_rank[0].comm.messages_sent, 2u);
  EXPECT_EQ(per_rank[0].comm.words_sent, 4u);
  EXPECT_EQ(per_rank[1].comm.messages_sent, 0u);
  EXPECT_EQ(per_rank[2].comm.messages_sent, 0u);
  for (const RankCounters& s : per_rank) EXPECT_GE(s.comm.barriers, 1u);

  const CommStats stats = fold_counters(per_rank).comm;
  EXPECT_EQ(stats.messages_sent, 2u);
  EXPECT_EQ(stats.words_sent, 4u);
  EXPECT_GE(stats.barriers, 1u);
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

TEST(PERuntime, FailedThreadStartThrowsInsteadOfTerminating) {
  // run() starts one thread per rank. Under a tight address-space cap a
  // later start fails after earlier ones succeeded: the started ranks
  // must not be inside their program (they would wait in the first
  // collective for the rank that never started), and the run must join
  // them and throw rather than destroy joinable threads (std::terminate).
  // The headroom sweep covers no start, some starts and every start with
  // 8 MiB thread stacks; each child exits normally or the test fails.
  for (const std::uint64_t headroom_mb : {4, 8, 12, 16, 20, 40}) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::alarm(30);  // a hung run dies by SIGALRM, reported below
      int code = 3;
      try {
        PERuntime runtime(4);
        if (!limit_address_space(headroom_mb << 20)) ::_exit(4);
        runtime.run([](PEContext& pe) { pe.barrier(); });
        code = 0;
      } catch (const std::system_error&) {
        code = 1;
      } catch (const std::bad_alloc&) {
        code = 2;
      } catch (...) {
      }
      ::_exit(code);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_FALSE(WIFSIGNALED(status))
        << "+" << headroom_mb << " MiB: killed by signal " << WTERMSIG(status);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_LE(WEXITSTATUS(status), 2) << "+" << headroom_mb << " MiB";
  }
}

/// The exception a test program injects into one rank.
struct InjectedFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST(PERuntime, ARankThatThrowsFailsTheRunInsteadOfHangingIt) {
  // Every rank runs the same operations — a barrier, an all-gather of
  // vectors, a named receive around a ring, and again — except that rank
  // r throws just before its i-th. The others are then blocked in (or
  // about to enter) an operation the failed rank never joins; each must
  // raise instead of waiting, and run() must rethrow the injected
  // exception, not one of the TransportErrors it caused.
  constexpr int kOps = 6;
  for (const int p : {2, 3, 4}) {
    for (int failing = 0; failing < p; ++failing) {
      for (const int before : {0, 1, 3}) {
        const std::string what = "rank " + std::to_string(failing) +
                                 " before op " + std::to_string(before);
        PERuntime runtime(p);
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
          ADD_FAILURE() << "p=" << p << " " << what << ": run returned";
        } catch (const InjectedFailure& error) {
          EXPECT_EQ(std::string(error.what()), what) << "p=" << p;
        } catch (const std::exception& error) {
          ADD_FAILURE() << "p=" << p << " " << what
                        << ": rethrew a consequent error: " << error.what();
        }
      }
    }
  }
}

TEST(PERuntime, AFailedRuntimeStaysFailed) {
  PERuntime runtime(2);
  EXPECT_THROW(runtime.run([](PEContext& pe) {
                 if (pe.rank() == 1) throw InjectedFailure("first run");
                 pe.barrier();
               }),
               InjectedFailure);
  EXPECT_THROW(runtime.run([](PEContext& pe) { pe.barrier(); }),
               TransportError);
}

}  // namespace
}  // namespace kappa
