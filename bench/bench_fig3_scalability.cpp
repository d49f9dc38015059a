/// \file bench_fig3_scalability.cpp
/// \brief Regenerates Figure 3: total time as a function of the number of
/// PEs (= blocks k) for the three KaPPa variants and the other tools.
///
/// The paper scales k = p from 4 to 1024 on a 200-node cluster and shows
/// (a) KaPPa's total time growing gently with k while staying within an
/// order of magnitude, (b) parMetis hitting its scalability limit around
/// 100 PEs, (c) the KaPPa variants ordered strong > fast > minimal in
/// time at every k. On one machine we sweep k with the SPMD pipeline on
/// p = min(k, 16) in-process ranks (oversubscribed beyond the core
/// count), and additionally report the machine-independent communication
/// shape of the parallel phases: gap-graph size from the parallel
/// matching and the SPMD pipeline's per-PE message, word and barrier
/// counters.
#include <sys/socket.h>
#include <sys/wait.h>

#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "coarsening/prepartition.hpp"
#include "generators/generators.hpp"
#include "graph/metrics.hpp"
#include "harness.hpp"
#include "matching/parallel_match.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/transport_tcp.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace {

/// Binds an ephemeral localhost port and returns its number (closed
/// again, immediately reusable as the rendezvous port).
std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kappa;
  using namespace kappa::bench;
  const int reps = repetitions(argc, argv, 2);
  const std::vector<BlockID> ks = {4, 8, 16, 32, 64, 128};
  bool tcp_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tcp-only") == 0) tcp_only = true;
  }

  // One SPMD run spanning processes: the same pipeline on the TCP socket
  // fabric, p localhost processes with one rank each, against the
  // in-process (thread) backend. Same seed => identical cut on every
  // backend and every p; the TCP column adds the real socket bytes rank 0
  // put on the wire. Runs first so `--tcp-only` can sweep it alone.
  {
    const StaticGraph instance = make_instance("rgg15");
    Config config = Config::preset(Preset::kFast, 16);
    config.seed = 1;
    print_table_header(
        "Figure 3 (companion): one run spanning processes — inproc threads "
        "vs TCP sockets, rgg15, k=16",
        {"PEs", "backend", "cut", "time[s]", "r0 wire sent[MB]",
         "r0 wire recv[MB]"});
    for (const int pes : {1, 2, 4, 8}) {
      {
        PERuntime runtime(pes, config.seed);
        Timer timer;
        const PartitionResult result =
            Partitioner(Context::spmd(config, runtime)).partition(instance);
        print_row({std::to_string(pes), "inproc",
                   std::to_string(result.cut), fmt(timer.elapsed_s(), 2),
                   "0", "0"});
      }
      const std::uint16_t port = pick_free_port();
      int fds[2];
      if (::pipe(fds) != 0) continue;
      std::vector<pid_t> pids;
      for (int rank = 0; rank < pes; ++rank) {
        const pid_t pid = ::fork();
        if (pid == 0) {
          ::close(fds[0]);
          int code = 1;
          try {
            TcpOptions options;
            options.rank = rank;
            options.num_ranks = pes;
            options.rendezvous_port = port;
            options.recv_timeout_ms = 120000;
            PERuntime runtime(make_tcp_fabric(options), config.seed);
            Timer timer;
            const PartitionResult result =
                Partitioner(Context::spmd(config, runtime))
                    .partition(instance);
            const double elapsed = timer.elapsed_s();
            if (rank == 0) {
              char line[160];
              std::snprintf(
                  line, sizeof line, "%lld %.4f %llu %llu\n",
                  static_cast<long long>(result.cut), elapsed,
                  static_cast<unsigned long long>(
                      result.comm_per_pe[0].wire_bytes_sent),
                  static_cast<unsigned long long>(
                      result.comm_per_pe[0].wire_bytes_received));
              (void)!::write(fds[1], line, std::strlen(line));
            }
            code = 0;
          } catch (...) {
          }
          ::close(fds[1]);
          std::_Exit(code);
        }
        pids.push_back(pid);
      }
      ::close(fds[1]);
      char line[160] = {0};
      std::size_t got = 0;
      while (got + 1 < sizeof line) {
        const ssize_t n = ::read(fds[0], line + got, sizeof line - 1 - got);
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
      }
      ::close(fds[0]);
      bool ok = got > 0;
      for (const pid_t pid : pids) {
        int status = 0;
        ::waitpid(pid, &status, 0);
        ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      long long cut = -1;
      double elapsed = 0.0;
      unsigned long long sent = 0;
      unsigned long long received = 0;
      if (ok &&
          std::sscanf(line, "%lld %lf %llu %llu", &cut, &elapsed, &sent,
                      &received) == 4) {
        print_row({std::string(), "tcp", std::to_string(cut),
                   fmt(elapsed, 2), fmt(static_cast<double>(sent) / 1e6, 1),
                   fmt(static_cast<double>(received) / 1e6, 1)});
      } else {
        print_row({std::string(), "tcp", "failed", "-", "-", "-"});
      }
    }
  }
  if (tcp_only) return 0;

  for (const std::string& name : {std::string("rgg15"),
                                  std::string("delaunay15"),
                                  std::string("road_l")}) {
    const StaticGraph g = make_instance(name);
    print_table_header("Figure 3: total time [s] vs k (= PEs), " + name,
                       {"k", "strong", "fast", "minimal", "scotch", "kmetis",
                        "parmetis"});
    for (const BlockID k : ks) {
      std::vector<std::string> cells = {std::to_string(k)};
      for (const Preset preset :
           {Preset::kStrong, Preset::kFast, Preset::kMinimal}) {
        PERuntime runtime(static_cast<int>(std::min<BlockID>(k, 16)));
        cells.push_back(fmt(
            run_kappa(g, Config::preset(preset, k), reps, &runtime).avg_time(),
            2));
      }
      for (const std::string tool : {"scotch", "kmetis", "parmetis"}) {
        cells.push_back(fmt(run_tool(tool, g, k, 0.03, reps).avg_time(), 2));
      }
      print_row(cells);
    }
  }

  // Machine-independent communication shape: what an MPI implementation
  // would put on the wire as p grows.
  const StaticGraph g = make_instance("rgg15");
  print_table_header(
      "Figure 3 (companion): communication volume vs PEs, rgg15",
      {"PEs", "gap edges", "gap pairs"});
  for (const BlockID pes : {4u, 8u, 16u, 32u, 64u}) {
    // Parallel matching: gap-graph traffic.
    const auto homes = prepartition(g, pes);
    MatchingOptions moptions;
    Rng rng(1);
    ParallelMatchingStats mstats;
    (void)parallel_matching(g, homes, pes, MatcherAlgo::kGPA, moptions, rng,
                            &mstats);
    print_row({std::to_string(pes), std::to_string(mstats.gap_edges),
               std::to_string(mstats.gap_pairs)});
  }
  // The SPMD end-to-end pipeline on the PE runtime: the same partition for
  // every p (deterministic), with the per-PE communication counters the
  // paper's MPI implementation would put on the wire.
  for (const std::string& name :
       {std::string("rgg15"), std::string("delaunay15")}) {
    const StaticGraph instance = make_instance(name);
    Config config = Config::preset(Preset::kFast, 16);
    config.seed = 1;
    print_table_header(
        "Figure 3 (companion): SPMD pipeline per-PE CommStats, " + name +
            ", k=16",
        {"PEs", "cut", "time[s]", "rank", "msgs", "words", "barriers"});
    for (const int pes : {1, 2, 4, 8}) {
      PERuntime runtime(pes, config.seed);
      Timer timer;
      const PartitionResult result =
          Partitioner(Context::spmd(config, runtime)).partition(instance);
      const double elapsed = timer.elapsed_s();
      for (int rank = 0; rank < pes; ++rank) {
        const CommStats& s = result.comm_per_pe[rank];
        print_row({rank == 0 ? std::to_string(pes) : std::string(),
                   rank == 0 ? std::to_string(result.cut) : std::string(),
                   rank == 0 ? fmt(elapsed, 2) : std::string(),
                   std::to_string(rank), std::to_string(s.messages_sent),
                   std::to_string(s.words_sent), std::to_string(s.barriers)});
      }
    }
  }

  // Halo-exchange communication per coarsening level: the point-to-point
  // traffic of shard-owned contraction (ghost refreshes, boundary match
  // decisions, coarse-edge contributions), summed over ranks. The volume
  // tracks the boundary of each level, not its node count.
  {
    const StaticGraph instance = make_instance("rgg15");
    Config config = Config::preset(Preset::kFast, 16);
    config.seed = 1;
    print_table_header(
        "Figure 3 (companion): halo exchange per coarsening level, rgg15, "
        "k=16",
        {"PEs", "level", "n_level", "halo msgs", "halo words"});
    for (const int pes : {2, 4, 8}) {
      PERuntime runtime(pes, config.seed);
      const PartitionResult result =
          Partitioner(Context::spmd(config, runtime)).partition(instance);
      for (std::size_t l = 0; l < result.comm.halo_per_level.size(); ++l) {
        const LevelHaloStats& h = result.comm.halo_per_level[l];
        print_row({l == 0 ? std::to_string(pes) : std::string(),
                   std::to_string(l),
                   std::to_string(result.hierarchy_level_nodes[l]),
                   std::to_string(h.messages), std::to_string(h.words)});
      }
    }
  }

  // Per-rank resident memory of the distributed hierarchy store:
  // Σ_levels (n_level/p + halo) against the replicated baseline
  // Σ_levels n_level every rank used to hold.
  {
    const StaticGraph instance = make_instance("rgg15");
    Config config = Config::preset(Preset::kFast, 16);
    config.seed = 1;
    print_table_header(
        "Per-rank resident hierarchy memory: distributed store vs "
        "replicated baseline, rgg15, k=16",
        {"PEs", "rank", "owned", "ghosts", "resident", "arcs",
         "sum n_l", "share"});
    for (const int pes : {1, 2, 4, 8}) {
      PERuntime runtime(pes, config.seed);
      const PartitionResult result =
          Partitioner(Context::spmd(config, runtime)).partition(instance);
      std::uint64_t baseline = 0;
      for (const NodeID n_level : result.hierarchy_level_nodes) {
        baseline += n_level;
      }
      for (int rank = 0; rank < pes; ++rank) {
        const ShardFootprint& fp = result.hierarchy_memory_per_pe[rank];
        print_row({rank == 0 ? std::to_string(pes) : std::string(),
                   std::to_string(rank), std::to_string(fp.owned_nodes),
                   std::to_string(fp.ghost_nodes),
                   std::to_string(fp.resident_nodes()),
                   std::to_string(fp.arcs),
                   rank == 0 ? std::to_string(baseline) : std::string(),
                   fmt(static_cast<double>(fp.resident_nodes()) /
                           static_cast<double>(baseline),
                       3)});
      }
    }
  }

  // Per-PE resident graph memory: the replicated-CSR baseline (every PE
  // holding all n nodes / 2m arcs) against the ghost-layer sharding's
  // peak owned+ghost footprint (§3.3 ShardGraph + §5.2 block-row store).
  {
    const StaticGraph instance = make_instance("rgg15");
    Config config = Config::preset(Preset::kFast, 16);
    config.seed = 1;
    print_table_header(
        "Per-PE resident graph memory: replicated vs ghost-layer CSR, "
        "rgg15, k=16",
        {"PEs", "rank", "owned", "ghosts", "resident", "arcs", "n", "share"});
    for (const int pes : {1, 2, 4, 8}) {
      PERuntime runtime(pes, config.seed);
      const PartitionResult result =
          Partitioner(Context::spmd(config, runtime)).partition(instance);
      for (int rank = 0; rank < pes; ++rank) {
        const ShardFootprint& fp = result.shard_memory_per_pe[rank];
        print_row({rank == 0 ? std::to_string(pes) : std::string(),
                   std::to_string(rank), std::to_string(fp.owned_nodes),
                   std::to_string(fp.ghost_nodes),
                   std::to_string(fp.resident_nodes()),
                   std::to_string(fp.arcs),
                   rank == 0 ? std::to_string(instance.num_nodes())
                             : std::string(),
                   fmt(static_cast<double>(fp.resident_nodes()) /
                           static_cast<double>(instance.num_nodes()),
                       3)});
      }
    }
  }

  // Per-rank resident partition state: owned block ids (n/p) plus the
  // ghost-block cache, against the replicated O(n) assignment every rank
  // used to hold. Swept to p = 9 (incl. ragged p and p > shard-count
  // divisors) — the sharded-partition acceptance sweep.
  {
    const StaticGraph instance = make_instance("rgg15");
    Config config = Config::preset(Preset::kFast, 16);
    config.seed = 1;
    print_table_header(
        "Per-rank resident partition state: sharded store vs replicated "
        "assignment, rgg15, k=16",
        {"PEs", "rank", "owned", "cached", "resident", "n", "share"});
    for (const int pes : {1, 2, 4, 8, 9}) {
      PERuntime runtime(pes, config.seed);
      const PartitionResult result =
          Partitioner(Context::spmd(config, runtime)).partition(instance);
      for (int rank = 0; rank < pes; ++rank) {
        const ShardFootprint& fp = result.partition_memory_per_pe[rank];
        print_row({rank == 0 ? std::to_string(pes) : std::string(),
                   std::to_string(rank), std::to_string(fp.owned_nodes),
                   std::to_string(fp.ghost_nodes),
                   std::to_string(fp.resident_nodes()),
                   rank == 0 ? std::to_string(instance.num_nodes())
                             : std::string(),
                   fmt(static_cast<double>(fp.resident_nodes()) /
                           static_cast<double>(instance.num_nodes()),
                       3)});
      }
    }
  }

  // §5.2 pair-shipping volume of the band-limited refiner, summed over
  // ranks. rows/pair is the per-pair migration volume the paper bounds by
  // the band; "block rows" is what a whole-block send would have shipped
  // for the same pairs (counted, never shipped).
  {
    const StaticGraph instance = make_instance("rgg15");
    print_table_header(
        "Pair shipping volume: boundary band vs whole block, rgg15, k=16",
        {"PEs", "pairs", "rows", "block rows", "words", "rows/pair", "cut"});
    for (const int pes : {2, 4, 8, 9}) {
      Config config = Config::preset(Preset::kFast, 16);
      config.seed = 1;
      PERuntime runtime(pes, config.seed);
      const PartitionResult result =
          Partitioner(Context::spmd(config, runtime)).partition(instance);
      const PairShipStats total =
          fold_counters(result.counters_per_pe).pair_ship;
      print_row({std::to_string(pes), std::to_string(total.pairs_shipped),
                 std::to_string(total.rows_shipped),
                 std::to_string(total.whole_block_rows),
                 std::to_string(total.words_shipped),
                 fmt(total.pairs_shipped == 0
                         ? 0.0
                         : static_cast<double>(total.rows_shipped) /
                               static_cast<double>(total.pairs_shipped),
                     1),
                 std::to_string(result.cut)});
    }
  }

  std::printf(
      "\nshape targets (paper): KaPPa time grows gently with k "
      "(strong > fast > minimal);\nparmetis/kmetis flat-ish but with far "
      "worse cuts; gap/coloring traffic grows ~linearly in the boundary, "
      "not in n;\nSPMD cut is p-invariant while per-PE words shrink as "
      "work spreads over more PEs;\nper-PE resident share drops toward "
      "1/p + halo as the data sharding takes over;\nhalo words per level "
      "track the shard boundary, not n_level; the hierarchy store's\n"
      "per-rank share of sum n_l falls toward 1/p + halo — no rank holds "
      "a level replica;\nthe partition state's per-rank share falls the "
      "same way (owned n/p + boundary cache);\nband shipping sends a "
      "bounded band per pair, far below the whole-block rows\n");
  return 0;
}
