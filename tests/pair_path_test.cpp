/// \file pair_path_test.cpp
/// \brief The refiner's pair path against its whole-block oracle, and the
/// partitions it must reproduce.
///
/// The pair-side builder seeds its band BFS incrementally: the quotient
/// edge's boundary list plus the rows dirtied since the quotient was
/// taken (the partition state's change journal and the store's referrer
/// index), never a scan of the block. The oracle is that scan: every
/// member of the side with an arc into the other block, plus the quotient
/// seeds still in the side, expanded by a plain BFS over the store's
/// rows. Both the seeds and every built side (band,
/// rows, fringe) must equal the oracle's element for element — under the
/// real color-class schedule (every write path of the pipeline) and under
/// seeded random move sequences applied directly to the stores. Every
/// pair runs on the rows its executor gathers — at p = 1 all from the
/// resident store, at larger p mostly from a shipped side — and the
/// executed pairs of a run must be the same at every p. The golden
/// partitions must also survive randomly delayed message delivery:
/// arrival order across ranks must never reach the partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/static_graph.hpp"
#include "parallel/dist_partition.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/shard_graph.hpp"
#include "parallel/spmd_phases.hpp"
#include "parallel/transport_inproc.hpp"
#include "refinement/pairwise_refiner.hpp"
#include "util/random.hpp"

namespace kappa {
namespace {

// ------------------------------------------------------------- oracle ----

/// The whole-block seed scan: members of \p side with an arc into the
/// other block of \p edge, plus the quotient seeds still in the side —
/// minus seeds that left the side, which the band BFS never expands.
std::vector<NodeID> scan_seeds(const BlockRowShard& store,
                               const DistPartition& partition,
                               const QuotientEdge& edge, BlockID side) {
  const BlockID other = side == edge.a ? edge.b : edge.a;
  std::vector<NodeID> seeds;
  for (const NodeID u : store.members(side)) {
    for (const NodeID t : store.row_view(u).targets) {
      if (partition.block(t) == other) {
        seeds.push_back(u);
        break;
      }
    }
  }
  for (const NodeID s : edge.boundary) {
    if (partition.knows(s) && partition.block(s) == side) seeds.push_back(s);
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  std::erase_if(seeds, [&](NodeID s) { return partition.block(s) != side; });
  return seeds;
}

/// Bounded BFS inside \p side from \p seeds over the store's rows.
std::vector<NodeID> scan_band(const BlockRowShard& store,
                              const DistPartition& partition, BlockID side,
                              const std::vector<NodeID>& seeds, int depth) {
  std::set<NodeID> band(seeds.begin(), seeds.end());
  std::vector<NodeID> frontier = seeds;
  for (int level = 1; level < depth && !frontier.empty(); ++level) {
    std::vector<NodeID> next;
    for (const NodeID u : frontier) {
      for (const NodeID v : store.row_view(u).targets) {
        if (partition.block(v) == side && band.insert(v).second) {
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return {band.begin(), band.end()};
}

/// Checks one side — its seeds and band, and when it was encoded
/// (\p built set) its rows and fringe too — against the oracle; returns
/// whether the oracle seeds include a node the quotient's boundary list
/// did not name (the case only the incremental part of the seed rule can
/// catch).
bool expect_side_matches_oracle(const BlockRowShard& store,
                                const DistPartition& partition,
                                const QuotientEdge& edge, BlockID side,
                                int depth, std::span<const NodeID> seed_slots,
                                std::span<const NodeID> band_slots,
                                const PairSide* built,
                                const std::string& where) {
  const BlockID a = edge.a;
  const BlockID b = edge.b;
  const std::vector<NodeID> oracle = scan_seeds(store, partition, edge, side);
  std::vector<NodeID> seeds;
  for (const NodeID slot : seed_slots) {
    seeds.push_back(partition.global_at(slot));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(seeds, oracle) << where << " side " << side;
  bool fresh_seed = false;
  for (const NodeID s : oracle) {
    fresh_seed = fresh_seed || !std::binary_search(edge.boundary.begin(),
                                                   edge.boundary.end(), s);
  }
  const std::vector<NodeID> band =
      scan_band(store, partition, side, oracle, depth);
  std::vector<NodeID> band_ids;
  for (const NodeID slot : band_slots) {
    band_ids.push_back(partition.global_at(slot));
  }
  std::sort(band_ids.begin(), band_ids.end());
  EXPECT_EQ(band_ids, band) << where << " side " << side;
  if (built == nullptr) return fresh_seed;

  const std::vector<std::uint64_t> built_band(built->band_ids().begin(),
                                              built->band_ids().end());
  EXPECT_EQ(built_band, std::vector<std::uint64_t>(band.begin(), band.end()))
      << where << " side " << side;
  if (built_band.size() != band.size()) return fresh_seed;

  std::set<NodeID> fringe;
  for (NodeID i = 0; i < band.size(); ++i) {
    const GraphRowView row = store.row_view(band[i]);
    EXPECT_EQ(built->band_weight(i), row.weight) << where;
    std::vector<std::pair<NodeID, EdgeWeight>> expected;
    for (std::size_t j = 0; j < row.targets.size(); ++j) {
      const BlockID bt = partition.block(row.targets[j]);
      if (bt != a && bt != b) continue;
      expected.emplace_back(row.targets[j], row.weights[j]);
      if (bt == side &&
          !std::binary_search(band.begin(), band.end(), row.targets[j])) {
        fringe.insert(row.targets[j]);
      }
    }
    std::vector<std::pair<NodeID, EdgeWeight>> got;
    for (std::uint64_t e = built->row_begin(i); e < built->row_end(i); ++e) {
      got.emplace_back(built->target_global(e), built->arc_weight(e));
    }
    EXPECT_EQ(got, expected) << where << " row of " << band[i];
    // Band targets travel as band indices, everything else as tagged ids
    // or (same-side non-band targets) fringe indices.
    for (std::uint64_t e = built->row_begin(i); e < built->row_end(i); ++e) {
      const NodeID t = built->target_global(e);
      const std::uint64_t ref = built->target_ref(e);
      if (std::binary_search(band.begin(), band.end(), t)) {
        EXPECT_LT(ref, built->band_size()) << where << " arc to " << t;
      } else if (partition.block(t) == side) {
        EXPECT_GE(ref, built->band_size()) << where << " arc to " << t;
        EXPECT_LT(ref, PairSide::kGlobalTag) << where << " arc to " << t;
      } else {
        EXPECT_EQ(ref, PairSide::global_ref(t)) << where << " arc to " << t;
      }
    }
  }
  const std::vector<std::uint64_t> built_fringe(built->fringe_ids().begin(),
                                                built->fringe_ids().end());
  EXPECT_EQ(built_fringe,
            std::vector<std::uint64_t>(fringe.begin(), fringe.end()))
      << where << " side " << side;
  return fresh_seed;
}

// ------------------------------------------- the pipeline's write paths ----

/// Per p: every side the refiner builds in a full run — all levels, all
/// iterations, the rebalance loop, shipped sides and the executors' own
/// bands — equals the oracle.
class PairPathPipeline : public ::testing::TestWithParam<int> {};

TEST_P(PairPathPipeline, EveryBuiltSideEqualsWholeBlockOracle) {
  const int p = GetParam();
  const StaticGraph g = make_instance("rgg14", 5);
  for (const std::uint64_t seed : {1u, 2u}) {
    Config config = Config::preset(Preset::kFast, 8);
    config.seed = seed;
    std::atomic<std::uint64_t> sides{0};
    std::atomic<std::uint64_t> fresh{0};
    PERuntime runtime(p, seed);
    runtime.run([&](PEContext& pe) {
      const auto check_side = [&](const PairSideProbe& probe) {
        const std::string where = "seed " + std::to_string(seed) + " rank " +
                                  std::to_string(pe.rank()) + " pair (" +
                                  std::to_string(probe.edge.a) + "," +
                                  std::to_string(probe.edge.b) + ")";
        if (expect_side_matches_oracle(probe.store, probe.partition,
                                       probe.edge, probe.side, probe.depth,
                                       probe.seed_slots, probe.band_slots,
                                       probe.built, where)) {
          fresh.fetch_add(1);
        }
        sides.fetch_add(1);
      };
      const PartitionResult result =
          run_multilevel_spmd(g, config, pe, nullptr, check_side);
      EXPECT_TRUE(result.balanced);
    });
    EXPECT_GT(sides.load(), 100u);
    // Mid-iteration moves created boundary the quotient did not list, so
    // the journal-driven part of the seed rule was exercised.
    EXPECT_GT(fresh.load(), 0u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PeCounts, PairPathPipeline, ::testing::Values(1, 2, 3, 4, 7),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name = "p";
      name += std::to_string(info.param);
      return name;
    });

// ------------------------------------------- seeded random move sequences ----

/// Stores and partition states driven by hand: the quotient is taken
/// once, then rounds of seeded random moves are applied the way the color
/// classes apply them (apply_move on every rank, rows migrating with
/// their blocks), and after every round each rank rebuilds the sides of
/// the blocks it owns at several depths against the stale quotient.
class PairPathRandomMoves : public ::testing::TestWithParam<int> {};

TEST_P(PairPathRandomMoves, SeedsAndBandsEqualOracleAfterEveryRound) {
  const int p = GetParam();
  const StaticGraph g = make_instance("delaunay14", 3);
  const BlockID k = 8;
  Config config = Config::preset(Preset::kMinimal, k);
  config.seed = 9;
  const PartitionResult start =
      Partitioner(Context::sequential(config)).partition(g);

  PERuntime runtime(p, 1);
  runtime.run([&](PEContext& pe) {
    std::vector<BlockID> assignment = start.partition.assignment();
    BlockRowShard store(g, assignment, k, pe.rank(), p);
    DistPartition partition = DistPartition::from_replica(start.partition);
    store.bind_slots(partition);
    PairPathState state;
    restart_pair_path(state, partition);
    const QuotientGraph quotient = gather_quotient(store, partition, k, pe);
    ASSERT_GT(quotient.edges().size(), 4u);

    // Every rank draws the same move sequence.
    Rng rng(77);
    bool fresh = false;
    for (int round = 0; round < 12; ++round) {
      for (int m = 0; m < 40; ++m) {
        // A random boundary node moves to one of its neighbors' blocks.
        const NodeID u = static_cast<NodeID>(rng.bounded(g.num_nodes()));
        const BlockID from = assignment[u];
        BlockID to = from;
        for (const NodeID v : g.neighbors(u)) {
          if (assignment[v] != from) to = assignment[v];
        }
        if (to == from) continue;
        assignment[u] = to;
        const NodeWeight w = g.node_weight(u);
        partition.apply_move(u, from, to, w);
        const bool from_mine = store.owns_block(from);
        const bool to_mine = store.owns_block(to);
        if (!from_mine && !to_mine) continue;
        GraphRow row;
        row.weight = w;
        for (EdgeID e = g.first_arc(u); e < g.last_arc(u); ++e) {
          row.targets.push_back(g.arc_target(e));
          row.weights.push_back(g.arc_weight(e));
        }
        store.apply_move(u, from, to, &row, &partition);
      }
      for (const QuotientEdge& edge : quotient.edges()) {
        for (const BlockID side : {edge.a, edge.b}) {
          if (!store.owns_block(side)) continue;
          for (const int depth : {0, 1, 2, 3}) {
            const PairSide built =
                build_pair_side(store, partition, edge, side, depth, state);
            fresh = expect_side_matches_oracle(
                        store, partition, edge, side, depth,
                        std::span<const NodeID>(state.band.data(),
                                                state.num_seeds),
                        state.band, &built,
                        "p=" + std::to_string(p) + " round " +
                            std::to_string(round) + " depth " +
                            std::to_string(depth)) ||
                    fresh;
          }
        }
      }
    }
    if (p == 1) {
      EXPECT_TRUE(fresh) << "the moves never created unlisted boundary";
    }
  });
}

INSTANTIATE_TEST_SUITE_P(PeCounts, PairPathRandomMoves,
                         ::testing::Values(1, 2, 3, 4, 7));

// --------------------------------------------- executed pairs across p ----

/// One executed pair as the observer saw it: its edge and seed tag, its
/// moves as (global id, block) in move order, and its gains.
struct PairRecord {
  BlockID a = 0;
  BlockID b = 0;
  std::uint64_t seed_tag = 0;
  std::vector<std::pair<NodeID, BlockID>> moves;
  EdgeWeight cut_gain = 0;
  NodeWeight imbalance_gain = 0;

  auto operator<=>(const PairRecord&) const = default;
};

struct PairRun {
  const char* instance;
  std::uint64_t seed;
  Preset preset;
};

void PrintTo(const PairRun& run, std::ostream* os) {
  *os << run.instance << " seed " << run.seed << " "
      << preset_name(run.preset);
}

/// Every pair executed in a full SPMD run at \p p, sorted.
std::vector<PairRecord> executed_pairs(const StaticGraph& g,
                                       const PairRun& run, int p) {
  Config config = Config::preset(run.preset, 16);
  config.seed = run.seed;
  std::mutex mutex;
  std::vector<PairRecord> records;
  PERuntime runtime(p, run.seed);
  runtime.run([&](PEContext& pe) {
    const auto record = [&](const PairSideProbe& probe) {
      if (probe.executed == nullptr) return;
      const PairRefineResult& result = probe.executed->result;
      PairRecord r{probe.edge.a, probe.edge.b, probe.executed->seed_tag, {},
                   result.cut_gain, result.imbalance_gain};
      for (const auto& [slot, to] : result.moves) {
        r.moves.emplace_back(probe.partition.global_at(slot), to);
      }
      const std::lock_guard<std::mutex> lock(mutex);
      records.push_back(std::move(r));
    };
    (void)run_multilevel_spmd(g, config, pe, nullptr, record);
  });
  std::sort(records.begin(), records.end());
  return records;
}

/// At p = 1 every pair runs fully resident; at larger p most pairs run
/// with a shipped side. Either way the executor gathers the same rows,
/// so every p must execute the same pairs with the same moves and gains
/// as p = 1 — under strong's deeper bands and longer searches too.
class ExecutedPairs : public ::testing::TestWithParam<PairRun> {};

TEST_P(ExecutedPairs, EveryPeCountExecutesThePairsOfP1) {
  const PairRun& run = GetParam();
  const StaticGraph g = make_instance(run.instance, 1);
  const std::vector<PairRecord> resident = executed_pairs(g, run, 1);
  ASSERT_GT(resident.size(), 100u);
  std::size_t moves = 0;
  for (const PairRecord& r : resident) moves += r.moves.size();
  EXPECT_GT(moves, 0u);
  for (const int p : {2, 3, 4, 7}) {
    const std::vector<PairRecord> shipped = executed_pairs(g, run, p);
    ASSERT_EQ(shipped.size(), resident.size()) << "p=" << p;
    for (std::size_t i = 0; i < resident.size(); ++i) {
      const PairRecord& x = resident[i];
      const PairRecord& y = shipped[i];
      ASSERT_EQ(x, y) << "p=" << p << " pair (" << x.a << "," << x.b
                      << ") tag " << x.seed_tag << " vs (" << y.a << ","
                      << y.b << ") tag " << y.seed_tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runs, ExecutedPairs,
    ::testing::Values(PairRun{"rgg14", 1, Preset::kFast},
                      PairRun{"rgg14", 2, Preset::kFast},
                      PairRun{"rmat_12", 1, Preset::kFast},
                      PairRun{"rmat_12", 2, Preset::kFast},
                      PairRun{"rgg14", 1, Preset::kStrong}),
    [](const ::testing::TestParamInfo<PairRun>& info) {
      std::string name = info.param.instance;
      name += "_seed" + std::to_string(info.param.seed);
      if (info.param.preset != Preset::kFast) {
        name += std::string("_") + preset_name(info.param.preset);
      }
      return name;
    });

// ------------------------------------------------------ golden partitions ----

/// FNV-1a over the block ids in node order (the kappa-bench hash).
std::uint64_t assignment_hash(const Partition& partition) {
  std::uint64_t hash = 1469598103934665603ull;
  for (NodeID u = 0; u < partition.num_nodes(); ++u) {
    hash ^= partition.block(u);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Reference partitions (k = 16, fast preset, seed 1, instance seed 1).
/// The pair path only changes how a pair's rows are gathered, never what
/// they contain, so every byte of every partition must match. rmat_12
/// has no coordinates: its coarsening shards are the BFS-order
/// prepartition's.
struct Golden {
  const char* instance;
  EdgeWeight cut;
  std::uint64_t hash;
};
constexpr Golden kGoldens[] = {
    {"rgg14", 945, 0xa3504b6d2dd5e0d5ull},
    {"delaunay14", 2872, 0xa37f94e5d3200e61ull},
    {"rmat_12", 9954, 0x156536dcabfc0cf6ull},
};

Config golden_config() {
  Config config = Config::preset(Preset::kFast, 16);
  config.seed = 1;
  return config;
}

TEST(PairPathGolden, PartitionsUnchangedForP1AndP4) {
  for (const Golden& golden : kGoldens) {
    const StaticGraph g = make_instance(golden.instance, 1);
    for (const int p : {1, 4}) {
      const Config config = golden_config();
      PERuntime runtime(p, config.seed);
      const PartitionResult result =
          Partitioner(Context::spmd(config, runtime)).partition(g);
      EXPECT_EQ(result.cut, golden.cut) << golden.instance << " p=" << p;
      EXPECT_EQ(assignment_hash(result.partition), golden.hash)
          << golden.instance << " p=" << p;
    }
  }
}

/// The rest of the flows through the two drivers, on the same instances
/// and config: the sequential pipeline from scratch, and repartitioning —
/// sequential, and SPMD at p = 1 and 4 — of a deterministic perturbation
/// of that pipeline's own fresh partition. These pin the sequential
/// pipeline byte for byte, and the warm-start path of both.
struct Pin {
  EdgeWeight cut;
  std::uint64_t hash;
};
struct FlowGolden {
  const char* instance;
  Pin sequential;
  Pin sequential_repartition;
  Pin spmd_repartition;
};
constexpr FlowGolden kFlowGoldens[] = {
    {"rgg14",
     {936, 0x43ed009e0c992fadull},
     {903, 0xf914950d1ade8d22ull},
     {936, 0x9d4f26432fd3d0ecull}},
    {"delaunay14",
     {2939, 0x21bf78c3f8fc3cd9ull},
     {2911, 0x3197aa91208e79e4ull},
     {2884, 0xe693f876e2161613ull}},
    {"rmat_12",
     {9948, 0xfc9f42fe652731eeull},
     {9904, 0x792adc49c4d61921ull},
     {9905, 0x9ea87bc72426e3f7ull}},
};

/// Moves n/20 seeded random nodes to seeded random blocks.
Partition perturb(const StaticGraph& g, const Partition& partition) {
  Partition perturbed = partition;
  Rng rng(13);
  for (NodeID i = 0; i < g.num_nodes() / 20; ++i) {
    const NodeID u = static_cast<NodeID>(rng.bounded(g.num_nodes()));
    const BlockID to = static_cast<BlockID>(rng.bounded(partition.k()));
    if (perturbed.block(u) != to) perturbed.move(u, to, g.node_weight(u));
  }
  return perturbed;
}

void expect_pin(const PartitionResult& result, const Pin& pin,
                const std::string& where) {
  EXPECT_EQ(result.cut, pin.cut) << where;
  EXPECT_EQ(assignment_hash(result.partition), pin.hash) << where;
}

TEST(PairPathGolden, SequentialAndRepartitionFlowsUnchanged) {
  const Config config = golden_config();
  for (const FlowGolden& golden : kFlowGoldens) {
    const StaticGraph g = make_instance(golden.instance, 1);
    const std::string name = golden.instance;
    const Partitioner sequential(Context::sequential(config));
    const PartitionResult fresh = sequential.partition(g);
    expect_pin(fresh, golden.sequential, name + " sequential");
    expect_pin(sequential.repartition(g, perturb(g, fresh.partition)),
               golden.sequential_repartition,
               name + " sequential repartition");

    PERuntime single(1, config.seed);
    const Partitioner spmd(Context::spmd(config, single));
    const Partition warm = perturb(g, spmd.partition(g).partition);
    for (const int p : {1, 4}) {
      PERuntime runtime(p, config.seed);
      const Partitioner repartitioner(Context::spmd(config, runtime));
      expect_pin(repartitioner.repartition(g, warm), golden.spmd_repartition,
                 name + " spmd repartition p=" + std::to_string(p));
    }
  }
}

TEST(PairPathGolden, MinimalSequentialRepartitionEqualsSpmd) {
  // build_hierarchy coarsens by the SPMD store's rules, a warm start
  // skips initial partitioning, and both pipelines run one pair kernel
  // — so under `minimal` (one local FM iteration per pair) a
  // sequential repartition equals the SPMD one byte for byte at every p.
  // More local iterations let the sequential pair re-BFS past its first
  // band, which an SPMD pair's shipped band does not hold (§5.2 leaves
  // that to a later outer iteration), so `fast` may differ.
  Config config = Config::preset(Preset::kMinimal, 16);
  config.seed = 1;
  for (const char* name : {"rgg14", "delaunay14", "rmat_12"}) {
    const StaticGraph g = make_instance(name, 1);
    const Partitioner sequential(Context::sequential(config));
    const Partition warm = perturb(g, sequential.partition(g).partition);
    const PartitionResult expected = sequential.repartition(g, warm);
    for (const int p : {1, 3, 4}) {
      PERuntime runtime(p, config.seed);
      const PartitionResult result =
          Partitioner(Context::spmd(config, runtime)).repartition(g, warm);
      const std::string where = std::string(name) + " p=" + std::to_string(p);
      EXPECT_EQ(result.cut, expected.cut) << where;
      EXPECT_EQ(result.migrated_nodes, expected.migrated_nodes) << where;
      EXPECT_EQ(result.partition.assignment(), expected.partition.assignment())
          << where;
    }
  }
}

/// An in-process endpoint that delays some of its sends, on both lanes:
/// driven by a per-rank seeded Rng, a send first sleeps 0-50 µs, yields,
/// or goes straight through. One thread drives each endpoint and every
/// send is forwarded before the next one starts, so delivery stays FIFO
/// per (source, lane) — the whole transport contract — while the arrival
/// order across sources changes from seed to seed.
class JitterTransport final : public Transport {
 public:
  JitterTransport(Transport& inner, std::uint64_t seed)
      : inner_(inner),
        rng_(Rng(seed).fork(static_cast<std::uint64_t>(inner.rank()))) {}

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int size() const override { return inner_.size(); }

  void send(int dest, Lane lane, std::vector<std::uint64_t> payload) override {
    switch (rng_.bounded(4)) {
      case 0:
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng_.bounded(51)));
        break;
      case 1:
        std::this_thread::yield();
        break;
      default:
        break;
    }
    inner_.send(dest, lane, std::move(payload));
  }

  [[nodiscard]] Message receive(int source, Lane lane) override {
    return inner_.receive(source, lane);
  }

  [[nodiscard]] std::optional<Message> try_receive(int source,
                                                   Lane lane) override {
    return inner_.try_receive(source, lane);
  }

  void barrier() override { inner_.barrier(); }

 private:
  Transport& inner_;
  Rng rng_;
};

/// The in-process fabric with every endpoint wrapped in a JitterTransport.
class JitterFabric final : public TransportFabric {
 public:
  JitterFabric(int num_pes, std::uint64_t seed)
      : inner_(make_inproc_fabric(num_pes)) {
    for (int rank = 0; rank < num_pes; ++rank) {
      endpoints_.push_back(
          std::make_unique<JitterTransport>(inner_->endpoint(rank), seed));
    }
  }

  [[nodiscard]] int size() const override { return inner_->size(); }
  [[nodiscard]] std::vector<int> local_ranks() const override {
    return inner_->local_ranks();
  }
  [[nodiscard]] Transport& endpoint(int rank) override {
    return *endpoints_.at(static_cast<std::size_t>(rank));
  }
  [[nodiscard]] const char* name() const override { return "inproc-jitter"; }
  void fail_local(const std::string& reason) override {
    inner_->fail_local(reason);
  }

 private:
  std::unique_ptr<TransportFabric> inner_;
  std::vector<std::unique_ptr<JitterTransport>> endpoints_;
};

TEST(PairPathGolden, DelayedSendsCannotReachThePartition) {
  // The partition is a pure function of (graph, config, seed): reordering
  // arrivals across ranks, within the per-(source, lane) FIFO contract,
  // must reproduce the golden partition byte for byte.
  const Golden& golden = kGoldens[0];
  const StaticGraph g = make_instance(golden.instance, 1);
  const Config config = golden_config();
  for (const int p : {2, 3, 4}) {
    for (const std::uint64_t jitter_seed : {1u, 2u, 3u, 4u}) {
      PERuntime runtime(std::make_unique<JitterFabric>(p, jitter_seed),
                        config.seed);
      const PartitionResult result =
          Partitioner(Context::spmd(config, runtime)).partition(g);
      EXPECT_EQ(result.cut, golden.cut)
          << "p=" << p << " jitter seed " << jitter_seed;
      EXPECT_EQ(assignment_hash(result.partition), golden.hash)
          << "p=" << p << " jitter seed " << jitter_seed;
    }
  }
}

}  // namespace
}  // namespace kappa
