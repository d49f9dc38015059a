/// \file wire_codec_test.cpp
/// \brief Hostile-input corpus for the wire codecs: the refiner's flat
/// PairSide layout (with its three kinds of arc target reference), the
/// shared row codec (decode_row_words), the refiner's move deltas and
/// block-lookup replies (decode_move_deltas, decode_block_reply), the
/// per-rank counter record every SPMD run gathers (decode_counters), and
/// the one-time gathers and broadcast of the SPMD pipeline: the coarsest
/// graph (decode_gathered_graph), the owned blocks of a level
/// (decode_owned_blocks), the initial-partitioning winner's entry
/// (attempt_winner) and its broadcast assignment (decode_assignment).
///
/// Every payload a peer sends is untrusted. The decoders check each
/// count against the remaining payload before reserving or reading, so a
/// truncated, oversized or garbage payload must raise TransportError —
/// never read out of bounds, never allocate without limit. The corpus is
/// seeded: valid encodings, then single mutations (truncation, extension,
/// overwritten words, inflated counts, swaps), decoded again. Run under
/// the sanitizer build, any out-of-bounds access fails the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/graph_builder.hpp"
#include "parallel/comm_stats.hpp"
#include "parallel/dist_partition.hpp"
#include "parallel/pair_side.hpp"
#include "parallel/resident_pair.hpp"
#include "parallel/shard_graph.hpp"
#include "parallel/spmd_phases.hpp"
#include "parallel/transport.hpp"
#include "parallel/wire_format.hpp"
#include "util/random.hpp"

namespace kappa {
namespace {

/// How an arc names its target: by band index, by position in the
/// fringe list handed to finish(), or by tagged global id.
enum class RefKind { kBand, kFringe, kGlobal };

struct ArcSpec {
  RefKind kind;
  NodeID value;  ///< band index, fringe list position or global id
  EdgeWeight weight;
};

struct SideSpec {
  std::vector<NodeID> band;
  std::vector<NodeWeight> weights;
  std::vector<std::vector<ArcSpec>> rows;
  std::vector<NodeID> fringe;  ///< distinct, in the order finish() takes
};

/// The global id an arc of \p spec names.
NodeID expected_target(const SideSpec& spec, const ArcSpec& arc) {
  switch (arc.kind) {
    case RefKind::kBand:
      return spec.band[arc.value];
    case RefKind::kFringe:
      return spec.fringe[arc.value];
    default:
      return arc.value;
  }
}

std::vector<NodeID> sorted_ids(Rng& rng, std::size_t count) {
  std::vector<NodeID> ids;
  NodeID next = static_cast<NodeID>(rng.bounded(4));
  for (std::size_t i = 0; i < count; ++i) {
    ids.push_back(next);
    next += 1 + static_cast<NodeID>(rng.bounded(5));
  }
  return ids;
}

SideSpec random_side(Rng& rng) {
  SideSpec spec;
  spec.band = sorted_ids(rng, rng.bounded(8));
  spec.fringe = sorted_ids(rng, rng.bounded(5));
  // finish() takes the fringe in discovery order, not sorted.
  for (std::size_t i = spec.fringe.size(); i > 1; --i) {
    std::swap(spec.fringe[i - 1], spec.fringe[rng.bounded(i)]);
  }
  for (std::size_t i = 0; i < spec.band.size(); ++i) {
    spec.weights.push_back(static_cast<NodeWeight>(rng.bounded(100)));
    std::vector<ArcSpec> row;
    const std::size_t arcs = rng.bounded(6);
    for (std::size_t j = 0; j < arcs; ++j) {
      ArcSpec arc{RefKind::kGlobal, static_cast<NodeID>(rng.bounded(64)),
                  static_cast<EdgeWeight>(1 + rng.bounded(9))};
      const std::uint64_t kind = rng.bounded(3);
      if (kind == 0) {
        arc.kind = RefKind::kBand;
        arc.value = static_cast<NodeID>(rng.bounded(spec.band.size()));
      } else if (kind == 1 && !spec.fringe.empty()) {
        arc.kind = RefKind::kFringe;
        arc.value = static_cast<NodeID>(rng.bounded(spec.fringe.size()));
      }
      row.push_back(arc);
    }
    spec.rows.push_back(std::move(row));
  }
  return spec;
}

PairSide write(const SideSpec& spec) {
  PairSideWriter writer(static_cast<NodeID>(spec.band.size()));
  for (std::size_t i = 0; i < spec.band.size(); ++i) {
    writer.begin_row(spec.band[i], spec.weights[i]);
    for (const ArcSpec& arc : spec.rows[i]) {
      switch (arc.kind) {
        case RefKind::kBand:
          writer.add_band_arc(arc.value, arc.weight);
          break;
        case RefKind::kFringe:
          writer.add_fringe_arc(arc.value, arc.weight);
          break;
        default:
          writer.add_global_arc(arc.value, arc.weight);
          break;
      }
    }
  }
  return writer.finish(spec.fringe);
}

/// Overwrites one arc reference of a valid encoding with an out-of-range
/// one: a band or fringe index past the lists, an untagged id, or a
/// tagged id >= kInvalidNode. Returns false if the side has no arcs.
bool corrupt_reference(std::vector<std::uint64_t>& words, Rng& rng) {
  const std::uint64_t nband = words[0];
  const std::uint64_t nfringe = words[1];
  const std::size_t ends = 2 + 2 * nband;
  const std::uint64_t narcs = nband == 0 ? 0 : words[ends + nband - 1];
  if (narcs == 0) return false;
  const std::uint64_t listed = nband + nfringe;
  const std::uint64_t bad[] = {
      listed,                                         // first index past
      listed + rng.bounded(1000),                     // further past
      PairSide::kGlobalTag - 1,                       // untagged, huge
      PairSide::kGlobalTag + kInvalidNode,            // tagged invalid id
      PairSide::kGlobalTag + kInvalidNode + rng.bounded(1u << 20),
      std::numeric_limits<std::uint64_t>::max(),
  };
  words[ends + nband + rng.bounded(narcs)] = bad[rng.bounded(6)];
  return true;
}

/// Overwrites one band or arc weight of a valid encoding with a negative
/// one, or two with weights whose sum leaves the int64 range. Returns
/// false if the side has no band node.
bool corrupt_weight(std::vector<std::uint64_t>& words, Rng& rng) {
  const std::uint64_t nband = words[0];
  if (nband == 0) return false;
  const std::size_t ends = 2 + 2 * nband;
  const std::uint64_t narcs = words[ends + nband - 1];
  // The weight words: nband band weights, then (past the targets) narcs
  // arc weights; take one of either kind.
  const bool arc = narcs > 0 && rng.bounded(2) == 0;
  const std::size_t first = arc ? ends + nband + narcs : 2 + nband;
  const std::size_t count = arc ? narcs : nband;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (count >= 2 && rng.bounded(2) == 0) {
    const std::size_t i = rng.bounded(count);
    const std::size_t j = (i + 1 + rng.bounded(count - 1)) % count;
    words[first + i] = weight_bits(kMax / 2 + 1);
    words[first + j] = weight_bits(kMax / 2 + 1);
  } else {
    const std::int64_t bad[] = {-1, -1 - static_cast<std::int64_t>(
                                         rng.bounded(1000)),
                                std::numeric_limits<std::int64_t>::min()};
    words[first + rng.bounded(count)] = weight_bits(bad[rng.bounded(3)]);
  }
  return true;
}

/// Walks every accessor of a parsed side; all reads must stay in bounds.
std::uint64_t touch_everything(const PairSide& side) {
  std::uint64_t sum = 0;
  for (NodeID i = 0; i < side.band_size(); ++i) {
    sum += side.band_id(i) + static_cast<std::uint64_t>(side.band_weight(i));
    EXPECT_LE(side.row_begin(i), side.row_end(i));
    EXPECT_LE(side.row_end(i), side.num_arcs());
    for (std::uint64_t e = side.row_begin(i); e < side.row_end(i); ++e) {
      sum += side.target_global(e) +
             static_cast<std::uint64_t>(side.arc_weight(e));
    }
  }
  for (NodeID i = 0; i < side.fringe_size(); ++i) sum += side.fringe_id(i);
  return sum;
}

void mutate(std::vector<std::uint64_t>& words, Rng& rng) {
  constexpr std::uint64_t kHuge = std::numeric_limits<std::uint64_t>::max();
  const std::size_t n = words.size();
  switch (rng.bounded(6)) {
    case 0:  // truncate
      words.resize(n == 0 ? 0 : rng.bounded(n));
      break;
    case 1:  // extend with garbage
      for (std::size_t i = 0, extra = 1 + rng.bounded(4); i < extra; ++i) {
        words.push_back(rng());
      }
      break;
    case 2:  // overwrite one word with garbage
      if (n > 0) words[rng.bounded(n)] = rng();
      break;
    case 3:  // inflate one word (a count, an offset or an id)
      if (n > 0) {
        const std::uint64_t values[] = {kHuge, kHuge / 2, kHuge / 3 + 1,
                                        std::uint64_t{1} << 32, n, n + 1};
        words[rng.bounded(n)] = values[rng.bounded(6)];
      }
      break;
    case 4:  // nudge one word by one
      if (n > 0) words[rng.bounded(n)] += rng.bounded(2) == 0 ? 1 : -1;
      break;
    default:  // swap two words
      if (n > 1) std::swap(words[rng.bounded(n)], words[rng.bounded(n)]);
      break;
  }
}

TEST(PairSideCodec, RoundTripsEverySection) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const SideSpec spec = random_side(rng);
    const PairSide side =
        PairSide::parse(std::move(write(spec)).release());
    ASSERT_EQ(side.band_size(), spec.band.size());
    ASSERT_EQ(side.fringe_size(), spec.fringe.size());
    std::vector<NodeID> sorted_fringe = spec.fringe;
    std::sort(sorted_fringe.begin(), sorted_fringe.end());
    for (NodeID i = 0; i < side.band_size(); ++i) {
      EXPECT_EQ(side.band_id(i), spec.band[i]);
      EXPECT_EQ(side.band_weight(i), spec.weights[i]);
      ASSERT_EQ(side.row_end(i) - side.row_begin(i), spec.rows[i].size());
      for (std::size_t j = 0; j < spec.rows[i].size(); ++j) {
        const ArcSpec& arc = spec.rows[i][j];
        const std::uint64_t e = side.row_begin(i) + j;
        EXPECT_EQ(side.target_global(e), expected_target(spec, arc));
        EXPECT_EQ(side.arc_weight(e), arc.weight);
        // Each kind keeps its encoding: band and fringe targets by index
        // (fringe indices renumbered to the ascending fringe section),
        // everything else tagged.
        const std::uint64_t ref = side.target_ref(e);
        switch (arc.kind) {
          case RefKind::kBand:
            EXPECT_EQ(ref, arc.value);
            break;
          case RefKind::kFringe:
            ASSERT_GE(ref, side.band_size());
            ASSERT_LT(ref - side.band_size(), side.fringe_size());
            EXPECT_EQ(side.fringe_id(static_cast<NodeID>(ref - side.band_size())),
                      spec.fringe[arc.value]);
            break;
          default:
            EXPECT_EQ(ref, PairSide::global_ref(arc.value));
            break;
        }
      }
    }
    for (NodeID i = 0; i < side.fringe_size(); ++i) {
      EXPECT_EQ(side.fringe_id(i), sorted_fringe[i]);
    }
  }
}

TEST(PairSideCodec, RejectsDegenerateHeaders) {
  constexpr std::uint64_t kHuge = std::numeric_limits<std::uint64_t>::max();
  const std::vector<std::vector<std::uint64_t>> payloads = {
      {},
      {0},
      {kHuge, 0},
      {0, kHuge},
      {1, 0, 5, 1},                  // band of one, sections cut short
      {1, 0, 5, 1, kHuge},           // row end claims 2^64 - 1 arcs
      {2, 0, 7, 3, 1, 1, 0, 0},      // band ids not ascending
      {0, 2, 9, 4},                  // fringe ids not ascending
      {1, 0, 5, 1, 1, 0xffffffff, 1},  // untagged reference past the lists
      {1, 0, 5, 1, 1, 1, 1},         // band index out of range
      {1, 1, 5, 1, 1, 2, 1, 9},      // fringe index out of range
      {1, 0, 5, 1, 1, PairSide::kGlobalTag + kInvalidNode, 1},  // tagged id
      {1, 0, 5, 1, 1, kHuge, 1},     // tagged id beyond NodeID
  };
  for (const auto& words : payloads) {
    EXPECT_THROW((void)PairSide::parse(words), TransportError);
  }
  EXPECT_NO_THROW((void)PairSide::parse({0, 0}));
  // One arc of each kind: band index 0, fringe index 0, a tagged id.
  const PairSide side = PairSide::parse(
      {1, 1, 5, 1, 3, 0, 1, PairSide::global_ref(7), 1, 1, 1, 9});
  EXPECT_EQ(side.target_global(0), 5u);
  EXPECT_EQ(side.target_global(1), 9u);
  EXPECT_EQ(side.target_global(2), 7u);
}

TEST(PairSideCodec, OutOfRangeReferencesAreRejected) {
  Rng rng(77);
  int corrupted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const SideSpec spec = random_side(rng);
    std::vector<std::uint64_t> words = std::move(write(spec)).release();
    if (!corrupt_reference(words, rng)) continue;
    ++corrupted;
    EXPECT_THROW((void)PairSide::parse(words), TransportError);
  }
  EXPECT_GT(corrupted, 1000);
}

TEST(PairSideCodec, HostileWeightsAreRejected) {
  // A side's weights become the executor's node and arc weights: a
  // negative one, or a sum past the int64 range, must not reach a gain.
  Rng rng(31);
  int corrupted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const SideSpec spec = random_side(rng);
    std::vector<std::uint64_t> words = std::move(write(spec)).release();
    if (!corrupt_weight(words, rng)) continue;
    ++corrupted;
    EXPECT_THROW((void)PairSide::parse(words), TransportError);
  }
  EXPECT_GT(corrupted, 1000);
  // The extremes that still fit are accepted.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_NO_THROW((void)PairSide::parse(
      {1, 0, 5, weight_bits(kMax), 1, 0, weight_bits(kMax)}));
  EXPECT_THROW((void)PairSide::parse({2, 0, 5, 6, weight_bits(kMax), 1, 0, 0}),
               TransportError);
}

TEST(PairSideCodec, MutationCorpusRaisesOnlyTransportError) {
  Rng rng(2024);
  int rejected = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const SideSpec spec = random_side(rng);
    std::vector<std::uint64_t> words = std::move(write(spec)).release();
    if (rng.bounded(4) == 0) corrupt_reference(words, rng);
    if (rng.bounded(4) == 0) corrupt_weight(words, rng);
    const int mutations = 1 + static_cast<int>(rng.bounded(3));
    for (int m = 0; m < mutations; ++m) mutate(words, rng);
    try {
      const PairSide side = PairSide::parse(words);
      (void)touch_everything(side);
    } catch (const TransportError&) {
      ++rejected;
    }
  }
  // Most single mutations break an invariant; the corpus must hit the
  // checks, not only survive.
  EXPECT_GT(rejected, 2500);
}

// ---------------------------------------------- attaching a shipped side ----

/// The executor's state for the attach tests: nodes 0-7 in blocks
/// 0 0 0 1 1 1 2 2, every one held. The executor owns block 0, the
/// partner ships block 1; ids from 100 on are held nowhere here.
DistPartition attach_state() {
  GraphBuilder builder(8);
  for (NodeID u = 0; u + 1 < 8; ++u) builder.add_edge(u, u + 1, 1);
  const StaticGraph g = builder.finalize();
  return DistPartition::from_replica(
      Partition(g, {0, 0, 0, 1, 1, 1, 2, 2}, 3));
}

/// Writes a side of block 1 from \p band (id and arcs, node weight 1) and
/// \p fringe, and attaches it to \p partition and \p rows.
void attach(const std::vector<std::pair<NodeID, std::vector<ArcSpec>>>& band,
            const std::vector<NodeID>& fringe, DistPartition& partition,
            PairRows& rows) {
  PairSideWriter writer(static_cast<NodeID>(band.size()));
  for (const auto& [id, arcs] : band) {
    writer.begin_row(id, 1);
    for (const ArcSpec& arc : arcs) {
      switch (arc.kind) {
        case RefKind::kBand:
          writer.add_band_arc(arc.value, arc.weight);
          break;
        case RefKind::kFringe:
          writer.add_fringe_arc(arc.value, arc.weight);
          break;
        default:
          writer.add_global_arc(arc.value, arc.weight);
          break;
      }
    }
  }
  const PairSide side =
      PairSide::parse(std::move(writer.finish(fringe)).release());
  attach_shipped_side(side, /*shipped=*/1, /*own=*/0, partition, rows);
}

TEST(PairSideAttach, ResolvesEveryIdToItsHeldOrTransientSlot) {
  DistPartition partition = attach_state();
  PairRows rows;
  // Band 3, 4, 100 (100 not held), fringe 5 and 101 (not held).
  attach({{3, {{RefKind::kGlobal, 2, 2}, {RefKind::kBand, 1, 1},
               {RefKind::kFringe, 0, 1}}},
          {4, {{RefKind::kBand, 0, 1}, {RefKind::kBand, 2, 3}}},
          {100, {{RefKind::kBand, 1, 3}, {RefKind::kFringe, 1, 1},
                 {RefKind::kGlobal, 1, 5}}}},
         {5, 101}, partition, rows);
  ASSERT_EQ(partition.num_slots(), 10u);
  const auto slot = [&](NodeID id) { return partition.slot_of(id); };
  EXPECT_EQ(slot(100), 8u);
  EXPECT_EQ(slot(101), 9u);
  EXPECT_EQ(partition.block_at(slot(100)), 1u);
  EXPECT_EQ(partition.block_at(slot(101)), 1u);
  EXPECT_EQ(partition.global_at(slot(101)), 101u);
  // Band nodes have rows (and may move); the fringe is frozen context.
  for (const NodeID id : {3u, 4u, 100u}) EXPECT_TRUE(rows.contains(slot(id)));
  for (const NodeID id : {0u, 2u, 5u, 101u}) {
    EXPECT_FALSE(rows.contains(slot(id)));
  }
  const auto row_of = [&](NodeID id) {
    std::vector<std::pair<NodeID, EdgeWeight>> arcs;
    const PairRow row = rows.row(slot(id));
    for (std::size_t i = 0; i < row.targets.size(); ++i) {
      arcs.emplace_back(partition.global_at(row.targets[i]), row.weights[i]);
    }
    return arcs;
  };
  using Arcs = std::vector<std::pair<NodeID, EdgeWeight>>;
  EXPECT_EQ(row_of(3), (Arcs{{2, 2}, {4, 1}, {5, 1}}));
  EXPECT_EQ(row_of(4), (Arcs{{3, 1}, {100, 3}}));
  EXPECT_EQ(row_of(100), (Arcs{{4, 3}, {101, 1}, {1, 5}}));
  EXPECT_EQ(rows.weight(slot(100)), 1);

  // The attached ids leave no trace once the pair ends.
  const ShardFootprint during = partition.footprint();
  partition.detach();
  EXPECT_EQ(partition.num_slots(), 8u);
  EXPECT_FALSE(partition.knows(100));
  EXPECT_FALSE(partition.knows(101));
  EXPECT_EQ(partition.footprint().ghost_nodes, during.ghost_nodes);
  EXPECT_TRUE(partition.journal().empty());
}

TEST(PairSideAttach, InconsistentSidesAreRejected) {
  using Band = std::vector<std::pair<NodeID, std::vector<ArcSpec>>>;
  struct Case {
    const char* what;
    Band band;
    std::vector<NodeID> fringe;
  };
  const std::vector<Case> cases = {
      {"id in band and fringe", {{3, {}}, {4, {}}}, {4}},
      {"band id held in the executor's block", {{2, {}}}, {}},
      {"band id held in a third block", {{6, {}}}, {}},
      {"fringe id held in another block", {{3, {}}}, {7}},
      {"global reference to a node not held", {{3, {{RefKind::kGlobal, 200, 1}}}},
       {}},
      {"global reference into a third block",
       {{3, {{RefKind::kGlobal, 6, 1}}}}, {}},
      {"global reference into the shipped block",
       {{3, {{RefKind::kGlobal, 5, 1}}}}, {}},
      {"global reference to an attached id",
       {{3, {{RefKind::kGlobal, 100, 1}}}, {100, {}}}, {}},
  };
  for (const Case& c : cases) {
    DistPartition partition = attach_state();
    PairRows rows;
    EXPECT_THROW(attach(c.band, c.fringe, partition, rows), TransportError)
        << c.what;
  }
}

TEST(RowCodec, RoundTripsAndRejectsMalformedRows) {
  Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint64_t> words;
    std::vector<GraphRow> rows(1 + rng.bounded(4));
    std::vector<NodeID> ids;
    for (GraphRow& row : rows) {
      row.weight = static_cast<NodeWeight>(rng.bounded(50));
      for (std::size_t j = 0, arcs = rng.bounded(6); j < arcs; ++j) {
        row.targets.push_back(static_cast<NodeID>(rng.bounded(1000)));
        row.weights.push_back(static_cast<EdgeWeight>(1 + rng.bounded(9)));
      }
      ids.push_back(static_cast<NodeID>(rng.bounded(1000)));
      append_row_words(words, ids.back(),
                       {row.weight, row.targets, row.weights},
                       [](NodeID) { return true; });
    }
    const bool corrupt = trial % 2 == 1;
    if (corrupt) mutate(words, rng);
    std::vector<GraphRow> decoded_rows;
    std::vector<NodeID> decoded_ids;
    std::size_t end = 0;
    bool rejected = false;
    try {
      std::size_t cursor = 0;
      for (std::size_t r = 0; r < rows.size() && cursor < words.size(); ++r) {
        GraphRow decoded;
        const NodeID id = decode_row_words(words, cursor, decoded);
        ASSERT_LE(cursor, words.size());
        if (!corrupt) {
          EXPECT_EQ(id, ids[r]);
          EXPECT_EQ(decoded.weight, rows[r].weight);
          EXPECT_EQ(decoded.targets, rows[r].targets);
          EXPECT_EQ(decoded.weights, rows[r].weights);
        }
        decoded_ids.push_back(id);
        decoded_rows.push_back(std::move(decoded));
      }
      end = cursor;
    } catch (const TransportError&) {
      EXPECT_TRUE(corrupt) << "a valid row stream was rejected";
      rejected = true;
    }

    // The RowSet decoder and the checked skip share the decoder: the same
    // verdict, the same end, the same content.
    RowSet set;
    set.xadj.push_back(0);
    std::vector<NodeID> skipped_ids;
    std::size_t set_end = 0;
    std::size_t skip_end = 0;
    bool set_rejected = false;
    bool skip_rejected = false;
    try {
      std::size_t cursor = 0;
      for (std::size_t r = 0; r < rows.size() && cursor < words.size(); ++r) {
        (void)decode_row_words(words, cursor, set);
      }
      set_end = cursor;
    } catch (const TransportError&) {
      set_rejected = true;
    }
    try {
      std::size_t cursor = 0;
      for (std::size_t r = 0; r < rows.size() && cursor < words.size(); ++r) {
        skipped_ids.push_back(skip_row_words(words, cursor));
      }
      skip_end = cursor;
    } catch (const TransportError&) {
      skip_rejected = true;
    }
    ASSERT_EQ(set_rejected, rejected) << "trial " << trial;
    ASSERT_EQ(skip_rejected, rejected) << "trial " << trial;
    if (rejected) continue;
    EXPECT_EQ(set_end, end);
    EXPECT_EQ(skip_end, end);
    EXPECT_EQ(set.ids, decoded_ids);
    EXPECT_EQ(skipped_ids, decoded_ids);
    ASSERT_EQ(set.xadj.size(), decoded_rows.size() + 1);
    for (std::size_t r = 0; r < decoded_rows.size(); ++r) {
      EXPECT_EQ(set.vwgt[r], decoded_rows[r].weight);
      EXPECT_EQ(std::vector<NodeID>(set.adj.begin() + set.xadj[r],
                                    set.adj.begin() + set.xadj[r + 1]),
                decoded_rows[r].targets);
      EXPECT_EQ(std::vector<EdgeWeight>(set.ewgt.begin() + set.xadj[r],
                                        set.ewgt.begin() + set.xadj[r + 1]),
                decoded_rows[r].weights);
    }
  }
  GraphRow row;
  std::size_t cursor = 0;
  const std::vector<std::uint64_t> oversized = {
      7, 1, std::numeric_limits<std::uint64_t>::max() / 2, 1, 1};
  EXPECT_THROW((void)decode_row_words(oversized, cursor, row), TransportError);
  cursor = 4;
  EXPECT_THROW((void)decode_row_words(oversized, cursor, row), TransportError);
  cursor = 9;
  EXPECT_THROW((void)decode_row_words(oversized, cursor, row), TransportError);
}

/// 0-7 moved-node deltas between the blocks of a k-way partition.
std::vector<MoveDelta> random_deltas(Rng& rng, BlockID k) {
  std::vector<MoveDelta> deltas(rng.bounded(8));
  for (MoveDelta& d : deltas) {
    d.u = static_cast<NodeID>(rng.bounded(1000));
    d.from = static_cast<BlockID>(rng.bounded(k));
    d.to = static_cast<BlockID>(rng.bounded(k));
    d.weight = static_cast<NodeWeight>(rng.bounded(50));
  }
  return deltas;
}

std::vector<std::uint64_t> encode_deltas(const std::vector<MoveDelta>& deltas) {
  std::vector<std::uint64_t> words;
  for (const MoveDelta& d : deltas) append_move_delta(words, d);
  return words;
}

TEST(MoveDeltaCodec, RoundTripsAndRejectsMalformedPayloads) {
  constexpr BlockID k = 16;
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<MoveDelta> deltas = random_deltas(rng, k);
    const std::vector<MoveDelta> decoded =
        decode_move_deltas(encode_deltas(deltas), k);
    ASSERT_EQ(decoded.size(), deltas.size());
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      EXPECT_EQ(decoded[i].u, deltas[i].u);
      EXPECT_EQ(decoded[i].from, deltas[i].from);
      EXPECT_EQ(decoded[i].to, deltas[i].to);
      EXPECT_EQ(decoded[i].weight, deltas[i].weight);
    }
  }
  const std::vector<std::uint64_t> valid = encode_deltas({{7, 2, 3, 1}});
  // A trailing partial record, a target or an entry block >= k — also
  // one whose low 32 bits would pass for a valid block.
  std::vector<std::vector<std::uint64_t>> payloads = {
      {valid[0]}, {valid[0], valid[1]}, valid, valid, valid, valid};
  payloads[2].push_back(1);
  payloads[3][0] = pack_pair(7, k);
  payloads[4][2] = k;
  payloads[5][2] = (std::uint64_t{1} << 32) + 2;
  for (const auto& words : payloads) {
    EXPECT_THROW((void)decode_move_deltas(words, k), TransportError);
  }
  EXPECT_TRUE(decode_move_deltas({}, k).empty());
}

TEST(MoveDeltaCodec, MutationCorpusRaisesOnlyTransportError) {
  constexpr BlockID k = 16;
  Rng rng(31);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint64_t> words = encode_deltas(random_deltas(rng, k));
    const int mutations = 1 + static_cast<int>(rng.bounded(3));
    for (int m = 0; m < mutations; ++m) mutate(words, rng);
    try {
      for (const MoveDelta& d : decode_move_deltas(words, k)) {
        EXPECT_LT(d.from, k);
        EXPECT_LT(d.to, k);
      }
    } catch (const TransportError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1000);
}

/// A lookup request of 0-7 ids and the owner's reply, blocks < k.
std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>
random_lookup(Rng& rng, BlockID k) {
  std::vector<std::uint64_t> request;
  std::vector<std::uint64_t> reply;
  for (std::size_t i = 0, n = rng.bounded(8); i < n; ++i) {
    const NodeID id = static_cast<NodeID>(rng.bounded(1000));
    request.push_back(id);
    reply.push_back(pack_pair(id, static_cast<BlockID>(rng.bounded(k))));
  }
  return {request, reply};
}

TEST(BlockReplyCodec, RoundTripsAndRejectsMalformedReplies) {
  constexpr BlockID k = 16;
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    const auto [request, reply] = random_lookup(rng, k);
    const std::vector<BlockID> blocks = decode_block_reply(request, reply, k);
    ASSERT_EQ(blocks.size(), request.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      EXPECT_EQ(pack_pair(static_cast<NodeID>(request[i]), blocks[i]),
                reply[i]);
    }
  }
  const std::vector<std::uint64_t> request = {4, 9};
  const std::vector<std::vector<std::uint64_t>> replies = {
      {},                                     // no answers
      {pack_pair(4, 1)},                      // one answer short
      {pack_pair(4, 1), pack_pair(9, 2), 0},  // one answer too many
      {pack_pair(4, 1), pack_pair(9, k)},     // block out of range
      {pack_pair(4, 1), pack_pair(8, 2)},     // not the requested id
      {pack_pair(9, 2), pack_pair(4, 1)},     // out of request order
  };
  for (const auto& reply : replies) {
    EXPECT_THROW((void)decode_block_reply(request, reply, k), TransportError);
  }
}

TEST(BlockReplyCodec, MutationCorpusRaisesOnlyTransportError) {
  constexpr BlockID k = 16;
  Rng rng(43);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    auto [request, reply] = random_lookup(rng, k);
    const int mutations = 1 + static_cast<int>(rng.bounded(3));
    for (int m = 0; m < mutations; ++m) mutate(reply, rng);
    try {
      for (const BlockID b : decode_block_reply(request, reply, k)) {
        EXPECT_LT(b, k);
      }
    } catch (const TransportError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1000);
}

/// A record with every table field and 0-4 halo levels drawn from \p rng.
RankCounters random_counters(Rng& rng) {
  RankCounters counters;
  for (const CounterField& field : kRankCounters) field.of(counters) = rng();
  counters.comm.halo_per_level.resize(rng.bounded(5));
  for (LevelHaloStats& level : counters.comm.halo_per_level) {
    level = {rng(), rng()};
  }
  return counters;
}

TEST(CounterRecordCodec, RoundTripsAndRejectsMalformedRecords) {
  constexpr std::uint64_t kHuge = std::numeric_limits<std::uint64_t>::max();
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const RankCounters counters = random_counters(rng);
    const std::vector<std::uint64_t> words = encode_counters(counters);
    EXPECT_EQ(encode_counters(decode_counters(words)), words);

    std::vector<std::uint64_t> truncated = words;
    truncated.resize(rng.bounded(words.size()));
    EXPECT_THROW((void)decode_counters(truncated), TransportError);
    std::vector<std::uint64_t> extended = words;
    extended.push_back(rng());
    EXPECT_THROW((void)decode_counters(extended), TransportError);
    // Out of range: a field count this build does not have, or a halo
    // level count past the record.
    std::vector<std::uint64_t> fields = words;
    fields[0] = rng.bounded(2) == 0 ? fields[0] + 1 : kHuge;
    EXPECT_THROW((void)decode_counters(fields), TransportError);
    std::vector<std::uint64_t> levels = words;
    levels[std::size(kRankCounters) + 1] =
        rng.bounded(2) == 0 ? levels[std::size(kRankCounters) + 1] + 1
                            : kHuge / 2;
    EXPECT_THROW((void)decode_counters(levels), TransportError);
  }
  EXPECT_THROW((void)decode_counters({}), TransportError);
}

TEST(CounterRecordCodec, MutationCorpusRaisesOnlyTransportError) {
  Rng rng(99);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint64_t> words = encode_counters(random_counters(rng));
    const int mutations = 1 + static_cast<int>(rng.bounded(3));
    for (int m = 0; m < mutations; ++m) mutate(words, rng);
    try {
      (void)decode_counters(words);
    } catch (const TransportError&) {
      ++rejected;
    }
  }
  // Counter values take any word, so only the structural mutations —
  // truncation, extension, an inflated count — are rejected.
  EXPECT_GT(rejected, 500);
}

// ------------------------------------------- one-time gathers and broadcast

/// A random graph of 1-12 nodes with arbitrary (possibly one-sided) rows:
/// the codec checks ids and structure, not symmetry.
StaticGraph random_rows_graph(Rng& rng) {
  const NodeID n = 1 + static_cast<NodeID>(rng.bounded(12));
  std::vector<EdgeID> xadj = {0};
  std::vector<NodeID> adj;
  std::vector<EdgeWeight> ewgt;
  std::vector<NodeWeight> vwgt;
  for (NodeID u = 0; u < n; ++u) {
    vwgt.push_back(static_cast<NodeWeight>(1 + rng.bounded(9)));
    for (std::size_t j = 0, arcs = rng.bounded(4); j < arcs; ++j) {
      adj.push_back(static_cast<NodeID>(rng.bounded(n)));
      ewgt.push_back(static_cast<EdgeWeight>(1 + rng.bounded(9)));
    }
    xadj.push_back(adj.size());
  }
  return StaticGraph(std::move(xadj), std::move(adj), std::move(ewgt),
                     std::move(vwgt));
}

/// The graph's rows as \p p ranks send them to the coarsest gather, each
/// row on a random rank, each payload in ascending id order.
std::vector<std::vector<std::uint64_t>> gather_rows(const StaticGraph& g,
                                                    int p, Rng& rng) {
  std::vector<std::vector<std::uint64_t>> gathered(p);
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    std::vector<EdgeWeight> weights;
    for (EdgeID e = g.first_arc(u); e < g.last_arc(u); ++e) {
      weights.push_back(g.arc_weight(e));
    }
    append_row_words(gathered[rng.bounded(p)], u,
                     {g.node_weight(u), g.neighbors(u), weights},
                     [](NodeID) { return true; });
  }
  return gathered;
}

void expect_same_graph(const StaticGraph& a, const StaticGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  for (NodeID u = 0; u < a.num_nodes(); ++u) {
    EXPECT_EQ(a.node_weight(u), b.node_weight(u));
    ASSERT_EQ(a.first_arc(u), b.first_arc(u));
    ASSERT_EQ(a.last_arc(u), b.last_arc(u));
    for (EdgeID e = a.first_arc(u); e < a.last_arc(u); ++e) {
      EXPECT_EQ(a.arc_target(e), b.arc_target(e));
      EXPECT_EQ(a.arc_weight(e), b.arc_weight(e));
    }
  }
}

TEST(GatheredGraphCodec, RoundTripsAndRejectsMalformedGathers) {
  Rng rng(51);
  for (int trial = 0; trial < 200; ++trial) {
    const StaticGraph g = random_rows_graph(rng);
    const int p = 1 + static_cast<int>(rng.bounded(4));
    expect_same_graph(decode_gathered_graph(gather_rows(g, p, rng),
                                            g.num_nodes()),
                      g);
  }
  // Rows of the 3-node path 0 - 1 - 2, one payload per row.
  const std::vector<std::vector<std::uint64_t>> valid = {
      {0, 1, 1, 1, 1}, {1, 1, 2, 0, 1, 2, 1}, {2, 1, 1, 1, 1}};
  expect_same_graph(decode_gathered_graph(valid, 3),
                    decode_gathered_graph({valid[2], valid[0], valid[1]}, 3));
  constexpr std::uint64_t kMaxWeight = std::numeric_limits<NodeWeight>::max();
  std::vector<std::vector<std::vector<std::uint64_t>>> payloads(11, valid);
  payloads[0][0][0] = 3;                // row id out of range
  payloads[1][1][3] = 3;                // target out of range
  payloads[2][0] = valid[1];            // row 1 sent twice, row 0 never
  payloads[3][0].clear();               // row 0 never sent
  payloads[4][2].push_back(7);          // one-word trailing fragment
  payloads[5][2].insert(payloads[5][2].end(), {7, 1});  // two words
  payloads[6][1].pop_back();            // last arc cut short
  payloads[7][0][1] = weight_bits(-1);  // negative node weight
  payloads[8][0][4] = weight_bits(-1);  // negative arc weight
  payloads[9][0][1] = kMaxWeight;       // node weights overflow their sum
  payloads[10][1][4] = kMaxWeight;      // arc weights overflow their sum
  for (const auto& gathered : payloads) {
    EXPECT_THROW((void)decode_gathered_graph(gathered, 3), TransportError);
  }
}

TEST(GatheredGraphCodec, MutationCorpusRaisesOnlyTransportError) {
  Rng rng(53);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const StaticGraph g = random_rows_graph(rng);
    const int p = 1 + static_cast<int>(rng.bounded(4));
    auto gathered = gather_rows(g, p, rng);
    const int mutations = 1 + static_cast<int>(rng.bounded(3));
    for (int m = 0; m < mutations; ++m) mutate(gathered[rng.bounded(p)], rng);
    try {
      const StaticGraph decoded =
          decode_gathered_graph(gathered, g.num_nodes());
      ASSERT_EQ(decoded.num_nodes(), g.num_nodes());
      for (NodeID u = 0; u < decoded.num_nodes(); ++u) {
        for (const NodeID v : decoded.neighbors(u)) {
          EXPECT_LT(v, decoded.num_nodes());
        }
      }
    } catch (const TransportError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1000);
}

/// A level of 0-39 nodes, half the time a finest level (a node -> shard
/// map), else a coarse one (contiguous shard ranges), over 1-6 shards.
DistLevel random_level(Rng& rng) {
  DistLevel level;
  level.global_n = static_cast<NodeID>(rng.bounded(40));
  level.num_shards = 1 + static_cast<BlockID>(rng.bounded(6));
  if (rng.bounded(2) == 0) {
    for (NodeID u = 0; u < level.global_n; ++u) {
      level.node_to_shard.push_back(
          static_cast<BlockID>(rng.bounded(level.num_shards)));
    }
    return level;
  }
  level.shard_begin.assign(level.num_shards + 1, level.global_n);
  level.shard_begin[0] = 0;
  for (BlockID s = 1; s < level.num_shards; ++s) {
    level.shard_begin[s] = std::max(
        level.shard_begin[s - 1],
        static_cast<NodeID>(rng.bounded(level.global_n + 1)));
  }
  return level;
}

/// Random blocks < k for the level's nodes, and each of \p p ranks'
/// owned-block payload as the materializing gather sends it.
std::pair<std::vector<BlockID>, std::vector<std::vector<std::uint64_t>>>
random_owned_blocks(const DistLevel& level, int p, BlockID k, Rng& rng) {
  std::vector<BlockID> blocks(level.global_n);
  for (BlockID& b : blocks) b = static_cast<BlockID>(rng.bounded(k));
  std::vector<std::vector<std::uint64_t>> gathered(p);
  level.for_each_owned(p, [&](int q, NodeID u) {
    gathered[q].push_back(blocks[u]);
  });
  return {blocks, gathered};
}

TEST(OwnedBlocksCodec, RoundTripsAndRejectsMalformedGathers) {
  constexpr BlockID k = 8;
  Rng rng(61);
  for (int trial = 0; trial < 200; ++trial) {
    const DistLevel level = random_level(rng);
    const int p = 1 + static_cast<int>(rng.bounded(5));
    const auto [blocks, gathered] = random_owned_blocks(level, p, k, rng);
    EXPECT_EQ(decode_owned_blocks(level, gathered, k), blocks);
  }
  // Five nodes on shards 0, 1, 0, 1, 1 at p = 2: rank 0 owns {0, 2}.
  DistLevel level;
  level.global_n = 5;
  level.num_shards = 2;
  level.node_to_shard = {0, 1, 0, 1, 1};
  const std::vector<std::vector<std::uint64_t>> valid = {{3, 4}, {5, 6, 7}};
  EXPECT_EQ(decode_owned_blocks(level, valid, k),
            (std::vector<BlockID>{3, 5, 4, 6, 7}));
  std::vector<std::vector<std::vector<std::uint64_t>>> payloads(5, valid);
  payloads[0][0].pop_back();               // one block short
  payloads[1][1].push_back(0);             // one block too many
  payloads[2][0].clear();                  // nothing from rank 0
  payloads[3][1][2] = k;                   // block out of range
  payloads[4][0][0] = (std::uint64_t{1} << 32) + 1;  // low bits pass
  for (const auto& gathered : payloads) {
    EXPECT_THROW((void)decode_owned_blocks(level, gathered, k),
                 TransportError);
  }
  // Coarse levels read the same layout off the shard ranges.
  DistLevel coarse;
  coarse.global_n = 5;
  coarse.num_shards = 3;
  coarse.shard_begin = {0, 2, 2, 5};  // rank 0: shards 0, 2; rank 1: 1
  EXPECT_EQ(decode_owned_blocks(coarse, {{1, 2, 3, 4, 5}, {}}, k),
            (std::vector<BlockID>{1, 2, 3, 4, 5}));
  EXPECT_THROW((void)decode_owned_blocks(coarse, {{1, 2, 3, 4}, {5}}, k),
               TransportError);
}

TEST(OwnedBlocksCodec, MutationCorpusRaisesOnlyTransportError) {
  constexpr BlockID k = 8;
  Rng rng(67);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const DistLevel level = random_level(rng);
    const int p = 1 + static_cast<int>(rng.bounded(5));
    auto gathered = random_owned_blocks(level, p, k, rng).second;
    const int mutations = 1 + static_cast<int>(rng.bounded(3));
    for (int m = 0; m < mutations; ++m) mutate(gathered[rng.bounded(p)], rng);
    try {
      const std::vector<BlockID> blocks =
          decode_owned_blocks(level, gathered, k);
      ASSERT_EQ(blocks.size(), level.global_n);
      for (const BlockID b : blocks) EXPECT_LT(b, k);
    } catch (const TransportError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1000);
}

TEST(AssignmentCodec, RoundTripsAndRejectsMalformedBroadcasts) {
  constexpr BlockID k = 4;
  EXPECT_EQ(decode_assignment(std::vector<std::uint64_t>{0, 3, 1}, 3, k),
            (std::vector<BlockID>{0, 3, 1}));
  EXPECT_TRUE(decode_assignment({}, 0, k).empty());
  const std::vector<std::vector<std::uint64_t>> payloads = {
      {},                               // nothing broadcast
      {0, 3},                           // one block short
      {0, 3, 1, 2},                     // one block too many
      {0, k, 1},                        // block out of range
      {0, (std::uint64_t{1} << 32) + 3, 1},  // low bits pass
  };
  for (const auto& words : payloads) {
    EXPECT_THROW((void)decode_assignment(words, 3, k), TransportError);
  }
}

TEST(AssignmentCodec, MutationCorpusRaisesOnlyTransportError) {
  constexpr BlockID k = 16;
  Rng rng(71);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const NodeID n = static_cast<NodeID>(rng.bounded(20));
    std::vector<std::uint64_t> words;
    for (NodeID u = 0; u < n; ++u) words.push_back(rng.bounded(k));
    const int mutations = 1 + static_cast<int>(rng.bounded(3));
    for (int m = 0; m < mutations; ++m) mutate(words, rng);
    try {
      const std::vector<BlockID> blocks = decode_assignment(words, n, k);
      ASSERT_EQ(blocks.size(), n);
      for (const BlockID b : blocks) EXPECT_LT(b, k);
    } catch (const TransportError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1000);
}

TEST(AttemptEntryCodec, PicksTheLeastEntryAndRejectsOtherLengths) {
  using Entries = std::vector<std::vector<std::uint64_t>>;
  EXPECT_EQ(attempt_winner(Entries{{0, 9, 1}}), 0);
  EXPECT_EQ(attempt_winner(Entries{{1, 2, 0}, {0, 9, 3}, {0, 9, 2}}), 2);
  EXPECT_EQ(attempt_winner(Entries{{0, 5, 4}, {0, 4, 7}}), 1);
  const std::vector<Entries> rejects = {
      {{0, 9, 1}, {}},            // a peer sent nothing
      {{0, 9, 1}, {0, 9}},        // one word short
      {{0, 9, 1, 5}, {0, 9, 2}},  // one word too many
  };
  for (const Entries& entries : rejects) {
    EXPECT_THROW((void)attempt_winner(entries), TransportError);
  }
}

TEST(AttemptEntryCodec, MutationCorpusRaisesOnlyTransportError) {
  Rng rng(73);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const int p = 1 + static_cast<int>(rng.bounded(5));
    std::vector<std::vector<std::uint64_t>> entries(p);
    for (auto& entry : entries) {
      entry = {rng.bounded(2), rng.bounded(1000), rng.bounded(32)};
    }
    const int mutations = 1 + static_cast<int>(rng.bounded(3));
    for (int m = 0; m < mutations; ++m) mutate(entries[rng.bounded(p)], rng);
    try {
      const int winner = attempt_winner(entries);
      EXPECT_GE(winner, 0);
      EXPECT_LT(winner, p);
    } catch (const TransportError&) {
      ++rejected;
    }
  }
  // Only the length mutations — truncation and extension — are rejected.
  EXPECT_GT(rejected, 500);
}

}  // namespace
}  // namespace kappa
