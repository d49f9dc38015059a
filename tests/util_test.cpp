/// \file util_test.cpp
/// \brief Tests for RNG, priority queues and statistics accumulators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "util/addressable_pq.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace kappa {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicUnderSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkedStreamsAreIndependentAndReproducible) {
  Rng base(7);
  Rng f1 = base.fork(0);
  Rng f2 = base.fork(1);
  Rng f1_again = base.fork(0);
  EXPECT_NE(f1(), f2());
  Rng f1_replay = Rng(7).fork(0);
  Rng f1_fresh = Rng(7).fork(0);
  EXPECT_EQ(f1_replay(), f1_fresh());
  (void)f1_again;
}

TEST(Rng, BoundedIsInRangeAndRoughlyUniform) {
  Rng rng(3);
  std::map<std::uint64_t, int> histogram;
  const int samples = 60'000;
  for (int i = 0; i < samples; ++i) {
    const std::uint64_t v = rng.bounded(6);
    ASSERT_LT(v, 6u);
    ++histogram[v];
  }
  for (const auto& [value, count] : histogram) {
    EXPECT_NEAR(count, samples / 6, samples / 60) << "value " << value;
  }
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(5);
  const auto perm = rng.permutation(100);
  std::set<NodeID> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(11);
  std::vector<int> values = {1, 2, 2, 3, 3, 3, 4};
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

// ------------------------------------------------------ AddressablePQ ----

TEST(AddressablePQ, BasicPushPopOrder) {
  AddressablePQ<NodeID, int> pq(10);
  pq.push(3, 30);
  pq.push(1, 10);
  pq.push(7, 70);
  pq.push(2, 20);
  EXPECT_EQ(pq.size(), 4u);
  EXPECT_EQ(pq.top(), 7u);
  EXPECT_EQ(pq.top_key(), 70);
  EXPECT_EQ(pq.pop(), 7u);
  EXPECT_EQ(pq.pop(), 3u);
  EXPECT_EQ(pq.pop(), 2u);
  EXPECT_EQ(pq.pop(), 1u);
  EXPECT_TRUE(pq.empty());
}

TEST(AddressablePQ, UpdateKeyBothDirections) {
  AddressablePQ<NodeID, int> pq(5);
  for (NodeID i = 0; i < 5; ++i) pq.push(i, static_cast<int>(i));
  pq.update_key(0, 100);  // increase
  EXPECT_EQ(pq.top(), 0u);
  pq.update_key(0, -1);  // decrease
  EXPECT_EQ(pq.top(), 4u);
  EXPECT_EQ(pq.key(0), -1);
}

TEST(AddressablePQ, EraseMiddle) {
  AddressablePQ<NodeID, int> pq(5);
  for (NodeID i = 0; i < 5; ++i) pq.push(i, static_cast<int>(i * 10));
  pq.erase(2);
  EXPECT_FALSE(pq.contains(2));
  EXPECT_EQ(pq.size(), 4u);
  std::vector<NodeID> order;
  while (!pq.empty()) order.push_back(pq.pop());
  EXPECT_EQ(order, (std::vector<NodeID>{4, 3, 1, 0}));
}

TEST(AddressablePQ, PushOrUpdate) {
  AddressablePQ<NodeID, int> pq(4);
  pq.push_or_update(1, 5);
  pq.push_or_update(1, 50);
  EXPECT_EQ(pq.size(), 1u);
  EXPECT_EQ(pq.key(1), 50);
}

TEST(AddressablePQ, ClearKeepsCapacity) {
  AddressablePQ<NodeID, int> pq(4);
  pq.push(0, 1);
  pq.push(1, 2);
  pq.clear();
  EXPECT_TRUE(pq.empty());
  EXPECT_FALSE(pq.contains(0));
  pq.push(0, 3);
  EXPECT_EQ(pq.top(), 0u);
}

/// Property sweep: heap behaves like a reference multimap under random
/// operation sequences of varying sizes.
class AddressablePQProperty : public ::testing::TestWithParam<int> {};

TEST_P(AddressablePQProperty, MatchesReferenceImplementation) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 7919);
  AddressablePQ<NodeID, long> pq(n);
  std::map<NodeID, long> reference;

  for (int step = 0; step < 2000; ++step) {
    const int op = static_cast<int>(rng.bounded(4));
    const NodeID id = static_cast<NodeID>(rng.bounded(n));
    const long key = static_cast<long>(rng.bounded(1000)) - 500;
    if (op == 0 && !pq.contains(id)) {
      pq.push(id, key);
      reference[id] = key;
    } else if (op == 1 && pq.contains(id)) {
      pq.update_key(id, key);
      reference[id] = key;
    } else if (op == 2 && pq.contains(id)) {
      pq.erase(id);
      reference.erase(id);
    } else if (op == 3 && !pq.empty()) {
      const long expected =
          std::max_element(reference.begin(), reference.end(),
                           [](const auto& a, const auto& b) {
                             return a.second < b.second;
                           })
              ->second;
      ASSERT_EQ(pq.top_key(), expected);
      reference.erase(pq.pop());
    }
    ASSERT_EQ(pq.size(), reference.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AddressablePQProperty,
                         ::testing::Values(2, 5, 17, 64, 257));

// -------------------------------------------------------------- stats ----

TEST(Stats, GeometricMeanMatchesClosedForm) {
  GeometricMean gm;
  gm.add(2.0);
  gm.add(8.0);
  EXPECT_NEAR(gm.value(), 4.0, 1e-12);
  gm.add(4.0);
  EXPECT_NEAR(gm.value(), 4.0, 1e-12);
  EXPECT_EQ(gm.count(), 3u);
}

TEST(Stats, GeometricMeanClampsNonPositive) {
  GeometricMean gm;
  gm.add(0.0);  // clamped to 1
  gm.add(100.0);
  EXPECT_NEAR(gm.value(), 10.0, 1e-9);
}

TEST(Stats, EmptyGeometricMeanIsZero) {
  GeometricMean gm;
  EXPECT_EQ(gm.value(), 0.0);
}

TEST(Stats, RunAggregateTracksColumns) {
  RunAggregate agg;
  agg.add(100, 1.03, 2.0);
  agg.add(80, 1.01, 4.0);
  agg.add(120, 1.05, 3.0);
  EXPECT_NEAR(agg.avg_cut(), 100.0, 1e-12);
  EXPECT_NEAR(agg.best_cut(), 80.0, 1e-12);
  EXPECT_NEAR(agg.avg_balance(), 1.03, 1e-12);
  EXPECT_NEAR(agg.avg_time(), 3.0, 1e-12);
  EXPECT_EQ(agg.count(), 3u);
}

TEST(JsonString, QuotesAndEscapesEveryControlCharacter) {
  EXPECT_EQ(json_string("phase.coarsen"), "\"phase.coarsen\"");
  EXPECT_EQ(json_string(""), "\"\"");
  EXPECT_EQ(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_string("x\ny\tz"), "\"x\\ny\\tz\"");
  EXPECT_EQ(json_string(std::string("\r\x01\x1f\0", 4)),
            "\"\\u000d\\u0001\\u001f\\u0000\"");
  EXPECT_EQ(json_string("caf\xc3\xa9"), "\"caf\xc3\xa9\"");  // UTF-8 as is
}

}  // namespace
}  // namespace kappa
