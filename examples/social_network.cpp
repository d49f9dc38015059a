/// \file social_network.cpp
/// \brief Social-network scenario: skewed degrees stress the coarsening
/// phase; the paper's structural edge ratings keep node weights uniform
/// where the plain weight rating lets hub clusters snowball.
///
/// The paper's benchmark includes coAuthorsDBLP and citationCiteseer for
/// exactly this reason. This example partitions a preferential-attachment
/// graph with the weight rating vs. expansion*2 and reports cut quality
/// and the coarsening statistics that explain the difference.
#include <cmath>
#include <cstdio>

#include "coarsening/hierarchy.hpp"
#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "matching/ratings.hpp"
#include "util/random.hpp"

int main() {
  using namespace kappa;

  Rng rng(11);
  const StaticGraph social = barabasi_albert(/*n=*/30'000, /*attach=*/5, rng);
  NodeID max_degree = 0;
  for (NodeID u = 0; u < social.num_nodes(); ++u) {
    max_degree = std::max(max_degree, social.degree(u));
  }
  std::printf("social network: %u users, %llu links, max degree %u\n",
              social.num_nodes(),
              static_cast<unsigned long long>(social.num_edges()),
              max_degree);

  const BlockID k = 8;
  std::printf("\n%-14s%-10s%-10s%-10s%-12s%-14s\n", "rating", "cut",
              "balance", "levels", "coarse n", "weight CV");
  for (const EdgeRating rating :
       {EdgeRating::kWeight, EdgeRating::kExpansionStar2}) {
    Config config = Config::preset(Preset::kFast, k);
    config.rating = rating;
    config.seed = 3;
    const PartitionResult result =
        Partitioner(Context::sequential(config)).partition(social);

    // Reproduce the coarsening to inspect the node-weight distribution at
    // the coarsest level — the paper's argument for structural ratings:
    // "discouraging heavy nodes leads to much more uniform contraction".
    CoarseningOptions coarsening;
    coarsening.rating = rating;
    coarsening.contraction_limit = contraction_stop_threshold(
        social.num_nodes(), k, kContractionStopAlpha);
    Rng crng(3);
    const Hierarchy hierarchy = build_hierarchy(social, coarsening, crng);
    const StaticGraph& coarsest = hierarchy.coarsest();
    double mean = 0;
    for (NodeID u = 0; u < coarsest.num_nodes(); ++u) {
      mean += static_cast<double>(coarsest.node_weight(u));
    }
    mean /= coarsest.num_nodes();
    double variance = 0;
    for (NodeID u = 0; u < coarsest.num_nodes(); ++u) {
      const double d = static_cast<double>(coarsest.node_weight(u)) - mean;
      variance += d * d;
    }
    variance /= coarsest.num_nodes();
    const double cv = std::sqrt(variance) / mean;  // coefficient of variation

    std::printf("%-14s%-10lld%-10.3f%-10zu%-12u%-14.3f\n",
                rating_name(rating), static_cast<long long>(result.cut),
                result.balance, hierarchy.num_levels(), coarsest.num_nodes(),
                cv);
  }
  std::printf(
      "\nexpansion*2 contracts hub graphs in fewer, more uniform levels\n"
      "(lower weight CV = more uniform coarse nodes), which is what makes\n"
      "balanced high-quality partitions of hub-heavy graphs possible\n"
      "(Table 3 of the paper: the plain weight rating is up to 8.8%% "
      "worse).\n");
  return 0;
}
