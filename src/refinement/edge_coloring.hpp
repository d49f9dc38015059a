/// \file edge_coloring.hpp
/// \brief Greedy edge coloring of the quotient graph (§5.1).
///
/// The colors partition the quotient edges into matchings; pairs of one
/// color touch disjoint blocks and can be refined concurrently. The paper
/// parallelizes the classic greedy coloring with a randomized
/// request/response protocol: every PE keeps a free-color list; each
/// round, PEs flip active/passive coins; an active PE u picks a random
/// uncolored incident edge {u,v} and sends it with its free list to v;
/// a passive v answers with c = min(L(u) ∩ L(v)); requests to other
/// active PEs are rejected. At most twice the optimal number of colors
/// is used.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "graph/quotient_graph.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace kappa {

/// Result of an edge coloring: color of every quotient edge (indexed like
/// QuotientGraph::edges()) plus the number of colors used.
struct EdgeColoring {
  std::vector<int> color_of_edge;
  int num_colors = 0;

  /// Edge indices of one color class — a matching of Q.
  [[nodiscard]] std::vector<std::size_t> color_class(int color) const {
    std::vector<std::size_t> result;
    for (std::size_t i = 0; i < color_of_edge.size(); ++i) {
      if (color_of_edge[i] == color) result.push_back(i);
    }
    return result;
  }
};

/// Runs the randomized distributed protocol described in §5.1, simulated
/// round by round with one forked RNG stream per block (block b draws
/// from rng.fork(b), the stream block-PE b would draw from). The result
/// is a pure function of the quotient and the seed, so every SPMD rank,
/// which holds the whole merged quotient, computes the same coloring
/// without a message. It schedules both the sequential and the SPMD
/// refiner. Terminates with certainty because every round with at least
/// one active/passive pair colors an edge and singleton conflicts are
/// resolved by re-flipping. The caller's generator is not advanced.
[[nodiscard]] EdgeColoring color_quotient_edges(const QuotientGraph& quotient,
                                                const Rng& rng);

/// Checks the coloring invariant: no two incident quotient edges share a
/// color; every edge is colored. Returns empty string if valid.
[[nodiscard]] std::string validate_coloring(const QuotientGraph& quotient,
                                            const EdgeColoring& coloring);

}  // namespace kappa
