/// \file tentative_match.hpp
/// \brief The shared bodies of §3.3's two-phase matching.
///
/// parallel_matching (one level graph, one address space) and
/// DistHierarchy::match_level (each rank's resident CSR, gap rounds over
/// channels) both match every shard with match_shard() and build the gap
/// graph the same way — a cross-shard edge qualifies iff its rating beats
/// the *tentative local match* at both endpoints — so given the same
/// shards they compute the same matching. The parMetis-like baseline
/// runs match_shard() alone, without the gap graph.
#pragma once

#include <vector>

#include "graph/static_graph.hpp"
#include "matching/matchers.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace kappa {

/// §3.3 phase 1 on one shard: matches the subgraph of \p graph induced by
/// \p nodes (ascending) with \p algo on the stream
/// level_rng.fork(1 + shard) and records the pairs in \p partner (ids of
/// \p graph). The block constraint of \p options, indexed by ids of
/// \p graph, travels into the shard's id space.
void match_shard(const StaticGraph& graph, const std::vector<NodeID>& nodes,
                 BlockID shard, MatcherAlgo algo,
                 const MatchingOptions& options, const Rng& level_rng,
                 std::vector<NodeID>& partner);

/// Rates arcs of one contraction level under MatchingOptions.rating
/// (precomputing the weighted degrees the innerOuter rating needs) and
/// evaluates the §3.3 gap condition.
class TentativeMatchRater {
 public:
  TentativeMatchRater(const StaticGraph& graph, const MatchingOptions& options);

  /// Variant for a sharded (ghost-layer) CSR whose ghost rows are not
  /// materialized: \p weighted_degrees supplies the full-row weighted
  /// degree per node id of \p graph (owned nodes computed locally, ghost
  /// entries received over the wire). Only consulted by the innerOuter
  /// rating, matching the primary constructor.
  TentativeMatchRater(const StaticGraph& graph, const MatchingOptions& options,
                      std::vector<EdgeWeight> weighted_degrees);

  /// Rating of the arc {u, v} of weight \p w.
  [[nodiscard]] double rate_arc(NodeID u, NodeID v, EdgeWeight w) const;

  /// Rating of \p u's tentative matched edge {u, partner_u}; 0.0 when u
  /// is unmatched (partner_u == u). Scans u's arcs for the partner.
  [[nodiscard]] double match_rating(NodeID u, NodeID partner_u) const;

  /// The §3.3 gap condition for a cross-PE edge {u, v} of weight \p w:
  /// the edge enters the gap graph iff the pair weight bound and the
  /// block constraint (warm-started coarsening) admit the contraction
  /// and the edge rating strictly beats the tentative match ratings at
  /// both endpoints (\p rating_u, \p rating_v — possibly received over
  /// the wire). On admission the edge rating is written to
  /// *\p rating_out.
  [[nodiscard]] bool admits_gap_edge(NodeID u, NodeID v, EdgeWeight w,
                                     double rating_u, double rating_v,
                                     double* rating_out) const;

 private:
  const StaticGraph* graph_;
  const MatchingOptions* options_;
  std::vector<EdgeWeight> out_;  ///< weighted degrees; innerOuter only
};

}  // namespace kappa
