/// \file pair_view.hpp
/// \brief The pair-local view of a pair with a shipped side.
///
/// A pair {a, b} whose block b lives on another rank runs on a view built
/// from the two encoded sides (parallel/pair_side.hpp): a fresh
/// StaticGraph and Partition over the union of both bands and their
/// frozen context, run by the pair kernel's StaticGraph model. A pair
/// whose two blocks share an owner runs in place instead, on the resident
/// rows (parallel/resident_pair.hpp); the view numbers its nodes by
/// ascending global id, which is the order key of the in-place model, so
/// both give the same moves. Exposed so that a test can replay an
/// in-place pair through the view.
#pragma once

#include <vector>

#include "graph/partition.hpp"
#include "graph/quotient_graph.hpp"
#include "graph/static_graph.hpp"
#include "parallel/pair_side.hpp"
#include "util/types.hpp"

namespace kappa {

/// A pair-local view: the two shipped/local bands as movable nodes with
/// their full in-pair rows, plus the frozen stubs — fringe nodes and any
/// cross-side band-row target outside the other band (possible when
/// mid-level moves created boundary the stale quotient seeds miss). Stubs
/// carry their true block, so every band gain is exact, but they are
/// non-movable: their rows are only the mirror arcs back into the bands,
/// and their weights are never read. View ids ascend with global ids and
/// the block weights are the caller-supplied *global* pair weights, so
/// the search on the view is a pure function of the pair and the supplied
/// state — independent of p and of which rank executes (the caller passes
/// the globally consistent replicated weights).
struct PairView {
  StaticGraph graph;
  Partition partition;
  std::vector<NodeID> to_global;
  std::vector<BlockID> entry;  ///< entry block per view node
  std::vector<char> movable;   ///< band nodes; stubs are frozen context
  std::vector<NodeID> seeds;   ///< boundary seeds, mapped into view ids
};

/// Builds the view of \p edge from its two sides; \p weight_a and
/// \p weight_b are the pair's global block weights.
[[nodiscard]] PairView build_pair_view(const PairSide& side_a,
                                       const PairSide& side_b,
                                       NodeWeight weight_a,
                                       NodeWeight weight_b,
                                       const QuotientEdge& edge, BlockID k);

}  // namespace kappa
