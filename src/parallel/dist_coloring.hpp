/// \file dist_coloring.hpp
/// \brief The §5.1 edge-coloring protocol, executed on the PE runtime.
///
/// The message-passing form of color_quotient_edges(): one virtual PE per
/// block, coin flips, REQUEST(edge, free-list) messages from active PEs,
/// REPLY(min L ∩ L') from passive PEs, rejection between active PEs,
/// rounds until a termination all-reduce reports no uncolored edges.
/// The coloring needs only *local* synchronization between collaborating
/// PEs (plus the termination detection), exactly as the paper claims.
/// The SPMD refiner runs it once per global iteration to schedule its
/// pairs; a runtime of p = k ranks hosts one block per rank.
#pragma once

#include "graph/quotient_graph.hpp"
#include "parallel/pe_runtime.hpp"
#include "refinement/edge_coloring.hpp"

namespace kappa {

/// Runs the protocol inside an existing SPMD scope: the k block-PEs live
/// as virtual PEs on the caller's p ranks (block b on rank
/// owner_of_block(b, p), the refiner's ownership map) and exchange their
/// REQUEST/REPLY messages through a PESubGroup, bundled per neighbor rank
/// and per round. Every rank of \p pe must call this collectively with the
/// same quotient and rng.
///
/// Block b draws from rng.fork(b), so the result is — for every p — the
/// identical coloring color_quotient_edges(quotient, rng) computes; only
/// the colors of edges incident to a block hosted on this rank are filled
/// in (the rest stay -1), which is exactly what the rank needs to act as
/// executor or partner. num_colors is globally agreed via an all-reduce.
struct RefinerColoringResult {
  EdgeColoring coloring;  ///< partial: colors of locally hosted blocks' edges
  std::size_t rounds = 0;
};

[[nodiscard]] RefinerColoringResult distributed_color_quotient_edges(
    const QuotientGraph& quotient, const Rng& rng, PEContext& pe);

}  // namespace kappa
