#include "parallel/dist_coloring.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "parallel/shard_graph.hpp"
#include "util/trace.hpp"

namespace kappa {

namespace {

/// Free lists travel as fixed-size bitmaps; 2k colors upper-bounds any
/// greedy edge coloring of a k-node quotient graph.
std::size_t bitmap_words(BlockID k) { return (2 * k + 63) / 64; }

void set_bit(std::vector<std::uint64_t>& bitmap, int bit) {
  bitmap[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

bool test_bit(const std::vector<std::uint64_t>& bitmap, int bit) {
  return (bitmap[bit / 64] >> (bit % 64)) & 1;
}

}  // namespace

RefinerColoringResult distributed_color_quotient_edges(
    const QuotientGraph& quotient, const Rng& rng, PEContext& pe) {
  const BlockID k = quotient.num_blocks();
  const std::size_t num_edges = quotient.edges().size();
  const int p = pe.size();
  const int rank = pe.rank();

  RefinerColoringResult result;
  result.coloring.color_of_edge.assign(num_edges, -1);
  // The quotient is replicated, so every rank takes this branch alike
  // and no collective is left unmatched.
  if (num_edges == 0 || k == 0) return result;

  // Virtual block-PE b lives on the rank that owns block b's rows — the
  // same map the pair scheduler uses, so protocol knowledge lands exactly
  // where executor/partner decisions need it.
  std::vector<int> owner(k);
  for (BlockID b = 0; b < k; ++b) {
    owner[b] = BlockRowShard::owner_of_block(b, p);
  }
  // Rank-level neighborhood: ranks hosting a block adjacent to one of
  // ours. Derived from the replicated quotient, hence symmetric.
  std::vector<int> neighbor_ranks;
  {
    std::vector<bool> is_neighbor(static_cast<std::size_t>(p), false);
    for (const QuotientEdge& edge : quotient.edges()) {
      const int ra = owner[edge.a];
      const int rb = owner[edge.b];
      if (ra == rank && rb != rank) is_neighbor[static_cast<std::size_t>(rb)] = true;
      if (rb == rank && ra != rank) is_neighbor[static_cast<std::size_t>(ra)] = true;
    }
    for (int q = 0; q < p; ++q) {
      if (is_neighbor[static_cast<std::size_t>(q)]) neighbor_ranks.push_back(q);
    }
  }
  PESubGroup group(pe, owner, neighbor_ranks);

  // Per hosted block: the protocol state of its virtual PE. Block b draws
  // from rng.fork(b), matching the greedy oracle.
  struct BlockState {
    BlockID id = 0;
    Rng rng;
    std::vector<std::uint64_t> used;    ///< complement of L(b), bitmap
    std::vector<std::size_t> incident;  ///< edge ids, incident order
    std::vector<BlockID> neighbors;     ///< other endpoint per slot
    std::vector<int> local_color;       ///< per slot, -1 = uncolored
    bool active = false;
  };
  const std::size_t words = bitmap_words(k);
  std::vector<BlockState> hosted;
  std::vector<int> hosted_index(k, -1);  // block id -> index in `hosted`
  for (BlockID b = 0; b < k; ++b) {
    if (owner[b] != rank) continue;
    BlockState state;
    state.id = b;
    state.rng = rng.fork(b);
    state.used.assign(words, 0);
    state.incident = quotient.incident(b);
    for (const std::size_t e : state.incident) {
      const QuotientEdge& edge = quotient.edges()[e];
      state.neighbors.push_back(edge.a == b ? edge.b : edge.a);
    }
    state.local_color.assign(state.incident.size(), -1);
    hosted_index[b] = static_cast<int>(hosted.size());
    hosted.push_back(std::move(state));
  }

  const auto slot_of_edge = [](const BlockState& state, std::size_t e) {
    for (std::size_t j = 0; j < state.incident.size(); ++j) {
      if (state.incident[j] == e) return j;
    }
    assert(false && "edge not incident to hosted block");
    return state.incident.size();
  };

  while (true) {
    // --- Termination detection (the only global synchronization). ---
    std::uint64_t uncolored = 0;
    for (const BlockState& state : hosted) {
      for (const int c : state.local_color) uncolored += (c == -1) ? 1 : 0;
    }
    if (pe.all_reduce_sum(uncolored) == 0) break;
    ++result.rounds;
    KAPPA_TRACE_SPAN("color.round",
                     static_cast<std::uint64_t>(result.rounds), uncolored);

    // --- Phase A: coin flips; active blocks nominate one random
    // uncolored incident edge, shipping their used-bitmap with it. ---
    for (BlockState& state : hosted) {
      state.active = state.rng.coin();
      if (!state.active) continue;
      std::vector<std::size_t> candidates;
      for (std::size_t j = 0; j < state.incident.size(); ++j) {
        if (state.local_color[j] == -1) candidates.push_back(j);
      }
      if (candidates.empty()) continue;
      const std::size_t slot =
          candidates[state.rng.bounded(candidates.size())];
      std::vector<std::uint64_t> msg;
      msg.reserve(1 + words);
      msg.push_back(state.incident[slot]);
      msg.insert(msg.end(), state.used.begin(), state.used.end());
      group.post(static_cast<int>(state.id),
                 static_cast<int>(state.neighbors[slot]), std::move(msg));
    }
    std::vector<VirtualMessage> requests = group.exchange();

    // --- Phase B: passive blocks serve requests in their neighbor
    // (incident-slot) order with c = min(L ∩ L'); requests that land on
    // an active block are rejected by silence. ---
    struct PendingRequest {
      std::size_t slot;
      std::size_t msg;
    };
    std::vector<std::vector<PendingRequest>> per_block(hosted.size());
    for (std::size_t m = 0; m < requests.size(); ++m) {
      const int idx = hosted_index[static_cast<BlockID>(requests[m].to)];
      BlockState& state = hosted[static_cast<std::size_t>(idx)];
      if (state.active) continue;  // rejection (§5.1)
      per_block[static_cast<std::size_t>(idx)].push_back(
          {slot_of_edge(state, requests[m].payload[0]), m});
    }
    for (std::size_t idx = 0; idx < hosted.size(); ++idx) {
      BlockState& state = hosted[idx];
      auto& pending = per_block[idx];
      std::sort(pending.begin(), pending.end(),
                [](const PendingRequest& a, const PendingRequest& b) {
                  return a.slot < b.slot;
                });
      for (const PendingRequest& req : pending) {
        const VirtualMessage& msg = requests[req.msg];
        const std::size_t e = msg.payload[0];
        int color = 0;
        while (test_bit(state.used, color) ||
               ((msg.payload[1 + static_cast<std::size_t>(color) / 64] >>
                 (color % 64)) &
                1)) {
          ++color;
        }
        set_bit(state.used, color);
        state.local_color[req.slot] = color;
        result.coloring.color_of_edge[e] = color;
        group.post(static_cast<int>(state.id), msg.from,
                   {e, static_cast<std::uint64_t>(color)});
      }
    }
    std::vector<VirtualMessage> replies = group.exchange();

    // --- Phase C: requesters learn their color. ---
    for (const VirtualMessage& msg : replies) {
      const int idx = hosted_index[static_cast<BlockID>(msg.to)];
      BlockState& state = hosted[static_cast<std::size_t>(idx)];
      const std::size_t e = msg.payload[0];
      const int color = static_cast<int>(msg.payload[1]);
      state.local_color[slot_of_edge(state, e)] = color;
      set_bit(state.used, color);
      result.coloring.color_of_edge[e] = color;
    }
  }

  std::uint64_t max_colors = 0;
  for (const BlockState& state : hosted) {
    for (const int c : state.local_color) {
      max_colors = std::max(max_colors, static_cast<std::uint64_t>(c + 1));
    }
  }
  result.coloring.num_colors =
      static_cast<int>(pe.all_reduce_max(max_colors));
  return result;
}

}  // namespace kappa
