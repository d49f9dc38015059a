#include "refinement/edge_coloring.hpp"

#include <algorithm>
#include <string>

namespace kappa {

namespace {

/// Smallest color unused at both endpoints — min(L ∩ L') of the protocol.
int min_free_color(const std::vector<bool>& used_a,
                   const std::vector<bool>& used_b) {
  for (int c = 0;; ++c) {
    const bool a_used =
        c < static_cast<int>(used_a.size()) && used_a[c];
    const bool b_used =
        c < static_cast<int>(used_b.size()) && used_b[c];
    if (!a_used && !b_used) return c;
  }
}

void mark_used(std::vector<bool>& used, int color) {
  if (static_cast<std::size_t>(color) >= used.size()) {
    used.resize(color + 1, false);
  }
  used[color] = true;
}

}  // namespace

EdgeColoring color_quotient_edges(const QuotientGraph& quotient,
                                  const Rng& rng) {
  const BlockID k = quotient.num_blocks();
  const std::size_t num_edges = quotient.edges().size();

  EdgeColoring coloring;
  coloring.color_of_edge.assign(num_edges, -1);
  if (num_edges == 0 || k == 0) return coloring;

  // One private stream per block: block b draws from rng.fork(b), as
  // block-PE b would in the message-passing form of the protocol. The
  // streams are keyed to blocks, never to ranks, so the coloring is the
  // same for every PE count.
  std::vector<Rng> block_rng;
  block_rng.reserve(k);
  for (BlockID b = 0; b < k; ++b) block_rng.push_back(rng.fork(b));

  // L(b): colors already used on edges incident to block b.
  std::vector<std::vector<bool>> used(k);
  // Uncolored incident edges per block, with lazy deletion (kept in
  // incident order — the candidate order of the protocol).
  std::vector<std::vector<std::size_t>> pending(k);
  for (BlockID b = 0; b < k; ++b) {
    pending[b] = quotient.incident(b);
  }

  constexpr std::size_t kNoEdge = static_cast<std::size_t>(-1);
  std::size_t colored = 0;
  while (colored < num_edges) {
    // --- Coin flips: every block is active or passive this round. ---
    std::vector<bool> active(k);
    for (BlockID b = 0; b < k; ++b) active[b] = block_rng[b].coin();

    // --- Active PEs each nominate one random uncolored incident edge. ---
    std::vector<std::size_t> nominated(k, kNoEdge);
    for (BlockID b = 0; b < k; ++b) {
      if (!active[b]) continue;
      auto& list = pending[b];
      // Lazy deletion of already-colored edges.
      std::erase_if(list, [&](std::size_t e) {
        return coloring.color_of_edge[e] != -1;
      });
      if (list.empty()) continue;
      nominated[b] = list[block_rng[b].bounded(list.size())];
    }

    // --- Passive PEs answer with min(L ∩ L'), serving their incident
    // edges in neighbor order (the order the protocol's per-channel
    // receives impose). Requests whose nominator is also active are
    // rejected (§5.1) — here: simply not served. ---
    for (BlockID v = 0; v < k; ++v) {
      if (active[v]) continue;
      for (const std::size_t e : quotient.incident(v)) {
        const QuotientEdge& edge = quotient.edges()[e];
        const BlockID u = edge.a == v ? edge.b : edge.a;
        if (!active[u] || nominated[u] != e) continue;
        const int c = min_free_color(used[u], used[v]);
        coloring.color_of_edge[e] = c;
        mark_used(used[u], c);
        mark_used(used[v], c);
        coloring.num_colors = std::max(coloring.num_colors, c + 1);
        ++colored;
      }
    }
  }
  return coloring;
}

std::string validate_coloring(const QuotientGraph& quotient,
                              const EdgeColoring& coloring) {
  if (coloring.color_of_edge.size() != quotient.edges().size()) {
    return "coloring size mismatch";
  }
  for (std::size_t i = 0; i < coloring.color_of_edge.size(); ++i) {
    if (coloring.color_of_edge[i] < 0) {
      return "uncolored edge " + std::to_string(i);
    }
  }
  for (BlockID b = 0; b < quotient.num_blocks(); ++b) {
    std::vector<int> seen;
    for (const std::size_t e : quotient.incident(b)) {
      seen.push_back(coloring.color_of_edge[e]);
    }
    std::sort(seen.begin(), seen.end());
    if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
      return "two incident edges of block " + std::to_string(b) +
             " share a color";
    }
  }
  return {};
}

}  // namespace kappa
