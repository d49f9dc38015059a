/// \file twoway_fm.hpp
/// \brief FM local search between two blocks (§5.2).
///
/// For each of the two blocks under consideration a priority queue of
/// eligible nodes is kept, keyed by gain (cut decrease when moved to the
/// other side). Every node moves at most once per search. Queues are
/// initialized in random order with the pair's boundary nodes, each
/// node's gain and boundary flag taken in one scan of its row. Every
/// queued key stays the node's exact gain: moving u adds 2·w(u, v) to the
/// key of each queued neighbor v in the block u left and subtracts it in
/// the block u entered, so a move costs O(deg(u)) heap updates and no
/// neighbor row is rescanned (Fiduccia & Mattheyses, DAC 1982); a
/// neighbor that becomes boundary is scanned once, when it is queued. Queue
/// selection strategies (Table 4 left): Alternating, MaxLoad, TopGain
/// (falling back to MaxLoad when a block is overloaded — the paper's
/// "exception" that makes TopGain feasible), TopGainMaxLoad.
///
/// The search stops after alpha * min(|A|, |B|) fruitless moves and rolls
/// back to the state with the lexicographically best
/// (imbalance, cutValue), where imbalance =
/// max(0, max(c(A) - Lmax, c(B) - Lmax)).
///
/// The search is part of the pair kernel: a template over a pair model
/// (refinement/pair_model.hpp). The StaticGraph overload wraps
/// GraphPairModel.
#pragma once

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "graph/partition.hpp"
#include "graph/static_graph.hpp"
#include "refinement/pair_model.hpp"
#include "util/addressable_pq.hpp"
#include "util/random.hpp"
#include "util/stamp_set.hpp"
#include "util/types.hpp"

namespace kappa {

/// Queue selection strategies evaluated in Table 4 (left).
enum class QueueSelection {
  kTopGain,         ///< larger top gain wins; MaxLoad when overloaded
  kMaxLoad,         ///< heavier block gives a node
  kAlternate,       ///< strictly alternate between A and B
  kTopGainMaxLoad,  ///< TopGain, ties broken by MaxLoad
};

/// Human-readable strategy name (for table output).
[[nodiscard]] const char* queue_selection_name(QueueSelection s);

/// Parameters of one two-way FM search.
struct TwoWayFMOptions {
  QueueSelection queue_selection = QueueSelection::kTopGain;
  /// FM patience: abort after alpha * min(|A|,|B|) moves without
  /// lexicographic improvement (Table 2: 1% / 5% / 20%; Walshaw mode 30%).
  double patience_alpha = 0.05;
  /// Balance bound Lmax for block a (see max_block_weight_bound()).
  NodeWeight max_block_weight = 0;
  /// Balance bound for block b; 0 means "same as block a". Unequal bounds
  /// arise in recursive bisection with non-power-of-two k, where the two
  /// sides have different target weights.
  NodeWeight max_block_weight_b = 0;
};

/// Outcome of one search. The adopted state never worsens the
/// lexicographic objective: either imbalance_gain > 0, or
/// imbalance_gain == 0 and cut_gain >= 0. (cut_gain may be negative only
/// when imbalance strictly improved.)
struct TwoWayFMResult {
  EdgeWeight cut_gain = 0;        ///< decrease of the total cut
  NodeWeight imbalance_gain = 0;  ///< decrease of pairwise imbalance (>= 0)
  NodeID moved_nodes = 0;         ///< nodes moved in the adopted state
};

namespace detail {

/// Per-thread reusable scratch of the FM search, sized by the largest id
/// space seen; avoids O(n) allocation per pair search, which matters when
/// k^2/2 pairs are refined on every level.
struct FMWorkspace {
  StampSet eligible;
  StampSet moved;
  AddressablePQ<NodeID, EdgeWeight> pq[2];
  std::size_t pq_capacity = 0;

  void prepare(std::size_t id_space) {
    eligible.clear(id_space);
    moved.clear(id_space);
    if (pq_capacity < id_space) {
      pq[0].reset(id_space);
      pq[1].reset(id_space);
      pq_capacity = id_space;
    } else {
      pq[0].clear();
      pq[1].clear();
    }
  }
};

/// This thread's workspace.
FMWorkspace& fm_workspace();

/// Lexicographic objective value: (imbalance, cut change).
struct FMObjective {
  NodeWeight imbalance;
  EdgeWeight cut_delta;

  bool operator<(const FMObjective& other) const {
    if (imbalance != other.imbalance) return imbalance < other.imbalance;
    return cut_delta < other.cut_delta;
  }
};

}  // namespace detail

/// Runs FM between blocks \p a and \p b of \p model.
///
/// \param eligible nodes allowed to move — the band computed by
///        bounded BFS from the pair boundary (§5.2); all must currently
///        belong to block a or b.
///
/// Postcondition: the lexicographic objective
/// (pair imbalance, total cut) never worsens.
template <typename Model>
[[nodiscard]] TwoWayFMResult twoway_fm(Model& model, BlockID a, BlockID b,
                                       std::span<const NodeID> eligible,
                                       const TwoWayFMOptions& options,
                                       Rng& rng) {
  detail::FMWorkspace& ws = detail::fm_workspace();
  ws.prepare(model.id_space());

  const BlockID blocks[2] = {a, b};
  auto side_of = [&](BlockID block) -> int { return block == a ? 0 : 1; };

  // Gain of moving u to the opposite block of the pair, and whether u is
  // pair boundary, in one row scan: edges to blocks other than a/b are
  // unaffected, so only pair-internal arcs count.
  struct Scan {
    EdgeWeight gain = 0;
    bool boundary = false;
  };
  auto scan = [&](NodeID u) -> Scan {
    const BlockID own = model.block(u);
    const BlockID other = own == a ? b : a;
    const PairRow row = model.row(u);
    Scan s;
    for (std::size_t i = 0; i < row.targets.size(); ++i) {
      const BlockID bv = model.block(row.targets[i]);
      if (bv == other) {
        s.gain += row.weights[i];
        s.boundary = true;
      } else if (bv == own) {
        s.gain -= row.weights[i];
      }
    }
    return s;
  };

  // Mark eligibility and count eligible nodes per side.
  NodeID side_count[2] = {0, 0};
  for (const NodeID u : eligible) {
    assert(model.block(u) == a || model.block(u) == b);
    ws.eligible.insert(u);
    ++side_count[side_of(model.block(u))];
  }

  // Initialize the queues in random order with the pair's boundary nodes.
  std::vector<NodeID> init(eligible.begin(), eligible.end());
  rng.shuffle(init);
  for (const NodeID u : init) {
    const Scan s = scan(u);
    if (s.boundary) ws.pq[side_of(model.block(u))].push(u, s.gain);
  }

  NodeWeight weight[2] = {model.block_weight(a), model.block_weight(b)};
  const NodeWeight lmax[2] = {options.max_block_weight,
                              options.max_block_weight_b != 0
                                  ? options.max_block_weight_b
                                  : options.max_block_weight};
  auto imbalance_now = [&]() -> NodeWeight {
    return std::max<NodeWeight>(
        0, std::max(weight[0] - lmax[0], weight[1] - lmax[1]));
  };

  detail::FMObjective current{imbalance_now(), 0};
  const NodeWeight initial_imbalance = current.imbalance;
  detail::FMObjective best = current;
  std::size_t best_prefix = 0;  // number of moves in the adopted state
  std::vector<NodeID> moves;

  const NodeID min_side = std::min(side_count[0], side_count[1]);
  const std::size_t patience = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.patience_alpha *
                                  static_cast<double>(min_side)));
  std::size_t fruitless = 0;
  int alternate_side = rng.coin() ? 1 : 0;

  while (!ws.pq[0].empty() || !ws.pq[1].empty()) {
    // --- Queue selection (Table 4 left). ---
    int side = 0;
    // "Heavier" is relative to each side's bound so that unequal-target
    // bisections rebalance toward their own targets.
    const int heavier =
        weight[0] - lmax[0] >= weight[1] - lmax[1] ? 0 : 1;
    const bool overloaded = weight[0] > lmax[0] || weight[1] > lmax[1];
    switch (options.queue_selection) {
      case QueueSelection::kMaxLoad:
        side = heavier;
        break;
      case QueueSelection::kAlternate:
        alternate_side ^= 1;
        side = alternate_side;
        break;
      case QueueSelection::kTopGain:
      case QueueSelection::kTopGainMaxLoad:
        if (overloaded) {
          // The exception that keeps TopGain feasible: an overloaded
          // situation is resolved MaxLoad-style (§5.2).
          side = heavier;
        } else if (ws.pq[0].empty() || ws.pq[1].empty()) {
          side = ws.pq[0].empty() ? 1 : 0;
        } else if (ws.pq[0].top_key() != ws.pq[1].top_key()) {
          side = ws.pq[0].top_key() > ws.pq[1].top_key() ? 0 : 1;
        } else if (options.queue_selection ==
                   QueueSelection::kTopGainMaxLoad) {
          side = heavier;
        } else {
          side = rng.coin() ? 1 : 0;  // TopGain: random tie breaking
        }
        break;
    }
    if (ws.pq[side].empty()) side ^= 1;
    if (ws.pq[side].empty()) break;

    // --- Move the selected node. ---
    const NodeID u = ws.pq[side].top();
    const EdgeWeight gain = ws.pq[side].top_key();
    ws.pq[side].pop();

    const BlockID to = blocks[side ^ 1];
    const NodeWeight w = model.node_weight(u);
    if (weight[side] - w < 1) {
      // Never empty a block: an empty block loses its quotient edges and
      // can never be refilled by pairwise refinement, which bricks the
      // k-way partition. Cut gain must not annihilate small blocks.
      continue;
    }
    ws.moved.insert(u);
    model.move(u, to);
    weight[side] -= w;
    weight[side ^ 1] += w;
    current.cut_delta -= gain;
    current.imbalance = imbalance_now();
    moves.push_back(u);

    if (current < best) {
      best = current;
      best_prefix = moves.size();
      fruitless = 0;
    } else if (++fruitless > patience) {
      break;  // FM patience exhausted (§5.2)
    }

    // --- Update gains of affected neighbors. ---
    // A queued key is v's exact gain, so u's move shifts it by 2·w(u, v):
    // up when v is in the block u left, down when v is in u's new block.
    // A neighbor not queued yet is queued if it is pair boundary now.
    const PairRow row = model.row(u);
    for (std::size_t i = 0; i < row.targets.size(); ++i) {
      const NodeID v = row.targets[i];
      if (!ws.eligible.contains(v) || ws.moved.contains(v)) continue;
      const BlockID bv = model.block(v);
      if (bv != a && bv != b) continue;
      const int vside = side_of(bv);
      if (ws.pq[vside].contains(v)) {
        const EdgeWeight delta = 2 * row.weights[i];
        ws.pq[vside].update_key(
            v, ws.pq[vside].key(v) + (vside == side ? delta : -delta));
      } else {
        const Scan s = scan(v);
        if (s.boundary) ws.pq[vside].push(v, s.gain);
      }
    }
  }

  // --- Roll back to the lexicographically best prefix. ---
  for (std::size_t i = moves.size(); i > best_prefix; --i) {
    const NodeID u = moves[i - 1];
    model.move(u, model.block(u) == a ? b : a);
  }

  // After rollback the partition is exactly the best-prefix state, so the
  // adopted objective is `best`.
  TwoWayFMResult result;
  result.cut_gain = -best.cut_delta;
  result.imbalance_gain = initial_imbalance - best.imbalance;
  result.moved_nodes = static_cast<NodeID>(best_prefix);
  return result;
}

/// twoway_fm() on a StaticGraph and its Partition.
[[nodiscard]] TwoWayFMResult twoway_fm(const StaticGraph& graph,
                                       Partition& partition, BlockID a,
                                       BlockID b,
                                       std::span<const NodeID> eligible,
                                       const TwoWayFMOptions& options,
                                       Rng& rng);

}  // namespace kappa
