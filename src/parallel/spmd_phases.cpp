#include "parallel/spmd_phases.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <tuple>

#include "graph/metrics.hpp"
#include "initial/initial_partitioner.hpp"
#include "parallel/resident_pair.hpp"
#include "parallel/wire_format.hpp"
#include "refinement/edge_coloring.hpp"
#include "util/progress.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace kappa {

// ------------------------------------------------ SPMD initial partition ----

Partition spmd_initial_partition(const StaticGraph& coarsest,
                                 const Config& config, PEContext& pe) {
  const BlockID k = config.k;
  const int p = pe.size();
  const int rank = pe.rank();
  const NodeID n = coarsest.num_nodes();
  const Rng rng = Rng(config.seed).fork(2);

  // Attempt pool: the paper repeats initial partitioning "init. repeats"
  // times on each of its p = k PEs. Attempts are keyed by index — not by
  // rank — so the pool and its winner are independent of the physical PE
  // count; the cap keeps huge k from turning this cheap phase into a
  // bottleneck.
  const int attempts =
      std::max(config.init_repeats,
               std::min(config.init_repeats * static_cast<int>(k), 32));

  InitialPartitionOptions options;
  options.eps = config.eps;
  options.repeats = 1;

  // My share of the attempts, each with its private stream (§4: "each with
  // a different seed for the random number generator").
  constexpr std::uint64_t kWorst = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t best_infeasible = kWorst;
  std::uint64_t best_cut = kWorst;
  std::uint64_t best_attempt = kWorst;
  Partition best;
  for (int a = rank; a < attempts; a += p) {
    Rng attempt_rng = rng.fork(static_cast<std::uint64_t>(a));
    Partition candidate = initial_partition(coarsest, k, options, attempt_rng);
    const std::uint64_t infeasible =
        is_balanced(coarsest, candidate, config.eps) ? 0 : 1;
    const std::uint64_t cut =
        static_cast<std::uint64_t>(edge_cut(coarsest, candidate));
    const std::uint64_t attempt = static_cast<std::uint64_t>(a);
    if (std::tie(infeasible, cut, attempt) <
        std::tie(best_infeasible, best_cut, best_attempt)) {
      best_infeasible = infeasible;
      best_cut = cut;
      best_attempt = attempt;
      best = std::move(candidate);
    }
  }

  // All-reduce the winner: lexicographic (feasibility, cut, attempt) —
  // the attempt index makes the pick unique and p-invariant.
  const int winner = attempt_winner(
      pe.all_gather_vectors({best_infeasible, best_cut, best_attempt}));

  // The winning PE broadcasts its solution (§4: "The best solution is then
  // broadcast to all PEs").
  std::vector<std::uint64_t> words;
  if (rank == winner) {
    words.reserve(n);
    for (NodeID u = 0; u < n; ++u) words.push_back(best.block(u));
  }
  return Partition(coarsest,
                   decode_assignment(pe.broadcast(words, winner), n, k), k);
}

int attempt_winner(const std::vector<std::vector<std::uint64_t>>& entries) {
  for (const std::vector<std::uint64_t>& entry : entries) {
    if (entry.size() != 3) {
      throw TransportError("malformed attempt entry: not three words");
    }
  }
  int winner = 0;
  for (int q = 1; q < static_cast<int>(entries.size()); ++q) {
    if (entries[q] < entries[winner]) winner = q;
  }
  return winner;
}

std::vector<int> pair_executors(const QuotientGraph& quotient,
                                std::span<const std::size_t> pairs, int p) {
  const std::vector<QuotientEdge>& edges = quotient.edges();
  std::vector<std::size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return edges[pairs[x]].boundary.size() >
                            edges[pairs[y]].boundary.size();
                   });
  std::vector<std::size_t> load(static_cast<std::size_t>(p), 0);
  std::vector<int> executor(pairs.size());
  for (const std::size_t i : order) {
    const QuotientEdge& edge = edges[pairs[i]];
    const int owner_a = round_robin_owner(edge.a, p);
    const int owner_b = round_robin_owner(edge.b, p);
    const int chosen = load[owner_b] < load[owner_a] ? owner_b : owner_a;
    load[chosen] += edge.boundary.size();
    executor[i] = chosen;
  }
  return executor;
}

// -------------------------------------------------------- SPMD refinement ----

QuotientGraph gather_quotient(const BlockRowShard& store,
                              const DistPartition& partition, BlockID k,
                              PEContext& pe) {
  // Local contributions per block pair: the minimal (node, arc position)
  // at which one of my resident rows sees the pair (the first-encounter
  // key of a full row scan), my share of the cut weight (counted from the
  // bu < bv side, whose row is resident at exactly one rank), and my
  // boundary nodes. Target blocks come from the sharded partition state
  // through the rows' resolved slots — no rank consults an assignment
  // replica, and no arc is hashed. One record per (row, other block),
  // found through a dense per-block index that is reset after each row.
  struct RowHit {
    std::uint64_t key;
    NodeID u;
    std::uint64_t pos;
    EdgeWeight cut;
  };
  std::vector<RowHit> hits;
  std::vector<NodeID> hit_of_block(k, kInvalidNode);
  for (NodeID h = 0; h < store.num_handles(); ++h) {
    const BlockID bu = store.member_block(h);
    if (bu == kInvalidBlock) continue;
    const NodeID u = store.handle_global(h);
    const GraphRowView row = store.row_at(h);
    const std::size_t row_first = hits.size();
    for (std::size_t pos = 0; pos < row.slots.size(); ++pos) {
      const BlockID bv = partition.block_at(row.slots[pos]);
      if (bv == bu) continue;
      if (hit_of_block[bv] == kInvalidNode) {
        hit_of_block[bv] = static_cast<NodeID>(hits.size());
        const auto [lo, hi] = std::minmax(bu, bv);
        hits.push_back({pack_pair(lo, hi), u, pos, 0});
      }
      if (bu < bv) hits[hit_of_block[bv]].cut += row.weights[pos];
    }
    for (std::size_t i = row_first; i < hits.size(); ++i) {
      const auto [lo, hi] = unpack_pair(hits[i].key);
      hit_of_block[lo == bu ? hi : lo] = kInvalidNode;
    }
  }
  // Per pair, sorted by node: the first record holds the minimal
  // (node, position) and the nodes are the (sorted, unique) boundary.
  std::sort(hits.begin(), hits.end(), [](const RowHit& x, const RowHit& y) {
    return std::tie(x.key, x.u) < std::tie(y.key, y.u);
  });
  std::vector<std::uint64_t> words;
  for (std::size_t i = 0; i < hits.size();) {
    std::size_t j = i;
    EdgeWeight cut = 0;
    while (j < hits.size() && hits[j].key == hits[i].key) cut += hits[j++].cut;
    words.push_back(hits[i].key);
    words.push_back(hits[i].u);
    words.push_back(hits[i].pos);
    words.push_back(weight_bits(cut));
    words.push_back(j - i);
    for (; i < j; ++i) words.push_back(hits[i].u);
  }

  // Merge the all-gathered contributions — identical code over identical
  // data on every PE. (O(boundary) per rank, not O(n_l): block ids never
  // travel here.)
  struct Contribution {
    std::uint64_t key;
    NodeID first_u;
    std::uint64_t first_pos;
    EdgeWeight cut;
    std::span<const std::uint64_t> boundary;
  };
  const auto gathered =
      // kappa-lint: allow(no-refinement-block-gathers, "O(boundary) quotient contributions, never block ids")
      pe.all_gather_vectors(std::move(words));
  std::vector<Contribution> contributions;
  for (const auto& vec : gathered) {
    std::size_t i = 0;
    while (i < vec.size()) {
      if (vec.size() - i < 5 || vec[i + 4] > vec.size() - i - 5) {
        throw TransportError("malformed quotient contribution");
      }
      const std::size_t count = vec[i + 4];
      contributions.push_back(
          {vec[i], static_cast<NodeID>(vec[i + 1]), vec[i + 2],
           bits_weight(vec[i + 3]),
           std::span<const std::uint64_t>(vec.data() + i + 5, count)});
      i += 5 + count;
    }
  }
  std::stable_sort(contributions.begin(), contributions.end(),
                   [](const Contribution& x, const Contribution& y) {
                     return x.key < y.key;
                   });
  struct Merged {
    NodeID first_u;
    std::uint64_t first_pos;
    QuotientEdge edge;
  };
  std::vector<Merged> merged;
  for (std::size_t i = 0; i < contributions.size();) {
    const auto [a, b] = unpack_pair(contributions[i].key);
    Merged m{contributions[i].first_u, contributions[i].first_pos,
             {static_cast<BlockID>(a), static_cast<BlockID>(b), 0, {}}};
    std::size_t j = i;
    for (; j < contributions.size() && contributions[j].key ==
                                           contributions[i].key;
         ++j) {
      const Contribution& c = contributions[j];
      if (std::tie(c.first_u, c.first_pos) <
          std::tie(m.first_u, m.first_pos)) {
        m.first_u = c.first_u;
        m.first_pos = c.first_pos;
      }
      m.edge.cut_weight += c.cut;
      m.edge.boundary.insert(m.edge.boundary.end(), c.boundary.begin(),
                             c.boundary.end());
    }
    std::sort(m.edge.boundary.begin(), m.edge.boundary.end());
    m.edge.boundary.erase(
        std::unique(m.edge.boundary.begin(), m.edge.boundary.end()),
        m.edge.boundary.end());
    merged.push_back(std::move(m));
    i = j;
  }

  // Order the pairs exactly as a sequential row scan first encounters
  // them.
  std::sort(merged.begin(), merged.end(), [](const Merged& x, const Merged& y) {
    return std::tie(x.first_u, x.first_pos) < std::tie(y.first_u, y.first_pos);
  });
  std::vector<QuotientEdge> edges;
  edges.reserve(merged.size());
  for (Merged& m : merged) edges.push_back(std::move(m.edge));
  return QuotientGraph(k, std::move(edges));
}

SpmdRefiner::SpmdRefiner(const StaticGraph& finest, const Config& config,
                         PEContext& pe, const Partition* warm,
                         PairSideObserver observer)
    : finest_(finest),
      config_(config),
      pe_(pe),
      rng_(Rng(config.seed).fork(3)),
      global_bound_(max_block_weight_bound(finest, config.k, config.eps)),
      warm_(warm),
      observer_(std::move(observer)) {}

namespace {

/// After the §5.2 data distribution of a level: record the store's
/// members in the partition state (a member of block b is in block b),
/// fetch the blocks of the resident rows' targets it does not know yet
/// from their shard owners — the working set the quotient construction,
/// the band builders and the in-pair filters read; none at p = 1, where
/// every node is owned — and bind the store to the partition
/// state's slots, which resolves every resident arc once and builds the
/// referrer index. Collective (the fetch rendezvous), so every rank passes
/// through here in lockstep.
void sync_partition_with_store(BlockRowShard& store, DistPartition& partition,
                               BlockID k, PEContext& pe) {
  for (BlockID b = 0; b < k; ++b) {
    if (!store.owns_block(b)) continue;
    for (const NodeID u : store.members(b)) partition.learn(u, b);
  }
  std::vector<NodeID> needed;
  store.for_each_resident_row(
      [&](NodeID, NodeWeight, std::span<const NodeID> targets,
          std::span<const EdgeWeight>) {
        for (const NodeID t : targets) {
          if (!partition.knows(t)) needed.push_back(t);
        }
      });
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  partition.fetch_blocks(needed, pe);
  store.bind_slots(partition);
}

/// The target blocks that trail a migrating row in its message (one word
/// per arc), checked against the payload and against \p k.
std::span<const std::uint64_t> target_blocks(
    const std::vector<std::uint64_t>& words, std::size_t& cursor,
    const GraphRow& row, BlockID k) {
  if (cursor > words.size() || row.targets.size() > words.size() - cursor) {
    throw TransportError("malformed row migration: target blocks");
  }
  const std::span<const std::uint64_t> blocks(words.data() + cursor,
                                              row.targets.size());
  for (const std::uint64_t b : blocks) {
    if (b >= k) throw TransportError("malformed row migration: target block");
  }
  cursor += row.targets.size();
  return blocks;
}

/// Marks \p slot dirty (once per iteration).
void mark_dirty(PairPathState& state, NodeID slot) {
  if (slot >= state.is_dirty.size()) state.is_dirty.resize(slot + 1, 0);
  if (state.is_dirty[slot] != 0) return;
  state.is_dirty[slot] = 1;
  state.dirty.push_back(slot);
}

/// Folds the journal entries written since the last call into the dirty
/// set: each journaled node plus every resident row naming it.
void drain_journal(PairPathState& state, const BlockRowShard& store,
                   const DistPartition& partition) {
  const std::vector<NodeID>& journal = partition.journal();
  for (; state.journal_seen < journal.size(); ++state.journal_seen) {
    const NodeID t = journal[state.journal_seen];
    mark_dirty(state, t);
    store.for_each_referrer(
        t, [&](NodeID h) { mark_dirty(state, store.handle_slot(h)); });
  }
}

}  // namespace

QuotientGraph SpmdRefiner::take_quotient(const BlockRowShard& store,
                                         DistPartition& partition) {
  KAPPA_TRACE_SPAN("refine.quotient");
  restart_pair_path(pair_state_, partition);
  return gather_quotient(store, partition, partition.k(), pe_);
}

void restart_pair_path(PairPathState& state, DistPartition& partition) {
  for (const NodeID slot : state.dirty) state.is_dirty[slot] = 0;
  state.dirty.clear();
  state.journal_seen = 0;
  partition.clear_journal();
}

namespace {

/// The §5.2 band of block \p side of the pair {a, b} at its owner, in one
/// pass over dense ids: the bounded boundary-band BFS of depth
/// \p ship_depth on the resident rows, seeded by the side's *current*
/// pair boundary plus the quotient edge's seeds that still sit in this
/// side. The seeds are exact without scanning the block: a node's
/// pair-boundary status can only have changed since the quotient was
/// taken if the node or one of its row's targets was journaled since, so
/// the current boundary is the quotient's boundary (still in this side)
/// plus the dirty rows that are boundary now. Every cross-side step of
/// the free two-block band BFS lands on a current pair-boundary node, so
/// the union of the two per-side bands equals the band the sequential
/// boundary_band() would compute on a replica. Leaves the band's slots,
/// seeds first, in st.band, stamped with st.epoch (st.epoch + 1 is free
/// for the fringe).
void build_side_band(const BlockRowShard& store,
                     const DistPartition& partition, const QuotientEdge& edge,
                     BlockID side, int ship_depth, PairPathState& st) {
  const BlockID other = side == edge.a ? edge.b : edge.a;
  if (st.stamp.size() < partition.num_slots()) {
    st.stamp.resize(partition.num_slots(), 0);
    st.index.resize(partition.num_slots());
  }
  if (st.epoch > std::numeric_limits<std::uint32_t>::max() - 4) {
    std::fill(st.stamp.begin(), st.stamp.end(), 0);
    st.epoch = 0;
  }
  st.epoch += 2;
  const std::uint32_t in_band = st.epoch;
  st.band.clear();
  st.frontier.clear();
  // Band nodes need their row here; an entry naming this side without a
  // resident row (never the case with consistent state) is not admitted.
  auto admit = [&](NodeID slot) {
    if (st.stamp[slot] == in_band) return false;
    if (store.handle_at_slot(slot) == kInvalidNode) return false;
    st.stamp[slot] = in_band;
    st.band.push_back(slot);
    return true;
  };

  drain_journal(st, store, partition);
  for (const NodeID u : edge.boundary) {
    const NodeID slot = partition.slot_of(u);
    if (slot != kInvalidNode && partition.block_at(slot) == side) {
      admit(slot);
    }
  }
  for (const NodeID slot : st.dirty) {
    const NodeID h = store.handle_at_slot(slot);
    if (h == kInvalidNode || store.member_block(h) != side ||
        partition.block_at(slot) != side) {
      continue;
    }
    for (const NodeID t : store.row_at(h).slots) {
      if (partition.block_at(t) == other) {
        admit(slot);
        break;
      }
    }
  }
  st.num_seeds = st.band.size();
  st.frontier = st.band;
  for (int level = 1; level < ship_depth && !st.frontier.empty(); ++level) {
    st.next.clear();
    for (const NodeID u : st.frontier) {
      for (const NodeID t : store.row_at(store.handle_at_slot(u)).slots) {
        if (partition.block_at(t) == side && admit(t)) st.next.push_back(t);
      }
    }
    st.frontier.swap(st.next);
  }
}

}  // namespace

/// Builds block \p side's half of the pair {a, b} at its owner:
/// build_side_band(), then one row pass that writes each band row's
/// in-pair arcs and collects the same-side fringe straight into the wire
/// layout.
PairSide build_pair_side(const BlockRowShard& store,
                         const DistPartition& partition,
                         const QuotientEdge& edge, BlockID side,
                         int ship_depth, PairPathState& st) {
  const BlockID a = edge.a;
  const BlockID b = edge.b;
  build_side_band(store, partition, edge, side, ship_depth, st);
  const std::uint32_t in_band = st.epoch;
  const std::uint32_t in_fringe = st.epoch + 1;

  st.order.clear();
  for (const NodeID slot : st.band) {
    st.order.emplace_back(partition.global_at(slot), slot);
  }
  std::sort(st.order.begin(), st.order.end());
  for (NodeID i = 0; i < st.order.size(); ++i) st.index[st.order[i].second] = i;
  st.fringe.clear();
  PairSideWriter writer(static_cast<NodeID>(st.order.size()));
  for (const auto& [u, slot] : st.order) {
    const GraphRowView row = store.row_at(store.handle_at_slot(slot));
    writer.begin_row(u, row.weight);
    for (std::size_t i = 0; i < row.slots.size(); ++i) {
      const NodeID t = row.slots[i];
      const BlockID bt = partition.block_at(t);
      if (bt != a && bt != b) continue;
      if (st.stamp[t] == in_band) {
        writer.add_band_arc(st.index[t], row.weights[i]);
      } else if (bt == side) {
        if (st.stamp[t] != in_fringe) {
          st.stamp[t] = in_fringe;
          st.index[t] = static_cast<NodeID>(st.fringe.size());
          st.fringe.push_back(row.targets[i]);
        }
        writer.add_fringe_arc(st.index[t], row.weights[i]);
      } else {
        writer.add_global_arc(row.targets[i], row.weights[i]);
      }
    }
  }
  return writer.finish(st.fringe);
}

void SpmdRefiner::report_side(const BlockRowShard& store,
                              const DistPartition& partition,
                              const QuotientEdge& edge, BlockID side,
                              int depth, const PairSide* built,
                              const ExecutedPair* executed) {
  if (!observer_) return;
  const PairPathState& st = pair_state_;
  observer_({store, partition, edge, side, depth,
             std::span(st.band).first(st.num_seeds), st.band, built,
             executed});
}

PairRefineResult SpmdRefiner::run_pair(
    const BlockRowShard& store, DistPartition& partition,
    const QuotientEdge& edge, const PairSide* partner,
    const PairwiseRefinerOptions& options, const Rng& base_rng,
    std::uint64_t seed_tag, std::vector<std::uint64_t>& delta_words) {
  PairPathState& st = pair_state_;
  const int depth = options.bfs_depth;
  const BlockID own = store.owns_block(edge.a) ? edge.a : edge.b;
  const BlockID other = own == edge.a ? edge.b : edge.a;
  // The movable nodes are exactly the two side bands; the rows of the
  // owned ones come from the store, the partner's from its shipped side.
  const auto gather_band = [&](BlockID side) {
    build_side_band(store, partition, edge, side, depth, st);
    gather_resident_rows(store, partition, edge.a, edge.b, st.band, st.rows);
  };
  st.rows.clear();
  if (partner == nullptr) {  // this rank owns both blocks
    gather_band(other);
    report_side(store, partition, edge, other, depth, nullptr, nullptr);
  }
  gather_band(own);
  if (partner != nullptr) {
    attach_shipped_side(*partner, other, own, partition, st.rows);
  }

  // The quotient's boundary list seeds the search, resolved after the
  // attach (the band BFS skips the entries that left the pair).
  st.seeds.clear();
  for (const NodeID u : edge.boundary) {
    const NodeID slot = partition.slot_of(u);
    if (slot != kInvalidNode) st.seeds.push_back(slot);
  }
  SlotPairModel model(st.rows, partition, edge.a, edge.b);
  PairRefineResult result = refine_pair(model, edge.a, edge.b, st.seeds,
                                        options, base_rng, seed_tag);
  model.restore(result.moves);
  for (const auto& [slot, to] : result.moves) {
    const BlockID from = to == edge.a ? edge.b : edge.a;
    append_move_delta(delta_words, {partition.global_at(slot), from, to,
                                    model.node_weight(slot)});
  }
  const ExecutedPair executed{seed_tag, result};
  report_side(store, partition, edge, own, depth, nullptr, &executed);
  partition.detach();
  return result;
}

void SpmdRefiner::refine(const DistHierarchy& hierarchy, std::size_t level,
                         DistPartition& partition) {
  const PairwiseRefinerOptions options = level_refine_options(
      config_, global_bound_, hierarchy.level_max_node_weight(level));
  const BlockID k = partition.k();
  const Rng level_rng = rng_.fork(level);

  // §5.2: "immediately after uncontracting a matching, every PE stores
  // the partition it is responsible for in a static adjacency array
  // representation" — the data distribution step. Rows arrive from their
  // shard owners with their block words; the ghost-block cache is then
  // refreshed for the resident rows' targets, and every refinement inner
  // loop below reads resident rows, shipped bands, or the sharded
  // partition state. The finest level's store is retained: it drives the
  // rebalancing insurance and doubles as the incrementally maintained
  // §5.2 migration view.
  if (level == 0) {
    finest_store_.emplace(hierarchy.distribute_block_rows(0, partition, k));
    sync_partition_with_store(*finest_store_, partition, k, pe_);
    pe_.record().partition_memory.merge_peak(partition.footprint());
    pe_.record().shard_memory.merge_peak(finest_store_->footprint());
    run_pairwise(*finest_store_, partition, options, level_rng);
    pe_.record().partition_memory.merge_peak(partition.footprint());
    return;
  }
  BlockRowShard store = hierarchy.distribute_block_rows(level, partition, k);
  sync_partition_with_store(store, partition, k, pe_);
  pe_.record().partition_memory.merge_peak(partition.footprint());
  pe_.record().shard_memory.merge_peak(store.footprint());
  run_pairwise(store, partition, options, level_rng);
  pe_.record().partition_memory.merge_peak(partition.footprint());
}

void SpmdRefiner::run_pairwise(BlockRowShard& store, DistPartition& partition,
                               const PairwiseRefinerOptions& options,
                               const Rng& base_rng) {
  int no_change_streak = 0;
  for (int global = 0; global < options.max_global_iterations; ++global) {
    KAPPA_TRACE_SPAN("refine.iteration", static_cast<std::uint64_t>(global));
    progress_iteration(static_cast<std::uint32_t>(global));
    // Quotient graph from all-gathered per-rank contributions — merged
    // identically on every PE, so every rank starts the color classes
    // from the same pair list in the same order.
    const QuotientGraph quotient = take_quotient(store, partition);
    if (quotient.edges().empty()) break;  // every block is isolated

    EdgeWeight my_cut_gain = 0;
    NodeWeight my_imbalance_gain = 0;
    run_color_classes(store, partition, options, base_rng, quotient, global,
                      my_cut_gain, my_imbalance_gain);

    // Stop rule on the *global* iteration gains, both in one all-reduce
    // (modular arithmetic makes the unsigned sums exact for signed gains).
    const std::vector<std::uint64_t> gains = pe_.all_reduce_sum_vec(
        {static_cast<std::uint64_t>(my_cut_gain),
         static_cast<std::uint64_t>(my_imbalance_gain)});
    const EdgeWeight cut_gain = static_cast<EdgeWeight>(gains[0]);
    const NodeWeight imbalance_gain = static_cast<NodeWeight>(gains[1]);
    if (cut_gain > 0 || imbalance_gain > 0) {
      no_change_streak = 0;
    } else if (++no_change_streak >= options.stop_no_change) {
      break;
    }
  }
  pe_.record().partition_memory.merge_peak(partition.footprint());
}

void SpmdRefiner::run_color_classes(BlockRowShard& store,
                                    DistPartition& partition,
                                    const PairwiseRefinerOptions& options,
                                    const Rng& base_rng,
                                    const QuotientGraph& quotient, int global,
                                    EdgeWeight& my_cut_gain,
                                    NodeWeight& my_imbalance_gain) {
  const int p = pe_.size();
  const int rank = pe_.rank();
  const BlockID k = partition.k();
  const int ship_depth = options.bfs_depth;
  PairShipStats& ship = pe_.record().pair_ship;

  // The schedule: the §5.1 edge coloring of the quotient. Every rank
  // holds the whole merged quotient and colors it from the same stream,
  // so every rank knows every pair of every class without a message.
  const Rng color_rng = base_rng.fork(coloring_fork_tag(global));
  const EdgeColoring coloring = color_quotient_edges(quotient, color_rng);

  for (int color = 0; color < coloring.num_colors; ++color) {
    KAPPA_TRACE_SPAN("refine.color_class", static_cast<std::uint64_t>(color));
    const std::vector<std::size_t> pairs = coloring.color_class(color);
    // A rank that neither executes nor partners any pair of the class
    // still joins the class's delta collective below: every rank applies
    // every delta to its partition state and block weights.
    bool participated = false;

    // Each pair runs at one of its two blocks' owners, picked by
    // pair_executors() from the quotient every rank holds. When the other
    // block lives elsewhere, its owner ships its side of the pair — the
    // §5.2 boundary band plus fringe, not the whole block. All sends of
    // the class are posted before any receive; per-source FIFO delivery
    // pairs them with the executor's receives, which follow the same
    // class order.
    const std::vector<int> executors = pair_executors(quotient, pairs, p);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const QuotientEdge& edge = quotient.edges()[pairs[i]];
      const int executor = executors[i];
      const BlockID shipped =
          round_robin_owner(edge.a, p) == executor ? edge.b : edge.a;
      if (executor != rank && round_robin_owner(shipped, p) == rank) {
        KAPPA_TRACE_SPAN("pair.ship", edge.a, edge.b);
        PairSide side = build_pair_side(store, partition, edge, shipped,
                                        ship_depth, pair_state_);
        report_side(store, partition, edge, shipped, ship_depth, &side,
                    nullptr);
        ship.pairs_shipped += 1;
        ship.rows_shipped += side.band_size() + side.fringe_size();
        ship.words_shipped += side.num_words();
        ship.whole_block_rows += store.members(shipped).size();
        participated = true;
        pe_.send(executor, std::move(side).release());
      }
    }

    std::vector<std::uint64_t> delta_words;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (executors[i] != rank) continue;
      const std::size_t j = pairs[i];
      const QuotientEdge& edge = quotient.edges()[j];
      KAPPA_TRACE_SPAN("pair.execute", edge.a, edge.b);
      ship.pairs_executed += 1;
      progress_pair();
      participated = true;
      const int owner_a = round_robin_owner(edge.a, p);
      const int owner_b = round_robin_owner(edge.b, p);
      std::optional<PairSide> partner;
      if (owner_a != owner_b) {
        partner = PairSide::parse(
            pe_.receive(owner_a == rank ? owner_b : owner_a).payload);
        // The shipped partner band is this pair's transient intake.
        ShardFootprint with_intake = store.footprint();
        with_intake.ghost_nodes += partner->band_size() + partner->fringe_size();
        with_intake.arcs += partner->num_arcs();
        pe_.record().shard_memory.merge_peak(with_intake);
      }
      const PairRefineResult result =
          run_pair(store, partition, edge, partner ? &*partner : nullptr,
                   options, base_rng, pair_seed_tag(global, j), delta_words);
      my_cut_gain += result.cut_gain;
      my_imbalance_gain += result.imbalance_gain;
    }
    if (!participated) ++pe_.record().comm.rounds_waited;

    // Moved-node delta exchange: deltas carry (node, to), weight and
    // the entry block, so every PE can apply the gathered moves to the
    // partition state it holds — owned entries, cached entries and the
    // replicated block weights — without any rank knowing the full
    // assignment. The volume is O(moves), never O(n_l).
    const auto gathered =
        // kappa-lint: allow(no-refinement-block-gathers, "O(moves) round deltas, never block ids")
        pe_.all_gather_vectors(std::move(delta_words));
    std::vector<MoveDelta> migrations;
    for (const auto& vec : gathered) {
      for (const MoveDelta& m : decode_move_deltas(vec, k)) {
        if (m.from == m.to) continue;
        partition.apply_move(m.u, m.from, m.to, m.weight);
        migrations.push_back(m);
      }
    }

    // Row migration with a schedule every rank derives from the same
    // gathered deltas: the old owner ships the full row plus the blocks
    // of its targets (it had them cached for its own searches; the new
    // owner needs them for the next quotient construction and band
    // filters), the new owner takes the row into the store's side arena.
    std::vector<std::vector<std::uint64_t>> outbox(p);
    std::vector<int> expect_from(p, 0);
    for (const MoveDelta& m : migrations) {
      const int old_owner = round_robin_owner(m.from, p);
      const int new_owner = round_robin_owner(m.to, p);
      if (old_owner == new_owner) {
        if (old_owner == rank) store.apply_move(m.u, m.from, m.to, nullptr);
        continue;
      }
      if (old_owner == rank) {
        const GraphRow row = store.apply_move(m.u, m.from, m.to, nullptr);
        append_row_words(outbox[new_owner], m.u,
                         {row.weight, row.targets, row.weights},
                         [](NodeID) { return true; });
        for (const NodeID t : row.targets) {
          outbox[new_owner].push_back(partition.block(t));
        }
      } else if (new_owner == rank) {
        ++expect_from[old_owner];
      }
    }
    for (int q = 0; q < p; ++q) {
      if (q != rank && !outbox[q].empty()) pe_.send(q, std::move(outbox[q]));
    }
    std::vector<std::vector<std::uint64_t>> inbox(p);
    std::vector<std::size_t> cursor(p, 0);
    for (int q = 0; q < p; ++q) {
      if (expect_from[q] > 0) inbox[q] = pe_.receive(q).payload;
    }
    for (const MoveDelta& m : migrations) {
      const int old_owner = round_robin_owner(m.from, p);
      const int new_owner = round_robin_owner(m.to, p);
      if (new_owner != rank || old_owner == rank || old_owner == new_owner) {
        continue;
      }
      GraphRow row;
      if (decode_row_words(inbox[old_owner], cursor[old_owner], row) != m.u) {
        throw TransportError("malformed row migration: unscheduled row");
      }
      partition.learn(m.u, m.to);
      const std::span<const std::uint64_t> blocks =
          target_blocks(inbox[old_owner], cursor[old_owner], row, k);
      for (std::size_t i = 0; i < row.targets.size(); ++i) {
        partition.learn(row.targets[i], static_cast<BlockID>(blocks[i]));
      }
      store.apply_move(m.u, m.from, m.to, &row, &partition);
    }
    pe_.record().shard_memory.merge_peak(store.footprint());
  }
}

void SpmdRefiner::rebalance(DistPartition& partition) {
  assert(finest_store_.has_value() &&
         "refine(level 0) must run before rebalance");
  // The insurance loop (§5.2 exception rule): should the finest level
  // still be overloaded, run additional MaxLoad-driven iterations with
  // escalating band depth through the same distributed color-class
  // machinery — on the retained finest-level store, never on a replica.
  // The Lmax check reads the replicated O(k) block weights only. Mirrors
  // rebalance_until_feasible() in loop shape and RNG forks.
  for (int attempt = 0;
       attempt < kMaxRebalanceAttempts &&
       partition.max_block_weight() > global_bound_;
       ++attempt) {
    run_pairwise(*finest_store_, partition,
                 rebalance_options(config_, finest_, global_bound_, attempt),
                 rng_.fork(100 + attempt));
  }
  if (warm_ != nullptr) pe_.record().migration = migration_intake();
}

MigrationIntake SpmdRefiner::migration_intake() const {
  assert(warm_ != nullptr && "migration accounting needs the warm input");
  assert(finest_store_.has_value());
  const BlockRowShard& store = *finest_store_;

  // The store was maintained incrementally by the moved-node deltas and
  // row migrations of refine/rebalance, so at this point it holds exactly
  // the rows of the nodes in this rank's final blocks — the §5.2
  // migration view, with block membership read off the member lists
  // themselves (a member of block b is in block b; no partition replica
  // is consulted). A member whose warm-input block differs migrated in;
  // its row arcs to resident rows are the adjacency shipped with it.
  MigrationIntake intake;
  for (BlockID b = 0; b < warm_->k(); ++b) {
    if (!store.owns_block(b)) continue;
    for (const NodeID u : store.members(b)) {
      if (warm_->block(u) == b) continue;
      ++intake.nodes;
      for (const NodeID t : store.row_view(u).slots) {
        const NodeID h = store.handle_at_slot(t);
        if (h != kInvalidNode && store.member_block(h) != kInvalidBlock) {
          ++intake.edges;
        }
      }
    }
  }
  return intake;
}

// ------------------------------------------------------------ SPMD driver ----

PartitionResult run_multilevel_spmd(const StaticGraph& graph,
                                    const Config& config, PEContext& pe,
                                    const Partition* warm,
                                    PairSideObserver observer) {
  Timer total_timer;
  PartitionResult result;

  // --- Phase 1: contraction into the distributed hierarchy store (§3). ---
  Timer phase_timer;
  progress_phase(ProgressPhase::kCoarsen);
  DistHierarchy hierarchy = [&] {
    KAPPA_TRACE_SPAN("phase.coarsen");
    return DistHierarchy(graph, coarsening_options(graph, config, warm),
                         Rng(config.seed).fork(1), pe);
  }();
  result.coarsening_time = phase_timer.elapsed_s();
  result.hierarchy_levels = hierarchy.num_levels();
  result.coarsest_nodes = hierarchy.level_nodes(hierarchy.num_levels() - 1);
  result.hierarchy_level_nodes.reserve(hierarchy.num_levels());
  for (std::size_t l = 0; l < hierarchy.num_levels(); ++l) {
    result.hierarchy_level_nodes.push_back(hierarchy.level_nodes(l));
  }

  // --- Phase 2: initial partitioning on the once-gathered coarsest (§4),
  // or the warm input projected down the sharded hierarchy (each rank
  // walks its own ownership chain; only the O(coarsest) result is
  // gathered, before the coarsest graph itself). ---
  phase_timer.restart();
  progress_phase(ProgressPhase::kInitial);
  Partition coarsest_partition = [&] {
    KAPPA_TRACE_SPAN("phase.initial");
    if (warm != nullptr) {
      std::vector<BlockID> projected = hierarchy.coarsest_warm_assignment();
      return Partition(hierarchy.coarsest(), std::move(projected), config.k);
    }
    return spmd_initial_partition(hierarchy.coarsest(), config, pe);
  }();
  result.initial_time = phase_timer.elapsed_s();

  // --- Phase 3: uncoarsening with pairwise refinement (§5). The partition
  // state is sharded end to end: seeded at the coarsest level, projected
  // shard-locally through the contraction maps, refined pair by pair on
  // the executors' gathered rows, and materialized exactly once for the
  // result. ---
  phase_timer.restart();
  progress_phase(ProgressPhase::kRefine);
  SpmdRefiner refiner(graph, config, pe, warm, std::move(observer));
  DistPartition partition = [&] {
    KAPPA_TRACE_SPAN("phase.refine");
    DistPartition refined = hierarchy.lift(coarsest_partition);
    for (std::size_t level = hierarchy.num_levels(); level-- > 0;) {
      KAPPA_TRACE_SPAN("refine.level", level);
      progress_level(static_cast<std::uint32_t>(level));
      if (level + 1 < hierarchy.num_levels()) {
        refined = hierarchy.project(level, refined);
      }
      refiner.refine(hierarchy, level, refined);
    }
    {
      KAPPA_TRACE_SPAN("phase.rebalance");
      progress_phase(ProgressPhase::kRebalance);
      refiner.rebalance(refined);
    }
    return refined;
  }();
  result.refinement_time = phase_timer.elapsed_s();

  progress_phase(ProgressPhase::kMaterialize);
  Partition final_partition = [&] {
    KAPPA_TRACE_SPAN("phase.materialize");
    return hierarchy.materialize(partition);
  }();
  result.cut = edge_cut(graph, final_partition);
  result.balance = balance(graph, final_partition);
  result.balanced = is_balanced(graph, final_partition, config.eps);
  result.partition = std::move(final_partition);
  result.total_time = total_timer.elapsed_s();
  progress_phase(ProgressPhase::kDone);
  return result;
}

}  // namespace kappa
