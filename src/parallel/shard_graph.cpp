#include "parallel/shard_graph.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "parallel/dist_partition.hpp"
#include "parallel/wire_format.hpp"

namespace kappa {

namespace {

/// The checked row decoding behind decode_row_words() and
/// skip_row_words(): the header goes to \p begin(weight, narcs), each arc
/// to \p arc(target, weight).
template <typename Begin, typename Arc>
NodeID decode_row(const std::vector<std::uint64_t>& words,
                  std::size_t& cursor, Begin&& begin, Arc&& arc) {
  if (cursor > words.size() || words.size() - cursor < 3) {
    throw TransportError("malformed row: truncated header");
  }
  const std::uint64_t id = words[cursor];
  const std::uint64_t narcs = words[cursor + 2];
  if (id >= kInvalidNode) throw TransportError("malformed row: node id");
  if (narcs > (words.size() - cursor - 3) / 2) {
    throw TransportError("malformed row: arc count exceeds payload");
  }
  begin(bits_weight(words[cursor + 1]), narcs);
  cursor += 3;
  for (std::uint64_t j = 0; j < narcs; ++j) {
    if (words[cursor] >= kInvalidNode) {
      throw TransportError("malformed row: target id");
    }
    arc(static_cast<NodeID>(words[cursor]), bits_weight(words[cursor + 1]));
    cursor += 2;
  }
  return static_cast<NodeID>(id);
}

}  // namespace

NodeID decode_row_words(const std::vector<std::uint64_t>& words,
                        std::size_t& cursor, GraphRow& row) {
  return decode_row(
      words, cursor,
      [&](NodeWeight weight, std::uint64_t narcs) {
        row.weight = weight;
        row.targets.clear();
        row.weights.clear();
        row.targets.reserve(narcs);
        row.weights.reserve(narcs);
      },
      [&](NodeID target, EdgeWeight weight) {
        row.targets.push_back(target);
        row.weights.push_back(weight);
      });
}

NodeID decode_row_words(const std::vector<std::uint64_t>& words,
                        std::size_t& cursor, RowSet& rows) {
  const NodeID id = decode_row(
      words, cursor,
      [&](NodeWeight weight, std::uint64_t) { rows.vwgt.push_back(weight); },
      [&](NodeID target, EdgeWeight weight) {
        rows.adj.push_back(target);
        rows.ewgt.push_back(weight);
      });
  rows.ids.push_back(id);
  rows.xadj.push_back(rows.adj.size());
  return id;
}

NodeID skip_row_words(const std::vector<std::uint64_t>& words,
                      std::size_t& cursor) {
  return decode_row(words, cursor, [](NodeWeight, std::uint64_t) {},
                    [](NodeID, EdgeWeight) {});
}

StaticGraph decode_gathered_graph(
    const std::vector<std::vector<std::uint64_t>>& gathered, NodeID n) {
  // Rows arrive per rank in any order: index them by id first (checking
  // ids, targets and duplicates), then copy them into the CSR in id order.
  struct Source {
    std::size_t from;
    std::size_t at;  ///< offset of the row in gathered[from]
  };
  std::vector<Source> source(n, {gathered.size(), 0});
  // Weights are raw peer words: each must be non-negative, and the node
  // and the arc weights must each sum within range, or the totals, cuts
  // and degrees every consumer computes would overflow.
  std::int64_t node_total = 0;
  std::int64_t arc_total = 0;
  auto add_weight = [](std::int64_t& total, std::int64_t w) {
    if (w < 0 || w > std::numeric_limits<std::int64_t>::max() - total) {
      throw TransportError("malformed gathered graph: weight out of range");
    }
    total += w;
  };
  for (std::size_t q = 0; q < gathered.size(); ++q) {
    const std::vector<std::uint64_t>& words = gathered[q];
    for (std::size_t cursor = 0; cursor < words.size();) {
      const std::size_t at = cursor;
      bool in_range = true;
      const NodeID id = decode_row(
          words, cursor,
          [&](NodeWeight w, std::uint64_t) { add_weight(node_total, w); },
          [&](NodeID target, EdgeWeight w) {
            in_range &= target < n;
            add_weight(arc_total, w);
          });
      if (id >= n || !in_range) {
        throw TransportError("malformed gathered graph: id out of range");
      }
      if (source[id].from != gathered.size()) {
        throw TransportError("malformed gathered graph: row sent twice");
      }
      source[id] = {q, at};
    }
  }
  RowSet rows;
  rows.xadj.push_back(0);
  for (NodeID u = 0; u < n; ++u) {
    if (source[u].from == gathered.size()) {
      throw TransportError("malformed gathered graph: row missing");
    }
    std::size_t cursor = source[u].at;
    (void)decode_row_words(gathered[source[u].from], cursor, rows);
  }
  return StaticGraph(std::move(rows.xadj), std::move(rows.adj),
                     std::move(rows.ewgt), std::move(rows.vwgt));
}

// ----------------------------------------------------------- halo decoding ----

std::size_t halo_records(std::span<const std::uint64_t> payload,
                         std::size_t stride) {
  if (payload.size() % stride != 0) {
    throw TransportError("malformed halo message: partial record");
  }
  return payload.size() / stride;
}

std::size_t halo_position(std::span<const NodeID> ids, std::uint64_t word) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), word,
                                   [](NodeID id, std::uint64_t w) {
                                     return std::uint64_t{id} < w;
                                   });
  if (it == ids.end() || *it != word) {
    throw TransportError("malformed halo message: node not resident here");
  }
  return static_cast<std::size_t>(it - ids.begin());
}

NodeID ShardGraph::halo_local(std::uint64_t word, HaloKind kind) const {
  if (kind == HaloKind::kGhost) {
    const std::span<const NodeID> ghosts(local_to_global_.data() + num_owned_,
                                         num_ghost());
    return num_owned_ + static_cast<NodeID>(halo_position(ghosts, word));
  }
  const NodeID local =
      word < kInvalidNode ? owned_local(static_cast<NodeID>(word))
                          : kInvalidNode;
  if (local == kInvalidNode) {
    throw TransportError("malformed halo message: node not owned here");
  }
  return local;
}

// ------------------------------------------------------------ ShardGraph ----

ShardGraphParts finest_shard_parts(const StaticGraph& level,
                                   const std::vector<BlockID>& node_to_shard,
                                   PEContext& pe) {
  const int p = pe.size();
  const int rank = pe.rank();
  auto owner = [&](NodeID u) {
    return round_robin_owner(node_to_shard[u], p);
  };

  // Owned nodes: the union of this rank's virtual shards, in ascending
  // global id order, with their rows verbatim. This read of the input
  // graph is the initial data distribution of the level; every structure
  // the matching inner loops touch afterwards is resident.
  ShardGraphParts parts;
  parts.owned_index.assign(level.num_nodes(), kInvalidNode);
  for (NodeID u = 0; u < level.num_nodes(); ++u) {
    if (owner(u) != rank) continue;
    parts.owned_index[u] = static_cast<NodeID>(parts.owned.size());
    parts.owned.push_back(u);
  }
  parts.owned_rows = extract_rows(level, parts.owned);
  const RowSet& rows = parts.owned_rows;

  // Row targets of other ranks define the one-hop ghost layer; targets
  // in another of this rank's shards stay owned.
  for (const NodeID v : rows.adj) {
    if (owner(v) != rank) parts.ghosts.push_back(v);
  }
  std::sort(parts.ghosts.begin(), parts.ghosts.end());
  parts.ghosts.erase(std::unique(parts.ghosts.begin(), parts.ghosts.end()),
                     parts.ghosts.end());

  // --- Ghost refresh over channels: every neighboring rank sends, per
  // owned boundary node the receiver sees as a ghost, the triple
  // (global id, node weight, full-row weighted degree). The peer set is
  // symmetric (u adjacent to a node of q iff q has u as a ghost), so
  // each side knows exactly whom to expect. ---
  std::vector<char> is_peer(p, 0);
  for (const NodeID g : parts.ghosts) is_peer[owner(g)] = 1;
  {
    std::vector<std::vector<std::uint64_t>> to_peer(p);
    std::vector<int> served;
    for (NodeID lu = 0; lu < rows.ids.size(); ++lu) {
      EdgeWeight wdeg = 0;
      for (EdgeID e = rows.xadj[lu]; e < rows.xadj[lu + 1]; ++e) {
        wdeg += rows.ewgt[e];
      }
      for_each_other_owner(rows.targets(lu), rank, owner, served, [&](int q) {
        to_peer[q].push_back(rows.ids[lu]);
        to_peer[q].push_back(weight_bits(rows.vwgt[lu]));
        to_peer[q].push_back(weight_bits(wdeg));
      });
    }
    for (int q = 0; q < p; ++q) {
      if (q != rank && is_peer[q]) pe.send(q, std::move(to_peer[q]));
    }
  }
  parts.ghost_weights.assign(parts.ghosts.size(), 0);
  parts.ghost_weighted_degrees.assign(parts.ghosts.size(), 0);
  for (int q = 0; q < p; ++q) {
    if (q == rank || !is_peer[q]) continue;
    const Message msg = pe.receive(q);
    const std::size_t records = halo_records(msg.payload, 3);
    for (std::size_t r = 0; r < records; ++r) {
      const std::uint64_t* record = msg.payload.data() + 3 * r;
      const std::size_t g = halo_position(parts.ghosts, record[0]);
      parts.ghost_weights[g] = bits_weight(record[1]);
      parts.ghost_weighted_degrees[g] = bits_weight(record[2]);
    }
  }
  return parts;
}

ShardGraph::ShardGraph(ShardGraphParts parts)
    : num_owned_(static_cast<NodeID>(parts.owned.size())),
      owned_index_(std::move(parts.owned_index)) {
  assert(parts.owned_rows.ids.size() == parts.owned.size());
  assert(parts.ghost_weights.size() == parts.ghosts.size());
  assert(parts.ghost_weighted_degrees.size() == parts.ghosts.size());

  if (owned_index_.empty()) {
    for (NodeID i = 0; i < num_owned_; ++i) {
      if (i == 0 || parts.owned[i] != parts.owned[i - 1] + 1) {
        run_first_.push_back(parts.owned[i]);
        run_local_.push_back(i);
      }
    }
    run_local_.push_back(num_owned_);
  }
  local_to_global_ = std::move(parts.owned);
  local_to_global_.insert(local_to_global_.end(), parts.ghosts.begin(),
                          parts.ghosts.end());

  // Resolve every owned arc target once; the ghost rows stay empty.
  RowSet& rows = parts.owned_rows;
  for (NodeID& target : rows.adj) {
    const NodeID local = local_of(target);
    assert(local != kInvalidNode && "owned row target must be resident");
    target = local;
  }
  std::vector<EdgeID> xadj = std::move(rows.xadj);
  if (xadj.empty()) xadj.push_back(0);
  xadj.resize(local_to_global_.size() + 1, xadj.back());
  std::vector<NodeWeight> vwgt = std::move(rows.vwgt);
  vwgt.insert(vwgt.end(), parts.ghost_weights.begin(),
              parts.ghost_weights.end());
  csr_ = StaticGraph(std::move(xadj), std::move(rows.adj),
                     std::move(rows.ewgt), std::move(vwgt));

  // Owned weighted degrees from the full resident rows, ghost entries as
  // received from the owners.
  weighted_degrees_.reserve(local_to_global_.size());
  for (NodeID i = 0; i < num_owned_; ++i) {
    weighted_degrees_.push_back(csr_.weighted_degree(i));
  }
  weighted_degrees_.insert(weighted_degrees_.end(),
                           parts.ghost_weighted_degrees.begin(),
                           parts.ghost_weighted_degrees.end());
}

ShardFootprint ShardGraph::footprint() const {
  ShardFootprint fp;
  fp.owned_nodes = num_owned();
  fp.ghost_nodes = num_ghost();
  fp.arcs = csr_.num_arcs();
  return fp;
}

// --------------------------------------------------------- BlockRowShard ----

BlockRowShard::BlockRowShard(const StaticGraph& level,
                             const std::vector<BlockID>& assignment, BlockID k,
                             int rank, int num_pes)
    : rank_(rank), num_pes_(num_pes), members_(k) {
  std::vector<NodeID> mine;
  for (NodeID u = 0; u < level.num_nodes(); ++u) {
    const BlockID b = assignment[u];
    if (round_robin_owner(b, num_pes) != rank) continue;
    mine.push_back(u);
    members_[b].push_back(u);  // ascending u keeps the lists sorted
    member_block_.push_back(b);
  }
  core_ = extract_rows(level, mine);
  handle_of_.reserve(core_.ids.size());
  for (NodeID i = 0; i < core_.ids.size(); ++i) {
    handle_of_.emplace(core_.ids[i], i);
  }
  resident_nodes_ = mine.size();
  resident_arcs_ = core_.num_arcs();
}

BlockRowShard::BlockRowShard(RowSet core,
                             const std::vector<BlockID>& row_blocks, BlockID k,
                             int rank, int num_pes)
    : rank_(rank),
      num_pes_(num_pes),
      core_(std::move(core)),
      member_block_(row_blocks),
      members_(k) {
  assert(row_blocks.size() == core_.ids.size() &&
         "one block per pre-distributed row");
  handle_of_.reserve(core_.ids.size());
  for (NodeID i = 0; i < core_.ids.size(); ++i) {
    const BlockID b = row_blocks[i];
    assert(round_robin_owner(b, num_pes) == rank &&
           "every shipped row must belong to one of this rank's blocks");
    members_[b].push_back(core_.ids[i]);  // ascending ids keep lists sorted
    handle_of_.emplace(core_.ids[i], i);
  }
  resident_nodes_ = core_.ids.size();
  resident_arcs_ = core_.num_arcs();
}

GraphRow BlockRowShard::row(NodeID global) const {
  const GraphRowView view = row_view(global);
  GraphRow result;
  result.weight = view.weight;
  result.targets.assign(view.targets.begin(), view.targets.end());
  result.weights.assign(view.weights.begin(), view.weights.end());
  return result;
}

GraphRow BlockRowShard::apply_move(NodeID u, BlockID from, BlockID to,
                                   const GraphRow* incoming_row,
                                   const DistPartition* partition) {
  const bool from_mine = owns_block(from);
  const bool to_mine = owns_block(to);
  GraphRow departing;
  if (from_mine) erase_member(from, u);
  if (to_mine) insert_member(to, u);
  if (from_mine) {
    const NodeID h = handle_of_.at(u);
    if (to_mine) {
      member_block_[h] = to;
    } else {
      departing = row(u);
      member_block_[h] = kInvalidBlock;
      resident_nodes_ -= 1;
      resident_arcs_ -= departing.targets.size();
    }
  } else if (to_mine) {
    resident_nodes_ += 1;
    const auto [it, fresh] =
        handle_of_.try_emplace(u, static_cast<NodeID>(member_block_.size()));
    const NodeID h = it->second;
    if (fresh) {
      assert(incoming_row != nullptr &&
             "a row migrating in must be shipped by its old owner");
      arena_.push_back(*incoming_row);
      arena_ids_.push_back(u);
      member_block_.push_back(to);
      if (bound_) {
        assert(partition != nullptr && "a bound store resolves arriving rows");
        bind_handle(h, *partition);
      }
    } else {
      // The node returns: its row never left this store, revive it.
      member_block_[h] = to;
    }
    resident_arcs_ += row_at(h).targets.size();
  }
  return departing;
}

ShardFootprint BlockRowShard::footprint() const {
  ShardFootprint fp;
  fp.owned_nodes = resident_nodes_;
  fp.arcs = resident_arcs_;
  return fp;
}

void BlockRowShard::bind_slots(const DistPartition& partition) {
  bound_ = true;
  handle_slot_.clear();
  handle_at_slot_.clear();
  ref_head_.clear();
  ref_next_.clear();
  ref_handle_.clear();
  core_arc_slots_.resize(core_.adj.size());
  arena_arc_slots_.resize(arena_.size());
  ref_next_.reserve(core_.adj.size());
  ref_handle_.reserve(core_.adj.size());
  for (NodeID h = 0; h < num_handles(); ++h) bind_handle(h, partition);
}

void BlockRowShard::bind_handle(NodeID handle,
                                const DistPartition& partition) {
  const auto grow = [](std::vector<NodeID>& by_slot, NodeID slot) {
    if (slot >= by_slot.size()) by_slot.resize(slot + 1, kInvalidNode);
  };
  const NodeID num_core = static_cast<NodeID>(core_.ids.size());
  std::span<NodeID> slots;
  std::span<const NodeID> targets;
  if (handle < num_core) {
    const EdgeID begin = core_.xadj[handle];
    const EdgeID end = core_.xadj[handle + 1];
    slots = std::span<NodeID>(core_arc_slots_.data() + begin,
                              core_arc_slots_.data() + end);
    targets = std::span<const NodeID>(core_.adj.data() + begin,
                                      core_.adj.data() + end);
  } else {
    const std::size_t j = handle - num_core;
    if (arena_arc_slots_.size() <= j) arena_arc_slots_.resize(j + 1);
    arena_arc_slots_[j].resize(arena_[j].targets.size());
    slots = arena_arc_slots_[j];
    targets = arena_[j].targets;
  }
  const NodeID own = partition.slot_of(handle_global(handle));
  assert(own != kInvalidNode && "binding needs every row node known");
  handle_slot_.resize(std::max<std::size_t>(handle_slot_.size(), handle + 1),
                      kInvalidNode);
  handle_slot_[handle] = own;
  grow(handle_at_slot_, own);
  handle_at_slot_[own] = handle;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const NodeID t = partition.slot_of(targets[i]);
    assert(t != kInvalidNode && "binding needs every row target known");
    slots[i] = t;
    grow(ref_head_, t);
    ref_next_.push_back(ref_head_[t]);
    ref_handle_.push_back(handle);
    ref_head_[t] = static_cast<NodeID>(ref_next_.size() - 1);
  }
}

void BlockRowShard::insert_member(BlockID b, NodeID u) {
  std::vector<NodeID>& list = members_[b];
  list.insert(std::lower_bound(list.begin(), list.end(), u), u);
}

void BlockRowShard::erase_member(BlockID b, NodeID u) {
  std::vector<NodeID>& list = members_[b];
  const auto it = std::lower_bound(list.begin(), list.end(), u);
  assert(it != list.end() && *it == u);
  list.erase(it);
}

}  // namespace kappa
