/// \file dist_partition.cpp
/// \brief Sharded partition state (see dist_partition.hpp).
///
/// Communication discipline: block ids travel point-to-point between the
/// ranks that need them and the shard owners that hold them; the only
/// collectives are the O(k) block-weight all-reduce of a projection and
/// the single tagged materialize() gather that fills the final result.
#include "parallel/dist_partition.hpp"

#include <algorithm>
#include <cassert>

#include "parallel/wire_format.hpp"
#include "util/seeded_hash.hpp"

namespace kappa {

namespace {

/// One deterministic request/response rendezvous: every rank sends one
/// (possibly empty) id list to every other rank, answers the lists it
/// receives with (id, block) pairs, and collects its own answers, each
/// checked against its request (decode_block_reply()). FIFO per-source
/// delivery pairs the two message waves without tags.
template <typename Answer, typename Receive>
void rendezvous_lookup(const std::vector<std::vector<std::uint64_t>>& requests,
                       BlockID k, PEContext& pe, Answer&& answer,
                       Receive&& receive) {
  const int p = pe.size();
  const int rank = pe.rank();
  if (p == 1) return;
  for (int q = 0; q < p; ++q) {
    if (q != rank) pe.send(q, requests[q]);
  }
  for (int q = 0; q < p; ++q) {
    if (q == rank) continue;
    const Message msg = pe.receive(q);
    std::vector<std::uint64_t> reply;
    reply.reserve(msg.payload.size());
    for (const std::uint64_t word : msg.payload) {
      reply.push_back(
          pack_pair(static_cast<NodeID>(word),
                    answer(static_cast<NodeID>(word))));
    }
    pe.send(q, std::move(reply));
  }
  for (int q = 0; q < p; ++q) {
    if (q == rank) continue;
    const Message msg = pe.receive(q);
    const std::vector<BlockID> blocks =
        decode_block_reply(requests[q], msg.payload, k);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      receive(static_cast<NodeID>(requests[q][i]), blocks[i]);
    }
  }
}

}  // namespace

void append_move_delta(std::vector<std::uint64_t>& words,
                       const MoveDelta& delta) {
  words.push_back(pack_pair(delta.u, delta.to));
  words.push_back(weight_bits(delta.weight));
  words.push_back(delta.from);
}

std::vector<MoveDelta> decode_move_deltas(std::span<const std::uint64_t> words,
                                          BlockID k) {
  if (words.size() % 3 != 0) {
    throw TransportError("malformed move deltas: partial record");
  }
  std::vector<MoveDelta> deltas;
  for (std::size_t i = 0; i < words.size(); i += 3) {
    const auto [u, to] = unpack_pair(words[i]);
    if (to >= k || words[i + 2] >= k) {
      throw TransportError("malformed move delta: block out of range");
    }
    deltas.push_back({u, static_cast<BlockID>(words[i + 2]), to,
                      bits_weight(words[i + 1])});
  }
  return deltas;
}

std::vector<BlockID> decode_block_reply(std::span<const std::uint64_t> request,
                                        std::span<const std::uint64_t> reply,
                                        BlockID k) {
  if (reply.size() != request.size()) {
    throw TransportError("malformed block reply: not one answer per id");
  }
  std::vector<BlockID> blocks;
  for (std::size_t i = 0; i < reply.size(); ++i) {
    const auto [id, b] = unpack_pair(reply[i]);
    if (id != request[i] || b >= k) {
      throw TransportError("malformed block reply: wrong id or block");
    }
    blocks.push_back(b);
  }
  return blocks;
}

std::vector<BlockID> decode_owned_blocks(
    const DistLevel& level,
    const std::vector<std::vector<std::uint64_t>>& gathered, BlockID k) {
  const int p = static_cast<int>(gathered.size());
  std::vector<BlockID> blocks(level.global_n, 0);
  std::vector<std::size_t> cursor(p, 0);
  level.for_each_owned(p, [&](int q, NodeID u) {
    if (cursor[q] == gathered[q].size()) {
      throw TransportError("malformed owned blocks: payload too short");
    }
    const std::uint64_t b = gathered[q][cursor[q]++];
    if (b >= k) throw TransportError("malformed owned blocks: block");
    blocks[u] = static_cast<BlockID>(b);
  });
  for (int q = 0; q < p; ++q) {
    if (cursor[q] != gathered[q].size()) {
      throw TransportError("malformed owned blocks: payload too long");
    }
  }
  return blocks;
}

std::vector<BlockID> decode_assignment(std::span<const std::uint64_t> words,
                                       NodeID n, BlockID k) {
  if (words.size() != n) {
    throw TransportError("malformed assignment: not one block per node");
  }
  std::vector<BlockID> blocks;
  blocks.reserve(n);
  for (const std::uint64_t b : words) {
    if (b >= k) throw TransportError("malformed assignment: block");
    blocks.push_back(static_cast<BlockID>(b));
  }
  return blocks;
}

DistPartition::DistPartition(const DistLevel& level,
                             const Partition& replicated, PEContext& pe)
    : level_(&level),
      num_pes_(pe.size()),
      rank_(pe.rank()),
      k_(replicated.k()),
      num_owned_(level.shard.num_owned()) {
  entries_.reserve(num_owned_);
  for (NodeID i = 0; i < num_owned_; ++i) {
    entries_.push_back(replicated.block(level.shard.global_of(i)));
  }
  block_weight_.reserve(k_);
  for (BlockID b = 0; b < k_; ++b) {
    block_weight_.push_back(replicated.block_weight(b));
  }
}

DistPartition DistPartition::from_replica(const Partition& replicated) {
  DistPartition result;
  result.k_ = replicated.k();
  result.cache_slot_.reserve(replicated.num_nodes());
  for (NodeID u = 0; u < replicated.num_nodes(); ++u) {
    result.cache(u, replicated.block(u));
  }
  result.journal_.clear();
  result.block_weight_.reserve(replicated.k());
  for (BlockID b = 0; b < replicated.k(); ++b) {
    result.block_weight_.push_back(replicated.block_weight(b));
  }
  return result;
}

void DistPartition::cache(NodeID global, BlockID b) {
  const auto [it, inserted] =
      cache_slot_.try_emplace(global, static_cast<NodeID>(entries_.size()));
  if (inserted) {
    entries_.push_back(b);
    cache_ids_.push_back(global);
    journal_.push_back(it->second);
  } else {
    write(it->second, b, /*always=*/false);
  }
}

void DistPartition::learn(NodeID global, BlockID b) {
  const NodeID slot = slot_of(global);
  if (slot != kInvalidNode && slot < num_owned_) {
    if (entries_[slot] != b) {
      throw TransportError("peer record contradicts an owned block");
    }
    return;
  }
  cache(global, b);
}

void DistPartition::apply_move(NodeID u, BlockID from, BlockID to,
                               NodeWeight weight) {
  const NodeID slot = slot_of(u);
  if (from >= k_ || to >= k_ ||
      (slot != kInvalidNode && entries_[slot] != from)) {
    throw TransportError("move delta disagrees with the held entry");
  }
  block_weight_[from] -= weight;
  block_weight_[to] += weight;
  if (slot != kInvalidNode) write(slot, to, /*always=*/true);
}

NodeID DistPartition::attach(NodeID global, BlockID b) {
  assert(!knows(global) && "attach() is for ids this rank does not hold");
  const NodeID slot = static_cast<NodeID>(entries_.size());
  cache_slot_.emplace(global, slot);
  entries_.push_back(b);
  cache_ids_.push_back(global);
  ++num_attached_;
  return slot;
}

void DistPartition::detach() {
  for (; num_attached_ > 0; --num_attached_) {
    cache_slot_.erase(cache_ids_.back());
    cache_ids_.pop_back();
    entries_.pop_back();
  }
}

void DistPartition::fetch_blocks(std::span<const NodeID> needed,
                                 PEContext& pe) {
  assert(level_ != nullptr && "fetching needs the level ownership map");
  std::vector<std::vector<std::uint64_t>> requests(num_pes_);
  for (const NodeID g : needed) {
    if (knows(g)) continue;
    requests[level_->owner_of_node(g, num_pes_)].push_back(g);
  }
  assert(requests[rank_].empty() && "owned nodes are always known");
  rendezvous_lookup(
      requests, k_, pe,
      [&](NodeID g) { return block(g); },
      [&](NodeID g, BlockID b) { cache(g, b); });
}

DistPartition DistPartition::project(const DistLevel& fine,
                                     const DistLevel& coarse_level,
                                     const DistPartition& coarse,
                                     PEContext& pe) {
  const int p = pe.size();
  const NodeID num_owned = fine.shard.num_owned();
  assert(fine.owned_to_coarse.size() == num_owned &&
         "projection needs the sharded contraction map");

  DistPartition result;
  result.level_ = &fine;
  result.num_pes_ = p;
  result.rank_ = pe.rank();
  result.k_ = coarse.k();
  result.num_owned_ = num_owned;
  result.entries_.assign(num_owned, kInvalidBlock);

  // Shard-local pass: a fine node's coarse id was assigned by the shard
  // of the pair's canonical endpoint, so it is owned here unless the node
  // was matched across ranks — those few ids are fetched point-to-point
  // from the coarse shard owners below.
  std::vector<std::vector<std::uint64_t>> requests(p);
  for (NodeID i = 0; i < num_owned; ++i) {
    const NodeID c = fine.owned_to_coarse[i];
    if (coarse.knows(c)) {
      result.entries_[i] = coarse.block(c);
    } else {
      requests[coarse_level.owner_of_node(c, p)].push_back(c);
    }
  }
  hash_map<NodeID, BlockID> remote;
  rendezvous_lookup(
      requests, result.k_, pe,
      [&](NodeID c) { return coarse.block(c); },
      [&](NodeID c, BlockID b) { remote.emplace(c, b); });
  for (NodeID i = 0; i < num_owned; ++i) {
    if (result.entries_[i] == kInvalidBlock) {
      result.entries_[i] = remote.at(fine.owned_to_coarse[i]);
    }
  }

  // Block weights from the sharded node weights: partial sums over the
  // owned nodes, one O(k) all-reduce.
  const StaticGraph& resident = fine.shard.csr();
  std::vector<std::uint64_t> partial(result.k_, 0);
  for (NodeID i = 0; i < num_owned; ++i) {
    partial[result.entries_[i]] +=
        static_cast<std::uint64_t>(resident.node_weight(i));
  }
  const std::vector<std::uint64_t> sums =
      pe.all_reduce_sum_vec(std::move(partial));
  result.block_weight_.reserve(result.k_);
  for (const std::uint64_t w : sums) {
    result.block_weight_.push_back(static_cast<NodeWeight>(w));
  }
  return result;
}

Partition DistPartition::materialize(PEContext& pe) const {
  assert(level_ != nullptr && "materializing needs the level ownership map");
  std::vector<std::uint64_t> words(entries_.begin(),
                                   entries_.begin() + num_owned_);
  const auto gathered =
      // kappa-lint: allow(no-partition-gathers, "the one sanctioned gather: the final PartitionResult")
      pe.all_gather_vectors(std::move(words));
  return Partition(decode_owned_blocks(*level_, gathered, k_), k_,
                   block_weight_);
}

}  // namespace kappa
