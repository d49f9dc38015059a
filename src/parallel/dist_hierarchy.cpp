/// \file dist_hierarchy.cpp
/// \brief Shard-owned contraction with halo exchange (see dist_hierarchy.hpp).
///
/// Communication discipline of the coarsening loop: point-to-point
/// messages travel only between halo peers, and the only collectives are
/// scalar all-reduces/all-gathers (stop rules, per-shard coarse counts).
/// No contraction map and no level graph is ever gathered; the tagged
/// all_gather_vectors calls below belong to the one-time coarsest gather
/// (uncoarsening projection is shard-local through the sharded partition
/// state, parallel/dist_partition.hpp), which the CI guard checks by tag.
#include "parallel/dist_hierarchy.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

#include "coarsening/prepartition.hpp"
#include "graph/contraction.hpp"
#include "matching/tentative_match.hpp"
#include "parallel/dist_partition.hpp"
#include "parallel/wire_format.hpp"
#include "util/trace.hpp"

namespace kappa {

namespace {

/// Adds a footprint into a running total (the hierarchy keeps every level
/// resident, so the store's size is the sum, not the peak).
void accumulate(ShardFootprint& total, const ShardFootprint& fp) {
  total.owned_nodes += fp.owned_nodes;
  total.ghost_nodes += fp.ghost_nodes;
  total.arcs += fp.arcs;
}

/// Resolves the halo of a freshly sealed level once: the owner rank of
/// every ghost, so the matching and contraction loops read an array
/// instead of looking ids up per arc.
void resolve_halo(DistLevel& level, int p) {
  const ShardGraph& sg = level.shard;
  level.ghost_owner.clear();
  level.ghost_owner.reserve(sg.num_ghost());
  for (NodeID g = sg.num_owned(); g < sg.num_local(); ++g) {
    level.ghost_owner.push_back(level.owner_of_node(sg.global_of(g), p));
  }
}

/// A coarse id received over the halo; throws TransportError unless it
/// names a node of the \p coarse_n-node coarse level.
NodeID checked_coarse_id(std::uint64_t word, NodeID coarse_n) {
  if (word >= coarse_n) {
    throw TransportError("malformed halo message: coarse id out of range");
  }
  return static_cast<NodeID>(word);
}

}  // namespace

// ------------------------------------------------------------- DistLevel ----

BlockID DistLevel::shard_of(NodeID global) const {
  if (!node_to_shard.empty()) return node_to_shard[global];
  assert(!shard_begin.empty());
  const auto it =
      std::upper_bound(shard_begin.begin(), shard_begin.end(), global);
  return static_cast<BlockID>(it - shard_begin.begin()) - 1;
}

// --------------------------------------------------------- DistHierarchy ----

DistHierarchy::DistHierarchy(const StaticGraph& finest,
                             const CoarseningOptions& options, const Rng& rng,
                             PEContext& pe)
    : finest_(&finest),
      pe_(pe),
      warm_(options.warm_start != nullptr),
      warm_k_(warm_ ? options.warm_start->k() : 0),
      rng_(rng) {
  const MatchingOptions match_options = hierarchy_match_options(finest, options);

  // Every loop decision below depends on replicated scalars only, so all
  // PEs run the same number of levels (and hence the same exchanges).
  pe_.set_halo_level(0);
  {
    KAPPA_TRACE_SPAN("coarsen.finest");
    levels_.push_back(build_finest_level(options));
  }
  pe_.set_halo_level(-1);
  account_level(levels_.back());

  std::size_t level = 0;
  while (levels_.back().global_n > options.contraction_limit) {
    DistLevel& current = levels_.back();
    KAPPA_TRACE_SPAN("coarsen.level", static_cast<std::uint64_t>(level),
                     current.global_n);
    pe_.set_halo_level(static_cast<int>(level));
    const Rng level_rng = rng_.fork(level);

    MatchingOptions level_options = match_options;
    if (warm_) level_options.blocks = &current.warm_blocks;
    const std::vector<NodeID> partner = [&] {
      KAPPA_TRACE_SPAN("coarsen.match");
      return match_level(current, level_options, options.matcher, level_rng);
    }();

    // Stop rules on replicated scalars: the global pair count (each pair
    // counted by the owner of its canonical endpoint) and the shrink.
    std::uint64_t my_pairs = 0;
    for (NodeID lu = 0; lu < current.shard.num_owned(); ++lu) {
      const NodeID lv = partner[lu];
      if (lv != lu &&
          current.shard.global_of(lv) > current.shard.global_of(lu)) {
        ++my_pairs;
      }
    }
    const NodeID pairs = static_cast<NodeID>(pe_.all_reduce_sum(my_pairs));
    if (pairs == 0) {
      pe_.set_halo_level(-1);
      break;  // nothing contractible is left
    }
    const double shrink =
        static_cast<double>(pairs) / static_cast<double>(current.global_n);

    DistLevel next = [&] {
      KAPPA_TRACE_SPAN("coarsen.contract");
      return contract_level(current, partner);
    }();
    pe_.set_halo_level(-1);
    levels_.push_back(std::move(next));
    account_level(levels_.back());
    ++level;
    if (shrink < options.min_shrink_factor) break;
  }
}

void DistHierarchy::account_level(const DistLevel& level) {
  const ShardFootprint fp = level.footprint();
  pe_.record().shard_memory.merge_peak(fp);
  accumulate(pe_.record().hierarchy_memory, fp);
}

DistLevel DistHierarchy::build_finest_level(const CoarseningOptions& options) {
  const int p = pe_.size();
  const int rank = pe_.rank();

  DistLevel level;
  level.global_n = finest_->num_nodes();
  level.max_node_weight = finest_->max_node_weight();
  level.num_shards = std::max<BlockID>(options.matching_pes, 1);

  // The input graph is the one level that is resident everywhere, so the
  // prepartition may read it; the resulting ownership map is the finest
  // level's replicated metadata.
  {
    KAPPA_TRACE_SPAN("coarsen.prepartition");
    level.node_to_shard = prepartition(*finest_, level.num_shards);
  }
  level.shard =
      ShardGraph(finest_shard_parts(*finest_, level.node_to_shard, pe_));
  for (BlockID s = static_cast<BlockID>(rank); s < level.num_shards;
       s += static_cast<BlockID>(p)) {
    level.my_shard_ids.push_back(s);
  }
  // Shard s ≡ rank (mod p) is this rank's (s / p)-th.
  level.shard_locals.resize(level.my_shard_ids.size());
  for (NodeID l = 0; l < level.shard.num_owned(); ++l) {
    const BlockID s = level.node_to_shard[level.shard.global_of(l)];
    level.shard_locals[s / static_cast<BlockID>(p)].push_back(l);
  }
  resolve_halo(level, p);

  level.peer.assign(p, 0);
  for (const int q : level.ghost_owner) level.peer[q] = 1;

  if (warm_) {
    const std::vector<BlockID>& assignment = options.warm_start->assignment();
    level.warm_blocks.reserve(level.shard.num_local());
    for (NodeID l = 0; l < level.shard.num_local(); ++l) {
      level.warm_blocks.push_back(assignment[level.shard.global_of(l)]);
    }
  }
  return level;
}

std::vector<std::uint64_t> DistHierarchy::gather_per_shard(
    BlockID num_shards, const std::vector<std::uint64_t>& mine) const {
  const int p = pe_.size();
  const int rank = pe_.rank();
  std::vector<std::uint64_t> all(num_shards, 0);
  const BlockID rounds =
      (num_shards + static_cast<BlockID>(p) - 1) / static_cast<BlockID>(p);
  for (BlockID t = 0; t < rounds; ++t) {
    // Shard t*p + q is the t-th shard of rank q, so one scalar all-gather
    // delivers one full stripe of shard values.
    const BlockID sid = t * static_cast<BlockID>(p) + static_cast<BlockID>(rank);
    const std::uint64_t value =
        (sid < num_shards && t < mine.size()) ? mine[t] : 0;
    const std::vector<std::uint64_t> stripe = pe_.all_gather(value);
    for (int q = 0; q < p; ++q) {
      const BlockID s = t * static_cast<BlockID>(p) + static_cast<BlockID>(q);
      if (s < num_shards) all[s] = stripe[q];
    }
  }
  return all;
}

// ----------------------------------------------------------- matching ----

std::vector<NodeID> DistHierarchy::match_level(
    const DistLevel& level, const MatchingOptions& options, MatcherAlgo matcher,
    const Rng& level_rng) {
  const int p = pe_.size();
  const int rank = pe_.rank();
  const ShardGraph& sg = level.shard;
  const StaticGraph& resident = sg.csr();
  const NodeID num_owned = sg.num_owned();
  const NodeID num_local = sg.num_local();

  // --- Phase 1: sequential matching per owned shard (§3.3), on shard
  // subgraphs cut out of the resident CSR. Local ids ascend with global
  // ids, so the induced shard graphs — and with them the matcher
  // streams — are identical for every p. ---
  std::vector<NodeID> partner(num_local);  // local ids; ghosts stay unmatched
  std::iota(partner.begin(), partner.end(), NodeID{0});
  {
    KAPPA_TRACE_SPAN("coarsen.match.local");
    for (std::size_t i = 0; i < level.my_shard_ids.size(); ++i) {
      match_shard(resident, level.shard_locals[i], level.my_shard_ids[i],
                  matcher, options, level_rng, partner);
    }
  }
  for (NodeID u = 0; u < num_owned; ++u) {
    if (partner[u] != u && u < partner[u]) ++pe_.record().matching.local_pairs;
  }

  // Phases 2-4 settle the cross-shard edges.
  KAPPA_TRACE_SPAN("coarsen.match.gap");

  // Rating of the tentative local match at each owned node (0 if
  // unmatched); ghost entries are filled by the exchange below. The
  // rater runs on the resident CSR with the exchanged ghost degrees and
  // enforces the pair-weight bound plus the block constraint.
  const TentativeMatchRater rater(resident, options,
                                  sg.weighted_degrees());
  std::vector<double> match_rating(num_local, 0.0);
  for (NodeID u = 0; u < num_owned; ++u) {
    match_rating[u] = rater.match_rating(u, partner[u]);
  }

  // --- Phase 2: boundary-candidate exchange with the halo peers (global
  // ids on the wire). Every PE tells every neighbor-owning peer the
  // tentative match rating of its boundary nodes; both owners of a
  // cross-shard edge can then evaluate the gap condition identically. ---
  auto owner_local = [&](NodeID l) { return level.owner_of_local(l, rank); };
  std::vector<int> served;  // scratch of for_each_other_owner
  {
    std::vector<std::vector<std::uint64_t>> to_peer(p);
    for (NodeID u = 0; u < num_owned; ++u) {
      // Unmatched boundary nodes stay at the receiver's default of 0.0,
      // so only matched ones need to cross the wire.
      if (match_rating[u] == 0.0) continue;
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(match_rating[u]);
      for_each_other_owner(resident.neighbors(u), rank, owner_local, served,
                           [&](int q) {
                             to_peer[q].push_back(sg.global_of(u));
                             to_peer[q].push_back(bits);
                           });
    }
    for (int q = 0; q < p; ++q) {
      if (q != rank && level.peer[q]) pe_.send(q, std::move(to_peer[q]));
    }
    for (int q = 0; q < p; ++q) {
      if (q == rank || !level.peer[q]) continue;
      const Message msg = pe_.receive(q);
      const std::size_t records = halo_records(msg.payload, 2);
      for (std::size_t r = 0; r < records; ++r) {
        const NodeID l = sg.halo_local(msg.payload[2 * r], HaloKind::kGhost);
        match_rating[l] = std::bit_cast<double>(msg.payload[2 * r + 1]);
      }
    }
  }

  // --- Phase 3: the gap graph (§3.3): cross-shard edges whose rating
  // beats the tentative local matches at both endpoints, read off the
  // owned rows. A spanning edge is materialized at both owners; an edge
  // between two of my own shards once, from its lower global id. ---
  struct GapCandidate {
    NodeID u;  ///< my endpoint (local id)
    NodeID v;  ///< other endpoint (local id: owned or ghost)
    NodeID u_global;
    NodeID v_global;
    double rating;
  };
  std::vector<BlockID> owned_shard(num_owned);
  for (std::size_t i = 0; i < level.shard_locals.size(); ++i) {
    for (const NodeID u : level.shard_locals[i]) {
      owned_shard[u] = level.my_shard_ids[i];
    }
  }
  std::vector<GapCandidate> cands;
  for (NodeID u = 0; u < num_owned; ++u) {
    for (EdgeID e = resident.first_arc(u); e < resident.last_arc(u); ++e) {
      const NodeID v = resident.arc_target(e);
      if (sg.is_owned(v) && (owned_shard[v] == owned_shard[u] ||
                             sg.global_of(v) < sg.global_of(u))) {
        continue;  // a local edge, or the lower endpoint lists it
      }
      double r = 0.0;
      if (rater.admits_gap_edge(u, v, resident.arc_weight(e), match_rating[u],
                                match_rating[v], &r)) {
        cands.push_back({u, v, sg.global_of(u), sg.global_of(v), r});
      }
    }
  }

  // Candidates by endpoint as a CSR over local ids, each list in
  // candidate order: nomination below walks it in node order, never in
  // hash order. Spanning candidates are also listed by remote owner.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> incident_begin(num_local + 1, 0);
  for (const GapCandidate& c : cands) {
    ++incident_begin[c.u + 1];
    if (sg.is_owned(c.v)) ++incident_begin[c.v + 1];
  }
  std::vector<NodeID> endpoints;  // ascending local ids with a candidate
  for (NodeID x = 0; x < num_local; ++x) {
    if (incident_begin[x + 1] != 0) endpoints.push_back(x);
    incident_begin[x + 1] += incident_begin[x];
  }
  std::vector<std::size_t> incident(incident_begin.back());
  std::vector<std::vector<std::size_t>> spanning(p);  // by remote owner
  {
    std::vector<std::size_t> fill(incident_begin.begin(),
                                  incident_begin.end() - 1);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      incident[fill[cands[i].u]++] = i;
      if (sg.is_owned(cands[i].v)) {
        incident[fill[cands[i].v]++] = i;
      } else {
        spanning[level.owner_of_local(cands[i].v, rank)].push_back(i);
      }
    }
  }

  // --- Phase 4: iterated locally-heaviest rounds. Each round, every node
  // nominates its best remaining gap edge; an edge nominated from both
  // sides is matched and dissolves tentative local matches. Nominations
  // for spanning edges cross the wire; taken flags of newly matched
  // nodes travel point-to-point to exactly the peers that hold the node
  // in their ghost layer (never gathered); a zero all-reduce terminates
  // every PE in the same round. ---
  std::vector<std::uint8_t> alive(cands.size(), 1);
  std::vector<std::uint8_t> taken(num_local, 0);
  std::vector<std::size_t> best(num_local, kNone);  // by local id
  // By ghost index: the owned endpoint of the edge the ghost nominated.
  std::vector<NodeID> remote_pick(sg.num_ghost(), kInvalidNode);
  auto better = [&](std::size_t i, std::size_t b) {
    if (cands[i].rating != cands[b].rating) {
      return cands[i].rating > cands[b].rating;
    }
    return edge_key(cands[i].u_global, cands[i].v_global) <
           edge_key(cands[b].u_global, cands[b].v_global);
  };
  while (true) {
    ++pe_.record().matching.gap_rounds;
    for (const NodeID x : endpoints) {
      std::size_t b = kNone;
      if (!taken[x]) {
        for (std::size_t e = incident_begin[x]; e < incident_begin[x + 1];
             ++e) {
          const std::size_t i = incident[e];
          if (alive[i] && (b == kNone || better(i, b))) b = i;
        }
      }
      best[x] = b;
    }

    // Nomination exchange for spanning candidates: each remote node
    // nominates at most one edge per round, so one slot per ghost holds
    // its pick.
    std::fill(remote_pick.begin(), remote_pick.end(), kInvalidNode);
    for (int q = 0; q < p; ++q) {
      if (q == rank || !level.peer[q]) continue;
      std::vector<std::uint64_t> words;
      for (const std::size_t i : spanning[q]) {
        if (alive[i] && best[cands[i].u] == i) {
          words.push_back(edge_key(cands[i].u_global, cands[i].v_global));
        }
      }
      pe_.send(q, std::move(words));
    }
    for (int q = 0; q < p; ++q) {
      if (q == rank || !level.peer[q]) continue;
      const Message msg = pe_.receive(q);
      for (const std::uint64_t key : msg.payload) {
        // The nominating endpoint is the sender's node, a ghost here; the
        // other endpoint is owned here.
        const auto [lo, hi] = unpack_pair(key);
        const bool lo_mine = sg.owned_local(lo) != kInvalidNode;
        const NodeID mine = sg.halo_local(lo_mine ? lo : hi, HaloKind::kOwned);
        const NodeID ghost =
            sg.halo_local(lo_mine ? hi : lo, HaloKind::kGhost);
        remote_pick[ghost - sg.num_owned()] = mine;
      }
    }

    // Decide on the nominations alone: two distinct both-nominated edges
    // can never share an endpoint (best is one edge per node), so
    // simultaneous resolution is safe — and unlike a mid-pass taken
    // check, it is independent of candidate list order, which keeps the
    // outcome identical for every p.
    auto dissolve = [&](NodeID x) {
      const NodeID prev = partner[x];  // tentative partner: same shard
      if (prev != x) partner[prev] = prev;
    };
    // Taken notifications: an owned node that got matched must flip its
    // taken flag at every peer holding it as a ghost — exactly the owners
    // of its ghost neighbors.
    std::vector<std::vector<std::uint64_t>> notify(p);
    auto notify_taken = [&](NodeID lx) {
      for_each_other_owner(
          resident.neighbors(lx), rank, owner_local, served,
          [&](int q) { notify[q].push_back(sg.global_of(lx)); });
    };
    std::uint64_t matched_here = 0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!alive[i]) continue;
      const NodeID u = cands[i].u;
      const NodeID v = cands[i].v;
      const bool v_mine = sg.is_owned(v);
      const bool u_nominates = best[u] == i;
      const bool v_nominates =
          v_mine ? best[v] == i : remote_pick[v - sg.num_owned()] == u;
      if (u_nominates && v_nominates) {
        dissolve(u);
        partner[u] = v;
        if (v_mine) {
          dissolve(v);
          partner[v] = u;
        }
        taken[u] = 1;
        taken[v] = 1;
        notify_taken(u);
        if (v_mine) notify_taken(v);
        alive[i] = 0;
        if (v_mine || cands[i].u_global < cands[i].v_global) {
          ++matched_here;  // count each pair once globally
          ++pe_.record().matching.gap_pairs;
        }
      }
    }

    for (int q = 0; q < p; ++q) {
      if (q != rank && level.peer[q]) pe_.send(q, std::move(notify[q]));
    }
    for (int q = 0; q < p; ++q) {
      if (q == rank || !level.peer[q]) continue;
      const Message msg = pe_.receive(q);
      for (const std::uint64_t w : msg.payload) {
        taken[sg.halo_local(w, HaloKind::kGhost)] = 1;
      }
    }
    // Retire candidates that lost an endpoint this round — after the
    // taken-sync, so every PE (and every p) kills the same set.
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (alive[i] && (taken[cands[i].u] || taken[cands[i].v])) alive[i] = 0;
    }
    if (pe_.all_reduce_sum(matched_here) == 0) break;
  }

  return partner;
}

// --------------------------------------------------------- contraction ----

DistLevel DistHierarchy::contract_level(DistLevel& fine,
                                        const std::vector<NodeID>& partner) {
  const int p = pe_.size();
  const int rank = pe_.rank();
  const ShardGraph& sg = fine.shard;
  const StaticGraph& resident = sg.csr();
  const NodeID num_owned = sg.num_owned();
  const BlockID num_shards = fine.num_shards;

  auto go = [&](NodeID l) { return sg.global_of(l); };
  auto is_canonical = [&](NodeID lu) {
    const NodeID lv = partner[lu];
    return lv == lu || go(lv) > go(lu);
  };

  // --- Coarse ids by owner shard: shard s numbers its canonical
  // endpoints in ascending global order; the per-shard counts are
  // all-gathered scalar-wise and prefix-summed into the replicated
  // coarse-id ranges. ---
  std::vector<std::uint64_t> my_counts(fine.my_shard_ids.size(), 0);
  for (std::size_t i = 0; i < fine.shard_locals.size(); ++i) {
    for (const NodeID lu : fine.shard_locals[i]) {
      if (is_canonical(lu)) ++my_counts[i];
    }
  }
  const std::vector<std::uint64_t> counts =
      gather_per_shard(num_shards, my_counts);
  std::vector<NodeID> shard_begin(num_shards + 1, 0);
  for (BlockID s = 0; s < num_shards; ++s) {
    shard_begin[s + 1] = shard_begin[s] + static_cast<NodeID>(counts[s]);
  }
  const NodeID coarse_n = shard_begin.back();

  // Resident fine -> coarse ids: canonical endpoints from the shard
  // numbering, same-rank partners by copying, cross-rank partners and
  // the ghost layer from the halo exchanges below.
  std::vector<NodeID> coarse_of(sg.num_local(), kInvalidNode);
  for (std::size_t i = 0; i < fine.shard_locals.size(); ++i) {
    NodeID next_id = shard_begin[fine.my_shard_ids[i]];
    for (const NodeID lu : fine.shard_locals[i]) {
      if (is_canonical(lu)) coarse_of[lu] = next_id++;
    }
  }
  for (NodeID lu = 0; lu < num_owned; ++lu) {
    if (coarse_of[lu] != kInvalidNode) continue;
    const NodeID lv = partner[lu];  // the canonical endpoint
    if (sg.is_owned(lv)) coarse_of[lu] = coarse_of[lv];
  }

  // --- Halo exchange 1: boundary match decisions. The owner of a
  // cross-rank pair's canonical endpoint assigned the coarse id; it
  // ships the id to the partner's owner. ---
  {
    KAPPA_TRACE_SPAN("coarsen.contract.halo");
    std::vector<std::vector<std::uint64_t>> outbox(p);
    for (NodeID lu = 0; lu < num_owned; ++lu) {
      const NodeID lv = partner[lu];
      if (lv == lu || sg.is_owned(lv) || !is_canonical(lu)) continue;
      const int q = fine.owner_of_local(lv, rank);
      outbox[q].push_back(go(lv));
      outbox[q].push_back(coarse_of[lu]);
    }
    for (int q = 0; q < p; ++q) {
      if (q != rank && fine.peer[q]) pe_.send(q, std::move(outbox[q]));
    }
    for (int q = 0; q < p; ++q) {
      if (q == rank || !fine.peer[q]) continue;
      const Message msg = pe_.receive(q);
      const std::size_t records = halo_records(msg.payload, 2);
      for (std::size_t r = 0; r < records; ++r) {
        const NodeID lu = sg.halo_local(msg.payload[2 * r], HaloKind::kOwned);
        coarse_of[lu] = checked_coarse_id(msg.payload[2 * r + 1], coarse_n);
      }
    }
  }
#ifndef NDEBUG
  for (NodeID lu = 0; lu < num_owned; ++lu) {
    assert(coarse_of[lu] != kInvalidNode && "every owned node got a coarse id");
  }
#endif

  // --- Halo exchange 2: ghost coarse ids, so arc targets can be
  // translated. Every peer learns the coarse id of each of my owned
  // boundary nodes it holds as a ghost. ---
  std::vector<int> served;  // scratch of for_each_other_owner
  {
    KAPPA_TRACE_SPAN("coarsen.contract.halo");
    std::vector<std::vector<std::uint64_t>> outbox(p);
    auto owner_local = [&](NodeID l) { return fine.owner_of_local(l, rank); };
    for (NodeID lu = 0; lu < num_owned; ++lu) {
      for_each_other_owner(resident.neighbors(lu), rank, owner_local, served,
                           [&](int q) {
                             outbox[q].push_back(go(lu));
                             outbox[q].push_back(coarse_of[lu]);
                           });
    }
    for (int q = 0; q < p; ++q) {
      if (q != rank && fine.peer[q]) pe_.send(q, std::move(outbox[q]));
    }
    for (int q = 0; q < p; ++q) {
      if (q == rank || !fine.peer[q]) continue;
      const Message msg = pe_.receive(q);
      const std::size_t records = halo_records(msg.payload, 2);
      for (std::size_t r = 0; r < records; ++r) {
        const NodeID l = sg.halo_local(msg.payload[2 * r], HaloKind::kGhost);
        coarse_of[l] = checked_coarse_id(msg.payload[2 * r + 1], coarse_n);
      }
    }
  }

  // --- Halo exchange 3: coarse-edge contributions of cross-rank pairs.
  // The non-canonical owner translates its endpoint's full row into
  // coarse target space (everything it needs is resident) and ships it
  // to the canonical owner, which merges it into the coarse row. ---
  // Received contributions, sorted by the remote member's ghost id: a
  // (ghost id, arc range) index into one flat coarse-arc list.
  struct Shipped {
    NodeID ghost;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Shipped> shipped;
  std::vector<std::pair<NodeID, EdgeWeight>> shipped_arcs;
  {
    KAPPA_TRACE_SPAN("coarsen.contract.halo");
    std::vector<std::vector<std::uint64_t>> outbox(p);
    for (NodeID lu = 0; lu < num_owned; ++lu) {
      const NodeID lv = partner[lu];
      if (lv == lu || sg.is_owned(lv) || is_canonical(lu)) continue;
      const int q = fine.owner_of_local(lv, rank);
      std::vector<std::uint64_t>& words = outbox[q];
      words.push_back(go(lu));
      words.push_back(resident.last_arc(lu) - resident.first_arc(lu));
      for (EdgeID e = resident.first_arc(lu); e < resident.last_arc(lu); ++e) {
        words.push_back(coarse_of[resident.arc_target(e)]);
        words.push_back(weight_bits(resident.arc_weight(e)));
      }
    }
    for (int q = 0; q < p; ++q) {
      if (q != rank && fine.peer[q]) pe_.send(q, std::move(outbox[q]));
    }
    for (int q = 0; q < p; ++q) {
      if (q == rank || !fine.peer[q]) continue;
      const Message msg = pe_.receive(q);
      const std::vector<std::uint64_t>& words = msg.payload;
      std::size_t i = 0;
      while (i < words.size()) {
        if (words.size() - i < 2 || words[i + 1] > (words.size() - i - 2) / 2) {
          throw TransportError("malformed halo message: partial record");
        }
        const NodeID member = sg.halo_local(words[i], HaloKind::kGhost);
        const std::uint64_t narcs = words[i + 1];
        i += 2;
        shipped.push_back({member, shipped_arcs.size(),
                           shipped_arcs.size() + narcs});
        for (std::uint64_t j = 0; j < narcs; ++j, i += 2) {
          shipped_arcs.emplace_back(checked_coarse_id(words[i], coarse_n),
                                    bits_weight(words[i + 1]));
        }
      }
    }
  }
  std::sort(shipped.begin(), shipped.end(),
            [](const Shipped& x, const Shipped& y) { return x.ghost < y.ghost; });

  // --- Owner-computes coarse rows: merge the members' coarse-translated
  // arcs, drop the self-arc, sort by coarse target (merge_coarse_row(),
  // the row form of contract() with a shard map). The sorted canonical
  // row form makes every downstream stream (shard subgraphs, gap
  // candidates) a pure function of the graph content, independent of
  // p. ---
  DistLevel next;
  next.global_n = coarse_n;
  next.num_shards = num_shards;
  next.shard_begin = shard_begin;
  next.my_shard_ids = fine.my_shard_ids;
  next.shard_locals.resize(fine.my_shard_ids.size());

  RowSet rows;
  rows.xadj.push_back(0);
  std::vector<EdgeWeight> owned_wdeg;  // full-row weighted degrees
  std::vector<BlockID> owned_warm;
  {
    KAPPA_TRACE_SPAN("coarsen.contract.rows");
    std::vector<std::pair<NodeID, EdgeWeight>> acc;
    for (std::size_t i = 0; i < fine.shard_locals.size(); ++i) {
      const NodeID first_row = static_cast<NodeID>(rows.ids.size());
      for (const NodeID lu : fine.shard_locals[i]) {
        if (!is_canonical(lu)) continue;
        const NodeID c = coarse_of[lu];
        acc.clear();
        auto add_member = [&](NodeID l) {
          for (EdgeID e = resident.first_arc(l); e < resident.last_arc(l);
               ++e) {
            const NodeID ct = coarse_of[resident.arc_target(e)];
            if (ct != c) acc.emplace_back(ct, resident.arc_weight(e));
          }
        };
        add_member(lu);
        NodeWeight weight = resident.node_weight(lu);
        const NodeID lv = partner[lu];
        if (lv != lu) {
          weight += resident.node_weight(lv);
          if (sg.is_owned(lv)) {
            add_member(lv);
          } else {
            const auto it = std::lower_bound(
                shipped.begin(), shipped.end(), lv,
                [](const Shipped& x, NodeID g) { return x.ghost < g; });
            if (it == shipped.end() || it->ghost != lv) {
              throw TransportError("halo exchange: remote member not shipped");
            }
            for (std::size_t a = it->begin; a < it->end; ++a) {
              const auto& [ct, w] = shipped_arcs[a];
              if (ct != c) acc.emplace_back(ct, w);
            }
          }
        }
        rows.ids.push_back(c);
        rows.vwgt.push_back(weight);
        owned_wdeg.push_back(merge_coarse_row(acc, rows.adj, rows.ewgt));
        rows.xadj.push_back(rows.adj.size());
        if (warm_) owned_warm.push_back(fine.warm_blocks[lu]);
      }
      next.shard_locals[i].resize(rows.ids.size() - first_row);
      std::iota(next.shard_locals[i].begin(), next.shard_locals[i].end(),
                first_row);
    }
  }

  // The coarse ghost layer: the row targets other ranks own, refreshed
  // over the coarse peer channels exactly like a fine level's (weights,
  // full-row weighted degrees, and the warm block when warm-started).
  auto owner = [&](NodeID c) { return next.owner_of_node(c, p); };
  std::vector<NodeID> ghosts;
  for (const NodeID ct : rows.adj) {
    if (owner(ct) != rank) ghosts.push_back(ct);
  }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());

  next.peer.assign(p, 0);
  for (const NodeID g : ghosts) next.peer[owner(g)] = 1;

  std::vector<NodeWeight> ghost_weights(ghosts.size(), 0);
  std::vector<EdgeWeight> ghost_wdeg(ghosts.size(), 0);
  std::vector<BlockID> ghost_warm(warm_ ? ghosts.size() : 0, 0);
  {
    KAPPA_TRACE_SPAN("coarsen.contract.halo");
    const std::size_t stride = warm_ ? 4 : 3;
    std::vector<std::vector<std::uint64_t>> outbox(p);
    for (std::size_t row = 0; row < rows.ids.size(); ++row) {
      for_each_other_owner(rows.targets(row), rank, owner, served, [&](int q) {
        outbox[q].push_back(rows.ids[row]);
        outbox[q].push_back(weight_bits(rows.vwgt[row]));
        outbox[q].push_back(weight_bits(owned_wdeg[row]));
        if (warm_) outbox[q].push_back(owned_warm[row]);
      });
    }
    for (int q = 0; q < p; ++q) {
      if (q != rank && next.peer[q]) pe_.send(q, std::move(outbox[q]));
    }
    for (int q = 0; q < p; ++q) {
      if (q == rank || !next.peer[q]) continue;
      const Message msg = pe_.receive(q);
      const std::size_t records = halo_records(msg.payload, stride);
      for (std::size_t r = 0; r < records; ++r) {
        const std::uint64_t* record = msg.payload.data() + stride * r;
        const std::size_t g = halo_position(ghosts, record[0]);
        ghost_weights[g] = bits_weight(record[1]);
        ghost_wdeg[g] = bits_weight(record[2]);
        if (warm_) ghost_warm[g] = static_cast<BlockID>(record[3]);
      }
    }
  }

  // Seal the resident structures of the coarse level.
  next.max_node_weight = static_cast<NodeWeight>(pe_.all_reduce_max(
      static_cast<std::uint64_t>(std::max<NodeWeight>(
          rows.vwgt.empty()
              ? 0
              : *std::max_element(rows.vwgt.begin(), rows.vwgt.end()),
          0))));
  ShardGraphParts parts;
  parts.owned = rows.ids;
  parts.owned_rows = std::move(rows);
  parts.ghosts = std::move(ghosts);
  parts.ghost_weights = std::move(ghost_weights);
  parts.ghost_weighted_degrees = std::move(ghost_wdeg);
  next.shard = ShardGraph(std::move(parts));
  resolve_halo(next, p);
  if (warm_) {
    next.warm_blocks = std::move(owned_warm);
    next.warm_blocks.insert(next.warm_blocks.end(), ghost_warm.begin(),
                            ghost_warm.end());
  }

  // The sharded contraction map of the fine level (owned nodes only —
  // this *is* the per-level map; nothing is gathered).
  fine.owned_to_coarse.assign(coarse_of.begin(), coarse_of.begin() + num_owned);
  return next;
}

// -------------------------------------------------------- uncoarsening ----

const StaticGraph& DistHierarchy::coarsest() {
  if (levels_.size() == 1) return *finest_;
  if (!coarsest_replica_.has_value()) {
    // The one permitted gather: the coarsest level is tiny (the stop
    // rule bounds it by the contraction limit) and initial partitioning
    // wants it whole on every PE, as in the paper.
    const DistLevel& L = levels_.back();
    const StaticGraph& resident = L.shard.csr();
    const NodeID num_owned = L.shard.num_owned();
    std::vector<std::uint64_t> words;
    GraphRow scratch;
    for (NodeID i = 0; i < num_owned; ++i) {
      scratch.weight = resident.node_weight(i);
      scratch.targets.clear();
      scratch.weights.clear();
      for (EdgeID e = resident.first_arc(i); e < resident.last_arc(i); ++e) {
        scratch.targets.push_back(L.shard.global_of(resident.arc_target(e)));
        scratch.weights.push_back(resident.arc_weight(e));
      }
      append_row_words(words, L.shard.global_of(i),
                       {scratch.weight, scratch.targets, scratch.weights},
                       [](NodeID) { return true; });
    }
    const auto gathered =
        // kappa-lint: allow(no-hierarchy-gathers, "one-time O(n_coarsest) replica gather, sanctioned by §4.2")
        pe_.all_gather_vectors(std::move(words));
    coarsest_replica_.emplace(decode_gathered_graph(gathered, L.global_n));
    ShardFootprint replica;
    replica.owned_nodes = num_owned;
    replica.ghost_nodes = L.global_n - num_owned;
    replica.arcs = coarsest_replica_->num_arcs();
    pe_.record().shard_memory.merge_peak(replica);
  }
  return *coarsest_replica_;
}

std::vector<BlockID> DistHierarchy::coarsest_warm_assignment() const {
  assert(warm_ && "only warm-started builds carry block constraints");
  const DistLevel& L = levels_.back();
  const NodeID num_owned = L.shard.num_owned();
  std::vector<std::uint64_t> words;
  words.reserve(num_owned);
  for (NodeID i = 0; i < num_owned; ++i) words.push_back(L.warm_blocks[i]);
  const auto gathered =
      // kappa-lint: allow(no-hierarchy-gathers, "O(n_coarsest) warm-start blocks at the coarsest level only")
      pe_.all_gather_vectors(std::move(words));
  return decode_owned_blocks(L, gathered, warm_k_);
}

DistPartition DistHierarchy::lift(const Partition& coarsest_partition) const {
  return DistPartition(levels_.back(), coarsest_partition, pe_);
}

DistPartition DistHierarchy::project(std::size_t l,
                                     const DistPartition& coarse) const {
  return DistPartition::project(levels_[l], levels_[l + 1], coarse, pe_);
}

Partition DistHierarchy::materialize(const DistPartition& partition) const {
  return partition.materialize(pe_);
}

BlockRowShard DistHierarchy::distribute_block_rows(
    std::size_t l, const DistPartition& partition, BlockID k) const {
  const int p = pe_.size();
  const int rank = pe_.rank();
  const DistLevel& L = levels_[l];
  const StaticGraph& resident = L.shard.csr();
  const NodeID num_owned = L.shard.num_owned();

  if (l == 0) {
    // The finest level is the always-resident input graph, so row content
    // never has to travel: the shard owners announce (id, block) of their
    // owned nodes to the block owners, which extract the rows locally.
    std::vector<NodeID> mine;
    std::vector<BlockID> mine_blocks;
    std::vector<std::vector<std::uint64_t>> outbox(p);
    for (NodeID i = 0; i < num_owned; ++i) {
      const NodeID u = L.shard.global_of(i);
      const BlockID b = partition.block(u);
      const int dest = round_robin_owner(b, p);
      if (dest == rank) {
        mine.push_back(u);
        mine_blocks.push_back(b);
      } else {
        outbox[dest].push_back(pack_pair(u, b));
      }
    }
    for (int q = 0; q < p; ++q) {
      if (q != rank) pe_.send(q, std::move(outbox[q]));
    }
    for (int q = 0; q < p; ++q) {
      if (q == rank) continue;
      const Message msg = pe_.receive(q);
      for (const std::uint64_t word : msg.payload) {
        const auto [u, b] = unpack_pair(word);
        if (u >= finest_->num_nodes() || b >= k) {
          throw TransportError("malformed row distribution: (node, block)");
        }
        mine.push_back(static_cast<NodeID>(u));
        mine_blocks.push_back(static_cast<BlockID>(b));
      }
    }
    std::vector<std::size_t> order(mine.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return mine[x] < mine[y]; });
    std::vector<NodeID> ids;
    std::vector<BlockID> blocks;
    ids.reserve(order.size());
    blocks.reserve(order.size());
    for (const std::size_t i : order) {
      ids.push_back(mine[i]);
      blocks.push_back(mine_blocks[i]);
    }
    return BlockRowShard(extract_rows(*finest_, ids), blocks, k, rank, p);
  }

  // §5.2 data distribution: rows move from shard owners to block owners,
  // each preceded by its block word (the receiver holds no assignment).
  // The store's core is written once, in id order: an index of
  // (id, source) is sorted first, then each local row is copied from the
  // resident CSR and each received row decoded from its payload.
  struct Source {
    NodeID id;
    BlockID block;
    int from;        ///< sending rank; this rank for a local row
    std::size_t at;  ///< local: owned index; received: payload offset
  };
  std::vector<Source> index;
  std::vector<std::vector<std::uint64_t>> outbox(p);
  GraphRow scratch;
  for (NodeID i = 0; i < num_owned; ++i) {
    const NodeID u = L.shard.global_of(i);
    const BlockID b = partition.block(u);
    const int dest = round_robin_owner(b, p);
    if (dest == rank) {
      index.push_back({u, b, rank, i});
      continue;
    }
    scratch.weight = resident.node_weight(i);
    scratch.targets.clear();
    scratch.weights.clear();
    for (EdgeID e = resident.first_arc(i); e < resident.last_arc(i); ++e) {
      scratch.targets.push_back(L.shard.global_of(resident.arc_target(e)));
      scratch.weights.push_back(resident.arc_weight(e));
    }
    outbox[dest].push_back(b);
    append_row_words(outbox[dest], u,
                     {scratch.weight, scratch.targets, scratch.weights},
                     [](NodeID) { return true; });
  }
  // Deterministic all-to-all rendezvous: one (possibly empty) message to
  // every other rank, one receive from each.
  for (int q = 0; q < p; ++q) {
    if (q != rank) pe_.send(q, std::move(outbox[q]));
  }
  std::vector<std::vector<std::uint64_t>> inbox(p);
  for (int q = 0; q < p; ++q) {
    if (q == rank) continue;
    inbox[q] = pe_.receive(q).payload;
    const std::vector<std::uint64_t>& words = inbox[q];
    for (std::size_t cursor = 0; cursor < words.size();) {
      const std::size_t at = cursor;
      if (words[cursor] >= k) {
        throw TransportError("malformed row distribution: block");
      }
      const BlockID b = static_cast<BlockID>(words[cursor++]);
      const NodeID id = skip_row_words(words, cursor);
      index.push_back({id, b, q, at + 1});
    }
  }
  std::sort(index.begin(), index.end(),
            [](const Source& x, const Source& y) { return x.id < y.id; });

  RowSet core;
  std::vector<BlockID> blocks;
  core.ids.reserve(index.size());
  core.vwgt.reserve(index.size());
  core.xadj.reserve(index.size() + 1);
  core.xadj.push_back(0);
  blocks.reserve(index.size());
  for (const Source& source : index) {
    blocks.push_back(source.block);
    if (source.from != rank) {
      std::size_t cursor = source.at;
      (void)decode_row_words(inbox[source.from], cursor, core);
      continue;
    }
    const NodeID i = static_cast<NodeID>(source.at);
    core.ids.push_back(source.id);
    core.vwgt.push_back(resident.node_weight(i));
    for (EdgeID e = resident.first_arc(i); e < resident.last_arc(i); ++e) {
      core.adj.push_back(L.shard.global_of(resident.arc_target(e)));
      core.ewgt.push_back(resident.arc_weight(e));
    }
    core.xadj.push_back(core.adj.size());
  }
  return BlockRowShard(std::move(core), blocks, k, rank, p);
}

}  // namespace kappa
