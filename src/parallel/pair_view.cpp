#include "parallel/pair_view.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

namespace kappa {

PairView build_pair_view(const PairSide& side_a, const PairSide& side_b,
                         NodeWeight weight_a, NodeWeight weight_b,
                         const QuotientEdge& edge, BlockID k) {
  // The view nodes are the union of six ascending id lists, one per role:
  // the two bands, the two shipped same-side fringes (stubs), and any
  // tagged band-row target listed nowhere else (by construction a
  // cross-side target, since same-side targets are covered by the fringe,
  // so its block is the partner block of the row's side). One linear
  // merge numbers them in ascending global order; among equal ids the
  // lowest role wins, which ranks a band node above any stub listing and
  // the fringes above cross targets. Same-side arcs resolve by index
  // through the merge; only tagged arcs are searched.
  enum Role : int { kBandA, kBandB, kFringeA, kFringeB, kArcA, kArcB, kRoles };
  const PairSide* sides[2] = {&side_a, &side_b};
  std::vector<std::uint64_t> unlisted[2];  // tagged targets not in a list
  std::span<const std::uint64_t> lists[kRoles];
  for (int s = 0; s < 2; ++s) {
    lists[kBandA + s] = sides[s]->band_ids();
    lists[kFringeA + s] = sides[s]->fringe_ids();
  }

  PairView view;
  std::vector<Role> role;          // by view node: its winning role
  std::vector<NodeID> role_index;  // by view node: index in that list
  std::vector<NodeID> position[kRoles];  // by list index: view node
  std::vector<NodeID> arc_view[2];
  for (int s = 0; s < 2; ++s) arc_view[s].resize(sides[s]->num_arcs());
  for (bool resolved = false; !resolved;) {
    for (int s = 0; s < 2; ++s) lists[kArcA + s] = unlisted[s];
    view.to_global.clear();
    role.clear();
    role_index.clear();
    std::size_t head[kRoles] = {};
    for (int r = 0; r < kRoles; ++r) position[r].resize(lists[r].size());
    while (true) {
      int min_role = kRoles;
      for (int r = 0; r < kRoles; ++r) {
        if (head[r] < lists[r].size() &&
            (min_role == kRoles ||
             lists[r][head[r]] < lists[min_role][head[min_role]])) {
          min_role = r;
        }
      }
      if (min_role == kRoles) break;
      const std::uint64_t global = lists[min_role][head[min_role]];
      const NodeID v = static_cast<NodeID>(view.to_global.size());
      view.to_global.push_back(static_cast<NodeID>(global));
      role.push_back(static_cast<Role>(min_role));
      role_index.push_back(static_cast<NodeID>(head[min_role]));
      for (int r = min_role; r < kRoles; ++r) {
        if (head[r] < lists[r].size() && lists[r][head[r]] == global) {
          position[r][head[r]++] = v;
        }
      }
    }

    // Resolve every arc; a tagged target missing from the view joins its
    // side's unlisted role and the numbering runs once more.
    resolved = true;
    for (int s = 0; s < 2; ++s) {
      const PairSide& side = *sides[s];
      const std::uint64_t nband = side.band_size();
      const std::uint64_t listed = nband + side.fringe_size();
      for (std::uint64_t e = 0; e < side.num_arcs(); ++e) {
        const std::uint64_t ref = side.target_ref(e);
        if (ref < nband) {
          arc_view[s][e] = position[kBandA + s][ref];
        } else if (ref < listed) {
          arc_view[s][e] = position[kFringeA + s][ref - nband];
        } else {
          const NodeID global = side.target_global(e);
          const auto it = std::lower_bound(view.to_global.begin(),
                                           view.to_global.end(), global);
          if (it != view.to_global.end() && *it == global) {
            arc_view[s][e] = static_cast<NodeID>(it - view.to_global.begin());
          } else {
            unlisted[s].push_back(global);
            resolved = false;
          }
        }
      }
    }
    for (std::vector<std::uint64_t>& ids : unlisted) {
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }
  }
  const std::vector<NodeID>* band_view = &position[kBandA];
  const NodeID num_view = static_cast<NodeID>(view.to_global.size());
  auto is_band = [&](NodeID v) { return role[v] <= kBandB; };

  // Stub rows: the mirror arcs of every band arc into the stub, in a
  // deterministic scan (side a's rows in ascending id order, then side
  // b's, arcs in row order), bucketed by stub with a stable counting sort.
  std::vector<EdgeID> mirror_begin(num_view + 1, 0);
  for (int s = 0; s < 2; ++s) {
    for (const NodeID tv : arc_view[s]) {
      if (!is_band(tv)) ++mirror_begin[tv + 1];
    }
  }
  for (NodeID v = 0; v < num_view; ++v) mirror_begin[v + 1] += mirror_begin[v];
  std::vector<std::pair<NodeID, EdgeWeight>> mirrors(mirror_begin.back());
  {
    std::vector<EdgeID> fill(mirror_begin.begin(), mirror_begin.end() - 1);
    for (int s = 0; s < 2; ++s) {
      const PairSide& side = *sides[s];
      for (NodeID i = 0; i < side.band_size(); ++i) {
        for (std::uint64_t e = side.row_begin(i); e < side.row_end(i); ++e) {
          const NodeID tv = arc_view[s][e];
          if (is_band(tv)) continue;
          mirrors[fill[tv]++] = {band_view[s][i], side.arc_weight(e)};
        }
      }
    }
  }

  std::vector<EdgeID> xadj;
  xadj.reserve(num_view + 1);
  xadj.push_back(0);
  std::vector<NodeID> adj;
  std::vector<EdgeWeight> ewgt;
  adj.reserve(side_a.num_arcs() + side_b.num_arcs() + mirrors.size());
  ewgt.reserve(adj.capacity());
  std::vector<NodeWeight> vwgt;
  vwgt.reserve(num_view);
  view.entry.reserve(num_view);
  view.movable.reserve(num_view);
  for (NodeID v = 0; v < num_view; ++v) {
    if (is_band(v)) {
      const int s = role[v] == kBandA ? 0 : 1;
      const PairSide& side = *sides[s];
      const NodeID i = role_index[v];
      vwgt.push_back(side.band_weight(i));
      view.entry.push_back(s == 0 ? edge.a : edge.b);
      view.movable.push_back(1);
      for (std::uint64_t e = side.row_begin(i); e < side.row_end(i); ++e) {
        adj.push_back(arc_view[s][e]);
        ewgt.push_back(side.arc_weight(e));
      }
    } else {
      // Frozen stub: true block for exact gains, mirror arcs only, weight
      // unused (a stub never enters a band, so it is never moved).
      const bool a_block = role[v] == kFringeA || role[v] == kArcB;
      vwgt.push_back(0);
      view.entry.push_back(a_block ? edge.a : edge.b);
      view.movable.push_back(0);
      for (EdgeID m = mirror_begin[v]; m < mirror_begin[v + 1]; ++m) {
        adj.push_back(mirrors[m].first);
        ewgt.push_back(mirrors[m].second);
      }
    }
    xadj.push_back(adj.size());
  }
  view.graph = StaticGraph(std::move(xadj), std::move(adj), std::move(ewgt),
                           std::move(vwgt));

  // The view partition carries the *global* block weights of the pair so
  // that the balance bounds of the confined search equal the replicated
  // search's (with whole-block shipping every member is present and the
  // values coincide with a per-node sum).
  std::vector<NodeWeight> block_weights(k, 0);
  block_weights[edge.a] = weight_a;
  block_weights[edge.b] = weight_b;
  view.partition = Partition(std::vector<BlockID>(view.entry), k,
                             std::move(block_weights));

  // Boundary seeds from the quotient construction; seeds that left the
  // pair in an earlier color class of this iteration are absent from the
  // view, and in-pair seeds are always band members (the side builders
  // seed their BFS with them).
  for (const NodeID u : edge.boundary) {
    const auto it =
        std::lower_bound(view.to_global.begin(), view.to_global.end(), u);
    if (it == view.to_global.end() || *it != u) continue;
    const NodeID v = static_cast<NodeID>(it - view.to_global.begin());
    if (view.movable[v]) view.seeds.push_back(v);
  }
  return view;
}

}  // namespace kappa
