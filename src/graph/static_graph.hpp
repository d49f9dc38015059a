/// \file static_graph.hpp
/// \brief Static CSR (adjacency array / forward-star) graph.
///
/// This is the representation the paper uses for each level of the
/// multilevel hierarchy (§5.2: "a static adjacency array representation
/// (also called forward-star representation), i.e., there is an edge array
/// storing target nodes and edge weights and a node array storing node
/// weights and the start of the relevant segment in the edge array").
///
/// Undirected edges are stored as two directed arcs. Optional 2D
/// coordinates support the geometric pre-partitioning used to create
/// locality for the parallel matching phase (§3.3).
#pragma once

#include <cassert>
#include <span>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace kappa {

/// 2D point attached to a node (random geometric graphs, Delaunay
/// triangulations, road networks and some FEM graphs carry coordinates).
struct Point2D {
  double x = 0.0;
  double y = 0.0;
};

/// Immutable weighted undirected graph in CSR form.
///
/// Construction goes through GraphBuilder (which merges parallel edges and
/// drops self-loops) or through contract() in contraction.hpp. All accessors
/// are O(1); iteration over the incident arcs of a node is cache-friendly.
class StaticGraph {
 public:
  StaticGraph() = default;

  /// Assembles a graph from raw CSR arrays. \p xadj has n+1 entries; the
  /// arc arrays have xadj[n] entries; \p vwgt has n entries.
  StaticGraph(std::vector<EdgeID> xadj, std::vector<NodeID> adj,
              std::vector<EdgeWeight> ewgt, std::vector<NodeWeight> vwgt)
      : xadj_(std::move(xadj)),
        adj_(std::move(adj)),
        ewgt_(std::move(ewgt)),
        vwgt_(std::move(vwgt)) {
    assert(!xadj_.empty());
    assert(adj_.size() == xadj_.back());
    assert(ewgt_.size() == xadj_.back());
    assert(vwgt_.size() + 1 == xadj_.size());
    total_node_weight_ = 0;
    for (NodeWeight w : vwgt_) total_node_weight_ += w;
    max_node_weight_ = 0;
    for (NodeWeight w : vwgt_) max_node_weight_ = std::max(max_node_weight_, w);
  }

  /// Number of nodes n.
  [[nodiscard]] NodeID num_nodes() const {
    return static_cast<NodeID>(vwgt_.size());
  }

  /// Number of undirected edges m (each stored as two arcs).
  [[nodiscard]] EdgeID num_edges() const { return adj_.size() / 2; }

  /// Number of directed arcs (2m).
  [[nodiscard]] EdgeID num_arcs() const { return adj_.size(); }

  /// First arc index of node u.
  [[nodiscard]] EdgeID first_arc(NodeID u) const { return xadj_[u]; }

  /// One past the last arc index of node u.
  [[nodiscard]] EdgeID last_arc(NodeID u) const { return xadj_[u + 1]; }

  /// Degree of node u (number of distinct neighbors).
  [[nodiscard]] NodeID degree(NodeID u) const {
    return static_cast<NodeID>(xadj_[u + 1] - xadj_[u]);
  }

  /// Target node of arc e.
  [[nodiscard]] NodeID arc_target(EdgeID e) const { return adj_[e]; }

  /// Weight of arc e.
  [[nodiscard]] EdgeWeight arc_weight(EdgeID e) const { return ewgt_[e]; }

  /// Weight of node u.
  [[nodiscard]] NodeWeight node_weight(NodeID u) const { return vwgt_[u]; }

  /// Neighbors of u as a contiguous span.
  [[nodiscard]] std::span<const NodeID> neighbors(NodeID u) const {
    return {adj_.data() + xadj_[u], adj_.data() + xadj_[u + 1]};
  }

  /// Weights of u's arcs, parallel to neighbors(u).
  [[nodiscard]] std::span<const EdgeWeight> neighbor_weights(NodeID u) const {
    return {ewgt_.data() + xadj_[u], ewgt_.data() + xadj_[u + 1]};
  }

  /// Sum of all node weights c(V).
  [[nodiscard]] NodeWeight total_node_weight() const {
    return total_node_weight_;
  }

  /// Largest single node weight max_v c(v); enters the balance bound
  /// Lmax = (1+eps) c(V)/k + max_v c(v) (§2).
  [[nodiscard]] NodeWeight max_node_weight() const { return max_node_weight_; }

  /// Weighted degree Out(v) = sum of incident edge weights (§3.1, used by
  /// the innerOuter edge rating).
  [[nodiscard]] EdgeWeight weighted_degree(NodeID u) const {
    EdgeWeight sum = 0;
    for (EdgeID e = first_arc(u); e < last_arc(u); ++e) sum += ewgt_[e];
    return sum;
  }

  /// Total edge weight omega(E).
  [[nodiscard]] EdgeWeight total_edge_weight() const {
    EdgeWeight sum = 0;
    for (EdgeWeight w : ewgt_) sum += w;
    return sum / 2;
  }

  /// Whether 2D coordinates are attached.
  [[nodiscard]] bool has_coordinates() const {
    return coords_.size() == vwgt_.size() && !coords_.empty();
  }

  /// Coordinate of node u; requires has_coordinates().
  [[nodiscard]] const Point2D& coordinate(NodeID u) const {
    assert(has_coordinates());
    return coords_[u];
  }

  /// Attaches coordinates (size must equal num_nodes()).
  void set_coordinates(std::vector<Point2D> coords) {
    assert(coords.size() == vwgt_.size());
    coords_ = std::move(coords);
  }

  /// All coordinates (may be empty).
  [[nodiscard]] const std::vector<Point2D>& coordinates() const {
    return coords_;
  }

 private:
  std::vector<EdgeID> xadj_;
  std::vector<NodeID> adj_;
  std::vector<EdgeWeight> ewgt_;
  std::vector<NodeWeight> vwgt_;
  std::vector<Point2D> coords_;
  NodeWeight total_node_weight_ = 0;
  NodeWeight max_node_weight_ = 0;
};

}  // namespace kappa
