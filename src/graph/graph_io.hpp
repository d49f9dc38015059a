/// \file graph_io.hpp
/// \brief METIS/Chaco graph-file and partition-file I/O.
///
/// The METIS format is the lingua franca of the partitioning community
/// (Walshaw archive, Florida collection exports, DIMACS instances all ship
/// in it); supporting it makes the library usable on the paper's original
/// inputs when they are available.
#pragma once

#include <string>
#include <vector>

#include "graph/partition.hpp"
#include "graph/static_graph.hpp"

namespace kappa {

/// Reads a graph in METIS format.
///
/// Format: first non-comment line is `n m [fmt [ncon]]`; fmt is a 3-digit
/// code `xyz` with z = has edge weights, y = has node weights. Each of the
/// following n lines lists the (1-based) neighbors of a node, each
/// optionally preceded by weights according to fmt. `%` starts a comment.
/// Every edge must be listed in the rows of both endpoints, once, with one
/// weight; the result's rows are sorted. A disagreeing m is tolerated.
///
/// \throws std::runtime_error on malformed input; a self-loop, a neighbor
/// listed twice, a one-sided arc or a mirror arc of another weight names
/// its vertex.
[[nodiscard]] StaticGraph read_metis_graph(const std::string& path);

/// Writes a graph in METIS format (with weights iff any are non-unit).
void write_metis_graph(const StaticGraph& graph, const std::string& path);

/// Writes a partition file: one block id per line, node order.
void write_partition(const Partition& partition, const std::string& path);

/// Reads a partition file for \p graph into \p k blocks.
[[nodiscard]] Partition read_partition(const StaticGraph& graph, BlockID k,
                                       const std::string& path);

}  // namespace kappa
