#include "graph/graph_io.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace kappa {

namespace {

/// Reads the next non-comment, non-empty line; returns false at EOF.
/// Used for the header only.
bool next_data_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') return true;
  }
  return false;
}

/// Reads the next vertex line, skipping only '%' comments. An *empty*
/// line is data here: a vertex with no neighbors (legal in the METIS
/// format) has one, and swallowing it would shift every following row.
bool next_vertex_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '%') return true;
  }
  return false;
}

}  // namespace

StaticGraph read_metis_graph(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open graph file: " + path);
  const auto malformed = [&](const std::string& what) {
    return std::runtime_error(what + " in graph file: " + path);
  };

  std::string line;
  if (!next_data_line(in, line)) {
    throw std::runtime_error("empty graph file: " + path);
  }
  std::istringstream header(line);
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  if (!(header >> n >> m)) throw malformed("malformed header");
  std::string fmt = "000";
  if (header >> fmt) {
    if (fmt.size() > 3 || fmt.find_first_not_of("01") != std::string::npos) {
      throw malformed("malformed format code");
    }
    while (fmt.size() < 3) fmt.insert(fmt.begin(), '0');
  }
  std::uint64_t ncon = 1;
  if (fmt[0] == '1' || (header >> ncon && ncon != 1)) {
    throw malformed("unsupported vertex sizes or multi-constraint weights");
  }
  if (!(header >> std::ws).eof()) throw malformed("malformed header");
  const bool has_edge_weights = fmt[2] == '1';
  const bool has_node_weights = fmt[1] == '1';

  // Every vertex takes at least one line, hence one byte: a header that
  // claims more is rejected before anything is allocated for it. (The
  // byte bound needs a regular file; NodeID bounds n everywhere.)
  std::error_code size_error;
  const std::uintmax_t file_bytes =
      std::filesystem::file_size(path, size_error);
  if (n >= kInvalidNode || (!size_error && n > file_bytes)) {
    throw malformed("vertex count " + std::to_string(n) + " out of range");
  }

  std::vector<EdgeID> xadj(n + 1, 0);
  std::vector<NodeID> adj;
  std::vector<EdgeWeight> ewgt;
  // Sized once from m (grown by doubling, they strew freed buffers over
  // the heap), unless the file cannot back 2m arcs of two bytes each.
  if (!size_error && m <= file_bytes / 4) {
    adj.reserve(2 * m);
    ewgt.reserve(2 * m);
  }
  std::vector<NodeWeight> vwgt(n, 1);
  for (NodeID u = 0; u < n; ++u) {
    if (!next_vertex_line(in, line)) {
      throw std::runtime_error("unexpected EOF in graph file: " + path);
    }
    std::istringstream row(line);
    if (has_node_weights) {
      NodeWeight w = 1;
      if (!(row >> w) || w < 0) throw malformed("bad node weight");
      vwgt[u] = w;
    }
    std::uint64_t v1 = 0;
    while (row >> v1) {
      EdgeWeight w = 1;
      if (has_edge_weights && !(row >> w && w > 0)) {
        throw malformed("bad edge weight");
      }
      if (v1 == 0 || v1 > n) throw malformed("neighbor id out of range");
      adj.push_back(static_cast<NodeID>(v1 - 1));
      ewgt.push_back(w);
    }
    if (!row.eof()) throw malformed("unparsable vertex line");
    xadj[u + 1] = adj.size();
  }
  // An edge count m that disagrees with the rows is tolerated (some archive
  // files are off); asymmetric rows are not. The graph is the transpose of
  // the rows as listed (row v: each u whose row lists v, ascending), which
  // is their sorted form once each row lists its transposed row exactly.
  std::vector<EdgeID> txadj(n + 1, 0);
  for (const NodeID v : adj) ++txadj[v + 1];
  for (NodeID v = 0; v < n; ++v) txadj[v + 1] += txadj[v];
  std::vector<EdgeID> fill(txadj.begin(), txadj.end() - 1);
  std::vector<NodeID> tadj(adj.size());
  std::vector<EdgeWeight> tewgt(adj.size());
  for (NodeID u = 0; u < n; ++u) {
    for (EdgeID e = xadj[u]; e < xadj[u + 1]; ++e) {
      tadj[fill[adj[e]]] = u;
      tewgt[fill[adj[e]]++] = ewgt[e];
    }
  }
  const auto vertex = [](NodeID u) {
    return "vertex " + std::to_string(u + 1);
  };
  std::vector<NodeID> row_of(n, kInvalidNode);  // stamp: listed in row u
  std::vector<EdgeWeight> listed_weight(n);
  for (NodeID u = 0; u < n; ++u) {
    for (EdgeID e = xadj[u]; e < xadj[u + 1]; ++e) {
      const NodeID v = adj[e];
      if (v == u) throw malformed(vertex(u) + " lists itself (self-loop)");
      if (row_of[v] == u) {
        throw malformed(vertex(u) + " lists " + vertex(v) + " twice");
      }
      row_of[v] = u;
      listed_weight[v] = ewgt[e];
    }
    for (EdgeID e = txadj[u]; e < txadj[u + 1]; ++e) {
      const NodeID v = tadj[e];
      if (row_of[v] != u) {
        throw malformed(vertex(v) + " lists " + vertex(u) +
                        ", which does not list it back");
      }
      if (listed_weight[v] != tewgt[e]) {
        throw malformed(vertex(u) + " and " + vertex(v) +
                        " list their edge with different weights");
      }
    }
  }
  return StaticGraph(std::move(txadj), std::move(tadj), std::move(tewgt),
                     std::move(vwgt));
}

void write_metis_graph(const StaticGraph& graph, const std::string& path) {
  bool weighted_nodes = false;
  for (NodeID u = 0; u < graph.num_nodes(); ++u) {
    if (graph.node_weight(u) != 1) weighted_nodes = true;
  }
  bool weighted_edges = false;
  for (EdgeID e = 0; e < graph.num_arcs(); ++e) {
    if (graph.arc_weight(e) != 1) weighted_edges = true;
  }

  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write graph file: " + path);
  out << graph.num_nodes() << ' ' << graph.num_edges();
  if (weighted_nodes || weighted_edges) {
    out << ' ' << (weighted_nodes ? '1' : '0') << (weighted_edges ? '1' : '0');
  }
  out << '\n';
  for (NodeID u = 0; u < graph.num_nodes(); ++u) {
    bool first = true;
    if (weighted_nodes) {
      out << graph.node_weight(u);
      first = false;
    }
    for (EdgeID e = graph.first_arc(u); e < graph.last_arc(u); ++e) {
      if (!first) out << ' ';
      first = false;
      out << graph.arc_target(e) + 1;
      if (weighted_edges) out << ' ' << graph.arc_weight(e);
    }
    out << '\n';
  }
}

void write_partition(const Partition& partition, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write partition file: " + path);
  for (NodeID u = 0; u < partition.num_nodes(); ++u) {
    out << partition.block(u) << '\n';
  }
}

Partition read_partition(const StaticGraph& graph, BlockID k,
                         const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open partition file: " + path);
  std::vector<BlockID> assignment(graph.num_nodes());
  for (NodeID u = 0; u < graph.num_nodes(); ++u) {
    std::uint64_t b = 0;
    if (!(in >> b) || b >= k) {
      throw std::runtime_error("bad partition file: " + path);
    }
    assignment[u] = static_cast<BlockID>(b);
  }
  return Partition(graph, std::move(assignment), k);
}

}  // namespace kappa
