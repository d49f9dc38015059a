/// \file io_test.cpp
/// \brief Tests for METIS graph-file and partition-file I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "generators/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_io.hpp"
#include "graph/validation.hpp"

namespace kappa {
namespace {

class IOTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "kappa_io_" + name;
  }
};

TEST_F(IOTest, RoundTripUnweighted) {
  const StaticGraph original = grid_graph(7, 5);
  const std::string path = temp_path("unweighted.graph");
  write_metis_graph(original, path);
  const StaticGraph read = read_metis_graph(path);
  ASSERT_EQ(read.num_nodes(), original.num_nodes());
  ASSERT_EQ(read.num_edges(), original.num_edges());
  EXPECT_EQ(validate_graph(read), "");
  for (NodeID u = 0; u < read.num_nodes(); ++u) {
    ASSERT_EQ(read.degree(u), original.degree(u));
  }
  std::remove(path.c_str());
}

TEST_F(IOTest, RoundTripWithIsolatedVertex) {
  // An isolated vertex is written as an *empty* line — legal METIS.
  // Regression: the reader used to swallow it as if it were a comment,
  // shifting every following row and dying with "unexpected EOF".
  GraphBuilder builder(5);
  builder.add_edge(0, 1, 1);
  builder.add_edge(3, 4, 1);  // vertex 2 stays isolated
  const StaticGraph original = builder.finalize();
  const std::string path = temp_path("isolated.graph");
  write_metis_graph(original, path);
  const StaticGraph read = read_metis_graph(path);
  ASSERT_EQ(read.num_nodes(), original.num_nodes());
  ASSERT_EQ(read.num_edges(), original.num_edges());
  EXPECT_EQ(read.degree(2), 0u);
  EXPECT_EQ(read.degree(0), 1u);
  EXPECT_EQ(read.degree(4), 1u);
  std::remove(path.c_str());
}

TEST_F(IOTest, RoundTripWeighted) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1, 3);
  builder.add_edge(1, 2, 7);
  builder.add_edge(2, 3, 2);
  builder.set_node_weight(0, 5);
  builder.set_node_weight(3, 9);
  const StaticGraph original = builder.finalize();
  const std::string path = temp_path("weighted.graph");
  write_metis_graph(original, path);
  const StaticGraph read = read_metis_graph(path);
  ASSERT_EQ(read.num_nodes(), 4u);
  EXPECT_EQ(read.node_weight(0), 5);
  EXPECT_EQ(read.node_weight(1), 1);
  EXPECT_EQ(read.node_weight(3), 9);
  EXPECT_EQ(read.arc_weight(read.first_arc(0)), 3);
  EXPECT_EQ(validate_graph(read), "");
  std::remove(path.c_str());
}

TEST_F(IOTest, ReadsCommentsAndExplicitFormat) {
  const std::string path = temp_path("comments.graph");
  {
    std::ofstream out(path);
    out << "% a Walshaw-archive style header comment\n";
    out << "3 2 001\n";  // edge weights only
    out << "% node 1\n";
    out << "2 10\n";
    out << "1 10 3 20\n";
    out << "2 20\n";
  }
  const StaticGraph g = read_metis_graph(path);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.total_edge_weight(), 30);
  std::remove(path.c_str());
}

TEST_F(IOTest, RejectsMissingFileAndBadContent) {
  EXPECT_THROW(read_metis_graph("/nonexistent/path.graph"),
               std::runtime_error);
  const std::string path = temp_path("bad.graph");
  {
    std::ofstream out(path);
    out << "2 1\n";
    out << "5\n";  // neighbor out of range
    out << "1\n";
  }
  EXPECT_THROW(read_metis_graph(path), std::runtime_error);
  std::remove(path.c_str());
}

// Hostile input: every malformed file is a clean std::runtime_error, and
// a header cannot make the reader allocate before the file backs it.
class MetisRejects : public IOTest {
 protected:
  /// Expects a std::runtime_error whose message contains \p reason.
  void expect_rejected(const std::string& name, const std::string& text,
                       const std::string& reason = "") {
    const std::string path = temp_path(name);
    {
      std::ofstream out(path);
      out << text;
    }
    try {
      (void)read_metis_graph(path);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(reason), std::string::npos)
          << error.what();
    }
    std::remove(path.c_str());
  }
};

// Both header checks fire before the reader allocates the vertices.
TEST_F(MetisRejects, VertexCountBeyondNodeIdRange) {
  // Truncated to NodeID, 2^32 + 1 would size the graph for one vertex
  // and the second row's node weight would be written out of bounds.
  expect_rejected("huge_n.graph", "4294967297 1 10\n1 2\n1 1\n",
                  "vertex count");
}

TEST_F(MetisRejects, MoreVerticesThanTheFileHasBytes) {
  expect_rejected("unbacked_n.graph", "10000000 0\n\n\n", "vertex count");
}

TEST_F(MetisRejects, UnparsableHeader) {
  // Read leniently, "garbage header" would be n = 0, an empty graph.
  expect_rejected("garbage_header.graph", "garbage header\n");
  expect_rejected("no_m.graph", "2\n2\n1\n");
  expect_rejected("bad_fmt.graph", "2 1 0x1\n2 1\n1 1\n");
  expect_rejected("header_tail.graph", "2 1 000 1 x\n2\n1\n");
}

TEST_F(MetisRejects, UnsupportedFormatFields) {
  // Vertex sizes and multi-constraint weights would be misread as
  // neighbor ids.
  expect_rejected("vertex_sizes.graph", "2 1 100\n4 2\n4 1\n",
                  "unsupported");
  expect_rejected("ncon.graph", "2 1 010 2\n1 1 2\n1 1 1\n",
                  "unsupported");
}

TEST_F(MetisRejects, GarbageInsideAVertexLine) {
  // Stopping at "x" would silently drop the edge to vertex 3.
  expect_rejected("garbage_row.graph", "3 2\n2 x 3\n1\n1\n");
}

TEST_F(MetisRejects, NonPositiveEdgeWeight) {
  expect_rejected("negative_edge.graph", "2 1 001\n2 -5\n1 -5\n");
  expect_rejected("zero_edge.graph", "2 1 001\n2 0\n1 0\n");
}

TEST_F(MetisRejects, NegativeNodeWeight) {
  expect_rejected("negative_node.graph", "2 1 010\n-3 2\n1 1\n");
}

// Every edge is listed in the rows of both endpoints, once, with one
// weight. A reader that repaired the four cases below would partition a
// graph other than the file's without a word.
TEST_F(MetisRejects, SelfLoop) {
  expect_rejected("self_loop.graph", "2 1\n2\n1 2\n",
                  "vertex 2 lists itself");
}

TEST_F(MetisRejects, NeighborListedTwiceInOneRow) {
  // Read leniently, the two arcs summed to one edge of weight 2.
  expect_rejected("duplicate.graph", "2 1\n2 2\n1\n",
                  "vertex 1 lists vertex 2 twice");
}

TEST_F(MetisRejects, ArcMissingFromTheOtherEndpointsRow) {
  // Edge 3-2 is listed only in row 3: read leniently, it disappeared.
  expect_rejected("only_higher_row.graph", "3 2\n2\n1\n2\n",
                  "vertex 3 lists vertex 2, which does not");
  // Listed only in row 1: read leniently, it was mirrored.
  expect_rejected("only_lower_row.graph", "2 1\n2\n\n",
                  "vertex 1 lists vertex 2, which does not");
}

TEST_F(MetisRejects, MirrorArcWithAnotherWeight) {
  expect_rejected("mirror_weight.graph", "2 1 001\n2 3\n1 4\n",
                  "different weights");
}

TEST_F(IOTest, RowsInAnyOrderReadAsSortedRows) {
  const std::string path = temp_path("unsorted_rows.graph");
  {
    std::ofstream out(path);
    out << "4 4 001\n3 2 2 5\n4 7 1 5\n1 2 4 1\n3 1 2 7\n";
  }
  GraphBuilder builder(4);
  builder.add_edge(0, 1, 5);
  builder.add_edge(0, 2, 2);
  builder.add_edge(1, 3, 7);
  builder.add_edge(2, 3, 1);
  const StaticGraph expected = builder.finalize();
  const StaticGraph read = read_metis_graph(path);
  ASSERT_EQ(read.num_arcs(), expected.num_arcs());
  for (NodeID u = 0; u < 4; ++u) {
    ASSERT_EQ(read.first_arc(u), expected.first_arc(u));
  }
  for (EdgeID e = 0; e < read.num_arcs(); ++e) {
    EXPECT_EQ(read.arc_target(e), expected.arc_target(e));
    EXPECT_EQ(read.arc_weight(e), expected.arc_weight(e));
  }
  std::remove(path.c_str());
}

TEST_F(IOTest, ToleratesEdgeCountMismatchAndTrailingWhitespace) {
  const std::string path = temp_path("loose_header.graph");
  // m disagrees with the two edges below. The reader sizes its arc arrays
  // from m only when the file can back 2m arcs: 10^15 edges must not
  // reserve petabytes.
  for (const char* m : {"7", "1000000000000000"}) {
    {
      std::ofstream out(path);
      out << "3 " << m << " \n";
      out << "2 \n";
      out << "1 3\r\n";
      out << "2\n";
    }
    const StaticGraph g = read_metis_graph(path);
    EXPECT_EQ(g.num_nodes(), 3u) << "m = " << m;
    EXPECT_EQ(g.num_edges(), 2u) << "m = " << m;
  }
  std::remove(path.c_str());
}

TEST_F(IOTest, PartitionRoundTrip) {
  const StaticGraph g = grid_graph(4, 4);
  Partition p(g.num_nodes(), 4);
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    p.assign(u, u % 4, g.node_weight(u));
  }
  const std::string path = temp_path("part.txt");
  write_partition(p, path);
  const Partition read = read_partition(g, 4, path);
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(read.block(u), p.block(u));
  }
  EXPECT_EQ(validate_partition(g, read), "");
  std::remove(path.c_str());
}

TEST_F(IOTest, PartitionRejectsOutOfRangeBlocks) {
  const StaticGraph g = grid_graph(2, 2);
  const std::string path = temp_path("badpart.txt");
  {
    std::ofstream out(path);
    out << "0\n1\n2\n9\n";  // 9 >= k
  }
  EXPECT_THROW(read_partition(g, 4, path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kappa
