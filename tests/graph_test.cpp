#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/metrics.h"
#include "util/check.h"

namespace lcs {
namespace {

TEST(Graph, BasicAdjacency) {
  Graph g(4, {{0, 1, 5}, {1, 2, 7}, {2, 3, 9}, {0, 3, 1}});
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.other_endpoint(0, 0), 1);
  EXPECT_EQ(g.other_endpoint(0, 1), 0);
  EXPECT_EQ(g.edge(1).w, 7u);
  EXPECT_EQ(g.total_weight(), 22u);
}

TEST(Graph, NeighborsAscendByEdgeId) {
  const Graph g = make_erdos_renyi(200, 0.1, 3);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbs = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbs.begin(), nbs.end(),
                               [](const Graph::Neighbor& a,
                                  const Graph::Neighbor& b) {
                                 return a.edge < b.edge;
                               }))
        << "node " << v;
  }
}

TEST(Graph, NormalizesEndpointOrder) {
  Graph g(3, {{2, 0, 1}});
  EXPECT_EQ(g.edge(0).u, 0);
  EXPECT_EQ(g.edge(0).v, 2);
}

TEST(Graph, RejectsSelfLoops) {
  EXPECT_THROW(Graph(3, {{1, 1, 1}}), CheckFailure);
}

TEST(Graph, RejectsParallelEdges) {
  EXPECT_THROW(Graph(3, {{0, 1, 1}, {1, 0, 2}}), CheckFailure);
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(Graph(3, {{0, 3, 1}}), CheckFailure);
}

TEST(Graph, WeightKeyBreaksTiesById) {
  Graph g(3, {{0, 1, 5}, {1, 2, 5}});
  EXPECT_LT(g.weight_key(0), g.weight_key(1));
}

TEST(Generators, GridShape) {
  const Graph g = make_grid(5, 3);
  EXPECT_EQ(g.num_nodes(), 15);
  // Horizontal: 4*3, vertical: 5*2.
  EXPECT_EQ(g.num_edges(), 12 + 10);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter_exact(g), 5 + 3 - 2);
}

TEST(Generators, GridIsPlanarSized) {
  const Graph g = make_grid(20, 20);
  // Planar bound |E| <= 3n - 6.
  EXPECT_LE(g.num_edges(), 3 * g.num_nodes() - 6);
}

TEST(Generators, TorusShape) {
  const Graph g = make_torus(5, 4);
  EXPECT_EQ(g.num_nodes(), 20);
  EXPECT_EQ(g.num_edges(), 2 * 20);  // every node adds right+down edges
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter_exact(g), 5 / 2 + 4 / 2);
}

TEST(Generators, TorusRejectsDegenerate) {
  EXPECT_THROW(make_torus(2, 5), CheckFailure);
}

TEST(Generators, GenusGridAddsExactlyGChords) {
  const Graph base = make_grid(10, 10);
  for (int genus : {0, 1, 5, 12}) {
    const Graph g = make_genus_grid(10, 10, genus, 99);
    EXPECT_EQ(g.num_nodes(), base.num_nodes());
    EXPECT_EQ(g.num_edges(), base.num_edges() + genus);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, PathAndCycle) {
  const Graph path = make_path(10);
  EXPECT_EQ(path.num_edges(), 9);
  EXPECT_EQ(diameter_exact(path), 9);
  const Graph cycle = make_cycle(10);
  EXPECT_EQ(cycle.num_edges(), 10);
  EXPECT_EQ(diameter_exact(cycle), 5);
}

TEST(Generators, RandomTreeIsTree) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Graph g = make_random_tree(50, seed);
    EXPECT_EQ(g.num_edges(), 49);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, RandomMazeConnectedAndPlanarSized) {
  for (double keep : {0.0, 0.3, 1.0}) {
    const Graph g = make_random_maze(12, 9, keep, 5);
    EXPECT_EQ(g.num_nodes(), 108);
    EXPECT_TRUE(is_connected(g));
    EXPECT_GE(g.num_edges(), g.num_nodes() - 1);
    EXPECT_LE(g.num_edges(), 3 * g.num_nodes() - 6);
  }
  // keep=1 must reproduce the full grid's edge count.
  EXPECT_EQ(make_random_maze(12, 9, 1.0, 5).num_edges(),
            make_grid(12, 9).num_edges());
}

TEST(Generators, ErdosRenyiConnectedAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = make_erdos_renyi(100, 0.02, seed);
    EXPECT_TRUE(is_connected(g));
    EXPECT_GE(g.num_edges(), 99);
  }
}

TEST(Generators, LowerBoundGraphStructure) {
  const NodeId paths = 8, len = 8;
  const Graph g = make_lower_bound_graph(paths, len);
  EXPECT_TRUE(is_connected(g));
  // Paths + tree leaves + internal tree nodes (len - 1 for a binary tree
  // built by repeated pairing of 8 leaves: 4+2+1).
  EXPECT_EQ(g.num_nodes(), paths * len + len + (len - 1));
  // Diameter is logarithmic in len, not linear.
  EXPECT_LE(diameter_exact(g), 2 * 8 + 4);
  // Path nodes exist where expected.
  EXPECT_EQ(lower_bound_path_node(len, 0, 0), 0);
  EXPECT_EQ(lower_bound_path_node(len, 2, 3), 2 * len + 3);
}

TEST(Generators, WithRandomWeightsPreservesTopology) {
  const Graph g = make_grid(6, 6);
  const Graph w = with_random_weights(g, 10, 20, 3);
  ASSERT_EQ(w.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(w.edge(e).u, g.edge(e).u);
    EXPECT_EQ(w.edge(e).v, g.edge(e).v);
    EXPECT_GE(w.edge(e).w, 10u);
    EXPECT_LE(w.edge(e).w, 20u);
  }
}

TEST(Metrics, BfsDistancesOnGrid) {
  const Graph g = make_grid(4, 4);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[3], 3);               // same row
  EXPECT_EQ(dist[12], 3);              // same column
  EXPECT_EQ(dist[15], 6);              // opposite corner
}

TEST(Metrics, DoubleSweepExactOnTreesAndPaths) {
  EXPECT_EQ(diameter_double_sweep(make_path(37)), 36);
  for (std::uint64_t seed : {4ULL, 9ULL}) {
    const Graph t = make_random_tree(200, seed);
    EXPECT_EQ(diameter_double_sweep(t), diameter_exact(t));
  }
}

TEST(Metrics, DoubleSweepNeverExceedsExact) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_erdos_renyi(60, 0.05, seed);
    EXPECT_LE(diameter_double_sweep(g), diameter_exact(g));
  }
}

}  // namespace
}  // namespace lcs
