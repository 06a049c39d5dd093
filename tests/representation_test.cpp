#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/existential.h"
#include "shortcut/representation.h"
#include "shortcut/shortcut.h"
#include "shortcut/tree_routing.h"
#include "test_util.h"

namespace lcs {
namespace {

using testutil::Sim;
using testutil::central_components;

void expect_representation_correct(const Graph& g, const Partition& p,
                                   std::int32_t threshold) {
  Sim setup(g);
  const Shortcut s = greedy_blocked_shortcut(g, setup.tree, p, threshold);
  const ShortcutState state =
      compute_shortcut_state(setup.net, setup.tree, p, s);
  const RoutingPlan& plan = state.plan;

  std::size_t component_edges = 0;
  std::vector<NodeId> singletons;
  for (PartId j = 0; j < p.num_parts; ++j) {
    for (const auto& comp : central_components(g, setup.tree, p, s, j)) {
      const std::int32_t root_depth =
          setup.tree.depth[static_cast<std::size_t>(comp.root)];
      // Every edge of the component is the parent edge of its lower
      // endpoint, whose plan entry for the part must carry the root depth.
      for (const EdgeId e : comp.edges) {
        const auto& edge = g.edge(e);
        const NodeId child =
            setup.tree.parent_edge[static_cast<std::size_t>(edge.u)] == e
                ? edge.u
                : edge.v;
        ASSERT_EQ(setup.tree.parent_edge[static_cast<std::size_t>(child)], e);
        const auto& entry = plan.entries[plan.find_entry(child, j)];
        EXPECT_TRUE(entry.has_parent);
        EXPECT_EQ(entry.parent_root_depth, root_depth)
            << "edge " << e << " part " << j;
        ++component_edges;
      }
      // Part members of the component must know their block root.
      for (const NodeId v : comp.nodes) {
        if (p.part(v) != j) continue;
        EXPECT_EQ(state.own_block_root[static_cast<std::size_t>(v)],
                  comp.root);
        if (comp.edges.empty()) singletons.push_back(v);
      }
    }
  }
  // No parent entry beyond the (edge, part) pairs checked above.
  EXPECT_EQ(static_cast<std::size_t>(std::count_if(
                plan.entries.begin(), plan.entries.end(),
                [](const RoutingPlan::Entry& e) { return e.has_parent; })),
            component_edges);
  std::sort(singletons.begin(), singletons.end());
  EXPECT_EQ(state.singletons, singletons);
}

TEST(Representation, GridRowsPartition) {
  expect_representation_correct(make_grid(8, 8),
                                make_grid_rows_partition(8, 8, 2), 3);
}

TEST(Representation, RandomGraphsAcrossSeedsAndThresholds) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_erdos_renyi(80, 0.05, seed);
    const auto p = make_random_bfs_partition(g, 9, seed + 3);
    for (const std::int32_t threshold : {1, 4})
      expect_representation_correct(g, p, threshold);
  }
}

TEST(Representation, SingletonsRootThemselves) {
  // Threshold 0: no edges assigned anywhere; every part node is a
  // singleton component rooted at itself.
  const Graph g = make_grid(6, 6);
  Sim setup(g);
  const auto p = make_random_bfs_partition(g, 5, 2);
  Shortcut s;
  s.parts_on_edge.resize(static_cast<std::size_t>(g.num_edges()));
  const ShortcutState state =
      compute_shortcut_state(setup.net, setup.tree, p, s);
  std::vector<NodeId> all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_NE(p.part(v), kNoPart);
    EXPECT_EQ(state.own_block_root[static_cast<std::size_t>(v)], v);
    all.push_back(v);
  }
  EXPECT_EQ(state.singletons, all);
  EXPECT_TRUE(state.plan.entries.empty());
}

TEST(Representation, UnassignedNodesHaveNoBlock) {
  const Graph g = make_wheel(33);
  Sim setup(g);
  const auto p = make_cycle_arcs_partition(33, 4);
  const Shortcut s = full_ancestor_shortcut(g, setup.tree, p);
  const ShortcutState state =
      compute_shortcut_state(setup.net, setup.tree, p, s);
  const NodeId hub = 32;
  EXPECT_EQ(p.part(hub), kNoPart);
  EXPECT_EQ(state.own_block_root[static_cast<std::size_t>(hub)], kNoNode);
  EXPECT_FALSE(std::binary_search(state.singletons.begin(),
                                  state.singletons.end(), hub));
}

}  // namespace
}  // namespace lcs
