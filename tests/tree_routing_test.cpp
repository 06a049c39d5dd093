#include <gtest/gtest.h>

#include <map>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/existential.h"
#include "shortcut/representation.h"
#include "shortcut/shortcut.h"
#include "shortcut/tree_routing.h"
#include "test_util.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"

namespace lcs {
namespace {

using testutil::CentralComponent;
using testutil::Sim;
using testutil::central_components;

/// Shared scenario: graph + partition + greedy shortcut at a threshold.
struct Scenario {
  Graph g;
  Partition p;
  Shortcut s;
  std::int32_t max_ids_per_edge = 0;

  Scenario(Graph graph, Partition part, const SpanningTree& tree,
           std::int32_t threshold)
      : g(std::move(graph)), p(std::move(part)) {
    s = greedy_blocked_shortcut(g, tree, p, threshold);
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      max_ids_per_edge = std::max(
          max_ids_per_edge,
          util::checked_cast<std::int32_t>(
              s.parts_on_edge[static_cast<std::size_t>(e)].size()));
  }
};

TEST(TreeRouting, BroadcastReachesEveryComponentNodeExactlyOnce) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_erdos_renyi(90, 0.05, seed);
    Sim setup(g);
    const auto p = make_random_bfs_partition(g, 10, seed + 5);
    Scenario sc(g, p, setup.tree, 4);

    // (node, part) -> received values.
    std::map<std::pair<NodeId, PartId>, std::vector<std::uint64_t>> seen;
    run_component_broadcast(
        setup.net, setup.tree, sc.s,
        [](NodeId root, PartId j) {
          return (static_cast<std::uint64_t>(root) << 20) |
                 static_cast<std::uint64_t>(j);
        },
        [&](NodeId v, PartId j, std::uint64_t value, std::int32_t) {
          seen[{v, j}].push_back(value);
        });

    for (PartId j = 0; j < p.num_parts; ++j) {
      for (const auto& comp : central_components(g, setup.tree, p, sc.s, j)) {
        if (comp.edges.empty()) continue;  // singletons: engine not involved
        const std::uint64_t expected =
            (static_cast<std::uint64_t>(comp.root) << 20) |
            static_cast<std::uint64_t>(j);
        for (const NodeId v : comp.nodes) {
          const auto it = seen.find({v, j});
          ASSERT_NE(it, seen.end()) << "node " << v << " part " << j;
          ASSERT_EQ(it->second.size(), 1u) << "duplicate delivery";
          EXPECT_EQ(it->second.front(), expected);
        }
      }
    }
  }
}

TEST(TreeRouting, ConvergecastSumsComponentContributions) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = make_grid(9, 9);
    Sim setup(g);
    const auto p = make_random_bfs_partition(g, 8, seed);
    Scenario sc(g, p, setup.tree, 3);
    const ShortcutState state =
        compute_shortcut_state(setup.net, setup.tree, p, sc.s);

    std::map<std::pair<NodeId, PartId>, std::uint64_t> results;
    run_component_convergecast(
        setup.net, setup.tree, state.shortcut, state.root_depth_on_edge,
        [](NodeId, PartId) -> std::uint64_t { return 1; },  // count nodes
        [](std::uint64_t a, std::uint64_t b) { return a + b; },
        [&](NodeId root, PartId j, std::uint64_t agg) {
          results[{root, j}] = agg;
        });

    for (PartId j = 0; j < p.num_parts; ++j) {
      for (const auto& comp :
           central_components(g, setup.tree, p, state.shortcut, j)) {
        if (comp.edges.empty()) continue;
        const auto it = results.find({comp.root, j});
        ASSERT_NE(it, results.end());
        EXPECT_EQ(it->second, comp.nodes.size());
      }
    }
  }
}

TEST(TreeRouting, ConvergecastMinFindsComponentMinimum) {
  const Graph g = make_grid(8, 8);
  Sim setup(g);
  const auto p = make_grid_rows_partition(8, 8, 2);
  Scenario sc(g, p, setup.tree, 4);
  const ShortcutState state =
      compute_shortcut_state(setup.net, setup.tree, p, sc.s);

  std::map<std::pair<NodeId, PartId>, std::uint64_t> results;
  run_component_convergecast(
      setup.net, setup.tree, state.shortcut, state.root_depth_on_edge,
      [](NodeId v, PartId) { return static_cast<std::uint64_t>(v); },
      [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); },
      [&](NodeId root, PartId j, std::uint64_t agg) {
        results[{root, j}] = agg;
      });

  for (PartId j = 0; j < p.num_parts; ++j) {
    for (const auto& comp :
         central_components(g, setup.tree, p, state.shortcut, j)) {
      if (comp.edges.empty()) continue;
      EXPECT_EQ(results.at({comp.root, j}),
                static_cast<std::uint64_t>(comp.nodes.front()));
    }
  }
}

TEST(TreeRouting, FifoDispatchesSimultaneouslyReadyComponentsInPartOrder) {
  // Regression test: the convergecast assigns the kFifo scheduling key (a
  // per-node sequence number) in the order in which components that become
  // ready in the same round are dispatched, so that order is part of the
  // observable schedule. It once came from walking an unordered_map, whose
  // iteration order is a standard-library artifact — reproducible on one
  // platform, different on another. Pin the contract: simultaneously-ready
  // components dispatch in ascending PartId order.
  const Graph g = make_path(3);  // 0 - 1 - 2, rooted at 0
  Sim setup(g);
  constexpr PartId kParts = 10;

  // Hand-built shortcut: every part rides every tree edge, so the leaf
  // (node 2) participates in all ten components and — having no children —
  // finds all ten ready at once in on_start.
  Shortcut s;
  s.parts_on_edge.assign(static_cast<std::size_t>(g.num_edges()), {});
  std::vector<std::vector<std::int32_t>> root_depth(
      static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (PartId j = 0; j < kParts; ++j) {
      s.parts_on_edge[static_cast<std::size_t>(e)].push_back(j);
      root_depth[static_cast<std::size_t>(e)].push_back(0);  // root: node 0
    }
  }

  std::vector<PartId> order;
  run_component_convergecast(
      setup.net, setup.tree, s, root_depth,
      [](NodeId v, PartId) { return static_cast<std::uint64_t>(v); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; },
      [&](NodeId root, PartId j, std::uint64_t agg) {
        EXPECT_EQ(root, 0);
        EXPECT_EQ(agg, 3u);  // contributions 0 + 1 + 2
        order.push_back(j);
      },
      RoutingPriority::kFifo);

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kParts));
  for (PartId j = 0; j < kParts; ++j)
    EXPECT_EQ(order[static_cast<std::size_t>(j)], j) << "dispatch position " << j;
}

TEST(TreeRouting, Lemma2RoundBound) {
  // Rounds of a parallel broadcast/convergecast stay O(D + c): test with
  // slack factor 2 across families and congestion levels.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    for (const std::int32_t threshold : {1, 4, 16}) {
      const Graph g = make_erdos_renyi(150, 0.03, seed);
      Sim setup(g);
      const auto p = make_random_bfs_partition(g, 25, seed + 9);
      Scenario sc(g, p, setup.tree, threshold);

      const std::int64_t before = setup.net.total_rounds();
      run_component_broadcast(
          setup.net, setup.tree, sc.s,
          [](NodeId, PartId) -> std::uint64_t { return 7; },
          [](NodeId, PartId, std::uint64_t, std::int32_t) {});
      const std::int64_t rounds = setup.net.total_rounds() - before;
      EXPECT_LE(rounds,
                2 * (setup.tree.height + sc.max_ids_per_edge) + 8)
          << "seed " << seed << " threshold " << threshold;
    }
  }
}

TEST(TreeRouting, FullAncestorBroadcastCongestionStress) {
  // Full-ancestor shortcuts put every part on the root edges — the worst
  // case for pipelining. The bound must still hold.
  const Graph g = make_grid(12, 12);
  Sim setup(g);
  const auto p = make_random_bfs_partition(g, 30, 11);
  const Shortcut s = full_ancestor_shortcut(g, setup.tree, p);
  std::int32_t c = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    c = std::max(c, util::checked_cast<std::int32_t>(
                        s.parts_on_edge[static_cast<std::size_t>(e)].size()));

  const std::int64_t before = setup.net.total_rounds();
  run_component_broadcast(
      setup.net, setup.tree, s,
      [](NodeId, PartId) -> std::uint64_t { return 1; },
      [](NodeId, PartId, std::uint64_t, std::int32_t) {});
  EXPECT_LE(setup.net.total_rounds() - before, 2 * (setup.tree.height + c) + 8);
}

}  // namespace
}  // namespace lcs
