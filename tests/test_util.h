/// \file test_util.h
/// Shared helpers for the shortcut-module tests: distributed setup
/// boilerplate and centralized ground-truth computations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/union_find.h"
#include "shortcut/shortcut.h"
#include "tree/bfs_tree.h"
#include "tree/spanning_tree.h"

namespace lcs::testutil {

/// Graph + simulator + distributed BFS tree, ready for shortcut phases.
/// `threads` selects the engine's worker count (Network::set_threads) and
/// is applied before the BFS construction so the tree build itself runs on
/// the requested thread count too. Threaded Sims pin the executor
/// threshold to 0: the test graphs are small enough that the default
/// threshold would run every round on the calling thread, and these
/// suites exist to exercise the worker pool.
struct Sim {
  const Graph* graph;
  congest::Network net;
  SpanningTree tree;

  explicit Sim(const Graph& g, NodeId root = 0, int threads = 1)
      : graph(&g),
        net(g),
        tree((net.set_threads(threads),
              threads != 1 ? net.set_parallel_round_threshold(0) : void(),
              build_bfs_tree(net, root))) {}
};

/// One block component of a part, computed centrally.
struct CentralComponent {
  std::vector<NodeId> nodes;   ///< sorted; all endpoints of `edges`
  std::vector<EdgeId> edges;   ///< sorted
  NodeId root = kNoNode;       ///< unique minimum-depth node
  bool touches_part = false;   ///< intersects Pi (block component proper)
};

/// All components of (V, Hi) that contain at least one edge or one Pi node
/// (singleton Pi nodes appear as edge-less components).
inline std::vector<CentralComponent> central_components(
    const Graph& g, const SpanningTree& tree, const Partition& p,
    const Shortcut& s, PartId part) {
  const auto edges = s.edges_of_parts(p.num_parts);
  const auto& part_edges = edges[static_cast<std::size_t>(part)];

  std::vector<NodeId> involved;
  for (const EdgeId e : part_edges) {
    involved.push_back(g.edge(e).u);
    involved.push_back(g.edge(e).v);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (p.part(v) == part) involved.push_back(v);
  std::sort(involved.begin(), involved.end());
  involved.erase(std::unique(involved.begin(), involved.end()),
                 involved.end());

  auto index_of = [&](NodeId v) {
    return static_cast<std::size_t>(
        std::lower_bound(involved.begin(), involved.end(), v) -
        involved.begin());
  };
  UnionFind uf(involved.size());
  for (const EdgeId e : part_edges)
    uf.unite(index_of(g.edge(e).u), index_of(g.edge(e).v));

  std::map<std::size_t, CentralComponent> by_root;
  for (const NodeId v : involved) {
    auto& comp = by_root[uf.find(index_of(v))];
    comp.nodes.push_back(v);
    if (p.part(v) == part) comp.touches_part = true;
  }
  for (const EdgeId e : part_edges)
    by_root[uf.find(index_of(g.edge(e).u))].edges.push_back(e);

  std::vector<CentralComponent> result;
  for (auto& [_, comp] : by_root) {
    std::sort(comp.nodes.begin(), comp.nodes.end());
    std::sort(comp.edges.begin(), comp.edges.end());
    comp.root = *std::min_element(
        comp.nodes.begin(), comp.nodes.end(), [&](NodeId a, NodeId b) {
          return tree.depth[static_cast<std::size_t>(a)] <
                 tree.depth[static_cast<std::size_t>(b)];
        });
    result.push_back(std::move(comp));
  }
  return result;
}

/// Centralized root depth of every (edge, part) pair of `s`, aligned
/// element-wise with `s.parts_on_edge`: the depth of the root of the block
/// component the edge belongs to in that part. The reference processes of
/// routing_reference.h take this per-edge layout.
inline std::vector<std::vector<std::int32_t>> central_root_depths(
    const Graph& g, const SpanningTree& tree, const Partition& p,
    const Shortcut& s) {
  std::vector<std::vector<std::int32_t>> depths(s.parts_on_edge.size());
  for (std::size_t e = 0; e < depths.size(); ++e)
    depths[e].assign(s.parts_on_edge[e].size(), -1);
  for (PartId j = 0; j < p.num_parts; ++j) {
    for (const auto& comp : central_components(g, tree, p, s, j)) {
      for (const EdgeId e : comp.edges) {
        const auto& list = s.parts_on_edge[static_cast<std::size_t>(e)];
        const auto idx = static_cast<std::size_t>(
            std::lower_bound(list.begin(), list.end(), j) - list.begin());
        depths[static_cast<std::size_t>(e)][idx] =
            tree.depth[static_cast<std::size_t>(comp.root)];
      }
    }
  }
  return depths;
}

/// Centralized count of block components (Definition 3) for one part.
inline std::int32_t central_block_count(const Graph& g,
                                        const SpanningTree& tree,
                                        const Partition& p, const Shortcut& s,
                                        PartId part) {
  std::int32_t count = 0;
  for (const auto& comp : central_components(g, tree, p, s, part))
    if (comp.touches_part) ++count;
  return count;
}

}  // namespace lcs::testutil
