/// \file components.h
/// Distributed connected components of a *logical subgraph* over the intact
/// physical network — the primitive behind connectivity verification and
/// sampling-based min-cut (both members of the Ω̃(√n + D) problem family
/// the paper's framework accelerates).
///
/// The algorithm is unweighted Boruvka: fragments repeatedly merge along
/// the smallest-id alive outgoing edge, with fragment aggregation running
/// on freshly constructed tree-restricted shortcuts (communication may use
/// every physical edge; only candidate edges are filtered to `edge_alive`).
/// It is the MST's phase loop (`run_shortcut_boruvka`,
/// mst/boruvka_shortcut.h) with the alive-edge candidate rule.
#pragma once

#include "congest/network.h"
#include "congest/process.h"
#include "graph/partition.h"
#include "tree/spanning_tree.h"

namespace lcs {

struct ComponentsResult {
  /// Component label per node; two nodes share a label iff they are
  /// connected by alive edges.
  congest::PerNode<PartId> label;
  std::int32_t phases = 0;
  std::int64_t rounds = 0;
};

/// Labels the components of the subgraph restricted to `edge_alive`.
/// `seed` drives the shortcut construction and merge coins.
ComponentsResult distributed_components(congest::Network& net,
                                        const SpanningTree& tree,
                                        const std::vector<bool>& edge_alive,
                                        std::uint64_t seed = 1);

}  // namespace lcs
