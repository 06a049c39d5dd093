/// \file representation.h
/// The "distributed representation" of a computed shortcut (Section 4.1):
/// after construction, each node must know (i) its own and its neighbors'
/// T-depths, (ii) which incident edges are tree edges, and (iii) the part
/// ids that may use its parent edge *along with the depth (and identity) of
/// their block-component roots*.
///
/// (i) and (ii) come from the BFS phase. This module computes (iii) with a
/// single component-broadcast (Lemma 2): every block-component root — a node
/// that sees a part id on a child edge but not on its parent edge — floods
/// (root id, root depth) down its component. The root id doubles as a
/// *block id*, unique within each part, which verification and part routing
/// rely on.
///
/// The same phase also yields each node's compiled `RoutingPlan` (see
/// tree_routing.h): its (part, child-edge count, has-parent, parent root
/// depth) entries, the parts whose components it roots, and its child
/// slots. Every entry derives from the part lists on the node's incident
/// tree edges and the root depths the broadcast just delivered, so the plan
/// costs zero rounds. It is immutable once built; the verification and part
/// routing loops run all their supersteps over it with their own per-node
/// scratch.
#pragma once

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/shortcut.h"
#include "shortcut/tree_routing.h"
#include "tree/spanning_tree.h"

namespace lcs {

/// A shortcut plus the per-node knowledge required to route on it.
struct ShortcutState {
  Shortcut shortcut;

  /// Aligned with shortcut.parts_on_edge[e]: the node id / depth of the
  /// block-component root for that (edge, part) pair.
  std::vector<std::vector<NodeId>> root_id_on_edge;
  std::vector<std::vector<std::int32_t>> root_depth_on_edge;

  /// For each node v in a part: the block id (component root) and its depth
  /// for v's own component. Nodes with no incident own-part shortcut edge
  /// form singleton components rooted at themselves. kNoNode for nodes
  /// outside every part.
  congest::PerNode<NodeId> own_block_root;
  congest::PerNode<std::int32_t> own_block_root_depth;

  /// True if v's own-part component is the singleton {v}.
  congest::PerNode<bool> own_singleton;

  /// Per-node block-component layout, root depths attached.
  RoutingPlan plan;
};

/// Run the representation phase for `shortcut` (rounds accounted in `net`)
/// and bundle the results. The shortcut must be valid for (tree, partition).
ShortcutState compute_shortcut_state(congest::Network& net,
                                     const SpanningTree& tree,
                                     const Partition& partition,
                                     Shortcut shortcut);

}  // namespace lcs
