/// \file representation.h
/// The "distributed representation" of a computed shortcut (Section 4.1):
/// after construction, each node must know (i) its own and its neighbors'
/// T-depths, (ii) which incident edges are tree edges, and (iii) the part
/// ids that may use its parent edge *along with the depth of their
/// block-component roots* (the Lemma 2 priority).
///
/// (i) and (ii) come from the BFS phase. This module computes (iii) with a
/// single component-broadcast (Lemma 2): every block-component root — a node
/// that sees a part id on a child edge but not on its parent edge — floods
/// (root id, root depth) down its component. The root id doubles as a
/// *block id*, unique within each part, which verification relies on.
///
/// The node's routing knowledge lives in one place, its compiled
/// `RoutingPlan` (see tree_routing.h): its (part, child-edge count,
/// has-parent, parent root depth) entries, the parts whose components it
/// roots, and its child slots. The broadcast runs over the freshly compiled
/// plan, collects each parent-edge root depth per entry, and the depths are
/// written into the entries once the phase is over. Every tree edge is the
/// parent edge of exactly one node, so each (edge, part) pair is one entry.
/// Compiling costs zero rounds; the plan is immutable once built, and the
/// verification and part routing loops run all their supersteps over it
/// with their own per-node scratch.
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

  /// For each node v in a part: the block id (component root) of v's own
  /// component. Nodes with no incident own-part shortcut edge form
  /// singleton components rooted at themselves. kNoNode for nodes outside
  /// every part.
  congest::PerNode<NodeId> own_block_root;

  /// The nodes whose own-part component is the singleton {v}, ascending.
  std::vector<NodeId> singletons;

  /// Per-node block-component layout, parent root depths filled in.
  RoutingPlan plan;
};

/// Run the representation phase for `shortcut` (rounds accounted in `net`)
/// and bundle the results. The shortcut must be valid for (tree, partition).
ShortcutState compute_shortcut_state(congest::Network& net,
                                     const SpanningTree& tree,
                                     const Partition& partition,
                                     Shortcut shortcut);

}  // namespace lcs
