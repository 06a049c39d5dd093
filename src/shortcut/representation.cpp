#include "shortcut/representation.h"

#include <algorithm>

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/shortcut.h"
#include "shortcut/tree_routing.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

ShortcutState compute_shortcut_state(congest::Network& net,
                                     const SpanningTree& tree,
                                     const Partition& partition,
                                     Shortcut shortcut) {
  const auto n = static_cast<std::size_t>(net.num_nodes());
  const auto m = static_cast<std::size_t>(net.graph().num_edges());

  ShortcutState state;
  state.shortcut = std::move(shortcut);
  state.root_id_on_edge.resize(m);
  state.root_depth_on_edge.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    const std::size_t k = state.shortcut.parts_on_edge[e].size();
    state.root_id_on_edge[e].assign(k, kNoNode);
    state.root_depth_on_edge[e].assign(k, -1);
  }
  state.own_block_root.assign(n, kNoNode);
  state.own_block_root_depth.assign(n, -1);
  state.own_singleton.assign(n, false);

  // Each component root floods its own id; the depth rides along in the
  // message. At every node the broadcast fills the parent-edge slot (each
  // component edge is filled exactly once, by its lower endpoint) and, for
  // nodes of the part itself, the own-block fields.
  auto root_value = [](NodeId root, PartId) -> std::uint64_t {
    return static_cast<std::uint64_t>(root);
  };
  auto on_receive = [&](NodeId v, PartId j, std::uint64_t value,
                        std::int32_t root_depth) {
    const auto root = util::checked_cast<NodeId>(value);
    const EdgeId pe = tree.parent_edge[static_cast<std::size_t>(v)];
    if (pe != kNoEdge) {
      const auto& list =
          state.shortcut.parts_on_edge[static_cast<std::size_t>(pe)];
      const auto it = std::lower_bound(list.begin(), list.end(), j);
      if (it != list.end() && *it == j) {
        const auto idx = static_cast<std::size_t>(it - list.begin());
        state.root_id_on_edge[static_cast<std::size_t>(pe)][idx] = root;
        state.root_depth_on_edge[static_cast<std::size_t>(pe)][idx] =
            root_depth;
      }
    }
    if (partition.part(v) == j) {
      state.own_block_root[static_cast<std::size_t>(v)] = root;
      state.own_block_root_depth[static_cast<std::size_t>(v)] = root_depth;
    }
  };
  state.plan = compile_routing_plan(tree, state.shortcut);
  RoutingScratch scratch;
  run_component_broadcast(net, tree, state.plan, scratch, root_value,
                          on_receive);

  // Singleton components: a part node with no incident own-part shortcut
  // edge roots its own (empty) component. This is purely local knowledge.
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const PartId j = partition.part(v);
    if (j == kNoPart) continue;
    if (state.own_block_root[static_cast<std::size_t>(v)] == kNoNode) {
      state.own_block_root[static_cast<std::size_t>(v)] = v;
      state.own_block_root_depth[static_cast<std::size_t>(v)] =
          tree.depth[static_cast<std::size_t>(v)];
      state.own_singleton[static_cast<std::size_t>(v)] = true;
    }
  }

  // Every (edge, part) slot must have been filled.
  for (std::size_t e = 0; e < m; ++e) {
    for (const NodeId r : state.root_id_on_edge[e])
      LCS_CHECK(r != kNoNode, "component broadcast missed an edge slot");
  }
  // Each node now knows its parent edge's root depths: the plan's
  // convergecast priorities (local, zero rounds).
  attach_root_depths(state.plan, tree, state.shortcut,
                     state.root_depth_on_edge);
  return state;
}

}  // namespace lcs
