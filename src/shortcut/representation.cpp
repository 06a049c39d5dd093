#include "shortcut/representation.h"

#include <cstdint>
#include <vector>

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
  ShortcutState state;
  state.shortcut = std::move(shortcut);
  state.own_block_root.assign(static_cast<std::size_t>(net.num_nodes()),
                              kNoNode);
  state.plan = compile_routing_plan(tree, state.shortcut);

  // Each component root floods its own id; the depth rides along in the
  // message. Every node records the depth on its parent-edge entry of the
  // part (kept aside per entry: the plan stays read-only during the phase)
  // and, for nodes of the part itself, its own block root.
  std::vector<std::int32_t> parent_depth(state.plan.entries.size(), -1);
  auto root_value = [](NodeId root, PartId) -> std::uint64_t {
    return static_cast<std::uint64_t>(root);
  };
  auto on_receive = [&](NodeId v, PartId j, std::uint64_t value,
                        std::int32_t root_depth) {
    const std::size_t e = state.plan.find_entry(v, j);
    if (state.plan.entries[e].has_parent) parent_depth[e] = root_depth;
    if (partition.part(v) == j)
      state.own_block_root[static_cast<std::size_t>(v)] =
          util::checked_cast<NodeId>(value);
  };
  RoutingScratch scratch;
  run_component_broadcast(net, tree, state.plan, scratch, root_value,
                          on_receive);

  // Each node now knows its parent edge's root depths: the convergecast
  // priorities (local, zero rounds). Every (edge, part) pair is the parent
  // entry of the edge's lower endpoint, so each must have been reached.
  for (std::size_t e = 0; e < parent_depth.size(); ++e) {
    RoutingPlan::Entry& entry = state.plan.entries[e];
    if (!entry.has_parent) continue;
    LCS_CHECK(parent_depth[e] >= 0, "component broadcast missed an edge slot");
    entry.parent_root_depth = parent_depth[e];
  }

  // Singleton components: a part node with no incident own-part shortcut
  // edge roots its own (empty) component. This is purely local knowledge.
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    NodeId& root = state.own_block_root[static_cast<std::size_t>(v)];
    if (partition.part(v) == kNoPart || root != kNoNode) continue;
    root = v;
    state.singletons.push_back(v);
  }
  return state;
}

}  // namespace lcs
