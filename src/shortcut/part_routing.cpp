#include "shortcut/part_routing.h"

#include <algorithm>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

congest::PerNode<std::uint64_t> part_min_flood(
    congest::Network& net, const SpanningTree& tree, const Partition& partition,
    const ShortcutState& state, const NeighborParts& neighbor_parts,
    std::int32_t b_steps, const congest::PerNode<std::uint64_t>& init) {
  LCS_CHECK(b_steps >= 1, "need at least one superstep");
  LCS_CHECK(init.size() == static_cast<std::size_t>(net.num_nodes()),
            "one value per node required");

  congest::PerNode<std::uint64_t> value = init;
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    if (partition.part(v) == kNoPart)
      value[static_cast<std::size_t>(v)] = kNoValue;

  const auto u64 = [](NodeId v) { return static_cast<std::size_t>(v); };
  SuperstepHooks hooks;
  hooks.identity = kNoValue;
  hooks.combine = [](std::uint64_t a, std::uint64_t b) {
    return std::min(a, b);
  };
  hooks.contribution = [&](NodeId v, PartId j) {
    return partition.part(v) == j ? value[u64(v)] : kNoValue;
  };
  hooks.on_aggregate = [&](NodeId v, PartId j, std::uint64_t agg) {
    if (partition.part(v) == j) value[u64(v)] = std::min(value[u64(v)], agg);
  };
  hooks.cross_message = [&](NodeId v, NodeId, EdgeId) {
    return std::optional<std::uint64_t>(value[u64(v)]);
  };
  hooks.on_cross = [&](NodeId v, NodeId, EdgeId, std::uint64_t received) {
    value[u64(v)] = std::min(value[u64(v)], received);
  };

  SuperstepScratch scratch;
  for (std::int32_t step = 0; step < b_steps; ++step)
    run_superstep(net, tree, partition, state, neighbor_parts, hooks, scratch);
  return value;
}

congest::PerNode<NodeId> elect_part_leaders(
    congest::Network& net, const SpanningTree& tree, const Partition& partition,
    const ShortcutState& state, const NeighborParts& neighbor_parts,
    std::int32_t b_steps) {
  congest::PerNode<std::uint64_t> ids(
      static_cast<std::size_t>(net.num_nodes()), kNoValue);
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    ids[static_cast<std::size_t>(v)] = static_cast<std::uint64_t>(v);
  const auto mins = part_min_flood(net, tree, partition, state,
                                   neighbor_parts, b_steps, ids);
  congest::PerNode<NodeId> leaders(static_cast<std::size_t>(net.num_nodes()),
                                   kNoNode);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (partition.part(v) != kNoPart)
      leaders[static_cast<std::size_t>(v)] =
          util::checked_cast<NodeId>(mins[static_cast<std::size_t>(v)]);
  }
  return leaders;
}

congest::PerNode<std::uint64_t> part_broadcast(
    congest::Network& net, const SpanningTree& tree, const Partition& partition,
    const ShortcutState& state, const NeighborParts& neighbor_parts,
    std::int32_t b_steps,
    const congest::PerNode<std::uint64_t>& value_at_source) {
  return part_min_flood(net, tree, partition, state, neighbor_parts, b_steps,
                        value_at_source);
}

}  // namespace lcs
