#include "shortcut/superstep.h"

#include <algorithm>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
#include "shortcut/tree_routing.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

namespace {

using congest::Context;
using congest::Incoming;
using congest::Message;

/// One round: every node announces its part id on all incident edges.
class PartExchangeProcess final : public congest::Process {
 public:
  PartExchangeProcess(NodeId id, const Partition& partition,
                      std::vector<PartId>& out)
      : id_(id), partition_(partition), out_(out) {}

  void on_start(Context& ctx) override {
    const auto encoded = static_cast<std::uint64_t>(
        partition_.part(id_) == kNoPart
            ? std::uint64_t{0}
            : static_cast<std::uint64_t>(partition_.part(id_)) + 1);
    for (const auto& nb : ctx.neighbors()) ctx.send(nb.edge, Message(0, encoded));
    out_.assign(ctx.neighbors().size(), kNoPart);
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    // The neighbor list is ascending by edge id (Graph::neighbors), so each
    // message's slot is a binary search: O(deg log deg) per node, not the
    // O(deg^2) of a linear scan at hubs.
    const auto nbs = ctx.neighbors();
    for (const auto& in : inbox) {
      const auto it = std::lower_bound(
          nbs.begin(), nbs.end(), in.edge,
          [](const Graph::Neighbor& nb, EdgeId e) { return nb.edge < e; });
      LCS_CHECK(it != nbs.end() && it->edge == in.edge,
                "part announcement over a non-incident edge");
      out_[static_cast<std::size_t>(it - nbs.begin())] =
          in.msg.words[0] == 0
              ? kNoPart
              : util::checked_cast<PartId>(in.msg.words[0] - 1);
    }
  }

 private:
  NodeId id_;
  const Partition& partition_;
  std::vector<PartId>& out_;
};

/// One round: part members send hook-provided words to same-part neighbors.
/// One object serves every node (stateless apart from the hooks' per-node
/// slots).
class CrossExchangeProcess final : public congest::Process {
 public:
  CrossExchangeProcess(const Partition& partition,
                       const NeighborParts& neighbor_parts,
                       const SuperstepHooks& hooks)
      : partition_(partition), neighbor_parts_(neighbor_parts), hooks_(hooks) {}

  void on_start(Context& ctx) override {
    const NodeId v = ctx.id();
    const PartId j = partition_.part(v);
    if (j == kNoPart) return;
    const auto nbs = ctx.neighbors();
    const auto& parts = neighbor_parts_.of[static_cast<std::size_t>(v)];
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      if (parts[k] != j) continue;
      const auto msg = hooks_.cross_message(v, nbs[k].node, nbs[k].edge);
      if (msg.has_value()) ctx.send(nbs[k].edge, Message(0, *msg));
    }
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    for (const auto& in : inbox)
      hooks_.on_cross(ctx.id(), in.from, in.edge, in.msg.words[0]);
  }

 private:
  const Partition& partition_;
  const NeighborParts& neighbor_parts_;
  const SuperstepHooks& hooks_;
};

}  // namespace

NeighborParts exchange_neighbor_parts(congest::Network& net,
                                      const Partition& partition) {
  NeighborParts result;
  result.of.resize(static_cast<std::size_t>(net.num_nodes()));
  std::vector<PartExchangeProcess> procs;
  procs.reserve(static_cast<std::size_t>(net.num_nodes()));
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    procs.emplace_back(v, partition, result.of[static_cast<std::size_t>(v)]);
  congest::run_phase(net, procs);
  return result;
}

void run_superstep(congest::Network& net, const SpanningTree& tree,
                   const Partition& partition, const ShortcutState& state,
                   const NeighborParts& neighbor_parts,
                   const SuperstepHooks& hooks, SuperstepScratch& scratch) {
  LCS_CHECK(hooks.contribution && hooks.combine && hooks.on_aggregate,
            "superstep hooks incomplete");
  const RoutingPlan& plan = state.plan;

  // 1. Cross-edge exchange between adjacent supernodes over G[Pi] edges.
  if (hooks.cross_message) {
    LCS_CHECK(static_cast<bool>(hooks.on_cross),
              "cross_message requires on_cross");
    CrossExchangeProcess exchange(partition, neighbor_parts, hooks);
    congest::run_phase_shared(net, exchange);
  }

  // 2. Convergecast within components; roots hold the per-component result.
  //    A root may close components of several parts, so the aggregate is
  //    kept per plan entry: every slot is written and read only through
  //    that root's own callbacks, which keeps it genuine per-node state,
  //    race-free when the engine runs different nodes on different workers
  //    and identical at every thread count. The stamp tells this
  //    superstep's aggregates from an earlier one's.
  scratch.root_agg.resize(plan.entries.size());
  scratch.root_agg_stamp.resize(plan.entries.size());
  const std::uint64_t stamp = ++scratch.stamp;
  run_component_convergecast(
      net, tree, plan, scratch.routing, hooks.contribution, hooks.combine,
      [&](NodeId root, PartId j, std::uint64_t agg) {
        const std::size_t e = plan.find_entry(root, j);
        scratch.root_agg[e] = agg;
        scratch.root_agg_stamp[e] = stamp;
      });

  // 3. Broadcast the aggregates back down the components.
  run_component_broadcast(
      net, tree, plan, scratch.routing,
      [&](NodeId root, PartId j) -> std::uint64_t {
        const std::size_t e = plan.find_entry(root, j);
        LCS_CHECK(scratch.root_agg_stamp[e] == stamp,
                  "missing aggregate at component root");
        return scratch.root_agg[e];
      },
      [&](NodeId v, PartId j, std::uint64_t value, std::int32_t) {
        hooks.on_aggregate(v, j, value);
      });

  // Singleton components never exchange intra-component messages: their
  // aggregate is the node's own contribution (a local computation, zero
  // rounds).
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!state.own_singleton[static_cast<std::size_t>(v)]) continue;
    const PartId j = partition.part(v);
    hooks.on_aggregate(v, j, hooks.contribution(v, j));
  }
}

}  // namespace lcs
