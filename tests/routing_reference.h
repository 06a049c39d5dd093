/// \file routing_reference.h
/// Reference implementation of the Lemma 2 component broadcast and
/// convergecast for the routing equivalence tests: one process object per
/// node that rebuilds its share of the block components from the shortcut
/// in every `on_start` and keeps it in ordered maps. It is the direct
/// reading of the protocol, slow but easy to check; the library's
/// plan-compiled engines (shortcut/tree_routing.h) must reproduce its
/// observable behaviour exactly — callback sequences per node and phase
/// stats.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <span>
#include <vector>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/shortcut.h"
#include "shortcut/tree_routing.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs::reference {

/// One pending message on a contested edge with its scheduling key.
struct Pending {
  std::uint64_t key1 = 0;  // primary priority (smaller first)
  std::uint64_t key2 = 0;  // tie-break
  std::uint64_t seq = 0;   // FIFO tie-break / kFifo key
  PartId j = kNoPart;
  std::uint64_t value = 0;
  std::int32_t root_depth = 0;

  bool operator>(const Pending& o) const {
    if (key1 != o.key1) return key1 > o.key1;
    if (key2 != o.key2) return key2 > o.key2;
    return seq > o.seq;
  }
};

using PendingQueue =
    std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>;

inline Pending make_pending(RoutingPriority priority, std::uint64_t seq,
                            PartId j, std::uint64_t value,
                            std::int32_t root_depth) {
  Pending p;
  p.seq = seq;
  p.j = j;
  p.value = value;
  p.root_depth = root_depth;
  switch (priority) {
    case RoutingPriority::kRootDepth:
      p.key1 = static_cast<std::uint64_t>(root_depth);
      p.key2 = static_cast<std::uint64_t>(j);
      break;
    case RoutingPriority::kPartId:
      p.key1 = static_cast<std::uint64_t>(j);
      break;
    case RoutingPriority::kFifo:
      p.key1 = seq;
      break;
  }
  return p;
}

class BroadcastProcess final : public congest::Process {
 public:
  BroadcastProcess(
      NodeId id, const SpanningTree& tree, const Shortcut& shortcut,
      const std::function<std::uint64_t(NodeId, PartId)>& root_value,
      const std::function<void(NodeId, PartId, std::uint64_t, std::int32_t)>&
          on_receive,
      RoutingPriority priority)
      : id_(id),
        tree_(tree),
        shortcut_(shortcut),
        root_value_(root_value),
        on_receive_(on_receive),
        priority_(priority) {}

  void on_start(congest::Context& ctx) override {
    // Components rooted here: ids on child edges that are absent from the
    // parent edge (or the node is the tree root).
    const EdgeId pe = tree_.parent_edge[static_cast<std::size_t>(id_)];
    std::vector<PartId> rooted;
    for (const EdgeId ce :
         tree_.children_edges[static_cast<std::size_t>(id_)]) {
      for (const PartId j :
           shortcut_.parts_on_edge[static_cast<std::size_t>(ce)]) {
        if (pe == kNoEdge || !shortcut_.edge_used_by(pe, j))
          rooted.push_back(j);
      }
    }
    std::sort(rooted.begin(), rooted.end());
    rooted.erase(std::unique(rooted.begin(), rooted.end()), rooted.end());

    const std::int32_t my_depth = tree_.depth[static_cast<std::size_t>(id_)];
    for (const PartId j : rooted) {
      const std::uint64_t value = root_value_(id_, j);
      on_receive_(id_, j, value, my_depth);
      enqueue_down(j, value, my_depth);
    }
    flush(ctx);
  }

  void on_round(congest::Context& ctx,
                std::span<const congest::Incoming> inbox) override {
    for (const auto& in : inbox) {
      const auto j = util::checked_cast<PartId>(in.msg.words[0]);
      const std::uint64_t value = in.msg.words[1];
      const auto rd = util::checked_cast<std::int32_t>(in.msg.words[2]);
      on_receive_(id_, j, value, rd);
      enqueue_down(j, value, rd);
    }
    flush(ctx);
  }

 private:
  void enqueue_down(PartId j, std::uint64_t value, std::int32_t root_depth) {
    for (const EdgeId ce :
         tree_.children_edges[static_cast<std::size_t>(id_)]) {
      if (shortcut_.edge_used_by(ce, j)) {
        queues_[ce].push(make_pending(priority_, seq_++, j, value, root_depth));
      }
    }
  }

  void flush(congest::Context& ctx) {
    bool more = false;
    for (auto& [edge, queue] : queues_) {
      if (queue.empty()) continue;
      const Pending top = queue.top();
      queue.pop();
      ctx.send(edge,
               congest::Message(0, static_cast<std::uint64_t>(top.j),
                                top.value,
                                static_cast<std::uint64_t>(top.root_depth)));
      if (!queue.empty()) more = true;
    }
    if (more) ctx.wake_next_round();
  }

  NodeId id_;
  const SpanningTree& tree_;
  const Shortcut& shortcut_;
  const std::function<std::uint64_t(NodeId, PartId)>& root_value_;
  const std::function<void(NodeId, PartId, std::uint64_t, std::int32_t)>&
      on_receive_;
  RoutingPriority priority_;
  // Ordered by EdgeId: the per-round send order across contested edges.
  std::map<EdgeId, PendingQueue> queues_;
  std::uint64_t seq_ = 0;
};

class ConvergecastProcess final : public congest::Process {
 public:
  ConvergecastProcess(
      NodeId id, const SpanningTree& tree, const Shortcut& shortcut,
      const std::vector<std::vector<std::int32_t>>& root_depth_on_edge,
      const std::function<std::uint64_t(NodeId, PartId)>& contribution,
      const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>&
          combine,
      const std::function<void(NodeId, PartId, std::uint64_t)>& on_root_result,
      RoutingPriority priority)
      : id_(id),
        tree_(tree),
        shortcut_(shortcut),
        root_depth_on_edge_(root_depth_on_edge),
        contribution_(contribution),
        combine_(combine),
        on_root_result_(on_root_result),
        priority_(priority) {}

  void on_start(congest::Context& ctx) override {
    const auto me = static_cast<std::size_t>(id_);
    const EdgeId pe = tree_.parent_edge[me];

    // Gather the component ids this node participates in and the number of
    // child edges carrying each.
    for (const EdgeId ce : tree_.children_edges[me]) {
      for (const PartId j :
           shortcut_.parts_on_edge[static_cast<std::size_t>(ce)])
        ++state_[j].expected;
    }
    if (pe != kNoEdge) {
      const auto& list = shortcut_.parts_on_edge[static_cast<std::size_t>(pe)];
      const auto& depths = root_depth_on_edge_[static_cast<std::size_t>(pe)];
      LCS_CHECK(list.size() == depths.size(),
                "root depths misaligned with shortcut");
      for (std::size_t k = 0; k < list.size(); ++k) {
        auto& st = state_[list[k]];
        st.has_parent = true;
        st.parent_root_depth = depths[k];
      }
    }
    for (auto& [j, st] : state_) st.acc = contribution_(id_, j);

    check_ready();
    flush(ctx);
  }

  void on_round(congest::Context& ctx,
                std::span<const congest::Incoming> inbox) override {
    for (const auto& in : inbox) {
      const auto j = util::checked_cast<PartId>(in.msg.words[0]);
      auto it = state_.find(j);
      LCS_CHECK(it != state_.end(), "convergecast message for unknown id");
      it->second.acc = combine_(it->second.acc, in.msg.words[1]);
      ++it->second.received;
    }
    check_ready();
    flush(ctx);
  }

 private:
  struct CompState {
    int expected = 0;
    int received = 0;
    bool has_parent = false;
    bool dispatched = false;
    std::int32_t parent_root_depth = 0;
    std::uint64_t acc = 0;
  };

  // Walks the components in part order, so simultaneously-ready ones
  // dispatch (and take their kFifo keys) in part order.
  void check_ready() {
    for (auto& [j, st] : state_) {
      if (st.dispatched || st.received < st.expected) continue;
      st.dispatched = true;
      if (st.has_parent) {
        queue_.push(
            make_pending(priority_, seq_++, j, st.acc, st.parent_root_depth));
      } else {
        on_root_result_(id_, j, st.acc);
      }
    }
  }

  void flush(congest::Context& ctx) {
    if (queue_.empty()) return;
    const Pending top = queue_.top();
    queue_.pop();
    ctx.send(tree_.parent_edge[static_cast<std::size_t>(id_)],
             congest::Message(0, static_cast<std::uint64_t>(top.j),
                              top.value));
    if (!queue_.empty()) ctx.wake_next_round();
  }

  NodeId id_;
  const SpanningTree& tree_;
  const Shortcut& shortcut_;
  const std::vector<std::vector<std::int32_t>>& root_depth_on_edge_;
  const std::function<std::uint64_t(NodeId, PartId)>& contribution_;
  const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& combine_;
  const std::function<void(NodeId, PartId, std::uint64_t)>& on_root_result_;
  RoutingPriority priority_;
  std::map<PartId, CompState> state_;
  PendingQueue queue_;
  std::uint64_t seq_ = 0;
};

inline congest::PhaseStats component_broadcast(
    congest::Network& net, const SpanningTree& tree, const Shortcut& shortcut,
    const std::function<std::uint64_t(NodeId, PartId)>& root_value,
    const std::function<void(NodeId, PartId, std::uint64_t, std::int32_t)>&
        on_receive,
    RoutingPriority priority) {
  std::vector<BroadcastProcess> procs;
  procs.reserve(static_cast<std::size_t>(net.num_nodes()));
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    procs.emplace_back(v, tree, shortcut, root_value, on_receive, priority);
  return congest::run_phase(net, procs);
}

inline congest::PhaseStats component_convergecast(
    congest::Network& net, const SpanningTree& tree, const Shortcut& shortcut,
    const std::vector<std::vector<std::int32_t>>& root_depth_on_edge,
    const std::function<std::uint64_t(NodeId, PartId)>& contribution,
    const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& combine,
    const std::function<void(NodeId, PartId, std::uint64_t)>& on_root_result,
    RoutingPriority priority) {
  std::vector<ConvergecastProcess> procs;
  procs.reserve(static_cast<std::size_t>(net.num_nodes()));
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    procs.emplace_back(v, tree, shortcut, root_depth_on_edge, contribution,
                       combine, on_root_result, priority);
  return congest::run_phase(net, procs);
}

}  // namespace lcs::reference
