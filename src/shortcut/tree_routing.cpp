#include "shortcut/tree_routing.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/network.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/shortcut.h"
#include "tree/spanning_tree.h"
#include "util/cast.h"
#include "util/check.h"

namespace lcs {

std::size_t RoutingPlan::find_entry(NodeId v, PartId j) const {
  const auto vi = static_cast<std::size_t>(v);
  const Entry* first = entries.data() + entry_begin[vi];
  const Entry* last = entries.data() + entry_begin[vi + 1];
  const Entry* it =
      std::lower_bound(first, last, j, [](const Entry& e, PartId part) {
        return e.part < part;
      });
  LCS_CHECK(it != last && it->part == j, "routing message for unknown part");
  return static_cast<std::size_t>(it - entries.data());
}

RoutingPlan compile_routing_plan(const SpanningTree& tree,
                                 const Shortcut& shortcut) {
  const std::size_t n = tree.depth.size();
  RoutingPlan plan;
  plan.entry_begin.reserve(n + 1);
  plan.rooted_begin.reserve(n + 1);
  plan.slot_begin.reserve(n + 1);
  plan.entry_begin.push_back(0);
  plan.entry_child_begin.push_back(0);
  plan.rooted_begin.push_back(0);
  plan.slot_begin.push_back(0);
  plan.slot_queue_begin.push_back(0);

  const std::vector<PartId> no_parts;
  std::vector<std::pair<PartId, std::size_t>> carried;  // (part, child slot)
  for (std::size_t v = 0; v < n; ++v) {
    // Child slots, ascending by edge id, and the parts each one carries.
    const std::size_t first_slot = plan.slot_edge.size();
    plan.slot_edge.insert(plan.slot_edge.end(), tree.children_edges[v].begin(),
                          tree.children_edges[v].end());
    std::sort(plan.slot_edge.begin() + static_cast<std::ptrdiff_t>(first_slot),
              plan.slot_edge.end());
    carried.clear();
    for (std::size_t s = first_slot; s < plan.slot_edge.size(); ++s) {
      const auto& parts =
          shortcut.parts_on_edge[static_cast<std::size_t>(plan.slot_edge[s])];
      plan.slot_queue_begin.push_back(plan.slot_queue_begin.back() +
                                      parts.size());
      for (const PartId j : parts) carried.emplace_back(j, s);
    }
    std::sort(carried.begin(), carried.end());
    plan.slot_begin.push_back(plan.slot_edge.size());

    // Merge the parent edge's (sorted) parts with the child-carried ones:
    // one entry per distinct part, child slots ascending.
    const EdgeId pe = tree.parent_edge[v];
    const auto& up =
        pe == kNoEdge ? no_parts
                      : shortcut.parts_on_edge[static_cast<std::size_t>(pe)];
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < up.size() || b < carried.size()) {
      RoutingPlan::Entry entry;
      entry.part = a == up.size()         ? carried[b].first
                   : b == carried.size()  ? up[a]
                                          : std::min(up[a], carried[b].first);
      entry.has_parent = a < up.size() && up[a] == entry.part;
      if (entry.has_parent) ++a;
      for (; b < carried.size() && carried[b].first == entry.part; ++b)
        plan.entry_child.push_back(carried[b].second);
      if (!entry.has_parent) plan.rooted.push_back(plan.entries.size());
      plan.entries.push_back(entry);
      plan.entry_child_begin.push_back(plan.entry_child.size());
    }
    plan.entry_begin.push_back(plan.entries.size());
    plan.rooted_begin.push_back(plan.rooted.size());
  }
  return plan;
}

void attach_root_depths(
    RoutingPlan& plan, const SpanningTree& tree, const Shortcut& shortcut,
    const std::vector<std::vector<std::int32_t>>& root_depth_on_edge) {
  for (std::size_t v = 0; v + 1 < plan.entry_begin.size(); ++v) {
    const EdgeId pe = tree.parent_edge[v];
    if (pe == kNoEdge) continue;
    const auto& depths = root_depth_on_edge[static_cast<std::size_t>(pe)];
    LCS_CHECK(shortcut.parts_on_edge[static_cast<std::size_t>(pe)].size() ==
                  depths.size(),
              "root depths misaligned with shortcut");
    // v's parent entries are exactly the parent edge's parts, in order.
    std::size_t k = 0;
    for (std::size_t e = plan.entry_begin[v]; e < plan.entry_begin[v + 1]; ++e)
      if (plan.entries[e].has_parent)
        plan.entries[e].parent_root_depth = depths[k++];
  }
}

void RoutingScratch::fit(const RoutingPlan& plan) {
  const std::size_t n = plan.entry_begin.size() - 1;
  const std::size_t num_entries = plan.entries.size();
  acc.resize(num_entries);
  received.resize(num_entries);
  ready.resize(num_entries);
  node_queue.resize(num_entries);
  node_queue_size.resize(n);
  slot_queue.resize(plan.slot_queue_begin.back());
  slot_queue_size.resize(plan.slot_edge.size());
  seq.resize(n);
}

namespace {

using congest::Context;
using congest::Incoming;
using congest::Message;
using Pending = RoutingScratch::Pending;

Pending make_pending(RoutingPriority priority, std::uint64_t seq, PartId j,
                     std::uint64_t value, std::int32_t root_depth) {
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

/// Min-heap over a fixed region `heap[0, capacity)` of scratch storage.
void heap_push(Pending* heap, std::size_t& size, std::size_t capacity,
               const Pending& p) {
  LCS_CHECK(size < capacity, "routing queue region overflow");
  heap[size++] = p;
  std::push_heap(heap, heap + size, std::greater<>());
}

Pending heap_pop(Pending* heap, std::size_t& size) {
  std::pop_heap(heap, heap + size, std::greater<>());
  return heap[--size];
}

// Each phase is one Process object serving every node: node v's state is
// v's regions of the plan and scratch, found through ctx.id().

void check_plan_fits(const congest::Network& net, const RoutingPlan& plan) {
  LCS_CHECK(plan.entry_begin.size() ==
                static_cast<std::size_t>(net.num_nodes()) + 1,
            "routing plan was compiled for another network");
}

// ---------------------------------------------------------------------------
// Broadcast (root -> component)
// ---------------------------------------------------------------------------

class BroadcastPhase final : public congest::Process {
 public:
  BroadcastPhase(
      const SpanningTree& tree, const RoutingPlan& plan,
      RoutingScratch& scratch,
      const std::function<std::uint64_t(NodeId, PartId)>& root_value,
      const std::function<void(NodeId, PartId, std::uint64_t, std::int32_t)>&
          on_receive,
      RoutingPriority priority)
      : tree_(tree),
        plan_(plan),
        s_(scratch),
        root_value_(root_value),
        on_receive_(on_receive),
        priority_(priority) {}

  void on_start(Context& ctx) override {
    const NodeId v = ctx.id();
    const auto vi = static_cast<std::size_t>(v);
    s_.seq[vi] = 0;
    for (std::size_t s = plan_.slot_begin[vi]; s < plan_.slot_begin[vi + 1];
         ++s)
      s_.slot_queue_size[s] = 0;
    const std::int32_t my_depth = tree_.depth[vi];
    for (std::size_t r = plan_.rooted_begin[vi]; r < plan_.rooted_begin[vi + 1];
         ++r) {
      const std::size_t e = plan_.rooted[r];
      const PartId j = plan_.entries[e].part;
      const std::uint64_t value = root_value_(v, j);
      on_receive_(v, j, value, my_depth);
      enqueue_down(vi, e, value, my_depth);
    }
    flush(ctx);
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    const NodeId v = ctx.id();
    for (const auto& in : inbox) {
      const auto j = util::checked_cast<PartId>(in.msg.words[0]);
      const std::uint64_t value = in.msg.words[1];
      const auto rd = util::checked_cast<std::int32_t>(in.msg.words[2]);
      on_receive_(v, j, value, rd);
      enqueue_down(static_cast<std::size_t>(v), plan_.find_entry(v, j), value,
                   rd);
    }
    flush(ctx);
  }

 private:
  void enqueue_down(std::size_t v, std::size_t e, std::uint64_t value,
                    std::int32_t root_depth) {
    const PartId j = plan_.entries[e].part;
    for (std::size_t c = plan_.entry_child_begin[e];
         c < plan_.entry_child_begin[e + 1]; ++c) {
      const std::size_t s = plan_.entry_child[c];
      const std::size_t base = plan_.slot_queue_begin[s];
      heap_push(s_.slot_queue.data() + base, s_.slot_queue_size[s],
                plan_.slot_queue_begin[s + 1] - base,
                make_pending(priority_, s_.seq[v]++, j, value, root_depth));
    }
  }

  // One message per child slot per round, slots in edge-id order.
  void flush(Context& ctx) {
    const auto v = static_cast<std::size_t>(ctx.id());
    bool more = false;
    for (std::size_t s = plan_.slot_begin[v]; s < plan_.slot_begin[v + 1];
         ++s) {
      std::size_t& size = s_.slot_queue_size[s];
      if (size == 0) continue;
      const Pending top =
          heap_pop(s_.slot_queue.data() + plan_.slot_queue_begin[s], size);
      ctx.send(plan_.slot_edge[s],
               Message(0, static_cast<std::uint64_t>(top.j), top.value,
                       static_cast<std::uint64_t>(top.root_depth)));
      if (size > 0) more = true;
    }
    if (more) ctx.wake_next_round();
  }

  const SpanningTree& tree_;
  const RoutingPlan& plan_;
  RoutingScratch& s_;
  const std::function<std::uint64_t(NodeId, PartId)>& root_value_;
  const std::function<void(NodeId, PartId, std::uint64_t, std::int32_t)>&
      on_receive_;
  RoutingPriority priority_;
};

// ---------------------------------------------------------------------------
// Convergecast (component -> root)
// ---------------------------------------------------------------------------

class ConvergecastPhase final : public congest::Process {
 public:
  ConvergecastPhase(
      const SpanningTree& tree, const RoutingPlan& plan,
      RoutingScratch& scratch,
      const std::function<std::uint64_t(NodeId, PartId)>& contribution,
      const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>&
          combine,
      const std::function<void(NodeId, PartId, std::uint64_t)>& on_root_result,
      RoutingPriority priority)
      : tree_(tree),
        plan_(plan),
        s_(scratch),
        contribution_(contribution),
        combine_(combine),
        on_root_result_(on_root_result),
        priority_(priority) {}

  void on_start(Context& ctx) override {
    const NodeId v = ctx.id();
    const auto vi = static_cast<std::size_t>(v);
    s_.seq[vi] = 0;
    s_.node_queue_size[vi] = 0;
    // Leaves of a component (no child edge carries the part) are ready at
    // once; in entry order, which is part order.
    for (std::size_t e = plan_.entry_begin[vi]; e < plan_.entry_begin[vi + 1];
         ++e) {
      s_.acc[e] = contribution_(v, plan_.entries[e].part);
      s_.received[e] = 0;
      if (plan_.expected(e) == 0) dispatch(v, e);
    }
    flush(ctx);
  }

  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    const NodeId v = ctx.id();
    // Entries completed by this round's messages collect in v's own range
    // of `ready`, then dispatch in part order (the kFifo contract).
    std::size_t* ready =
        s_.ready.data() + plan_.entry_begin[static_cast<std::size_t>(v)];
    std::size_t num_ready = 0;
    for (const auto& in : inbox) {
      const std::size_t e =
          plan_.find_entry(v, util::checked_cast<PartId>(in.msg.words[0]));
      s_.acc[e] = combine_(s_.acc[e], in.msg.words[1]);
      if (++s_.received[e] == plan_.expected(e)) ready[num_ready++] = e;
    }
    std::sort(ready, ready + num_ready);
    for (std::size_t i = 0; i < num_ready; ++i) dispatch(v, ready[i]);
    flush(ctx);
  }

 private:
  void dispatch(NodeId v, std::size_t e) {
    const RoutingPlan::Entry& entry = plan_.entries[e];
    if (!entry.has_parent) {
      on_root_result_(v, entry.part, s_.acc[e]);
      return;
    }
    const auto vi = static_cast<std::size_t>(v);
    const std::size_t base = plan_.entry_begin[vi];
    heap_push(s_.node_queue.data() + base, s_.node_queue_size[vi],
              plan_.entry_begin[vi + 1] - base,
              make_pending(priority_, s_.seq[vi]++, entry.part, s_.acc[e],
                           entry.parent_root_depth));
  }

  void flush(Context& ctx) {
    const auto v = static_cast<std::size_t>(ctx.id());
    std::size_t& size = s_.node_queue_size[v];
    if (size == 0) return;
    const Pending top =
        heap_pop(s_.node_queue.data() + plan_.entry_begin[v], size);
    ctx.send(tree_.parent_edge[v],
             Message(0, static_cast<std::uint64_t>(top.j), top.value));
    if (size > 0) ctx.wake_next_round();
  }

  const SpanningTree& tree_;
  const RoutingPlan& plan_;
  RoutingScratch& s_;
  const std::function<std::uint64_t(NodeId, PartId)>& contribution_;
  const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& combine_;
  const std::function<void(NodeId, PartId, std::uint64_t)>& on_root_result_;
  RoutingPriority priority_;
};

}  // namespace

congest::PhaseStats run_component_broadcast(
    congest::Network& net, const SpanningTree& tree, const RoutingPlan& plan,
    RoutingScratch& scratch,
    const std::function<std::uint64_t(NodeId, PartId)>& root_value,
    const std::function<void(NodeId, PartId, std::uint64_t, std::int32_t)>&
        on_receive,
    RoutingPriority priority) {
  check_plan_fits(net, plan);
  scratch.fit(plan);
  BroadcastPhase phase(tree, plan, scratch, root_value, on_receive, priority);
  return congest::run_phase_shared(net, phase);
}

congest::PhaseStats run_component_convergecast(
    congest::Network& net, const SpanningTree& tree, const RoutingPlan& plan,
    RoutingScratch& scratch,
    const std::function<std::uint64_t(NodeId, PartId)>& contribution,
    const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& combine,
    const std::function<void(NodeId, PartId, std::uint64_t)>& on_root_result,
    RoutingPriority priority) {
  check_plan_fits(net, plan);
  scratch.fit(plan);
  ConvergecastPhase phase(tree, plan, scratch, contribution, combine,
                          on_root_result, priority);
  return congest::run_phase_shared(net, phase);
}

congest::PhaseStats run_component_broadcast(
    congest::Network& net, const SpanningTree& tree, const Shortcut& shortcut,
    const std::function<std::uint64_t(NodeId, PartId)>& root_value,
    const std::function<void(NodeId, PartId, std::uint64_t, std::int32_t)>&
        on_receive,
    RoutingPriority priority) {
  const RoutingPlan plan = compile_routing_plan(tree, shortcut);
  RoutingScratch scratch;
  return run_component_broadcast(net, tree, plan, scratch, root_value,
                                 on_receive, priority);
}

congest::PhaseStats run_component_convergecast(
    congest::Network& net, const SpanningTree& tree, const Shortcut& shortcut,
    const std::vector<std::vector<std::int32_t>>& root_depth_on_edge,
    const std::function<std::uint64_t(NodeId, PartId)>& contribution,
    const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& combine,
    const std::function<void(NodeId, PartId, std::uint64_t)>& on_root_result,
    RoutingPriority priority) {
  RoutingPlan plan = compile_routing_plan(tree, shortcut);
  attach_root_depths(plan, tree, shortcut, root_depth_on_edge);
  RoutingScratch scratch;
  return run_component_convergecast(net, tree, plan, scratch, contribution,
                                    combine, on_root_result, priority);
}

}  // namespace lcs
