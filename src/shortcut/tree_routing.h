/// \file tree_routing.h
/// Pipelined routing on families of subtrees — the paper's Lemma 2.
///
/// Setting: a rooted spanning tree `T` of depth `D` and a family of subtrees
/// such that every tree edge lies in at most `c` subtrees. In our encoding a
/// subtree is a *block component*: a maximal connected set of tree edges
/// carrying the same part id (`Shortcut::parts_on_edge`). Lemma 2 says a
/// convergecast or broadcast on *all* subtrees in parallel finishes in
/// `O(D + c)` rounds when messages over a contested edge are prioritized by
/// (depth of the subtree root, subtree id).
///
/// Two one-phase engines are provided:
///  * `run_component_broadcast` — each component root injects one word; it
///    is delivered to every node of the component. Messages carry the root
///    depth, so the Lemma 2 priority is available on arrival (this is also
///    how the per-edge root depths of the "distributed representation" are
///    computed in the first place).
///  * `run_component_convergecast` — every node of a component contributes
///    one word; an associative, commutative combiner folds them toward the
///    component root. Upward priorities use per-edge root depths that must
///    have been computed beforehand (see representation.h).
///
/// ## The compiled routing plan
///
/// Both engines run over a `RoutingPlan`: each node's share of the block
/// components, compiled once per shortcut into flat offset-indexed (CSR)
/// arrays. It is CONGEST-faithful and costs zero rounds, because every
/// entry derives from what the node already holds after the Section 4.1
/// representation phase — the part lists on its incident tree edges and
/// the root depth of each component on its parent edge. Node v's entries,
/// its rooted components and its child slots are v's local knowledge laid
/// out in one array instead of recomputed per phase.
///
/// Reuse contract: a plan is immutable once built (compiled, root depths
/// attached), so any number of phases (and threads) may read it. The
/// mutable per-phase state lives in a caller-owned `RoutingScratch` whose
/// arrays are split per node: node v's callbacks write only v's entries,
/// v's heap and v's child slots, so rounds that run different nodes on
/// different workers never share a written element. Each phase resets a
/// node's regions in its `on_start`, so nothing leaks between phases, and
/// a scratch keeps its capacity; a superstep loop owns one for all of its
/// phases.
///
/// Nodes only consult local data: their plan entries, the per-edge
/// priorities, and callbacks that read/write their own node's slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/shortcut.h"
#include "tree/spanning_tree.h"

namespace lcs {

/// How contested edges order their pending messages (Lemma 2 uses
/// kRootDepth; the alternatives exist for the ablation bench A3).
enum class RoutingPriority {
  kRootDepth,  ///< (subtree-root depth, part id) — the paper's rule
  kPartId,     ///< (part id) only
  kFifo,       ///< arrival order
};

/// Per-node block-component layout of one shortcut on one tree. Every
/// `*_begin` array is a CSR offset table: the range of node (or entry, or
/// slot) x is `[begin[x], begin[x + 1])`.
struct RoutingPlan {
  /// Node v takes part in a component of `part` because the part rides v's
  /// parent edge, one of its child edges, or both.
  struct Entry {
    PartId part = kNoPart;
    /// The part rides v's parent edge: v forwards the convergecast upward
    /// instead of closing the component.
    bool has_parent = false;
    /// Depth of the component's root (the Lemma 2 priority on the parent
    /// edge); meaningful when has_parent and root depths are attached.
    std::int32_t parent_root_depth = 0;
  };

  /// Per node: its entries, ascending by part.
  std::vector<std::size_t> entry_begin;
  std::vector<Entry> entries;
  /// Per entry: the child slots whose edge carries the part, ascending.
  /// The count is how many child messages the convergecast waits for.
  std::vector<std::size_t> entry_child_begin;
  std::vector<std::size_t> entry_child;
  /// Per node: the entries whose component it roots (the part rides a child
  /// edge but not the parent edge), ascending by part.
  std::vector<std::size_t> rooted_begin;
  std::vector<std::size_t> rooted;
  /// Per node: its child edges ("child slots"), ascending by edge id.
  std::vector<std::size_t> slot_begin;
  std::vector<EdgeId> slot_edge;
  /// Per child slot: its region of the broadcast queue storage, one element
  /// per part on the edge (each part crosses the edge at most once).
  std::vector<std::size_t> slot_queue_begin;

  /// Number of child messages entry `e` waits for.
  std::size_t expected(std::size_t e) const {
    return entry_child_begin[e + 1] - entry_child_begin[e];
  }
  /// Index of node v's entry for part j (checked to exist).
  std::size_t find_entry(NodeId v, PartId j) const;
};

/// Compile the plan of `shortcut` on `tree` (local, zero rounds). Parent
/// root depths are left 0 until `attach_root_depths` supplies them, which
/// only convergecasts need.
RoutingPlan compile_routing_plan(const SpanningTree& tree,
                                 const Shortcut& shortcut);

/// Record each entry's parent-edge root depth. `root_depth_on_edge` must
/// align element-wise with `shortcut.parts_on_edge` (see representation.h).
void attach_root_depths(
    RoutingPlan& plan, const SpanningTree& tree, const Shortcut& shortcut,
    const std::vector<std::vector<std::int32_t>>& root_depth_on_edge);

/// Working memory of the routing phases, sized from a plan and split per
/// node (see the reuse contract above). Its contents belong to
/// tree_routing.cpp; callers only own it across phases.
struct RoutingScratch {
  /// One queued message with its scheduling key.
  struct Pending {
    std::uint64_t key1 = 0;  ///< primary priority (smaller first)
    std::uint64_t key2 = 0;  ///< tie-break
    std::uint64_t seq = 0;   ///< FIFO tie-break / kFifo key
    PartId j = kNoPart;
    std::uint64_t value = 0;
    std::int32_t root_depth = 0;

    bool operator>(const Pending& o) const {
      if (key1 != o.key1) return key1 > o.key1;
      if (key2 != o.key2) return key2 > o.key2;
      return seq > o.seq;
    }
  };

  /// Per entry: convergecast accumulator, child messages received, and the
  /// node's newly-ready list (in the node's own entry range).
  std::vector<std::uint64_t> acc;
  std::vector<std::size_t> received;
  std::vector<std::size_t> ready;
  /// Per node: convergecast heap (in the node's entry range) and its size.
  std::vector<Pending> node_queue;
  std::vector<std::size_t> node_queue_size;
  /// Per child slot: broadcast heap (in the slot's queue region) and size.
  std::vector<Pending> slot_queue;
  std::vector<std::size_t> slot_queue_size;
  /// Per node: the next scheduling sequence number.
  std::vector<std::uint64_t> seq;

  /// Size every array for `plan`; keeps capacity, so refitting to the same
  /// plan allocates nothing.
  void fit(const RoutingPlan& plan);
};

/// Broadcast one word from every block-component root to all nodes of that
/// component.
///
/// `root_value(v, j)` is invoked once per component rooted at node `v` with
/// part id `j` and returns the word to broadcast. `on_receive(v, j, value,
/// root_depth)` fires at every node of the component, including the root
/// itself. Returns the phase stats (rounds, messages).
congest::PhaseStats run_component_broadcast(
    congest::Network& net, const SpanningTree& tree, const RoutingPlan& plan,
    RoutingScratch& scratch,
    const std::function<std::uint64_t(NodeId root, PartId j)>& root_value,
    const std::function<void(NodeId v, PartId j, std::uint64_t value,
                             std::int32_t root_depth)>& on_receive,
    RoutingPriority priority = RoutingPriority::kRootDepth);

/// Convergecast one word from every node of each block component to the
/// component root.
///
/// `contribution(v, j)` is invoked once per node per incident component and
/// returns the word that node feeds in. `combine` must be associative and
/// commutative. `on_root_result(v, j, agg)` fires at each component root;
/// components that become ready at a node in the same round close in part
/// order. `plan` must carry root depths (`attach_root_depths`).
congest::PhaseStats run_component_convergecast(
    congest::Network& net, const SpanningTree& tree, const RoutingPlan& plan,
    RoutingScratch& scratch,
    const std::function<std::uint64_t(NodeId v, PartId j)>& contribution,
    const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& combine,
    const std::function<void(NodeId root, PartId j, std::uint64_t agg)>&
        on_root_result,
    RoutingPriority priority = RoutingPriority::kRootDepth);

/// One-shot broadcast: compiles a plan for `shortcut` and runs on fresh
/// scratch. For single phases; loops should compile once and reuse.
congest::PhaseStats run_component_broadcast(
    congest::Network& net, const SpanningTree& tree, const Shortcut& shortcut,
    const std::function<std::uint64_t(NodeId root, PartId j)>& root_value,
    const std::function<void(NodeId v, PartId j, std::uint64_t value,
                             std::int32_t root_depth)>& on_receive,
    RoutingPriority priority = RoutingPriority::kRootDepth);

/// One-shot convergecast: compiles a plan for `shortcut` with
/// `root_depth_on_edge` attached and runs on fresh scratch.
congest::PhaseStats run_component_convergecast(
    congest::Network& net, const SpanningTree& tree, const Shortcut& shortcut,
    const std::vector<std::vector<std::int32_t>>& root_depth_on_edge,
    const std::function<std::uint64_t(NodeId v, PartId j)>& contribution,
    const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& combine,
    const std::function<void(NodeId root, PartId j, std::uint64_t agg)>&
        on_root_result,
    RoutingPriority priority = RoutingPriority::kRootDepth);

}  // namespace lcs
