/// \file process.h
/// Per-node state machines — the programming model of the simulator.
///
/// A distributed algorithm is a `Process` subclass instantiated once per
/// node (or one object serving every node through `ctx.id()`, see
/// `run_phase_shared`). The engine invokes `on_start` before round 0 and
/// `on_round` whenever the node has incoming messages or requested a
/// wakeup. A node that neither receives nor requests wakeups sleeps for
/// free (the engine is activity-driven), but simulated time still advances
/// globally.
///
/// Faithfulness contract: a process may only consult
///   * its own node id and its incident edges (`Context::neighbors`),
///   * the global bound `num_nodes()` (CONGEST nodes know a poly bound on n),
///   * its own state, including state persisted from earlier phases,
///   * the messages it receives.
/// State persisted between phases lives in per-node arrays (see `PerNode`);
/// by convention, the process for node v reads only index v.
#pragma once

#include <span>
#include <vector>

#include "congest/message.h"
#include "graph/graph.h"

namespace lcs::congest {

class Network;
struct SendLane;

/// Per-node state carried between phases. Convention: the process for node
/// v only touches element v; the array is merely centralized storage for
/// what each node keeps locally.
template <class T>
using PerNode = std::vector<T>;

/// Handle through which a process interacts with the network in a round.
class Context {
 public:
  NodeId id() const { return id_; }
  /// Number of nodes in the network (nodes know a polynomial bound on n;
  /// we give them the exact value, which is the standard assumption).
  NodeId num_nodes() const { return num_nodes_; }
  /// Current round (0 = the round right after on_start).
  std::int64_t round() const { return round_; }
  /// Incident edges of this node.
  std::span<const Graph::Neighbor> neighbors() const { return neighbors_; }

  /// Send `m` over incident edge `e`. At most one send per edge per round
  /// (checked when the network's validate mode is on). The message is
  /// delivered at the start of the next round. Defined inline in
  /// network.h so the per-message path inlines into process code.
  void send(EdgeId e, const Message& m);

  /// Ensure on_round is invoked next round even without incoming messages.
  /// Defined inline in network.h.
  void wake_next_round();

 private:
  friend class Network;
  Context(Network& net, NodeId id, NodeId num_nodes, std::int64_t round,
          std::span<const Graph::Neighbor> neighbors,
          SendLane* lane = nullptr)
      : net_(net),
        id_(id),
        num_nodes_(num_nodes),
        round_(round),
        neighbors_(neighbors),
        lane_(lane) {}

  Network& net_;
  NodeId id_;
  NodeId num_nodes_;
  std::int64_t round_;
  std::span<const Graph::Neighbor> neighbors_;
  /// Worker-private send lane in parallel mode; nullptr on the sequential
  /// engine path (see network.h).
  SendLane* lane_;
};

class Process {
 public:
  virtual ~Process() = default;

  /// Called once before the first round; may send and request wakeups.
  virtual void on_start(Context& /*ctx*/) {}

  /// Called in every round where this node has incoming messages or asked
  /// to be woken. `inbox` holds the messages sent to this node in the
  /// previous round.
  virtual void on_round(Context& ctx, std::span<const Incoming> inbox) = 0;
};

}  // namespace lcs::congest
