/// \file network.h
/// The synchronous CONGEST engine.
///
/// `Network` executes *phases*: a phase instantiates one `Process` per node
/// and runs synchronous rounds until the system is quiescent (no messages in
/// flight, no wakeups pending) or a round limit trips. Rounds and messages
/// are accounted exactly; coordination costs that a real deployment would
/// pay but that the simulator performs centrally (e.g. the O(D) termination
/// echo after a quiescent phase, or broadcasting a shared random seed) are
/// charged explicitly through `charge()` with a label, so every round in
/// `total_rounds()` is justified.
///
/// The engine is activity-driven: per round it touches only nodes that
/// received a message or requested a wakeup, so simulation work is
/// proportional to the total message count, not rounds × nodes.
///
/// ## Engine internals (send lanes, slab inboxes, epoch stamps)
///
/// The hot path is allocation-free in the steady state and touches O(active
/// + messages) memory per round:
///
///  * **Send lanes.** A send appends one `Incoming` (plus its destination)
///    to the sender's `SendLane`, in the bucket of the destination's
///    *range* (a wakeup appends the node to its own range's bucket) — the
///    node-id space is split into at most `threads()`
///    power-of-two-aligned ranges, so `range_of` is one shift. A bucket's
///    contents are that lane's sends into that range in send order, and its
///    size is a ready-made per-lane per-range message count. Capacities
///    persist across rounds and phases: no per-message or per-node heap
///    allocation.
///
///  * **Slab inboxes.** At round promotion the lanes are counting-scattered
///    into one *ordered* slab, destination-major in ascending node order
///    and send-ordered within each destination, so every inbox a process
///    sees is a contiguous slab range: the public API stays
///    `std::span<const Incoming>` with zero per-message copies at delivery,
///    the whole round's delivery is one pass over the ordered slab, and
///    per-node delivery order matches the historical vector-of-vectors
///    engine bit for bit.
///
///  * **Epoch-stamped resets.** A global monotone `tick_` advances once per
///    phase start and once per round. Membership tests that would need
///    O(n) or O(m) resets per phase — "is v already in next round's active
///    list", "how many messages does v have in the round being filled",
///    "did this directed edge already carry a send this round" — are all
///    `stamp[x] == tick_`, so nothing is ever cleared and `run` startup is
///    O(active) apart from the `on_start` pass itself.
///
///  * **O(active) scheduling.** The active list is ordered ascending by node
///    id each round (the engine's determinism contract) with an LSD radix
///    sort over the id bytes (insertion sort below a small cutoff), so
///    scheduling costs O(active) per round instead of O(active log active).
///
/// ## One round pipeline
///
/// Every round runs the same three steps, and the `on_start` pass before
/// round 0 runs the last two:
///
///  1. **Promote, per destination range r.** Sort range r's segment of the
///     active list, build its inbox spans and write cursors from the
///     range's exclusive slab offset (a prefix sum of the bucket sizes),
///     then scatter bucket r of every lane, in lane order, into the range's
///     disjoint slice of the ordered slab.
///  2. **Deliver, per shard w.** The sorted active list is cut into
///     contiguous shards (balanced by inbox size plus a constant per
///     activation); shard w's callbacks send into lane w.
///  3. **Merge, per destination range r.** Replay bucket r of every lane in
///     lane order — since shards are ascending and contiguous, that is the
///     whole round's send order restricted to range r — stamping next-round
///     nodes, counting each node's messages, and running the
///     one-send-per-directed-edge check (a directed edge determines its
///     destination, hence its range, so each stamp cell has one writer).
///     The per-range next-active lists are then concatenated range-major,
///     which leaves the next active list pre-partitioned for step 1.
///
/// ## Two executors (`set_threads`, `set_parallel_round_threshold`)
///
/// A `Network` always owns `threads()` send lanes, the matching range
/// layout and a `WorkerPool` of that size. The per-range and per-shard
/// bodies above run either on the pool (worker w takes range w or shard w;
/// promotion is one job, delivery and merge one job with a barrier between
/// them) or in a loop on the calling thread (over a single shard).
/// Fork-join costs a few microseconds per round, which dominates tiny
/// rounds, so a round whose pending messages + active nodes fall below
/// `parallel_round_threshold()` — and an `on_start` pass over fewer nodes
/// than that — runs in the loop; larger ones run on the pool. The default
/// (`kDefaultParallelRoundThreshold`) is calibrated so the loop covers every
/// round whose cost is within ~2x of the measured fork-join overhead;
/// `set_parallel_round_threshold(0)` puts every round on the pool (the
/// determinism tests and goldens use that to pin the pool executor on small
/// graphs). At `threads() == 1` the pool has size one and runs its job as a
/// plain call, so both executors are the same loop.
///
/// **Determinism contract:** for any protocol that obeys the faithfulness
/// rules in process.h (each process touches only its own node's state),
/// every observable is bit-identical at every thread count and every
/// threshold: inbox contents and per-node delivery order, node processing
/// order, `PhaseStats`, `total_rounds` / `total_messages`, charged labels,
/// and validation diagnostics. The executor changes only which thread a
/// callback runs on — so process code must be race-free across *different*
/// nodes (the faithfulness contract already requires that; a process that
/// mutates state shared between nodes is outside the CONGEST model).
///
/// `set_threads(1)` is the default; `set_threads(0)` resolves to the
/// hardware concurrency. The thread count may be changed between phases at
/// will, but never from inside a running phase (e.g. from a process
/// callback) — that would resize the engine's live round state and is
/// diagnosed with `LCS_CHECK`.
///
/// ## Validation mode
///
/// `set_validate()` toggles the CONGEST faithfulness checks: that the
/// sender is an endpoint of the edge it sends over (checked in the send
/// path), and that each directed edge carries at most one message per
/// round (checked in the merge). Validation is **on by default** (and in
/// all tests); benchmarks turn it off to measure raw engine throughput.
/// With validation off the checks are skipped entirely — behavior,
/// delivery order, and all round/message accounting are unchanged for
/// protocols that obey the model, but a violating protocol is no longer
/// diagnosed.
///
/// ## Engine limits
///
/// A single round carries at most 2^31 - 1 messages, and consequently a
/// single node receives at most 2^31 - 1 messages per round (inbox spans
/// and per-node counts are 32-bit by design — see `NodeState`). Exceeding
/// the limit is diagnosed with a clear `CheckFailure` ("engine limit"), in
/// the merge for a single hot destination and at round promotion for the
/// round total, never silent wraparound. At ~48 bytes per pending message
/// the limit corresponds to ~100 GB of lanes, so real workloads hit memory
/// long before the diagnostic.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "util/cast.h"
#include "util/worker_pool.h"

namespace lcs::congest {

/// One destination range's slice of a lane's sends: payloads in `fill`,
/// destinations in the parallel `fill_to` (send order), wakeups in `wakes`
/// (duplicates allowed — the merge dedupes via the epoch stamps).
struct LaneBucket {
  std::vector<Incoming> fill;
  std::vector<NodeId> fill_to;
  std::vector<NodeId> wakes;

  void clear() {
    fill.clear();
    fill_to.clear();
    wakes.clear();
  }
};

/// One delivery shard's private send-side state, bucketed by destination
/// range (`Network::range_of`): bucket sizes double as the per-lane
/// per-range counts that drive the merge and the scatter. Capacities
/// persist across rounds and phases. Over-aligned so adjacent lanes'
/// headers never share a cache line.
struct alignas(128) SendLane {
  std::vector<LaneBucket> buckets;  // one per destination range

  void clear() {
    for (LaneBucket& b : buckets) b.clear();
  }
};

/// Round/message counts for one phase.
struct PhaseStats {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
};

/// Flat label → rounds accounting for `Network::charge`. A sorted
/// vector of (label, rounds) pairs: the handful of distinct labels a run
/// produces makes a tree map pure overhead. Iteration yields pairs in
/// lexicographic label order (as `std::map` did).
class ChargeTable {
 public:
  using Entry = std::pair<std::string, std::int64_t>;
  using const_iterator = std::vector<Entry>::const_iterator;

  /// Rounds charged under `label`; fails if the label was never charged.
  std::int64_t at(std::string_view label) const;

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

 private:
  friend class Network;
  void add(std::string_view label, std::int64_t rounds);
  void clear() { entries_.clear(); }

  std::vector<Entry> entries_;  // sorted by label
};

class Network {
 public:
  /// Default per-phase round limit; a phase exceeding it is a bug
  /// (non-quiescing protocol) and fails loudly.
  static constexpr std::int64_t kDefaultMaxRounds = 50'000'000;

  explicit Network(const Graph& graph);

  const Graph& graph() const { return *graph_; }
  NodeId num_nodes() const { return graph_->num_nodes(); }

  /// Run one phase over the given per-node processes (`procs[v]` is node
  /// v's process; size must equal num_nodes). Returns this phase's stats
  /// and adds them to the running totals.
  PhaseStats run(std::span<Process* const> procs,
                 std::int64_t max_rounds = kDefaultMaxRounds);

  /// Toggle the CONGEST faithfulness checks (incident-edge and
  /// one-send-per-directed-edge-per-round) in the send path. On by
  /// default; benchmarks turn it off. See the header comment.
  void set_validate(bool on) { validate_ = on; }
  bool validate() const { return validate_; }

  /// Number of worker threads that execute process callbacks and run
  /// round promotion: the size of the worker pool, the number of send
  /// lanes, and the bound on the number of destination ranges. 1 is the
  /// default; 0 resolves to the hardware concurrency. Bit-identical
  /// observables at every thread count — see "Two executors" in the header
  /// comment. May be called between phases at any time, but never from
  /// inside a running phase (diagnosed with LCS_CHECK): it resizes the
  /// lanes and range structures a live round is using.
  void set_threads(int threads);
  /// The resolved thread count (never 0).
  int threads() const { return threads_; }

  /// Default `parallel_round_threshold()`: rounds whose pending messages +
  /// active nodes fall below this run on the calling thread instead of the
  /// pool. Calibrated on the E10 grid-flood bench (see bench_e10_network):
  /// ~2x the round size where one round's single-thread cost equals the
  /// measured per-round fork-join overhead, so tiny rounds never pay the
  /// dispatch and message-heavy rounds keep the pool.
  static constexpr std::int64_t kDefaultParallelRoundThreshold = 2048;

  /// Override the executor threshold (0 puts every round on the pool; the
  /// determinism tests use that to pin the pool executor on small graphs).
  /// Observables are identical at any value.
  /// Like set_threads, must not be called from inside a running phase.
  void set_parallel_round_threshold(std::int64_t work);
  std::int64_t parallel_round_threshold() const {
    return parallel_threshold_;
  }

  /// Account `rounds` additional rounds of explicitly-charged coordination.
  /// Labels are aggregated for reporting. Conventional labels:
  ///   "seed-broadcast" — flooding a shared random seed from the root;
  ///   "termination"    — the O(D) convergecast echo that detects
  ///                      quiescence, which the simulator observes for free.
  /// New call sites should reuse these or add a short kebab-case label.
  void charge(std::int64_t rounds, const std::string& label);

  std::int64_t total_rounds() const { return total_rounds_; }
  std::int64_t total_messages() const { return total_messages_; }
  const ChargeTable& charged_rounds() const { return charged_; }

  /// Reset the accumulated totals (the topology is preserved).
  void reset_accounting();

  /// Scratch storage reused by `run_phase` across phases so building the
  /// `Process*` view allocates only until the high-water mark is reached.
  std::vector<Process*>& process_scratch() { return proc_scratch_; }

 private:
  friend class Context;
  friend struct NetworkTestPeer;

  /// Epoch-stamped per-node round state: `stamp == tick32()` means the
  /// node is in the round currently being merged; `count` is its message
  /// count in that round (0 for a wakeup-only activation). During the
  /// scatter pass `count` is repurposed as the node's write cursor into
  /// the ordered slab. The stamp is the low 31 bits of the global tick —
  /// an 8-byte cell halves the footprint of the engine's hottest
  /// random-access array; `advance_tick` refills the array on the (rare)
  /// wrap so stale stamps can never alias a live tick. The 32-bit count
  /// is why a node's per-round inbox is capped at 2^31 - 1 messages (see
  /// "Engine limits" above).
  struct NodeState {
    std::int32_t stamp;
    std::int32_t count;
  };

  /// Contiguous range of one node's messages in the ordered slab.
  struct InboxSpan {
    std::int32_t start;
    std::int32_t count;
  };

  void do_send(NodeId from, EdgeId e, const Message& m,
               std::span<const Graph::Neighbor> from_neighbors,
               SendLane& lane);
  void do_wake(NodeId v, SendLane& lane) {
    lane.buckets[static_cast<std::size_t>(range_of(v))].wakes.push_back(v);
  }
  /// The 31-bit view of `tick_` that `NodeState::stamp` compares against.
  std::int32_t tick32() const {
    return util::checked_cast<std::int32_t>(tick_ & 0x7fffffff);
  }
  /// Bump the global epoch; on 31-bit wrap, invalidate all node stamps.
  void advance_tick();
  /// Ascending order of `size` node ids (LSD radix over the id bytes) with
  /// a caller-owned scratch buffer, so range segments sort concurrently.
  static void sort_ids(NodeId* data, std::size_t size,
                       std::vector<NodeId>& scratch);

  /// Destination range of node v (ranges are power-of-two spans of the id
  /// space, at most threads() of them — see compute_range_layout).
  int range_of(NodeId v) const { return util::checked_cast<int>(v >> range_shift_); }
  /// Recompute range_shift_ / num_ranges_ from num_nodes and threads_.
  void compute_range_layout();

  /// Run `fn(stage, w)` for every stage in order and every w < threads():
  /// on the pool when `on_pool`, otherwise in a loop on the calling thread.
  template <class Fn>
  void execute(bool on_pool, int stages, Fn&& fn);
  /// Step 1 for destination range r: sort its active-list segment, build
  /// its spans and write cursors from range_msg_base_[r], and scatter
  /// bucket r of every lane (in lane order) into its slice of the slab.
  void promote_range(int r);
  /// Scatter one contiguous block of (payload, destination) pairs through
  /// the node-state cursors into the ordered slab.
  void scatter_block(const Incoming* fill, const NodeId* fill_to,
                     std::size_t count);
  /// Steps 2 and 3 as one job: deliver `items` work items (node ids for
  /// the `on_start` pass, round -1; positions in `active_` otherwise) in
  /// contiguous shards into the lanes, merge the destination ranges, then
  /// concatenate the next active list.
  void deliver_and_merge(std::span<Process* const> procs,
                         std::int64_t round, std::size_t items, bool on_pool);
  /// Step 2 for shard w: run its callbacks with lane w.
  void deliver_shard(std::span<Process* const> procs, std::int64_t round,
                     int w);
  /// Step 3 for destination range r: walk bucket r of every lane in lane
  /// order, stamping per-node state, appending newly active nodes to
  /// merge_next_[r], and running the double-send check.
  void merge_range(int r);

  const Graph* graph_;
  bool validate_ = true;

  /// Global epoch: advances at every phase start and every round. All
  /// "reset per round/phase" state below is stamp-guarded against it.
  std::int64_t tick_ = 0;

  // The round's messages, destination-major; all inbox spans point into
  // it. Capacity persists across rounds and phases.
  std::vector<Incoming> slab_ordered_;

  std::vector<NodeState> node_state_;
  std::vector<NodeId> next_active_;

  // Endpoints of every edge, sans weight: half the footprint of the full
  // `Graph::Edge` array for the per-send destination lookup.
  std::vector<std::pair<NodeId, NodeId>> edge_ends_;

  // Tick of the last send over each directed edge (2e, 2e+1); used only
  // when validation is on.
  std::vector<std::int64_t> edge_dir_stamp_;

  // Reused per-round scratch (capacity persists across rounds/phases).
  std::vector<NodeId> active_;
  std::vector<InboxSpan> spans_;  // aligned with active_
  std::vector<Process*> proc_scratch_;

  // Resolved thread count, the persistent worker team of that size, one
  // send lane per worker, and the per-round shard boundaries into the
  // round's work items (size threads_ + 1).
  int threads_ = 1;
  std::unique_ptr<WorkerPool> pool_;
  std::vector<SendLane> lanes_;
  std::vector<std::size_t> shard_bounds_;

  // Destination-range layout: ranges are 2^range_shift_-wide spans of the
  // id space, num_ranges_ <= threads_ of them. Recomputed by set_threads.
  int range_shift_ = 0;
  int num_ranges_ = 1;
  // Per-range promotion state: merge_next_[r] collects range r's newly
  // active nodes during the merge stage; range_active_bounds_ (size
  // num_ranges_ + 1) are the resulting segment bounds of the *next*
  // active list; range_msg_base_ caches the prefix-summed per-range
  // message offsets into the ordered slab; range_sort_scratch_[r] is
  // range r's private radix buffer.
  std::vector<std::vector<NodeId>> merge_next_;
  std::vector<std::size_t> range_active_bounds_;
  std::vector<std::int64_t> range_msg_base_;
  std::vector<std::vector<NodeId>> range_sort_scratch_;

  // Rounds below this work level (pending messages + active nodes) run
  // on the calling thread instead of the pool.
  std::int64_t parallel_threshold_ = kDefaultParallelRoundThreshold;
  // A phase is currently running on this network (guards set_threads).
  bool in_phase_ = false;

  std::int64_t phase_messages_ = 0;

  std::int64_t total_rounds_ = 0;
  std::int64_t total_messages_ = 0;
  ChargeTable charged_;
};

/// White-box access for the engine's own tests — never use outside
/// `tests/`. Lets a test start the epoch counter near the 31-bit stamp
/// wrap and prime a node's in-flight message count at the inbox limit,
/// states that would otherwise take ~2^31 rounds or sends to reach.
struct NetworkTestPeer {
  static void set_tick(Network& net, std::int64_t tick) { net.tick_ = tick; }
  static std::int64_t tick(const Network& net) { return net.tick_; }
  /// Pretend `v` already received `count` messages in the round currently
  /// being filled (stamps it with the live tick).
  static void prime_inbox_count(Network& net, NodeId v, std::int32_t count) {
    net.node_state_[static_cast<std::size_t>(v)] =
        Network::NodeState{net.tick32(), count};
  }
};

// Context's send/wake are defined here (not in a .cpp) so the per-message
// entry point inlines into process code; the sender's neighbor span rides
// along to resolve the destination from cache-warm adjacency.
inline void Context::send(EdgeId e, const Message& m) {
  net_.do_send(id_, e, m, neighbors_, lane_);
}
inline void Context::wake_next_round() { net_.do_wake(id_, lane_); }

/// Convenience: run a phase over a vector of concrete processes. The
/// pointer view is built in `Network`-owned scratch, so repeated phases on
/// the same network do not reallocate it.
template <class P>
PhaseStats run_phase(Network& net, std::vector<P>& procs,
                     std::int64_t max_rounds = Network::kDefaultMaxRounds) {
  static_assert(std::is_base_of_v<Process, P>);
  auto& ptrs = net.process_scratch();
  ptrs.clear();
  ptrs.reserve(procs.size());
  for (auto& p : procs) ptrs.push_back(&p);
  return net.run(ptrs, max_rounds);
}

/// Run a phase in which one process object serves every node: it finds its
/// node through `ctx.id()` and keeps all per-node state in per-node storage
/// (node v's callbacks write only v's elements), so parallel rounds never
/// share a written element. Saves building one object per node per phase.
inline PhaseStats run_phase_shared(
    Network& net, Process& proc,
    std::int64_t max_rounds = Network::kDefaultMaxRounds) {
  auto& ptrs = net.process_scratch();
  ptrs.assign(static_cast<std::size_t>(net.num_nodes()), &proc);
  return net.run(ptrs, max_rounds);
}

}  // namespace lcs::congest
