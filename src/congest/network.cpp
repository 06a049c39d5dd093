#include "congest/network.h"

#include <algorithm>

#include "congest/message.h"
#include "congest/process.h"
#include "graph/graph.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/worker_pool.h"

namespace lcs::congest {

std::int64_t ChargeTable::at(std::string_view label) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), label,
      [](const Entry& a, std::string_view b) { return a.first < b; });
  LCS_CHECK(it != entries_.end() && it->first == label,
            "no rounds charged under this label");
  return it->second;
}

void ChargeTable::add(std::string_view label, std::int64_t rounds) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), label,
      [](const Entry& a, std::string_view b) { return a.first < b; });
  if (it != entries_.end() && it->first == label)
    it->second += rounds;
  else
    entries_.insert(it, Entry{std::string(label), rounds});
}

Network::Network(const Graph& graph) : graph_(&graph) {
  const auto n = static_cast<std::size_t>(graph.num_nodes());
  // Stamps start below any tick the engine will ever produce, so every
  // stamp-guarded structure begins logically empty with no fills needed
  // (tick32() is never negative).
  node_state_.assign(n, NodeState{-1, 0});
  edge_dir_stamp_.assign(static_cast<std::size_t>(graph.num_edges()) * 2, -1);
  edge_ends_.reserve(static_cast<std::size_t>(graph.num_edges()));
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const auto& ed = graph.edge(e);
    edge_ends_.emplace_back(ed.u, ed.v);
  }
  set_threads(1);
}

void Network::set_threads(int threads) {
  LCS_CHECK(threads >= 0, "thread count must be non-negative");
  LCS_CHECK(!in_phase_,
            "set_threads may not be called while a phase is running (e.g. "
            "from a process callback): it resizes live round state");
  threads_ = WorkerPool::resolve_threads(threads);
  if (!pool_ || pool_->size() != threads_)
    pool_ = std::make_unique<WorkerPool>(threads_);
  compute_range_layout();
  lanes_.resize(static_cast<std::size_t>(threads_));
  for (SendLane& lane : lanes_)
    lane.buckets.resize(static_cast<std::size_t>(num_ranges_));
  merge_next_.resize(static_cast<std::size_t>(num_ranges_));
  range_sort_scratch_.resize(static_cast<std::size_t>(num_ranges_));
}

void Network::set_parallel_round_threshold(std::int64_t work) {
  LCS_CHECK(work >= 0, "threshold must be non-negative");
  LCS_CHECK(!in_phase_,
            "set_parallel_round_threshold may not be called while a phase "
            "is running");
  parallel_threshold_ = work;
}

void Network::compute_range_layout() {
  // Ranges are power-of-two spans of the id space so range_of is a single
  // shift in the send path: the span is the smallest power of two >=
  // ceil(n / threads), giving between threads/2 and threads ranges.
  const std::int64_t n = graph_->num_nodes();
  const std::int64_t k = threads_;
  const std::int64_t per = n <= 0 ? 1 : (n + k - 1) / k;
  int shift = 0;
  while ((std::int64_t{1} << shift) < per) ++shift;
  range_shift_ = shift;
  num_ranges_ = n <= 1 ? 1 : util::checked_cast<int>(((n - 1) >> shift) + 1);
}

void Network::do_send(NodeId from, EdgeId e, const Message& m,
                      std::span<const Graph::Neighbor> from_neighbors,
                      SendLane& lane) {
  // Resolve the destination. For low-degree senders, scan the sender's own
  // adjacency — the process just iterated it, so those lines are hot and
  // the cold random load of edge_ends_[e] is skipped; high-degree senders
  // (hubs) take the O(1) lookup instead of an O(deg) scan.
  NodeId to = kNoNode;
  if (from_neighbors.size() <= 16) {
    for (const auto& nb : from_neighbors) {
      if (nb.edge == e) {
        to = nb.node;
        break;
      }
    }
    if (to == kNoNode) {
      // `e` is not incident to the sender (or out of range): diagnose in
      // validate mode, otherwise fall through to the blind lookup exactly
      // like the high-degree path.
      if (validate_) {
        LCS_CHECK(e >= 0 && e < graph_->num_edges(), "edge id out of range");
        LCS_CHECK(false, "process tried to send over a non-incident edge");
      }
      const auto& [u, v] = edge_ends_[static_cast<std::size_t>(e)];
      to = u == from ? v : u;
    }
  } else {
    if (validate_) {
      LCS_CHECK(e >= 0 && e < graph_->num_edges(), "edge id out of range");
      const auto& [u, v] = edge_ends_[static_cast<std::size_t>(e)];
      LCS_CHECK(u == from || v == from,
                "process tried to send over a non-incident edge");
    }
    const auto& [u, v] = edge_ends_[static_cast<std::size_t>(e)];
    to = u == from ? v : u;
  }
  // The double-send check and the per-destination accounting write shared
  // state, so they wait for the merge, where one worker replays each
  // destination range in send order.
  LaneBucket& b = lane.buckets[static_cast<std::size_t>(range_of(to))];
  b.fill.push_back(Incoming{from, e, m});
  b.fill_to.push_back(to);
}

void Network::advance_tick() {
  ++tick_;
  if (tick32() == 0) {
    // 31-bit stamp wrap (once per ~2 billion rounds): a stale stamp could
    // now alias a future tick, so pay one O(n) refill and skip tick32 0.
    for (NodeState& st : node_state_) st.stamp = -1;
    ++tick_;
  }
}

void Network::sort_ids(NodeId* data, std::size_t size,
                       std::vector<NodeId>& scratch) {
  if (size < 2) return;
  if (size <= 64) {  // insertion sort beats radix setup at this scale
    for (std::size_t i = 1; i < size; ++i) {
      const NodeId key = data[i];
      std::size_t j = i;
      for (; j > 0 && data[j - 1] > key; --j) data[j] = data[j - 1];
      data[j] = key;
    }
    return;
  }

  // LSD radix sort, one byte per pass. Node ids are dense non-negative
  // ints, so passes whose byte is constant across all keys (typically the
  // high bytes) are detected from the histograms and skipped.
  constexpr int kBytes = sizeof(NodeId);
  std::size_t hist[kBytes][256] = {};
  for (std::size_t i = 0; i < size; ++i) {
    const auto key = util::checked_cast<std::uint32_t>(data[i]);
    for (int b = 0; b < kBytes; ++b) ++hist[b][(key >> (8 * b)) & 0xff];
  }
  scratch.resize(size);
  NodeId* src = data;
  NodeId* dst = scratch.data();
  for (int b = 0; b < kBytes; ++b) {
    auto& h = hist[b];
    const std::size_t first = (util::checked_cast<std::uint32_t>(src[0]) >> (8 * b)) & 0xff;
    if (h[first] == size) continue;  // all keys share this byte
    std::size_t offset = 0;
    for (std::size_t bucket = 0; bucket < 256; ++bucket) {
      const std::size_t count = h[bucket];
      h[bucket] = offset;
      offset += count;
    }
    for (std::size_t i = 0; i < size; ++i) {
      const auto key = util::checked_cast<std::uint32_t>(src[i]);
      dst[h[(key >> (8 * b)) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != data) std::copy(src, src + size, data);
}

template <class Fn>
void Network::execute(bool on_pool, int stages, Fn&& fn) {
  if (on_pool) {
    pool_->run_staged(stages, fn);
    return;
  }
  for (int s = 0; s < stages; ++s)
    for (int w = 0; w < threads_; ++w) fn(s, w);
}

void Network::promote_range(int r) {
  // Range r owns its segment of the active list (recorded by the merge
  // that built this round's active set), its slice of the ordered slab
  // starting at range_msg_base_[r], and bucket r of every lane.
  const auto ur = static_cast<std::size_t>(r);
  const std::size_t lo = range_active_bounds_[ur];
  const std::size_t hi = range_active_bounds_[ur + 1];
  sort_ids(active_.data() + lo, hi - lo, range_sort_scratch_[ur]);

  // Inbox spans from the per-node message counts (a prefix sum over the
  // sorted segment); `NodeState::count` becomes the scatter's write cursor.
  std::int64_t total = range_msg_base_[ur];
  for (std::size_t i = lo; i < hi; ++i) {
    if (i + 16 < hi)
      __builtin_prefetch(
          &node_state_[static_cast<std::size_t>(active_[i + 16])], 1);
    NodeState& st = node_state_[static_cast<std::size_t>(active_[i])];
    spans_[i] = InboxSpan{util::checked_cast<std::int32_t>(total), st.count};
    st.count = util::checked_cast<std::int32_t>(total);
    total += spans_[i].count;
  }
  LCS_CHECK(total == range_msg_base_[ur + 1], "inbox accounting out of sync");

  // Lane order is the round's send order restricted to this range, so
  // every inbox comes out send-ordered.
  for (SendLane& lane : lanes_) {
    LaneBucket& b = lane.buckets[ur];
    scatter_block(b.fill.data(), b.fill_to.data(), b.fill.size());
    b.clear();
  }
}

void Network::scatter_block(const Incoming* fill, const NodeId* fill_to,
                            std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    // Two-stage prefetch pipeline over the pass's only cold lines: the
    // per-destination cursor (64 ahead), then the store target it points
    // at (24 ahead; a stale cursor there only weakens the hint).
    if (i + 64 < count)
      __builtin_prefetch(
          &node_state_[static_cast<std::size_t>(fill_to[i + 64])], 1);
    if (i + 24 < count)
      __builtin_prefetch(
          &slab_ordered_[static_cast<std::size_t>(
              node_state_[static_cast<std::size_t>(fill_to[i + 24])].count)],
          1);
    NodeState& st = node_state_[static_cast<std::size_t>(fill_to[i])];
    slab_ordered_[static_cast<std::size_t>(st.count++)] = fill[i];
  }
}

void Network::deliver_and_merge(std::span<Process* const> procs,
                                std::int64_t round, std::size_t items,
                                bool on_pool) {
  // Contiguous shards of the work items, one per worker on the pool and a
  // single one on the calling thread. Any ascending contiguous split gives
  // the same merge order, so the split only balances load: evenly by node
  // for on_start, by inbox size plus a constant per activation otherwise.
  const auto k = static_cast<std::size_t>(threads_);
  shard_bounds_.assign(k + 1, items);
  shard_bounds_[0] = 0;
  if (on_pool && round < 0) {
    for (std::size_t w = 1; w < k; ++w) shard_bounds_[w] = items * w / k;
  } else if (on_pool && k > 1) {
    constexpr std::int64_t kActivationWeight = 4;
    std::int64_t total_weight = 0;
    for (std::size_t i = 0; i < items; ++i)
      total_weight += spans_[i].count + kActivationWeight;
    std::int64_t acc = 0;
    for (std::size_t i = 0, w = 1; i < items && w < k; ++i) {
      acc += spans_[i].count + kActivationWeight;
      while (w < k && acc >= total_weight * static_cast<std::int64_t>(w) /
                                 static_cast<std::int64_t>(k))
        shard_bounds_[w++] = i + 1;
    }
  }

  execute(on_pool, 2, [&](int stage, int w) {
    if (stage == 0)
      deliver_shard(procs, round, w);
    else if (w < num_ranges_)
      merge_range(w);
  });

  // Concatenate the per-range next-active lists range-major. Ranges are
  // ascending id spans, so the segments land pre-partitioned for the next
  // promotion; the bounds are recorded while the sizes are still known.
  range_active_bounds_.resize(static_cast<std::size_t>(num_ranges_) + 1);
  range_active_bounds_[0] = 0;
  for (int r = 0; r < num_ranges_; ++r) {
    std::vector<NodeId>& part = merge_next_[static_cast<std::size_t>(r)];
    range_active_bounds_[static_cast<std::size_t>(r) + 1] =
        range_active_bounds_[static_cast<std::size_t>(r)] + part.size();
    next_active_.insert(next_active_.end(), part.begin(), part.end());
    part.clear();
  }
}

void Network::deliver_shard(std::span<Process* const> procs,
                            std::int64_t round, int w) {
  const auto uw = static_cast<std::size_t>(w);
  SendLane& lane = lanes_[uw];
  const NodeId num_nodes = graph_->num_nodes();
  const std::size_t lo = shard_bounds_[uw];
  const std::size_t hi = shard_bounds_[uw + 1];
  if (round < 0) {  // on_start: the items are the node ids themselves
    const auto end = util::checked_cast<NodeId>(hi);
    for (auto v = util::checked_cast<NodeId>(lo); v < end; ++v) {
      Context ctx(*this, v, num_nodes, -1, graph_->neighbors(v), lane);
      procs[static_cast<std::size_t>(v)]->on_start(ctx);
    }
    return;
  }
  const Incoming* ordered = slab_ordered_.data();
  for (std::size_t i = lo; i < hi; ++i) {
    const NodeId v = active_[i];
    Context ctx(*this, v, num_nodes, round, graph_->neighbors(v), lane);
    procs[static_cast<std::size_t>(v)]->on_round(
        ctx, {ordered + spans_[i].start,
              static_cast<std::size_t>(spans_[i].count)});
  }
}

void Network::merge_range(int r) {
  // Lanes are walked in shard order and each bucket in insertion order;
  // shards are contiguous ascending slices of the active list, so this
  // concatenation *is* the round's send order restricted to range r — and
  // a destination's full delivery order lives in one range, so counts, the
  // next-active set, and the double-send diagnostics are the same at every
  // thread count. A directed edge determines its destination and hence its
  // range, so each edge_dir_stamp_ cell has exactly one writer. Wakeups
  // are replayed after a bucket's sends, which is order-insensitive: a
  // wakeup only stamps a node with count 0 when nothing stamped it yet.
  const std::int32_t now = tick32();
  const auto ur = static_cast<std::size_t>(r);
  std::vector<NodeId>& out = merge_next_[ur];
  for (SendLane& lane : lanes_) {
    const LaneBucket& b = lane.buckets[ur];
    const std::size_t nmsg = b.fill.size();
    const Incoming* fill = b.fill.data();
    const NodeId* fill_to = b.fill_to.data();
    for (std::size_t i = 0; i < nmsg; ++i) {
      if (validate_) {
        const Incoming& in = fill[i];
        const std::size_t dir =
            static_cast<std::size_t>(in.edge) * 2 +
            (in.from == edge_ends_[static_cast<std::size_t>(in.edge)].first
                 ? 0
                 : 1);
        LCS_CHECK(edge_dir_stamp_[dir] != tick_,
                  "CONGEST violation: two sends over one edge in one round");
        edge_dir_stamp_[dir] = tick_;
      }
      NodeState& st = node_state_[static_cast<std::size_t>(fill_to[i])];
      if (st.stamp != now) {
        st.stamp = now;
        st.count = 1;
        out.push_back(fill_to[i]);
      } else {
        LCS_CHECK(st.count != INT32_MAX,
                  "engine limit exceeded: a node received 2^31 - 1 messages "
                  "in one round");
        ++st.count;
      }
    }
    for (const NodeId v : b.wakes) {
      NodeState& st = node_state_[static_cast<std::size_t>(v)];
      if (st.stamp != now) {
        st.stamp = now;
        st.count = 0;
        out.push_back(v);
      }
    }
  }
}

PhaseStats Network::run(std::span<Process* const> procs,
                        std::int64_t max_rounds) {
  LCS_CHECK(procs.size() == static_cast<std::size_t>(graph_->num_nodes()),
            "one process per node required");
  LCS_CHECK(!in_phase_,
            "Network::run is not reentrant (called from a process "
            "callback?)");
  in_phase_ = true;
  struct InPhaseReset {  // clears the flag on every exit, aborts included
    bool* flag;
    ~InPhaseReset() { *flag = false; }
  } in_phase_reset{&in_phase_};

  // Phase startup: a previous clean phase ends quiescent (nothing in
  // flight), an aborted one leaves only these containers non-empty —
  // stamp-guarded state needs no reset either way because the tick
  // advances past every stamp an earlier phase wrote.
  for (SendLane& lane : lanes_) lane.clear();
  for (std::vector<NodeId>& part : merge_next_) part.clear();
  next_active_.clear();
  phase_messages_ = 0;
  advance_tick();

  // Round -1: on_start for every node; its sends arrive in round 0.
  const auto n = static_cast<std::size_t>(graph_->num_nodes());
  deliver_and_merge(procs, -1, n,
                    static_cast<std::int64_t>(n) >= parallel_threshold_);

  std::int64_t round = 0;
  while (!next_active_.empty()) {
    LCS_CHECK(round < max_rounds,
              "phase exceeded max_rounds without quiescing");

    // Exclusive per-range slab offsets: prefix sums of the (lane, range)
    // bucket sizes, the counts the lanes built for free during the round.
    const auto nr = static_cast<std::size_t>(num_ranges_);
    range_msg_base_.assign(nr + 1, 0);
    for (const SendLane& lane : lanes_)
      for (std::size_t r = 0; r < nr; ++r)
        range_msg_base_[r + 1] +=
            static_cast<std::int64_t>(lane.buckets[r].fill.size());
    for (std::size_t r = 0; r < nr; ++r)
      range_msg_base_[r + 1] += range_msg_base_[r];
    const std::int64_t nmsg = range_msg_base_[nr];
    LCS_CHECK(nmsg <= INT32_MAX,
              "engine limit exceeded: more than 2^31 - 1 messages in one "
              "round");
    phase_messages_ += nmsg;

    // The round's work level — pending messages plus activations — picks
    // the executor for the whole round.
    const bool on_pool =
        nmsg + static_cast<std::int64_t>(next_active_.size()) >=
        parallel_threshold_;

    active_.swap(next_active_);
    next_active_.clear();
    spans_.resize(active_.size());
    // Grow-only: the scatter overwrites the slab up to nmsg.
    if (slab_ordered_.size() < static_cast<std::size_t>(nmsg))
      slab_ordered_.resize(static_cast<std::size_t>(nmsg));
    execute(on_pool, 1, [&](int, int r) {
      if (r < num_ranges_) promote_range(r);
    });
    advance_tick();  // this round's sends stamp separately from deliveries

    deliver_and_merge(procs, round, active_.size(), on_pool);
    ++round;
  }

  const PhaseStats stats{round, phase_messages_};
  total_rounds_ += stats.rounds;
  total_messages_ += stats.messages;
  return stats;
}

void Network::charge(std::int64_t rounds, const std::string& label) {
  LCS_CHECK(rounds >= 0, "cannot charge negative rounds");
  total_rounds_ += rounds;
  charged_.add(label, rounds);
}

void Network::reset_accounting() {
  total_rounds_ = 0;
  total_messages_ = 0;
  charged_.clear();
}

}  // namespace lcs::congest
