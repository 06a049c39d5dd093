#include "shortcut/verification.h"

#include <algorithm>
#include <limits>

#include "congest/network.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "shortcut/representation.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"
#include "util/check.h"

namespace lcs {

namespace {

constexpr std::uint64_t kIdentityMin = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint32_t kInfDepth = 0xFFFFFFFFu;
/// A count contribution that can never pass `count <= b_limit`; used to
/// fold anomaly flags into the supernode count.
constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
constexpr std::uint64_t kSatCap = std::uint64_t{1} << 62;

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return std::min(a + b, kSatCap);
}

std::uint64_t pack(std::uint64_t hi32, std::uint64_t lo32) {
  return (hi32 << 32) | (lo32 & 0xFFFFFFFFu);
}

enum Verdict : std::uint64_t { kUnknown = 0, kGood = 1, kBad = 2 };

}  // namespace

VerificationResult verify_block_parameter(congest::Network& net,
                                          const SpanningTree& tree,
                                          const Partition& partition,
                                          const ShortcutState& state,
                                          std::int32_t b_limit,
                                          const NeighborParts& neighbor_parts) {
  LCS_CHECK(b_limit >= 1, "block budget must be positive");
  const auto n = static_cast<std::size_t>(net.num_nodes());

  auto is_member = [&](NodeId v, PartId j) {
    return j != kNoPart && partition.part(v) == j;
  };

  // Per-node protocol state (each node only touches its own slot).
  std::vector<std::uint64_t> lead(n, kIdentityMin);
  std::vector<std::uint64_t> depth_s(n, kInfDepth);
  std::vector<char> flag(n, 0);
  std::vector<std::uint64_t> best_cand(n, kInfDepth);
  std::vector<std::uint64_t> parent_choice(n, kIdentityMin);
  std::vector<std::uint64_t> pending_in(n, 0);
  std::vector<std::uint64_t> last_agg(n, 0);
  std::vector<std::uint64_t> verdict(n, kUnknown);

  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (partition.part(v) != kNoPart)
      lead[static_cast<std::size_t>(v)] = static_cast<std::uint64_t>(
          state.own_block_root[static_cast<std::size_t>(v)]);
  }

  const auto u64 = [](NodeId v) { return static_cast<std::size_t>(v); };
  SuperstepScratch scratch;  // reused by every superstep below

  // --- Phase V1: leader min-flood over the supergraph --------------------
  {
    SuperstepHooks hooks;
    hooks.identity = kIdentityMin;
    hooks.combine = [](std::uint64_t a, std::uint64_t b) {
      return std::min(a, b);
    };
    hooks.contribution = [&](NodeId v, PartId j) {
      return is_member(v, j) ? lead[u64(v)] : kIdentityMin;
    };
    hooks.on_aggregate = [&](NodeId v, PartId j, std::uint64_t agg) {
      if (is_member(v, j)) lead[u64(v)] = std::min(lead[u64(v)], agg);
    };
    hooks.cross_message = [&](NodeId v, NodeId, EdgeId) {
      return std::optional<std::uint64_t>(lead[u64(v)]);
    };
    hooks.on_cross = [&](NodeId v, NodeId, EdgeId, std::uint64_t value) {
      lead[u64(v)] = std::min(lead[u64(v)], value);
    };
    for (std::int32_t step = 0; step < b_limit; ++step)
      run_superstep(net, tree, partition, state, neighbor_parts, hooks,
                    scratch);
  }

  // --- Phase V2: BFS depths from self-believed leader supernodes ---------
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (partition.part(v) == kNoPart) continue;
    const auto block = static_cast<std::uint64_t>(
        state.own_block_root[u64(v)]);
    depth_s[u64(v)] = (lead[u64(v)] == block) ? 0 : kInfDepth;
  }
  {
    SuperstepHooks hooks;
    hooks.identity = kIdentityMin;
    hooks.combine = [](std::uint64_t a, std::uint64_t b) {
      return std::min(a, b);
    };
    hooks.cross_message = [&](NodeId v, NodeId, EdgeId) {
      return std::optional<std::uint64_t>(
          pack(lead[u64(v)], depth_s[u64(v)]));
    };
    hooks.on_cross = [&](NodeId v, NodeId, EdgeId, std::uint64_t value) {
      const std::uint64_t other_lead = value >> 32;
      const std::uint64_t other_depth = value & 0xFFFFFFFFu;
      if (other_lead != lead[u64(v)]) {
        flag[u64(v)] = 1;
      } else if (other_depth != kInfDepth) {
        best_cand[u64(v)] = std::min(best_cand[u64(v)], other_depth + 1);
      }
    };
    hooks.contribution = [&](NodeId v, PartId j) {
      if (!is_member(v, j)) return kIdentityMin;
      return std::min(depth_s[u64(v)], best_cand[u64(v)]);
    };
    hooks.on_aggregate = [&](NodeId v, PartId j, std::uint64_t agg) {
      if (is_member(v, j))
        depth_s[u64(v)] = std::min<std::uint64_t>(agg, kInfDepth);
    };
    for (std::int32_t step = 0; step < b_limit; ++step) {
      std::fill(best_cand.begin(), best_cand.end(),
                static_cast<std::uint64_t>(kInfDepth));
      run_superstep(net, tree, partition, state, neighbor_parts, hooks,
                    scratch);
    }
  }

  // --- Phase V2.5: choose one boundary edge to the BFS parent ------------
  {
    std::vector<std::uint64_t> cand_edge(n, kIdentityMin);
    SuperstepHooks hooks;
    hooks.identity = kIdentityMin;
    hooks.combine = [](std::uint64_t a, std::uint64_t b) {
      return std::min(a, b);
    };
    hooks.cross_message = [&](NodeId v, NodeId, EdgeId) {
      return std::optional<std::uint64_t>(
          pack(lead[u64(v)], depth_s[u64(v)]));
    };
    hooks.on_cross = [&](NodeId v, NodeId, EdgeId e, std::uint64_t value) {
      const std::uint64_t other_lead = value >> 32;
      const std::uint64_t other_depth = value & 0xFFFFFFFFu;
      const std::uint64_t mine = depth_s[u64(v)];
      if (other_lead != lead[u64(v)]) {
        flag[u64(v)] = 1;
      } else if (other_depth == kInfDepth && mine != kInfDepth) {
        // Same leader but unreached neighbor: the BFS did not cover the
        // supergraph within b_limit steps, so the part has too many blocks.
        flag[u64(v)] = 1;
      } else if (mine != kInfDepth && other_depth + 1 == mine) {
        cand_edge[u64(v)] =
            std::min(cand_edge[u64(v)], static_cast<std::uint64_t>(e));
      }
    };
    hooks.contribution = [&](NodeId v, PartId j) {
      return is_member(v, j) ? cand_edge[u64(v)] : kIdentityMin;
    };
    hooks.on_aggregate = [&](NodeId v, PartId j, std::uint64_t agg) {
      if (is_member(v, j)) parent_choice[u64(v)] = agg;
    };
    run_superstep(net, tree, partition, state, neighbor_parts, hooks,
                  scratch);
  }

  // --- Phase V3: count supernodes up the super-BFS tree ------------------
  {
    SuperstepHooks sum_hooks;
    sum_hooks.identity = 0;
    sum_hooks.combine = sat_add;
    sum_hooks.contribution = [&](NodeId v, PartId j) -> std::uint64_t {
      if (!is_member(v, j)) return 0;
      return sat_add(pending_in[u64(v)], flag[u64(v)] ? kHuge : 0);
    };
    sum_hooks.on_aggregate = [&](NodeId v, PartId j, std::uint64_t agg) {
      if (is_member(v, j)) last_agg[u64(v)] = agg;
    };

    // V3.0: aggregate-only superstep so the deepest components know their
    // own flag totals before sending.
    run_superstep(net, tree, partition, state, neighbor_parts, sum_hooks,
                  scratch);

    for (std::int32_t tau = b_limit; tau >= 1; --tau) {
      SuperstepHooks hooks = sum_hooks;
      hooks.cross_message = [&, tau](NodeId v, NodeId,
                                     EdgeId e) -> std::optional<std::uint64_t> {
        if (depth_s[u64(v)] != static_cast<std::uint64_t>(tau)) {
          return std::nullopt;
        }
        if (parent_choice[u64(v)] != static_cast<std::uint64_t>(e)) {
          return std::nullopt;
        }
        return sat_add(last_agg[u64(v)], 1);  // this component's subtree count
      };
      hooks.on_cross = [&](NodeId v, NodeId, EdgeId, std::uint64_t value) {
        pending_in[u64(v)] = sat_add(pending_in[u64(v)], value);
      };
      run_superstep(net, tree, partition, state, neighbor_parts, hooks,
                    scratch);
    }
  }

  // --- Phase V4: verdict flood from the leader supernode ------------------
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (partition.part(v) == kNoPart) continue;
    if (depth_s[u64(v)] == 0) {
      const std::uint64_t total = sat_add(last_agg[u64(v)], 1);
      verdict[u64(v)] =
          total <= static_cast<std::uint64_t>(b_limit) ? kGood : kBad;
    }
  }
  {
    SuperstepHooks hooks;
    hooks.identity = kUnknown;
    hooks.combine = [](std::uint64_t a, std::uint64_t b) {
      return std::max(a, b);
    };
    hooks.cross_message = [&](NodeId v, NodeId,
                              EdgeId) -> std::optional<std::uint64_t> {
      if (verdict[u64(v)] == kUnknown) return std::nullopt;
      return pack(lead[u64(v)], verdict[u64(v)]);
    };
    hooks.on_cross = [&](NodeId v, NodeId, EdgeId, std::uint64_t value) {
      const std::uint64_t other_lead = value >> 32;
      const std::uint64_t other_verdict = value & 0xFFFFFFFFu;
      if (other_lead == lead[u64(v)])
        verdict[u64(v)] = std::max(verdict[u64(v)], other_verdict);
    };
    hooks.contribution = [&](NodeId v, PartId j) {
      return is_member(v, j) ? verdict[u64(v)] : kUnknown;
    };
    hooks.on_aggregate = [&](NodeId v, PartId j, std::uint64_t agg) {
      if (is_member(v, j)) verdict[u64(v)] = std::max(verdict[u64(v)], agg);
    };
    for (std::int32_t step = 0; step < b_limit; ++step)
      run_superstep(net, tree, partition, state, neighbor_parts, hooks,
                    scratch);
  }

  // --- Local decisions ----------------------------------------------------
  VerificationResult result;
  result.node_good.assign(n, false);
  result.part_good.assign(static_cast<std::size_t>(partition.num_parts),
                          false);
  std::vector<char> part_seen(static_cast<std::size_t>(partition.num_parts),
                              0);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const PartId j = partition.part(v);
    if (j == kNoPart) continue;
    const bool good = verdict[u64(v)] == kGood && !flag[u64(v)] &&
                      depth_s[u64(v)] != kInfDepth;
    result.node_good[u64(v)] = good;
    if (!part_seen[static_cast<std::size_t>(j)]) {
      part_seen[static_cast<std::size_t>(j)] = 1;
      result.part_good[static_cast<std::size_t>(j)] = good;
    } else {
      LCS_CHECK(result.part_good[static_cast<std::size_t>(j)] == good,
                "verification verdict must be unanimous within a part");
    }
  }
  return result;
}

}  // namespace lcs
