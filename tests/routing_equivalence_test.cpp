// Equivalence of the plan-compiled Lemma 2 engines (shortcut/tree_routing.h)
// with the map-based reference processes (routing_reference.h): for every
// graph family, greedy threshold, routing priority and engine configuration
// the per-node on_receive / on_root_result sequences and the phase stats
// must be identical. Each case drives one compiled plan and one scratch
// through several back-to-back phases with different inputs, so state left
// over from an earlier phase would show up as a mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "congest/network.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "routing_reference.h"
#include "shortcut/existential.h"
#include "shortcut/representation.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_routing.h"
#include "test_util.h"
#include "util/check.h"

namespace lcs {
namespace {

using testutil::Sim;

/// One callback firing as seen by its node.
struct Event {
  PartId j = kNoPart;
  std::uint64_t value = 0;
  std::int32_t root_depth = 0;
  bool operator==(const Event&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Event& e) {
    return os << "(part " << e.j << ", value " << e.value << ", root depth "
              << e.root_depth << ")";
  }
};

/// Per-node event logs. Callbacks for node v only append to log[v], so the
/// recording is race-free when the engine runs nodes on several workers.
using Log = std::vector<std::vector<Event>>;

struct Family {
  std::string name;
  Graph graph;
  NodeId root;
  PartId parts;
};

Family make_family(const std::string& name) {
  if (name == "er") return {name, make_erdos_renyi(120, 0.05, 7), 0, 15};
  if (name == "grid") return {name, make_grid(11, 11), 0, 12};
  // Rooted at the hub: one node with every other node as a child.
  const NodeId n = 61;
  return {name, make_wheel(n), n - 1, 8};
}

const char* priority_name(RoutingPriority p) {
  switch (p) {
    case RoutingPriority::kRootDepth:
      return "root-depth";
    case RoutingPriority::kPartId:
      return "part-id";
    case RoutingPriority::kFifo:
      return "fifo";
  }
  return "?";
}

void expect_same(const congest::PhaseStats& got,
                 const congest::PhaseStats& want, const Log& got_log,
                 const Log& want_log, const std::string& what) {
  EXPECT_EQ(got.rounds, want.rounds) << what;
  EXPECT_EQ(got.messages, want.messages) << what;
  ASSERT_EQ(got_log.size(), want_log.size()) << what;
  for (std::size_t v = 0; v < got_log.size(); ++v)
    ASSERT_EQ(got_log[v], want_log[v]) << what << ": node " << v;
}

/// (family, threads, eager: parallel-round threshold 0 instead of the
/// default, so every round takes the parallel path).
using Config = std::tuple<std::string, int, bool>;

class RoutingEquivalence : public ::testing::TestWithParam<Config> {};

TEST_P(RoutingEquivalence, MatchesMapBasedReference) {
  const auto& [name, threads, eager] = GetParam();
  const Family fam = make_family(name);
  const Graph& g = fam.graph;
  Sim setup(g, fam.root, threads);
  setup.net.set_parallel_round_threshold(
      eager ? 0 : congest::Network::kDefaultParallelRoundThreshold);
  const auto p = make_random_bfs_partition(g, fam.parts, 3);
  const auto n = static_cast<std::size_t>(g.num_nodes());

  for (const std::int32_t c : {1, 4, 16}) {
    const ShortcutState state = compute_shortcut_state(
        setup.net, setup.tree, p,
        greedy_blocked_shortcut(g, setup.tree, p, c));
    // The reference takes its root depths from the centralized oracle, so
    // the plan's own depths are checked too, not copied.
    const auto root_depths =
        testutil::central_root_depths(g, setup.tree, p, state.shortcut);
    for (const RoutingPriority prio :
         {RoutingPriority::kRootDepth, RoutingPriority::kPartId,
          RoutingPriority::kFifo}) {
      const std::string ctx = name + " c=" + std::to_string(c) + " " +
                              priority_name(prio) + " t" +
                              std::to_string(threads);
      RoutingScratch scratch;  // shared by every phase below

      // Phases differ in their inputs, so stale scratch cannot pass.
      for (std::uint64_t phase = 0; phase < 3; ++phase) {
        const auto contribution = [phase](NodeId v, PartId j) {
          return (static_cast<std::uint64_t>(v) * 1000003u +
                  static_cast<std::uint64_t>(j) * 7919u) ^
                 (phase << 40);
        };
        const auto combine = [phase](std::uint64_t a, std::uint64_t b) {
          return phase == 1 ? std::min(a, b) : a + b;
        };
        const auto on_root = [](Log& log) {
          return [&log](NodeId v, PartId j, std::uint64_t agg) {
            log[static_cast<std::size_t>(v)].push_back({j, agg, 0});
          };
        };
        Log got(n);
        Log want(n);
        const auto got_stats = run_component_convergecast(
            setup.net, setup.tree, state.plan, scratch, contribution,
            combine, on_root(got), prio);
        const auto want_stats = reference::component_convergecast(
            setup.net, setup.tree, state.shortcut, root_depths,
            contribution, combine, on_root(want), prio);
        expect_same(got_stats, want_stats, got, want,
                    ctx + " convergecast " + std::to_string(phase));

        const auto root_value = [phase](NodeId root, PartId j) {
          return static_cast<std::uint64_t>(root) * 31u +
                 static_cast<std::uint64_t>(j) + phase;
        };
        const auto on_receive = [](Log& log) {
          return [&log](NodeId v, PartId j, std::uint64_t value,
                        std::int32_t rd) {
            log[static_cast<std::size_t>(v)].push_back({j, value, rd});
          };
        };
        Log got_b(n);
        Log want_b(n);
        const auto got_bstats =
            run_component_broadcast(setup.net, setup.tree, state.plan, scratch,
                                    root_value, on_receive(got_b), prio);
        const auto want_bstats = reference::component_broadcast(
            setup.net, setup.tree, state.shortcut, root_value,
            on_receive(want_b), prio);
        expect_same(got_bstats, want_bstats, got_b, want_b,
                    ctx + " broadcast " + std::to_string(phase));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, RoutingEquivalence,
    ::testing::Combine(::testing::Values("er", "grid", "wheel"),
                       ::testing::Values(1, 4),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Config>& info) {
      // Thread count last, so the sanitizer job's *_t4 filter selects the
      // parallel cases.
      return std::get<0>(info.param) +
             (std::get<2>(info.param) ? "_eager" : "_default") + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(RoutingPlan, RejectsPlanOfAnotherNetwork) {
  const Graph small = make_grid(4, 4);
  const Graph large = make_grid(5, 5);
  Sim setup(large);
  Sim other(small);
  const auto p = make_random_bfs_partition(small, 3, 1);
  const RoutingPlan plan = compile_routing_plan(
      other.tree, greedy_blocked_shortcut(small, other.tree, p, 4));
  RoutingScratch scratch;
  const auto root_value = [](NodeId, PartId) -> std::uint64_t { return 0; };
  const auto on_receive = [](NodeId, PartId, std::uint64_t, std::int32_t) {};
  EXPECT_THROW(run_component_broadcast(setup.net, setup.tree, plan, scratch,
                                       root_value, on_receive),
               CheckFailure);
  EXPECT_THROW(run_component_broadcast(setup.net, setup.tree, RoutingPlan{},
                                       scratch, root_value, on_receive),
               CheckFailure);
}

TEST(PartExchange, HubLearnsEveryNeighborPart) {
  // The wheel hub hears from all n - 1 rim nodes in one round; every slot
  // must hold its own neighbor's part (kNoPart for unassigned nodes).
  const Graph g = make_wheel(200);
  congest::Network net(g);
  const auto p = make_random_bfs_partition(g, 20, 4);
  const NeighborParts np = exchange_neighbor_parts(net, p);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbs = g.neighbors(v);
    const auto& got = np.of[static_cast<std::size_t>(v)];
    ASSERT_EQ(got.size(), nbs.size());
    for (std::size_t k = 0; k < nbs.size(); ++k)
      EXPECT_EQ(got[k], p.part(nbs[k].node)) << "node " << v << " slot " << k;
  }
}

}  // namespace
}  // namespace lcs
