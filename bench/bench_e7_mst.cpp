/// \file bench_e7_mst.cpp
/// E7 — Lemma 4: MST on shortcut-friendly topologies. Compares
/// shortcut-Boruvka against the pipelined baseline (O(n + D log n)) and the
/// intra-fragment strawman across (a) grids of growing size and (b) wheels
/// of growing size at constant diameter 2 with arc-forcing weights.
///
/// Shape to read off: the asymptotic claim is about
/// *growth*, not constants. On the constant-diameter wheel family the
/// shortcut variant's rounds stay nearly flat as n grows while both
/// baselines scale with n — the crossover the paper predicts. On grids at
/// laptop scale the per-phase shortcut *construction* (Θ(polylog) factors
/// of D) dominates and the classical baselines win on absolute rounds;
/// their growth rates, however, are Θ(n)-ish versus the shortcut variant's
/// Θ(D polylog). All results are verified against Kruskal. Host time of
/// the MST pipeline, end to end and per stage, is measured by the repo
/// benchmark instead (perfbench/README.md).
#include "bench_util.h"
#include "graph/reference.h"
#include "mst/boruvka_intra.h"
#include "mst/boruvka_shortcut.h"
#include "mst/pipeline.h"
#include "util/check.h"
#include "util/random.h"

namespace {

using namespace lcs;
using lcs::bench::Rig;

enum class Algo { kShortcut, kPipeline, kIntra };

Graph arc_forcing_wheel(NodeId n, std::uint64_t seed) {
  const Graph base = make_wheel(n);
  Rng rng(seed);
  std::vector<Graph::Edge> edges;
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    Graph::Edge ed = base.edge(e);
    const bool spoke = ed.u == n - 1 || ed.v == n - 1;
    ed.w = spoke ? 1000000 + rng.next_below(1000) : 1 + rng.next_below(1000);
    edges.push_back(ed);
  }
  return Graph(n, std::move(edges));
}

void run(benchmark::State& state, const Graph& g, Algo algo) {
  for (auto _ : state) {
    Rig rig(g);
    DistributedMst mst;
    switch (algo) {
      case Algo::kShortcut:
        mst = mst_boruvka_shortcut(rig.net, rig.tree);
        break;
      case Algo::kPipeline:
        mst = mst_pipeline(rig.net, rig.tree);
        break;
      case Algo::kIntra:
        mst = mst_boruvka_intra(rig.net, rig.tree);
        break;
    }
    LCS_CHECK(mst.total_weight == kruskal_mst(g).total_weight,
              "distributed MST mismatch");
    state.counters["n"] = g.num_nodes();
    state.counters["D"] = lcs::diameter_double_sweep(g);
    state.counters["rounds"] = static_cast<double>(mst.rounds);
    state.counters["phases"] = mst.phases;
  }
}

void register_algos(const std::string& label, const Graph& g) {
  // The Graph is captured by value in a shared_ptr to outlive registration.
  auto shared = std::make_shared<Graph>(g);
  benchmark::RegisterBenchmark(("E7/" + label + "/shortcut").c_str(),
                               [shared](benchmark::State& s) {
                                 run(s, *shared, Algo::kShortcut);
                               })
      ->Iterations(1)->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(("E7/" + label + "/pipeline").c_str(),
                               [shared](benchmark::State& s) {
                                 run(s, *shared, Algo::kPipeline);
                               })
      ->Iterations(1)->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(("E7/" + label + "/intra").c_str(),
                               [shared](benchmark::State& s) {
                                 run(s, *shared, Algo::kIntra);
                               })
      ->Iterations(1)->Unit(benchmark::kMillisecond);
}

}  // namespace

int register_all = [] {
  using namespace lcs;
  for (const NodeId side : {16, 24, 32, 48}) {
    register_algos(
        "grid-" + std::to_string(side) + "x" + std::to_string(side),
        with_random_weights(make_grid(side, side), 1, 1000000, 5));
  }
  for (const NodeId n : {257, 513, 1025, 2049}) {
    register_algos("wheelD2-" + std::to_string(n), arc_forcing_wheel(n, 5));
  }
  return 0;
}();

LCS_BENCH_MAIN()
