/// \file lcs_trace.cpp
/// The benchmark's traced runs (see README.md in this directory).
///
///   lcs_trace info
///       build type and compiler, as one JSON object
///   lcs_trace mst --spec=SPEC [--threads=T]... [--request=ID] [--replica-first]
///       per thread count: an untraced mst_boruvka_shortcut and the
///       stage-traced replica of its Boruvka phase loop and of
///       find_shortcut_doubling's trial/iteration loop, checked against it
///   lcs_trace serve --requests=FILE --cache-dir=DIR [--preload=SPEC]...
///                   [--threads=T]...
///       replay an lcs_serve request stream in process through
///       driver::run_document with the serve caches as hooks; `mst`
///       requests and shortcut constructions also run their replica check
///       at each --threads
///
/// Spans (name, start, end, parent, request id, engine round/message
/// deltas, work counters) are held in memory and printed with the result
/// as one JSON document when the run ends. Nothing inside src/ is
/// instrumented: every span wraps a call to a public function.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "congest/network.h"
#include "driver/run_driver.h"
#include "graph/partition.h"
#include "graph/reference.h"
#include "mst/boruvka_common.h"
#include "mst/boruvka_shortcut.h"
#include "mst/mwoe.h"
#include "scenario/scenario.h"
#include "serve/cache.h"
#include "shortcut/core_fast.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/part_routing.h"
#include "shortcut/persist.h"
#include "shortcut/representation.h"
#include "shortcut/superstep.h"
#include "shortcut/tree_ops.h"
#include "shortcut/verification.h"
#include "tree/bfs_tree.h"
#include "util/cast.h"
#include "util/check.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/random.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string request;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t rounds = 0;    ///< engine rounds consumed inside the span
  std::int64_t messages = 0;  ///< engine messages sent inside the span
  std::int64_t attempted = 0; ///< work offered (trials, parts, lookups)
  std::int64_t useful = 0;    ///< work that succeeded
};

/// In-memory span recorder. Round and message deltas are read from the
/// network set with `set_network` (none: the deltas stay 0).
class Tracer {
 public:
  void set_request(std::string id) { request_ = std::move(id); }
  const std::string& request() const { return request_; }
  void set_network(const lcs::congest::Network* net) { net_ = net; }

  std::size_t open(const char* name) {
    Span s;
    s.name = name;
    s.request = request_;
    s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    s.start_ns = now_ns();
    if (net_ != nullptr) {
      s.rounds = -net_->total_rounds();
      s.messages = -net_->total_messages();
    }
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t id) {
    LCS_CHECK(!stack_.empty() && stack_.back() == id, "span nesting broken");
    stack_.pop_back();
    Span& s = spans_[id];
    s.end_ns = now_ns();
    if (net_ != nullptr) {
      s.rounds += net_->total_rounds();
      s.messages += net_->total_messages();
    }
  }

  Span& at(std::size_t id) { return spans_[id]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Forget everything recorded from `mark` on (a diagnosis rerun).
  void truncate(std::size_t mark) { spans_.resize(mark); }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  const lcs::congest::Network* net_ = nullptr;
  std::string request_ = "-";
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Span& span() { return tracer_.at(id_); }

 private:
  Tracer& tracer_;
  std::size_t id_;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- replicas --
// The two loops below mirror mst_boruvka_shortcut (mst/boruvka_shortcut.cpp)
// and find_shortcut_doubling / try_find (shortcut/find_shortcut.cpp) call
// for call, so that each public call can carry a span. run_replica_check
// fails the run whenever a replica's result or engine accounting differs
// from the library function's.

using namespace lcs;

std::int32_t auto_iteration_cap(PartId num_parts) {
  const double log_n = std::log2(std::max<double>(2.0, num_parts));
  return util::checked_trunc<std::int32_t>(2.0 * log_n) + 8;
}

std::optional<Shortcut> traced_try_find(Tracer& tr, congest::Network& net,
                                        const SpanningTree& tree,
                                        const Partition& partition,
                                        const FindShortcutParams& params,
                                        std::int32_t max_iterations,
                                        std::int32_t& iterations_used) {
  Scope trial(tr, "shortcut.find.trial");
  trial.span().attempted = 1;
  const NodeId n = net.num_nodes();
  Partition remaining = partition;

  Shortcut combined;
  combined.parts_on_edge.resize(
      static_cast<std::size_t>(net.graph().num_edges()));

  // Parts with members; each iteration retires the ones it fixes.
  std::vector<bool> has_member(static_cast<std::size_t>(partition.num_parts),
                               false);
  for (const PartId j : partition.part_of)
    if (j != kNoPart) has_member[static_cast<std::size_t>(j)] = true;
  std::int64_t parts_open =
      std::count(has_member.begin(), has_member.end(), true);

  for (std::int32_t iter = 0; iter < max_iterations; ++iter) {
    Scope iteration(tr, "shortcut.find.iteration");
    ++iterations_used;

    CoreResult core = [&] {
      Scope s(tr, "shortcut.core_fast");
      return core_fast(net, tree, remaining.part_of,
                       CoreFastParams{params.c, params.gamma,
                                      hash64(params.seed,
                                             static_cast<std::uint64_t>(
                                                 iterations_used))});
    }();
    ShortcutState tentative = [&] {
      Scope s(tr, "shortcut.state");
      return compute_shortcut_state(net, tree, remaining,
                                    std::move(core.shortcut));
    }();
    const NeighborParts neighbor_parts = [&] {
      Scope s(tr, "shortcut.exchange");
      return exchange_neighbor_parts(net, remaining);
    }();
    const VerificationResult verdict = [&] {
      Scope s(tr, "shortcut.verify");
      return verify_block_parameter(net, tree, remaining, tentative,
                                    3 * params.b, neighbor_parts);
    }();

    // The local merge of the good parts: the find span's self time.
    for (EdgeId e = 0; e < net.graph().num_edges(); ++e) {
      const auto& tentative_list =
          tentative.shortcut.parts_on_edge[static_cast<std::size_t>(e)];
      if (tentative_list.empty()) continue;
      auto& out = combined.parts_on_edge[static_cast<std::size_t>(e)];
      std::vector<PartId> merged;
      merged.reserve(out.size() + tentative_list.size());
      std::vector<PartId> kept;
      for (const PartId j : tentative_list) {
        if (verdict.part_good[static_cast<std::size_t>(j)]) kept.push_back(j);
      }
      std::merge(out.begin(), out.end(), kept.begin(), kept.end(),
                 std::back_inserter(merged));
      out = std::move(merged);
    }
    congest::PerNode<bool> still_active(static_cast<std::size_t>(n), false);
    bool any = false;
    for (NodeId v = 0; v < n; ++v) {
      const PartId j = remaining.part(v);
      if (j == kNoPart) continue;
      if (verdict.node_good[static_cast<std::size_t>(v)]) {
        remaining.part_of[static_cast<std::size_t>(v)] = kNoPart;
      } else {
        still_active[static_cast<std::size_t>(v)] = true;
        any = true;
      }
    }
    const std::int64_t fixed = std::count(verdict.part_good.begin(),
                                          verdict.part_good.end(), true);
    iteration.span().attempted = parts_open;
    iteration.span().useful = fixed;
    parts_open -= fixed;

    const bool parts_remain = [&] {
      Scope s(tr, "shortcut.global_or");
      return global_or(net, tree, still_active);
    }();
    LCS_CHECK(parts_remain == any, "termination check disagrees");
    if (!parts_remain) {
      trial.span().useful = 1;
      return combined;
    }
  }
  return std::nullopt;
}

FindShortcutResult traced_find_doubling(Tracer& tr, congest::Network& net,
                                        const SpanningTree& tree,
                                        const Partition& partition,
                                        FindShortcutParams params) {
  Scope find(tr, "shortcut.find");
  LCS_CHECK(params.c >= 1 && params.b >= 1, "parameters must be positive");
  LCS_CHECK(params.use_fast, "the replica covers the CoreFast path only");
  const std::int64_t rounds_before = net.total_rounds();
  const std::int32_t cap = params.max_iterations > 0
                               ? params.max_iterations
                               : auto_iteration_cap(partition.num_parts);

  FindShortcutStats stats;
  stats.trials = 0;
  const std::int64_t limit = 4 * static_cast<std::int64_t>(net.num_nodes()) + 4;
  for (;;) {
    ++stats.trials;
    std::int32_t iterations = 0;
    auto shortcut =
        traced_try_find(tr, net, tree, partition, params, cap, iterations);
    stats.iterations += iterations;
    if (shortcut.has_value()) {
      stats.used_c = params.c;
      stats.used_b = params.b;
      FindShortcutResult result;
      {
        Scope s(tr, "shortcut.state");
        result.state =
            compute_shortcut_state(net, tree, partition, *std::move(shortcut));
      }
      stats.rounds = net.total_rounds() - rounds_before;
      result.stats = stats;
      return result;
    }
    LCS_CHECK(params.c <= limit && params.b <= limit,
              "doubling failed to converge (bug: a trivial shortcut exists)");
    params.c *= 2;
    params.b *= 2;
  }
}

/// Run the library find_shortcut_doubling on a fresh network and report
/// the first way it differs from the replica's phase result.
std::string compare_find(const congest::Network& net, const SpanningTree& tree,
                         const Partition& fragments,
                         const FindShortcutParams& params,
                         const FindShortcutResult& replica,
                         std::int64_t replica_messages, std::int32_t phase) {
  congest::Network ref(net.graph());
  ref.set_validate(net.validate());
  ref.set_threads(net.threads());
  const FindShortcutResult lib =
      find_shortcut_doubling(ref, tree, fragments, params);
  const auto differs = [&](const char* what, std::int64_t got,
                           std::int64_t want) {
    return "phase " + std::to_string(phase) + " shortcut.find: " + what +
           " " + std::to_string(got) + " vs " + std::to_string(want) +
           " in find_shortcut_doubling";
  };
  if (replica.stats.rounds != ref.total_rounds())
    return differs("rounds", replica.stats.rounds, ref.total_rounds());
  if (replica_messages != ref.total_messages())
    return differs("messages", replica_messages, ref.total_messages());
  if (replica.stats.trials != lib.stats.trials)
    return differs("trials", replica.stats.trials, lib.stats.trials);
  if (replica.stats.iterations != lib.stats.iterations)
    return differs("iterations", replica.stats.iterations,
                   lib.stats.iterations);
  if (replica.state.shortcut.parts_on_edge != lib.state.shortcut.parts_on_edge)
    return "phase " + std::to_string(phase) +
           " shortcut.find: the shortcut differs from find_shortcut_doubling's";
  return "";
}

DistributedMst traced_mst(Tracer& tr, congest::Network& net,
                          const SpanningTree& tree, std::uint64_t seed,
                          std::string* divergence) {
  const Graph& g = net.graph();
  const NodeId n = net.num_nodes();
  const std::int64_t rounds_before = net.total_rounds();

  Partition fragments = make_singleton_partition(n);
  std::vector<bool> mst_edge(static_cast<std::size_t>(g.num_edges()), false);
  FindShortcutParams params = ShortcutMstOptions{}.shortcut_params;

  const std::int32_t max_phases =
      8 * util::checked_trunc<std::int32_t>(
              std::log2(std::max<double>(2.0, n))) +
      20;
  std::int32_t phase = 0;
  for (;; ++phase) {
    LCS_CHECK(phase < max_phases, "Boruvka did not converge (bug)");
    Scope phase_span(tr, "mst.phase");

    const NeighborParts neighbor_parts = [&] {
      Scope s(tr, "shortcut.exchange");
      return exchange_neighbor_parts(net, fragments);
    }();

    params.seed = hash64(seed, 0xC0FFEE, phase);
    const std::int64_t messages_before_find = net.total_messages();
    const FindShortcutResult found =
        traced_find_doubling(tr, net, tree, fragments, params);
    // Localizing a mismatch: the first phase whose FindShortcut differs.
    if (divergence != nullptr && divergence->empty())
      *divergence = compare_find(
          net, tree, fragments, params, found,
          net.total_messages() - messages_before_find, phase);
    params.c = found.stats.used_c;
    params.b = found.stats.used_b;
    const std::int32_t b_steps = 3 * found.stats.used_b;

    const auto local = [&] {
      Scope s(tr, "mst.local");
      return local_mwoe_candidates(g, fragments, neighbor_parts);
    }();
    const auto mwoe = [&] {
      Scope s(tr, "mst.min_flood");
      return part_min_flood(net, tree, fragments, found.state, neighbor_parts,
                            b_steps, local);
    }();

    StarMergeStep step = [&] {
      Scope s(tr, "mst.local");
      return star_merge_step(g, fragments, neighbor_parts, mwoe, seed, phase,
                             mst_edge);
    }();
    const auto delivered = [&] {
      Scope s(tr, "mst.broadcast");
      return part_broadcast(net, tree, fragments, found.state, neighbor_parts,
                            b_steps, step.proposals);
    }();
    {
      Scope s(tr, "mst.local");
      apply_merges(fragments, delivered);
    }

    const bool more = [&] {
      Scope s(tr, "shortcut.global_or");
      return global_or(net, tree, step.has_outgoing);
    }();
    if (!more) break;
  }

  return finish_mst(g, mst_edge, phase + 1,
                    net.total_rounds() - rounds_before);
}

// --------------------------------------------------------- replica check --

struct ReplicaRun {
  std::string request;
  std::string kind;  ///< "mst" or "shortcut" (a serve-stream construction)
  int threads = 1;
  double library_s = 0;  ///< untraced library call (tree excluded)
  double replica_s = 0;  ///< traced replica (tree excluded)
  std::int64_t rounds = 0;    ///< setup (BFS tree) + MST, replica
  std::int64_t messages = 0;
  std::int32_t phases = 0;
  bool match = false;
  std::string mismatch;  ///< empty when match
};

void configure(congest::Network& net, int threads, bool validate = true) {
  net.set_validate(validate);  // MST jobs run as lcs_run --validate
  net.set_threads(threads);
}

/// Untraced library run, then the traced replica on a fresh network of the
/// same configuration; the replica must reproduce the MST edges and the
/// engine's totals exactly, and the edges must equal Kruskal's.
ReplicaRun run_replica_check(Tracer& tr, const Graph& g, const MstResult& truth,
                             int threads, std::uint64_t seed,
                             bool replica_first) {
  ReplicaRun run;
  run.kind = "mst";
  run.threads = threads;

  // Which of the two runs goes first alternates between calls, so that
  // warm-up effects do not bias trace.overhead_s in either direction.
  congest::Network lib_net(g);
  configure(lib_net, threads);
  DistributedMst lib;
  const auto run_library = [&] {
    const SpanningTree lib_tree = build_bfs_tree(lib_net, /*root=*/0);
    ShortcutMstOptions opts;
    opts.seed = seed;
    const auto t0 = Clock::now();
    lib = mst_boruvka_shortcut(lib_net, lib_tree, opts);
    run.library_s = seconds_since(t0);
  };
  if (!replica_first) run_library();

  // Replica spans carry the thread count in their request id.
  const std::string request = tr.request();
  tr.set_request(request + "/t" + std::to_string(threads));
  congest::Network net(g);
  configure(net, threads);
  tr.set_network(&net);
  const SpanningTree tree = [&] {
    Scope s(tr, "tree.bfs");
    return build_bfs_tree(net, /*root=*/0);
  }();
  const auto t0 = Clock::now();
  DistributedMst rep = traced_mst(tr, net, tree, seed, nullptr);
  run.replica_s = seconds_since(t0);
  tr.set_network(nullptr);
  tr.set_request(request);
  if (replica_first) run_library();

  run.rounds = net.total_rounds();
  run.messages = net.total_messages();
  run.phases = rep.phases;

  const auto mismatch = [&]() -> std::string {
    if (rep.edges != truth.edges) return "replica MST edges differ from kruskal_mst";
    if (lib.edges != truth.edges) return "mst_boruvka_shortcut edges differ from kruskal_mst";
    if (net.total_rounds() != lib_net.total_rounds() ||
        net.total_messages() != lib_net.total_messages() ||
        rep.phases != lib.phases)
      return "totals: replica " + std::to_string(net.total_rounds()) +
             " rounds / " + std::to_string(net.total_messages()) +
             " messages / " + std::to_string(rep.phases) +
             " phases vs mst_boruvka_shortcut " +
             std::to_string(lib_net.total_rounds()) + " / " +
             std::to_string(lib_net.total_messages()) + " / " +
             std::to_string(lib.phases);
    return "";
  }();
  run.match = mismatch.empty();
  if (!run.match) {
    // Localize: rerun the replica comparing every phase's FindShortcut with
    // the library's on identical inputs. The rerun's spans are dropped.
    congest::Network diag(g);
    configure(diag, threads);
    const SpanningTree diag_tree = build_bfs_tree(diag, /*root=*/0);
    std::string divergence;
    const std::size_t diag_mark = tr.spans().size();
    (void)traced_mst(tr, diag, diag_tree, seed, &divergence);
    tr.truncate(diag_mark);
    run.mismatch = mismatch + "; first divergent stage: " +
                   (divergence.empty() ? std::string("mst phase loop (every "
                                                     "phase's shortcut.find "
                                                     "matched)")
                                       : divergence);
  }
  return run;
}

/// A shortcut construction of the serve stream: the untraced library
/// find_shortcut_doubling, then the traced replica, each on a fresh network
/// of the request's configuration at `threads`. Both must reproduce the
/// record the serve path built (shortcut, engine totals, trials,
/// iterations); the engine is bit-identical across thread counts.
ReplicaRun run_find_check(Tracer& tr, const scenario::Scenario& sc,
                          const ShortcutRunRecord& record, int threads,
                          bool validate, bool replica_first) {
  ReplicaRun run;
  run.kind = "shortcut";
  run.threads = threads;
  FindShortcutParams params;  // as the default (hiz16) backend builds it
  params.seed = record.seed;

  congest::Network lib_net(sc.graph);
  configure(lib_net, threads, validate);
  FindShortcutResult lib;
  const auto run_library = [&] {
    const SpanningTree lib_tree = build_bfs_tree(lib_net, /*root=*/0);
    const auto t0 = Clock::now();
    lib = find_shortcut_doubling(lib_net, lib_tree, sc.partition, params);
    run.library_s = seconds_since(t0);
  };
  if (!replica_first) run_library();

  const std::string request = tr.request();
  tr.set_request(request + "/t" + std::to_string(threads));
  congest::Network net(sc.graph);
  configure(net, threads, validate);
  tr.set_network(&net);
  const SpanningTree tree = [&] {
    Scope s(tr, "tree.bfs");
    return build_bfs_tree(net, /*root=*/0);
  }();
  const auto t0 = Clock::now();
  const FindShortcutResult rep =
      traced_find_doubling(tr, net, tree, sc.partition, params);
  run.replica_s = seconds_since(t0);
  tr.set_network(nullptr);
  tr.set_request(request);
  if (replica_first) run_library();

  run.rounds = net.total_rounds();
  run.messages = net.total_messages();
  const std::int64_t want_rounds = record.setup_rounds + record.algo_rounds;
  const std::int64_t want_messages =
      record.setup_messages + record.algo_messages;
  const auto totals = [&](const char* who, const congest::Network& n) {
    return std::string(who) + " " + std::to_string(n.total_rounds()) +
           " rounds / " + std::to_string(n.total_messages()) +
           " messages vs the serve record's " + std::to_string(want_rounds) +
           " / " + std::to_string(want_messages);
  };
  if (rep.state.shortcut.parts_on_edge != record.shortcut.parts_on_edge)
    run.mismatch = "replica shortcut differs from the serve record's";
  else if (lib.state.shortcut.parts_on_edge != record.shortcut.parts_on_edge)
    run.mismatch =
        "find_shortcut_doubling's shortcut differs from the serve record's";
  else if (net.total_rounds() != want_rounds ||
           net.total_messages() != want_messages)
    run.mismatch = totals("replica", net);
  else if (lib_net.total_rounds() != want_rounds ||
           lib_net.total_messages() != want_messages)
    run.mismatch = totals("find_shortcut_doubling", lib_net);
  else if (rep.stats.trials != record.stats.trials ||
           rep.stats.iterations != record.stats.iterations)
    run.mismatch = "replica trials/iterations " +
                   std::to_string(rep.stats.trials) + "/" +
                   std::to_string(rep.stats.iterations) +
                   " vs the serve record's " +
                   std::to_string(record.stats.trials) + "/" +
                   std::to_string(record.stats.iterations);
  run.match = run.mismatch.empty();
  return run;
}

// ---------------------------------------------------------------- output --

void write_spans(JsonWriter& w, const std::vector<Span>& spans) {
  w.key("spans").begin_array();
  for (const Span& s : spans) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("request", s.request);
    w.kv("parent", s.parent);
    w.kv("start_ns", s.start_ns);
    w.kv("end_ns", s.end_ns);
    w.kv("rounds", s.rounds);
    w.kv("messages", s.messages);
    w.kv("attempted", s.attempted);
    w.kv("useful", s.useful);
    w.end_object();
  }
  w.end_array();
}

void write_runs(JsonWriter& w, const std::vector<ReplicaRun>& runs) {
  w.key("replicas").begin_array();
  for (const ReplicaRun& r : runs) {
    w.begin_object();
    w.kv("request", r.request);
    w.kv("kind", r.kind);
    w.kv("threads", static_cast<std::int64_t>(r.threads));
    w.kv("library_s", r.library_s);
    w.kv("replica_s", r.replica_s);
    w.kv("rounds", r.rounds);
    w.kv("messages", r.messages);
    w.kv("phases", static_cast<std::int64_t>(r.phases));
    w.kv("match", r.match);
    w.kv("mismatch", r.mismatch);
    w.end_object();
  }
  w.end_array();
}

struct Args {
  std::string mode;
  std::string spec;
  std::vector<int> threads;
  std::vector<std::string> preload;
  std::string requests_path;
  std::string cache_dir;
  std::string request = "0";
  bool replica_first = false;
};

bool take(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  out = arg + len + 1;
  return true;
}

Args parse_args(int argc, char** argv) {
  LCS_CHECK(argc >= 2, "usage: lcs_trace info|mst|serve [options]");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string v;
    if (take(argv[i], "--spec", v)) a.spec = v;
    else if (take(argv[i], "--threads", v)) a.threads.push_back(std::stoi(v));
    else if (take(argv[i], "--request", v)) a.request = v;
    else if (take(argv[i], "--preload", v)) a.preload.push_back(v);
    else if (take(argv[i], "--requests", v)) a.requests_path = v;
    else if (take(argv[i], "--cache-dir", v)) a.cache_dir = v;
    else if (std::strcmp(argv[i], "--replica-first") == 0) a.replica_first = true;
    else LCS_CHECK(false, std::string("unknown option '") + argv[i] + "'");
  }
  if (a.threads.empty()) a.threads.push_back(1);
  return a;
}

int run_info() {
  JsonWriter w(std::cout, 0);
  w.begin_object();
  w.kv("build_type", LCS_BENCH_BUILD_TYPE);
#if defined(__clang__)
  w.kv("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  w.kv("compiler", std::string("gcc ") + __VERSION__);
#else
  w.kv("compiler", "unknown");
#endif
  w.end_object();
  w.finish();
  return 0;
}

/// The algorithm seed lcs_run uses when given no --seed, which is how the
/// benchmark runs it; the replica must use the same one to match it.
const std::uint64_t kLcsRunSeed = driver::RunOptions{}.seed;

int run_mst(const Args& a) {
  LCS_CHECK(!a.spec.empty(), "mst takes a --spec");
  Tracer tr;
  tr.set_request(a.request);
  const scenario::Scenario sc = [&] {
    Scope s(tr, "scenario.make");
    return scenario::make_scenario(a.spec);
  }();
  const MstResult truth = kruskal_mst(sc.graph);
  std::vector<ReplicaRun> runs;
  bool replica_first = a.replica_first;
  for (const int t : a.threads) {
    runs.push_back(
        run_replica_check(tr, sc.graph, truth, t, kLcsRunSeed, replica_first));
    replica_first = !replica_first;
    runs.back().request = a.request;
  }
  JsonWriter w(std::cout, 0);
  w.begin_object();
  write_runs(w, runs);
  write_spans(w, tr.spans());
  w.end_object();
  w.finish();
  return 0;
}

driver::RunOptions parse_request(const JsonValue& v) {
  driver::RunOptions o;
  for (const auto& [key, val] : v.as_object("request")) {
    const std::string what = "request field '" + key + "'";
    if (key == "id") continue;
    else if (key == "algo") o.algo = val.as_string(what);
    else if (key == "scenario") o.scenario = val.as_string(what);
    else if (key == "churn") o.churn = val.as_string(what);
    else if (key == "seed") o.seed = val.as_uint(what);
    else if (key == "threads") o.threads = util::checked_cast<int>(val.as_int(what));
    else if (key == "fail_rate") o.fail_rate = val.as_double(what);
    else if (key == "validate") o.validate = val.as_bool(what);
    else if (key == "metrics") o.metrics = val.as_bool(what);
    else if (key == "timing") o.timing = val.as_bool(what);
    else LCS_CHECK(false, "the replay does not take request field '" + key + "'");
  }
  return o;
}

/// Every field the replay takes, apart from the id.
std::string request_key(const driver::RunOptions& o) {
  return o.algo + "|" + o.scenario + "|" + o.churn + "|" +
         std::to_string(o.seed) + "|" + std::to_string(o.threads) + "|" +
         std::to_string(o.fail_rate) + "|" + std::to_string(o.validate) +
         std::to_string(o.metrics) + std::to_string(o.timing);
}

int run_serve(const Args& a) {
  serve::ScenarioCache scenarios(a.cache_dir);
  serve::ShortcutRecordCache records(a.cache_dir);
  Tracer tr;

  // Scenario generation, then the daemon's --preload.
  tr.set_request("preload");
  for (const std::string& spec : a.preload) {
    {
      Scope s(tr, "scenario.make");
      (void)scenario::make_scenario(spec);
    }
    Scope s(tr, "scenario.preload");
    (void)scenarios.resolve(spec);
  }

  driver::RunHooks hooks;
  hooks.resolve_scenario = [&](const std::string& spec) {
    Scope s(tr, "scenario.resolve");
    const std::int64_t hits_before = scenarios.stats().memory_hits;
    auto sc = scenarios.resolve(spec);
    s.span().attempted = 1;
    s.span().useful = scenarios.stats().memory_hits - hits_before;
    return sc;
  };
  hooks.find_shortcut_record = [&](const driver::ShortcutCacheKey& key,
                                   const scenario::Scenario& sc) {
    Scope s(tr, "shortcut.record_find");
    auto rec = records.find(key, sc);
    s.span().attempted = 1;
    s.span().useful = rec ? 1 : 0;
    return rec;
  };
  std::shared_ptr<const ShortcutRunRecord> constructed;
  hooks.store_shortcut_record =
      [&](const driver::ShortcutCacheKey& key, const scenario::Scenario& sc,
          const std::shared_ptr<const ShortcutRunRecord>& record) {
        Scope s(tr, "serve.store");
        records.store(key, sc, record);
        constructed = record;
      };

  std::ifstream in(a.requests_path);
  LCS_CHECK(in.good(), "cannot read '" + a.requests_path + "'");
  JsonWriter w(std::cout, 0);
  w.begin_object();
  w.key("requests").begin_array();
  std::vector<ReplicaRun> runs;
  std::int64_t replicated = 0;
  // Requests seen so far, as the daemon's response memo tells them apart:
  // its exact repeats cost no engine work there, so they get no replica.
  std::set<std::string> seen;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue v = parse_json(line);
    const JsonValue* id = v.find("id", "request");
    LCS_CHECK(id != nullptr, "replayed requests need an id");
    tr.set_request(id->as_string("request field 'id'"));
    const driver::RunOptions o = parse_request(v);
    std::string body;
    int rc = 0;
    double ms = 0;
    constructed.reset();
    {
      Scope s(tr, "driver.run_document");
      const auto t0 = Clock::now();
      // The daemon's error mapping, so that error bodies compare too.
      try {
        rc = driver::run_document(o, hooks, body);
      } catch (const CheckFailure& e) {
        rc = 2;
        body = driver::error_document("check_failure", e.what(), 2);
      } catch (const std::exception& e) {
        rc = 3;
        body = driver::error_document("exception", e.what(), 3);
      }
      ms = 1000.0 * seconds_since(t0);
    }
    w.begin_object();
    w.kv("id", id->as_string("request field 'id'"));
    w.kv("ms", ms);
    w.kv("exit", static_cast<std::int64_t>(rc));
    w.kv("body", body);
    w.end_object();

    // The stream's engine work, replayed stage by stage: its MST requests
    // and the shortcut constructions (record-cache misses).
    const bool repeat = !seen.insert(request_key(o)).second;
    if ((o.algo == "mst" && !repeat) || constructed) {
      const auto sc = scenarios.resolve(o.scenario);
      const MstResult truth =
          o.algo == "mst" ? kruskal_mst(sc->graph) : MstResult{};
      bool replica_first = replicated++ % 2 == 1;
      for (const int t : a.threads) {
        runs.push_back(o.algo == "mst"
                           ? run_replica_check(tr, sc->graph, truth, t, o.seed,
                                               replica_first)
                           : run_find_check(tr, *sc, *constructed, t,
                                            o.validate, replica_first));
        replica_first = !replica_first;
        runs.back().request = id->as_string("request field 'id'");
      }
    }
  }
  w.end_array();
  write_runs(w, runs);
  write_spans(w, tr.spans());
  w.end_object();
  w.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "info") return run_info();
    if (a.mode == "mst") return run_mst(a);
    if (a.mode == "serve") return run_serve(a);
    LCS_CHECK(false, "unknown mode '" + a.mode + "' (info, mst, serve)");
  } catch (const std::exception& e) {
    std::cerr << "lcs_trace: " << e.what() << "\n";
    return 2;
  }
  return 2;
}
