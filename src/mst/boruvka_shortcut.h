/// \file boruvka_shortcut.h
/// Lemma 4: distributed MST via Boruvka + tree-restricted shortcuts.
///
/// Each phase: (1) neighbors exchange fragment ids; (2) FindShortcut (with
/// Appendix-A doubling, warm-started from the previous phase) constructs a
/// shortcut for the current fragment partition; (3) the fragment MWOE is
/// min-flooded over the shortcut supergraph (Theorem 2 routing); (4) star
/// merges are proposed, broadcast over the same shortcut, and applied; (5)
/// an O(D) tree OR-convergecast decides termination. On graphs with good
/// shortcuts every phase costs Õ(D), giving Õ(D) MST overall — the paper's
/// headline application.
///
/// The phase loop is shared: `run_shortcut_boruvka` takes the per-node
/// candidate rule of step (3), so the MST (minimum weight) and the
/// components app (smallest alive edge id, apps/components.h) run the same
/// code.
#pragma once

#include <functional>
#include <vector>

#include "congest/network.h"
#include "congest/process.h"
#include "graph/partition.h"
#include "mst/mwoe.h"
#include "shortcut/find_shortcut.h"
#include "shortcut/superstep.h"
#include "tree/spanning_tree.h"

namespace lcs {

struct ShortcutMstOptions {
  std::uint64_t seed = 1;  ///< drives coins and CoreFast sampling
  /// Initial doubling estimates; successful values are carried between
  /// phases so later phases usually need a single trial.
  FindShortcutParams shortcut_params;
};

/// Compute the MST of `net.graph()` (weights must fit 32 bits). Returns the
/// exact MST under the (weight, edge id) order — identical to kruskal_mst.
DistributedMst mst_boruvka_shortcut(congest::Network& net,
                                    const SpanningTree& tree,
                                    const ShortcutMstOptions& options = {});

/// Step (3)'s local rule: each node's packed outgoing candidate
/// (kNoCandidate if none) for the current fragments. Zero rounds.
using FragmentCandidates = std::function<congest::PerNode<std::uint64_t>(
    const Partition& fragments, const NeighborParts& neighbor_parts)>;

/// What the Boruvka loop leaves: the final fragments, every fragment MWOE
/// it merged along (see star_merge_step), and its cost.
struct ShortcutBoruvkaResult {
  Partition fragments;
  std::vector<bool> merge_edge;
  std::int32_t phases = 0;
  std::int64_t rounds = 0;
};

/// Run phases (1)–(5) from singleton fragments until no fragment has an
/// outgoing candidate. Phase p's FindShortcut seed is hash64(seed, salt, p)
/// and its coins come from `seed`; `params` are the first phase's doubling
/// estimates.
ShortcutBoruvkaResult run_shortcut_boruvka(
    congest::Network& net, const SpanningTree& tree,
    const FragmentCandidates& candidates, std::uint64_t seed,
    std::uint64_t salt, FindShortcutParams params);

}  // namespace lcs
