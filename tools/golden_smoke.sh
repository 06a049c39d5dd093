#!/usr/bin/env bash
# End-to-end determinism regression gate.
#
# Runs `lcs_run` over a scenario x algorithm matrix (every algorithm on
# every spec, including the four new families and a binary `file:` corpus),
# with --validate (CONGEST checks on + centralized-oracle verification) and
# --no-timing (byte-stable reports), then:
#
#   1. diffs each report byte-for-byte against the committed golden in
#      tests/goldens/ — any drift in round/message accounting, shortcut
#      quality, graph generation, or report formatting fails the gate;
#   2. re-runs each cell at --threads 2 and 4 with --parallel-threshold=0
#      (every round run on the engine's worker pool) and requires the
#      report to be bit-identical to the single-threaded one — the engine's
#      determinism contract, observed end to end.
#
# Cells run concurrently, at most `nproc` at a time; failure messages are
# printed per cell, in launch order, after all cells finish.
#
# The matrix also pins one `--sweep` invocation (a JSON array of per-point
# reports), so the sweep plumbing is under the same byte-exact gate.
#
# Usage:
#   tools/golden_smoke.sh <lcs_run-binary> <goldens-dir> [--update]
#
# --update regenerates the goldens from the current binary (review the diff
# before committing); `tools/regen_goldens.sh` wraps this for the common
# case. Registered as the `golden_matrix` ctest and run in CI.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <lcs_run-binary> <goldens-dir> [--update]" >&2
  exit 2
fi

LCS_RUN=$(realpath "$1")
GOLDENS=$(realpath "$2")
UPDATE=${3:-}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
cd "$TMP"  # file: specs use a relative path so reports are location-free

# Build the corpus for the file: scenario the way a user would: generate
# once, cache as a versioned binary.
"$LCS_RUN" --algo=shortcut --scenario="ktree:n=120,k=3,seed=8" \
  --no-timing --save-graph=corpus.bin --out=/dev/null

NAMES=()
SPECS=()
add() { NAMES+=("$1"); SPECS+=("$2"); }
add grid16   "grid:w=16,h=16"
add torus12  "torus:w=12,h=12"
add er300    "er:n=300,deg=6,seed=5"
add maze16   "maze:w=16,h=16,keep=0.3,seed=9"
add wheel257 "wheel:n=257,arcs=8"
add lb8      "lb:paths=8"
add rmat8    "rmat:scale=8,deg=6,seed=3"
add ba300    "ba:n=300,m=3,seed=4"
add rreg256  "rreg:n=256,d=4,seed=6"
add ktree300 "ktree:n=300,k=3,seed=8"
add corpus   "file:corpus.bin"

ALGOS=(components mst mincut aggregate shortcut)

# check_cell LABEL KEY NONZERO_NOTE HINT LCS_RUN_ARGS...
# One cell of the matrix: the single-threaded report ($TMP/KEY.json) is
# diffed against (or, with --update, copied to) the golden $GOLDENS/KEY.json,
# then re-run at --threads 2 and 4 with --parallel-threshold=0 and diffed
# against the single-threaded one. LABEL names the cell in failure
# messages, NONZERO_NOTE follows "exited nonzero" and HINT follows a drift
# report. Prints failures on stderr; returns 1 if any.
check_cell() {
  local label=$1 key=$2 nonzero_note=$3 hint=$4
  shift 4
  local out="$TMP/$key.json" golden="$GOLDENS/$key.json" failed=0
  if ! "$LCS_RUN" "$@" --validate --no-timing --out="$out"; then
    echo "FAIL: $label exited nonzero$nonzero_note" >&2
    return 1
  fi
  if [[ "$UPDATE" == "--update" ]]; then
    cp "$out" "$golden"
  elif ! diff -u "$golden" "$out" >&2; then
    echo "FAIL: $label drifted from the committed golden" >&2
    [[ -z "$hint" ]] || echo "$hint" >&2
    failed=1
  fi
  local threads tout
  for threads in 2 4; do
    tout="$TMP/$key.t$threads.json"
    if ! "$LCS_RUN" "$@" --validate --no-timing --threads="$threads" \
        --parallel-threshold=0 --out="$tout"; then
      echo "FAIL: $label exited nonzero at --threads $threads" >&2
      failed=1
    elif ! diff -u "$out" "$tout" >&2; then
      echo "FAIL: $label not bit-identical at --threads $threads" >&2
      failed=1
    fi
  done
  return "$failed"
}

# Cells run concurrently, at most one per CPU. Each writes its messages to
# its own log, printed in launch order once all have finished, so the
# output does not depend on scheduling.
JOBS=$(nproc 2>/dev/null || echo 1)
NCELLS=0
spawn_cell() {
  local idx=$NCELLS
  NCELLS=$((NCELLS + 1))
  while [[ $(jobs -rp | wc -l) -ge $JOBS ]]; do wait -n || true; done
  { check_cell "$@" 2>"$TMP/cell$idx.log" || touch "$TMP/cell$idx.failed"; } &
}

[[ "$UPDATE" != "--update" ]] || mkdir -p "$GOLDENS"
REGEN_ALL_HINT="      (deliberate edge-stream/schema change? regenerate ALL
      goldens in the same PR: tools/regen_goldens.sh)"
REGEN_HINT="      (deliberate change? regenerate: tools/regen_goldens.sh)"

# Churn cells: the acceptance loop for the dynamic subsystem. Each drives a
# 1000-step verified insert/delete stream (every mutation checked against
# the from-scratch components + MSF oracles) over a different family, and
# --validate adds a distributed-MST engine run over the final snapshot — so
# the threads 2/4 re-runs exercise the engine's worker pool and the whole
# report must stay bit-identical. They are the slowest cells (churn_ktree300
# alone runs ~7 s per thread count), so they are launched first.
CHURN_NAMES=()
CHURN_SPECS=()
churn_add() { CHURN_NAMES+=("$1"); CHURN_SPECS+=("$2"); }
churn_add churn_er300 \
  "churn:base=er:n=300,deg=6,seed=5;steps=1000,rate=0.02,seed=7"
churn_add churn_ktree300 \
  "churn:base=ktree:n=300,k=3,seed=8;steps=1000,rate=0.02,dfrac=0.4,seed=7,weights=1-64"
churn_add churn_ba300 \
  "churn:base=ba:n=300,m=3,seed=4;steps=1000,rate=0.03,seed=7,verify=sample,vperiod=32"

for i in "${!CHURN_NAMES[@]}"; do
  spawn_cell "${CHURN_NAMES[$i]}" "${CHURN_NAMES[$i]}.churn" \
    " (verification or runtime error)" "$REGEN_HINT" \
    --algo=churn --scenario="${CHURN_SPECS[$i]}" --seed=7
done

for i in "${!NAMES[@]}"; do
  for algo in "${ALGOS[@]}"; do
    spawn_cell "${NAMES[$i]}/$algo" "${NAMES[$i]}.$algo" \
      " (validation or runtime error)" "$REGEN_ALL_HINT" \
      --algo="$algo" --scenario="${SPECS[$i]}" --seed=7
  done
done

# Backend cells: the same byte-exact gate over the non-default shortcut
# constructions (--backend). One ktree scenario, every registered backend —
# kkoi19 (treewidth elimination tree) is only applicable there. Besides
# pinning the reports, this section asserts the quality claim the backends
# exist for: kkoi19's congestion on this cell is STRICTLY below hiz16's
# (the elimination tree keeps every part's Steiner subtree narrow).
for be in hiz16 kkoi19 naive; do
  spawn_cell "ktree400/$be" "ktree400.$be" " (validation or runtime error)" \
    "$REGEN_HINT" --algo=shortcut --scenario="ktree:n=400,k=4,seed=3" \
    --backend="$be" --seed=7
done

# One --sweep cell: a JSON array of per-point reports, byte-pinned and
# thread-invariant like every single-run cell.
spawn_cell sweep_er/components sweep_er.components "" "$REGEN_HINT" \
  --algo=components --scenario="er:n=100,deg=4,seed=5" \
  --sweep="n=100..400:x2" --seed=7

wait
fail=0
for ((i = 0; i < NCELLS; i++)); do
  cat "$TMP/cell$i.log" >&2
  [[ ! -e "$TMP/cell$i.failed" ]] || fail=1
done

congestion_of() {  # first "congestion" value in a report
  grep -o '"congestion": [0-9]*' "$1" | head -1 | grep -o '[0-9]*'
}
hiz16_cong=$(congestion_of "$TMP/ktree400.hiz16.json" || true)
kkoi19_cong=$(congestion_of "$TMP/ktree400.kkoi19.json" || true)
if [[ -z "$hiz16_cong" || -z "$kkoi19_cong" ||
      "$kkoi19_cong" -ge "$hiz16_cong" ]]; then
  echo "FAIL: kkoi19 congestion ($kkoi19_cong) is not strictly below" \
       "hiz16's ($hiz16_cong) on ktree400" >&2
  fail=1
fi

if [[ "$UPDATE" == "--update" ]]; then
  echo "goldens regenerated in $GOLDENS"
  exit 0
fi
if [[ $fail -ne 0 ]]; then
  echo "golden matrix: FAILED" >&2
  exit 1
fi
echo "golden matrix: ${#NAMES[@]} scenarios x ${#ALGOS[@]} algorithms + 3 backend + ${#CHURN_NAMES[@]} churn + 1 sweep OK (threads 1/2/4 bit-identical)"
