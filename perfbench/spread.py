#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload mst-grid --seeds 1-10

Runs run.py once per seed (untraced, BENCHMARK.json's run_seconds) and
prints, per metric, the median and the interquartile distance as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's
bound, and the spread of the measured (raw-second) values that run.py
prints on its `# reference` line. Raw results are appended to
.bench_build/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    values = {}
    measured = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, check=True, capture_output=True, text=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("# reference "):
                ref = json.loads(line[len("# reference "):])
                for name, v in ref["measured"].items():
                    measured.setdefault(name, []).append(v)
        with open(os.path.join(ROOT, ".bench_build", "spread.jsonl"), "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 "result": result}) + "\n")
        if not result["correct"]:
            sys.exit(f"seed {seed}: correct=false")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    def spread(xs):
        q1, _, q3 = statistics.quantiles(xs, n=4)
        return (q3 - q1) / statistics.median(xs)

    print(f"{args.workload}: {len(args.seeds)} seeds")
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        print(f"  {m['name']:16s} median {statistics.median(xs):14.6g} "
              f"spread {spread(xs):6.3f} bound {m['bound']}  "
              f"(measured {spread(measured[m['name']]):6.3f})")


if __name__ == "__main__":
    main()
