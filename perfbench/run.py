#!/usr/bin/env python3
"""The repository benchmark: one workload run, one JSON result line.

    python3 perfbench/run.py --workload mst-grid --seed 1 --seconds 30 --trace 0

Builds the repository's tools and the traced-run harness (lcs_trace) into
.bench_build/, runs the workload on inputs made from --seed, checks every
output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
A `# meta` line before it records the host, build and source. The full
record, spans included, goes to .bench_build/results/. See README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RESULTS = os.path.join(BUILD_ROOT, "results")

# Never used while tuning the benchmark: re-check claims on it.
HELD_OUT_SEED = 20261017

# MST workloads: every run measures the same number of instances, each a
# fresh graph drawn from the run seed (spec seed=/wseed=), so that one
# unlucky instance cannot move a run's totals much. The algorithm seed
# stays lcs_run's default.
MST_WORKLOADS = {
    "mst-grid": ("grid:w=32,h=32,weights=1-100000,wseed={s}", 3),
    "mst-er": ("er:n=600,deg=6,weights=1-1000,seed={s},wseed={s}", 3),
}
MST_THREADS = (1, 4)
SETUP_PROBES_PER_JOB = 3

SERVE_IN_FLIGHT = 4
SERVE_WORKERS = (1, 4)
MEMO_GAP = 8  # a repeat follows its original by at least this many requests

# Time metrics are in reference seconds: measured seconds times REF_S over
# the median time of perfbench_ref in the same run, sampled between the
# jobs. This cancels the host's speed swings, which the reference follows
# (README.md, "Reference seconds").
REF_S = 0.15
TIME_METRICS = ("setup_s", "wall_s", "wall_s_4t", "cpu_s_4t",
                "latency_p50_ms", "latency_p90_ms")
RATE_METRICS = ("requests_per_s",)

WATCHDOG_S = 170

_children = []
_children_lock = threading.Lock()
_expired = threading.Event()  # the watchdog fired: start nothing more


class Failure(Exception):
    """A response or harness output that cannot be read: the run stops
    without printing a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------- building --

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no repository source next to perfbench/ "
            "(expected ../CMakeLists.txt and ../src)")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "lcs_run", "lcs_serve", "lcs_trace", "perfbench_ref"],
                   check=True, stdout=sys.stderr)


def tool(name):
    if name in ("lcs_trace", "perfbench_ref"):
        return os.path.join(BUILD, name)
    return os.path.join(BUILD, "lcs", name)


def metadata():
    info = json.loads(subprocess.run([tool("lcs_trace"), "info"], check=True,
                                     capture_output=True, text=True).stdout)
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {"nproc": os.cpu_count(), "build_type": info["build_type"],
            "compiler": info["compiler"], "commit": commit,
            "source_sha256": digest.hexdigest(),
            "held_out_seed": HELD_OUT_SEED}


# -------------------------------------------------------------- processes --

def spawn(argv, **kw):
    if _expired.is_set():
        raise Failure(f"the run exceeded {WATCHDOG_S} s")
    p = subprocess.Popen(argv, **kw)
    with _children_lock:
        _children.append(p)
    return p


def reap(p):
    """Wait for `p`; returns its rusage (CPU time and peak RSS)."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    with _children_lock:
        _children.remove(p)
    return usage


def expire():
    _expired.set()
    kill_children()


def kill_children():
    # os.kill, not Popen.kill: Popen.kill may reap the child, and reap()
    # must stay the one place that waits (it needs the rusage).
    with _children_lock:
        for p in _children:
            os.kill(p.pid, signal.SIGKILL)


def stop(p):
    os.kill(p.pid, signal.SIGKILL)
    reap(p)


def stop_children():
    """Kill whatever is still running and wait for it to end."""
    with _children_lock:
        left = list(_children)
    for p in left:
        stop(p)


def run_job(argv, errlog):
    """Run one process to completion; returns (rc, stdout, wall, usage)."""
    t0 = time.perf_counter()
    p = spawn(argv, stdout=subprocess.PIPE, stderr=errlog)
    out = p.stdout.read()
    p.stdout.close()
    usage = reap(p)
    return p.returncode, out, time.perf_counter() - t0, usage


def median(xs):
    return statistics.median(xs)


def percentile(xs, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    ys = sorted(xs)
    k = (len(ys) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ys) - 1)
    return ys[lo] + (ys[hi] - ys[lo]) * (k - lo)


def sim_of(doc):
    rounds = messages = 0
    for part in ("setup", "result"):
        sec = doc.get(part)
        if isinstance(sec, dict):
            rounds += sec.get("rounds", 0)
            messages += sec.get("messages", 0)
    return rounds, messages


class Reference:
    """perfbench_ref samples taken between a run's jobs."""

    def __init__(self, errlog):
        self.errlog = errlog
        self.samples = []
        self.checksums = set()

    def sample(self):
        rc, out, _, _ = run_job([tool("perfbench_ref")], self.errlog)
        fields = out.split()
        if rc != 0 or len(fields) != 2:
            raise Failure(f"perfbench_ref: exit {rc}, output {out!r}")
        self.samples.append(float(fields[0]))
        self.checksums.add(fields[1])

    def normalize(self, metrics, tally, extra):
        """The metrics in reference seconds; the measured ones go to
        `extra`."""
        tally.check(len(self.checksums) == 1,
                    f"perfbench_ref checksums differ: {self.checksums}")
        scale = REF_S / median(self.samples)
        extra["reference"] = {"samples_s": self.samples, "scale": scale,
                              "measured": dict(metrics)}
        out = dict(metrics)
        for k in TIME_METRICS:
            out[k] = metrics[k] * scale
        for k in RATE_METRICS:
            out[k] = metrics[k] / scale
        return out


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
            log("perfbench: FAILED: " + what)
        return ok


# ------------------------------------------------------------ MST (e2e) --

def mst_specs(workload, seed):
    template, count = MST_WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [template.format(s=rng.randrange(1, 2**31)) for _ in range(count)]


def lcs_run_doc(rc, out, tally, what):
    try:
        doc = json.loads(out)
    except ValueError:
        doc = None
    tally.check(rc == 0 and isinstance(doc, dict) and "error" not in doc,
                f"{what}: exit {rc}")
    return doc if isinstance(doc, dict) else {}


def run_mst_e2e(workload, seed, seconds, errlog, ref, extra):
    tally = Tally()
    specs = mst_specs(workload, seed)
    lcs_run = tool("lcs_run")
    t_start = time.perf_counter()

    # Set-up probes run next to each job, not in a block at the start, so
    # that they sample the whole run like the jobs do.
    setup = {s: [] for s in specs}

    def probe(spec):
        for _ in range(SETUP_PROBES_PER_JOB):
            rc, out, wall, _ = run_job(
                [lcs_run, "--algo=none", f"--scenario={spec}"], errlog)
            lcs_run_doc(rc, out, tally, f"setup {spec}")
            setup[spec].append(wall)

    walls = {(s, t): [] for s in specs for t in MST_THREADS}
    cpus = {(s, t): [] for s in specs for t in MST_THREADS}
    sims = {}
    rss_kb = 0
    # Jobs run round-robin until the next one would overrun `seconds`, after
    # at least one full pass; jobs early in the order may get one more run.
    jobs = list(walls)
    done = 0
    while True:
        spec, t = jobs[done % len(jobs)]
        t_job = time.perf_counter()
        ref.sample()
        probe(spec)
        rc, out, wall, usage = run_job(
            [lcs_run, "--algo=mst", f"--scenario={spec}", "--validate",
             f"--threads={t}"], errlog)
        what = f"mst {spec} threads={t}"
        doc = lcs_run_doc(rc, out, tally, what)
        v = doc.get("validation", {})
        tally.check(v.get("checked") is True and v.get("ok") is True,
                    f"{what}: validation not ok")
        tally.check(doc.get("timing", {}).get("threads") == t,
                    f"{what}: ran at the wrong thread count")
        sim = sim_of(doc)
        prev = sims.setdefault(spec, sim)
        tally.check(sim == prev, f"{what}: sim {sim} != {prev} of the "
                    "first run (repetition or thread count)")
        walls[(spec, t)].append(wall)
        cpus[(spec, t)].append(usage.ru_utime + usage.ru_stime)
        rss_kb = max(rss_kb, usage.ru_maxrss)
        done += 1
        now = time.perf_counter()
        if done >= len(jobs) and now - t_start + (now - t_job) > seconds:
            break

    def total(table, t):
        return sum(median(table[(s, t)]) for s in specs)

    # A job's latency is its median over the passes, which filters a pass
    # that hit a slow spell of the host.
    latencies = [median(v) * 1000.0 for v in walls.values()]

    extra["instances"] = specs
    extra["passes"] = done / len(jobs)
    extra["walls"] = {f"{s} threads={t}": v for (s, t), v in walls.items()}
    metrics = {
        "setup_s": sum(median(v) for v in setup.values()),
        "wall_s": total(walls, 1),
        "wall_s_4t": total(walls, 4),
        "cpu_s_4t": total(cpus, 4),
        "sim_rounds": sum(r for r, _ in sims.values()),
        "sim_messages": sum(m for _, m in sims.values()),
        "peak_rss_mb": rss_kb / 1024.0,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "requests_per_s": len(latencies) / (sum(latencies) / 1000.0),
    }
    return tally, metrics


# ---------------------------------------------------------- serve stream --

# serve-mix's request templates: (algo, spec, count). The seed fills in
# every `{s}` (graph seeds) and each request's algorithm seed, and orders
# the stream; families, sizes and proportions are fixed, so runs on
# different seeds cost about the same.
SERVE_CONSTRUCTIONS = [
    ("shortcut", "grid:w=28,h=28", 1),
    ("shortcut", "genus:w=24,g=6,seed={s}", 1),
    ("shortcut", "torus:w=20", 1),
    ("shortcut", "er:n=300,deg=6,seed={s}", 1),
    ("shortcut", "rreg:n=300,d=4,seed={s}", 1),
    ("shortcut", "maze:w=32,seed={s}", 1),
]
SERVE_CELLS = [
    ("components", "grid:w=16,h=16", 5),
    ("components", "er:n=150,deg=6,seed={s}", 5),
    ("aggregate", "grid:w=20,h=20", 4),
    ("aggregate", "maze:w=26,seed={s}", 4),
    ("aggregate", "er:n=180,deg=6,seed={s}", 4),
    ("mincut", "grid:w=10,h=10", 5),
    ("mincut", "er:n=90,deg=6,seed={s}", 5),
    ("churn", "churn:base=grid:w=12,h=12;steps=30,rate=0.02,seed={s}", 6),
    ("mst", "grid:w=16,h=16,weights=1-100000,wseed={s}", 2),
    ("mst", "er:n=200,deg=6,weights=1-1000,seed={s},wseed={s}", 2),
]
RECORD_REPEATS = 3  # per construction


def order_stream(rng, fresh, repeats):
    """Shuffle the fresh requests; after each, its repeats become due
    MEMO_GAP requests later and are mixed in at the rate that spends fresh
    requests and repeats evenly."""
    fresh = list(fresh)
    rng.shuffle(fresh)
    out = []
    due = []  # (position from which a repeat may be sent, repeat)
    unsent = len(repeats)
    while fresh or due:
        ready = [d for d in due if d[0] <= len(out)]
        if ready and (not fresh or
                      rng.random() < unsent / (unsent + len(fresh))):
            due.remove(ready[0])
            out.append(dict(ready[0][1]))
            unsent -= 1
        elif fresh:
            req = fresh.pop()
            out.append(req)
            due += [(len(out) - 1 + MEMO_GAP, r) for r in repeats
                    if (r["scenario"], r["seed"]) ==
                    (req["scenario"], req["seed"])]
        else:
            d = min(due, key=lambda d: d[0])
            due.remove(d)
            out.append(dict(d[1]))
            unsent -= 1
    return [dict(r) for r in out]


def serve_stream(seed, order=0):
    """The serve-mix request stream: shortcut constructions (first
    occurrences), uncached cells, exact repeats of timing-free requests
    (answered from the response memo), and shortcut repeats with
    `validate` flipped and timing on (answered from the record cache, so
    they only render). Every construction and two of every three cells
    get one exact repeat. `order` draws another order of the same
    requests."""
    rng = random.Random(f"serve-mix:{seed}")
    fresh = []
    repeats = []
    for templates, kind in ((SERVE_CONSTRUCTIONS, "first"),
                            (SERVE_CELLS, "uncached")):
        for algo, spec, count in templates:
            for i in range(count):
                req = {"algo": algo,
                       "scenario": spec.format(s=rng.randrange(1, 10**6)),
                       "seed": rng.randrange(1, 10**6), "validate": True,
                       "timing": False, "kind": kind}
                if algo == "mst":
                    req["threads"] = MST_THREADS[i % len(MST_THREADS)]
                fresh.append(req)
                if kind == "first" or i % 3 != 2:
                    repeats.append(dict(req, kind="memo"))
                if kind == "first":
                    repeats += [dict(req, validate=False, timing=True,
                                     kind="record")] * RECORD_REPEATS

    # Every repeat comes at least MEMO_GAP requests after its original;
    # orders that break this are drawn again.
    rng = random.Random(f"serve-mix:{seed}:order{order}")
    while True:
        out = order_stream(rng, fresh, repeats)
        placed = {}
        for i, req in enumerate(out):
            key = (req["scenario"], req["seed"])
            if req["kind"] in ("first", "uncached"):
                placed[key] = i
            elif i - placed.get(key, i) < MEMO_GAP:
                break
        else:
            break
    for i, req in enumerate(out):
        req["id"] = f"r{i:03d}"
    return out


def content(req):
    """A request's identity apart from its id and position."""
    return wire(dict(req, id=""))


def wire(req):
    return json.dumps({k: v for k, v in req.items() if k != "kind"},
                      separators=(",", ":"))


def preload_specs(stream):
    return sorted({r["scenario"] for r in stream if r["algo"] != "churn"})


class Daemon:
    """One lcs_serve process, driven over its stdin/stdout pipe."""

    def __init__(self, workers, cache_dir, preload, errlog):
        os.makedirs(cache_dir)
        self.t0 = time.perf_counter()
        self.p = spawn([tool("lcs_serve"), f"--parallel-requests={workers}",
                        f"--cache-dir={cache_dir}"] +
                       [f"--preload={s}" for s in preload],
                       stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                       stderr=errlog)

    def send(self, line):
        self.p.stdin.write(line.encode() + b"\n")
        self.p.stdin.flush()

    def read(self):
        """Next framed response: (id, exit, body bytes)."""
        header = self.p.stdout.readline().decode()
        fields = dict(f.split("=", 1) for f in header.split()[1:]
                      if "=" in f)
        if not header.startswith("#lcs_serve ") or "bytes" not in fields:
            raise Failure(f"bad response frame {header!r}")
        n = int(fields["bytes"])
        body = self.p.stdout.read(n)
        if len(body) != n:
            raise Failure("truncated response body")
        return fields.get("id"), int(fields.get("exit", -1)), body

    def command(self, cmd):
        self.send(json.dumps({"cmd": cmd}))
        return json.loads(self.read()[2])

    def quit(self):
        self.command("quit")
        self.p.stdin.close()
        usage = reap(self.p)
        self.p.stdout.close()
        return usage


def serve_leg(workers, stream, preload, cache_dir, errlog):
    """Spawn a daemon (timed until its first stats reply), play the stream
    closed-loop with SERVE_IN_FLIGHT requests outstanding, and quit."""
    d = Daemon(workers, cache_dir, preload, errlog)
    try:
        d.command("stats")
        setup_s = time.perf_counter() - d.t0
        sent = {}
        responses = []
        start = time.perf_counter()
        nxt = 0
        while nxt < min(SERVE_IN_FLIGHT, len(stream)):
            sent[nxt] = time.perf_counter()
            d.send(wire(stream[nxt]))
            nxt += 1
        for i in range(len(stream)):
            rid, rc, body = d.read()
            done = time.perf_counter()
            responses.append((rid, rc, body, (done - sent[i]) * 1000.0))
            if nxt < len(stream):
                sent[nxt] = time.perf_counter()
                d.send(wire(stream[nxt]))
                nxt += 1
        duration = time.perf_counter() - start
        stats = d.command("stats")
        usage = d.quit()
    finally:
        if d.p.returncode is None:
            stop(d.p)
    return {"workers": workers, "setup_s": setup_s, "duration_s": duration,
            "responses": responses, "stats": stats["serve"],
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "exit": d.p.returncode}


def check_leg(leg, stream, tally, reference):
    """Every response frames, exits 0, parses, validates when asked; memo
    repeats are byte-identical to their originals; timing-free bodies equal
    those of earlier legs (`reference`, by request content, is updated).
    Returns the stream's simulated (rounds, messages)."""
    first = {}
    rounds = messages = 0
    tally.check(leg["exit"] == 0, f"lcs_serve exited with {leg['exit']}")
    for req, (rid, rc, body, _) in zip(stream, leg["responses"]):
        what = f"serve workers={leg['workers']} {req['id']} {wire(req)}"
        tally.check(rid == req["id"], f"{what}: answered as {rid}")
        try:
            doc = json.loads(body)
        except ValueError:
            doc = {}
        ok = rc == 0 and isinstance(doc, dict) and "error" not in doc
        if ok and req["validate"]:
            ok = doc.get("validation", {}).get("ok") is True
        tally.check(ok, f"{what}: exit {rc} or validation failed")
        r, m = sim_of(doc if isinstance(doc, dict) else {})
        rounds += r
        messages += m
        key = content(req)
        if not req["timing"]:
            tally.check(first.setdefault(key, body) == body,
                        f"{what}: repeat differs from the first answer")
            tally.check(reference.setdefault(key, body) == body,
                        f"{what}: differs from the first leg's answer")
    return rounds, messages


def run_serve_e2e(seed, seconds, errlog, workdir, ref, extra):
    """Legs alternate between the worker counts until the next one would
    overrun `seconds`, after one leg at each count; every pass (a leg at
    each count) plays the stream in another order, so that the latency
    percentiles cover several orders. A set-up probe daemon runs before
    each leg."""
    tally = Tally()
    stream = serve_stream(seed)
    preload = preload_specs(stream)
    t_start = time.perf_counter()

    setup = []

    def probe(name):
        """A daemon that is only started, asked for stats and stopped."""
        d = Daemon(4, os.path.join(workdir, name), preload, errlog)
        try:
            tally.check(isinstance(d.command("stats"), dict), "stats reply")
            setup.append(time.perf_counter() - d.t0)
            d.quit()
            tally.check(d.p.returncode == 0,
                        f"lcs_serve exited with {d.p.returncode}")
        finally:
            if d.p.returncode is None:
                stop(d.p)

    legs = {w: [] for w in SERVE_WORKERS}
    reference = {}
    sims = set()
    done = 0
    while True:
        w = SERVE_WORKERS[done % len(SERVE_WORKERS)]
        stream = serve_stream(seed, done // len(SERVE_WORKERS))
        t_leg = time.perf_counter()
        ref.sample()
        probe(f"probe{done}")
        ref.sample()
        leg = serve_leg(w, stream, preload,
                        os.path.join(workdir, f"leg{done}"), errlog)
        sims.add(check_leg(leg, stream, tally, reference))
        legs[w].append(leg)
        setup.append(leg["setup_s"])
        done += 1
        now = time.perf_counter()
        if (done >= len(SERVE_WORKERS)
                and now - t_start + (now - t_leg) > seconds):
            break
    tally.check(len(sims) == 1, f"simulated cost differs across legs: {sims}")
    rounds, messages = min(sims)

    wide = legs[SERVE_WORKERS[-1]]

    def latency(q):
        """Median over passes of one pass's percentile: a pass that hit a
        slow spell of the host moves it less than pooling would."""
        return median(percentile([r[3] for r in leg["responses"]], q)
                      for leg in wide)

    extra["requests"] = len(stream)
    extra["passes"] = done / len(SERVE_WORKERS)
    extra["durations"] = {w: [leg["duration_s"] for leg in legs[w]]
                          for w in SERVE_WORKERS}
    extra["kinds"] = {k: sum(r["kind"] == k for r in stream)
                      for k in ("first", "record", "memo", "uncached")}
    extra["daemon_stats"] = wide[-1]["stats"]
    metrics = {
        "setup_s": median(setup),
        "wall_s": median(leg["duration_s"] for leg in legs[1]),
        "wall_s_4t": median(leg["duration_s"] for leg in wide),
        "cpu_s_4t": median(leg["cpu_s"] for leg in wide),
        "sim_rounds": rounds,
        "sim_messages": messages,
        "peak_rss_mb": max(leg["rss_kb"] for ls in legs.values()
                           for leg in ls) / 1024.0,
        "latency_p50_ms": latency(50),
        "latency_p90_ms": latency(90),
        "requests_per_s": median(len(stream) / leg["duration_s"]
                                 for leg in wide),
    }
    return tally, metrics


# ---------------------------------------------------------------- traced --

# Span name: the quantities reported for it (s = host seconds).
LAYER_SPANS = {
    "tree.bfs": ("s", "rounds"),
    "shortcut.verify": ("s", "rounds", "msgs", "calls"),
    "shortcut.core_fast": ("s", "rounds", "msgs"),
    "shortcut.state": ("s", "rounds", "msgs"),
    "shortcut.exchange": ("s", "msgs"),
    "shortcut.global_or": ("s", "rounds"),
    "mst.min_flood": ("s", "rounds", "msgs"),
    "mst.broadcast": ("s", "rounds", "msgs"),
    "mst.local": ("s",),
}
FIND_SPANS = ("shortcut.find", "shortcut.find.trial", "shortcut.find.iteration")


def replica_threads(request):
    """Replica spans carry '/t<threads>' in their request id."""
    tail = request.rsplit("/t", 1)
    return int(tail[1]) if len(tail) == 2 and tail[1].isdigit() else None


def layer_metrics(spans, replicas, tally):
    """Per-layer metrics from the replica spans; time metrics per thread
    count (suffix _4t), counts once (they must agree across counts)."""
    dur = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[s["parent"]] += dur[i]

    agg = {}
    for i, s in enumerate(spans):
        t = replica_threads(s["request"])
        if t is None:
            continue
        a = agg.setdefault((t, s["name"]), {
            "s": 0.0, "self": 0.0, "rounds": 0, "msgs": 0, "calls": 0,
            "attempted": 0, "useful": 0})
        a["s"] += dur[i]
        a["self"] += dur[i] - child[i]
        a["rounds"] += s["rounds"]
        a["msgs"] += s["messages"]
        a["calls"] += 1
        a["attempted"] += s["attempted"]
        a["useful"] += s["useful"]

    def get(t, name, field):
        return agg.get((t, name), {}).get(field, 0)

    counts = {}
    metrics = {"scenario.make_s": sum(
        dur[i] for i, s in enumerate(spans) if s["name"] == "scenario.make")}
    for t in MST_THREADS:
        sfx = "" if t == 1 else f"_{t}t"
        runs = [r for r in replicas if r["threads"] == t]
        host = sum(r["replica_s"] for r in runs) + get(t, "tree.bfs", "s")
        rounds = sum(r["rounds"] for r in runs)
        msgs = sum(r["messages"] for r in runs)
        cnt = {}
        for name, fields in LAYER_SPANS.items():
            for f in fields:
                if f == "s":
                    metrics[f"{name}_s{sfx}"] = get(t, name, "s")
                else:
                    cnt[f"{name}_{f}"] = get(t, name, f)
        metrics["shortcut.find_self_s" + sfx] = sum(
            get(t, n, "self") for n in FIND_SPANS)
        trials = get(t, "shortcut.find.trial", "attempted")
        parts = get(t, "shortcut.find.iteration", "attempted")
        cnt["shortcut.find_trials"] = get(t, "shortcut.find.trial", "calls")
        cnt["shortcut.find_iterations"] = get(t, "shortcut.find.iteration",
                                              "calls")
        cnt["shortcut.trial_success_ratio"] = (
            get(t, "shortcut.find.trial", "useful") / trials if trials else 0)
        cnt["shortcut.parts_fixed_ratio"] = (
            get(t, "shortcut.find.iteration", "useful") / parts if parts else 0)
        cnt["mst.phases"] = get(t, "mst.phase", "calls")
        metrics["congest.us_per_round" + sfx] = host / rounds * 1e6
        metrics["congest.ns_per_msg" + sfx] = host / msgs * 1e9
        metrics["trace.overhead_s" + sfx] = sum(
            r["replica_s"] - r["library_s"] for r in runs)
        counts[t] = cnt
    tally.check(counts[1] == counts[4],
                "per-stage rounds/messages differ between thread counts")
    metrics.update(counts[1])
    for r in replicas:
        tally.check(r["match"], f"replica {r['request']} threads="
                    f"{r['threads']}: {r['mismatch']}")
    metrics["trace.replica_match"] = float(all(r["match"] for r in replicas))
    return metrics


def run_harness(argv, errlog, tally, what):
    rc, out, _, _ = run_job([tool("lcs_trace")] + argv, errlog)
    if not tally.check(rc == 0, f"{what}: lcs_trace exit {rc}"):
        raise Failure(f"{what}: lcs_trace exit {rc}")
    return json.loads(out)


def run_mst_traced(workload, seed, errlog, extra):
    tally = Tally()
    spans = []
    replicas = []
    for i, spec in enumerate(mst_specs(workload, seed)):
        doc = run_harness(["mst", f"--spec={spec}", f"--request=i{i}"] +
                          [f"--threads={t}" for t in MST_THREADS] +
                          ["--replica-first"] * (i % 2),
                          errlog, tally, spec)
        base = len(spans)
        for s in doc["spans"]:
            if s["parent"] >= 0:
                s["parent"] += base
            spans.append(s)
        replicas += doc["replicas"]
    extra["replicas"] = replicas
    extra["spans"] = spans
    return tally, layer_metrics(spans, replicas, tally)


def run_serve_traced(seed, errlog, workdir, extra):
    """The daemon leg at SERVE_WORKERS[-1] workers, then the same stream
    replayed in process; serve-layer numbers go to the result file."""
    tally = Tally()
    stream = serve_stream(seed)
    preload = preload_specs(stream)
    leg = serve_leg(SERVE_WORKERS[-1], stream, preload,
                    os.path.join(workdir, "daemon"), errlog)
    check_leg(leg, stream, tally, {})
    path = os.path.join(workdir, "requests.jsonl")
    with open(path, "w") as fh:
        fh.writelines(wire(r) + "\n" for r in stream)
    cache = os.path.join(workdir, "replay")
    os.makedirs(cache)
    doc = run_harness(["serve", f"--requests={path}", f"--cache-dir={cache}"] +
                      [f"--preload={s}" for s in preload] +
                      [f"--threads={t}" for t in MST_THREADS],
                      errlog, tally, "serve replay")
    spans = doc["spans"]
    metrics = layer_metrics(spans, doc["replicas"], tally)

    replay = {r["id"]: r for r in doc["requests"]}
    for req, (_, _, body, _) in zip(stream, leg["responses"]):
        if not req["timing"]:
            tally.check(replay[req["id"]]["body"].encode() == body,
                        f"replay of {req['id']} differs from the daemon's")
    extra["serve_layers"] = serve_layers(stream, leg, replay, spans)
    extra["replicas"] = doc["replicas"]
    extra["spans"] = spans
    return tally, metrics


def serve_layers(stream, leg, replay, spans):
    """The serve-only layers (cache, render, memo), measured on serve-mix
    alone; reported in the result file and on a '# serve-layers' line."""
    def total(name, field=None):
        sel = [s for s in spans if s["name"] == name]
        if field is None:
            return sum((s["end_ns"] - s["start_ns"]) / 1e9 for s in sel)
        return sum(s[field] for s in sel)

    def ratio(name):
        att = total(name, "attempted")
        return total(name, "useful") / att if att else 0.0

    found = {}
    for s in spans:
        if s["name"] == "shortcut.record_find":
            found[s["request"]] = s["useful"] == 1

    def replay_ms(pred):
        return [replay[r["id"]]["ms"] for r in stream if pred(r)]

    def p50(xs):
        return median(xs) if xs else 0.0

    stats = leg["stats"]
    out = {
        "scenario.resolve_s": total("scenario.resolve"),
        "scenario.hit_ratio": ratio("scenario.resolve"),
        "shortcut.record_find_s": total("shortcut.record_find"),
        "shortcut.record_hit_ratio": ratio("shortcut.record_find"),
        "serve.store_s": total("serve.store"),
        "driver.render_ms": p50(replay_ms(lambda r: found.get(r["id"]))),
        "driver.construct_ms": p50(replay_ms(
            lambda r: found.get(r["id"]) is False)),
        "serve.memo_hit_ratio": stats["response_memo_hits"] / stats["requests"],
        "driver.memo_saved_ms": sum(replay_ms(lambda r: r["kind"] == "memo")),
        "serve.overhead_ms": p50([lat - replay[r["id"]]["ms"] for r, (
            _, _, _, lat) in zip(stream, leg["responses"])]),
    }
    for algo, name in (("components", "apps.components_ms"),
                       ("aggregate", "apps.aggregate_ms"),
                       ("mincut", "apps.mincut_ms"),
                       ("churn", "dynamic.churn_ms")):
        out[name] = p50(replay_ms(
            lambda r, a=algo: r["algo"] == a and r["kind"] == "uncached"))
    return out


# ------------------------------------------------------------------ main --

WORKLOADS = ("mst-grid", "mst-er", "serve-mix")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    meta = metadata()
    meta.update(workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)

    watchdog = threading.Timer(WATCHDOG_S, expire)
    watchdog.daemon = True
    watchdog.start()

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = os.path.join(BUILD_ROOT, "runs", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    extra = {}
    try:
        with open(os.path.join(workdir, "stderr.log"), "wb") as errlog:
            t0 = time.perf_counter()
            if args.trace and args.workload == "serve-mix":
                tally, metrics = run_serve_traced(args.seed, errlog, workdir,
                                                  extra)
            elif args.trace:
                tally, metrics = run_mst_traced(args.workload, args.seed,
                                                errlog, extra)
            else:
                ref = Reference(errlog)
                if args.workload == "serve-mix":
                    tally, metrics = run_serve_e2e(
                        args.seed, args.seconds, errlog, workdir, ref, extra)
                else:
                    tally, metrics = run_mst_e2e(
                        args.workload, args.seed, args.seconds, errlog, ref,
                        extra)
                metrics = ref.normalize(metrics, tally, extra)
            meta["run_s"] = time.perf_counter() - t0
    finally:
        watchdog.cancel()
        stop_children()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                 "disagree with BENCHMARK.json")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = dict(meta=meta, result=result, errors=tally.errors, **extra)
    with open(os.path.join(RESULTS, tag + ".json"), "w") as fh:
        json.dump(record, fh)
    shutil.rmtree(workdir, ignore_errors=True)
    print("# meta " + json.dumps(meta))
    if "reference" in extra:
        print("# reference " + json.dumps(extra["reference"]))
    if "serve_layers" in extra:
        print("# serve-layers " + json.dumps(extra["serve_layers"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
