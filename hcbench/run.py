"""hamcompress benchmark: three closed-loop workloads, one caller, no threads.

Usage, from the repository root (no install needed; the package is imported
from src/):

    python3 hcbench/run.py --workload lift-xmnr --seed 1 --seconds 36 --trace 0

--trace 0 measures the end-to-end metrics for --seconds (and at least
MIN_OPS operations). --trace 1 makes one pass over the workload's pool,
running every operation once untraced and once traced, and reports
per-layer self times and counts plus the tracing overhead. Either way the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the run's metadata,
every metric by name with its unit, and the failures by exception type.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from pools import WORKLOADS, build_pool  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import OPS, schedule  # noqa: E402

MIN_OPS = 100  # so that the p90 latency has ten samples beyond it
TAIL = 90
SETUP_REPEATS = 9
PROBE_ROUNDS = 250
PROBE_REF_S = 0.0045  # the probe's typical time on the 2-vCPU VM the bounds were set on
MODULES = ("autgroup", "compression", "families", "graph", "hamlift", "perm")
PINS = os.path.join(HERE, "pins.json")


def load_program() -> SimpleNamespace:
    """Import hamcompress afresh from src/, so that set-up time includes it."""
    for name in [m for m in sys.modules if m == "hamcompress" or m.startswith("hamcompress.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("hamcompress")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "hamcompress"):
        raise ImportError(f"hamcompress imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"hamcompress.{m}") for m in MODULES})


def set_up(workload: str, seed: int, pins: dict | None = None, pool_limit: int | None = None):
    """Import the program, build the pool, load the pins and relabel the
    first pass of inputs. pool_limit keeps only the cheapest instances (for
    the self-check); pins replaces the pin table."""
    hc = load_program()
    pool = build_pool(workload, hc.families)
    if pins is None:
        with open(PINS) as fh:
            pins = json.load(fh)["instances"]
    costs = [pins[name]["cost_s"][workload] for name, _ in pool]
    if pool_limit is not None:
        keep = sorted(range(len(pool)), key=lambda i: (costs[i], pool[i][0]))[:pool_limit]
        pool = [pool[i] for i in keep]
        costs = [costs[i] for i in keep]
    stream = schedule(hc, pool, costs, seed)
    first = list(itertools.islice(stream, len(pool)))
    return SimpleNamespace(workload=workload, hc=hc, pool=pool, pins=pins,
                           inputs=itertools.chain(first, stream))


def attempt(bench, idx: int, g, errors: Counter, tracer: Tracer | None = None, op_id: int = -1):
    """Run one operation, then check its answer outside the timed span.

    Returns (seconds, ok). An operation that raises or gives a wrong answer
    is counted as failed under its exception type; the run goes on.
    """
    op, check = OPS[bench.workload]
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op(bench.hc, g)
        else:
            with tracer.span("op", op_id):
                result = op(bench.hc, g)
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        errors[f"op:{type(exc).__name__}"] += 1
        return time.perf_counter() - t0, False
    seconds = time.perf_counter() - t0
    try:
        check(bench.hc, g, result, bench.pins[bench.pool[idx][0]])
    except Exception as exc:  # noqa: BLE001 - a certificate that fails replay is a failure
        errors[f"check:{type(exc).__name__}"] += 1
        return seconds, False
    return seconds, True


def probe() -> float:
    """Seconds a fixed piece of pure-Python work takes right now.

    On a shared VM the interpreter runs the same code up to a third faster
    or slower from one minute to the next, and the same operation's time
    varies by 20% from one call to the next. Every end-to-end time is
    therefore scaled to a reference speed: multiplied by PROBE_REF_S over the
    mean of the probes taken just before and just after it. That cancels the
    drift the operation and the probe share. The probe builds
    permutation-like tuples from bitset rows and keys a dict by them, the
    kind of work the program does, without calling the program.
    """
    t0 = time.perf_counter()
    rows = [(1 << i % 60) | (1 << i * 7 % 60) for i in range(60)]
    images = [tuple(rows[(i + r) % 60] >> 1 | rows[i] & 0xFFFF for i in range(60))
              for r in range(PROBE_ROUNDS)]
    dict.fromkeys(images)
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * PROBE_REF_S / (before + after)


def quantile(samples: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density.

    A pool holds a few dozen distinct instances, so its latency distribution
    has gaps; the plain sample quantile jumps across a gap when one more or
    one fewer costly instance falls into a run. This estimate moves smoothly.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 2:
        return xs[0] if xs else 0.0
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    steps = 16  # midpoint rule inside each rank interval ((i-1)/n, i/n)
    logs = [[a * math.log(t) + b * math.log1p(-t)
             for t in ((i + (k + 0.5) / steps) / n for k in range(steps))] for i in range(n)]
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_untraced(bench, seconds: float, min_ops: int) -> dict:
    errors: Counter = Counter()
    latencies = []
    probes = [probe()]
    busy = 0.0
    attempted = 0
    deadline = time.perf_counter() + seconds
    for idx, g in bench.inputs:
        if attempted >= min_ops and time.perf_counter() >= deadline:
            break
        dt, ok = attempt(bench, idx, g, errors)
        probes.append(probe())
        dt = at_reference_speed(dt, probes[-2], probes[-1])
        attempted += 1
        busy += dt
        if ok:
            latencies.append(dt)
    metrics = {
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "latency_p50_s": (quantile(latencies, 0.5), "s"),
        "latency_p90_s": (quantile(latencies, TAIL / 100), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"attempted": attempted, "errors": errors, "samples": len(latencies),
            "probe_s": statistics.median(probes), "metrics": metrics}


def run_traced(bench) -> dict:
    """One pass over the pool; each input runs untraced (nothing patched) and
    traced, in alternating order, so traced minus untraced is the tracing
    overhead."""
    errors: Counter = Counter()
    tracer = Tracer()
    hc = bench.hc
    attempted = 0
    untraced_s = 0.0
    modules = vars(hc)
    with tracer.installed(modules), tracer.span("setup.build"):
        build_pool(bench.workload, hc.families)
    for i in range(len(bench.pool)):
        idx, g = next(bench.inputs)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed(modules):
                    dt, _ = attempt(bench, idx, g, errors, tracer, i)
            else:
                dt, _ = attempt(bench, idx, g, errors)
                untraced_s += dt
            attempted += 1
        if bench.workload == "enum-ham":
            # ham_array reaches enumeration only through a private
            # generator, so enumeration is timed by a call of its own.
            with tracer.installed(modules), tracer.span("enum.call", i):
                cycles, exhaustive = hc.hamlift.enumerate_hamcycles(g)
            attempted += 1
            if not exhaustive or len(cycles) != bench.pins[bench.pool[idx][0]]["ham_cycles"]:
                errors["check:Mismatch"] += 1
    self_s, total_s, calls = tracer.reduce()
    counts = tracer.counts
    op_s = total_s["op"]

    def share(x, base):
        return x / base if base else 0.0

    metrics = {
        "trace.ops": (calls["op"], "count"),
        "trace.op_s": (op_s, "s"),
        "trace.untraced_op_s": (untraced_s, "s"),
        "trace.overhead_s": (op_s - untraced_s, "s"),
        "trace.overhead_share": (share(op_s - untraced_s, untraced_s), "ratio"),
        "families.build_s": (self_s["families.build"], "s"),
        "autgroup.aut_s": (self_s["autgroup.aut"], "s"),
        "autgroup.aut_calls": (calls["autgroup.aut"], "count"),
        "autgroup.aut_share": (share(self_s["autgroup.aut"], op_s), "ratio"),
        "autgroup.elements_listed": (counts["autgroup.elements_listed"], "count"),
        "autgroup.capped_groups": (counts["autgroup.capped_groups"], "count"),
        "autgroup.sem_s": (self_s["autgroup.sem"], "s"),
        "autgroup.regular_s": (self_s["autgroup.regular"], "s"),
        "autgroup.regular_found": (counts["autgroup.regular_found"], "count"),
        "autgroup.regular_share": (share(self_s["autgroup.regular"], op_s), "ratio"),
        "compression.sweep_self_s": (self_s["compression.sweep"], "s"),
        "compression.replay_s": (self_s["compression.replay"], "s"),
        "compression.ham_array_s": (self_s["compression.ham_array"], "s"),
        "compression.rotation_checks": (calls["compression.rotation_check"], "count"),
        "compression.rotation_check_s": (self_s["compression.rotation_check"], "s"),
        "hamlift.sym_search_s": (self_s["hamlift.sym_search"], "s"),
        "hamlift.sym_calls": (calls["hamlift.sym_search"], "count"),
        "hamlift.sym_hits": (counts["hamlift.sym_hits"], "count"),
        "hamlift.sym_hit_ratio": (share(counts["hamlift.sym_hits"], calls["hamlift.sym_search"]),
                                  "ratio"),
        "hamlift.quotient_s": (self_s["hamlift.quotient"], "s"),
        "hamlift.plain_search_s": (self_s["hamlift.plain_search"], "s"),
        "hamlift.enum_s": (self_s["hamlift.enum"], "s"),
        "hamlift.cycles_enumerated": (counts["hamlift.cycles_enumerated"], "count"),
    }
    return {"attempted": attempted, "errors": errors, "samples": calls["op"], "metrics": metrics}


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            min_ops: int = MIN_OPS, pins: dict | None = None, pool_limit: int | None = None):
    """Set up SETUP_REPEATS times (setup_s is the median), then run."""
    setup_times = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bench = set_up(workload, seed, pins, pool_limit)
        dt = time.perf_counter() - t0
        after = probe()
        setup_times.append(at_reference_speed(dt, before, after))
        before = after
    if trace:
        out = run_traced(bench)
    else:
        out = run_untraced(bench, seconds, min_ops)
        out["metrics"]["setup_s"] = (statistics.median(setup_times), "s")
    out["failed"] = sum(out["errors"].values())
    return out


def git_revision() -> str:
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(out: dict, meta: dict) -> None:
    """Print the metadata, every metric by name with its unit, and last the
    one-line JSON result."""
    meta = dict(meta, operations=out["attempted"], latency_samples=out["samples"],
                probe_median_s=out.get("probe_s"), probe_ref_s=PROBE_REF_S,
                tail_percentile=TAIL, error_rate=out["failed"] / out["attempted"],
                errors=dict(out["errors"]), python=platform.python_version(),
                git=git_revision(), nproc=os.cpu_count())
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in out["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hamcompress", "__init__.py")):
        print(f"hcbench: no hamcompress package under {SRC}", file=sys.stderr)
        return 2
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(out, vars(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
