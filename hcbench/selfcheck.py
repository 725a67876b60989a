"""Self-check of the benchmark at a tiny size (the cheapest few instances of
each pool). Usage, from the repository root:

    python3 hcbench/selfcheck.py

It checks, on every workload, that:

- every metric BENCHMARK.json names is printed by name with its unit, in the
  untraced and in the traced run, and no operation fails on the real pins;
- a deliberately corrupted pin is caught as exactly one failed operation;
- an operation that raises is counted as failed under its exception type
  (lift mode on the 0-vertex graph);
- every per-layer count repeats exactly across two traced runs with one seed.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
from collections import Counter

import run

TINY = 4
SEED = 7
# The pinned value each workload compares first, and a wrong value for it.
CORRUPT = {
    "lift-xmnr": ("kappa", lambda v: v + 1),
    "enum-ham": ("ham", lambda v: v + [v[-1] + 1]),
    "group-cayley": ("aut_order", lambda v: v * 2),
}


def _printed(out: dict) -> tuple[dict, dict]:
    """(unit by metric name, JSON result) as report() prints them."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(out, {"workload": "selfcheck", "seed": SEED})
    lines = buf.getvalue().splitlines()
    last = json.loads(lines[-1])
    for name, m in last["metrics"].items():
        if f"metric {name} = {m['value']:.6g} {m['unit']}" not in lines:
            raise AssertionError(f"metric {name} has no printed line")
    return {name: m["unit"] for name, m in last["metrics"].items()}, last


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(run.PINS) as fh:
        pins = json.load(fh)["instances"]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)
            print(f"FAIL {what}", flush=True)

    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    for workload in run.WORKLOADS:
        found = len(problems)
        plain = run.measure(workload, SEED, 0, False, min_ops=TINY, pool_limit=TINY)
        units, last = _printed(plain)
        expect(units == e2e, f"{workload}: end-to-end metrics {units} != {e2e}")
        expect(last["correct"] and last["failed"] == 0, f"{workload}: failures {plain['errors']}")

        traced = [run.measure(workload, SEED, 0, True, pool_limit=TINY) for _ in range(2)]
        for out in traced:
            units, last = _printed(out)
            expect(units == layer, f"{workload}: per-layer metrics differ from BENCHMARK.json")
            expect(last["correct"], f"{workload}: traced failures {out['errors']}")
        for name, unit in layer.items():
            if unit == "count":
                a, b = (out["metrics"][name][0] for out in traced)
                expect(a == b, f"{workload}: count {name} is {a} then {b}")

        bench = run.set_up(workload, SEED, pool_limit=TINY)
        victim = bench.pool[0][0]
        field, corrupt = CORRUPT[workload]
        bad = copy.deepcopy(pins)
        bad[victim][field] = corrupt(bad[victim][field])
        out = run.measure(workload, SEED, 0, False, min_ops=TINY, pins=bad, pool_limit=TINY)
        expect(out["errors"] == Counter({"check:Mismatch": 1}),
               f"{workload}: corrupted pin of {victim} gave {dict(out['errors'])}")
        print(f"{'ok' if len(problems) == found else 'FAILED'} {workload}", flush=True)

    # Lift mode raises on the 0-vertex graph (divisors(0)); the run must
    # count that as one failure and go on.
    bench = run.set_up("lift-xmnr", SEED, pool_limit=TINY)
    errors: Counter = Counter()
    _, ok = run.attempt(bench, 0, bench.hc.graph.Graph(0, (), 0), errors)
    expect(not ok and errors == Counter({"op:ValueError": 1}), f"raising op gave {dict(errors)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
