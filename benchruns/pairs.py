"""Paired benchmark runs of two checkouts, kept as BENCH_*.json evidence.

Usage, from the repository root:

    python3 benchruns/pairs.py --parent ../old --change . --workload lift-xmnr \
        --seeds 1001 1002 1003
    python3 benchruns/pairs.py --workload lift-xmnr --seeds 1001 1002 1003 --summarize
    python3 benchruns/pairs.py --parent ../old --change . --workload enum-ham \
        --seeds 1011 --trace 1

For each seed the two checkouts run `hcbench/run.py` one after the other,
the side that goes first alternating from seed to seed, each for the
`run_seconds` of BENCHMARK.json. Each run starts with no `__pycache__`
under its checkout, so both sides pay the same bytecode compilation inside
`setup_s`. The last output line of each run is saved as
BENCH_<workload>_<seed>_<parent|change>.json (with `_trace` appended for
--trace 1) next to this script. The summary reads those files: per
end-to-end metric of BENCHMARK.json, the parent and change medians with
[first, third] quartiles, how much worse the change's median is relative to
the parent's (negative when better) against the metric's bound, the pairs
the change wins, the parent's interquartile range, and a verdict:
WORSE when the change's median is worse by more than the bound; else gain
when the change's median is better, the change wins at least 9 of every 10
of at least ten pairs and the gap between the medians exceeds the parent's
interquartile range; else unresolved when the parent's interquartile
range, relative to its median, is wider than the bound and not every
change run is better than every parent run; else ok. The script exits 1
when any metric is WORSE. With --trace 1 it is a table of the per_layer
metrics instead: parent and change medians over the seeds and their ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SIDES = ("parent", "change")


def result_path(workload: str, seed: int, side: str, trace: bool) -> str:
    suffix = "_trace" if trace else ""
    return os.path.join(HERE, f"BENCH_{workload}_{seed}_{side}{suffix}.json")


def drop_bytecode(checkout: str) -> None:
    for top in ("src", "hcbench"):
        for dirpath, dirnames, _ in os.walk(os.path.join(checkout, top)):
            if "__pycache__" in dirnames:
                shutil.rmtree(os.path.join(dirpath, "__pycache__"))
                dirnames.remove("__pycache__")


def run_one(checkout: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    drop_bytecode(checkout)
    cmd = [sys.executable, "hcbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    drop_bytecode(checkout)
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def load_runs(workload: str, seeds: list[int], trace: bool) -> dict:
    runs = {side: [] for side in SIDES}
    for seed in seeds:
        for side in SIDES:
            with open(result_path(workload, seed, side, trace)) as fh:
                runs[side].append(json.load(fh))
    return runs


def summarize_trace(workload: str, seeds: list[int], metrics: list[dict]) -> None:
    """Per-layer metric table of the traced runs: parent and change medians
    and the change's median over the parent's."""
    runs = load_runs(workload, seeds, True)
    for side in SIDES:
        print(f"{side}: {sum(r['failed'] for r in runs[side])} failed of "
              f"{sum(r['attempted'] for r in runs[side])} traced operations")
    print(f"{'metric':<30} {'unit':<6} {'parent':>12} {'change':>12} {'change/parent':>14}")
    for spec in metrics:
        name = spec["name"]
        med_p, med_c = (statistics.median(r["metrics"][name]["value"] for r in runs[side])
                        for side in SIDES)
        ratio = f"{med_c / med_p:.3f}" if med_p else "-"
        print(f"{name:<30} {spec['unit']:<6} {med_p:>12.6g} {med_c:>12.6g} {ratio:>14}")


def worse_and_wins(parent: list[float], change: list[float], higher: bool) -> tuple[float, int]:
    """How much worse the change's median is than the parent's, relative to
    the parent's (negative when better), and the pairs the change wins."""
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    worse = (med_p - med_c if higher else med_c - med_p) / med_p if med_p else 0.0
    return worse, wins


def verdict(parent: list[float], change: list[float], bound: float, higher: bool) -> str:
    worse, wins = worse_and_wins(parent, change, higher)
    if worse > bound:
        return "WORSE"
    p1, p3 = quartiles(parent)
    med_p = statistics.median(parent)
    gap = abs(statistics.median(change) - med_p)
    if worse < 0 and len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gap > p3 - p1:
        return "gain"
    spread = (p3 - p1) / abs(med_p) if med_p else 0.0
    separated = min(change) > max(parent) if higher else max(change) < min(parent)
    return "unresolved" if spread > bound and not separated else "ok"


def summarize(workload: str, seeds: list[int], metrics: list[dict]) -> int:
    """Print the end-to-end table; 1 when some metric is WORSE, else 0."""
    runs = load_runs(workload, seeds, False)
    for side in SIDES:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: {failed} failed of {attempted} operations")
    verdicts = []
    for spec in metrics:
        name = spec["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        higher = spec["better"] == "higher"
        worse, wins = worse_and_wins(parent, change, higher)
        med_p, med_c = statistics.median(parent), statistics.median(change)
        (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
        verdicts.append(verdict(parent, change, spec["bound"], higher))
        print(f"{name}: parent {med_p:.4g} [{p1:.4g}, {p3:.4g}] "
              f"change {med_c:.4g} [{c1:.4g}, {c3:.4g}] worse-by {worse:+.3f} "
              f"(bound {spec['bound']}) wins {wins}/{len(seeds)} "
              f"gap {abs(med_c - med_p):.4g} parent-IQR {p3 - p1:.4g} {verdicts[-1]}")
    return int("WORSE" in verdicts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summarize", action="store_true",
                        help="only summarize the saved files")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if not args.summarize:
        if not (args.parent and args.change):
            parser.error("--parent and --change are required unless --summarize")
        checkouts = {"parent": args.parent, "change": args.change}
        for i, seed in enumerate(args.seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                res = run_one(checkouts[side], args.workload, seed,
                              bench["run_seconds"], trace)
                with open(result_path(args.workload, seed, side, trace), "w") as fh:
                    json.dump(res, fh, sort_keys=True)
                    fh.write("\n")
                print(f"seed {seed} {side} done", flush=True)
    if trace:
        summarize_trace(args.workload, args.seeds, bench["per_layer"])
        return 0
    return summarize(args.workload, args.seeds, bench["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
