"""Generate pins.json: the expected answer for every pool graph.

Usage, from the repository root:

    python3 hcbench/make_pins.py

Every value is an isomorphism invariant computed once on the grid-labelled
graph, so it holds under the random relabelling each benchmark operation
applies. While generating, the values are cross-checked against each other
and against networkx (an oracle used here only, never in timed runs):

- kappa = m on the lift-xmnr pool (the prescribed-compression theorem);
- lift kappa = exhaustive kappa = max(Ham) wherever enumeration finishes;
- the order-pq case-split predictor on the p = 5 triples;
- |Aut| against the number of networkx GraphMatcher self-isomorphisms.

ham and ham_cycles are null for graphs on more than ENUM_MAX_N vertices and
where the graph has more than ENUM_CAP Hamilton cycles (the 4-valent graphs
of the lift-xmnr pool and a few of the group-cayley pool). regular_count and
is_cayley are null for graphs on more than REGULAR_MAX_N vertices, all in the
lift-xmnr pool, where regular_subgroups takes 1-5 minutes per graph. No
workload checks a value where it is null. cost_s is the time of one workload
operation on the grid-labelled graph; the benchmark uses it only to order
each pass over the pool.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import networkx as nx  # noqa: E402
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402

from hamcompress import autgroup, compression, families, graph, hamlift, perm  # noqa: E402

from pools import WORKLOADS, build_pool, triples_p5  # noqa: E402
from workloads import OPS  # noqa: E402

ENUM_CAP = 20000
ENUM_MAX_N = 34  # the largest enum-ham graph, GP(17, r)
REGULAR_MAX_N = 40
# The pinned fields each workload compares its answers with.
CHECKED = {
    "lift-xmnr": ("kappa",),
    "enum-ham": ("ham", "ham_cycles"),
    "group-cayley": ("aut_order", "sem", "regular_count", "is_cayley"),
}
HC = SimpleNamespace(autgroup=autgroup, compression=compression, families=families,
                     graph=graph, hamlift=hamlift, perm=perm)


def _nx_aut_order(g) -> int:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())


def pin_graph(name: str, g) -> dict:
    group = autgroup.automorphism_group(g)
    if group.capped:
        raise AssertionError(f"{name}: group enumeration capped")
    nx_order = _nx_aut_order(g)
    if nx_order != group.order:
        raise AssertionError(f"{name}: |Aut| {group.order} != networkx {nx_order}")
    regular = autgroup.regular_subgroups(g, group=group) if g.n <= REGULAR_MAX_N else None
    kappa = compression.hamilton_compression(g).kappa
    cycles, exhaustive = [], False
    if g.n <= ENUM_MAX_N:
        cycles, exhaustive = hamlift.enumerate_hamcycles(g, limit=ENUM_CAP)
    ham = None
    if exhaustive:
        ham = list(compression.ham_array(g).values)
        exh = compression.hamilton_compression(g, "exhaustive").kappa
        if not kappa == exh == max(ham):
            raise AssertionError(f"{name}: lift {kappa}, exhaustive {exh}, max Ham {max(ham)}")
    return {
        "kappa": kappa,
        "ham": ham,
        "ham_cycles": len(cycles) if exhaustive else None,
        "sem": list(autgroup.sem_array(g, group=group).values),
        "aut_order": group.order,
        "regular_count": None if regular is None else len(regular),
        "is_cayley": None if regular is None else ("yes" if regular else "no"),
    }


def main() -> None:
    pins: dict[str, dict] = {}
    for workload in WORKLOADS:
        op, _ = OPS[workload]
        for name, g in build_pool(workload, families):
            if name not in pins:
                t0 = time.perf_counter()
                pins[name] = pin_graph(name, g)
                pins[name]["cost_s"] = {}
                print(f"{name:28s} {time.perf_counter() - t0:7.2f}s {pins[name]}",
                      file=sys.stderr, flush=True)
            t0 = time.perf_counter()
            op(HC, g)
            pins[name]["cost_s"][workload] = round(time.perf_counter() - t0, 4)
    for workload, fields in CHECKED.items():
        for name, _ in build_pool(workload, families):
            if any(pins[name][f] is None for f in fields):
                raise AssertionError(f"{name}: {workload} checks a value left null")
    for name, _ in build_pool("lift-xmnr", families):
        m = int(name.split("-")[1])
        if pins[name]["kappa"] != m:
            raise AssertionError(f"{name}: kappa {pins[name]['kappa']} != m = {m}")
    for name, inst in triples_p5(families):
        pred = compression.predict_kappa_metapq(inst).kappa
        if pred != pins[name]["kappa"]:
            raise AssertionError(f"{name}: predictor {pred} != kappa {pins[name]['kappa']}")
    out = {
        "generated_with": {"python": platform.python_version(), "networkx": nx.__version__,
                           "enum_cap": ENUM_CAP, "enum_max_n": ENUM_MAX_N, "regular_max_n": REGULAR_MAX_N},
        "instances": dict(sorted(pins.items())),
    }
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
