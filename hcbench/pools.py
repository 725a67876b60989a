"""Instance pools of the three workloads, built from the family constructors.

Every pool entry is a (name, graph) pair on the grid labelling the
constructor returns. Names key the pin table (pins.json). Instances are
left out when one operation on them takes 8-20 s, because a single one would
outweigh the rest of its workload: GP(12,5), the order-14 triple with
S = S' = {1,6} and T = {0,1,6}, and x_mnr(6,43,r).
"""

from __future__ import annotations

import itertools
import math

WORKLOADS = ("lift-xmnr", "enum-ham", "group-cayley")

_SYM5 = ((1, 4), (2, 3), (1, 2, 3, 4))


def _xmnr_params():
    """(m, p, r) with m in 2..6, prime p = 1 (mod m), 20 <= m*p <= 80 and r of
    order m mod p: the thm22 family, in which the compression is exactly m."""
    out = []
    for m in range(2, 7):
        for p in range(3, 80 // m + 1):
            if m * p < 20 or (p - 1) % m or any(p % d == 0 for d in range(2, p)):
                continue
            for r in range(2, p):
                if pow(r, m, p) == 1 and all(pow(r, e, p) != 1 for e in range(1, m)):
                    out.append((m, p, r))
    return out


def triples_p5(fam):
    """(name, FamilyInstance) for the connected p = 5 triples [S, S', T] with
    a twisted rotation, over every symmetric S, S' and every spoke set T of
    size 1 to 3."""
    out = []
    for s_outer, s_inner in itertools.product(_SYM5, repeat=2):
        for size in (1, 2, 3):
            for spokes in itertools.combinations(range(5), size):
                inst = fam.metacirculant_triple_2p(5, s_outer, s_inner, spokes)
                if inst.sigma is None or not inst.graph.is_connected():
                    continue
                name = "triple5-{}-{}-{}".format(
                    *("".join(map(str, s)) for s in (s_outer, s_inner, spokes)))
                out.append((name, inst))
    return out


def _gp(fam, n, r):
    return (f"gp-{n}-{r}", fam.generalized_petersen(n, r).graph)


def _circ(fam, n, conn):
    return (f"circ{n}-" + ".".join(map(str, sorted(conn))), fam.circulant(n, set(conn)).graph)


def _xmnr(fam, m, p, r):
    return (f"xmnr-{m}-{p}-{r}", fam.x_mnr(m, p, r).graph)


def build_pool(workload: str, fam) -> list:
    """The (name, graph) pool of one workload; fam is hamcompress.families."""
    if workload == "lift-xmnr":
        return [_xmnr(fam, m, p, r) for m, p, r in _xmnr_params()]
    triples = [(name, inst.graph) for name, inst in triples_p5(fam)]
    circ15 = [_circ(fam, 15, (1, 14)), _circ(fam, 15, (3, 5, 10, 12))]
    if workload == "enum-ham":
        gps = [_gp(fam, n, r) for n in range(5, 18) for r in range(1, math.ceil(n / 2))
               if (n, r) != (12, 5)]
        return triples + gps + circ15
    if workload == "group-cayley":
        pet = fam.petersen().graph
        return (
            triples
            + [_gp(fam, n, 1) for n in range(3, 14)]
            + [_gp(fam, 8, 3), _gp(fam, 10, 3)]
            + circ15
            + [_circ(fam, 21, (1, 20)), _circ(fam, 21, (3, 7, 14, 18))]
            + [(f"cayleyp3-3-{v}", fam.cayley_p3(3, v).graph) for v in ("heisenberg", "modular")]
            + [("petersen", pet), ("petersen-complement", pet.complement())]
            + [_xmnr(fam, 3, 7, 2), _xmnr(fam, 4, 5, 2)]
        )
    raise ValueError(f"unknown workload {workload!r}")
