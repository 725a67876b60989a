"""Shared helpers: brute-force oracles and the small-graph corpus."""

from __future__ import annotations

import itertools
import math
import random

import pytest

import answer_digests
from hamcompress.autgroup import cyclic_semiregular_reps
from hamcompress.compression import cycle_compression
from hamcompress.families import (
    circulant,
    generalized_petersen,
    metacirculant_triple_2p,
    petersen,
    x_mnr,
)
from hamcompress.graph import Graph
from hamcompress.hamlift import ENUM_LIMIT, enumerate_hamcycles
from hamcompress.perm import compose, inverse, power, semiregular_order


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms by filtering every permutation; n <= 8 only."""
    assert g.n <= 8, "brute force oracle limited to tiny graphs"
    out = []
    edges = {(u, v) for u in range(g.n) for v in range(g.n) if u < v and g.has_edge(u, v)}
    for p in itertools.permutations(range(g.n)):
        if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges):
            out.append(p)
    return out


def brute_is_prime(n: int) -> bool:
    """Trial division, the independent primality oracle."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def conjugacy_sources(group) -> dict[tuple[int, ...], tuple]:
    """Brute force over the element list of an uncapped group: each cyclic
    semiregular rep b mapped to (a, x), where a is the least rep whose
    subgroup is conjugate to b's and x is the first element with
    x<a>x^-1 = <b>."""
    rep_of = {}
    for gens in cyclic_semiregular_reps(group).values():
        for b in gens:
            k = semiregular_order(b)
            rep_of.update((power(b, e), b) for e in range(1, k) if math.gcd(e, k) == 1)
    reps = sorted(set(rep_of.values()))
    inverses = {x: inverse(x) for x in group.elements}
    sources = {}
    for a in reps:
        if a in sources:
            continue
        for x in group.elements:
            sources.setdefault(rep_of[compose(x, compose(a, inverses[x]))], (a, x))
            if len(sources) == len(reps):
                return sources
    return sources


def cycle_edges(seq) -> set[frozenset[int]]:
    n = len(seq)
    return {frozenset((seq[i], seq[(i + 1) % n])) for i in range(n)}


def acts_as_rotation(a, cycle) -> bool:
    """True iff a maps position i of the cycle to position i+t for a fixed t
    whose rotation order equals the order of a."""
    n = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    t = (pos[a[cycle[0]]] - 0) % n
    if any((pos[a[v]] - pos[v]) % n != t for v in cycle):
        return False
    # order of rotation-by-t must match the order of a
    from hamcompress.perm import order

    from math import gcd

    return n // gcd(n, t) == order(a) if t else order(a) == 1


def project_cycle(qg, cycle):
    """Orbit sequence and step voltages of one quotient pass of a cycle lifted
    from the quotient qg: the inverse of hamlift.lift."""
    q = len(qg.orbit_lists)
    orbit_of, exponent = {}, {}
    for a, orb in enumerate(qg.orbit_lists):
        for e, v in enumerate(orb):
            orbit_of[v], exponent[v] = a, e
    seq = [orbit_of[v] for v in cycle[:q]]
    volts = [
        (exponent[cycle[(i + 1) % len(cycle)]] - exponent[cycle[i]]) % qg.k
        for i in range(q)
    ]
    return seq, volts


def plain_ham(g: Graph, limit: int = ENUM_LIMIT) -> tuple[dict, bool]:
    """The plain oracle for the Ham array, which uses no group: every cycle
    enumerate_hamcycles lists, compressed by cycle_compression, and per
    factor the least cycle with it. Returns ({k: certificate}, exhaustive)."""
    cycles, exhaustive = enumerate_hamcycles(g, limit)
    least = {}
    for cycle in cycles:
        cert = cycle_compression(g, cycle)
        if cert.k not in least or cert.cycle < least[cert.k].cycle:
            least[cert.k] = cert
    return least, exhaustive


def assert_plain_ham(g: Graph, arr, label, limit: int = ENUM_LIMIT) -> None:
    """A Ham array equals the plain oracle: values, exact flag, and each
    value's certificate cycle and shift."""
    least, exhaustive = plain_ham(g, limit)
    assert arr.exact == exhaustive, label
    assert arr.values == (tuple(sorted(least)) or (0,)), label
    assert {k: (c.cycle, c.shift) for k, c in arr.certificates.items()} == {
        k: (c.cycle, c.shift) for k, c in least.items()}, label


def _perm(degree: int, *cycles) -> tuple[int, ...]:
    """The permutation of range(degree) with the given cycles."""
    img = list(range(degree))
    for cyc in cycles:
        for i, v in enumerate(cyc):
            img[v] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def _dihedral(m: int) -> list[tuple[int, ...]]:
    return [_perm(m, tuple(range(m))), _perm(m, *[(i, m - i) for i in range(1, (m + 1) // 2)])]


# Generators of small groups as permutations: the dihedral groups of the
# m-gon, Q8 on its eight units, A4 on four points, C3 x| C4 as a 3-cycle
# inverted by a transposition times a commuting 4-cycle, and two abelian
# groups as products of cycles on disjoint points.
SMALL_GROUPS = {
    **{f"D{m}": _dihedral(m) for m in range(3, 9)},
    "Q8": [_perm(8, (0, 1, 2, 3), (4, 5, 6, 7)), _perm(8, (0, 4, 2, 6), (1, 7, 3, 5))],
    "A4": [_perm(4, (0, 1, 2)), _perm(4, (0, 1), (2, 3))],
    "C3:C4": [_perm(7, (0, 1, 2)), _perm(7, (1, 2), (3, 4, 5, 6))],
    "C2xC6": [_perm(8, (0, 1)), _perm(8, (2, 3, 4, 5, 6, 7))],
    "C3xC4": [_perm(7, (0, 1, 2)), _perm(7, (3, 4, 5, 6))],
}


def _group_elements(gens) -> list[tuple[int, ...]]:
    """The group the permutations generate, by closure, sorted."""
    found = {tuple(range(len(gens[0])))}
    todo = list(found)
    while todo:
        x = todo.pop()
        for s in gens:
            y = tuple(s[v] for v in x)
            if y not in found:
                found.add(y)
                todo.append(y)
    return sorted(found)


def random_cayley_census():
    """(label, graph) for seeded random connected Cayley graphs of small
    groups, ten per group: the vertices are the group elements in a
    shuffled order, and x ~ xs for each s of a symmetric connection set of
    degree 2 to 4 (the left-regular representation acts by automorphisms)."""
    rng = random.Random(26)
    expected_orders = {"D3": 6, "D4": 8, "D5": 10, "D6": 12, "D7": 14, "D8": 16, "Q8": 8,
                       "A4": 12, "C3:C4": 12, "C2xC6": 12, "C3xC4": 12}
    for name, gens in SMALL_GROUPS.items():
        elems = _group_elements(gens)
        assert len(elems) == expected_orders[name], name
        one = elems[0]
        inv = {x: tuple(sorted(range(len(x)), key=x.__getitem__)) for x in elems}
        made = 0
        while made < 10:
            rng.shuffle(elems)
            degree = rng.randint(2, 4)
            conn: set = set()
            for x in rng.sample([x for x in elems if x != one], len(elems) - 1):
                if len(conn | {x, inv[x]}) <= degree:
                    conn |= {x, inv[x]}
            idx = {x: i for i, x in enumerate(elems)}
            g = Graph.build(len(elems), {tuple(sorted((idx[x], idx[tuple(s[v] for v in x)])))
                                         for x in elems for s in conn})
            if not g.is_connected():
                continue
            made += 1
            yield (name, sorted(idx[s] for s in conn), [idx[x] for x in sorted(elems)]), g


def graph_k4() -> Graph:
    return Graph.build(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def graph_cycle(n: int) -> Graph:
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def graph_k33() -> Graph:
    return Graph.build(6, [(u, v) for u in range(3) for v in range(3, 6)])


def graph_star(n: int) -> Graph:
    return Graph.build(n, [(0, v) for v in range(1, n)])


# Graphs whose automorphism groups exceed the default cap: K10 (10!), K7,7
# (2 * 7!^2), 4K4 (4!^4 * 4!) and 3K5 (5!^3 * 3!).
def graph_complete(n: int) -> Graph:
    return Graph.build(n, list(itertools.combinations(range(n), 2)))


def graph_complete_bipartite(a: int, b: int) -> Graph:
    return Graph.build(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def graph_disjoint_complete(copies: int, size: int) -> Graph:
    return Graph.build(copies * size, [
        (c * size + u, c * size + v)
        for c in range(copies) for u, v in itertools.combinations(range(size), 2)])


def small_corpus() -> list[tuple[str, Graph]]:
    """Graphs with at most 16 vertices used by the equivalence suites."""
    return [
        ("K4", graph_k4()),
        ("C5", graph_cycle(5)),
        ("C6", graph_cycle(6)),
        ("C15", graph_cycle(15)),
        ("K33", graph_k33()),
        ("star6", graph_star(6)),
        ("petersen", petersen().graph),
        ("petersen-complement", petersen().graph.complement()),
        ("cube", x_mnr(2, 4, 3).graph),
        ("prism5", x_mnr(2, 5, 4).graph),
        ("prism7", generalized_petersen(7, 1).graph),
        ("mobius-kantor", generalized_petersen(8, 3).graph),
        ("circ15-nonunit", circulant(15, {3, 12, 5, 10}).graph),
        ("circ10-nonunit", circulant(10, {2, 8, 5}).graph),
        ("triple5", metacirculant_triple_2p(5, {1, 4}, {1, 4}, {0, 1, 4}).graph),
        ("two-triangles", Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
    ]


def p5_triples() -> list[Graph]:
    """The 77 connected p = 5 triples [S, S', T] with a twisted rotation,
    over every symmetric S, S' and every spoke set T of size 1 to 3."""
    graphs = []
    sym = ({1, 4}, {2, 3}, {1, 2, 3, 4})
    for s_outer, s_inner in itertools.product(sym, repeat=2):
        for size in (1, 2, 3):
            for spokes in itertools.combinations(range(5), size):
                inst = metacirculant_triple_2p(5, s_outer, s_inner, set(spokes))
                if inst.sigma is not None and inst.graph.is_connected():
                    graphs.append(inst.graph)
    assert len(graphs) == 77
    return graphs


@pytest.fixture(scope="session")
def corpus():
    return small_corpus()


@pytest.fixture(scope="session")
def bench_pools():
    """The (name, graph) pool of each benchmark workload, hcbench/pools.py."""
    return answer_digests.bench_pools()
