"""Shared helpers: brute-force oracles and the small-graph corpus."""

from __future__ import annotations

import itertools

import pytest

from hamcompress.families import (
    circulant,
    generalized_petersen,
    metacirculant_triple_2p,
    petersen,
    x_mnr,
)
from hamcompress.graph import Graph


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


@pytest.fixture(scope="session")
def corpus():
    return small_corpus()
