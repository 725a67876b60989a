"""Shared helpers: brute-force oracles and the session's answer table
(the graphs themselves are built in corpora.py)."""

from __future__ import annotations

import itertools
import math

import pytest

import corpora
from hamcompress.autgroup import cyclic_semiregular_reps
from hamcompress.compression import cycle_compression
from hamcompress.graph import Graph
from hamcompress.hamlift import ENUM_LIMIT, enumerate_hamcycles
from hamcompress.perm import compose, inverse, order, power, semiregular_order


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
    return n // math.gcd(n, t) == order(a) if t else order(a) == 1


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
    assert_ham_is(arr, plain_ham(g, limit), label)


def assert_ham_is(arr, plain, label) -> None:
    """assert_plain_ham against an oracle answer plain_ham already gave."""
    least, exhaustive = plain
    assert arr.exact == exhaustive, label
    assert arr.values == (tuple(sorted(least)) or (0,)), label
    assert {k: (c.cycle, c.shift) for k, c in arr.certificates.items()} == {
        k: (c.cycle, c.shift) for k, c in least.items()}, label


@pytest.fixture(scope="session")
def bench_pools():
    """The (name, graph) pool of each benchmark workload, hcbench/pools.py."""
    return corpora.bench_pools()


@pytest.fixture(scope="session")
def answer_table():
    """The library's answers over every corpus, each computed once per
    session on its first read (corpora.AnswerTable)."""
    return corpora.AnswerTable()
