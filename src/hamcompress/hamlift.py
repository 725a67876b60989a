"""Quotients with voltages, the lifting construction, and Hamilton search.

Quotienting a graph by a semiregular automorphism of order k yields a
multigraph on the orbits whose arcs carry voltages in Z_k: an arc (A, B, s)
records that the representative of A is adjacent to the s-th power image of
the representative of B. A Hamilton cycle of the quotient whose net voltage
generates Z_k lifts to a Hamilton cycle of the source graph on which the
automorphism acts as a rotation.

One search serves both uses: _hamilton_cycles, a non-recursive depth-first
generator over bitset adjacency rows, yields the Hamilton cycles through
vertex 0. Plain enumeration keeps one direction of each; the quotient
search runs it on the orbit support rows and stops at the first cycle
whose voltages can be chosen to generate Z_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Graph, bits
from .perm import Perm, is_semiregular, orbits, order

HamCycle = tuple[int, ...]

ENUM_LIMIT = 10**7


def check_hamcycle(g: Graph, seq) -> None:
    seq = tuple(seq)
    if len(seq) < 3:
        raise ValueError("a Hamilton cycle needs at least 3 vertices")
    if len(seq) != g.n or sorted(seq) != list(range(g.n)):
        raise ValueError("sequence does not visit every vertex exactly once")
    for i, u in enumerate(seq):
        if not g.has_edge(u, seq[(i + 1) % g.n]):
            raise ValueError(f"vertices {u} and {seq[(i + 1) % g.n]} are not adjacent")


def canonical_cycle(seq) -> HamCycle:
    """Rotate the least vertex to the front and fix the direction, collapsing
    the 2n equivalent presentations of one cycle."""
    seq = tuple(seq)
    n = len(seq)
    i0 = seq.index(min(seq))
    fwd = tuple(seq[(i0 + i) % n] for i in range(n))
    rev = tuple(seq[(i0 - i) % n] for i in range(n))
    return fwd if fwd[1] <= rev[1] else rev


@dataclass(frozen=True)
class QuotientGraph:
    """Multigraph on the orbits of a semiregular automorphism.

    orbit_lists[A][e] is the e-th image of A's representative (the least
    vertex of the orbit); arcs are (A, B, s) with A <= B, parallel arcs
    allowed, and loop voltages normalised into 1..k//2.
    """

    k: int
    orbit_lists: tuple[tuple[int, ...], ...]
    orbit_of: tuple[int, ...]
    exponent: tuple[int, ...]
    arcs: tuple[tuple[int, int, int], ...]

    @property
    def num_orbits(self) -> int:
        return len(self.orbit_lists)

    def directed_voltages(self) -> dict[tuple[int, int], list[int]]:
        """Voltages per ordered orbit pair; reversing an arc negates it."""
        out: dict[tuple[int, int], set[int]] = {}
        for a, b, s in self.arcs:
            if a == b:
                out.setdefault((a, a), set()).update({s, (-s) % self.k})
            else:
                out.setdefault((a, b), set()).add(s)
                out.setdefault((b, a), set()).add((-s) % self.k)
        return {key: sorted(vs) for key, vs in out.items()}


def quotient_with_voltages(g: Graph, a: Perm) -> QuotientGraph:
    if len(a) != g.n:
        raise ValueError("degree mismatch")
    k = order(a)
    if k < 2 or not is_semiregular(a, k):
        raise ValueError(f"permutation is not semiregular of order >= 2 (order {k})")
    part = orbits(a)
    exponent = [0] * g.n
    for orb in part.orbits:
        for e, v in enumerate(orb):
            exponent[v] = e
    arcs = set()
    for u in range(g.n):
        for v in bits(g.rows[u]):
            if v < u:
                continue
            oa, ob = part.orbit_of[u], part.orbit_of[v]
            s = (exponent[v] - exponent[u]) % k
            if oa == ob:
                arcs.add((oa, oa, min(s, k - s)))
            elif oa < ob:
                arcs.add((oa, ob, s))
            else:
                arcs.add((ob, oa, (-s) % k))
    return QuotientGraph(k, part.orbits, part.orbit_of, tuple(exponent), tuple(sorted(arcs)))


def lift(qg: QuotientGraph, orbit_cycle, voltages) -> HamCycle:
    """Lift a quotient Hamilton cycle with chosen arc voltages.

    orbit_cycle visits every orbit exactly once; voltages[i] is the voltage
    of the arc from orbit_cycle[i] to its successor. The lift exists iff the
    net voltage generates Z_k; otherwise the walk closes early and a
    ValueError is raised.
    """
    orbit_cycle = list(orbit_cycle)
    voltages = list(voltages)
    k, q = qg.k, qg.num_orbits
    if sorted(orbit_cycle) != list(range(q)) or len(voltages) != q:
        raise ValueError("not a closed quotient cycle visiting every orbit once")
    avail = qg.directed_voltages()
    for i, a in enumerate(orbit_cycle):
        b = orbit_cycle[(i + 1) % q]
        if voltages[i] not in avail.get((a, b), []):
            raise ValueError(f"no arc from orbit {a} to {b} with voltage {voltages[i]}")
    if q == 2 and (voltages[0] + voltages[1]) % k == 0:
        raise ValueError("the two steps reuse one arc; a 2-cycle needs parallel arcs")
    net = sum(voltages) % k
    if math.gcd(net, k) != 1:
        raise ValueError(f"net voltage {net} does not generate Z_{k}; lift closes early")
    exps = [0] * q
    for i in range(1, q):
        exps[i] = exps[i - 1] + voltages[i - 1]
    seq = [
        qg.orbit_lists[orb][(exps[i] + j * net) % k]
        for j in range(k)
        for i, orb in enumerate(orbit_cycle)
    ]
    if len(set(seq)) != q * k:
        raise AssertionError("lift revisited a vertex")  # unreachable given gcd check
    return tuple(seq)


def project_cycle(qg: QuotientGraph, cycle: HamCycle):
    """Orbit sequence and step voltages of one quotient pass of a lifted cycle."""
    q = qg.num_orbits
    seq = [qg.orbit_of[v] for v in cycle[:q]]
    volts = [
        (qg.exponent[cycle[(i + 1) % len(cycle)]] - qg.exponent[cycle[i]]) % qg.k
        for i in range(q)
    ]
    return seq, volts


def _voltage_choice(volt_sets: list[list[int]], k: int) -> list[int] | None:
    """Pick one voltage per step so the total generates Z_k, or None.

    Reachable subsets are propagated forward; the least achievable generator
    is reconstructed backwards, greedily taking the least voltage per step.
    """
    reach = [{0}]
    for vs in volt_sets:
        reach.append({(x + s) % k for x in reach[-1] for s in vs})
    targets = sorted(t for t in reach[-1] if math.gcd(t, k) == 1)
    if not targets:
        return None
    cur = targets[0]
    choice = [0] * len(volt_sets)
    for i in range(len(volt_sets) - 1, -1, -1):
        for s in volt_sets[i]:
            if (cur - s) % k in reach[i]:
                choice[i] = s
                cur = (cur - s) % k
                break
    return choice


def _quotient_ham_search(qg: QuotientGraph):
    """First quotient Hamilton cycle admitting a generating net voltage.

    Arcs are explored in (orbit, voltage) ascending order; loops are only
    usable in the single-orbit case, and the two-orbit case needs a pair of
    distinct parallel arcs.
    """
    k, q = qg.k, qg.num_orbits
    avail = qg.directed_voltages()
    if q == 1:
        for s in avail.get((0, 0), []):
            if math.gcd(s, k) == 1:
                return [0], [s]
        return None
    if q == 2:
        volts = avail.get((0, 1), [])
        for s0 in volts:
            for s1 in volts:
                if s1 != s0 and math.gcd(s0 - s1, k) == 1:
                    return [0, 1], [s0, (-s1) % k]
        return None
    support = [0] * q
    for a, b in avail:
        if a != b:
            support[a] |= 1 << b
    for path in _hamilton_cycles(support):
        volt_sets = [avail[(path[i], path[(i + 1) % q])] for i in range(q)]
        choice = _voltage_choice(volt_sets, k)
        if choice is not None:
            return list(path), choice
    return None


def find_symmetric_hamcycle(g: Graph, a: Perm) -> HamCycle | None:
    """A Hamilton cycle on which a acts as a rotation, or None.

    Searches Hamilton cycles of the quotient multigraph, accepting one iff
    its net voltage generates Z_k, then lifts.
    """
    qg = quotient_with_voltages(g, a)
    found = _quotient_ham_search(qg) if g.n >= 3 else None
    if found is None:
        return None
    cycle = lift(qg, *found)
    check_hamcycle(g, cycle)
    return cycle


def _open_region_ok(rows, head: int, rest: int) -> bool:
    """Whether a path ending at head can still close through the open
    vertices rest: each keeps two links among rest, head and vertex 0, and
    rest plus head is connected."""
    live = rest | 1 << head | 1
    probe = rest
    while probe:
        bit = probe & -probe
        probe ^= bit
        if (rows[bit.bit_length() - 1] & live).bit_count() < 2:
            return False
    region = rest | 1 << head
    comp = frontier = 1 << head
    while frontier:
        nxt = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            nxt |= rows[bit.bit_length() - 1]
        frontier = nxt & region & ~comp
        comp |= frontier
    return comp == region


def _hamilton_cycles(rows):
    """Every Hamilton cycle through vertex 0 of the graph with bitset
    adjacency rows, once in each direction, as a vertex tuple from 0.

    Depth-first with an explicit stack, neighbours in ascending order; a
    branch is cut as soon as _open_region_ok fails, which at the root is
    the connectivity of the whole graph.
    """
    n = len(rows)
    rest = (1 << n) - 2
    if n < 3 or not _open_region_ok(rows, 0, rest):
        return
    path = [0]
    todo = [rows[0] & rest]  # untried successors of path[i]
    while todo:
        cand = todo[-1]
        if not cand:
            todo.pop()
            rest |= 1 << path.pop()
            continue
        bit = cand & -cand
        todo[-1] = cand ^ bit
        head = bit.bit_length() - 1
        rest ^= bit
        if not rest:
            if rows[head] & 1:
                yield (*path, head)
        elif _open_region_ok(rows, head, rest):
            path.append(head)
            todo.append(rows[head] & rest)
            continue
        rest |= bit


def _plain_cycles(g: Graph):
    """Hamilton cycles of g, one of the two directions each: second < last."""
    return (c for c in _hamilton_cycles(g.rows) if c[1] < c[-1])


def find_hamcycle(g: Graph) -> HamCycle | None:
    return next(_plain_cycles(g), None)


def enumerate_hamcycles(g: Graph, limit: int = ENUM_LIMIT) -> tuple[list[HamCycle], bool]:
    """All Hamilton cycles up to rotation/reflection; exhaustive flag is False
    when the limit cut the enumeration short."""
    out: list[HamCycle] = []
    for cycle in _plain_cycles(g):
        if len(out) >= limit:
            return out, False
        out.append(cycle)
    return out, True
