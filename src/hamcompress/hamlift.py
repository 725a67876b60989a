"""Quotients with voltages, the lifting construction, and Hamilton search.

Quotienting a graph by a semiregular automorphism of order k yields a
multigraph on the orbits whose arcs carry voltages in Z_k: voltage s from
orbit A to orbit B records that the representative of A is adjacent to the
s-th power image of the representative of B. The quotient keeps the
ascending voltages of each ordered orbit pair, read in one pass over the
graph's neighbour tuples. A Hamilton cycle of the quotient whose net
voltage generates Z_k lifts to a Hamilton cycle of the source graph on
which the automorphism acts as a rotation.

One search serves both uses: _hamilton_cycles, a non-recursive depth-first
generator over bitset adjacency rows, yields each Hamilton cycle once, in
ascending order, in the direction whose second vertex is below its last.
Each step is cut unless vertex 0 keeps an open neighbour above the second
vertex to close the cycle, the open neighbours of the vertex the step left
keep two live links each, and the open region stays connected; the
connectivity search runs only when the step could have cut the region. Plain enumeration takes
the cycles of the graph; the quotient search takes those of the orbit
support rows and stops at the first whose voltages can be chosen to
generate Z_k. Reversing a quotient cycle negates its voltages, so one
direction finds a generating net voltage exactly when the other does.
symmetric_hamcycles walks the same quotient cycles but lifts every voltage
choice that generates Z_k, so it yields every Hamilton cycle on which the
automorphism acts as a rotation.

check_hamcycle, the one check that a sequence is a Hamilton cycle, returns
the tuple it checked; find_symmetric_hamcycle does not check its lift again.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice, product

from .graph import Graph, reach
from .perm import Perm, orbits, semiregular_order

HamCycle = tuple[int, ...]

ENUM_LIMIT = 10**7


def check_hamcycle(g: Graph, seq) -> HamCycle:
    """The sequence as a tuple, once checked to be a Hamilton cycle of g."""
    seq = tuple(seq)
    if len(seq) < 3:
        raise ValueError("a Hamilton cycle needs at least 3 vertices")
    if len(seq) != g.n or sorted(seq) != list(range(g.n)):
        raise ValueError("sequence does not visit every vertex exactly once")
    for i, u in enumerate(seq):
        if not g.has_edge(u, seq[(i + 1) % g.n]):
            raise ValueError(f"vertices {u} and {seq[(i + 1) % g.n]} are not adjacent")
    return seq


def canonical_cycle(seq) -> HamCycle:
    """Rotate the least vertex to the front and fix the direction, collapsing
    the 2n equivalent presentations of one cycle."""
    seq = tuple(seq)
    i0 = seq.index(min(seq))
    fwd = seq[i0:] + seq[:i0]
    return fwd if fwd[1] <= fwd[-1] else fwd[:1] + fwd[:0:-1]


@dataclass(frozen=True)
class QuotientGraph:
    """Multigraph on the orbits of a semiregular automorphism.

    orbit_lists[A][e] is the e-th image of A's representative (the least
    vertex of the orbit). voltages[(A, B)] lists ascending the voltages of
    the arcs from A to B, for each ordered pair joined by an edge; two or
    more are parallel arcs. Reversing an arc negates its voltage, so
    voltages[(B, A)] holds the negatives of voltages[(A, B)], and a loop
    carries both s and -s.
    """

    k: int
    orbit_lists: tuple[tuple[int, ...], ...]
    voltages: dict[tuple[int, int], list[int]]


def quotient_with_voltages(g: Graph, a: Perm) -> QuotientGraph:
    if len(a) != g.n:
        raise ValueError("degree mismatch")
    k = semiregular_order(a)  # first: on a non-permutation the orbit walk never ends
    if k < 2:
        raise ValueError("permutation is not semiregular of order >= 2")
    orbit_lists = orbits(a)
    orbit_of, exponent = [0] * g.n, [0] * g.n
    for idx, orb in enumerate(orbit_lists):
        for e, v in enumerate(orb):
            orbit_of[v], exponent[v] = idx, e
    found: dict[tuple[int, int], set[int]] = {}
    for u, nb in enumerate(g.nbrs):  # both ends of an edge: s one way, -s back
        for v in nb:
            found.setdefault((orbit_of[u], orbit_of[v]), set()).add(
                (exponent[v] - exponent[u]) % k)
    voltages = {pair: sorted(vs) for pair, vs in found.items()}
    return QuotientGraph(k, orbit_lists, voltages)


def lift(qg: QuotientGraph, orbit_cycle, voltages) -> HamCycle:
    """Lift a quotient Hamilton cycle with chosen arc voltages.

    orbit_cycle visits every orbit exactly once; voltages[i] is the voltage
    of the arc from orbit_cycle[i] to its successor. The lift exists iff the
    net voltage generates Z_k; otherwise the walk closes early and a
    ValueError is raised.
    """
    orbit_cycle = list(orbit_cycle)
    voltages = list(voltages)
    k, q = qg.k, len(qg.orbit_lists)
    if sorted(orbit_cycle) != list(range(q)) or len(voltages) != q:
        raise ValueError("not a closed quotient cycle visiting every orbit once")
    for i, a in enumerate(orbit_cycle):
        b = orbit_cycle[(i + 1) % q]
        if voltages[i] not in qg.voltages.get((a, b), []):
            raise ValueError(f"no arc from orbit {a} to {b} with voltage {voltages[i]}")
    net = sum(voltages) % k
    if math.gcd(net, k) != 1:
        raise ValueError(f"net voltage {net} does not generate Z_{k}; lift closes early")
    exps = [0] * q
    for i in range(1, q):
        exps[i] = exps[i - 1] + voltages[i - 1]
    # gcd(net, k) = 1: orbit i is entered at exps[i] + j*net, k distinct indices
    return tuple(
        qg.orbit_lists[orb][(exps[i] + j * net) % k]
        for j in range(k)
        for i, orb in enumerate(orbit_cycle)
    )


def _voltage_choice(volt_sets: list[list[int]], k: int) -> list[int] | None:
    """Pick one voltage per step so the total generates Z_k, or None.

    Reachable subsets are propagated forward; the least achievable generator
    is reconstructed backwards, greedily taking the least voltage per step.
    """
    sums = [{0}]
    for vs in volt_sets:
        sums.append({(x + s) % k for x in sums[-1] for s in vs})
    targets = sorted(t for t in sums[-1] if math.gcd(t, k) == 1)
    if not targets:
        return None
    cur = targets[0]
    choice = [0] * len(volt_sets)
    for i in range(len(volt_sets) - 1, -1, -1):
        for s in volt_sets[i]:
            if (cur - s) % k in sums[i]:
                choice[i] = s
                cur = (cur - s) % k
                break
    return choice


def _parallel_pairs(qg: QuotientGraph):
    """The quotient cycles on two orbits: a pair of parallel arcs s0, s1 from
    orbit 0 to orbit 1, out on s0 and back on s1, whose net voltage s0 - s1
    generates Z_k; pairs in lexicographic order."""
    k = qg.k
    volts = qg.voltages.get((0, 1), [])
    return (([0, 1], [s0, (-s1) % k]) for s0 in volts for s1 in volts
            if math.gcd(s0 - s1, k) == 1)


def _support_cycles(qg: QuotientGraph):
    """The quotient Hamilton cycles on one orbit or three or more whose
    voltages can be chosen to generate Z_k, each with the voltage sets of its
    arcs and _voltage_choice's choice. A single orbit is the path (0,) closed
    by a loop; loops take no part in longer cycles, which come from
    _hamilton_cycles on the orbit support rows."""
    k, q = qg.k, len(qg.orbit_lists)
    avail = qg.voltages
    support = [0] * q
    for a, b in avail:
        if a != b:
            support[a] |= 1 << b
    for path in [(0,)] if q == 1 else _hamilton_cycles(support):
        volt_sets = [avail.get((path[i], path[(i + 1) % q]), []) for i in range(q)]
        choice = _voltage_choice(volt_sets, k)
        if choice is not None:
            yield path, volt_sets, choice


def find_symmetric_hamcycle(g: Graph, a: Perm) -> HamCycle | None:
    """A Hamilton cycle on which a acts as a rotation, or None.

    Searches Hamilton cycles of the quotient multigraph, accepting one iff
    its net voltage generates Z_k, then lifts: on two orbits the first pair
    of parallel arcs, else the first of _support_cycles with its
    _voltage_choice. The lift needs no check: lift refuses a quotient cycle
    missing an orbit, an absent arc and a net voltage that does not
    generate Z_k, and with a generating net voltage the walk visits each
    vertex once along edges. Callers making a certificate replay it through
    compression.cycle_compression.
    """
    qg = quotient_with_voltages(g, a)
    if g.n < 3:
        return None
    if len(qg.orbit_lists) == 2:
        found = next(_parallel_pairs(qg), None)
    else:
        found = next(((list(path), choice) for path, _, choice in _support_cycles(qg)), None)
    return None if found is None else lift(qg, *found)


def symmetric_hamcycles(g: Graph, a: Perm):
    """Every Hamilton cycle on which a acts as a rotation, not canonicalized:
    find_symmetric_hamcycle's quotient cycles, each lifted with every
    voltage choice whose net generates Z_k. A cycle on one or two orbits
    comes once per direction."""
    qg = quotient_with_voltages(g, a)
    if g.n < 3:
        return
    if len(qg.orbit_lists) == 2:
        found = _parallel_pairs(qg)
    else:
        found = ((path, choice) for path, volt_sets, _ in _support_cycles(qg)
                 for choice in product(*volt_sets) if math.gcd(sum(choice), qg.k) == 1)
    for path, choice in found:
        yield lift(qg, path, choice)


def _open_region_ok(rows, head: int, rest: int, lost: int) -> bool:
    """Whether a path ending at head can still close through the open
    vertices rest: each keeps two live links (the live set is rest, head and
    vertex 0), and rest plus head is connected. Both held before the step to
    head, which took the previous head out of the region and, unless it is
    vertex 0, out of the live set, so only its open neighbours lost need the
    degree check. The region stays connected when each vertex of lost is
    adjacent to head, since every part of it touches lost or head; only
    otherwise is it searched breadth-first. At the root, lost is rest."""
    live = rest | 1 << head | 1
    probe = lost
    while probe:
        bit = probe & -probe
        probe ^= bit
        if (rows[bit.bit_length() - 1] & live).bit_count() < 2:
            return False
    if not lost & ~rows[head]:
        return True
    region = rest | 1 << head
    return reach(rows, head, region) == region


def _hamilton_cycles(rows):
    """Every Hamilton cycle of the graph with bitset adjacency rows, once,
    in ascending order, as a vertex tuple from 0 in the direction whose
    second vertex is below its last.

    Depth-first with an explicit stack, neighbours in ascending order. A
    step is cut when vertex 0 keeps no open closer (above the second vertex)
    or when _open_region_ok fails on the open neighbours of the previous
    head, the only vertex that leaves the live set; at the root that check
    covers the whole graph.
    """
    n = len(rows)
    rest = (1 << n) - 2
    if n < 3 or not _open_region_ok(rows, 0, rest, rest):
        return
    closers = rows[0]
    path = [0]
    todo = [closers & rest]  # untried successors of path[i]
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
        prev = path[-1]
        if not prev:
            closers = rows[0] & -(2 << head)
        if not rest:
            if closers & bit:
                yield (*path, head)
        elif closers & rest and _open_region_ok(rows, head, rest, rows[prev] & rest):
            path.append(head)
            todo.append(rows[head] & rest)
            continue
        rest |= bit


def find_hamcycle(g: Graph) -> HamCycle | None:
    return next(_hamilton_cycles(g.rows), None)


def enumerate_hamcycles(g: Graph, limit: int = ENUM_LIMIT) -> tuple[list[HamCycle], bool]:
    """All Hamilton cycles up to rotation/reflection; exhaustive flag is False
    when the limit cut the enumeration short."""
    if limit < 1:
        raise ValueError("limit must be positive")
    cycles = _hamilton_cycles(g.rows)
    out = list(islice(cycles, min(limit, sys.maxsize)))  # islice refuses a larger stop
    return out, next(cycles, None) is None
