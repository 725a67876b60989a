"""Quotients with voltages, the lifting construction, and Hamilton search.

Quotienting a graph by a semiregular automorphism of order k yields a
multigraph on the orbits whose arcs carry voltages in Z_k: voltage s from
orbit A to orbit B records that the representative of A is adjacent to the
s-th power image of the representative of B. The quotient refuses a
permutation that is not an automorphism (is_automorphism) and keeps the
ascending voltages of each ordered orbit pair, read off the neighbour tuple
of each orbit's representative alone: the automorphism carries that row to
every other vertex of the orbit. A Hamilton cycle of the quotient whose net
voltage generates Z_k lifts to a Hamilton cycle of the source graph on
which the automorphism acts as a rotation.

One search serves both uses: _hamilton_cycles, a non-recursive depth-first
generator over bitset adjacency rows, yields each Hamilton cycle once, in
ascending order, in the direction whose second vertex is below its last.
Each step is cut unless vertex 0 keeps an open neighbour above the second
vertex to close the cycle, the open neighbours of the vertex the step left
keep two live links each, and the open region stays connected; the
connectivity search from the new head stops once it reaches every open
neighbour of the vertex the step left. Plain enumeration takes the cycles
of the graph. The one symmetric search, symmetric_hamcycles,
takes those of the orbit support rows, or the path through all orbits
when there are fewer than three, and lifts each with every voltage choice
that generates Z_k, so it yields every Hamilton cycle on which the
automorphism acts as a rotation; find_symmetric_hamcycle is its first
lift. Reversing a quotient cycle negates its voltages, so one direction
has a generating choice exactly when the other does.

check_hamcycle, the one check that a sequence is a Hamilton cycle, returns
the tuple it checked; the symmetric search does not check its lifts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice

from .autgroup import is_automorphism
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
    k = semiregular_order(a)  # 0 on a non-permutation too
    if k < 2:
        raise ValueError("permutation is not semiregular of order >= 2")
    if not is_automorphism(g, a):
        raise ValueError("permutation is not an automorphism")
    orbit_lists = orbits(a)
    orbit_of, exponent = [0] * g.n, [0] * g.n
    for idx, orb in enumerate(orbit_lists):
        for e, v in enumerate(orb):
            orbit_of[v], exponent[v] = idx, e
    # a maps edges to edges, so v_A^e ~ v_B^(e+s) for every e exactly when
    # the representative v_A^0 ~ v_B^s
    found: dict[tuple[int, int], list[int]] = {}
    for idx, orb in enumerate(orbit_lists):
        for v in g.nbrs[orb[0]]:
            found.setdefault((idx, orbit_of[v]), []).append(exponent[v])
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


def _voltage_choices(volt_sets: list[list[int]], k: int):
    """Every choice of one voltage per step whose total generates Z_k, once.

    The sums reachable after each step are propagated forward. Totals come
    in ascending order; within a total the steps are filled from the last
    one back, taking the least voltage that leaves a sum the earlier steps
    reach, so every branch completes. The search keeps an explicit stack of
    (step, voltage, sum the steps up to it must reach): q can be thousands.
    """
    sums = [{0}]
    for vs in volt_sets:
        sums.append({(x + s) % k for x in sums[-1] for s in vs})
    choice = [0] * len(volt_sets)
    i = len(volt_sets) - 1
    todo = [(i, s, t) for t in sorted(sums[-1], reverse=True) if math.gcd(t, k) == 1
            for s in reversed(volt_sets[i]) if (t - s) % k in sums[i]]
    while todo:
        i, s, need = todo.pop()
        choice[i] = s
        need = (need - s) % k
        if i > 1:
            i -= 1
            todo += [(i, s, need) for s in reversed(volt_sets[i]) if (need - s) % k in sums[i]]
            continue
        if i:  # the first step takes what is left, which sums[1] holds
            choice[0] = need
        yield tuple(choice)


def symmetric_hamcycles(g: Graph, a: Perm):
    """Every Hamilton cycle on which a acts as a rotation, not canonicalized:
    each Hamilton cycle of the quotient lifted with every choice of
    _voltage_choices for the voltage sets of its arcs. The quotient cycle on
    one or two orbits is the path (0,) or (0, 1), closed by a loop or by a
    pair of parallel arcs; loops take no part in longer cycles, which come
    from _hamilton_cycles on the orbit support rows. A cycle on one or two
    orbits comes once per direction. No lift needs a check: lift refuses a
    quotient cycle missing an orbit, an absent arc and a net voltage that
    does not generate Z_k, and for an automorphism a generating net voltage
    makes the walk visit each vertex once along edges. Callers making a
    certificate replay a lift through compression.cycle_compression."""
    qg = quotient_with_voltages(g, a)
    if g.n < 3:  # K2 would lift to a 2-vertex "cycle"
        return
    q = len(qg.orbit_lists)
    avail = qg.voltages
    support = [0] * q
    for u, v in avail:
        if u != v:
            support[u] |= 1 << v
    for path in [tuple(range(q))] if q < 3 else _hamilton_cycles(support):
        volt_sets = [avail.get((path[i], path[(i + 1) % q]), []) for i in range(q)]
        for choice in _voltage_choices(volt_sets, qg.k):
            yield lift(qg, path, choice)


def find_symmetric_hamcycle(g: Graph, a: Perm) -> HamCycle | None:
    """A Hamilton cycle on which a acts as a rotation, or None: the first
    of symmetric_hamcycles."""
    return next(symmetric_hamcycles(g, a), None)


def _open_region_ok(rows, head: int, rest: int, lost: int) -> bool:
    """Whether a path ending at head can still close through the open
    vertices rest: each keeps two live links (the live set is rest, head and
    vertex 0), and rest plus head is connected. Both held before the step to
    head, which took the previous head out of the region and, unless it is
    vertex 0, out of the live set, so only its open neighbours lost need the
    degree check. Each part the previous head's deletion leaves holds one of
    its open neighbours, lost or head, so the region is connected exactly
    when head reaches every vertex of lost: at once when all of them are
    next to head, else by a breadth-first search that stops once it has
    reached the others, far. At the root, lost is rest."""
    live = rest | 1 << head | 1
    probe = lost
    while probe:
        bit = probe & -probe
        probe ^= bit
        if (rows[bit.bit_length() - 1] & live).bit_count() < 2:
            return False
    far = lost & ~rows[head]
    return not far or not far & ~reach(rows, head, rest | 1 << head, far)


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
