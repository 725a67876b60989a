"""Automorphism groups by partition-refinement backtracking.

The search builds a stabilizer chain: for an ascending sequence of base
vertices it computes, level by level, the orbit of the base vertex under the
pointwise stabilizer of the earlier ones, with a witness automorphism per
orbit member. The group order is the product of the orbit sizes
(orbit-stabilizer), which stays exact even when the full element list is not
enumerated. Groups above DEFAULT_CAP elements are capped: their element list
is left out. Functions that read a group take it as `group=`.

The base path is refined once (the first path of McKay & Piperno 2014): each
level keeps its partition from before the base vertex is individualized, the
base vertex's cell and the trace of the refinement that follows. One search
step, `_search_one`, finds every witness: it individualizes a target vertex
on a copy of the level's partition, replays the level's trace on that one
side (`_replay`) and recurses over the next level's cell, one nested call per
level, down to the leaf, which `is_automorphism` checks.

Orbit pruning (McKay & Piperno 2014): each witness is kept as the
transversal entry of its target, and the transversal is closed under the
level's witnesses (a new point u = s[w] gets compose(s, transversal[w])), so
a target already in it is not searched. `generators` is every transversal
entry after the first, the base point's identity, level by level, in the
order added; capped groups read their semiregular pool from them.

Refinement counts neighbours from the graph's neighbour tuples, `Graph.nbrs`,
and so does the leaf check `is_automorphism`.

The element list serves two scans: `cyclic_semiregular_reps` reads each
element's cycle type once (`perm.semiregular_order`), and `_regular_search`
closes each subgroup under its generators (Seress 2003, ch. 2); a regular
subgroup is returned as its sorted element tuple, with no classification.

Determinism: a replay splits the target side's cells exactly as the trace
records, so aligned cells keep matching indices; the base vertex is always
the least vertex of the first non-singleton cell, and candidate targets are
tried in ascending order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import gcd, prod

from .graph import Graph
from .perm import (
    Perm,
    compose,
    identity,
    is_fixed_point_free,
    semiregular_order,
)

DEFAULT_CAP = 1 << 20


def is_automorphism(g: Graph, a: Perm) -> bool:
    """True iff a is a permutation of the vertices that maps the edge set of
    g onto itself."""
    n = g.n
    if len(a) != n:
        raise ValueError(f"degree mismatch: permutation on {len(a)}, graph on {n}")
    rows = g.rows
    try:
        for u, nb in enumerate(g.nbrs):
            img = 0
            for v in nb:
                img |= 1 << a[v]
            if img != rows[a[u]]:
                return False
    except (IndexError, ValueError, OverflowError):  # an image outside range(n)
        return False
    # checked last: a non-bijection can match every row (the constant map on
    # an edgeless graph), but most calls have already failed above
    return sorted(a) == list(range(n))


# A partition (col, cells): cells[i] lists the members of cell i ascending,
# and col[v] is the index of v's cell.
Side = tuple[list[int], list[list[int]]]
Nbrs = tuple[tuple[int, ...], ...]
# One splitter of a refinement: its cell index, the (cell, count) tallies of
# its neighbour counts, and the indices of the cells it split.
Step = tuple[int, dict, list[int]]


def _counts(nbrs: Nbrs, col: list[int], members: list[int]) -> tuple[dict, dict]:
    """|N(u) & members| for every u where it is positive, and the number of
    such u per (cell of u, count) pair."""
    cnt: dict[int, int] = {}
    for x in members:
        for u in nbrs[x]:
            cnt[u] = cnt.get(u, 0) + 1
    shape: dict[tuple[int, int], int] = {}
    for u, k in cnt.items():
        key = (col[u], k)
        shape[key] = shape.get(key, 0) + 1
    return cnt, shape


def _split(side: Side, c: int, cnt: dict) -> bool:
    """Split cell c by count (absent is 0), in place: the lowest count keeps
    the index, the others are appended in ascending count. False, with the
    cell untouched, when one count fills it. The one change a partition
    undergoes; individualizing v is the split by {v: 1}."""
    col, cells = side
    by_count: dict[int, list[int]] = {}
    for x in cells[c]:
        by_count.setdefault(cnt.get(x, 0), []).append(x)
    if len(by_count) == 1:
        return False
    low, *rest = sorted(by_count)
    cells[c] = by_count[low]
    for k in rest:
        part = by_count[k]
        for x in part:
            col[x] = len(cells)
        cells.append(part)
    return True


def _refine(nbrs: Nbrs, side: Side, queue: list[int]) -> list[Step]:
    """Refine the partition, in place, to the coarsest equitable one below
    it (McKay & Piperno 2014, after Hopcroft 1971), and return its trace.

    queue holds the cells to split by. For a popped splitter W, every cell
    is split by |N(v) & W| (`_split`), and the split cell and its new parts
    are queued. Stops early once the partition is discrete. The trace lists
    every popped splitter in order; `_replay` repeats it on another
    partition.
    """
    col, cells = side
    queued = set(queue)
    trace: list[Step] = []
    while queue and len(cells) < len(col):
        w = queue.pop()
        queued.discard(w)
        cnt, shape = _counts(nbrs, col, cells[w])
        splits = []
        for c in dict.fromkeys(c for c, _ in shape):  # touched cells, in order
            first = len(cells)
            if not _split(side, c, cnt):
                continue
            splits.append(c)
            for i in (c, *range(first, len(cells))):
                if i not in queued:
                    queued.add(i)
                    queue.append(i)
        trace.append((w, shape, splits))
    return trace


def _replay(nbrs: Nbrs, side: Side, trace: list[Step]) -> bool:
    """Repeat a recorded refinement, in place, on a partition aligned with
    the one it was recorded on. Returns False at the first splitter whose
    count tallies differ from the recorded ones: no automorphism maps the
    recorded cells onto these. Once they match, each split cell holds the
    counts of its recorded twin (the zeros too: aligned cells have equal
    sizes), so `_split` sorts them into the recorded parts and the two
    partitions stay aligned."""
    col, cells = side
    for w, shape, splits in trace:
        cnt, found = _counts(nbrs, col, cells[w])
        if found != shape:
            return False
        for c in splits:
            _split(side, c, cnt)
    return True


def _first_cell(cells: list[list[int]]) -> int | None:
    """Index of the first cell with two or more members; None when every
    cell is a singleton."""
    return next((i for i, cell in enumerate(cells) if len(cell) > 1), None)


# One level of the base path: the partition before the base point is
# individualized, the index of the base point's cell, and the trace of the
# refinement that follows.
Level = tuple[Side, int, list[Step]]


def _search_one(g: Graph, path: list[Level], leaf: list[int], depth: int,
                side: Side, t: int) -> Perm | None:
    """The first automorphism that sends the base points of `path` above
    `depth` to the target points already individualized in `side`, and the
    base point of `depth` to t; None if there is none. `side` is aligned
    with the partition of `depth`, and `leaf` gives each vertex's cell in
    the discrete partition at the end of the path. Each level replays the
    base path's recorded refinement on the target side alone."""
    side = (list(side[0]), list(side[1]))
    _split(side, side[0][t], {t: 1})  # individualize t
    if not _replay(g.nbrs, side, path[depth][2]):
        return None
    cells = side[1]
    if depth + 1 == len(path):
        p = tuple(cells[i][0] for i in leaf)
        return p if is_automorphism(g, p) else None
    for w in cells[path[depth + 1][1]]:
        found = _search_one(g, path, leaf, depth + 1, side, w)
        if found is not None:
            return found
    return None


@dataclass(frozen=True)
class GroupData:
    """An automorphism group: generators, exact order, and (unless capped)
    the full sorted element list."""

    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...] | None
    order: int
    capped: bool


def automorphism_group(g: Graph) -> GroupData:
    """Aut(g); the element list is left out (capped) above DEFAULT_CAP
    elements."""
    n = g.n
    part: Side = ([0] * n, [list(range(n))] if n else [])
    _refine(g.nbrs, part, list(range(len(part[1]))))
    path: list[Level] = []  # the base path, refined once
    while (c := _first_cell(part[1])) is not None:
        before = (list(part[0]), list(part[1]))
        _split(part, c, {part[1][c][0]: 1})  # individualize the base point: its stabilizer
        path.append((before, c, _refine(g.nbrs, part, [len(part[1]) - 1])))
    levels: list[dict[int, Perm]] = []
    for depth, (before, c, _) in enumerate(path):
        base, *cell = before[1][c]
        transversal: dict[int, Perm] = {base: identity(n)}
        witnesses: list[Perm] = []
        for t in cell:
            if t in transversal:
                continue  # already reached by the closure: same orbit
            try:
                witness = _search_one(g, path, part[0], depth, before, t)
            except RecursionError:  # one nested call per level below depth
                raise ValueError(
                    f"automorphism search on {n} vertices exceeds the recursion limit "
                    f"of {sys.getrecursionlimit()}") from None
            if witness is None:
                continue
            witnesses.append(witness)
            transversal[t] = witness
            known = list(transversal)
            for w in known:  # close the orbit under this level's witnesses
                for s in witnesses:
                    u = s[w]
                    if u not in transversal:
                        transversal[u] = compose(s, transversal[w])
                        known.append(u)
        levels.append(transversal)
    grp_order = prod(len(t) for t in levels)
    # each level's first entry is its only identity: the others move the base point
    generators = tuple(p for t in levels for p in list(t.values())[1:])
    if grp_order > DEFAULT_CAP:
        return GroupData(generators, None, grp_order, True)
    elements = [identity(n)]
    for transversal in reversed(levels):
        elements = [compose(u, e) for u in transversal.values() for e in elements]
    elements.sort()
    return GroupData(generators, tuple(elements), grp_order, False)


def cyclic_semiregular_reps(group: GroupData) -> dict[int, list[Perm]]:
    """One generator per cyclic semiregular subgroup of order >= 2, keyed by
    order: the least generator of each subgroup, ascending.

    One pass over the sorted element list (for capped groups, the cyclic
    subgroups of the generators): an element not yet claimed whose cycles
    all have one length k >= 2 (`semiregular_order`) is the least generator
    of its subgroup, and claims that subgroup's other generators a^e,
    gcd(e, k) = 1, read off the successive products a^2, ..., a^(k-1).
    """
    pool = group.elements
    if group.capped:
        powers: set[Perm] = set()
        for gen in group.generators:
            p, one = gen, identity(len(gen))
            while p != one:
                powers.add(p)
                p = compose(gen, p)
        pool = sorted(powers)
    reps: dict[int, list[Perm]] = {}
    claimed: set[Perm] = set()
    for a in pool:
        if a in claimed:
            continue
        k = semiregular_order(a)
        if k < 2:
            continue
        reps.setdefault(k, []).append(a)
        p = a
        for e in range(2, k):
            p = compose(a, p)
            if gcd(e, k) == 1:
                claimed.add(p)
    return reps


@dataclass(frozen=True)
class SemArray:
    """Ascending orders of semiregular automorphisms, with one witness each.
    exact is False when the group enumeration was capped."""

    values: tuple[int, ...]
    witnesses: dict[int, Perm]
    exact: bool


def sem_array(g: Graph, group: GroupData | None = None) -> SemArray:
    """Witness per order: the least semiregular element of that order."""
    if group is None:
        group = automorphism_group(g)
    found = {1: identity(g.n)}
    found.update((k, gens[0]) for k, gens in cyclic_semiregular_reps(group).items())
    return SemArray(tuple(sorted(found)), found, exact=not group.capped)


def _closure(base: set[Perm], gens: tuple[Perm, ...], extra: Perm,
             n: int) -> set[Perm] | None:
    """Subgroup generated by base, the subgroup generated by gens, and extra;
    None as soon as a non-identity element fixes a point or the size exceeds
    n.

    Closure under generators (Seress 2003, ch. 2): base plus extra is closed
    under left multiplication by gens plus extra, so each element costs
    len(gens) + 1 products; from the identity, that reaches every word.
    """
    gens = (*gens, extra)
    elems = {*base, extra}
    frontier = list(elems)
    while frontier:
        a = frontier.pop()
        for s in gens:
            c = compose(s, a)
            if c not in elems:
                if len(elems) == n or not is_fixed_point_free(c):
                    return None
                elems.add(c)
                frontier.append(c)
    return elems


def _regular_search(group: GroupData, n: int):
    """Every order-n subgroup of the uncapped group acting regularly on the
    n vertices, once each, as the search reaches it; none when n = 0.

    Search from vertex 0: a regular subgroup has exactly one element sending
    0 to each vertex. Depth-first from {id}; at a subgroup H, branch over the
    fixed-point-free x with x(0) = v, v the least vertex outside H's orbit of
    0, and close H with x. A closure whose non-identity elements are all
    fixed-point-free acts semiregularly, so reaching size n means regular.
    Each stack entry carries the generators H was closed from; each one at
    least doubles the order, so there are at most log2(n) of them.

    No subgroup is reached twice, so none is recorded: each step on the way
    to a subgroup K closes some H inside K with some x in K, the v it picks
    depends only on H, and x must be the one element of the semiregular K
    sending 0 to v. So K is reached along one path, and distinct x close to
    distinct subgroups.
    """
    if n == 0:
        return
    by_image: dict[int, list[Perm]] = {}
    for a in group.elements:
        if is_fixed_point_free(a):
            by_image.setdefault(a[0], []).append(a)
    stack: list[tuple[set[Perm], tuple[Perm, ...]]] = [({identity(n)}, ())]
    while stack:
        h, gens = stack.pop()
        if len(h) == n:
            yield h
            continue
        orbit = {a[0] for a in h}
        v = next(w for w in range(n) if w not in orbit)
        for x in by_image.get(v, ()):
            k = _closure(h, gens, x, n)
            if k is not None:
                stack.append((k, (*gens, x)))


def regular_subgroups(g: Graph, group: GroupData | None = None) -> list[tuple[Perm, ...]] | None:
    """All order-n subgroups acting regularly on g, each as its sorted
    element tuple, in ascending order, or None when the group enumeration
    was capped (status unknown)."""
    if group is None:
        group = automorphism_group(g)
    if group.capped:
        return None
    return sorted(tuple(sorted(h)) for h in _regular_search(group, g.n))


def is_cayley(g: Graph, group: GroupData | None = None) -> str:
    """"yes" / "no" / "unknown": does some subgroup act regularly on g? The
    search stops at the first regular subgroup."""
    if group is None:
        group = automorphism_group(g)
    if group.capped:
        return "unknown"
    found = next(_regular_search(group, g.n), None) is not None
    return "yes" if found else "no"
