"""Automorphism groups by partition-refinement backtracking.

The search builds a stabilizer chain: for an ascending sequence of base
vertices it computes, level by level, the orbit of the base vertex under the
pointwise stabilizer of the earlier ones, with a witness automorphism per
orbit member. The group order is the product of the orbit sizes
(orbit-stabilizer), which stays exact even when the full element list is not
enumerated. One search step, `_search_one`, finds every witness: it
individualizes a source and a target vertex, refines both partitions jointly
and recurses on the first non-singleton cell, one nested call per
individualized vertex. Groups above DEFAULT_CAP elements are capped: their
element list is left out. Functions that read a group take it as `group=`.

Orbit pruning (McKay & Piperno 2014): each witness is kept as the
transversal entry of its target, and the transversal is closed under the
level's witnesses (a new point u = s[w] gets compose(s, transversal[w])), so
a target already in it is not searched. `generators` is every non-identity
transversal entry, level by level, in the order added; capped groups read
their semiregular pool from them.

Refinement counts neighbours from the graph's neighbour tuples, `Graph.nbrs`,
and so does the leaf check `is_automorphism`.

The element list serves two scans: `cyclic_semiregular_reps` reads each
element's cycle type once (`perm.semiregular_order`), and `_regular_search`
closes each subgroup under its generators (Seress 2003, ch. 2).

Determinism: refinement splits cells by neighbour counts, identically on
both sides (see `_refine`), so aligned cells keep matching indices; the base
vertex is always the least vertex of the first non-singleton cell, and
candidate targets are tried in ascending order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import gcd, prod

from .graph import Graph
from .numth import is_prime
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


# A side of the search is a partition (col, cells): cells[i] lists the
# members of cell i ascending, and col[v] is the index of v's cell.
Side = tuple[list[int], list[list[int]]]
Nbrs = tuple[tuple[int, ...], ...]


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


def _refine(nbrs: Nbrs, sides: list[Side], queue: list[int]) -> bool:
    """Jointly refine aligned partitions (a source and a target side, or one
    side alone), in place, to the coarsest equitable ones below them (McKay
    & Piperno 2014, after Hopcroft 1971).

    queue holds the cells to split by. For a popped splitter W, every cell
    is split by |N(v) & W|: the parts are ordered by that count, the first
    keeps the cell's index and the others are appended; all of them are
    queued. Stops early once the partitions are discrete, leaving the check
    of that pair to the caller. Returns False as soon as the touched cells,
    the counts or the part sizes differ between the sides, i.e. no
    automorphism maps the source cells onto the target cells.
    """
    col_a, cells_a = sides[0]
    queued = set(queue)
    while queue and len(cells_a) < len(col_a):
        w = queue.pop()
        queued.discard(w)
        counted = [_counts(nbrs, col, cells[w]) for col, cells in sides]
        shape = counted[0][1]
        if any(other != shape for _, other in counted[1:]):
            return False
        kinds: dict[int, int] = {}  # touched cell -> distinct counts in it
        hit: dict[int, int] = {}  # touched cell -> members with a count
        for (c, _), size in shape.items():
            kinds[c] = kinds.get(c, 0) + 1
            hit[c] = hit.get(c, 0) + size
        for c, distinct in kinds.items():
            if distinct == 1 and hit[c] == len(cells_a[c]):
                continue  # one count throughout: no split
            first = len(cells_a)
            for (col, cells), (cnt, _) in zip(sides, counted):
                by_count: dict[int, list[int]] = {}
                for x in cells[c]:
                    by_count.setdefault(cnt.get(x, 0), []).append(x)
                keys = sorted(by_count)
                cells[c] = by_count[keys[0]]
                for k in keys[1:]:
                    part = by_count[k]
                    for x in part:
                        col[x] = len(cells)
                    cells.append(part)
            for i in (c, *range(first, len(cells_a))):
                if i not in queued:
                    queued.add(i)
                    queue.append(i)
    return True


def _individualize(side: Side, v: int) -> None:
    """Move v out of its cell into a new singleton cell, in place."""
    col, cells = side
    cells[col[v]] = [x for x in cells[col[v]] if x != v]
    col[v] = len(cells)
    cells.append([v])


def _first_cell(cells: list[list[int]]) -> int | None:
    """Index of the first cell with two or more members; None when every
    cell is a singleton."""
    return next((i for i, cell in enumerate(cells) if len(cell) > 1), None)


def _search_one(g: Graph, a: Side, b: Side, v: int, t: int) -> Perm | None:
    """The first automorphism sending v to t that respects the aligned
    partitions a -> b, or None; v and t get a new cell on each side."""
    a = (list(a[0]), list(a[1]))
    b = (list(b[0]), list(b[1]))
    _individualize(a, v)
    _individualize(b, t)
    if not _refine(g.nbrs, [a, b], [len(a[1]) - 1]):
        return None
    c = _first_cell(a[1])
    if c is None:
        p = tuple(b[1][i][0] for i in a[0])
        return p if is_automorphism(g, p) else None
    u = a[1][c][0]
    for w in b[1][c]:
        found = _search_one(g, a, b, u, w)
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
    _refine(g.nbrs, [part], list(range(len(part[1]))))
    levels: list[dict[int, Perm]] = []
    while (c := _first_cell(part[1])) is not None:
        base, *cell = part[1][c]
        transversal: dict[int, Perm] = {base: identity(n)}
        witnesses: list[Perm] = []
        for t in cell:
            if t in transversal:
                continue  # already reached by the closure: same orbit
            try:
                witness = _search_one(g, part, part, base, t)
            except RecursionError:  # one nested call per individualized vertex
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
        _individualize(part, base)  # fix the base point: its stabilizer
        _refine(g.nbrs, [part], [len(part[1]) - 1])
    grp_order = prod(len(t) for t in levels)
    generators = tuple(
        p for t in levels for p in t.values() if any(p[i] != i for i in range(n))
    )
    if grp_order > DEFAULT_CAP:
        return GroupData(generators, None, grp_order, True)
    elements = [identity(n)]
    for transversal in reversed(levels):
        elements = [compose(u, e) for u in transversal.values() for e in elements]
    elements.sort()
    return GroupData(generators, tuple(elements), grp_order, False)


def _semiregular_pool(group: GroupData) -> list[Perm]:
    """Elements available for semiregularity scans; for capped groups only
    the cyclic subgroups of the generators are visible."""
    if not group.capped:
        return list(group.elements)
    pool: set[Perm] = set()
    for gen in group.generators:
        p = gen
        while any(p[i] != i for i in range(len(p))):
            pool.add(p)
            p = compose(gen, p)
    return sorted(pool)


def cyclic_semiregular_reps(group: GroupData) -> dict[int, list[Perm]]:
    """One generator per cyclic semiregular subgroup of order >= 2, keyed by
    order: the least generator of each subgroup, ascending.

    One pass over the sorted pool: an element not yet claimed whose cycles
    all have one length k >= 2 (`semiregular_order`) is the least generator
    of its subgroup, and claims that subgroup's other generators a^e,
    gcd(e, k) = 1, read off the successive products a^2, ..., a^(k-1).
    """
    reps: dict[int, list[Perm]] = {}
    claimed: set[Perm] = set()
    for a in _semiregular_pool(group):
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


@dataclass(frozen=True)
class RegularSubgroup:
    order: int
    elements: tuple[Perm, ...]
    # "cyclic" when some element has order n; else "dihedral" when n = 2p,
    # p an odd prime (the non-cyclic group of that order); else None
    tag: str | None


def _closure(base: frozenset[Perm], gens: tuple[Perm, ...], extra: Perm,
             n: int) -> frozenset[Perm] | None:
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
    return frozenset(elems)


def _regular_search(group: GroupData, n: int):
    """Every order-n subgroup of the uncapped group acting regularly on the
    n >= 1 vertices, once each, as the search reaches it.

    Search from vertex 0: a regular subgroup has exactly one element sending
    0 to each vertex. Depth-first from {id}; at a subgroup H, branch over the
    fixed-point-free x with x(0) = v, v the least vertex outside H's orbit of
    0, and close H with x. A closure whose non-identity elements are all
    fixed-point-free acts semiregularly, so reaching size n means regular.
    Each stack entry carries the generators H was closed from; each one at
    least doubles the order, so there are at most log2(n) of them.
    """
    by_image: dict[int, list[Perm]] = {}
    for a in group.elements:
        if is_fixed_point_free(a):
            by_image.setdefault(a[0], []).append(a)
    seen: set[frozenset[Perm]] = set()
    stack: list[tuple[frozenset[Perm], tuple[Perm, ...]]] = [(frozenset({identity(n)}), ())]
    while stack:
        h, gens = stack.pop()
        if len(h) == n:
            yield h  # pushed once: every push is a closure not seen before
            continue
        orbit = {a[0] for a in h}
        v = next(w for w in range(n) if w not in orbit)
        for x in by_image.get(v, ()):
            k = _closure(h, gens, x, n)
            if k is not None and k not in seen:
                seen.add(k)
                stack.append((k, (*gens, x)))


def regular_subgroups(g: Graph, group: GroupData | None = None) -> list[RegularSubgroup] | None:
    """All order-n subgroups acting regularly on g, ordered by their sorted
    elements, or None when the group enumeration was capped (status
    unknown)."""
    if group is None:
        group = automorphism_group(g)
    if group.capped:
        return None
    n = g.n
    if n == 0:
        return []
    out = []
    for elements in sorted(tuple(sorted(h)) for h in _regular_search(group, n)):
        tag = None
        if any(semiregular_order(p) == n for p in elements):
            tag = "cyclic"
        elif n % 2 == 0 and is_prime(n // 2) and n > 4:
            tag = "dihedral"  # non-cyclic groups of order 2p are dihedral
        out.append(RegularSubgroup(n, elements, tag))
    return out


def is_cayley(g: Graph, group: GroupData | None = None) -> str:
    """"yes" / "no" / "unknown": does some subgroup act regularly on g? The
    search stops at the first regular subgroup."""
    if group is None:
        group = automorphism_group(g)
    if group.capped:
        return "unknown"
    found = g.n > 0 and next(_regular_search(group, g.n), None) is not None
    return "yes" if found else "no"
