"""Automorphism groups by partition-refinement backtracking.

The search builds a stabilizer chain: for an ascending sequence of base
vertices it computes, level by level, the orbit of the base vertex under the
pointwise stabilizer of the earlier ones, with a witness automorphism per
orbit member. The group is that chain (Seress 2003, ch. 4): `GroupData`
holds no element list, and its order, the product of the orbit sizes, is
exact at any size. Functions that read a group take it as `group=`.

The base path is refined once (the first path of McKay & Piperno 2014): each
level keeps its partition from before the base vertex is individualized, the
base vertex's cell and the trace of the refinement that follows. One search
step, `_search_one`, finds every witness: it individualizes a target vertex
on a copy of the level's partition, replays the level's trace on that one
side (`_replay`) and recurses over the next level's cell, one nested call per
level, down to the leaf, which the graph layer's `is_automorphism` checks; so
the walk refuses a path as long as the recursion limit before any search. A
trace keeps only the steps that split a cell: a step that splits nothing
changes neither side's partition, every kept step still checks its full
tallies, and the leaf is discrete, so an automorphism is fixed by its base
images; a path that a dropped check would have refused holds no automorphism,
and its leaf check fails, so every witness is the one found before.

Orbit pruning (Sims' stabilizer chain; McKay & Piperno 2014; Seress 2003,
ch. 4): the levels are searched deepest first. Each witness is kept as the
transversal entry of its target, and the transversal is closed under every
witness so far (a new point u = s[w] gets compose(s, transversal[w])), so a
target already in it is not searched. Deeper witnesses fix this level's base
point, so they lie in its stabilizer: K_n takes one search per level.
`generators` is every transversal entry after the first, the base point's
identity, level by level in path order, in the order added.

Refinement counts neighbours from the graph's neighbour tuples, `Graph.nbrs`,
and so does the leaf check `is_automorphism`. It queues splitters by
Hopcroft's rule (Hopcroft 1971; nauty's refinement does the same): a split
cell that was not queued queues every part but its largest, whose counts
follow from the others'. Both callers start from a partition that is
equitable on every cell they do not queue: the root queues every cell, and
individualizing splits an equitable partition and queues the singleton.

One scan per group, `GroupData.semiregular`, reads the cycle type of the
chain's products, in any order, by `perm._cycle_length` (no permutation
check: each is a product of automorphisms), and serves
`cyclic_semiregular_reps`, `_semiregular_classes` and `_regular_search`.
Above DEFAULT_CAP elements a group is capped, which bounds the scan's time:
it reads the generators' cyclic subgroups. Every element of a regular
subgroup is semiregular (Seress 2003, ch. 2), so that search branches, in
ascending order, over the scan's semiregular elements and closes over them
only, by right multiplication from the coset H·x on (`_closure`); a regular
subgroup is returned as its sorted element tuple, with no classification.
The search skips, before its closure, a candidate x that maps a vertex of
H's orbit of 0 into that orbit: if x(h(0)) = h'(0) for h, h' in H, then
h'^-1·x·h fixes 0, so in a semiregular <H, x> it is the identity and
x = h'·h^-1 lies in H, which x(0), outside H·0, rules out.

The chain's products, the scan's powers, the closure generators and the
conjugation of the classes each compose many permutations with one fixed
operand, and build that operand's image getter once (`perm.precompose`).

Determinism: a replay splits the target side's cells exactly as the trace
records, so aligned cells keep matching indices; the base vertex is always
the least vertex of any non-singleton cell (so the base ascends), the levels
are searched deepest first, and candidate targets are tried in ascending
order.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod

from .graph import Graph, is_automorphism
from .perm import Perm, _cycle_length, compose, identity, inverse, precompose

DEFAULT_CAP = 1 << 20


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


def _split(side: Side, c: int, cnt: dict) -> None:
    """Split cell c by count (absent is 0), in place: the lowest count keeps
    the index, the others are appended in ascending count. The one change a
    partition undergoes; individualizing v is the split by {v: 1}."""
    col, cells = side
    by_count: dict[int, list[int]] = {}
    for x in cells[c]:
        by_count.setdefault(cnt.get(x, 0), []).append(x)
    low, *rest = sorted(by_count)
    cells[c] = by_count[low]
    for k in rest:
        part = by_count[k]
        for x in part:
            col[x] = len(cells)
        cells.append(part)


def _refine(nbrs: Nbrs, side: Side, queue: list[int]) -> list[Step]:
    """Refine the partition, in place, to the coarsest equitable one below
    it (McKay & Piperno 2014, after Hopcroft 1971), and return its trace.

    queue holds the cells to split by; the partition must be equitable on
    every cell not in it. For a popped splitter W, every cell is split by
    |N(v) & W| (`_split`). A touched cell whose first count tally fills it
    has one count and is left alone, so `_split` is only asked to split.
    Hopcroft's rule: the new parts of a split cell are queued, and so is
    the cell itself if it was queued; if it was not, the partition is
    equitable on the old cell, so counts in its largest part (the first
    largest in `_split`'s order) follow from the others, and every part but
    that one is queued. Stops early once the partition is discrete. The
    trace lists, in order, every popped splitter that split a cell;
    `_replay` repeats it on another partition.
    """
    col, cells = side
    queued = set(queue)
    trace: list[Step] = []
    while queue and len(cells) < len(col):
        w = queue.pop()
        queued.discard(w)
        cnt, shape = _counts(nbrs, col, cells[w])
        splits = []
        for (c, _), tally in shape.items():  # touched cells, in order
            if c in splits or tally == len(cells[c]):
                continue
            first = len(cells)
            _split(side, c, cnt)
            splits.append(c)
            parts = [c, *range(first, len(cells))]
            if c in queued:
                del parts[0]
            else:
                parts.remove(max(parts, key=lambda i: len(cells[i])))
            queued.update(parts)
            queue += parts
        if splits:
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
    """An automorphism group as its stabilizer chain, each level's entries
    in path order, identity first, and whether it is above DEFAULT_CAP."""

    transversals: tuple[tuple[Perm, ...], ...]
    capped: bool

    @property
    def generators(self) -> tuple[Perm, ...]:
        return tuple(p for t in self.transversals for p in t[1:])

    @property
    def order(self) -> int:
        return prod(map(len, self.transversals))

    @property
    def elements(self) -> tuple[Perm, ...] | None:
        """The sorted element list, built on each read; None when capped."""
        return None if self.capped else tuple(sorted(self._products()))

    def _products(self) -> Iterator[Perm]:
        """Each element once: u·e, e of the deeper levels listed, u lazily."""
        top, *deeper = self.transversals
        below = [top[0]]
        for transversal in reversed(deeper):  # one image getter per e
            below = [get(u) for get in map(precompose, below) for u in transversal]
        for get in map(precompose, below):
            yield from map(get, top)

    @cached_property
    def semiregular(self) -> tuple[dict[int, list[Perm]], dict[Perm, Perm]]:
        """One pass, in any order, over the chain's products (capped: the
        generators' cyclic subgroups), kept with the group. An unclaimed a
        whose cycles all have one length k >= 2 claims its subgroup's
        generators a^e, gcd(e, k) = 1, for their least, the rep. Returns the
        reps per order, ascending and the orders by least rep, and each
        claimed element's rep: uncapped, every semiregular element but id."""
        pool: Iterable[Perm] = self._products()
        if self.capped:
            powers: set[Perm] = set()
            for gen in self.generators:
                p, one, times_gen = gen, identity(len(gen)), precompose(gen)
                while p != one:
                    powers.add(p)
                    p = times_gen(p)
            pool = powers
        reps: dict[int, list[Perm]] = {}
        rep_of: dict[Perm, Perm] = {}
        for a in pool:
            if a in rep_of:
                continue
            k = _cycle_length(a)  # a product of automorphisms: a permutation
            if k < 2:
                continue
            gens, p, times_a = [a], a, precompose(a)  # p·a = a·p: powers of a commute
            for e in range(2, k):
                p = times_a(p)
                if gcd(e, k) == 1:
                    gens.append(p)
            reps.setdefault(k, []).append(rep := min(gens))
            rep_of.update(dict.fromkeys(gens, rep))
        return {k: sorted(reps[k]) for k in sorted(reps, key=lambda k: min(reps[k]))}, rep_of


def automorphism_group(g: Graph) -> GroupData:
    """Aut(g) as its stabilizer chain, capped above DEFAULT_CAP elements."""
    n = g.n
    part: Side = ([0] * n, [list(range(n))] if n else [])
    col, cells = part
    _refine(g.nbrs, part, list(range(len(cells))))
    path: list[Level] = []  # the base path, refined once
    too_deep = (f"automorphism search on {n} vertices exceeds the recursion limit "
                f"of {sys.getrecursionlimit()}")
    # the least vertex of any non-singleton cell is the next base point: the
    # vertices before it are singletons and stay so, as refinement only splits
    for v in range(n):
        if len(cells[col[v]]) == 1:
            continue
        before = (list(col), list(cells))
        c = col[v]
        _split(part, c, {v: 1})  # individualize the base point: its stabilizer
        path.append((before, c, _refine(g.nbrs, part, [len(cells) - 1])))
        if len(path) == sys.getrecursionlimit():  # a search from the top nests one call per level
            raise ValueError(too_deep)
    levels: list[dict[int, Perm]] = []  # deepest first
    witnesses: list[Perm] = []  # every level's so far: each fixes the base points above it
    for depth in reversed(range(len(path))):
        before, c, _ = path[depth]
        base, *cell = before[1][c]
        transversal: dict[int, Perm] = {base: identity(n)}
        for t in cell:
            if t in transversal:
                continue  # already reached by the closure: same orbit
            try:
                witness = _search_one(g, path, col, depth, before, t)
            except RecursionError:  # the callers' frames on top of the nested calls
                raise ValueError(too_deep) from None
            if witness is None:
                continue
            witnesses.append(witness)
            transversal[t] = witness
            known = list(transversal)
            for w in known:  # close the orbit under every witness so far
                for s in witnesses:
                    u = s[w]
                    if u not in transversal:
                        transversal[u] = compose(s, transversal[w])
                        known.append(u)
        levels.append(transversal)
    # a discrete root partition leaves no level: the chain is the identity alone
    chain = tuple(tuple(t.values()) for t in reversed(levels)) or ((identity(n),),)
    return GroupData(chain, prod(map(len, chain)) > DEFAULT_CAP)


def cyclic_semiregular_reps(group: GroupData) -> dict[int, list[Perm]]:
    """One generator per cyclic semiregular subgroup of order >= 2, keyed by
    order: the least generator of each subgroup, ascending."""
    return group.semiregular[0]


def _semiregular_classes(group: GroupData) -> dict[int, dict[Perm, list[Perm]]]:
    """The conjugacy classes of the cyclic semiregular subgroups of an
    uncapped group, keyed by order: each class's leader a, its least rep
    among those of `cyclic_semiregular_reps` (leaders ascending), maps to
    one conjugator x per other rep b of the class, with x<a>x^-1 = <b>, in
    the order the search reaches b.

    Breadth-first from each leader a: conjugating a reached rep b by a
    generator s gives an element of s<b>s^-1, whose rep the pass that found
    the reps recorded, with s·x as its conjugator. The generators generate
    the group, so the search reaches a's whole class; an order stops once
    each of its reps is reached.
    """
    reps, rep_of = group.semiregular
    gens = [(s, precompose(inverse(s))) for s in group.generators]
    classes: dict[int, dict[Perm, list[Perm]]] = {}
    for k, ks in reps.items():
        leaders = classes[k] = {}
        reached: set[Perm] = set()
        for a in ks:
            if a in reached:
                continue
            reached.add(a)
            todo = [(a, identity(len(a)))]
            for b, x in todo:  # grows as the search goes
                if len(reached) == len(ks):
                    break
                times_b = precompose(b)
                for s, times_s_inv in gens:
                    c = rep_of[times_s_inv(times_b(s))]  # s·b·s^-1
                    if c not in reached:
                        reached.add(c)
                        todo.append((c, compose(s, x)))
            leaders[a] = [x for _, x in todo[1:]]
    return classes


@dataclass(frozen=True)
class SemArray:
    """Ascending orders of semiregular automorphisms, with one witness each.
    exact is False when the group was capped."""

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


def _closure(base: set[Perm], gens: tuple[Perm, ...], extra: Perm, n: int,
             semireg: dict[Perm, Perm]) -> set[Perm] | None:
    """Subgroup generated by base, the subgroup generated by gens, and extra;
    None as soon as a new element is not in semireg (the group's semiregular
    elements but the identity, which base holds) or the size exceeds n.

    Closure under generators (Seress 2003, ch. 2) by right multiplication,
    one image getter per generator: base·gens lies in base, so only the new
    elements, base·extra first, are multiplied by gens plus extra; the
    result holds 1 and is closed under them, so it is the whole subgroup."""
    times = [precompose(s) for s in (*gens, extra)]  # a -> a·s
    elems, new = set(base), []
    for c in map(times[-1], base):
        if c not in elems:
            if len(elems) == n or c not in semireg:
                return None
            elems.add(c)
            new.append(c)
    for a in new:  # grows as the closure goes
        for times_s in times:
            c = times_s(a)
            if c not in elems:
                if len(elems) == n or c not in semireg:
                    return None
                elems.add(c)
                new.append(c)
    return elems


def _regular_search(group: GroupData, n: int):
    """Every order-n subgroup of the uncapped group acting regularly on the
    n vertices, once each, as the search reaches it; none when n = 0.

    Search from vertex 0: a regular subgroup has exactly one element sending
    0 to each vertex. Depth-first from {id}; at a subgroup H, branch over the
    semiregular x with x(0) = v, v the least vertex outside H's orbit of 0,
    and close H with x, the candidates x in ascending order. The
    semiregular elements are the keys of the group's one scan
    (`GroupData.semiregular`), and a closure keeps only them, so it acts
    semiregularly and reaching size n means regular.
    Each stack entry carries the generators H was closed from; each one at
    least doubles the order, so there are at most log2(n) of them. An x
    that maps a vertex of H·0 into H·0 is skipped unclosed: the closure
    would fail (module docstring).

    No subgroup is reached twice, so none is recorded: each step on the way
    to a subgroup K closes some H inside K with some x in K, the v it picks
    depends only on H, and x must be the one element of the semiregular K
    sending 0 to v. So K is reached along one path, and distinct x close to
    distinct subgroups.
    """
    if n == 0:
        return
    semireg = group.semiregular[1]
    by_image: dict[int, list[Perm]] = {}
    for a in sorted(semireg):
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
            if not orbit.isdisjoint(map(x.__getitem__, orbit)):
                continue  # x maps H·0 into itself: <H, x> is not semiregular
            k = _closure(h, gens, x, n, semireg)
            if k is not None:
                stack.append((k, (*gens, x)))


def regular_subgroups(g: Graph, group: GroupData | None = None) -> list[tuple[Perm, ...]] | None:
    """All order-n subgroups acting regularly on g, as sorted element tuples
    in ascending order; None when the group was capped (status unknown)."""
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
