import functools
import itertools
import math
import random
import sys
import tracemalloc

import pytest

from conftest import brute_automorphisms, conjugacy_sources
from corpora import (
    graph_complete,
    graph_complete_bipartite,
    graph_cycle,
    graph_disjoint_complete,
    p5_triples,
    random_cayley_census,
    relabelled,
    small_corpus,
)
from hamcompress import autgroup
from hamcompress.autgroup import (
    DEFAULT_CAP,
    GroupData,
    _semiregular_classes,
    automorphism_group,
    cyclic_semiregular_reps,
    is_automorphism,
    is_cayley,
    regular_subgroups,
    sem_array,
)
from hamcompress.families import (
    cayley_p3,
    circulant,
    generalized_petersen,
    petersen,
    x_mnr,
    y_qp,
)
from hamcompress.graph import Graph
from hamcompress.perm import (
    compose,
    identity,
    inverse,
    is_semiregular,
    order,
    power,
    precompose,
    semiregular_order,
)


def test_is_automorphism_basic():
    inst = x_mnr(3, 7, 2)
    assert is_automorphism(inst.graph, inst.rho)
    assert is_automorphism(inst.graph, inst.sigma)
    y = y_qp(2, 13, 2)
    assert is_automorphism(y.graph, y.sigma)
    pet = petersen().graph
    swapped = list(identity(10))
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not is_automorphism(pet, tuple(swapped))
    with pytest.raises(ValueError):
        is_automorphism(pet, identity(9))


def test_is_automorphism_rejects_non_permutations():
    """Maps that are not permutations of range(n) are rejected, also where
    every row matches and where an image lies outside range(n)."""
    edgeless = Graph.build(3, [])
    one_edge = Graph.build(4, [(0, 1)])
    assert not is_automorphism(edgeless, (0, 0, 0))
    assert not is_automorphism(edgeless, (-1, -2, -3))
    assert not is_automorphism(one_edge, (0, 1, 2, 2))
    assert not is_automorphism(edgeless, (0, 1, 5))
    assert is_automorphism(edgeless, (2, 0, 1))


def test_group_matches_brute_force_on_tiny_graphs():
    rng = random.Random(77)
    cases = [graph_complete(4), graph_cycle(5), graph_cycle(6), graph_complete_bipartite(3, 3)]
    for _ in range(12):
        n = rng.randrange(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        cases.append(Graph.build(n, edges))
    for g in cases:
        expected = sorted(brute_automorphisms(g))
        got = automorphism_group(g)
        assert got.order == len(expected)
        assert sorted(got.elements) == expected


def test_group_element_list_is_closed():
    for g in (graph_complete(4), petersen().graph, x_mnr(3, 7, 2).graph):
        grp = automorphism_group(g)
        assert not grp.capped
        assert len(set(grp.elements)) == grp.order
        elems = set(grp.elements)
        sample = list(grp.elements)[:: max(1, len(elems) // 12)]
        for a in sample:
            for b in sample:
                assert compose(a, b) in elems
        for gen in grp.generators:
            assert is_automorphism(g, gen)


def test_petersen_group_order_120():
    pet = petersen().graph
    grp = automorphism_group(pet)
    assert grp.order == 120
    # independent cross-check: vertex-transitivity from the found elements,
    # stabilizer of vertex 0 counted by brute force over the other 9 points
    assert len({a[0] for a in grp.elements}) == 10
    stab = 0
    for p in itertools.permutations(range(1, 10)):
        cand = (0,) + p
        if is_automorphism(pet, cand):
            stab += 1
    assert grp.order == 10 * stab


def test_complement_has_same_group_order():
    pet = petersen().graph
    assert automorphism_group(pet).order == automorphism_group(pet.complement()).order
    g = x_mnr(3, 7, 2).graph
    assert automorphism_group(g).order == automorphism_group(g.complement()).order


def test_x372_sylow_7():
    grp = automorphism_group(x_mnr(3, 7, 2).graph)
    assert grp.order % 21 == 0
    assert grp.order % 49 != 0  # Sylow-7 subgroup has order exactly 7
    assert sum(1 for a in grp.elements if order(a) == 7) == 6


def _facts(group: GroupData) -> tuple:
    """What a group exposes: (generators, elements, order, capped)."""
    return group.generators, group.elements, group.order, group.capped


def test_groups_of_graphs_on_at_most_two_vertices():
    assert _facts(automorphism_group(Graph.build(0, []))) == ((), ((),), 1, False)
    assert _facts(automorphism_group(Graph.build(1, []))) == ((), ((0,),), 1, False)
    k2 = Graph.build(2, [(0, 1)])
    assert _facts(automorphism_group(k2)) == (((1, 0),), ((0, 1), (1, 0)), 2, False)


def test_generators_are_transversal_entries_in_order_added():
    """Levels are searched deepest first, targets ascending; a searched
    witness is kept at its target and the orbit closure under every witness
    so far fills the rest. C5's level 1 (base 1, cell {1, 4}) goes first and
    finds the reflection (0 4 3 2 1) fixing 0; level 0's one search sends 0
    to 1 by the reflection (1 0 4 3 2), and closing under both reaches 4, 2
    and 3, in that order. The generators list level 0 first, so those of C5
    are fixed."""
    assert automorphism_group(graph_cycle(5)).generators == (
        (1, 0, 4, 3, 2), (4, 0, 1, 2, 3), (2, 1, 0, 4, 3), (3, 4, 0, 1, 2), (0, 4, 3, 2, 1))


CAPPED = (  # (graph, group order), every order above the default cap
    (graph_complete_bipartite(7, 7), 2 * 5040**2),
    (graph_complete(10), 3628800),
    (graph_disjoint_complete(4, 4), 24**4 * 24),
    (graph_disjoint_complete(3, 5), 120**3 * 6),
)


def test_capped_group_keeps_exact_order():
    for g, group_order in CAPPED:
        grp = automorphism_group(g)
        assert grp.capped
        assert grp.order == group_order
        assert grp.elements is None
        assert all(is_automorphism(g, a) for a in grp.generators)



def _count_level_searches(monkeypatch) -> list[int]:
    """Wraps `_search_one` and returns a one-item list that counts the calls
    the level loop makes, leaving out the nested calls of each search."""
    search, top, nesting = autgroup._search_one, [0], [0]

    def counted(*args):
        top[0] += nesting[0] == 0
        nesting[0] += 1
        try:
            return search(*args)
        finally:
            nesting[0] -= 1

    monkeypatch.setattr(autgroup, "_search_one", counted)
    return top


@pytest.mark.parametrize("n", [20, 40, 60])
def test_complete_graph_needs_one_search_per_level(monkeypatch, n):
    """K_n's base path is 0, 1, ..., n - 2, and the first witness of level d
    is the transposition (d d+1). Deepest first, the transpositions found
    below level d fix d and generate the symmetric group on the points after
    it, so closing under them and the new one reaches the whole cell: one
    search per level, n - 1 in all."""
    searches = _count_level_searches(monkeypatch)
    grp = automorphism_group(graph_complete(n))
    assert (grp.order, grp.capped) == (math.factorial(n), True)
    assert searches[0] == n - 1


def test_base_path_deeper_than_recursion_limit_refused_before_any_search(monkeypatch):
    """A search from the top nests one `_search_one` call per level of the
    base path. K_{2,1100}'s path has 1100 levels, one per vertex but the
    last of each side, past the recursion limit, so the walk along the path
    refuses it before the first search; the deepest-first level loop would
    run the deep levels' searches, about a minute of them, before the top
    one overflowed."""
    searches = _count_level_searches(monkeypatch)
    with pytest.raises(ValueError) as refused:
        automorphism_group(graph_complete_bipartite(2, 1100))
    assert str(refused.value) == ("automorphism search on 1102 vertices exceeds the "
                                  f"recursion limit of {sys.getrecursionlimit()}")
    assert searches[0] == 0


def chang_graphs() -> list[Graph]:
    """The three Chang graphs: the triangular graph T(8), on the 28 pairs of
    range(8), Seidel-switched with respect to the pairs forming 4K2, C8 and
    C3 + C5."""
    pairs = list(itertools.combinations(range(8), 2))
    cycle8 = [(i, (i + 1) % 8) for i in range(8)]
    c3_c5 = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]
    out = []
    for switched in ([(0, 1), (2, 3), (4, 5), (6, 7)], cycle8, c3_c5):
        s = {pairs.index(tuple(sorted(e))) for e in switched}
        out.append(Graph.build(28, [
            (a, b) for a, b in itertools.combinations(range(28), 2)
            if (len(set(pairs[a]) & set(pairs[b])) == 1) != ((a in s) != (b in s))]))
    return out


def _automorphism_group_reference(g: Graph) -> tuple:
    """The facts of automorphism_group (`_facts`) without the recorded and
    replayed base path: every target search refines its source and target
    partitions jointly, from the level's partition, with the same splitting
    queue, the same base rule (the least vertex of any non-singleton cell),
    the same deepest-first level loop and the same orbit closure under every
    witness so far."""
    n, nbrs = g.n, g.nbrs

    def refine(sides, queue):
        col_a, cells_a = sides[0]
        queued = set(queue)
        while queue and len(cells_a) < len(col_a):
            w = queue.pop()
            queued.discard(w)
            counted = []
            for col, cells in sides:
                cnt, shape = {}, {}
                for x in cells[w]:
                    for u in nbrs[x]:
                        cnt[u] = cnt.get(u, 0) + 1
                for u, k in cnt.items():
                    shape[col[u], k] = shape.get((col[u], k), 0) + 1
                counted.append((cnt, shape))
            shape = counted[0][1]
            if any(other != shape for _, other in counted[1:]):
                return False
            kinds, hit = {}, {}
            for (c, _), size in shape.items():
                kinds[c] = kinds.get(c, 0) + 1
                hit[c] = hit.get(c, 0) + size
            for c, distinct in kinds.items():
                if distinct == 1 and hit[c] == len(cells_a[c]):
                    continue
                first = len(cells_a)
                for (col, cells), (cnt, _) in zip(sides, counted):
                    by_count = {}
                    for x in cells[c]:
                        by_count.setdefault(cnt.get(x, 0), []).append(x)
                    keys = sorted(by_count)
                    cells[c] = by_count[keys[0]]
                    for k in keys[1:]:
                        for x in by_count[k]:
                            col[x] = len(cells)
                        cells.append(by_count[k])
                for i in (c, *range(first, len(cells_a))):
                    if i not in queued:
                        queued.add(i)
                        queue.append(i)
        return True

    def individualize(side, v):
        col, cells = side
        cells[col[v]] = [x for x in cells[col[v]] if x != v]
        col[v] = len(cells)
        cells.append([v])

    def base_cell(col, cells):
        return next((col[v] for v in range(n) if len(cells[col[v]]) > 1), None)

    def search_one(a, b, v, t):
        a, b = (list(a[0]), list(a[1])), (list(b[0]), list(b[1]))
        individualize(a, v)
        individualize(b, t)
        if not refine([a, b], [len(a[1]) - 1]):
            return None
        c = base_cell(*a)
        if c is None:
            p = tuple(b[1][i][0] for i in a[0])
            return p if is_automorphism(g, p) else None
        for w in b[1][c]:
            found = search_one(a, b, a[1][c][0], w)
            if found is not None:
                return found
        return None

    part = ([0] * n, [list(range(n))] if n else [])
    refine([part], list(range(len(part[1]))))
    path = []
    while (c := base_cell(*part)) is not None:
        path.append(((list(part[0]), list(part[1])), part[1][c]))
        individualize(part, part[1][c][0])
        refine([part], [len(part[1]) - 1])
    levels, witnesses = [], []
    for level, (base, *cell) in reversed(path):
        transversal = {base: identity(n)}
        for t in cell:
            if t in transversal or (witness := search_one(level, level, base, t)) is None:
                continue
            witnesses.append(witness)
            transversal[t] = witness
            known = list(transversal)
            for w in known:
                for s in witnesses:
                    if (u := s[w]) not in transversal:
                        transversal[u] = compose(s, transversal[w])
                        known.append(u)
        levels.insert(0, transversal)
    grp_order = 1
    for transversal in levels:
        grp_order *= len(transversal)
    generators = tuple(p for t in levels for p in t.values() if p != identity(n))
    if grp_order > DEFAULT_CAP:
        return generators, None, grp_order, True
    elements = [identity(n)]
    for transversal in reversed(levels):
        elements = [compose(u, e) for u in transversal.values() for e in elements]
    return generators, tuple(sorted(elements)), grp_order, False


def test_replayed_search_matches_joint_refinement():
    """Replaying the base path's recorded refinement on the target side
    visits the same search tree as refining both sides jointly, so the
    groups are identical, generators included: on the connected p = 5
    triples with a twisted rotation, GP(n, r) for n <= 12, seeded random
    graphs with their complements, the capped graphs and the Chang graphs,
    whose searches back out of a level without a witness."""
    graphs = p5_triples()
    graphs += [generalized_petersen(n, r).graph
               for n in range(3, 13) for r in range(1, (n + 1) // 2)]
    rng = random.Random(18)
    for _ in range(40):
        n = rng.randrange(2, 15)
        g = Graph.build(n, [e for e in itertools.combinations(range(n), 2)
                            if rng.random() < rng.choice((0.2, 0.35, 0.5))])
        graphs += [g, g.complement()]
    graphs += [g for g, _ in CAPPED]
    chang = chang_graphs()
    for g in graphs + chang:
        assert _facts(automorphism_group(g)) == _automorphism_group_reference(g), g.rows
    assert [automorphism_group(g).order for g in chang] == [384, 96, 360]


def test_asymmetric_graph_rejects_every_target():
    """The Frucht graph is cubic with a trivial group: its root partition is
    one cell, so every target of level 0 must be rejected, by the replayed
    refinement or by the leaf check. GP(10, 3), the Desargues graph, is
    vertex-transitive of order 240."""
    lcf = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
    frucht = Graph.build(12, {frozenset((v, (v + d) % 12)) for v in range(12)
                              for d in (1, lcf[v])})
    assert all(len(nb) == 3 for nb in frucht.nbrs)
    assert _facts(automorphism_group(frucht)) == ((), (identity(12),), 1, False)
    desargues = automorphism_group(generalized_petersen(10, 3).graph)
    assert (desargues.order, desargues.capped) == (240, False)
    assert len({a[0] for a in desargues.elements}) == 20

def test_sem_array_values():
    assert sem_array(petersen().graph).values == (1, 5)
    assert sem_array(petersen().graph.complement()).values == (1, 5)
    assert sem_array(graph_complete(4)).values == (1, 2, 4)
    assert sem_array(graph_cycle(15)).values == (1, 3, 5, 15)


def test_sem_array_k4_matches_brute_force():
    g = graph_complete(4)
    expected = {1}
    for a in brute_automorphisms(g):
        k = order(a)
        if is_semiregular(a, k):
            expected.add(k)
    assert set(sem_array(g).values) == expected


def test_sem_array_witnesses_are_semiregular():
    for g in (petersen().graph, x_mnr(3, 7, 2).graph, graph_cycle(12)):
        res = sem_array(g)
        assert res.exact
        assert res.values[0] == 1
        for k, wit in res.witnesses.items():
            assert order(wit) == k
            assert is_semiregular(wit, k)
            assert is_automorphism(g, wit)


def test_sem_array_capped_default_cap_sees_every_order():
    """Above the default cap the Sem array is read from the cyclic subgroups
    of the generators. With every transversal entry kept as a generator it
    still finds each semiregular order on K7,7, 4K4 and 3K5; keeping only
    the searched witnesses would lose 7 and 14, 8 and 16, and 5 and 15."""
    for g, values in ((graph_complete_bipartite(7, 7), (1, 2, 7, 14)),
                      (graph_disjoint_complete(4, 4), (1, 2, 4, 8, 16)),
                      (graph_disjoint_complete(3, 5), (1, 3, 5, 15))):
        grp = automorphism_group(g)
        assert grp.capped
        res = sem_array(g, group=grp)
        assert res.values == values and not res.exact


def test_sem_array_capped_is_partial():
    for g, _ in CAPPED:
        res = sem_array(g)
        assert not res.exact
        assert 1 in res.values


def test_cyclic_semiregular_reps_one_least_generator_per_subgroup():
    """Aut(C15) is D15, whose reflections fix a vertex: the cyclic
    semiregular subgroups are the rotation groups of orders 3, 5 and 15, and
    the least generator of each is the rotation by 15/k."""
    reps = cyclic_semiregular_reps(automorphism_group(graph_cycle(15)))
    assert reps == {k: [tuple((v + 15 // k) % 15 for v in range(15))] for k in (3, 5, 15)}


def test_semiregular_classes_match_brute_force_conjugacy():
    """_semiregular_classes maps each class leader, the least rep whose
    subgroup is conjugate to its own as conjugating by every element finds,
    to one automorphism x per other rep b of its class, with x<a>x^-1 =
    <b>: every rep is a leader or reached exactly once, and each order's
    leaders ascend."""
    graphs = [g for _, g in random_cayley_census()] + [g for _, g in small_corpus()]
    conjugated = 0
    for g in graphs:
        group = automorphism_group(g)
        classes = _semiregular_classes(group)
        reps = cyclic_semiregular_reps(group)
        assert classes.keys() == reps.keys()
        brute = conjugacy_sources(group)
        for k, leaders in classes.items():
            assert list(leaders) == [b for b in reps[k] if brute[b][0] == b]
            rep_of = {power(b, e): b for b in reps[k] for e in range(1, k) if math.gcd(e, k) == 1}
            reached = list(leaders)
            for a, conjugators in leaders.items():
                for x in conjugators:
                    assert is_automorphism(g, x)
                    b = rep_of[compose(x, compose(a, inverse(x)))]  # of a's order: generates <b>
                    assert brute[b][0] == a
                    reached.append(b)
                conjugated += len(conjugators)
            assert sorted(reached) == reps[k]
    assert conjugated == 3500


def _holds_n_cycle(sub: tuple) -> bool:
    """True iff the regular subgroup is cyclic: some element is an n-cycle."""
    return any(semiregular_order(a) == len(a) for a in sub)


def test_regular_subgroups_prism():
    """The prism on 10 vertices is a Cayley graph of Z_10 and of D_10."""
    subs = regular_subgroups(x_mnr(2, 5, 4).graph)
    assert sorted(_holds_n_cycle(sub) for sub in subs) == [False, True]
    for sub in subs:
        assert len(sub) == 10
        idp = identity(10)
        for a in sub:
            assert a == idp or all(a[v] != v for v in range(10))
        assert len({a[0] for a in sub}) == 10  # transitive


def test_regular_subgroups_petersen_empty():
    assert regular_subgroups(petersen().graph) == []
    assert is_cayley(petersen().graph) == "no"


def test_regular_subgroups_x372():
    subs = regular_subgroups(x_mnr(3, 7, 2).graph)
    assert subs  # Cayley graph of the nonabelian group of order 21
    assert all(len(s) == 21 for s in subs)
    assert is_cayley(x_mnr(3, 7, 2).graph) == "yes"


def test_regular_subgroups_trivial_graphs():
    """K1 is Cay({e}, {}): the trivial group acts regularly on it. The
    0-vertex graph has no regular subgroup."""
    k1 = Graph.build(1, [])
    assert [(len(s), s) for s in regular_subgroups(k1)] == [(1, ((0,),))]
    assert is_cayley(k1) == "yes"
    assert regular_subgroups(Graph.build(0, [])) == []
    assert is_cayley(Graph.build(0, [])) == "no"


def test_regular_subgroups_skip_intransitive_order_n_subgroups():
    """On 8 vertices, K4 plus four isolated vertices and two disjoint K4s
    have subgroups of order 8 with fixed points; none may be returned."""
    k4 = list(itertools.combinations(range(4), 2))
    k4_plus_4k1 = Graph.build(8, k4)
    assert regular_subgroups(k4_plus_4k1) == []
    assert is_cayley(k4_plus_4k1) == "no"
    subs = regular_subgroups(Graph.build(8, k4 + [(u + 4, v + 4) for u, v in k4]))
    assert subs
    assert all(len({a[0] for a in s}) == 8 for s in subs)


def _regular_subgroups_reference(group: GroupData, n: int) -> list[tuple]:
    """Sorted element tuples of every regular subgroup, by the depth-first
    search of regular_subgroups with the closure it used before closing by
    generators: each new element is multiplied, on both sides, by every
    element found so far."""
    def close(base, extra):
        elems = set(base) | {extra}
        frontier = [extra]
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(elems):
                    for c in (compose(a, b), compose(b, a)):
                        if c not in elems:
                            if len(elems) == n or any(c[v] == v for v in range(n)):
                                return None
                            elems.add(c)
                            nxt.append(c)
            frontier = nxt
        return frozenset(elems)

    moving = [a for a in group.elements if all(a[v] != v for v in range(n))]
    seen, found = set(), []
    stack = [frozenset({identity(n)})]
    while stack:
        h = stack.pop()
        if len(h) == n:
            found.append(tuple(sorted(h)))
            continue
        orbit = {a[0] for a in h}
        v = min(w for w in range(n) if w not in orbit)
        for x in moving:
            if x[0] == v and (k := close(h, x)) is not None and k not in seen:
                seen.add(k)
                stack.append(k)
    return sorted(found)


def test_regular_subgroups_match_two_sided_closure():
    """Closing by generators finds the same regular subgroups as the
    all-pairs closure, on the connected p = 5 triples with a twisted
    rotation and on census circulants with many regular subgroups."""
    graphs = p5_triples()
    graphs += [circulant(n, conn).graph for n, conn in (
        (8, {1, 3, 5, 7}), (8, {1, 2, 6, 7}), (9, {1, 3, 6, 8}), (10, {1, 2, 8, 9}),
        (12, {1, 5, 7, 11}), (12, {3, 4, 8, 9}))]
    total = 0
    for g in graphs:
        group = automorphism_group(g)
        subs = regular_subgroups(g, group=group)
        assert subs == _regular_subgroups_reference(group, g.n), g.rows
        total += len(subs)
    assert total > len(graphs)


@pytest.mark.parametrize("g, count", [
    (graph_disjoint_complete(2, 4), 168),
    (graph_complete_bipartite(4, 4), 168),
    (graph_disjoint_complete(3, 3), 36),
    (graph_disjoint_complete(4, 2), 64),
    (graph_complete_bipartite(3, 3), 8),
    (x_mnr(2, 4, 3).graph, 10),  # the cube Q3
], ids=["2K4", "K4,4", "3K3", "4K2", "K3,3", "Q3"])
def test_regular_subgroups_match_reference_on_fixed_point_free_rich_groups(g, count):
    """Groups with many fixed-point-free elements that are not semiregular
    (372 of |Aut(2K4)| = 1 152): the search branches and closes over the
    semiregular elements only, and still finds every regular subgroup the
    reference finds with its own fixed-point-free rule, in the same
    number."""
    group = automorphism_group(g)
    moving = [a for a in group.elements if all(a[v] != v for v in range(g.n))]
    assert any(semiregular_order(a) == 0 for a in moving)
    subs = regular_subgroups(g, group=group)
    assert len(subs) == count
    assert subs == _regular_subgroups_reference(group, g.n)


def test_semiregular_scan_runs_once_per_group(monkeypatch):
    """Every reader of the semiregular scan on one group shares one run of
    `GroupData.semiregular`, regular subgroups and Cayley-ness included. On
    a capped group (K10) the scan reads the generators' cyclic subgroups:
    the Sem array is the least semiregular element per order among their
    powers, and the regular search is not run."""
    calls = [0]
    scan = GroupData.semiregular.func

    def counted(group):
        calls[0] += 1
        return scan(group)

    counting = functools.cached_property(counted)
    counting.__set_name__(GroupData, "semiregular")
    monkeypatch.setattr(GroupData, "semiregular", counting)
    g = x_mnr(2, 4, 3).graph
    grp = automorphism_group(g)
    sem = sem_array(g, group=grp)
    reps = cyclic_semiregular_reps(grp)
    assert _semiregular_classes(grp).keys() == reps.keys()
    assert len(regular_subgroups(g, group=grp)) == 10
    assert is_cayley(g, group=grp) == "yes"
    assert sem.values == (1, 2, 4) and calls[0] == 1

    calls[0] = 0
    k10 = graph_complete(10)
    grp = automorphism_group(k10)
    assert grp.capped
    sem = sem_array(k10, group=grp)
    powers = sorted({power(s, e) for s in grp.generators for e in range(1, order(s))})
    least: dict[int, tuple] = {}
    for a in powers:
        least.setdefault(semiregular_order(a), a)
    least.pop(0, None)
    assert sem.witnesses == {1: identity(10), **least} and not sem.exact
    assert regular_subgroups(k10, group=grp) is None
    assert is_cayley(k10, group=grp) == "unknown"
    assert calls[0] == 1


def _semiregular_reference(group: GroupData) -> tuple[dict, dict]:
    """The semiregular scan as it ran over the sorted element list (capped:
    the sorted powers of the generators): walked in ascending order, the
    first unclaimed element a of each cyclic semiregular subgroup is its
    least generator and claims the others, a^e with gcd(e, k) = 1."""
    pool = group.elements
    if group.capped:
        pool = sorted({power(s, e) for s in group.generators for e in range(1, order(s))})
    reps: dict[int, list] = {}
    rep_of: dict[tuple, tuple] = {}
    for a in pool:
        if a in rep_of:
            continue
        k = semiregular_order(a)
        if k < 2:
            continue
        reps.setdefault(k, []).append(a)
        rep_of[a] = p = a
        for e in range(2, k):
            p = compose(a, p)
            if math.gcd(e, k) == 1:
                rep_of[p] = a
    return reps, rep_of


@pytest.mark.parametrize("cap", [DEFAULT_CAP, 1], ids=["default-cap", "cap-1"])
def test_semiregular_scan_matches_the_ascending_reference(monkeypatch, bench_pools, cap):
    """The scan meets the chain's products in no set order and takes each
    subgroup's least generator as its rep itself: its reps, in their key
    order, and the rep of every claimed element equal those of the ascending
    scan over the sorted element list, on the small corpus, the three bench
    pools with a relabelled copy of each, K8, K4,4, 4K3 and GP(50, 1). With
    the cap at 1 every nontrivial group is capped, and both read the
    generators' cyclic subgroups."""
    monkeypatch.setattr(autgroup, "DEFAULT_CAP", cap)
    graphs = [g for _, g in small_corpus()]
    for pool in bench_pools.values():
        graphs += [g for _, g in pool + relabelled(pool, 38)]
    graphs += [graph_complete(8), graph_complete_bipartite(4, 4), graph_disjoint_complete(4, 3),
               generalized_petersen(50, 1).graph]
    capped = 0
    for g in graphs:
        group = automorphism_group(g)
        reps, rep_of = group.semiregular
        expected_reps, expected_rep_of = _semiregular_reference(group)
        assert list(reps.items()) == list(expected_reps.items()), g.rows
        assert rep_of == expected_rep_of, g.rows
        capped += group.capped
    assert (capped > 0) == (cap == 1)


def test_group_and_sem_hold_no_element_list():
    """The group is its stabilizer chain and the scan streams the chain's
    products, so no list of all |Aut| elements is built: the group and the
    Sem array of 3K4 (|Aut| = 82 944) peak below 6 MB under tracemalloc.
    Listing and sorting the elements peaked near 14 MB."""
    g = graph_disjoint_complete(3, 4)
    tracemalloc.start()
    try:
        group = automorphism_group(g)
        sem = sem_array(g, group=group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (group.order, group.capped, sem.values) == (82944, False, (1, 2, 3, 4, 6, 12))
    assert peak < 6_000_000


def test_regular_subgroup_tags():
    """A regular subgroup is cyclic iff it holds an n-cycle. K4 has the
    Klein four-group and three Z_4; C15 has Z_15 alone; K6 has 60 Z_6 and
    20 S_3 (the dihedral group of order 6)."""
    def flags(g):
        return sorted(_holds_n_cycle(s) for s in regular_subgroups(g))

    assert flags(graph_complete(4)) == [False, True, True, True]
    assert flags(graph_cycle(15)) == [True]
    k6 = Graph.build(6, list(itertools.combinations(range(6), 2)))
    assert flags(k6) == [False] * 20 + [True] * 60


def test_is_cayley_examples():
    assert is_cayley(x_mnr(4, 5, 2).graph) == "yes"
    assert is_cayley(y_qp(2, 13, 2).graph) == "no"
    for variant in ("heisenberg", "modular"):
        assert is_cayley(cayley_p3(3, variant).graph) == "yes", variant
    for g, _ in CAPPED:
        assert is_cayley(g) == "unknown"
        assert regular_subgroups(g) is None


def test_vertex_transitive_instances_have_order_divisible_by_n():
    for inst in (x_mnr(3, 7, 2), x_mnr(2, 5, 4), y_qp(2, 13, 2), petersen()):
        grp = automorphism_group(inst.graph)
        assert grp.order % inst.graph.n == 0
        assert len({a[0] for a in grp.elements}) == inst.graph.n


def test_every_trace_step_splits_a_cell(monkeypatch, bench_pools):
    """A refinement step that splits nothing changes neither side's
    partition, so the trace leaves it out: on every pool graph, every step
    of the root's and every level's trace lists at least one split cell."""
    traces = []
    refine = autgroup._refine

    def recorded(nbrs, side, queue):
        traces.append(refine(nbrs, side, queue))
        return traces[-1]

    monkeypatch.setattr(autgroup, "_refine", recorded)
    for pool in bench_pools.values():
        for _, g in pool:
            automorphism_group(g)
    steps = [step for trace in traces for step in trace]
    assert steps and all(splits for _, _, splits in steps)


def test_orbit_test_skips_only_closures_that_fail(monkeypatch, bench_pools):
    """`_regular_search` skips x when x maps a vertex of H's orbit of 0 into
    that orbit: x(h(0)) = h'(0) puts h'^-1·x·h in the stabilizer of 0, so a
    semiregular <H, x> would hold x = h'·h^-1 in H, yet x(0) lies outside
    H·0. Over every (H, x) the search reaches on the group-cayley pool and a
    relabelled copy, each x the test skips closes to None; on the pool,
    `regular_subgroups` runs 1 997 closures (4 577 without the test)."""
    closure = autgroup._closure
    calls = []

    def recorded(base, gens, extra, n, semireg):
        found = closure(base, gens, extra, n, semireg)
        calls.append((gens, extra, found))
        return found

    monkeypatch.setattr(autgroup, "_closure", recorded)
    pool = bench_pools["group-cayley"]
    for _, g in pool:
        regular_subgroups(g)
    assert len(calls) == 1997
    skipped = 0
    for _, g in pool + relabelled(pool, 7):
        n, group = g.n, automorphism_group(g)
        calls.clear()
        list(autgroup._regular_search(group, n))
        semireg = group.semiregular[1]
        reached = [({identity(n)}, ())]
        reached += [(found, (*gens, x)) for gens, x, found in calls if found is not None]
        for h, gens in reached:
            orbit = {a[0] for a in h}
            if len(orbit) == n:
                continue
            v = min(set(range(n)) - orbit)
            for x in semireg:
                if x[0] == v and not orbit.isdisjoint(x[w] for w in orbit):
                    skipped += 1
                    assert closure(h, gens, x, n, semireg) is None
    assert skipped > 1000


def _closure_by_left_multiplication(base, gens, extra, n, semireg):
    """`_closure` as it closed before right multiplication: base plus extra
    closed under left multiplication by gens plus extra, each popped element
    building its own image getter and every element, base included, taking
    len(gens) + 1 products."""
    gens = (*gens, extra)
    elems = {*base, extra}
    frontier = list(elems)
    while frontier:
        times_a = precompose(frontier.pop())
        for s in gens:
            c = times_a(s)  # s·a
            if c not in elems:
                if len(elems) == n or c not in semireg:
                    return None
                elems.add(c)
                frontier.append(c)
    return elems


def test_closure_matches_left_multiplication(monkeypatch, bench_pools):
    """Closing by right multiplication from the coset H·x gives the same
    subgroup as closing all of H and x by left multiplication, or None in
    the same cases: over every (H, gens, x) that `_regular_search` closes on
    the group-cayley pool, a relabelled copy of it, K4,4 and 4K3."""
    closure = autgroup._closure
    calls = []

    def recorded(base, gens, extra, n, semireg):
        found = closure(base, gens, extra, n, semireg)
        calls.append(((base, gens, extra, n, semireg), found))
        return found

    monkeypatch.setattr(autgroup, "_closure", recorded)
    pool = bench_pools["group-cayley"]
    graphs = [g for _, g in pool + relabelled(pool, 39)]
    graphs += [graph_complete_bipartite(4, 4), graph_disjoint_complete(4, 3)]
    for g in graphs:
        list(autgroup._regular_search(automorphism_group(g), g.n))
    for args, found in calls:
        assert found == _closure_by_left_multiplication(*args)
    closed = sum(found is not None for _, found in calls)
    assert closed > 1000 and len(calls) - closed > 1000
