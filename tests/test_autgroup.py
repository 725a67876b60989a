import itertools
import random

import pytest

from conftest import (
    brute_automorphisms,
    graph_complete,
    graph_complete_bipartite,
    graph_cycle,
    graph_disjoint_complete,
    graph_k4,
    graph_k33,
)
from hamcompress.autgroup import (
    GroupData,
    automorphism_group,
    cyclic_semiregular_reps,
    is_automorphism,
    is_cayley,
    regular_subgroups,
    sem_array,
)
from hamcompress.families import cayley_p3, petersen, x_mnr, y_qp
from hamcompress.graph import Graph
from hamcompress.perm import compose, identity, is_semiregular, order


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
    cases = [graph_k4(), graph_cycle(5), graph_cycle(6), graph_k33()]
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
    for g in (graph_k4(), petersen().graph, x_mnr(3, 7, 2).graph):
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


def test_groups_of_graphs_on_at_most_two_vertices():
    assert automorphism_group(Graph.build(0, [])) == GroupData((), ((),), 1, False)
    assert automorphism_group(Graph.build(1, [])) == GroupData((), ((0,),), 1, False)
    k2 = Graph.build(2, [(0, 1)])
    assert automorphism_group(k2) == GroupData(((1, 0),), ((0, 1), (1, 0)), 2, False)


def test_generators_are_transversal_entries_in_order_added():
    """Per stabilizer level, targets ascend; a searched witness is kept at
    its target and the orbit closure under the level's witnesses fills the
    rest, so C5's rotation (1 2 3 4 0) yields its powers and the one
    reflection fixing 0 closes level 1: the generators of C5 are fixed."""
    assert automorphism_group(graph_cycle(5)).generators == (
        (1, 2, 3, 4, 0), (2, 3, 4, 0, 1), (3, 4, 0, 1, 2), (4, 0, 1, 2, 3), (0, 4, 3, 2, 1))


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


def test_sem_array_values():
    assert sem_array(petersen().graph).values == (1, 5)
    assert sem_array(petersen().graph.complement()).values == (1, 5)
    assert sem_array(graph_k4()).values == (1, 2, 4)
    assert sem_array(graph_cycle(15)).values == (1, 3, 5, 15)


def test_sem_array_k4_matches_brute_force():
    g = graph_k4()
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


def test_regular_subgroups_prism():
    subs = regular_subgroups(x_mnr(2, 5, 4).graph)
    tags = sorted(s.tag for s in subs)
    assert tags == ["cyclic", "dihedral"]
    for sub in subs:
        assert sub.order == 10
        assert len(sub.elements) == 10
        idp = identity(10)
        for a in sub.elements:
            assert a == idp or all(a[v] != v for v in range(10))
        assert len({a[0] for a in sub.elements}) == 10  # transitive


def test_regular_subgroups_petersen_empty():
    assert regular_subgroups(petersen().graph) == []
    assert is_cayley(petersen().graph) == "no"


def test_regular_subgroups_x372():
    subs = regular_subgroups(x_mnr(3, 7, 2).graph)
    assert subs  # Cayley graph of the nonabelian group of order 21
    assert all(s.order == 21 for s in subs)
    assert is_cayley(x_mnr(3, 7, 2).graph) == "yes"


def test_regular_subgroups_trivial_graphs():
    """K1 is Cay({e}, {}): the trivial group acts regularly on it. The
    0-vertex graph has no regular subgroup."""
    k1 = Graph.build(1, [])
    assert [(s.order, s.elements) for s in regular_subgroups(k1)] == [(1, ((0,),))]
    assert is_cayley(k1) == "yes"
    assert regular_subgroups(Graph.build(0, [])) == []


def test_regular_subgroups_skip_intransitive_order_n_subgroups():
    """On 8 vertices, K4 plus four isolated vertices and two disjoint K4s
    have subgroups of order 8 with fixed points; none may be returned."""
    k4 = list(itertools.combinations(range(4), 2))
    k4_plus_4k1 = Graph.build(8, k4)
    assert regular_subgroups(k4_plus_4k1) == []
    assert is_cayley(k4_plus_4k1) == "no"
    subs = regular_subgroups(Graph.build(8, k4 + [(u + 4, v + 4) for u, v in k4]))
    assert subs
    assert all(len({a[0] for a in s.elements}) == 8 for s in subs)


def test_regular_subgroup_tags():
    """"cyclic" when some element has order n; else "dihedral" when n = 2p,
    p an odd prime; else None."""
    def tags(g):
        return sorted((s.tag for s in regular_subgroups(g)), key=str)

    assert tags(graph_k4()) == [None, "cyclic", "cyclic", "cyclic"]
    assert tags(graph_cycle(15)) == ["cyclic"]
    k6 = Graph.build(6, list(itertools.combinations(range(6), 2)))
    assert tags(k6) == ["cyclic"] * 60 + ["dihedral"] * 20


def test_is_cayley_examples():
    assert is_cayley(x_mnr(4, 5, 2).graph) == "yes"
    assert is_cayley(y_qp(2, 13, 2).graph) == "no"
    for variant in ("heisenberg", "modular"):
        assert is_cayley(cayley_p3(3, variant).graph) == "yes", variant
    for g, _ in CAPPED:
        assert is_cayley(g) == "unknown"


def test_vertex_transitive_instances_have_order_divisible_by_n():
    for inst in (x_mnr(3, 7, 2), x_mnr(2, 5, 4), y_qp(2, 13, 2), petersen()):
        grp = automorphism_group(inst.graph)
        assert grp.order % inst.graph.n == 0
        assert len({a[0] for a in grp.elements}) == inst.graph.n
