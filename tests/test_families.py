import pytest

from hamcompress.autgroup import is_automorphism
from hamcompress.families import (
    cayley_p3,
    circulant,
    generalized_petersen,
    metacirculant_orbit,
    metacirculant_triple_2p,
    p3_group,
    petersen,
    x_mnr,
    y_qp,
    z_qp,
)
from hamcompress.graph import bits
from hamcompress.perm import compose, inverse, is_semiregular, order, power

ALL_INSTANCES = [
    lambda: x_mnr(3, 7, 2),
    lambda: x_mnr(2, 5, 4),
    lambda: x_mnr(2, 8, 3),
    lambda: x_mnr(4, 5, 2),
    lambda: y_qp(2, 13, 2),
    lambda: y_qp(2, 5, 2),
    lambda: z_qp(3, 19, 2),
    lambda: circulant(15, {1, 14}),
    lambda: generalized_petersen(13, 5),
    lambda: petersen(),
    lambda: metacirculant_triple_2p(7, {1, 6}, {1, 6}, {0, 1, 6}),
    lambda: cayley_p3(3, "heisenberg"),
    lambda: cayley_p3(3, "modular"),
]


def test_every_instance_well_formed():
    for build in ALL_INSTANCES:
        inst = build()
        g = inst.graph
        assert inst.labeling.m * inst.labeling.n == g.n
        assert is_automorphism(g, inst.rho)
        assert is_semiregular(inst.rho, order(inst.rho))
        if inst.sigma is not None:
            assert is_automorphism(g, inst.sigma)
            r = inst.params.get("r", inst.params.get("sigma_multiplier"))
            if r is not None:
                conj = compose(inst.sigma, compose(inst.rho, inverse(inst.sigma)))
                assert conj == power(inst.rho, r)


def test_x_mnr_shape():
    inst = x_mnr(3, 7, 2)
    assert inst.graph.n == 21 and inst.graph.m == 42
    assert set(inst.graph.degrees()) == {4}
    # vertex-transitive: the orbit of vertex 0 under <rho, sigma> is everything
    gens = [inst.rho, inst.sigma]
    seen, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for p in gens:
            if p[v] not in seen:
                seen.add(p[v])
                frontier.append(p[v])
    assert len(seen) == 21


def test_x_mnr_sigma_orders():
    assert order(x_mnr(3, 7, 2).sigma) == 3
    assert order(x_mnr(4, 5, 2).sigma) == 4
    assert order(y_qp(2, 13, 2).sigma) == 4  # q^t


def test_x_mnr_prism_and_gp():
    # r = -1 gives the prism over an n-cycle
    prism = x_mnr(2, 5, 4)
    gp51 = generalized_petersen(5, 1)
    assert prism.graph == gp51.graph
    # composite/even n with r != +-1 gives the generalized Petersen graph
    assert x_mnr(2, 8, 3).graph == generalized_petersen(8, 3).graph


def test_x_mnr_rejects_wrong_order():
    with pytest.raises(ValueError):
        x_mnr(3, 7, 3)  # ord(3 mod 7) = 6
    with pytest.raises(ValueError):
        x_mnr(2, 8, 2)  # not a unit
    assert "warnings" in x_mnr(2, 8, 3).params  # r-1 = 2 not a unit mod 8


def test_y_qp_2_13_is_gp_13_5():
    inst = y_qp(2, 13, 2)
    assert inst.params["lambda"] == 2 and inst.params["r"] == 8
    assert inst.params["steps"] == [1, 12]
    assert inst.graph == generalized_petersen(13, 5).graph
    assert inst.graph.degrees() == [3] * 26


def test_y_qp_2_5_is_petersen():
    assert y_qp(2, 5, 2).graph == petersen().graph


def test_z_equals_y_for_t2():
    assert z_qp(3, 19, 2).graph == y_qp(3, 19, 2).graph
    g = z_qp(3, 19, 2).graph
    assert g.n == 57
    assert set(g.degrees()) == {8}


def test_z_sigma_fails_for_t_geq_3():
    inst = z_qp(2, 17, 4)
    assert inst.sigma is None
    assert inst.params["sigma_is_automorphism"] is False
    # the denser variant keeps its twisted rotation at every t
    insty = y_qp(2, 17, 4)
    assert insty.sigma is not None


def test_yz_parameter_validation():
    with pytest.raises(ValueError):
        y_qp(2, 7, 2)  # 4 does not divide 6
    with pytest.raises(ValueError):
        y_qp(2, 17, 3)  # N = 2 shares a factor with q


def test_circulant():
    c15 = circulant(15, {1, 14})
    assert c15.graph.degrees() == [2] * 15
    assert c15.graph.is_connected()
    four_reg = circulant(15, {3, 12, 5, 10})
    assert four_reg.graph.is_connected()
    assert set(four_reg.graph.degrees()) == {4}
    k5 = circulant(5, {1, 2, 3, 4})
    assert k5.graph.m == 10
    with pytest.raises(ValueError):
        circulant(10, {1})  # not symmetric
    with pytest.raises(ValueError):
        circulant(10, {0, 5})


def test_generalized_petersen():
    pet = petersen()
    assert pet.graph.n == 10 and pet.graph.m == 15
    assert set(pet.graph.degrees()) == {3}
    assert _girth(pet.graph) == 5
    assert pet.params.get("sigma_multiplier") == 2
    assert generalized_petersen(5, 1).graph == x_mnr(2, 5, 4).graph
    with pytest.raises(ValueError):
        generalized_petersen(8, 4)
    with pytest.raises(ValueError):
        generalized_petersen(6, 0)


def _girth(g):
    import collections

    best = None
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = collections.deque([s])
        while queue:
            u = queue.popleft()
            for w in bits(g.rows[u]):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cyc = dist[u] + dist[w] + 1
                    best = cyc if best is None else min(best, cyc)
    return best


def test_triple_2p():
    prism = metacirculant_triple_2p(5, {1, 4}, {1, 4}, {0})
    assert prism.graph == x_mnr(2, 5, 4).graph
    pet = metacirculant_triple_2p(5, {1, 4}, {2, 3}, {0})
    assert pet.graph == petersen().graph
    five_reg = metacirculant_triple_2p(7, {1, 6}, {1, 6}, {0, 1, 6})
    assert set(five_reg.graph.degrees()) == {5}
    assert five_reg.sigma is not None
    with pytest.raises(ValueError):
        metacirculant_triple_2p(5, {1}, {1, 4}, {0})
    with pytest.raises(ValueError):
        metacirculant_triple_2p(5, {1, 4}, {1, 4}, set())


def test_cayley_p3_both_variants():
    for variant in ("heisenberg", "modular"):
        inst = cayley_p3(3, variant)
        g = inst.graph
        assert g.n == 27
        assert set(g.degrees()) == {4}
        assert g.is_connected()
        assert order(inst.rho) == 3 and is_semiregular(inst.rho, 3)
    with pytest.raises(ValueError):
        cayley_p3(3, "heisenberg", ("a", "b"))  # not inverse-closed
    with pytest.raises(ValueError):
        cayley_p3(3, "heisenberg", ("a", "A", "aA"))  # identity word


def test_p3_group_commutator_central_of_order_p():
    for variant in ("heisenberg", "modular"):
        grp = p3_group(3, variant)
        comm = grp.word("ABab")
        assert comm != grp.identity()
        assert grp.is_central(comm)
        assert grp.element_order(comm) == 3
        # non-abelian: a and b do not commute
        a, b = grp.word("a"), grp.word("b")
        assert grp.multiply(a, b) != grp.multiply(b, a)
        assert len(set(grp.elements)) == 27


def test_p3_group_orders():
    heis = p3_group(3, "heisenberg")
    assert all(heis.element_order(g) in (1, 3) for g in heis.elements)  # exponent p
    mod = p3_group(3, "modular")
    assert max(mod.element_order(g) for g in mod.elements) == 9


def test_metacirculant_orbit_reproduces_x_mnr():
    m, n, r = 3, 7, 2
    built = metacirculant_orbit(m, n, r, [(0, 1), (0, n - 1), (1, 0), (m - 1, 0)])
    assert built.graph == x_mnr(m, n, r).graph


def test_metacirculant_orbit_gp_13_5():
    # closure of outer steps plus one spoke under rho and sigma(r=8)
    built = metacirculant_orbit(2, 13, 8, [(1, 0), (0, 1), (0, 12)])
    assert set(built.graph.degrees()) == {3}
    assert built.sigma is not None
    assert built.params["r_order"] == 4
    assert built.graph == generalized_petersen(13, 5).graph


def test_metacirculant_orbit_rejects_loop():
    with pytest.raises(ValueError):
        metacirculant_orbit(2, 5, 4, [(0, 0)])


def test_circulant_15_is_the_cycle():
    from conftest import graph_cycle

    assert circulant(15, {1, 14}).graph == graph_cycle(15)


def test_metacirculant_orbit_requires_two_rows():
    with pytest.raises(ValueError):
        metacirculant_orbit(1, 5, 1, [(0, 1)])
