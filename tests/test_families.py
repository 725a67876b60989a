import itertools
import math
import random

import pytest

from hamcompress.autgroup import is_automorphism
from hamcompress.families import (
    P3_DEFAULT_CONNECTION,
    cayley_p3,
    circulant,
    generalized_petersen,
    grid_rho,
    grid_sigma,
    metacirculant_orbit,
    metacirculant_triple_2p,
    p3_group,
    petersen,
    x_mnr,
    y_qp,
    z_qp,
)
from hamcompress.graph import Graph, bits
from hamcompress.numth import is_prime, ord_mod
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
    lambda: metacirculant_orbit(2, 13, 8, [(1, 0), (0, 1), (0, 12)]),
    lambda: generalized_petersen(7, 2),  # no unit r gives a twisted rotation
]


def test_every_instance_well_formed():
    for build in ALL_INSTANCES:
        inst = build()
        g = inst.graph
        assert inst.m * inst.n == g.n
        assert is_automorphism(g, inst.rho)
        assert is_semiregular(inst.rho, order(inst.rho))
        if inst.sigma is not None:
            assert is_automorphism(g, inst.sigma)
            r = inst.params.get("r", inst.params.get("sigma_multiplier"))
            if r is not None:
                conj = compose(inst.sigma, compose(inst.rho, inverse(inst.sigma)))
                assert conj == power(inst.rho, r)


def _assert_rotations(inst, r):
    """rho and sigma are automorphisms and sigma rho sigma^-1 = rho^r: the
    facts the constructors guarantee and no longer re-check."""
    g, rho, sigma = inst.graph, inst.rho, inst.sigma
    assert is_automorphism(g, rho) and is_automorphism(g, sigma)
    assert compose(sigma, compose(rho, inverse(sigma))) == power(rho, r)


def test_x_mnr_rotations_hold_by_construction():
    """Every n <= 40 and every unit r of order 2..6 mod n, with m that order."""
    count = 0
    for n in range(2, 41):
        for r in range(1, n):
            if math.gcd(r, n) == 1 and 2 <= (m := ord_mod(r, n)) <= 6:
                _assert_rotations(x_mnr(m, n, r), r)
                count += 1
    assert count > 200


def test_metacirculant_orbit_rotations_hold_by_construction():
    """300 seeded inputs: m 2-4, n 2-15, any unit r (its order need not be
    m), one to three neighbours of v_0^0 other than itself."""
    rng = random.Random(2303)
    for _ in range(300):
        m, n = rng.randint(2, 4), rng.randint(2, 15)
        r = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
        cells = [(i, j) for i in range(m) for j in range(n) if (i, j) != (0, 0)]
        nbrs = rng.sample(cells, rng.randint(1, 3))
        _assert_rotations(metacirculant_orbit(m, n, r, nbrs), r)


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
    with pytest.raises(ValueError, match="^2 is not a unit mod 14$"):
        x_mnr(3, 14, 2)


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


def test_yz_sigma_status_and_order_follow_from_j():
    """_yz_instance reads sigma's status off j (an automorphism iff j = 1)
    and its order off t (q^t) instead of testing them. Pinned on every y_qp
    and z_qp member with p < 400 and t <= 8: q^t divides p - 1 and the
    cofactor is prime to q."""
    primes = [p for p in range(400) if is_prime(p)]
    built = 0
    for build, q, p, t in itertools.product((y_qp, z_qp), primes, primes, range(2, 9)):
        if (p - 1) % q**t or (p - 1) // q**t % q == 0:
            continue
        inst = build(q, p, t)
        sigma = grid_sigma(q, p, inst.params["r"])
        is_aut = is_automorphism(inst.graph, sigma)
        assert inst.params["sigma_is_automorphism"] == is_aut, (build.__name__, q, p, t)
        assert inst.sigma == (sigma if is_aut else None)
        if is_aut:
            assert inst.params["sigma_order"] == order(sigma), (build.__name__, q, p, t)
        built += 1
    assert built == 106


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


@pytest.mark.parametrize("build, message", [
    (lambda: circulant(6, {0, 1}), "connection set contains 0"),
    (lambda: circulant(6, {1, 2}), "connection set is not symmetric"),
    (lambda: metacirculant_triple_2p(5, {0, 1, 4}, {1, 4}, {0}), "S contains 0"),
    (lambda: metacirculant_triple_2p(5, {1, 4}, {1}, {0}), "S' is not symmetric"),
], ids=["circulant-zero", "circulant-asymmetric", "triple-zero", "triple-asymmetric"])
def test_step_set_errors_name_the_set(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


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


def test_cayley_p3_reads_an_iterator_once():
    """An iterator of words builds the default graph and records its words."""
    inst = cayley_p3(3, "heisenberg", iter(P3_DEFAULT_CONNECTION))
    assert inst.params["connection"] == list(P3_DEFAULT_CONNECTION)
    assert inst.graph == cayley_p3(3, "heisenberg").graph


@pytest.mark.parametrize("connection, named", [
    ((1,), "connection word 1 is not a string"),
    (("a", "A", ["b"]), "connection word ['b'] is not a string"),
    (("a", "A", "bx"), "unknown letter 'x' in word 'bx'"),
], ids=["int", "list", "unknown-letter"])
def test_cayley_p3_bad_word_names_it(connection, named):
    with pytest.raises(ValueError) as exc:
        cayley_p3(3, "modular", connection)
    assert str(exc.value) == named


def _generated(mul, e, gens):
    """The elements reached from e by right multiplications with gens."""
    seen, stack = {e}, [e]
    while stack:
        g = stack.pop()
        for s in gens:
            h = mul(g, s)
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return seen


def _tuple_laws(p):
    """Each group law on tuples, with its inverse and the vertex id of an
    element, as the p3_group docstring defines them."""
    p2 = p * p

    def heis_mul(g, h):
        return ((g[0] + h[0]) % p, (g[1] + h[1]) % p, (g[2] + h[2] + g[0] * h[1]) % p)

    def heis_inv(g):
        return ((-g[0]) % p, (-g[1]) % p, (g[0] * g[1] - g[2]) % p)

    def mod_mul(g, h):  # (x, y) = a^x b^y
        return ((g[0] + h[0] * pow(1 + p, g[1], p2)) % p2, (g[1] + h[1]) % p)

    def mod_inv(g):
        return ((-g[0] * pow(1 + p, (-g[1]) % p, p2)) % p2, (-g[1]) % p)

    return {
        "heisenberg": (heis_mul, heis_inv, (1, 0, 0), (0, 1, 0), (0, 0, 0),
                       lambda g: (g[0] * p + g[1]) * p + g[2]),
        "modular": (mod_mul, mod_inv, (1, 0), (0, 1), (0, 0),
                    lambda g: ((g[0] % p) * p + g[1]) * p + g[0] // p),
    }


def test_cayley_p3_edges_match_definition():
    """g ~ g*s for every element g and connection element s, built pair by
    pair from each group law on tuples."""
    conns = [("a", "A", "b", "B"), ("ab", "BA"), ("a", "A", "bab", "BAB"),
             ("aB", "bA", "b", "B", "aab", "BAA")]
    for p in (3, 5):
        for variant, (mul, inv, a, b, e, code) in _tuple_laws(p).items():
            letters = {"a": a, "A": inv(a), "b": b, "B": inv(b)}
            elements = _generated(mul, e, (a, b))
            assert len(elements) == p**3
            for conn in conns:
                words = []
                for w in conn:
                    s = e
                    for ch in w:
                        s = mul(s, letters[ch])
                    words.append(s)
                edges = [(code(g), code(mul(g, s))) for g in elements for s in words]
                assert cayley_p3(p, variant, conn).graph == Graph.build(p**3, edges), \
                    (p, variant, conn)


def _element_order(mul, g):
    e, x = 1, g
    while x:
        x = mul(x, g)
        e += 1
    return e


def test_p3_group_commutator_central_of_order_p():
    for p in (3, 5):
        n, a, b = p**3, p * p, p
        for variant in ("heisenberg", "modular"):
            mul = p3_group(p, variant)
            a_inv = next(g for g in range(n) if mul(a, g) == 0)
            b_inv = next(g for g in range(n) if mul(b, g) == 0)
            comm = mul(mul(mul(a_inv, b_inv), a), b)  # the word "ABab"
            assert comm != 0
            assert all(mul(comm, h) == mul(h, comm) for h in range(n))
            assert _element_order(mul, comm) == p
            # non-abelian: a and b do not commute
            assert mul(a, b) != mul(b, a)
            # a and b generate p^3 distinct elements
            assert _generated(mul, 0, (a, b)) == set(range(n))


def test_p3_group_central_rotation():
    """cayley_p3 relies on these without re-checking them: left
    multiplication by c = 1 is the grid rotation, and c is central of order p."""
    for p in (3, 5, 7):
        for variant in ("heisenberg", "modular"):
            mul = p3_group(p, variant)
            assert tuple(mul(1, g) for g in range(p**3)) == grid_rho(p * p, p)
            assert all(mul(1, g) == mul(g, 1) for g in range(p**3))
            assert _element_order(mul, 1) == p


def test_p3_group_orders():
    for p in (3, 5):
        heis = p3_group(p, "heisenberg")
        assert {_element_order(heis, g) for g in range(p**3)} == {1, p}  # exponent p
        mod = p3_group(p, "modular")
        assert max(_element_order(mod, g) for g in range(p**3)) == p * p


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
    # a non-unit r is refused before the neighbour set is read
    with pytest.raises(ValueError, match="^3 is not a unit mod 6$"):
        metacirculant_orbit(2, 6, 3, [(0, 0)])


def test_circulant_15_is_the_cycle():
    from corpora import graph_cycle

    assert circulant(15, {1, 14}).graph == graph_cycle(15)


def test_metacirculant_orbit_requires_two_rows():
    with pytest.raises(ValueError):
        metacirculant_orbit(1, 5, 1, [(0, 1)])


def test_metacirculant_orbit_reads_a_one_shot_iterator():
    pairs = [(0, 1), (1, 0)]
    built = metacirculant_orbit(3, 7, 2, iter(pairs))
    assert built.params["neighbors0"] == pairs
    assert built.graph == metacirculant_orbit(3, 7, 2, pairs).graph


# --- labelled edge sets pinned to the definitions ---------------------------
# Each expected edge set is computed pair by pair from an adjacency predicate
# written from the constructor's docstring, on the labelling (i, j) -> i*n + j.


def _defined_edges(m, n, adjacent):
    """{(u, v) : u < v} for the vertices (i, j) of Z_m x Z_n where
    adjacent(a, b) or adjacent(b, a) holds."""
    cells = [divmod(v, n) for v in range(m * n)]
    return {(u, v) for u in range(m * n) for v in range(u + 1, m * n)
            if adjacent(cells[u], cells[v]) or adjacent(cells[v], cells[u])}


def _unit_order(r, n):
    """Least e >= 1 with r^e = 1 mod n, or None when r is not a unit."""
    for e in range(1, n + 1):
        if pow(r, e, n) == 1 % n:
            return e
    return None


def _column_step(a, b, m):
    """b = v_{i+1}^j for a = v_i^j."""
    return b[1] == a[1] and b[0] == (a[0] + 1) % m


def test_x_mnr_edges_match_definition():
    cases = [(m, n, r) for n in range(2, 14) for r in range(1, n)
             for m in range(2, 6) if _unit_order(r, n) == m]
    assert len(cases) > 30
    for m, n, r in cases:
        def adjacent(a, b):
            return ((a[0] == b[0] and (b[1] - a[1]) % n == pow(r, a[0], n))
                    or _column_step(a, b, m))

        assert set(x_mnr(m, n, r).graph.edges()) == _defined_edges(m, n, adjacent), (m, n, r)


@pytest.mark.parametrize("build,exponent", [(y_qp, lambda q, t: q),
                                            (z_qp, lambda q, t: q ** (t - 1))],
                         ids=["y_qp", "z_qp"])
def test_y_z_qp_edges_match_definition(build, exponent):
    for q, p, t in [(2, 5, 2), (2, 13, 2), (3, 19, 2), (2, 17, 4), (2, 41, 3), (3, 37, 2)]:
        lam = min(g for g in range(2, p) if _unit_order(g, p) == p - 1)
        r = pow(lam, (p - 1) // q**t, p)
        sub = {pow(r, exponent(q, t) * k, p) for k in range(p)}
        steps = sub | {-h % p for h in sub}

        def adjacent(a, b):
            return ((a[0] == b[0] and (b[1] - a[1]) % p in {pow(r, a[0], p) * s % p
                                                           for s in steps})
                    or _column_step(a, b, q))

        assert set(build(q, p, t).graph.edges()) == _defined_edges(q, p, adjacent), (q, p, t)


def test_circulant_edges_match_definition():
    for n in range(2, 10):
        halves = range(1, n // 2 + 1)
        for k in range(1, len(halves) + 1):
            for chosen in itertools.combinations(halves, k):
                conn = {s for h in chosen for s in (h, n - h)}

                def adjacent(a, b):
                    return (b[1] - a[1]) % n in conn

                assert set(circulant(n, conn).graph.edges()) == _defined_edges(1, n, adjacent)


def test_generalized_petersen_edges_match_definition():
    for n in range(3, 13):
        for r in range(1, (n + 1) // 2):
            def adjacent(a, b):
                step = (b[1] - a[1]) % n
                return ((a[0] == b[0] == 0 and step == 1)  # outer cycle
                        or (a[0] == b[0] == 1 and step == r)  # inner step-r cycles
                        or (a[0] == 0 and b[0] == 1 and step == 0))  # spokes

            edges = set(generalized_petersen(n, r).graph.edges())
            assert edges == _defined_edges(2, n, adjacent), (n, r)


def test_triple_2p_edges_match_definition():
    for p in (3, 5, 7):
        for outer, inner in [({1, p - 1}, {1, p - 1}), ({1, p - 1}, {2, p - 2}),
                             (set(range(1, p)), {2, p - 2})]:
            for k in range(1, p + 1):
                for spokes in itertools.combinations(range(p), k):
                    def adjacent(a, b):
                        step = (b[1] - a[1]) % p
                        return ((a[0] == b[0] == 0 and step in outer)
                                or (a[0] == b[0] == 1 and step in inner)
                                or (a[0] == 0 and b[0] == 1 and step in spokes))

                    edges = set(metacirculant_triple_2p(p, outer, inner, spokes).graph.edges())
                    assert edges == _defined_edges(2, p, adjacent), (p, outer, inner, spokes)


def _closed_orbit_edges(m, n, r, neighbors0):
    """Close the edges v_0^0 ~ v_i^j one edge at a time under
    rho: v_i^j -> v_i^{j+1} and sigma: v_i^j -> v_{i+1}^{rj}."""
    def rho(v):
        return v[0], (v[1] + 1) % n

    def sigma(v):
        return (v[0] + 1) % m, r * v[1] % n

    edges = {frozenset({(0, 0), (i % m, j % n)}) for i, j in neighbors0}
    frontier = list(edges)
    while frontier:
        edge = frontier.pop()
        for g in (rho, sigma):
            image = frozenset(map(g, edge))
            if image not in edges:
                edges.add(image)
                frontier.append(image)
    return {tuple(sorted(i * n + j for i, j in edge)) for edge in edges}


def test_metacirculant_orbit_edges_match_closure():
    starts = [[(0, 1)], [(1, 0)], [(0, 1), (1, 0)], [(1, 2)], [(0, 2), (2, 1)], [(1, -1), (2, 3)]]
    for m in range(2, 5):
        for n in range(2, 10):
            for r in range(1, n):
                if _unit_order(r, n) is None:
                    continue
                for nb in starts:
                    nb = [(i, j) for i, j in nb if (i % m, j % n) != (0, 0)]
                    if nb:
                        edges = set(metacirculant_orbit(m, n, r, nb).graph.edges())
                        assert edges == _closed_orbit_edges(m, n, r, nb), (m, n, r, nb)
