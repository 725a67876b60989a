import itertools
import math
import random
from collections import Counter

import pytest

from conftest import (
    acts_as_rotation,
    conjugacy_sources,
    cycle_edges,
    graph_cycle,
    graph_k4,
    p5_triples,
    project_cycle,
    random_cayley_census,
)
from hamcompress import hamlift
from hamcompress.autgroup import automorphism_group, cyclic_semiregular_reps, is_automorphism
from hamcompress.families import (
    cayley_p3,
    generalized_petersen,
    grid_rho,
    metacirculant_triple_2p,
    petersen,
    x_mnr,
    y_qp,
)
from hamcompress.graph import Graph
from hamcompress.hamlift import (
    _hamilton_cycles,
    _voltage_choices,
    canonical_cycle,
    check_hamcycle,
    enumerate_hamcycles,
    find_hamcycle,
    find_symmetric_hamcycle,
    lift,
    quotient_with_voltages,
    symmetric_hamcycles,
)
from hamcompress.perm import compose, identity, inverse, is_semiregular, orbits, order, power


def test_quotient_rejects_non_semiregular():
    g = petersen().graph
    with pytest.raises(ValueError):
        quotient_with_voltages(g, identity(10))
    swap = list(identity(10))
    swap[0], swap[1] = swap[1], swap[0]
    with pytest.raises(ValueError):
        quotient_with_voltages(g, tuple(swap))
    with pytest.raises(ValueError, match="not semiregular"):  # an image >= n
        find_symmetric_hamcycle(graph_cycle(6), (1, 2, 3, 4, 5, 9))


def test_quotient_refuses_exactly_the_non_automorphisms():
    """Every semiregular permutation of a few graphs on 4 and 6 vertices:
    the quotient exists exactly for the automorphisms. The first one below
    is not an automorphism of C6; lifted, it would run through the non-edge
    5-2."""
    c6 = graph_cycle(6)
    with pytest.raises(ValueError, match="permutation is not an automorphism"):
        find_symmetric_hamcycle(c6, (5, 4, 3, 1, 0, 2))
    graphs = [c6, generalized_petersen(3, 1).graph, graph_k4(),
              Graph.build(6, [(u, v) for u in range(3) for v in range(3, 6)]),
              Graph.build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (0, 3), (2, 5)])]
    counts = [0, 0]
    for g in graphs:
        for a in itertools.permutations(range(g.n)):
            if order(a) < 2 or not is_semiregular(a, order(a)):
                continue
            auto = is_automorphism(g, a)
            counts[auto] += 1
            if auto:
                quotient_with_voltages(g, a)
            else:
                with pytest.raises(ValueError, match="permutation is not an automorphism"):
                    quotient_with_voltages(g, a)
    assert min(counts) > 0


def _voltages_from_every_arc(g: Graph, a) -> dict:
    """The quotient's voltages read off both ends of every edge: arc u -> v
    from orbit A to orbit B carries e(v) - e(u) mod k, e the exponent along
    the orbit from its least vertex."""
    k = order(a)
    where = {v: (idx, e) for idx, orb in enumerate(orbits(a)) for e, v in enumerate(orb)}
    found: dict = {}
    for u, v in g.edges():
        for x, y in ((u, v), (v, u)):
            (ax, ex), (ay, ey) = where[x], where[y]
            found.setdefault((ax, ay), set()).add((ey - ex) % k)
    return {pair: sorted(vs) for pair, vs in found.items()}


def test_quotient_reads_representatives_as_every_arc_does(bench_pools):
    """The quotient reads only each orbit representative's neighbours: for
    an automorphism, v_A^e ~ v_B^(e+s) for every e exactly when the
    representative is adjacent to v_B^s. It equals the all-arcs reading
    for every cyclic semiregular rep of every lift-xmnr and enum-ham pool
    graph."""
    quotients = 0
    for workload in ("lift-xmnr", "enum-ham"):
        for name, g in bench_pools[workload]:
            for reps in cyclic_semiregular_reps(automorphism_group(g)).values():
                for a in reps:
                    qg = quotient_with_voltages(g, a)
                    assert (qg.k, qg.orbit_lists) == (order(a), orbits(a)), name
                    assert qg.voltages == _voltages_from_every_arc(g, a), name
                    quotients += 1
    assert quotients > 1000


def test_quotient_x372_double_arcs():
    inst = x_mnr(3, 7, 2)
    qg = quotient_with_voltages(inst.graph, inst.sigma)
    assert qg.k == 3 and len(qg.orbit_lists) == 7
    doubled = sorted((a, b) for (a, b), vs in qg.voltages.items() if a < b and len(vs) > 1)
    # double arcs exactly at the orbit pairs (V_1, V_2) and (V_5, V_6)
    assert doubled == [(1, 2), (5, 6)]
    # and one loop, at V_0, carrying +-1
    assert {(a, b): vs for (a, b), vs in qg.voltages.items() if a == b} == {(0, 0): [1, 2]}


def test_quotient_cycle_by_rotation_power():
    g = graph_cycle(6)
    a = power(grid_rho(1, 6), 2)  # rotation by two, order three
    qg = quotient_with_voltages(g, a)
    assert qg.k == 3 and len(qg.orbit_lists) == 2
    volts = qg.voltages[(0, 1)]
    assert len(volts) == 2  # parallel arcs carrying the net generator


def test_quotient_prism_by_rho():
    inst = x_mnr(2, 5, 4)
    qg = quotient_with_voltages(inst.graph, inst.rho)
    assert qg.k == 5 and len(qg.orbit_lists) == 2
    # a loop of voltage +-1 on each orbit and one spoke arc of voltage 0
    assert qg.voltages == {(0, 0): [1, 4], (0, 1): [0], (1, 0): [0], (1, 1): [1, 4]}


def _semiregular_witnesses(inst):
    """rho always; sigma only when it happens to be semiregular (true for the
    2m-generator family, not for the order-q^t twisted rotations)."""
    out = [inst.rho]
    if inst.sigma is not None and is_semiregular(inst.sigma, order(inst.sigma)):
        out.append(inst.sigma)
    return out


def test_quotient_arc_invariant():
    for inst in (x_mnr(3, 7, 2), x_mnr(2, 5, 4), y_qp(2, 13, 2)):
        g = inst.graph
        for a in _semiregular_witnesses(inst):
            qg = quotient_with_voltages(g, a)
            for (oa, ob), volts in qg.voltages.items():
                assert volts == sorted(set(volts))
                for s in volts:
                    rep_a = qg.orbit_lists[oa][0]
                    target = qg.orbit_lists[ob][s % qg.k]
                    assert g.has_edge(rep_a, target)


def test_quotient_edge_counts_cover_graph():
    # each direction of every graph edge lies in exactly one arc orbit of k
    # directed edges, and reversing an arc negates its voltage
    for inst in (x_mnr(3, 7, 2), x_mnr(2, 4, 3), y_qp(2, 13, 2)):
        for a in _semiregular_witnesses(inst):
            g, k = inst.graph, order(a)
            qg = quotient_with_voltages(g, a)
            assert sum(len(volts) * k for volts in qg.voltages.values()) == 2 * g.m
            for (oa, ob), volts in qg.voltages.items():
                assert qg.voltages[(ob, oa)] == sorted((-s) % k for s in volts)


def test_lift_c6_and_net_voltage_errors():
    g = graph_cycle(6)
    a = power(grid_rho(1, 6), 2)
    qg = quotient_with_voltages(g, a)
    volts = qg.voltages[(0, 1)]
    s0, s1 = volts
    cycle = lift(qg, [0, 1], [s0, (-s1) % 3])
    check_hamcycle(g, cycle)
    # net voltage zero: the candidate walk closes into short cycles
    with pytest.raises(ValueError):
        lift(qg, [0, 1], [s0, (-s0) % 3])


def test_lift_prism_loop_case():
    # single-orbit quotient: full rotation of the cycle graph
    g = graph_cycle(7)
    qg = quotient_with_voltages(g, grid_rho(1, 7))
    cycle = lift(qg, [0], [1])
    assert cycle == tuple(range(7))


def test_lift_roundtrip_projection():
    inst = x_mnr(3, 7, 2)
    qg = quotient_with_voltages(inst.graph, inst.sigma)
    found = find_symmetric_hamcycle(inst.graph, inst.sigma)
    assert found is not None
    seq, volts = project_cycle(qg, found)
    assert sorted(seq) == list(range(7))
    net = sum(volts[: len(seq)]) % 3
    assert math.gcd(net, 3) == 1


def test_symmetric_cycle_x372():
    inst = x_mnr(3, 7, 2)
    cycle = find_symmetric_hamcycle(inst.graph, inst.sigma)
    assert cycle is not None
    check_hamcycle(inst.graph, cycle)
    # setwise invariant, acting as a rotation
    edges = cycle_edges(cycle)
    mapped = {frozenset((inst.sigma[u], inst.sigma[v])) for u, v in edges}
    assert mapped == edges
    assert acts_as_rotation(inst.sigma, cycle)


def test_symmetric_cycle_petersen_none():
    pet = petersen()
    assert find_symmetric_hamcycle(pet.graph, pet.rho) is None


def test_symmetric_cycle_full_rotation():
    g = graph_cycle(9)
    cycle = find_symmetric_hamcycle(g, grid_rho(1, 9))
    assert cycle == tuple(range(9))


def test_find_hamcycle():
    assert find_hamcycle(petersen().graph) is None
    assert find_hamcycle(graph_k4()) is not None
    cycle = find_hamcycle(x_mnr(3, 7, 2).graph)
    check_hamcycle(x_mnr(3, 7, 2).graph, cycle)
    disconnected = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert find_hamcycle(disconnected) is None
    assert find_hamcycle(Graph.build(2, [(0, 1)])) is None


def test_fewer_than_three_vertices_have_no_hamilton_cycle():
    for n, edges, seq in ((0, [], ()), (1, [], (0,)), (2, [(0, 1)], (0, 1))):
        with pytest.raises(ValueError):
            check_hamcycle(Graph.build(n, edges), seq)
    assert find_symmetric_hamcycle(Graph.build(2, [(0, 1)]), (1, 0)) is None


def test_long_cycle_needs_no_recursion():
    n = 1100
    g = graph_cycle(n)
    cycle = find_hamcycle(g)
    assert cycle is not None
    check_hamcycle(g, cycle)


def test_enumerate_k4():
    cycles, exact = enumerate_hamcycles(graph_k4())
    assert exact
    assert len(cycles) == 3  # (4-1)!/2


def test_enumerate_distinct_and_canonical():
    g = petersen().graph.complement()
    cycles, exact = enumerate_hamcycles(g)
    assert exact
    assert len(set(cycles)) == len(cycles)
    for c in cycles[:50]:
        assert c == canonical_cycle(c)
        check_hamcycle(g, c)


def test_enumerate_limit_flag():
    g = petersen().graph.complement()
    cycles, exact = enumerate_hamcycles(g, limit=10)
    assert not exact and len(cycles) == 10


def test_enumerate_limit_above_maxsize_is_no_limit():
    for g in (graph_cycle(7), petersen().graph.complement()):
        assert enumerate_hamcycles(g, 10**20) == enumerate_hamcycles(g)


def test_enumerate_limit_below_one_raises():
    for g in (graph_cycle(7), petersen().graph):
        for limit in (0, -1):
            with pytest.raises(ValueError, match="limit must be positive"):
                enumerate_hamcycles(g, limit)


def _reference_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every Hamilton cycle through vertex 0 in both directions, by a
    depth-first search that tries neighbours in ascending order and prunes
    nothing: a path is abandoned only when it cannot be extended."""
    out = []

    def extend(path):
        if len(path) == g.n:
            if g.has_edge(path[-1], 0):
                out.append(tuple(path))
            return
        for v in range(g.n):
            if v not in path and g.has_edge(path[-1], v):
                extend(path + [v])

    if g.n >= 3:
        extend([0])
    return out


def _assert_search_matches_reference(g: Graph, label) -> None:
    """The pruned search yields exactly the reference's cycles whose second
    vertex is below the last, in the reference's order."""
    ref = _reference_cycles(g)
    assert list(_hamilton_cycles(g.rows)) == [c for c in ref if c[1] < c[-1]], label


def test_hamilton_search_matches_unpruned_reference():
    for n in range(3, 11):
        for r in range(1, (n + 1) // 2):
            _assert_search_matches_reference(generalized_petersen(n, r).graph, ("GP", n, r))
    sym = ((1, 4), (2, 3), (1, 2, 3, 4))
    for s_outer, s_inner in itertools.product(sym, repeat=2):
        for spokes in ((0,), (0, 1), (0, 2), (0, 1, 3)):
            inst = metacirculant_triple_2p(5, s_outer, s_inner, spokes)
            _assert_search_matches_reference(inst.graph, (s_outer, s_inner, spokes))


def test_hamilton_search_matches_unpruned_reference_on_atlas():
    nx = pytest.importorskip("networkx")
    for index, h in enumerate(nx.graph_atlas_g()):
        _assert_search_matches_reference(Graph.build(h.number_of_nodes(), h.edges()), index)


def _open_region_from_scratch(adj: list[set[int]], head: int, rest: int) -> bool:
    """_open_region_ok's verdict, from the whole state: every open vertex
    (rest) keeps two links into the live set (rest, head and vertex 0), and
    a set-based breadth-first search from head covers rest and head."""
    region = {v for v in range(len(adj)) if rest >> v & 1}
    live = region | {head, 0}
    if any(len(adj[v] & live) < 2 for v in region):
        return False
    region.add(head)
    seen, layer = {head}, {head}
    while layer:
        layer = {u for v in layer for u in adj[v]} & region - seen
        seen |= layer
    return seen == region


def test_open_region_check_matches_a_from_scratch_check(monkeypatch):
    """The DFS's open-region check looks only at the previous head's open
    neighbours and stops its search once head reaches them; on every call,
    on GP(n, r) for n <= 17 and the 77 p = 5 triples, its verdict equals the
    check of the whole state, taken once per state (head, rest). GP(17, 2)
    has no Hamilton cycle, so its search runs to the end: 8 814 checks."""
    adj: list[set[int]] = []
    verdicts: dict[tuple[int, int], bool] = {}
    calls = 0

    def checked(rows, head, rest, lost):
        nonlocal calls
        calls += 1
        verdict = original(rows, head, rest, lost)
        if (head, rest) not in verdicts:
            verdicts[head, rest] = _open_region_from_scratch(adj, head, rest)
        assert verdict == verdicts[head, rest], (rows, head, rest, lost)
        return verdict

    original = hamlift._open_region_ok
    monkeypatch.setattr(hamlift, "_open_region_ok", checked)
    graphs = {("GP", n, r): generalized_petersen(n, r).graph
              for n in range(3, 18) for r in range(1, (n + 1) // 2)}
    graphs.update((("triple", i), g) for i, g in enumerate(p5_triples()))
    for label, g in graphs.items():
        adj[:] = map(set, g.nbrs)
        verdicts.clear()
        calls = 0
        cycles = list(_hamilton_cycles(g.rows))
        assert calls, label
        if label == ("GP", 17, 2):
            assert (len(cycles), calls) == (0, 8814)


def _brute_voltage_choices(volt_sets, k):
    """Every choice of one voltage per step whose total generates Z_k, by
    ascending total and then by the reversed choice."""
    return sorted((c for c in itertools.product(*volt_sets) if math.gcd(sum(c), k) == 1),
                  key=lambda c: (sum(c) % k, c[::-1]))


def test_voltage_choices_match_brute_force():
    """Seeded random voltage sets, ascending and free of duplicates as in a
    quotient: the choices are exactly the generating ones of the product,
    once each, the first being the least by (total mod k, reversed tuple).
    The order is that key's throughout, on a few thousand steps too."""
    rng = random.Random(27)
    yielded = 0
    for _ in range(3000):
        k, q = rng.randint(2, 12), rng.randint(1, 6)
        volt_sets = [sorted(rng.sample(range(k), rng.randint(0, min(k, 4)))) for _ in range(q)]
        got = list(_voltage_choices(volt_sets, k))
        assert len(set(got)) == len(got)
        assert got == _brute_voltage_choices(volt_sets, k), (volt_sets, k)
        yielded += len(got)
    assert yielded > 10_000
    # no recursion: quotients reach thousands of orbits (GP(2000, 1) by an
    # order-2 rotation has 2000)
    assert next(_voltage_choices([[0, 1]] * 5000, 2)) == (1,) + (0,) * 4999


def _reference_quotient_search(qg):
    """The quotient search with no pruning and both directions: the path
    through all orbits when there are fewer than three, else each cycle of
    the unpruned reference DFS on the support in turn, until one has a
    generating voltage choice; that cycle with the brute-force least
    choice."""
    k, q = qg.k, len(qg.orbit_lists)
    avail = qg.voltages
    if q < 3:
        paths = [tuple(range(q))]
    else:
        paths = _reference_cycles(Graph.build(q, [(a, b) for a, b in avail if a < b]))
    for path in paths:
        choices = _brute_voltage_choices([avail.get((path[i], path[(i + 1) % q]), [])
                                          for i in range(q)], k)
        if choices:
            return list(path), choices[0]
    return None


def test_symmetric_search_matches_both_direction_reference():
    """find_symmetric_hamcycle lifts the certificate the unpruned
    both-direction reference picks, for every cyclic semiregular generator:
    the one-way search keeps the first accepted quotient cycle and its
    voltage choice, on two orbits as on any other number. It is the first
    cycle symmetric_hamcycles yields."""
    graphs = [generalized_petersen(n, r).graph
              for n in range(3, 13) for r in range(1, (n + 1) // 2)]
    sym = ((1, 4), (2, 3), (1, 2, 3, 4))
    for s_outer, s_inner in itertools.product(sym, repeat=2):
        for spokes in ((0,), (0, 1), (0, 2), (0, 1, 3)):
            graphs.append(metacirculant_triple_2p(5, s_outer, s_inner, spokes).graph)
    graphs += [x_mnr(3, 7, 2).graph, x_mnr(4, 5, 2).graph, petersen().graph.complement(),
               cayley_p3(3, "heisenberg").graph]
    pairs = 0
    for index, g in enumerate(graphs):
        for reps in cyclic_semiregular_reps(automorphism_group(g)).values():
            for a in reps:
                qg = quotient_with_voltages(g, a)
                ref = _reference_quotient_search(qg)
                expected = lift(qg, *ref) if ref is not None else None
                found = find_symmetric_hamcycle(g, a)
                assert found == expected, (index, a)
                assert found == next(symmetric_hamcycles(g, a), None), (index, a)
                if found is not None:  # the lift is a Hamilton cycle unchecked by the search
                    check_hamcycle(g, found)
                pairs += 1
    assert pairs == 726


def test_enumerate_gp_13_5_nonempty_exhaustive():
    cycles, exact = enumerate_hamcycles(y_qp(2, 13, 2).graph)
    assert exact and cycles


def test_canonical_cycle_collapses_symmetries():
    base = (0, 3, 1, 4, 2)
    n = len(base)
    variants = set()
    for shift in range(n):
        rotated = tuple(base[(i + shift) % n] for i in range(n))
        variants.add(canonical_cycle(rotated))
        variants.add(canonical_cycle(tuple(reversed(rotated))))
    assert len(variants) == 1


def _least_shift_by_scan(g: Graph, cycle) -> int:
    """Least s in 1..n whose rotation by s positions along the cycle is an
    automorphism of g, trying every s."""
    n = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    return next(s for s in range(1, n + 1)
                if is_automorphism(g, tuple(cycle[(pos[v] + s) % n] for v in range(n))))


def test_conjugate_reps_lift_to_the_images_of_each_other():
    """For reps a and b of conjugate subgroups, x<a>x^-1 = <b>, the canonical
    lifts of b are x's images of a's lifts, as multisets, and each image has
    its source's least shift; and the same from b back to a by x^-1. The
    pairs join each rep to the least rep of its class, both found by brute
    force, on the random Cayley census, Petersen's complement and GP(10,3).
    ham_array runs one symmetric search per conjugacy class on this."""
    graphs = [*random_cayley_census(), ("petersen-complement", petersen().graph.complement()),
              ("gp-10-3", generalized_petersen(10, 3).graph)]
    pairs = images = 0
    for label, g in graphs:
        group = automorphism_group(g)
        lifts, shift = {}, {}
        for b, (a, x) in conjugacy_sources(group).items():
            if a == b:
                continue
            for r in (a, b):
                if r not in lifts:
                    lifts[r] = [canonical_cycle(c) for c in symmetric_hamcycles(g, r)]
                    shift.update((c, _least_shift_by_scan(g, c)) for c in lifts[r])
            for src, dst, y in ((a, b, x), (b, a, inverse(x))):
                mapped = [canonical_cycle(compose(y, c)) for c in lifts[src]]
                assert Counter(mapped) == Counter(lifts[dst]), (label, src, dst)
                assert [shift[c] for c in mapped] == [shift[c] for c in lifts[src]], (label, src)
                pairs += 1
                images += len(mapped)
    assert (pairs, images) == (6804, 22316)
