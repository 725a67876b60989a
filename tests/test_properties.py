"""Randomized and corpus-wide invariant suites.

The lifting machinery is exercised against independently constructed
covering graphs: a random voltage multigraph is lifted by hand into a graph
whose deck transformation is semiregular by construction, so the library's
quotient/lift pair can be checked against ground truth.
"""

import itertools
import math
import random

import pytest

from conftest import acts_as_rotation, cycle_edges
from hamcompress.autgroup import (
    automorphism_group,
    cyclic_semiregular_reps,
    is_automorphism,
    is_cayley,
    regular_subgroups,
    sem_array,
)
from hamcompress.compression import cycle_compression, ham_array, hamilton_compression
from hamcompress.families import circulant
from hamcompress.graph import Graph
from hamcompress.hamlift import (
    check_hamcycle,
    enumerate_hamcycles,
    find_symmetric_hamcycle,
    lift,
    project_cycle,
    quotient_with_voltages,
)
from hamcompress.perm import is_semiregular, order


def _random_voltage_cover(rng: random.Random):
    """A graph built as the lift of a random voltage multigraph, together
    with its deck transformation and a planted liftable quotient cycle."""
    k = rng.randrange(2, 9)
    q = rng.randrange(1, 7)
    # planted quotient Hamilton cycle through all q orbits
    cyc = list(range(q))
    rng.shuffle(cyc)
    start = cyc.index(0)
    cyc = cyc[start:] + cyc[:start]
    volts = [rng.randrange(k) for _ in range(q)]
    if q == 1:
        volts = [rng.choice([s for s in range(1, k) if math.gcd(s, k) == 1])]
    else:
        net = sum(volts) % k
        if math.gcd(net, k) != 1:
            # adjust the final step so the total generates Z_k
            volts[-1] = (volts[-1] + 1 - net) % k
        if q == 2 and (volts[0] + volts[1]) % k == 0:
            volts[1] = (volts[1] + 1) % k  # avoid reusing a single arc
    arcs = [(cyc[i], cyc[(i + 1) % q], volts[i]) for i in range(q)]
    if q == 2:
        # store both planted steps as arcs 0 -> 1
        arcs = [(0, 1, volts[0] if cyc == [0, 1] else (-volts[1]) % k),
                (0, 1, (-volts[1]) % k if cyc == [0, 1] else volts[0])]
    # noise arcs on top of the planted cycle
    for _ in range(rng.randrange(0, 2 * q + 2)):
        a, b = rng.randrange(q), rng.randrange(q)
        s = rng.randrange(k)
        if a == b and (s % k == 0):
            continue
        arcs.append((a, b, s))
    edges = set()
    for a, b, s in arcs:
        for e in range(k):
            u = a * k + e
            v = b * k + (e + s) % k
            if u != v:
                edges.add((min(u, v), max(u, v)))
    g = Graph.build(q * k, edges)
    deck = tuple(a * k + (e + 1) % k for a in range(q) for e in range(k))
    return g, deck, k, q, cyc, volts


def _check_lifted(g: Graph, cycle) -> None:
    """check_hamcycle on a lifted cycle; the closed walk lifted onto a
    2-vertex cover (k = 2, q = 1) is not a Hamilton cycle and is rejected."""
    if g.n < 3:
        with pytest.raises(ValueError):
            check_hamcycle(g, cycle)
    else:
        check_hamcycle(g, cycle)


def test_lift_soundness_1000_random_covers():
    rng = random.Random(2 * 3 * 5 * 7)
    lifted = 0
    for _ in range(1000):
        g, deck, k, q, cyc, volts = _random_voltage_cover(rng)
        assert order(deck) == k and is_semiregular(deck, k)
        qg = quotient_with_voltages(g, deck)
        avail = qg.directed_voltages()
        # the planted arcs must be visible in the quotient
        for i in range(q):
            a, b = cyc[i], cyc[(i + 1) % q]
            assert volts[i] in avail[(a, b)]
        cycle = lift(qg, cyc, volts)
        _check_lifted(g, cycle)
        lifted += 1
        # the deck transformation acts on the lifted cycle as a rotation
        edges = cycle_edges(cycle)
        assert {frozenset((deck[u], deck[v])) for u, v in edges} == edges
        assert acts_as_rotation(deck, cycle)
        # reversing the quotient cycle negates the net voltage
        rev_cyc = [cyc[0]] + cyc[1:][::-1]
        rev_volts = [(-volts[(q - 1 - i) % q]) % k for i in range(q)]
        net = sum(volts) % k
        assert sum(rev_volts) % k == (-net) % k
        if q != 2:
            rev_cycle = lift(qg, rev_cyc, rev_volts)
            _check_lifted(g, rev_cycle)
    assert lifted == 1000


def test_project_inverts_lift_random():
    rng = random.Random(91)
    for _ in range(200):
        g, deck, k, q, cyc, volts = _random_voltage_cover(rng)
        qg = quotient_with_voltages(g, deck)
        cycle = lift(qg, cyc, volts)
        seq, vs = project_cycle(qg, cycle)
        assert seq == cyc
        assert [v % k for v in vs] == [v % k for v in volts]


def test_symmetric_search_completeness_small(corpus):
    """Wherever some Hamilton cycle admits the candidate automorphism as a
    rotation, the quotient search must succeed, and vice versa."""
    for name, g in corpus:
        if g.n > 16:
            continue
        grp = automorphism_group(g)
        cycles, exact = enumerate_hamcycles(g)
        assert exact, name
        reps = cyclic_semiregular_reps(grp)
        for k, gens in sorted(reps.items()):
            for a in gens:
                found = find_symmetric_hamcycle(g, a)
                rotational = [
                    c for c in cycles
                    if any(acts_as_rotation(p, c) for p in _subgroup_generators(a, k))
                ]
                if found is not None:
                    check_hamcycle(g, found)
                    assert rotational, f"{name}: search found a cycle brute force missed"
                else:
                    assert not rotational, (
                        f"{name}: brute force found a rotational cycle for order {k}"
                    )


def _subgroup_generators(a, k):
    from hamcompress.perm import power

    return [power(a, e) for e in range(1, k) if math.gcd(e, k) == 1]


def test_oracle_equivalence_lift_vs_exhaustive(corpus):
    for name, g in corpus:
        if g.n > 16:
            continue
        lift_res = hamilton_compression(g, "lift")
        exh_res = hamilton_compression(g, "exhaustive")
        assert exh_res.exact, name
        assert lift_res.kappa == exh_res.kappa, name


def test_certificate_replay_everywhere(corpus):
    for name, g in corpus:
        for mode in ("lift", "exhaustive"):
            res = hamilton_compression(g, mode)
            if res.certificate is not None:
                replay = cycle_compression(g, res.certificate.cycle)
                assert replay.k == res.certificate.k == res.kappa, name
        arr = ham_array(g)
        for k, cert in arr.certificates.items():
            assert cycle_compression(g, cert.cycle).k == k, name


def test_ham_subset_of_sem(corpus):
    for name, g in corpus:
        arr = ham_array(g)
        sem = sem_array(g)
        assert sem.exact and arr.exact, name
        if arr.values != (0,):
            assert set(arr.values) <= set(sem.values), name


def test_sem_values_divide_vertex_count(corpus):
    for name, g in corpus:
        for k in sem_array(g).values:
            assert g.n % k == 0, name


def test_order_pq_prediction_differential_p5():
    """Every valid 10-vertex triple instance (all symmetric step sets, spoke
    sets up to size 3) gets the same value from the case-split predictor and
    from exhaustive enumeration."""
    import itertools

    from hamcompress.compression import predict_kappa_metapq
    from hamcompress.families import metacirculant_triple_2p

    sym_sets = [frozenset({1, 4}), frozenset({2, 3}), frozenset({1, 2, 3, 4})]
    checked = 0
    for s_outer, s_inner in itertools.product(sym_sets, repeat=2):
        for tsize in (1, 2, 3):
            for spokes in itertools.combinations(range(5), tsize):
                inst = metacirculant_triple_2p(5, set(s_outer), set(s_inner), set(spokes))
                if inst.sigma is None or not inst.graph.is_connected():
                    continue
                pred = predict_kappa_metapq(inst)
                assert pred.kappa is not None
                res = hamilton_compression(inst.graph, "exhaustive")
                assert res.exact
                assert pred.kappa == res.kappa, (
                    sorted(s_outer), sorted(s_inner), sorted(spokes), pred, res.kappa)
                checked += 1
    assert checked >= 70


def test_modes_agree_on_midsize_cubic_graphs():
    """Beyond the 16-vertex corpus: the divisor sweep and full enumeration
    agree on cubic graphs up to 34 vertices."""
    from hamcompress.families import generalized_petersen

    for n, r, expected in ((13, 5, 1), (17, 4, 1), (11, 1, 2), (8, 3, 8)):
        g = generalized_petersen(n, r).graph
        lift_res = hamilton_compression(g, "lift")
        exh_res = hamilton_compression(g, "exhaustive")
        assert exh_res.exact
        assert lift_res.kappa == exh_res.kappa == expected, (n, r)


def test_atlas_census():
    """Every graph of networkx's atlas (all 1253 graphs on at most 7
    vertices): lift and exhaustive compression agree, |Aut| equals the
    number of self-isomorphisms VF2 finds, and the graph is Cayley exactly
    when Aut moves 0 to every vertex (every vertex-transitive graph on fewer
    than 10 vertices is Cayley)."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    # K_n: sum of n!/(n |Aut H|) over the groups H of order n
    complete_regular = {4: 4, 5: 6, 6: 80}
    counts = {}
    for index, h in enumerate(atlas):
        n = h.number_of_nodes()
        g = Graph.build(n, h.edges())
        lift_res = hamilton_compression(g, "lift")
        exh_res = hamilton_compression(g, "exhaustive")
        assert lift_res.exact and exh_res.exact, index
        assert lift_res.kappa == exh_res.kappa, index
        isos = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        group = automorphism_group(g)
        assert group.order == isos, index
        if n:
            transitive = len({a[0] for a in group.elements}) == n
            assert (is_cayley(g, group=group) == "yes") == transitive, index
        if n in complete_regular and h.number_of_edges() == n * (n - 1) // 2:
            counts[n] = len(regular_subgroups(g, group=group))
    assert counts == complete_regular


def _circulant_census():
    """(n, connection set) for the connected circulants on 5 to 18 vertices
    of degree at most 4, one per multiplier class: the least image of the
    connection set under multiplication by the units of Z_n."""
    out = []
    for n in range(5, 19):
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        pairs = sorted({frozenset({s, n - s}) for s in range(1, n)}, key=min)
        seen = set()
        for size in (1, 2):
            for combo in itertools.combinations(pairs, size):
                conn = frozenset().union(*combo)
                if len(conn) > 4 or math.gcd(n, *conn) != 1:
                    continue
                key = min(tuple(sorted(a * s % n for s in conn)) for a in units)
                if key not in seen:
                    seen.add(key)
                    out.append((n, key))
    return out


def test_circulant_census():
    """The vertex-transitive gate for the automorphism search: on every
    census circulant, lift and exhaustive compression agree, and the listed
    elements are |Aut| distinct automorphisms, |Aut| counted by VF2 as n
    times the self-isomorphisms fixing vertex 0 (the rotation makes the
    graph vertex-transitive; the full VF2 count took 13 s). Degree at most
    4 and 18 vertices are cost bounds, not answer bounds: with degree 6,
    exhaustive enumeration on up to 16 vertices ran past 20 minutes."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    census = _circulant_census()
    assert len(census) == 72
    for n, conn in census:
        g = circulant(n, set(conn)).graph
        lift_res = hamilton_compression(g, "lift")
        exh_res = hamilton_compression(g, "exhaustive", limit=50_000)
        assert lift_res.exact and exh_res.exact, (n, conn)
        assert lift_res.kappa == exh_res.kappa, (n, conn)
        h = nx.circulant_graph(n, conn)
        h.nodes[0]["fixed"] = True
        matcher = GraphMatcher(h, h, node_match=lambda a, b: a.get("fixed") == b.get("fixed"))
        group = automorphism_group(g)
        assert group.order == n * sum(1 for _ in matcher.isomorphisms_iter()), (n, conn)
        assert len(set(group.elements)) == group.order, (n, conn)
        assert all(is_automorphism(g, a) for a in group.elements), (n, conn)
