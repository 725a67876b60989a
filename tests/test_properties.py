"""Randomized and corpus-wide invariant suites.

The lifting machinery is exercised against independently constructed
covering graphs: a random voltage multigraph is lifted by hand into a graph
whose deck transformation is semiregular by construction, so the library's
quotient/lift pair can be checked against ground truth.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from conftest import (
    acts_as_rotation,
    assert_plain_ham,
    cycle_edges,
    graph_complete,
    graph_complete_bipartite,
    graph_disjoint_complete,
    graph_star,
    plain_ham,
    project_cycle,
    random_cayley_census,
)
from hamcompress.autgroup import (
    DEFAULT_CAP,
    _refine,
    _replay,
    _split,
    automorphism_group,
    cyclic_semiregular_reps,
    is_automorphism,
    is_cayley,
    regular_subgroups,
    sem_array,
)
from hamcompress.compression import (
    cycle_compression,
    ham_array,
    hamilton_compression,
    predict_kappa_circulant,
)
from hamcompress.families import circulant, generalized_petersen
from hamcompress.graph import Graph, bits
from hamcompress.hamlift import (
    canonical_cycle,
    check_hamcycle,
    enumerate_hamcycles,
    find_symmetric_hamcycle,
    lift,
    quotient_with_voltages,
    symmetric_hamcycles,
)
from hamcompress.numth import factorize
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
        # the planted arcs must be visible in the quotient
        for i in range(q):
            a, b = cyc[i], cyc[(i + 1) % q]
            assert volts[i] in qg.voltages[(a, b)]
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
    rotation, the quotient search must succeed, and vice versa. The lifts
    are the rotational cycles as a multiset: each comes twice, once per
    direction, when a has at most two orbits, and once otherwise."""
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
                lifts = Counter(canonical_cycle(c) for c in symmetric_hamcycles(g, a))
                copies = 2 if g.n // k <= 2 else 1
                assert lifts == Counter(rotational * copies), name
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
        # exhaustive mode lifts too: both answer to the plain oracle
        least, exhaustive = plain_ham(g)
        assert exhaustive, name
        assert lift_res.kappa == max(least, default=0), name
        if least:
            assert exh_res.certificate.cycle == least[exh_res.kappa].cycle, name


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
        assert_plain_ham(g, arr, name)


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
    from exhaustive enumeration, and lists |Aut| distinct elements, |Aut| as
    counted by networkx's VF2++."""
    import itertools

    nx = pytest.importorskip("networkx")

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
                group = automorphism_group(inst.graph)
                h = nx.Graph(inst.graph.edges())
                isos = sum(1 for _ in nx.vf2pp_all_isomorphisms(h, h))
                assert group.order == isos == len(set(group.elements)), (
                    sorted(s_outer), sorted(s_inner), sorted(spokes))
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
    vertices): lift and exhaustive compression agree, the Ham array equals
    the plain oracle, |Aut| equals the
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
        assert_plain_ham(g, ham_array(g), index)
        isos = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        group = automorphism_group(g)
        assert group.order == isos, index
        if n:
            transitive = len({a[0] for a in group.elements}) == n
            assert (is_cayley(g, group=group) == "yes") == transitive, index
        if n in complete_regular and h.number_of_edges() == n * (n - 1) // 2:
            counts[n] = len(regular_subgroups(g, group=group))
    assert counts == complete_regular


def test_random_cayley_census():
    """Seeded random connected Cayley graphs of small groups, ten per group
    (`random_cayley_census`): lift and exhaustive kappa and the Ham array
    equal the plain oracle, which uses no group, and every graph is Cayley.
    Random graphs are almost never symmetric; here the lifts supply every
    value above 1 on a quarter of the graphs."""
    mixed = 0  # arrays holding 1 and a larger value: the larger ones came from lifts
    for label, g in random_cayley_census():
        least, exhaustive = plain_ham(g)
        assert exhaustive, label
        lift_res = hamilton_compression(g, "lift")
        exh_res = hamilton_compression(g, "exhaustive")
        assert lift_res.exact and exh_res.exact, label
        assert lift_res.kappa == exh_res.kappa == max(least, default=0), label
        arr = ham_array(g)
        assert_plain_ham(g, arr, label)
        mixed += arr.values[0] == 1 < len(arr.values)
        assert is_cayley(g) == "yes", label
    assert mixed >= 20, mixed  # 30 of the 110 with this seed


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
    graph vertex-transitive; the full VF2 count took 13 s). Every census
    circulant is Cayley, and where n is an odd pq (n = 15) the closed-form
    predictor equals lift compression. Degree at most 4 and 18 vertices are
    cost bounds, not answer bounds: with degree 6, exhaustive enumeration
    on up to 16 vertices ran past 20 minutes."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    census = _circulant_census()
    assert len(census) == 72
    odd_pq = 0
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
        assert is_cayley(g, group=group) == "yes", (n, conn)
        if n % 2 and list(factorize(n).values()) == [1, 1]:
            assert predict_kappa_circulant(n, conn) == lift_res.kappa, (n, conn)
            odd_pq += 1
    assert odd_pq == 7  # the seven circulants on 15 vertices


def test_generalized_petersen_census():
    """GP(n, r) for 3 <= n <= 16 and every 1 <= r < n/2: lift and exhaustive
    compression agree, and for n <= 10 the listed elements are |Aut| distinct
    automorphisms, |Aut| counted by VF2 (most GP(n, r) are not
    vertex-transitive, so the whole count is taken; up to n = 10 it alone
    takes about 1 s). The bounds on n are cost bounds, not answer bounds:
    all 90 graphs with n <= 20 agree."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    count = 0
    for n in range(3, 17):
        for r in range(1, (n + 1) // 2):
            g = generalized_petersen(n, r).graph
            lift_res = hamilton_compression(g, "lift")
            exh_res = hamilton_compression(g, "exhaustive", limit=50_000)
            assert lift_res.exact and exh_res.exact, (n, r)
            assert lift_res.kappa == exh_res.kappa, (n, r)
            count += 1
            if n > 10:
                continue
            h = nx.Graph(g.edges())
            group = automorphism_group(g)
            assert group.order == sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter()), (n, r)
            assert len(set(group.elements)) == group.order, (n, r)
            assert all(is_automorphism(g, a) for a in group.elements), (n, r)
    assert count == 56


def test_complement_census_has_the_same_group():
    """A graph and its complement have the same automorphisms; the
    complement of a sparse census graph (every circulant-census graph and
    GP(n, r) with n <= 16) is dense, where refinement does most of the
    work."""
    census = ([circulant(n, set(conn)).graph for n, conn in _circulant_census()]
              + [generalized_petersen(n, r).graph
                 for n in range(3, 17) for r in range(1, (n + 1) // 2)])
    for g in census:
        grp, grp_c = automorphism_group(g), automorphism_group(g.complement())
        assert (grp_c.order, grp_c.capped) == (grp.order, False), g.rows
        assert grp_c.elements == grp.elements, g.rows


# (graph, |Aut|) from the closed forms |Aut K_n| = n!,
# |Aut K_{a,b}| = a! b! (times 2 when a = b) and |Aut mK_k| = m! (k!)^m;
# uncapped orders near the cap (K_9, K_{6,6}) are left out, since listing
# their elements takes seconds and tests no refinement.
CLOSED_FORMS = (
    [(graph_complete(n), math.factorial(n)) for n in (1, 2, 3, 5, 8, 12, 20)]
    + [(graph_complete_bipartite(a, b),
        math.factorial(a) * math.factorial(b) * (2 if a == b else 1))
       for a, b in ((1, 1), (1, 5), (2, 3), (3, 3), (4, 4), (3, 7), (7, 7), (5, 9))]
    + [(graph_disjoint_complete(m, k), math.factorial(m) * math.factorial(k) ** m)
       for m, k in ((2, 1), (3, 2), (2, 4), (3, 3), (4, 4), (3, 6), (6, 2))]
)


def test_closed_form_group_orders():
    """Exact orders on complete, complete bipartite and disjoint complete
    graphs, each family with capped members; an uncapped group lists |Aut|
    distinct automorphisms."""
    assert {grp_order > DEFAULT_CAP for _, grp_order in CLOSED_FORMS} == {False, True}
    for g, grp_order in CLOSED_FORMS:
        grp = automorphism_group(g)
        assert (grp.order, grp.capped) == (grp_order, grp_order > DEFAULT_CAP), g.rows
        assert all(is_automorphism(g, a) for a in grp.generators), g.rows
        if not grp.capped:
            assert len(set(grp.elements)) == grp_order, g.rows


def _equitable(nbrs, side) -> bool:
    """Every vertex of a cell has the same number of neighbours in each
    cell."""
    col, cells = side
    profile = [sorted(col[u] for u in nbrs[v]) for v in range(len(col))]
    return all(profile[v] == profile[cell[0]] for cell in cells for v in cell)


def _coarsest_equitable(nbrs, cells) -> set[frozenset[int]]:
    """Reference for _refine, which queues only some fragments of a split
    cell: split every cell by its members' neighbour counts in every cell
    until nothing splits, as a set of cells. Each split is forced, so the
    result is the unique coarsest equitable partition below cells."""
    cells = [list(c) for c in cells]
    while True:
        for w in map(set, cells):
            parts = []
            for c in cells:
                by_count: dict[int, list[int]] = {}
                for v in c:
                    by_count.setdefault(len(w.intersection(nbrs[v])), []).append(v)
                parts += by_count.values()
            if len(parts) > len(cells):
                cells = parts
                break
        else:
            return {frozenset(c) for c in cells}


def test_refinement_is_equitable():
    """The root partition of _refine is equitable, and so is the partition
    after individualizing any one vertex; both have the cells of a reference
    refinement that splits by every cell (`_coarsest_equitable`), and
    replaying either refinement's trace on a copy of its starting partition
    gives the same partition. A refinement that stops short of equitable
    leaves the search complete, only slower, so no answer test catches it.
    On a regular graph the root partition is one cell, which is why the
    individualized partitions are checked too."""
    rng = random.Random(13)
    graphs = [g for g, _ in CLOSED_FORMS if g.n <= 12] + [graph_star(6)]
    graphs += [generalized_petersen(n, r).graph
               for n in range(3, 11) for r in range(1, (n + 1) // 2)]
    for _ in range(30):
        n = rng.randrange(2, 12)
        graphs.append(Graph.build(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                      if rng.random() < 0.4]))
    for g in graphs + [g.complement() for g in graphs]:
        n = g.n
        nbrs = tuple(tuple(bits(row)) for row in g.rows)
        root = ([0] * n, [list(range(n))])
        fresh = ([0] * n, [list(range(n))])
        assert _replay(nbrs, fresh, _refine(nbrs, root, [0])), g.rows
        assert _equitable(nbrs, root) and fresh == root, g.rows
        assert set(map(frozenset, root[1])) == _coarsest_equitable(nbrs, [range(n)]), g.rows
        for v in range(n):
            a, b = (list(root[0]), list(root[1])), (list(root[0]), list(root[1]))
            _split(a, a[0][v], {v: 1})  # individualize v
            _split(b, b[0][v], {v: 1})
            start = [list(c) for c in a[1]]
            assert _replay(nbrs, b, _refine(nbrs, a, [a[0][v]])), (g.rows, v)
            assert _equitable(nbrs, a) and a == b, (g.rows, v)
            assert set(map(frozenset, a[1])) == _coarsest_equitable(nbrs, start), (g.rows, v)
