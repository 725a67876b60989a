import time

import pytest

from conftest import (
    assert_plain_ham,
    conjugacy_sources,
    graph_complete,
    graph_complete_bipartite,
    graph_cycle,
    graph_disjoint_complete,
    graph_k4,
    small_corpus,
)
from hamcompress import compression
from hamcompress.autgroup import (
    _semiregular_classes,
    automorphism_group,
    cyclic_semiregular_reps,
    is_automorphism,
)
from hamcompress.compression import (
    KappaResult,
    MetaPqPrediction,
    cycle_compression,
    double_edge_positions,
    ham_array,
    hamilton_compression,
    is_petersen,
    lcf,
    lcf_compressed,
    predict_kappa_circulant,
    predict_kappa_metapq,
)
from hamcompress.families import (
    cayley_p3,
    circulant,
    generalized_petersen,
    grid_sigma,
    metacirculant_triple_2p,
    petersen,
    x_mnr,
    y_qp,
)
from hamcompress.graph import Graph
from hamcompress.hamlift import (
    canonical_cycle,
    enumerate_hamcycles,
    find_hamcycle,
    find_symmetric_hamcycle,
    quotient_with_voltages,
    symmetric_hamcycles,
)
from hamcompress.perm import compose


def test_cycle_compression_cycle_graph():
    for n in (5, 8, 12):
        g = graph_cycle(n)
        cert = cycle_compression(g, tuple(range(n)))
        assert cert.k == n and cert.shift == 1
        assert is_automorphism(g, cert.witness)


def test_cycle_compression_k4():
    g = graph_k4()
    cycles, exact = enumerate_hamcycles(g)
    assert exact
    for cycle in cycles:
        cert = cycle_compression(g, cycle)
        assert cert.k == 4  # every rotation of K4 is an automorphism
    with pytest.raises(ValueError):
        cycle_compression(g, (0, 1, 2))


def _shift_image(cycle, s):
    """The permutation moving each vertex s positions along the cycle,
    straight from its definition: img[cycle[i]] = cycle[(i + s) % n]."""
    n = len(cycle)
    img = [None] * n
    for i in range(n):
        img[cycle[i]] = cycle[(i + s) % n]
    return tuple(img)


def test_cycle_compression_matches_full_shift_scan():
    """Oracle over the corpus: scan all n shifts of each cycle, check that the
    working ones form a subgroup of Z_n, and that its generator is the
    certificate's shift."""
    seen_k = set()
    for name, g in small_corpus():
        n = g.n
        ham_certs = list(ham_array(g).certificates.values())
        for cycle in enumerate_hamcycles(g, limit=50)[0] + [c.cycle for c in ham_certs]:
            working = [s for s in range(1, n + 1)
                       if is_automorphism(g, _shift_image(cycle, s))]
            s_min = working[0]
            assert n % s_min == 0 and working == list(range(s_min, n + 1, s_min)), name
            cert = cycle_compression(g, cycle)
            assert (cert.shift, cert.k) == (s_min, n // s_min), name
            seen_k.add(cert.k)
        for cert in ham_certs:
            assert cycle_compression(g, cert.cycle) == cert, name
            assert cert.witness == _shift_image(cert.cycle, cert.shift), name
    assert {1, 2, 4, 5, 15} <= seen_k


def test_certificate_shape():
    g = x_mnr(3, 7, 2).graph
    res = hamilton_compression(g, "lift")
    cert = res.certificate
    assert cert.k * cert.shift == g.n
    n = g.n
    pos = {v: i for i, v in enumerate(cert.cycle)}
    for v in cert.cycle:
        assert cert.witness[v] == cert.cycle[(pos[v] + cert.shift) % n]


def test_kappa_examples_lift():
    assert hamilton_compression(petersen().graph).kappa == 0
    assert hamilton_compression(x_mnr(3, 7, 2).graph).kappa == 3
    assert hamilton_compression(circulant(15, {1, 14}).graph).kappa == 15
    assert hamilton_compression(x_mnr(2, 5, 4).graph).kappa == 2
    assert hamilton_compression(graph_k4()).kappa == 4


def test_kappa_complement_petersen():
    res = hamilton_compression(petersen().graph.complement(), "exhaustive")
    assert res.kappa == 5 and res.exact


def test_kappa_modes_agree_small():
    for g in (
        graph_k4(),
        graph_cycle(6),
        petersen().graph,
        x_mnr(2, 4, 3).graph,
        x_mnr(2, 5, 4).graph,
        y_qp(2, 13, 2).graph,
    ):
        lift_res = hamilton_compression(g, "lift")
        exh_res = hamilton_compression(g, "exhaustive")
        assert exh_res.exact
        assert lift_res.kappa == exh_res.kappa


def test_lift_fallback_without_symmetric_hit():
    """GP(13, 5) has one cyclic semiregular subgroup, of order 13, and no
    cycle symmetric under it; the sweep falls back to a plain Hamilton cycle
    and certifies kappa = 1."""
    g = y_qp(2, 13, 2).graph
    reps = cyclic_semiregular_reps(automorphism_group(g))
    assert list(reps) == [13]
    assert [find_symmetric_hamcycle(g, a) for a in reps[13]] == [None]
    assert hamilton_compression(g) == KappaResult(
        1, cycle_compression(g, find_hamcycle(g)), True)


def test_kappa_fewer_than_three_vertices_is_zero():
    k2 = Graph.build(2, [(0, 1)])
    for g in (Graph.build(0, []), Graph.build(1, []), Graph.build(2, []), k2):
        for mode in ("lift", "exhaustive"):
            res = hamilton_compression(g, mode)
            assert (res.kappa, res.certificate, res.exact) == (0, None, True), (g.n, mode)


def test_exhaustive_kappa_long_cycle():
    assert hamilton_compression(graph_cycle(1100), "exhaustive").kappa == 1100


def test_kappa_capped_is_flagged():
    """K7,7 and K10 have groups above the default cap: the sweep's hit is a
    lower bound only."""
    for g in (graph_complete_bipartite(7, 7), graph_complete(10)):
        assert automorphism_group(g).capped
        res = hamilton_compression(g, "lift")
        assert not res.exact


def test_kappa_capped_without_hamilton_cycle_is_exact():
    """4K4 and 3K5 are capped but disconnected: no Hamilton cycle exists, so
    kappa = 0 is exact."""
    for g in (graph_disjoint_complete(4, 4), graph_disjoint_complete(3, 5)):
        assert automorphism_group(g).capped
        res = hamilton_compression(g, "lift")
        assert (res.kappa, res.certificate, res.exact) == (0, None, True)


def test_lift_skips_the_group_without_a_hamilton_cycle(monkeypatch):
    """A disconnected graph, or one with a vertex of degree below 2, has no
    Hamilton cycle: lift mode returns the exact 0 without building the
    automorphism group. 5K3 has 933 120 automorphisms, and listing them took
    about 10 s."""
    start = time.perf_counter()
    res = hamilton_compression(graph_disjoint_complete(5, 3), "lift")
    assert time.perf_counter() - start < 1
    assert (res.kappa, res.certificate, res.exact) == (0, None, True)

    def no_group(g):
        raise AssertionError("automorphism group built")

    pendant = Graph.build(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])
    path = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
    graphs = (graph_disjoint_complete(2, 3), pendant, path, Graph.build(3, []))
    expected = [hamilton_compression(g, "exhaustive") for g in graphs]
    monkeypatch.setattr(compression, "automorphism_group", no_group)
    for g, exh in zip(graphs, expected):
        res = hamilton_compression(g, "lift")
        assert (res.kappa, res.certificate, res.exact) == (exh.kappa, None, True) == (0, None, True)


def test_ham_array_values():
    assert ham_array(petersen().graph).values == (0,)
    comp = ham_array(petersen().graph.complement())
    assert comp.exact and comp.values == (1, 5)
    k4 = ham_array(graph_k4())
    assert k4.values == (4,)
    assert ham_array(graph_cycle(15)).values == (15,)


def test_ham_array_certificates_replay():
    arr = ham_array(petersen().graph.complement())
    g = petersen().graph.complement()
    for k, cert in arr.certificates.items():
        assert cycle_compression(g, cert.cycle).k == k == cert.k


def _graph_from_lcf(word) -> Graph:
    """Oracle: the graph an offset word defines, vertex i at position i of
    the defining cycle, with a chord from i to i + word[i]."""
    n = len(word)
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + d) % n) for i, d in enumerate(word)]
    return Graph.build(n, edges)


def test_lcf_cube():
    cube = x_mnr(2, 4, 3).graph
    cycle = find_hamcycle(cube)
    word = lcf(cube, cycle)
    assert len(word) == 8
    assert all(d in (3, -3, 4) for d in word)
    rebuilt = _graph_from_lcf(word)
    relabel = {v: i for i, v in enumerate(cycle)}
    for u, v in cube.edges():
        assert rebuilt.has_edge(relabel[u], relabel[v])
    assert rebuilt.m == cube.m


def test_lcf_roundtrip_many():
    for g in (
        x_mnr(2, 4, 3).graph,
        generalized_petersen(8, 3).graph,
        y_qp(2, 13, 2).graph,
        x_mnr(2, 7, 6).graph,
    ):
        cycle = find_hamcycle(g)
        word = lcf(g, cycle)
        rebuilt = _graph_from_lcf(word)
        relabel = {v: i for i, v in enumerate(cycle)}
        assert {frozenset((relabel[u], relabel[v])) for u, v in g.edges()} == {
            frozenset(e) for e in rebuilt.edges()
        }


def test_lcf_compressed_periodicity():
    g = generalized_petersen(8, 3).graph  # kappa 8, block length 2
    res = hamilton_compression(g, "lift")
    block, repeat = lcf_compressed(g, res.certificate)
    assert repeat == res.kappa
    assert len(block) * repeat == g.n
    word = lcf(g, res.certificate.cycle)
    assert word == block * repeat


def test_lcf_reads_an_iterator_once():
    """lcf uses the tuple check_hamcycle made: a cycle given as an iterator
    answers as the same cycle given as a tuple."""
    g = generalized_petersen(8, 3).graph
    cycle = find_hamcycle(g)
    assert lcf(g, iter(cycle)) == lcf(g, cycle)


def test_cycle_compression_reads_an_iterator_once():
    g = generalized_petersen(8, 3).graph
    cycle = find_hamcycle(g)
    assert cycle_compression(g, iter(cycle)) == cycle_compression(g, cycle)


def test_lcf_k4_is_cubic_edge_case():
    # K4 is cubic; every chord points at the antipode
    assert lcf(graph_k4(), (0, 1, 2, 3)) == (2, 2, 2, 2)


def test_lcf_rejects_non_cubic():
    with pytest.raises(ValueError):
        lcf(graph_cycle(5), (0, 1, 2, 3, 4))


def test_is_petersen():
    assert is_petersen(petersen().graph)
    assert is_petersen(y_qp(2, 5, 2).graph)
    assert not is_petersen(generalized_petersen(5, 1).graph)
    assert not is_petersen(graph_k4())
    pet = petersen().graph
    relabel = (3, 7, 0, 9, 1, 5, 8, 2, 6, 4)
    assert is_petersen(Graph.build(10, [(relabel[u], relabel[v]) for u, v in pet.edges()]))


def test_predict_metapq_cases():
    assert predict_kappa_metapq(petersen()).kappa == 0
    assert predict_kappa_metapq(x_mnr(3, 7, 2)).kappa == 3
    assert predict_kappa_metapq(generalized_petersen(5, 1)).kappa == 2
    assert predict_kappa_metapq(generalized_petersen(13, 5)).kappa == 1
    sym = metacirculant_triple_2p(5, {1, 4}, {1, 4}, {0, 1, 4})
    assert predict_kappa_metapq(sym).kappa == 10
    complement = metacirculant_triple_2p(5, {2, 3}, {1, 4}, {1, 2, 3, 4})
    assert complement.graph == petersen().graph.complement()
    assert predict_kappa_metapq(complement).kappa == 5
    # every spoke and both connection sets full: K10, whose group is capped
    k10 = metacirculant_triple_2p(5, {1, 2, 3, 4}, {1, 2, 3, 4}, {0, 1, 2, 3, 4})
    assert k10.graph == graph_complete(10)
    assert predict_kappa_metapq(k10) == MetaPqPrediction(None, "unknown")


def test_predict_metapq_rejects_bad_instance():
    with pytest.raises(ValueError):
        predict_kappa_metapq(cayley_p3(3, "heisenberg"))  # q = 9 not prime
    with pytest.raises(ValueError):
        predict_kappa_metapq(circulant(15, {1, 14}))  # m = 1


def test_predict_circulant():
    assert predict_kappa_circulant(15, {1, 14}) == 15
    assert predict_kappa_circulant(15, {3, 12, 5, 10}) == 1
    with pytest.raises(ValueError, match="even"):
        predict_kappa_circulant(10, {2, 8, 5})  # the rule is for odd pq: kappa is 2
    with pytest.raises(ValueError):
        predict_kappa_circulant(12, {1, 11})  # not squarefree pq
    with pytest.raises(ValueError):
        predict_kappa_circulant(15, {3, 12})  # disconnected
    with pytest.raises(ValueError, match="^connection set is not symmetric$"):
        predict_kappa_circulant(15, {1, 2})
    with pytest.raises(ValueError, match="^connection set contains 0$"):
        predict_kappa_circulant(15, {1, 14, 15})


def test_double_edge_positions():
    assert sorted(double_edge_positions(7, 2)) == [1, 5]
    assert sorted(double_edge_positions(5, 2)) == [1, 3]
    with pytest.raises(ValueError):
        double_edge_positions(8, 3)  # r-1 even


def test_double_edge_positions_match_quotient():
    for m, n, r in ((3, 7, 2), (4, 5, 2), (3, 13, 3), (6, 7, 3)):
        inst = x_mnr(m, n, r)
        qg = quotient_with_voltages(inst.graph, grid_sigma(m, n, r))
        doubled = sorted((a, b) for (a, b), vs in qg.voltages.items() if a < b and len(vs) > 1)
        # no loop carries two voltage classes {s, -s}
        assert all(len({min(s, qg.k - s) for s in vs}) == 1
                   for (a, b), vs in qg.voltages.items() if a == b)
        expected = sorted(
            tuple(sorted((j, (j + 1) % n))) for j in double_edge_positions(n, r)
        )
        assert doubled == expected
        j1, j2 = double_edge_positions(n, r)
        assert j1 != j2  # distinct positions on these instances


def test_ham_array_builds_no_group_without_a_cycle_of_factor_one(monkeypatch):
    """Every Hamilton cycle of K_n has factor n and Petersen has none, so
    the plain search runs to its end and the group is never built. K10's
    group would be capped; cut by a small limit, the array is the plain
    one."""
    def refuse(g):
        raise AssertionError("automorphism_group called")

    monkeypatch.setattr(compression, "automorphism_group", refuse)
    k7 = ham_array(graph_complete(7))
    assert k7.values == (7,) and k7.exact
    assert_plain_ham(graph_complete(7), k7, "K7")
    assert ham_array(petersen().graph) == compression.HamArray(True, (0,), {})
    k10 = ham_array(graph_complete(10), limit=5)
    assert k10.values == (10,) and not k10.exact
    assert_plain_ham(graph_complete(10), k10, "K10", limit=5)


def test_ham_array_capped_group_finishes_the_plain_search(monkeypatch):
    """K12 plus a vertex joined to 0 and 1: |Aut| = 2 * 10! is capped, and
    the first cycle has factor 1. The reps of a capped group can miss
    subgroups, so the array is the plain search's, to the limit."""
    g = Graph.build(13, [(u, v) for u in range(12) for v in range(u + 1, 12)]
                    + [(0, 12), (1, 12)])
    groups = []
    monkeypatch.setattr(compression, "automorphism_group",
                        lambda g: groups.append(automorphism_group(g)) or groups[-1])
    arr = ham_array(g, limit=50)
    assert [grp.capped for grp in groups] == [True]
    assert arr.values == (1,) and not arr.exact
    assert_plain_ham(g, arr, "K12 + v", limit=50)


def test_ham_array_limit_counts_plain_and_lifted_cycles(monkeypatch):
    """limit counts the plain cycles up to the first with factor 1 and then
    every lift, mapped ones too, and the array examines no more. On
    Petersen's complement they are 73: one plain cycle, then the 12 lifts
    of the one rep of order 5 that is searched, each followed at once by
    its images under the conjugators of the rep's five conjugates, with its
    shift. So a cut array holds some of the full values and is inexact up
    to limit 72, and exact from 73. The shift test (`_least_shift`) runs on
    the plain cycle, with the divisors of 10, and on each searched lift,
    with the divisors of 2; an image takes its source's shift untested. The
    probe for exhaustion pulls one more pair, so of the first
    min(limit + 1, 73) pairs the test runs on the plain one and on every
    sixth after it."""
    g = petersen().graph.complement()
    full = ham_array(g)
    assert full.values == (1, 5) and full.exact
    cycles, _ = enumerate_hamcycles(g)
    plain = next(i for i, c in enumerate(cycles, 1) if cycle_compression(g, c).k == 1)
    reps = cyclic_semiregular_reps(automorphism_group(g))
    lifted = sum(1 for gens in reps.values() for a in gens for _ in symmetric_hamcycles(g, a))
    assert plain + lifted == 73
    [(a, conjugators)] = _semiregular_classes(automorphism_group(g))[5].items()
    stream = list(compression._examined(g))
    assert [c for c, _ in stream[1::6]] == [canonical_cycle(c) for c in symmetric_hamcycles(g, a)]
    for i in range(1, 73, 6):
        (lift, shift), images = stream[i], stream[i + 1:i + 6]
        assert images == [(canonical_cycle(compose(x, lift)), shift) for x in conjugators]
    least_shift, tested = compression._least_shift, []
    monkeypatch.setattr(compression, "_least_shift",
                        lambda *args: tested.append(args[2]) or least_shift(*args))
    for limit in range(1, 80):
        tested.clear()
        arr = ham_array(g, limit)
        assert len(tested) == 1 + (min(limit + 1, 73) + 4) // 6, limit
        assert arr == full if limit >= 73 else not arr.exact and set(arr.values) <= {1, 5}
    assert [tuple(s) for s in tested] == [(1, 2, 5, 10)] + [(1, 2)] * 12


def test_ham_array_runs_one_symmetric_search_per_conjugacy_class(monkeypatch):
    """ham_array runs symmetric_hamcycles once per class of conjugate cyclic
    semiregular subgroups, on its least rep, as conjugating by every element
    finds them: once on Petersen's complement, whose six reps (all of order
    5) are conjugate, and ten times for the 21 reps of the circulant C12(2,
    3), whose orders 2, 4 and 6 hold four, two and two classes. The arrays
    still equal the plain oracle."""
    searched, search = [], compression.symmetric_hamcycles
    monkeypatch.setattr(compression, "symmetric_hamcycles",
                        lambda g, a: searched.append(a) or search(g, a))
    for g, reps, classes in ((petersen().graph.complement(), 6, 1),
                             (circulant(12, {2, 3, 9, 10}).graph, 21, 10)):
        searched.clear()
        assert_plain_ham(g, ham_array(g), g.n)
        sources = conjugacy_sources(automorphism_group(g))
        assert len(sources) == reps
        assert sorted(searched) == sorted(a for b, (a, _) in sources.items() if a == b)
        assert len(searched) == classes


def test_exhaustive_mode_limit_marks_inexact():
    g = petersen().graph.complement()
    res = hamilton_compression(g, "exhaustive", limit=5)
    assert not res.exact
    arr = ham_array(g, limit=5)
    assert not arr.exact
