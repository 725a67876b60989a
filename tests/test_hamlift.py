import math

import pytest

from conftest import acts_as_rotation, cycle_edges, graph_cycle, graph_k4
from hamcompress.families import grid_rho, petersen, x_mnr, y_qp
from hamcompress.graph import Graph
from hamcompress.hamlift import (
    canonical_cycle,
    check_hamcycle,
    enumerate_hamcycles,
    find_hamcycle,
    find_symmetric_hamcycle,
    lift,
    project_cycle,
    quotient_with_voltages,
)
from hamcompress.perm import identity, is_semiregular, order, power


def test_quotient_rejects_non_semiregular():
    g = petersen().graph
    with pytest.raises(ValueError):
        quotient_with_voltages(g, identity(10))
    swap = list(identity(10))
    swap[0], swap[1] = swap[1], swap[0]
    with pytest.raises(ValueError):
        quotient_with_voltages(g, tuple(swap))


def test_quotient_x372_double_arcs():
    inst = x_mnr(3, 7, 2)
    qg = quotient_with_voltages(inst.graph, inst.sigma)
    assert qg.k == 3 and qg.num_orbits == 7
    from collections import Counter

    pair_count = Counter((a, b) for a, b, _ in qg.arcs)
    doubled = sorted(pair for pair, c in pair_count.items() if c > 1)
    # double arcs exactly at the orbit pairs (V_1, V_2) and (V_5, V_6)
    assert doubled == [(1, 2), (5, 6)]


def test_quotient_cycle_by_rotation_power():
    g = graph_cycle(6)
    a = power(grid_rho(1, 6), 2)  # rotation by two, order three
    qg = quotient_with_voltages(g, a)
    assert qg.k == 3 and qg.num_orbits == 2
    volts = qg.directed_voltages()[(0, 1)]
    assert len(volts) == 2  # parallel arcs carrying the net generator


def test_quotient_prism_by_rho():
    inst = x_mnr(2, 5, 4)
    qg = quotient_with_voltages(inst.graph, inst.rho)
    assert qg.k == 5 and qg.num_orbits == 2
    loops = sorted((a, s) for a, b, s in qg.arcs if a == b)
    assert loops == [(0, 1), (1, 1)]
    crossing = [(a, b, s) for a, b, s in qg.arcs if a != b]
    assert crossing == [(0, 1, 0)]


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
            for oa, ob, s in qg.arcs:
                rep_a = qg.orbit_lists[oa][0]
                target = qg.orbit_lists[ob][s % qg.k]
                assert g.has_edge(rep_a, target)


def test_quotient_edge_counts_cover_graph():
    # every graph edge appears in exactly one arc orbit
    for inst in (x_mnr(3, 7, 2), x_mnr(2, 4, 3), y_qp(2, 13, 2)):
        for a in _semiregular_witnesses(inst):
            g, k = inst.graph, order(a)
            qg = quotient_with_voltages(g, a)
            total = 0
            for oa, ob, s in qg.arcs:
                if oa == ob and k % 2 == 0 and s == k // 2:
                    total += k // 2
                else:
                    total += k
            assert total == g.m


def test_lift_c6_and_net_voltage_errors():
    g = graph_cycle(6)
    a = power(grid_rho(1, 6), 2)
    qg = quotient_with_voltages(g, a)
    volts = qg.directed_voltages()[(0, 1)]
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
