import random

import pytest

from conftest import graph_cycle, graph_k4
from hamcompress.families import petersen, x_mnr
from hamcompress.graph import (
    Graph,
    bits,
    emit_edgelist,
    parse_edgelist,
    reach,
    remove_intra_orbit_edges,
)
from hamcompress.perm import identity


def random_graph(rng, n, p=0.4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.build(n, edges)


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.build(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.build(3, [(1, 1)])


def test_degrees_and_edges():
    g = graph_k4()
    assert g.degrees() == [3, 3, 3, 3]
    assert g.m == 6
    assert g.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert x_mnr(3, 7, 2).graph.degrees() == [4] * 21


def test_complement_involution():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 12))
        assert g.complement().complement() == g
        assert g.m + g.complement().m == g.n * (g.n - 1) // 2


def test_connectivity():
    assert petersen().graph.is_connected()
    assert graph_cycle(6).is_connected()
    g = Graph.build(4, [(0, 1), (2, 3)])
    assert not g.is_connected()
    assert Graph.build(1, []).is_connected()


def _distances(g: Graph, start: int, region: int) -> dict[int, int]:
    """Breadth-first distance from start, through region, of each vertex of
    start's component in region, by a set-based search."""
    dist, layer, d = {start: 0}, {start}, 0
    while layer:
        d += 1
        layer = {u for v in layer for u in g.nbrs[v] if region >> u & 1 and u not in dist}
        dist.update(dict.fromkeys(layer, d))
    return dist


def _random_reach_cases(seed: int):
    """(graph, start, region, targets) on 300 seeded random graphs: region a
    random vertex set holding start, targets a random subset of it."""
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randrange(1, 16)
        g = random_graph(rng, n, rng.choice((0.1, 0.2, 0.4)))
        start = rng.randrange(n)
        region = sum(1 << v for v in range(n) if rng.random() < 0.7) | 1 << start
        targets = sum(1 << v for v in bits(region) if rng.random() < 0.3)
        yield g, start, region, targets


def test_reach_with_the_region_as_targets_is_the_component():
    """With targets = region, reach is start's whole component in region, as
    it was before reach took targets."""
    for g, start, region, _ in _random_reach_cases(35):
        component = sum(1 << v for v in _distances(g, start, region))
        assert reach(g.rows, start, region, region) == component, (g.rows, start, region)


def test_reach_stops_at_the_layer_that_completes_the_targets():
    """With smaller targets, reach holds every target of start's component,
    lies inside the component, and is the ball around start up to the
    farthest target, or the whole component when some target lies outside
    it."""
    path = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
    assert reach(path.rows, 0, 0b1111, 0b0100) == 0b0111
    assert reach(path.rows, 0, 0b1111, 0) == 0b0001
    assert reach(path.rows, 0, 0b1011, 0b1000) == 0b0011
    for g, start, region, targets in _random_reach_cases(36):
        dist = _distances(g, start, region)
        component = sum(1 << v for v in dist)
        radius = max(dist.get(t, g.n) for t in bits(targets)) if targets else 0
        ball = sum(1 << v for v, d in dist.items() if d <= radius)
        got = reach(g.rows, start, region, targets)
        assert got == ball, (g.rows, start, region, targets)
        assert targets & component & ~got == 0 and got & ~component == 0


def test_remove_intra_orbit_edges_identity_and_idempotence():
    g = petersen().graph
    assert remove_intra_orbit_edges(g, identity(10)) == g
    with pytest.raises(ValueError):
        remove_intra_orbit_edges(g, identity(9))
    rho = petersen().rho
    once = remove_intra_orbit_edges(g, rho)
    assert remove_intra_orbit_edges(once, rho) == once
    assert once.m <= g.m


def test_remove_intra_orbit_x372_gives_triangles():
    inst = x_mnr(3, 7, 2)
    tilde = remove_intra_orbit_edges(inst.graph, inst.rho)
    assert not tilde.is_connected()
    assert tilde.degrees() == [2] * 21  # seven disjoint triangles
    # components are the columns {v_i^j : i} of size m = 3
    comp_sizes = _component_sizes(tilde)
    assert comp_sizes == [3] * 7


def test_remove_intra_orbit_prism_gives_matching():
    inst = x_mnr(2, 5, 4)  # the 5-prism
    tilde = remove_intra_orbit_edges(inst.graph, inst.rho)
    assert tilde.degrees() == [1] * 10
    assert tilde.m == 5


def _component_sizes(g):
    seen = set()
    sizes = []
    for v in range(g.n):
        if v in seen:
            continue
        stack, comp = [v], {v}
        while stack:
            u = stack.pop()
            for w in bits(g.rows[u]):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        sizes.append(len(comp))
    return sorted(sizes)


def test_tilde_never_adds_edges_random():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randrange(2, 12)
        g = random_graph(rng, n)
        p = list(range(n))
        rng.shuffle(p)
        tilde = remove_intra_orbit_edges(g, tuple(p))
        for u, v in tilde.edges():
            assert g.has_edge(u, v)


def test_edgelist_parse_examples():
    g = parse_edgelist("3 3\n0 1\n1 2\n0 2")
    assert g.n == 3 and g.m == 3
    assert emit_edgelist(g) == "3 3\n0 1\n0 2\n1 2\n"
    with pytest.raises(ValueError, match="line 2"):
        parse_edgelist("2 1\n0 0")
    with pytest.raises(ValueError, match="line 3"):
        parse_edgelist("3 2\n0 1\n1 0")
    with pytest.raises(ValueError, match="line 1"):
        parse_edgelist("nonsense header")
    with pytest.raises(ValueError, match="header"):
        parse_edgelist("3 5\n0 1")


def test_edgelist_roundtrip_random():
    rng = random.Random(8)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(0, 15))
        assert parse_edgelist(emit_edgelist(g)) == g
    # emission is canonical even when input lines are shuffled
    text = "4 3\n2 3\n0 3\n1 0"
    assert emit_edgelist(parse_edgelist(text)) == "4 3\n0 1\n0 3\n2 3\n"


def test_emit_is_byte_exact():
    g = graph_k4()
    text = emit_edgelist(g)
    assert text == "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    assert "\r" not in text and text.endswith("\n") and not text.endswith("\n\n")


def test_emission_golden_hashes():
    # canonical emission is byte-identical across runs and platforms
    import hashlib

    from hamcompress.families import petersen, y_qp

    golden = {
        "petersen": ("223b9bae4baa173304a95712770f74b4b0243e4f7f06382593b0da4967659e67",
                     petersen().graph),
        "x372": ("2bd20698d23c68a37d2078251a38490bcf4ffd4440aad61699a5db03604badb2",
                 x_mnr(3, 7, 2).graph),
        "y2132": ("85a874ed70cd8b6fc6579bf57a030427434680a19704adb5ee8c9eb5c19e8d45",
                  y_qp(2, 13, 2).graph),
    }
    for name, (digest, g) in golden.items():
        assert hashlib.sha256(emit_edgelist(g).encode()).hexdigest() == digest, name


def _assert_nbrs(g):
    assert g.nbrs == tuple(tuple(v for v in range(g.n) if g.has_edge(u, v)) for u in range(g.n))


def test_nbrs_are_the_ascending_neighbours_however_built():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randrange(0, 14)
        g = random_graph(rng, n)
        _assert_nbrs(g)
        _assert_nbrs(parse_edgelist(emit_edgelist(g)))
        _assert_nbrs(g.complement())
        p = list(range(n))
        rng.shuffle(p)
        _assert_nbrs(remove_intra_orbit_edges(g, tuple(p)))
        # straight from rows, as a relabelling builds it
        rows = [0] * n
        for u, row in enumerate(g.rows):
            for v in range(n):
                if row >> v & 1:
                    rows[p[u]] |= 1 << p[v]
        _assert_nbrs(Graph(n, tuple(rows), g.m))
    _assert_nbrs(x_mnr(3, 7, 2).graph)
