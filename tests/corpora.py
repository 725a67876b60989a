"""The graph corpora of the test suite and one table of the library's answers
about them.

`CORPORA` names every corpus: the three benchmark pools, each with one
seeded relabelled copy, the thm43 claim's graphs, the capped and the large
groups, and the censuses: every graph of networkx's atlas, the random
Cayley graphs, the circulants, GP(n, r), the small corpus and the p = 5
triples. Each is a list of (label, graph, source), where source is what the
census built the graph from, for the oracles that need it: an atlas entry's
networkx graph, a circulant's (n, connection set), GP's (n, r), a p = 5
triple's family instance; None elsewhere.

`AnswerTable` holds one `Answers` per graph of each corpus, and each answer
is computed on its first read and kept. The answer digests and the census
suites read one table per session, so each answer is computed once.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import random
from functools import cache
from pathlib import Path

from hamcompress import families, verify
from hamcompress.autgroup import (
    _regular_search,
    _semiregular_classes,
    automorphism_group,
    is_cayley,
    sem_array,
)
from hamcompress.compression import ham_array, hamilton_compression
from hamcompress.graph import Graph
from hamcompress.hamlift import ENUM_LIMIT

ROOT = Path(__file__).resolve().parents[1]
RELABEL_SEED = 7
CUT_LIMITS = range(1, 12)
CENSUS_LIMIT = 50_000  # the circulant and GP censuses' enumeration limit


# --- graphs ------------------------------------------------------------------


def graph_cycle(n: int) -> Graph:
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def graph_star(n: int) -> Graph:
    return Graph.build(n, [(0, v) for v in range(1, n)])


def graph_complete(n: int) -> Graph:
    return Graph.build(n, list(itertools.combinations(range(n), 2)))


def graph_complete_bipartite(a: int, b: int) -> Graph:
    return Graph.build(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def graph_disjoint_complete(copies: int, size: int) -> Graph:
    return Graph.build(copies * size, [
        (c * size + u, c * size + v)
        for c in range(copies) for u, v in itertools.combinations(range(size), 2)])


def relabelled(pool: list[tuple[str, Graph]], seed: int) -> list[tuple[str, Graph]]:
    """Each graph of the pool under a seeded random vertex permutation."""
    rng = random.Random(seed)
    out = []
    for name, g in pool:
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append((f"r:{name}", Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])))
    return out


# --- corpora -----------------------------------------------------------------


@cache
def _pools_module():
    spec = importlib.util.spec_from_file_location("bench_pools", ROOT / "hcbench" / "pools.py")
    pools = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pools)
    return pools


def bench_pools() -> dict[str, list[tuple[str, Graph]]]:
    """The (name, graph) pool of each benchmark workload, hcbench/pools.py."""
    pools = _pools_module()
    return {w: pools.build_pool(w, families) for w in pools.WORKLOADS}


# Graphs whose automorphism groups exceed the default cap: K7,7 (2 * 7!^2),
# K10 (10!), 4K4 (4!^4 * 4!), 3K5 (5!^3 * 3!), K12 and 3K6.
def capped_graphs() -> list[tuple[str, Graph]]:
    return [("K7,7", graph_complete_bipartite(7, 7)), ("K10", graph_complete(10)),
            ("4K4", graph_disjoint_complete(4, 4)), ("3K5", graph_disjoint_complete(3, 5)),
            ("K12", graph_complete(12)), ("3K6", graph_disjoint_complete(3, 6))]


def large_graphs() -> list[tuple[str, Graph]]:
    """Uncapped groups far above the pools' orders (|Aut| 40 320, 1 152,
    31 104, 200 and 82 944)."""
    return [("K8", graph_complete(8)), ("K4,4", graph_complete_bipartite(4, 4)),
            ("4K3", graph_disjoint_complete(4, 3)),
            ("GP(50,1)", families.generalized_petersen(50, 1).graph),
            ("3K4", graph_disjoint_complete(3, 4))]


def atlas():
    """(label, graph, networkx graph) for every graph of networkx's atlas,
    all 1253 graphs on at most 7 vertices; raises ImportError without
    networkx."""
    import networkx as nx

    return [(f"G{index}", Graph.build(h.number_of_nodes(), h.edges()), h)
            for index, h in enumerate(nx.graph_atlas_g())]


def _perm(degree: int, *cycles) -> tuple[int, ...]:
    """The permutation of range(degree) with the given cycles."""
    img = list(range(degree))
    for cyc in cycles:
        for i, v in enumerate(cyc):
            img[v] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def _dihedral(m: int) -> list[tuple[int, ...]]:
    return [_perm(m, tuple(range(m))), _perm(m, *[(i, m - i) for i in range(1, (m + 1) // 2)])]


# Generators of small groups as permutations: the dihedral groups of the
# m-gon, Q8 on its eight units, A4 on four points, C3 x| C4 as a 3-cycle
# inverted by a transposition times a commuting 4-cycle, and two abelian
# groups as products of cycles on disjoint points.
SMALL_GROUPS = {
    **{f"D{m}": _dihedral(m) for m in range(3, 9)},
    "Q8": [_perm(8, (0, 1, 2, 3), (4, 5, 6, 7)), _perm(8, (0, 4, 2, 6), (1, 7, 3, 5))],
    "A4": [_perm(4, (0, 1, 2)), _perm(4, (0, 1), (2, 3))],
    "C3:C4": [_perm(7, (0, 1, 2)), _perm(7, (1, 2), (3, 4, 5, 6))],
    "C2xC6": [_perm(8, (0, 1)), _perm(8, (2, 3, 4, 5, 6, 7))],
    "C3xC4": [_perm(7, (0, 1, 2)), _perm(7, (3, 4, 5, 6))],
}


def _group_elements(gens) -> list[tuple[int, ...]]:
    """The group the permutations generate, by closure, sorted."""
    found = {tuple(range(len(gens[0])))}
    todo = list(found)
    while todo:
        x = todo.pop()
        for s in gens:
            y = tuple(s[v] for v in x)
            if y not in found:
                found.add(y)
                todo.append(y)
    return sorted(found)


def random_cayley_census() -> list[tuple[str, Graph]]:
    """(label, graph) for seeded random connected Cayley graphs of small
    groups, ten per group, labelled "<group>:<i>": the vertices are the
    group elements in a shuffled order, and x ~ xs for each s of a
    symmetric connection set of degree 2 to 4 (the left-regular
    representation acts by automorphisms)."""
    rng = random.Random(26)
    expected_orders = {"D3": 6, "D4": 8, "D5": 10, "D6": 12, "D7": 14, "D8": 16, "Q8": 8,
                       "A4": 12, "C3:C4": 12, "C2xC6": 12, "C3xC4": 12}
    out = []
    for name, gens in SMALL_GROUPS.items():
        elems = _group_elements(gens)
        assert len(elems) == expected_orders[name], name
        one = elems[0]
        inv = {x: tuple(sorted(range(len(x)), key=x.__getitem__)) for x in elems}
        made = 0
        while made < 10:
            rng.shuffle(elems)
            degree = rng.randint(2, 4)
            conn: set = set()
            for x in rng.sample([x for x in elems if x != one], len(elems) - 1):
                if len(conn | {x, inv[x]}) <= degree:
                    conn |= {x, inv[x]}
            idx = {x: i for i, x in enumerate(elems)}
            g = Graph.build(len(elems), {tuple(sorted((idx[x], idx[tuple(s[v] for v in x)])))
                                         for x in elems for s in conn})
            if not g.is_connected():
                continue
            out.append((f"{name}:{made}", g))
            made += 1
    return out


def circulant_census() -> list[tuple[int, tuple[int, ...]]]:
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


def small_corpus() -> list[tuple[str, Graph]]:
    """Graphs with at most 16 vertices used by the equivalence suites."""
    return [
        ("K4", graph_complete(4)),
        ("C5", graph_cycle(5)),
        ("C6", graph_cycle(6)),
        ("C15", graph_cycle(15)),
        ("K33", graph_complete_bipartite(3, 3)),
        ("star6", graph_star(6)),
        ("petersen", families.petersen().graph),
        ("petersen-complement", families.petersen().graph.complement()),
        ("cube", families.x_mnr(2, 4, 3).graph),
        ("prism5", families.x_mnr(2, 5, 4).graph),
        ("prism7", families.generalized_petersen(7, 1).graph),
        ("mobius-kantor", families.generalized_petersen(8, 3).graph),
        ("circ15-nonunit", families.circulant(15, {3, 12, 5, 10}).graph),
        ("circ10-nonunit", families.circulant(10, {2, 8, 5}).graph),
        ("triple5", families.metacirculant_triple_2p(5, {1, 4}, {1, 4}, {0, 1, 4}).graph),
        ("two-triangles", Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
    ]


def p5_instances() -> list[tuple[str, families.FamilyInstance]]:
    """(name, instance) for the 77 connected p = 5 triples [S, S', T] with
    a twisted rotation, over every symmetric S, S' and every spoke set T of
    size 1 to 3, as the benchmark pools build them."""
    out = _pools_module().triples_p5(families)
    assert len(out) == 77
    return out


def p5_triples() -> list[Graph]:
    return [inst.graph for _, inst in p5_instances()]


def _plain(graphs):
    return [(label, g, None) for label, g in graphs]


def _pool(workload: str):
    pool = _pools_module().build_pool(workload, families)
    return _plain(pool + relabelled(pool, RELABEL_SEED))


# Each corpus's builder and the limit of its Ham arrays and exhaustive kappa;
# the GP census is GP(n, r) for 3 <= n <= 16 and 1 <= r < n/2.
CORPORA = {
    **{w: (lambda w=w: _pool(w), ENUM_LIMIT) for w in _pools_module().WORKLOADS},
    "thm43": (lambda: _plain((name, inst.graph) for name, inst in verify._thm43_corpus()),
              ENUM_LIMIT),
    "capped": (lambda: _plain(capped_graphs()), ENUM_LIMIT),
    "large": (lambda: _plain(large_graphs()), ENUM_LIMIT),
    "atlas": (atlas, ENUM_LIMIT),
    "random-cayley": (lambda: _plain(random_cayley_census()), ENUM_LIMIT),
    "circulants": (lambda: [(f"circ{n}-" + ".".join(map(str, conn)),
                             families.circulant(n, set(conn)).graph, (n, conn))
                            for n, conn in circulant_census()], CENSUS_LIMIT),
    "gp": (lambda: [(f"gp-{n}-{r}", families.generalized_petersen(n, r).graph, (n, r))
                    for n in range(3, 17) for r in range(1, (n + 1) // 2)], CENSUS_LIMIT),
    "small": (lambda: _plain(small_corpus()), ENUM_LIMIT),
    "p5": (lambda: [(name, inst.graph, inst) for name, inst in p5_instances()], ENUM_LIMIT),
}


# --- the answer table --------------------------------------------------------


def _answer(fn, limited: bool = False):
    """A property computed on its first read and kept in the table's record
    of the graph, which every corpus entry of an equal graph shares (at the
    same limit, when the answer depends on it)."""
    def read(self):
        key = (fn.__name__, self.limit if limited else None)
        if key not in self._known:
            self._known[key] = fn(self)
        return self._known[key]
    return property(read, doc=fn.__doc__)


def _limited(fn):
    return _answer(fn, limited=True)


class Answers:
    """The library's answers about one graph of a corpus, with what the
    corpus built it from. limit is the Ham array's and exhaustive mode's.
    known holds the answers already computed for an equal graph."""

    def __init__(self, graph: Graph, source, limit: int, known: dict):
        self.graph, self.source, self.limit, self._known = graph, source, limit, known

    @_answer
    def group(self):
        return automorphism_group(self.graph)

    @_answer
    def elements(self):
        return self.group.elements

    @_answer
    def sem(self):
        return sem_array(self.graph, group=self.group)

    @_answer
    def classes(self):
        """`_semiregular_classes`; None when capped."""
        return None if self.group.capped else _semiregular_classes(self.group)

    @_answer
    def regular(self):
        """The regular subgroups, each as its sorted element tuple, in the
        order the search yields them; None when capped."""
        if self.group.capped:
            return None
        return tuple(tuple(sorted(h)) for h in _regular_search(self.group, self.graph.n))

    @_answer
    def is_cayley(self):
        return is_cayley(self.graph, group=self.group)

    @_answer
    def lift(self):
        return hamilton_compression(self.graph, "lift")

    @_limited
    def exhaustive(self):
        return hamilton_compression(self.graph, "exhaustive", self.limit)

    @_limited
    def ham(self):
        return ham_array(self.graph, self.limit)

    @_answer
    def ham_cut(self):
        return [ham_array(self.graph, limit) for limit in CUT_LIMITS]


class AnswerTable:
    """table[name] is {label: Answers} over the corpus `name`, in its order;
    each corpus is built on its first read. Equal graphs share their
    answers across corpora: the pools, thm43 and the censuses overlap."""

    def __init__(self):
        self._corpora: dict[str, dict[str, Answers]] = {}
        self._known: dict[Graph, dict] = {}

    def __getitem__(self, name: str) -> dict[str, Answers]:
        if name not in self._corpora:
            build, limit = CORPORA[name]
            self._corpora[name] = {label: Answers(g, source, limit, self._known.setdefault(g, {}))
                                   for label, g, source in build()}
        return self._corpora[name]
