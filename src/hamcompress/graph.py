"""Simple undirected graphs with bitset adjacency rows.

Rows are Python ints used as bitsets; nbrs[v] is the ascending tuple of
the neighbours of v, built once from the rows when the graph is made.
Graphs are immutable after construction. The on-disk edge-list format is
bit-exact: a header line "n m", then m lines "u v" with 0 <= u < v < n in
ascending lexicographic order, LF line endings, no comments.
"""

from __future__ import annotations

from .perm import Perm, orbits


def bits(mask: int):
    """Yield set bit positions of mask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def reach(rows, start: int, region: int, targets: int) -> int:
    """Bitset of the vertices of region that start reaches, breadth-first,
    through vertices of region, up to the first layer that completes
    targets; start must lie in region. With targets = region it is start's
    whole component; with smaller targets it holds targets & component and
    lies inside the component."""
    comp = frontier = 1 << start
    while frontier and targets & ~comp:
        nxt = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            nxt |= rows[bit.bit_length() - 1]
        frontier = nxt & region & ~comp
        comp |= frontier
    return comp


class Graph:
    __slots__ = ("n", "rows", "m", "nbrs")

    def __init__(self, n: int, rows: tuple[int, ...], m: int):
        self.n = n
        self.rows = rows
        self.m = m
        self.nbrs = tuple(tuple(bits(row)) for row in rows)

    @classmethod
    def build(cls, n: int, edges) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if rows[u] >> v & 1:
                continue  # ignore duplicates from symmetric constructions
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m += 1
        return cls(n, tuple(rows), m)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, nb in enumerate(self.nbrs) for v in nb if u < v]

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        rows = tuple((full & ~r) & ~(1 << u) for u, r in enumerate(self.rows))
        m = self.n * (self.n - 1) // 2 - self.m
        return Graph(self.n, rows, m)

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return not full or reach(self.rows, 0, full, full) == full

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def remove_intra_orbit_edges(g: Graph, a: Perm) -> Graph:
    """Drop every edge whose endpoints lie in the same orbit of a."""
    if len(a) != g.n:
        raise ValueError(f"degree mismatch: permutation on {len(a)}, graph on {g.n}")
    rows = list(g.rows)
    for orb in orbits(a):
        mask = sum(1 << v for v in orb)
        for v in orb:
            rows[v] &= ~mask
    rows = tuple(rows)
    m = sum(r.bit_count() for r in rows) // 2
    return Graph(g.n, rows, m)


def parse_edgelist(text: str) -> Graph:
    lines = text.splitlines()
    if not lines:
        raise ValueError("line 1: missing header")
    try:
        n, m = (int(tok) for tok in lines[0].split())
    except ValueError:
        raise ValueError(f"line 1: malformed header {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise ValueError("line 1: negative count in header")
    try:
        rows = [0] * n
    except (MemoryError, OverflowError):
        raise ValueError(f"line 1: vertex count {n} is too large") from None
    count = 0
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            u, v = (int(tok) for tok in line.split())
        except ValueError:
            raise ValueError(f"line {ln}: malformed edge {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {ln}: endpoint out of range")
        if u == v:
            raise ValueError(f"line {ln}: loop at vertex {u}")
        if rows[u] >> v & 1:
            raise ValueError(f"line {ln}: duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        count += 1
    if count != m:
        raise ValueError(f"header says {m} edges, found {count}")
    return Graph(n, tuple(rows), m)


def emit_edgelist(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"
