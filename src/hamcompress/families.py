"""Constructors for the metacirculant graph families.

Every constructor returns a FamilyInstance carrying the graph, the grid
labelling (i, j) -> i*n + j, the rotation rho: v_i^j -> v_i^{j+1}, the
twisted rotation sigma: v_i^j -> v_{i+1}^{r*j} when one exists, and the
constructor parameters. rho and sigma are verified to be automorphisms at
construction time, along with the conjugation law sigma rho sigma^-1 = rho^r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .autgroup import is_automorphism
from .graph import Graph
from .numth import is_prime, ord_mod, primitive_root
from .perm import Perm, compose, inverse, order, power


@dataclass(frozen=True)
class GridLabeling:
    """Bijection (i, j) -> i*n + j between Z_m x Z_n and vertex ids."""

    m: int
    n: int

    def vid(self, i: int, j: int) -> int:
        return (i % self.m) * self.n + (j % self.n)


def grid_rho(m: int, n: int) -> Perm:
    """v_i^j -> v_i^{j+1}."""
    return tuple(i * n + (j + 1) % n for i in range(m) for j in range(n))


def grid_sigma(m: int, n: int, r: int) -> Perm:
    """v_i^j -> v_{i+1}^{r*j}."""
    return tuple(((i + 1) % m) * n + (r * j) % n for i in range(m) for j in range(n))


@dataclass(frozen=True)
class FamilyInstance:
    graph: Graph
    labeling: GridLabeling
    rho: Perm
    sigma: Perm | None
    params: dict = field(default_factory=dict)


def _finalize(
    graph: Graph,
    labeling: GridLabeling,
    rho: Perm,
    sigma: Perm | None,
    params: dict,
    conj_r: int | None = None,
) -> FamilyInstance:
    if labeling.m * labeling.n != graph.n:
        raise ValueError("labeling does not cover the vertex set")
    if not is_automorphism(graph, rho):
        raise ValueError("rotation is not an automorphism of the constructed graph")
    if sigma is not None:
        if not is_automorphism(graph, sigma):
            raise ValueError("twisted rotation is not an automorphism")
        if conj_r is not None:
            lhs = compose(sigma, compose(rho, inverse(sigma)))
            if lhs != power(rho, conj_r):
                raise ValueError("conjugation law sigma rho sigma^-1 = rho^r violated")
    return FamilyInstance(graph, labeling, rho, sigma, params)


def _find_grid_sigma(graph: Graph, m: int, n: int) -> tuple[Perm | None, int | None]:
    """Least multiplier r making v_i^j -> v_{i+1}^{rj} an automorphism."""
    for r in range(1, n):
        if math.gcd(r, n) != 1:
            continue
        cand = grid_sigma(m, n, r)
        if is_automorphism(graph, cand):
            return cand, r
    return None, None


def x_mnr(m: int, n: int, r: int) -> FamilyInstance:
    """Metacirculant with row steps r^i and column matchings:
    v_i^j ~ v_i^{j+r^i} and v_i^j ~ v_{i+1}^j.

    Requires r of order m mod n. Cubic for m = 2 (two rings plus a matching,
    i.e. a generalized Petersen graph), 4-valent for m >= 3.
    """
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    if math.gcd(r, n) != 1:
        raise ValueError(f"{r} is not a unit mod {n}")
    if ord_mod(r, n) != m:
        raise ValueError(f"{r} has order {ord_mod(r, n)} mod {n}, expected {m}")
    lab = GridLabeling(m, n)
    edges = []
    for i in range(m):
        step = pow(r, i, n)
        for j in range(n):
            edges.append((lab.vid(i, j), lab.vid(i, j + step)))
            edges.append((lab.vid(i, j), lab.vid(i + 1, j)))
    graph = Graph.build(m * n, edges)
    params = {"family": "xmnr", "m": m, "n": n, "r": r}
    if math.gcd(r - 1, n) != 1:
        # only the m >= 3 compression bound needs r-1 invertible
        params["warnings"] = ["r-1 is not a unit mod n"]
    return _finalize(graph, lab, grid_rho(m, n), grid_sigma(m, n, r), params, conj_r=r)


def _yz_instance(q: int, p: int, t: int, family: str, sub_exp: int) -> FamilyInstance:
    if not (is_prime(q) and is_prime(p)):
        raise ValueError("q and p must be prime")
    if t < 2:
        raise ValueError("need t >= 2")
    if (p - 1) % q**t != 0:
        raise ValueError(f"q^t = {q**t} does not divide p - 1 = {p - 1}")
    n_cof = (p - 1) // q**t
    if math.gcd(n_cof, q) != 1:
        raise ValueError(f"cofactor {n_cof} of p - 1 shares a factor with q")
    lam = primitive_root(p)
    r = pow(lam, n_cof, p)
    base = pow(r, sub_exp, p)
    sub = set()
    x = 1
    while True:
        x = x * base % p
        sub.add(x)
        if x == 1:
            break
    steps = sorted(sub | {(-h) % p for h in sub})
    lab = GridLabeling(q, p)
    edges = []
    for i in range(q):
        ri = pow(r, i, p)
        for j in range(p):
            edges.append((lab.vid(i, j), lab.vid(i + 1, j)))
            for s in steps:
                edges.append((lab.vid(i, j), lab.vid(i, j + ri * s)))
    graph = Graph.build(q * p, edges)
    params = {
        "family": family,
        "q": q,
        "p": p,
        "t": t,
        "lambda": lam,
        "N": n_cof,
        "r": r,
        "steps": steps,
    }
    sigma = grid_sigma(q, p, r)
    if not is_automorphism(graph, sigma):
        # happens for the sparser variant once t >= 3; recorded, probed by the CLI
        params["sigma_is_automorphism"] = False
        sigma = None
    else:
        params["sigma_is_automorphism"] = True
        params["sigma_order"] = order(sigma)
    return _finalize(graph, lab, grid_rho(q, p), sigma, params, conj_r=r)


def y_qp(q: int, p: int, t: int = 2) -> FamilyInstance:
    """Non-Cayley (q,p)-metacirculant with inner steps r^i * (<r^q> u -<r^q>)."""
    return _yz_instance(q, p, t, "yqp", q)


def z_qp(q: int, p: int, t: int = 2) -> FamilyInstance:
    """Lower-valency variant with inner steps r^i * (<r^{q^{t-1}}> u -<r^{q^{t-1}}>);
    coincides with y_qp when t = 2."""
    return _yz_instance(q, p, t, "zqp", q ** (t - 1))


def circulant(n: int, conn: set[int]) -> FamilyInstance:
    """Cayley graph of Z_n with symmetric connection set conn."""
    if n < 2:
        raise ValueError("need n >= 2")
    conn = {s % n for s in conn}
    if 0 in conn:
        raise ValueError("connection set contains 0")
    if {(-s) % n for s in conn} != conn:
        raise ValueError("connection set is not symmetric")
    edges = [(v, (v + s) % n) for v in range(n) for s in conn]
    graph = Graph.build(n, edges)
    lab = GridLabeling(1, n)
    params = {"family": "circulant", "n": n, "connection": sorted(conn)}
    return _finalize(graph, lab, grid_rho(1, n), None, params)


def generalized_petersen(n: int, r: int) -> FamilyInstance:
    """GP(n, r): outer n-cycle, inner step-r cycle(s), spokes."""
    if n < 3:
        raise ValueError("need n >= 3")
    if r % n == 0:
        raise ValueError("inner step must be nonzero mod n")
    if not 1 <= r < n / 2:
        raise ValueError(f"inner step must satisfy 1 <= r < n/2, got {r}")
    lab = GridLabeling(2, n)
    edges = []
    for j in range(n):
        edges.append((lab.vid(0, j), lab.vid(0, j + 1)))
        edges.append((lab.vid(1, j), lab.vid(1, j + r)))
        edges.append((lab.vid(0, j), lab.vid(1, j)))
    graph = Graph.build(2 * n, edges)
    params = {"family": "gp", "n": n, "r": r}
    sigma, mult = _find_grid_sigma(graph, 2, n)
    if mult is not None:
        params["sigma_multiplier"] = mult
    return _finalize(graph, lab, grid_rho(2, n), sigma, params, conj_r=mult)


def petersen() -> FamilyInstance:
    return generalized_petersen(5, 2)


def metacirculant_triple_2p(p: int, s_outer, s_inner, spokes) -> FamilyInstance:
    """Graph on 2p vertices from a triple [S, S', T]: v_0^j ~ v_0^{j+s} (s in S),
    v_1^j ~ v_1^{j+s'} (s' in S'), v_0^j ~ v_1^{j+t} (t in T)."""
    if not is_prime(p) or p < 3:
        raise ValueError("p must be an odd prime")
    s0 = {s % p for s in s_outer}
    s1 = {s % p for s in s_inner}
    t_set = {t % p for t in spokes}
    for name, s in (("S", s0), ("S'", s1)):
        if 0 in s:
            raise ValueError(f"{name} contains 0")
        if {(-x) % p for x in s} != s:
            raise ValueError(f"{name} is not symmetric")
    if not t_set:
        raise ValueError("spoke set T is empty")
    lab = GridLabeling(2, p)
    edges = []
    for j in range(p):
        for s in s0:
            edges.append((lab.vid(0, j), lab.vid(0, j + s)))
        for s in s1:
            edges.append((lab.vid(1, j), lab.vid(1, j + s)))
        for t in t_set:
            edges.append((lab.vid(0, j), lab.vid(1, j + t)))
    graph = Graph.build(2 * p, edges)
    params = {
        "family": "triple2p",
        "q": 2,
        "p": p,
        "S": sorted(s0),
        "S_inner": sorted(s1),
        "T": sorted(t_set),
    }
    sigma, mult = _find_grid_sigma(graph, 2, p)
    if mult is not None:
        params["sigma_multiplier"] = mult
    return _finalize(graph, lab, grid_rho(2, p), sigma, params, conj_r=mult)


# --- Cayley graphs of the two non-abelian groups of order p^3 ---------------

P3_DEFAULT_CONNECTION = ("a", "A", "b", "B")


@dataclass(frozen=True)
class P3Group:
    """One of the non-abelian groups of order p^3, with a canonical
    mixed-radix encoding of its elements as vertex ids.

    heisenberg: triples over Z_p with (x1,y1,z1)(x2,y2,z2) =
    (x1+x2, y1+y2, z1+z2+x1*y2); exponent p. modular: Z_{p^2} x| Z_p with
    b a b^-1 = a^{1+p}. In both encodings left multiplication by a central
    element of order p acts as v_i^j -> v_i^{j+1} on the grid (m = p^2, n = p).
    """

    p: int
    variant: str
    elements: tuple
    index: dict
    multiply: Callable
    invert: Callable

    def word(self, w: str):
        """Evaluate a word over a, b; uppercase letters are inverses."""
        gen_a, gen_b = self.gen_a(), self.gen_b()
        table = {"a": gen_a, "A": self.invert(gen_a), "b": gen_b, "B": self.invert(gen_b)}
        out = self.identity()
        for ch in w:
            if ch not in table:
                raise ValueError(f"unknown letter {ch!r} in word {w!r}")
            out = self.multiply(out, table[ch])
        return out

    def identity(self):
        return (0, 0, 0) if self.variant == "heisenberg" else (0, 0)

    def gen_a(self):
        return (1, 0, 0) if self.variant == "heisenberg" else (1, 0)

    def gen_b(self):
        return (0, 1, 0) if self.variant == "heisenberg" else (0, 1)

    def element_order(self, g) -> int:
        e, x = 1, g
        while x != self.identity():
            x = self.multiply(x, g)
            e += 1
        return e

    def is_central(self, g) -> bool:
        return all(self.multiply(g, h) == self.multiply(h, g) for h in self.elements)


def p3_group(p: int, variant: str) -> P3Group:
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if variant == "heisenberg":

        def mul(g, h):
            return ((g[0] + h[0]) % p, (g[1] + h[1]) % p, (g[2] + h[2] + g[0] * h[1]) % p)

        def inv(g):
            return ((-g[0]) % p, (-g[1]) % p, (g[0] * g[1] - g[2]) % p)

        elements = tuple((x, y, z) for x in range(p) for y in range(p) for z in range(p))

        def encode(g):
            return (g[0] * p + g[1]) * p + g[2]

    elif variant == "modular":
        p2 = p * p

        def mul(g, h):
            return ((g[0] + h[0] * pow(1 + p, g[1], p2)) % p2, (g[1] + h[1]) % p)

        def inv(g):
            return ((-g[0] * pow(1 + p, (-g[1]) % p, p2)) % p2, (-g[1]) % p)

        elements = tuple((x, y) for x in range(p2) for y in range(p))

        def encode(g):
            # orbit of the central a^p is x -> x + p; split x into (x mod p, x div p)
            return ((g[0] % p) * p + g[1]) * p + g[0] // p

    else:
        raise ValueError(f"unknown variant {variant!r}")

    by_code = sorted(elements, key=encode)
    index = {g: i for i, g in enumerate(by_code)}
    grp = P3Group(p, variant, tuple(by_code), index, mul, inv)
    ident = grp.identity()
    for g in (grp.gen_a(), grp.gen_b()):
        if mul(g, inv(g)) != ident:
            raise AssertionError("inverse law failed in p3 group construction")
    return grp


def cayley_p3(
    p: int, variant: str, connection: tuple[str, ...] = P3_DEFAULT_CONNECTION
) -> FamilyInstance:
    """Cayley graph of a non-abelian group of order p^3 on word generators.

    connection is a tuple of words over a, b (uppercase = inverse), e.g.
    ("a", "A", "b", "B"). Must be inverse-closed and avoid the identity.
    """
    grp = p3_group(p, variant)
    conn = []
    seen = set()
    for w in connection:
        g = grp.word(w)
        if g not in seen:
            seen.add(g)
            conn.append(g)
    ident = grp.identity()
    if ident in seen:
        raise ValueError("connection set contains the identity")
    if any(grp.invert(g) not in seen for g in conn):
        raise ValueError("connection set is not inverse-closed")
    n = len(grp.elements)
    edges = []
    for gi, g in enumerate(grp.elements):
        for s in conn:
            edges.append((gi, grp.index[grp.multiply(g, s)]))
    graph = Graph.build(n, edges)
    lab = GridLabeling(p * p, p)
    rho = grid_rho(p * p, p)
    # rho must coincide with left multiplication by the canonical central
    # order-p element ((0,0,1) resp. a^p); ties the encoding to the quotient.
    central = (0, 0, 1) if variant == "heisenberg" else (p, 0)
    left = tuple(grp.index[grp.multiply(central, g)] for g in grp.elements)
    if left != rho:
        raise AssertionError("central rotation does not match the grid labelling")
    if not grp.is_central(central) or grp.element_order(central) != p:
        raise AssertionError("canonical element is not central of order p")
    params = {
        "family": "cayleyp3",
        "p": p,
        "variant": variant,
        "connection": list(connection),
        "encoding": "mixed-radix, orbits of the central rotation are blocks of p",
    }
    return _finalize(graph, lab, rho, None, params)


def metacirculant_orbit(m: int, n: int, r: int, neighbors0) -> FamilyInstance:
    """Metacirculant from the neighbour set of v_0^0: the edge set is the
    orbit of {v_0^0 u : u in N0} under the group generated by rho and sigma.

    neighbors0 is an iterable of (i, j) coordinate pairs. r need not have
    order m; any unit works, and the realised order is recorded in params.
    """
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    if math.gcd(r, n) != 1:
        raise ValueError(f"{r} is not a unit mod {n}")
    lab = GridLabeling(m, n)
    v0 = lab.vid(0, 0)
    base = set()
    for i, j in neighbors0:
        u = lab.vid(i, j)
        if u == v0:
            raise ValueError("neighbour set contains v_0^0 itself (loop)")
        base.add(frozenset((v0, u)))
    if not base:
        raise ValueError("empty neighbour set")
    rho = grid_rho(m, n)
    sigma = grid_sigma(m, n, r)
    edges: set[frozenset[int]] = set()
    frontier = base
    while frontier:
        edges |= frontier
        nxt = set()
        for e in frontier:
            u, v = tuple(e)
            for gperm in (rho, sigma):
                img = frozenset((gperm[u], gperm[v]))
                if len(img) == 1:
                    raise ValueError("orbit closure created a loop")
                if img not in edges:
                    nxt.add(img)
        frontier = nxt
    graph = Graph.build(m * n, (tuple(sorted(e)) for e in edges))
    params = {
        "family": "orbit",
        "m": m,
        "n": n,
        "r": r,
        "r_order": ord_mod(r, n),
        "neighbors0": sorted((i % m, j % n) for i, j in neighbors0),
    }
    return _finalize(graph, lab, rho, sigma, params, conj_r=r)
