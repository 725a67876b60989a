"""Constructors for the metacirculant graph families.

Every family is a metacirculant in the sense of Alspach and Parsons: its
vertices are Z_m x Z_n, labelled (i, j) -> i*n + j, and it is given by
offset classes (i, d, s), each putting an edge v_i^j ~ v_{i+d}^{j+s} in
every column j. The offset classes of row i are that row's connection sets,
and one builder, _grid_graph, turns them into edges; the order-p^3 Cayley
graphs read theirs off the group law (see cayley_p3). Every constructor
returns a FamilyInstance carrying the graph, m and n, the rotation
rho: v_i^j -> v_i^{j+1}, the twisted rotation sigma:
v_i^j -> v_{i+1}^{r*j} when one exists, and the constructor parameters.
Nothing is re-checked at construction: rho is an automorphism by
_grid_graph, sigma by a test, the y/z exponent or sigma-closed classes, and
sigma rho sigma^-1 = rho^r because r is a unit; _finalize gives each reason.
That c = 1 is central of order p in p3_group, with left multiplication by c
the grid rotation, follows from its two formulas and is pinned by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Graph, is_automorphism
from .numth import is_prime, ord_mod, primitive_root
from .perm import Perm


def grid_rho(m: int, n: int) -> Perm:
    """v_i^j -> v_i^{j+1}."""
    return tuple(i * n + (j + 1) % n for i in range(m) for j in range(n))


def grid_sigma(m: int, n: int, r: int) -> Perm:
    """v_i^j -> v_{i+1}^{r*j}."""
    return tuple(((i + 1) % m) * n + (r * j) % n for i in range(m) for j in range(n))


@dataclass(frozen=True)
class FamilyInstance:
    """A family member on Z_m x Z_n: vertex (i, j) is i*n + j."""

    graph: Graph
    m: int
    n: int
    rho: Perm
    sigma: Perm | None
    params: dict


def _grid_graph(m: int, n: int, offsets) -> Graph:
    """The graph on Z_m x Z_n with v_i^j ~ v_{i+d}^{j+s} for every offset
    class (i, d, s) and every column j; coordinates are taken mod (m, n).
    Each class holds in every column, so rho maps the edge set onto itself."""
    edges = []
    for i, d, s in offsets:
        row, other = i % m * n, (i + d) % m * n
        edges.extend((row + j, other + (j + s) % n) for j in range(n))
    return Graph.build(m * n, edges)


def _finalize(graph: Graph, m: int, n: int, r: int | None, params: dict) -> FamilyInstance:
    """The instance with rho, and sigma = grid_sigma(m, n, r) unless r is None.

    rho is an automorphism by _grid_graph. Each caller passes only an r for
    which sigma is one: _finalize_least_sigma has just tested it with
    is_automorphism; _yz_instance passes r only for j = 1, when H holds r^q
    (see there); in x_mnr r has order m, so sigma sends the class (i, 0, r^i)
    to (i+1, 0, r^(i+1)) and (i, 1, 0) to (i+1, 1, 0); metacirculant_orbit
    builds its classes closed under b -> b+1 mod m*ord(r). r is a unit (ord_mod
    refuses any other, and is_automorphism fails on a non-bijection), and for a
    unit the conjugation law holds:
    sigma rho sigma^-1 (i+1, rj) = sigma (i, j+1) = (i+1, rj+r) = rho^r (i+1, rj).
    """
    sigma = None if r is None else grid_sigma(m, n, r)
    return FamilyInstance(graph, m, n, grid_rho(m, n), sigma, params)


def _finalize_least_sigma(graph: Graph, m: int, n: int, params: dict) -> FamilyInstance:
    """_finalize with sigma for the least multiplier r making
    v_i^j -> v_{i+1}^{rj} an automorphism, recorded as sigma_multiplier;
    without sigma when no unit r does."""
    mult = next((r for r in range(1, n)
                 if math.gcd(r, n) == 1 and is_automorphism(graph, grid_sigma(m, n, r))), None)
    if mult is not None:
        params["sigma_multiplier"] = mult
    return _finalize(graph, m, n, mult, params)


def _symmetric(name: str, steps, n: int) -> set[int]:
    """steps reduced mod n, checked to avoid 0 and to be closed under
    negation; the error names the set."""
    steps = {s % n for s in steps}
    if 0 in steps:
        raise ValueError(f"{name} contains 0")
    if {(-s) % n for s in steps} != steps:
        raise ValueError(f"{name} is not symmetric")
    return steps


def x_mnr(m: int, n: int, r: int) -> FamilyInstance:
    """Metacirculant with row steps r^i and column matchings:
    v_i^j ~ v_i^{j+r^i} and v_i^j ~ v_{i+1}^j.

    Requires r of order m mod n. Cubic for m = 2 (two rings plus a matching,
    i.e. a generalized Petersen graph), 4-valent for m >= 3.
    """
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    r_order = ord_mod(r, n)  # refuses an r that is not a unit mod n
    if r_order != m:
        raise ValueError(f"{r} has order {r_order} mod {n}, expected {m}")
    graph = _grid_graph(m, n, [(i, 0, pow(r, i, n)) for i in range(m)]
                        + [(i, 1, 0) for i in range(m)])
    params = {"family": "xmnr", "m": m, "n": n, "r": r}
    if math.gcd(r - 1, n) != 1:
        # only the m >= 3 compression bound needs r-1 invertible
        params["warnings"] = ["r-1 is not a unit mod n"]
    return _finalize(graph, m, n, r, params)


def _yz_instance(q: int, p: int, t: int, family: str, j: int) -> FamilyInstance:
    if not (is_prime(q) and is_prime(p)):
        raise ValueError("q and p must be prime")
    if t < 2:
        raise ValueError("need t >= 2")
    if t >= (p - 1).bit_length():  # q^t >= 2^t > p - 1, named without computing it
        raise ValueError(f"q^t = {q}^{t} does not divide p - 1 = {p - 1}")
    if (p - 1) % q**t != 0:
        raise ValueError(f"q^t = {q**t} does not divide p - 1 = {p - 1}")
    n_cof = (p - 1) // q**t
    if math.gcd(n_cof, q) != 1:
        raise ValueError(f"cofactor {n_cof} of p - 1 shares a factor with q")
    lam = primitive_root(p)
    r = pow(lam, n_cof, p)
    base = pow(r, q**j, p)
    sub = {pow(base, e, p) for e in range(p - 1)}
    steps = sorted(sub | {(-h) % p for h in sub})
    graph = _grid_graph(q, p, [(i, 0, pow(r, i, p) * s) for i in range(q) for s in steps]
                        + [(i, 1, 0) for i in range(q)])
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
    # sigma sends row q-1's steps to r^q*S; S meets <r> in H, so that is S iff j = 1; order q^t
    params["sigma_is_automorphism"] = sigma_ok = j == 1
    if sigma_ok:
        params["sigma_order"] = q**t
    return _finalize(graph, q, p, r if sigma_ok else None, params)


def y_qp(q: int, p: int, t: int = 2) -> FamilyInstance:
    """Non-Cayley (q,p)-metacirculant with inner steps r^i * (<r^q> u -<r^q>)."""
    return _yz_instance(q, p, t, "yqp", 1)


def z_qp(q: int, p: int, t: int = 2) -> FamilyInstance:
    """Lower-valency variant with inner steps r^i * (<r^{q^{t-1}}> u -<r^{q^{t-1}}>);
    coincides with y_qp when t = 2."""
    return _yz_instance(q, p, t, "zqp", t - 1)


def circulant(n: int, conn: set[int]) -> FamilyInstance:
    """Cayley graph of Z_n with symmetric connection set conn."""
    if n < 2:
        raise ValueError("need n >= 2")
    conn = _symmetric("connection set", conn, n)
    graph = _grid_graph(1, n, [(0, 0, s) for s in conn])
    params = {"family": "circulant", "n": n, "connection": sorted(conn)}
    return _finalize(graph, 1, n, None, params)


def generalized_petersen(n: int, r: int) -> FamilyInstance:
    """GP(n, r): outer n-cycle, inner step-r cycle(s), spokes."""
    if n < 3:
        raise ValueError("need n >= 3")
    if not 1 <= r < n / 2:
        raise ValueError(f"inner step must satisfy 1 <= r < n/2, got {r}")
    graph = _grid_graph(2, n, [(0, 0, 1), (1, 0, r), (0, 1, 0)])
    return _finalize_least_sigma(graph, 2, n, {"family": "gp", "n": n, "r": r})


def petersen() -> FamilyInstance:
    return generalized_petersen(5, 2)


def metacirculant_triple_2p(p: int, s_outer, s_inner, spokes) -> FamilyInstance:
    """Graph on 2p vertices from a triple [S, S', T]: v_0^j ~ v_0^{j+s} (s in S),
    v_1^j ~ v_1^{j+s'} (s' in S'), v_0^j ~ v_1^{j+t} (t in T)."""
    if not is_prime(p) or p < 3:
        raise ValueError("p must be an odd prime")
    s0 = _symmetric("S", s_outer, p)
    s1 = _symmetric("S'", s_inner, p)
    t_set = {t % p for t in spokes}
    if not t_set:
        raise ValueError("spoke set T is empty")
    graph = _grid_graph(2, p, [(0, 0, s) for s in s0] + [(1, 0, s) for s in s1]
                        + [(0, 1, t) for t in t_set])
    params = {
        "family": "triple2p",
        "q": 2,
        "p": p,
        "S": sorted(s0),
        "S_inner": sorted(s1),
        "T": sorted(t_set),
    }
    return _finalize_least_sigma(graph, 2, p, params)


# --- Cayley graphs of the two non-abelian groups of order p^3 ---------------

P3_DEFAULT_CONNECTION = ("a", "A", "b", "B")


def p3_group(p: int, variant: str):
    """Multiplication of a non-abelian group of order p^3 on the vertex ids
    0..p^3-1, where id (x*p + y)*p + z stands for

    heisenberg: the triple (x, y, z) over Z_p, with (x1,y1,z1)(x2,y2,z2) =
    (x1+x2, y1+y2, z1+z2+x1*y2); exponent p.
    modular: a^(x + p*z) b^y in Z_{p^2} x| Z_p, with b a b^-1 = a^(1+p).

    In both, the identity is 0, a is p^2, b is p, and c = 1 is central of
    order p with c*g = g + 1 inside g's block of p: left multiplication by c
    is the grid rotation v_i^j -> v_i^{j+1} (m = p^2, n = p).
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    p2 = p * p
    if variant == "heisenberg":

        def mul(g: int, h: int) -> int:
            x1, y1, z1 = g // p2, g // p % p, g % p
            x2, y2, z2 = h // p2, h // p % p, h % p
            return ((x1 + x2) % p * p + (y1 + y2) % p) * p + (z1 + z2 + x1 * y2) % p

    elif variant == "modular":

        def mul(g: int, h: int) -> int:
            x1, y1 = g // p2 + g % p * p, g // p % p
            x2, y2 = h // p2 + h % p * p, h // p % p
            x = (x1 + x2 * pow(1 + p, y1, p2)) % p2
            return (x % p * p + (y1 + y2) % p) * p + x // p

    else:
        raise ValueError(f"unknown variant {variant!r}")
    return mul


def cayley_p3(
    p: int, variant: str, connection: tuple[str, ...] = P3_DEFAULT_CONNECTION
) -> FamilyInstance:
    """Cayley graph g ~ g*s of a non-abelian group of order p^3 (see
    p3_group) on word generators.

    connection is an iterable of words over a, b (uppercase = inverse), e.g.
    ("a", "A", "b", "B"). Must be inverse-closed and avoid the identity.
    Since c = 1 is central, (g*c^j)*s = (g*s)*c^j: right multiplication by
    s sends every column of row i the same way, the offset class
    (i, row(i*p*s) - i, col(i*p*s)).
    """
    mul = p3_group(p, variant)

    def powers(g: int) -> list[int]:
        """g, g^2, ..., ending at the identity."""
        out = [g]
        while out[-1]:
            out.append(mul(out[-1], g))
        return out

    a, b = p * p, p
    letters = {"a": a, "A": powers(a)[-2], "b": b, "B": powers(b)[-2]}
    connection = tuple(connection)
    conn = []
    for w in connection:
        if not isinstance(w, str):
            raise ValueError(f"connection word {w!r} is not a string")
        g = 0
        for ch in w:
            if ch not in letters:
                raise ValueError(f"unknown letter {ch!r} in word {w!r}")
            g = mul(g, letters[ch])
        if g not in conn:
            conn.append(g)
    if 0 in conn:
        raise ValueError("connection set contains the identity")
    if any(all(mul(s, t) for t in conn) for s in conn):
        raise ValueError("connection set is not inverse-closed")
    classes = [(i, t // p - i, t % p) for i in range(p * p) for t in (mul(i * p, s) for s in conn)]
    params = {
        "family": "cayleyp3",
        "p": p,
        "variant": variant,
        "connection": list(connection),
        "encoding": "mixed-radix, orbits of the central rotation are blocks of p",
    }
    return _finalize(_grid_graph(p * p, p, classes), p * p, p, None, params)


def metacirculant_orbit(m: int, n: int, r: int, neighbors0) -> FamilyInstance:
    """Metacirculant from the neighbour set of v_0^0: the edge set is the
    orbit of {v_0^0 u : u in N0} under the group generated by rho and sigma.

    neighbors0 is an iterable of (i, j) coordinate pairs. r need not have
    order m; any unit works, and the realised order is recorded in params.
    """
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    r_order = ord_mod(r, n)  # refuses an r that is not a unit mod n
    neighbors0 = list(neighbors0)
    for i, j in neighbors0:
        if i % m == 0 and j % n == 0:
            raise ValueError("neighbour set contains v_0^0 itself (loop)")
    if not neighbors0:
        raise ValueError("empty neighbour set")
    # sigma^b maps v_0^0 ~ v_i^j to v_b^0 ~ v_{b+i}^{r^b j}, and rho moves
    # that edge along the columns, so the orbit is these offset classes
    classes = {(b % m, i % m, pow(r, b, n) * j % n)
               for b in range(m * r_order) for i, j in neighbors0}
    params = {
        "family": "orbit",
        "m": m,
        "n": n,
        "r": r,
        "r_order": r_order,
        "neighbors0": sorted((i % m, j % n) for i, j in neighbors0),
    }
    return _finalize(_grid_graph(m, n, classes), m, n, r, params)
