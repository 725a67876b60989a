"""Compression factors of Hamilton cycles and the derived graph invariants.

The compression factor of a Hamilton cycle is n divided by the least
positive position-shift along the cycle that is an automorphism of the
graph; the shifts that work form a subgroup of Z_n, so only the divisors of
a shift known to work are tried: n, or n/k for a lift from a subgroup of
order k. The graph invariant is the maximum over all Hamilton cycles,
computed either by a descending divisor sweep over cyclic semiregular
subgroups (lift mode) or as the maximum of the Ham array (exhaustive mode).
The Ham array takes factor 1 from the plain search and every factor k >= 2
from the lifts of quotient Hamilton cycles, since a cycle with factor k is
symmetric under its rotation by n/k. One symmetric search runs per
conjugacy class of those subgroups: an automorphism carries the lifts of
one subgroup onto those of its conjugate, with the same factors and shifts.
A rotation along a cycle reads the cycle's inverse, its position map, and
the graph layer's `is_automorphism` tests it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice

from .autgroup import (
    _semiregular_classes,
    automorphism_group,
    cyclic_semiregular_reps,
    regular_subgroups,
)
from .families import FamilyInstance, _symmetric
from .graph import Graph, is_automorphism, remove_intra_orbit_edges
from .hamlift import (
    ENUM_LIMIT,
    HamCycle,
    _hamilton_cycles,
    canonical_cycle,
    check_hamcycle,
    find_hamcycle,
    find_symmetric_hamcycle,
    symmetric_hamcycles,
)
from .numth import divisors, factorize, is_prime
from .perm import Perm, compose, inverse, precompose, semiregular_order


@dataclass(frozen=True)
class CompressionCertificate:
    """A cycle, its compression factor k, the witnessing position shift
    n/k, and the rotation-by-shift permutation (an automorphism)."""

    cycle: HamCycle
    k: int
    shift: int
    witness: Perm


def _rotations(cycle: HamCycle):
    """Builder of the rotation-by-shift permutations of a cycle on the
    vertices 0..n-1: the image of v is the vertex shift positions after it,
    read from the rotated cycle at v's position. The cycle maps positions
    to vertices, so its inverse is the position map."""
    image = precompose(inverse(cycle))
    return lambda shift: image(cycle[shift:] + cycle[:shift])


def _certificate(cycle: HamCycle, shift: int) -> CompressionCertificate:
    """The certificate of a cycle whose least working shift is shift."""
    return CompressionCertificate(cycle, len(cycle) // shift, shift, _rotations(cycle)(shift))


def _least_shift(g: Graph, cycle: HamCycle, shifts) -> int:
    """Least position shift whose rotation along the cycle is an automorphism
    of g. shifts are the ascending divisors of a shift known to work, which
    is returned untested: the working shifts form a subgroup of Z_n, so the
    least one divides every other. The Ham array's stream calls it on each
    plain cycle and searched lift, never on an image of a lift."""
    *tried, known = shifts
    rotate = _rotations(cycle)
    return next((s for s in tried if is_automorphism(g, rotate(s))), known)


def cycle_compression(g: Graph, cycle) -> CompressionCertificate:
    """Exact compression factor of one Hamilton cycle of g."""
    cycle = canonical_cycle(check_hamcycle(g, cycle))
    return _certificate(cycle, _least_shift(g, cycle, divisors(g.n)))


@dataclass(frozen=True)
class KappaResult:
    """kappa with its certificate (None when kappa is 0). exact is False in
    lift mode when a cycle was found under a capped automorphism group, so
    kappa is only a lower bound from the k >= 2 sweep, and in exhaustive
    mode when the limit cut the Ham array short."""

    kappa: int
    certificate: CompressionCertificate | None
    exact: bool


def hamilton_compression(g: Graph, mode: str = "lift", limit: int = ENUM_LIMIT) -> KappaResult:
    """Hamilton compression of g with a certificate (0 when non-hamiltonian).

    lift mode sweeps the cyclic semiregular subgroups by descending order,
    running the symmetric search on each; the first hit is the answer, and
    with no hit a plain Hamilton cycle is, at k = 1. exhaustive mode is the
    maximum of the Ham array.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    n = g.n
    if mode == "exhaustive":
        arr = ham_array(g, limit)
        kappa = arr.values[-1]
        return KappaResult(kappa, arr.certificates.get(kappa), arr.exact)
    if mode != "lift":
        raise ValueError(f"unknown mode {mode!r}")
    if n < 3 or min(g.degrees()) < 2 or not g.is_connected():
        return KappaResult(0, None, True)  # no Hamilton cycle: skip the group
    group = automorphism_group(g)
    reps = cyclic_semiregular_reps(group)
    hit = next(((k, c) for k in sorted(reps, reverse=True) for a in reps[k]
                if (c := find_symmetric_hamcycle(g, a)) is not None), None)
    k, cycle = hit or (1, find_hamcycle(g))
    if cycle is None:
        return KappaResult(0, None, True)  # exact even when capped
    cert = cycle_compression(g, cycle)
    if not group.capped and cert.k != k:
        raise AssertionError("descending sweep returned a non-maximal hit" if hit
                             else "sweep missed a symmetric cycle")
    return KappaResult(cert.k, cert, not group.capped)


@dataclass(frozen=True)
class HamArray:
    """Ascending attained compression factors with one certificate per value;
    the single value 0 when the graph has no Hamilton cycle."""

    exact: bool
    values: tuple[int, ...]
    certificates: dict[int, CompressionCertificate]


def _examined(g: Graph):
    """The stream ham_array reads, as (canonical cycle, least shift): the
    plain search, each cycle tested over the divisors of n, up to its first
    cycle with factor 1, then the lifts of the cyclic semiregular reps, or
    the rest of the plain search when the group is capped, since its reps
    can miss subgroups. Within each order k the symmetric search runs once
    per conjugacy class, on its leader a (the leaders ascend), testing each
    lift over the divisors of n/k: its rotation by n/k positions is a power
    of a. Each lift is followed at once by its image under each of the
    class's conjugators x, with <x a x^-1> another rep's subgroup, carrying
    the lift's shift, since x keeps it; no lift is kept."""
    n = g.n
    plain = _hamilton_cycles(g.rows)
    shifts = divisors(n) if n else []
    for cycle in plain:
        yield cycle, (shift := _least_shift(g, cycle, shifts))
        if shift == n:
            break
    else:
        return  # no cycle with factor 1: the plain search has seen every cycle
    if (group := automorphism_group(g)).capped:
        yield from ((cycle, _least_shift(g, cycle, shifts)) for cycle in plain)
        return
    for k, leaders in _semiregular_classes(group).items():
        shifts = divisors(n // k)
        for a, conjugators in leaders.items():
            for cycle in map(canonical_cycle, symmetric_hamcycles(g, a)):
                yield cycle, (shift := _least_shift(g, cycle, shifts))
                yield from ((canonical_cycle(compose(x, cycle)), shift) for x in conjugators)


def ham_array(g: Graph, limit: int = ENUM_LIMIT) -> HamArray:
    """Each cycle with factor k >= 2 lifts from the quotient by its rotation
    of order k, so the array reads one stream of (cycle, least shift)
    pairs, `_examined`, and keeps the least canonical cycle per factor.
    limit counts the pairs read, a mapped lift's too; one more is pulled to
    tell whether the array is exact."""
    if limit < 1:
        raise ValueError("limit must be positive")
    least: dict[int, HamCycle] = {}
    cycles = _examined(g)
    for cycle, shift in islice(cycles, min(limit, sys.maxsize)):  # islice refuses a larger stop
        k = g.n // shift
        least[k] = min(least.get(k, cycle), cycle)
    exhausted = next(cycles, None) is None
    certs = {k: _certificate(least[k], g.n // k) for k in sorted(least)}
    return HamArray(exhausted, tuple(certs) or (0,), certs)


# --- LCF notation for cubic hamiltonian graphs ------------------------------


def check_cubic(g: Graph) -> None:
    """Raise ValueError unless g has a vertex and every vertex has degree 3."""
    if not g.n or any(d != 3 for d in g.degrees()):
        raise ValueError("LCF notation requires a cubic graph")


def lcf(g: Graph, cycle) -> tuple[int, ...]:
    """Chord offsets d_i along a Hamilton cycle of a cubic graph, normalised
    into (-n/2, n/2]; entries avoid {0, +-1} by simplicity."""
    check_cubic(g)
    cycle = check_hamcycle(g, cycle)
    n = g.n
    pos = inverse(cycle)
    out = []
    for i, v in enumerate(cycle):
        prev_v = cycle[(i - 1) % n]
        next_v = cycle[(i + 1) % n]
        third = next(w for w in g.nbrs[v] if w != prev_v and w != next_v)
        d = (pos[third] - i) % n
        if d > n // 2:
            d -= n
        out.append(d)
    return tuple(out)


def lcf_compressed(g: Graph, cert: CompressionCertificate) -> tuple[tuple[int, ...], int]:
    """First n/k offsets plus the repetition count; verifies periodicity."""
    word = lcf(g, cert.cycle)
    n = len(word)
    block = word[: n // cert.k]
    if word != block * cert.k:
        raise AssertionError("offset word is not periodic with period n/k")
    return block, cert.k


# --- closed-form predictors --------------------------------------------------


def is_petersen(g: Graph) -> bool:
    """Petersen is the unique cubic graph on 10 vertices with girth 5: no
    triangle and no two vertices with two common neighbours."""
    if g.n != 10 or any(d != 3 for d in g.degrees()):
        return False
    rows = g.rows
    for u in range(10):
        for v in range(u + 1, 10):
            common = (rows[u] & rows[v]).bit_count()
            if common > 1 or (common and rows[u] >> v & 1):
                return False
    return True


@dataclass(frozen=True)
class MetaPqPrediction:
    kappa: int | None
    case: str  # petersen / disconnected-cayley / disconnected-noncayley /
    #            connected-bicayley / connected-default / unknown


def predict_kappa_metapq(inst: FamilyInstance) -> MetaPqPrediction:
    """Predicted Hamilton compression of a (q,p)-metacirculant, q < p primes.

    Decision tree: the Petersen graph is 0; otherwise split on whether
    deleting the rotation-orbit edges disconnects the graph. Disconnected:
    q for Cayley graphs, 1 for non-Cayley. Connected: 2p when q = 2 and both
    a cyclic (holding an n-cycle) and a dihedral regular subgroup exist, else
    p. The deleted subgraph is the orbit-edge-free graph of the order-p
    rotation.
    """
    q, p = inst.m, inst.n
    if not (is_prime(q) and is_prime(p) and q < p):
        raise ValueError(f"need prime parameters q < p, got ({q}, {p})")
    g = inst.graph
    rho = inst.rho
    if semiregular_order(rho) != p:
        raise ValueError("instance rotation is not semiregular of order p")
    if is_petersen(g):
        return MetaPqPrediction(0, "petersen")
    subs = regular_subgroups(g)
    if subs is None:
        return MetaPqPrediction(None, "unknown")
    if not remove_intra_orbit_edges(g, rho).is_connected():
        if subs:
            return MetaPqPrediction(q, "disconnected-cayley")
        return MetaPqPrediction(1, "disconnected-noncayley")
    # cyclic iff it holds an n-cycle; at q = 2, n = 2p (p an odd prime): non-cyclic is dihedral
    cyclic = {any(semiregular_order(a) == g.n for a in h) for h in subs}
    if q == 2 and cyclic == {True, False}:
        return MetaPqPrediction(2 * p, "connected-bicayley")
    return MetaPqPrediction(p, "connected-default")


def predict_kappa_circulant(n: int, conn) -> int:
    """n when the connection set contains a unit of Z_n, else 1; n must be a
    product of two distinct odd primes (at n = 2p the rule fails: 10:{2,5,8}
    has kappa 2) and the circulant connected."""
    fac = factorize(n)
    if len(fac) != 2 or any(e != 1 for e in fac.values()):
        raise ValueError(f"{n} is not a product of two distinct primes")
    if n % 2 == 0:
        raise ValueError(f"{n} is even; the rule is stated for odd pq")
    conn = _symmetric("connection set", conn, n)
    if math.gcd(n, *conn) != 1:
        raise ValueError("circulant is disconnected")
    return n if any(math.gcd(s, n) == 1 for s in conn) else 1


def double_edge_positions(n: int, r: int) -> tuple[int, int]:
    """The two orbit indices j = r/(1-r) and j = 1/(r-1) mod n where the
    twisted-rotation quotient of the 2m-generator metacirculant carries a
    double arc; requires r - 1 invertible mod n."""
    if math.gcd(r - 1, n) != 1:
        raise ValueError(f"r - 1 = {r - 1} is not a unit mod {n}")
    j1 = r * pow(1 - r, -1, n) % n
    j2 = pow(r - 1, -1, n) % n
    return (j1, j2)
