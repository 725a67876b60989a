"""Compression factors of Hamilton cycles and the derived graph invariants.

The compression factor of a Hamilton cycle is n divided by the least
positive position-shift along the cycle that is an automorphism of the
graph; the shifts that work form a subgroup of Z_n, so only the divisors of
n are tried. The graph invariant is the maximum over all Hamilton cycles,
computed either by a descending divisor sweep over cyclic semiregular
subgroups (lift mode) or by exhaustive cycle enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

from .autgroup import (
    automorphism_group,
    cyclic_semiregular_reps,
    is_automorphism,
    regular_subgroups,
)
from .families import FamilyInstance, _symmetric
from .graph import Graph, remove_intra_orbit_edges
from .hamlift import (
    ENUM_LIMIT,
    HamCycle,
    _hamilton_cycles,
    canonical_cycle,
    check_hamcycle,
    find_hamcycle,
    find_symmetric_hamcycle,
)
from .numth import divisors, factorize, is_prime
from .perm import Perm, semiregular_order


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
    read from the rotated cycle at v's position."""
    image = itemgetter(*sorted(range(len(cycle)), key=cycle.__getitem__))
    return lambda shift: image(cycle[shift:] + cycle[:shift])


def _certificate(cycle: HamCycle, shift: int) -> CompressionCertificate:
    """The certificate of a cycle whose least working shift is shift."""
    return CompressionCertificate(cycle, len(cycle) // shift, shift, _rotations(cycle)(shift))


def _least_shift(g: Graph, cycle: HamCycle, shifts: list[int]) -> int:
    """Least position shift whose rotation along the cycle is an automorphism
    of g. The working shifts form a subgroup of Z_n, so the least one divides
    n: shifts are the proper divisors of n, and the shift n (the identity)
    always works."""
    rotate = _rotations(cycle)
    return next((s for s in shifts if is_automorphism(g, rotate(s))), len(cycle))


def cycle_compression(g: Graph, cycle) -> CompressionCertificate:
    """Exact compression factor of one Hamilton cycle of g."""
    check_hamcycle(g, cycle)
    cycle = canonical_cycle(cycle)
    return _certificate(cycle, _least_shift(g, cycle, divisors(g.n)[:-1]))


@dataclass(frozen=True)
class KappaResult:
    kappa: int
    certificate: CompressionCertificate | None
    exact: bool
    mode: str
    note: str = ""


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
        return KappaResult(kappa, arr.certificates.get(kappa), arr.exact, mode)
    if mode != "lift":
        raise ValueError(f"unknown mode {mode!r}")
    if n < 3 or min(g.degrees()) < 2 or not g.is_connected():
        return KappaResult(0, None, True, mode)  # no Hamilton cycle: skip the group
    group = automorphism_group(g)
    note = "lower bound only on the k>=2 sweep" if group.capped else ""
    reps = cyclic_semiregular_reps(group)
    hit = next(((k, c) for k in sorted(reps, reverse=True) for a in reps[k]
                if (c := find_symmetric_hamcycle(g, a)) is not None), None)
    k, cycle = hit or (1, find_hamcycle(g))
    if cycle is None:
        return KappaResult(0, None, True, mode)  # exact even when capped
    cert = cycle_compression(g, cycle)
    if not group.capped and cert.k != k:
        raise AssertionError("descending sweep returned a non-maximal hit" if hit
                             else "sweep missed a symmetric cycle")
    return KappaResult(cert.k, cert, not group.capped, mode, note)


@dataclass(frozen=True)
class HamArray:
    """Ascending attained compression factors with one certificate per value;
    the single value 0 when the graph has no Hamilton cycle."""

    exact: bool
    values: tuple[int, ...]
    certificates: dict[int, CompressionCertificate]


def ham_array(g: Graph, limit: int = ENUM_LIMIT) -> HamArray:
    if limit < 1:
        raise ValueError("limit must be positive")
    certs: dict[int, CompressionCertificate] = {}
    n = g.n
    shifts = divisors(n)[:-1] if n else []
    cycles = _hamilton_cycles(g.rows)
    for cycle in islice(cycles, limit):
        shift = _least_shift(g, cycle, shifts)
        k = n // shift
        if k not in certs:  # the cycles ascend: the first with k is its least
            certs[k] = _certificate(cycle, shift)
    exhausted = next(cycles, None) is None
    if not certs:
        return HamArray(exhausted, (0,), {})
    return HamArray(exhausted, tuple(sorted(certs)), certs)


# --- LCF notation for cubic hamiltonian graphs ------------------------------


def check_cubic(g: Graph) -> None:
    """Raise ValueError unless g has a vertex and every vertex has degree 3."""
    if not g.n or any(d != 3 for d in g.degrees()):
        raise ValueError("LCF notation requires a cubic graph")


def lcf(g: Graph, cycle) -> tuple[int, ...]:
    """Chord offsets d_i along a Hamilton cycle of a cubic graph, normalised
    into (-n/2, n/2]; entries avoid {0, +-1} by simplicity."""
    check_cubic(g)
    check_hamcycle(g, cycle)
    cycle = tuple(cycle)
    n = g.n
    pos = {v: i for i, v in enumerate(cycle)}
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
    q for Cayley graphs, 1 for non-Cayley. Connected: 2p when both a cyclic
    and a dihedral regular subgroup of order 2p exist, else p. The deleted
    subgraph is the orbit-edge-free graph of the order-p rotation.
    """
    q, p = inst.labeling.m, inst.labeling.n
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
    tags = {s.tag for s in subs}
    if q == 2 and "cyclic" in tags and "dihedral" in tags:
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


def double_edge_positions(m: int, n: int, r: int) -> tuple[int, int]:
    """The two orbit indices j = r/(1-r) and j = 1/(r-1) mod n where the
    twisted-rotation quotient of the 2m-generator metacirculant carries a
    double arc; requires r - 1 invertible mod n."""
    if math.gcd(r - 1, n) != 1:
        raise ValueError(f"r - 1 = {r - 1} is not a unit mod {n}")
    j1 = r * pow(1 - r, -1, n) % n
    j2 = pow(r - 1, -1, n) % n
    return (j1, j2)
