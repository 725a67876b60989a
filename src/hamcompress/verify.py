"""Named verification claims reproduced at desk scale.

CLAIMS maps each claim name to a generator that takes the claim's options,
defaults in its own signature, and yields one (params, predicted, vertices,
run) per instance, in the claim's own order. `predicted` is what a skipped
instance's record shows; run() builds the instance, computes the invariant
from scratch and returns (predicted, computed, status, note). run_claim is
the one runner: it skips instances over max_vertices, times run(), marks a
run over time_budget unknown and builds the records. An option the claim
does not take, and a negative or NaN budget, is a ValueError.

Documented edge cases (the Petersen member of the yqp family, the relaxed
even-prism hypothesis, the connected-case ambiguity for 2p-vertex graphs)
are reported with status "discrepancy-recorded" rather than pass or fail:
the harness verifies, it does not adjudicate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import families
from .autgroup import is_automorphism, sem_array
from .compression import (
    cycle_compression,
    double_edge_positions,
    hamilton_compression,
    ham_array,
    is_petersen,
    predict_kappa_circulant,
    predict_kappa_metapq,
)
from .hamlift import find_symmetric_hamcycle, quotient_with_voltages
from .numth import divisors, element_of_order, primes_in_ap
from .perm import order, power

DEFAULT_TIME_BUDGET = 300.0
DEFAULT_MAX_VERTICES = 500

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy-recorded"
UNKNOWN = "unknown"


@dataclass
class VerificationRecord:
    claim: str
    params: dict
    predicted: object
    computed: object
    status: str
    seconds: float
    note: str


@dataclass
class Budget:
    time_budget: float = DEFAULT_TIME_BUDGET
    max_vertices: int = DEFAULT_MAX_VERTICES

    def __post_init__(self):
        # written so that NaN fails too
        if not self.time_budget >= 0:
            raise ValueError("--time-budget must be a non-negative number of seconds, "
                             f"got {self.time_budget}")
        if self.max_vertices < 0:
            raise ValueError(f"--max-vertices must be non-negative, got {self.max_vertices}")


def _equals(params, predicted, vertices, compute):
    """An instance whose check is compute() == predicted."""
    def run():
        computed = compute()
        return predicted, computed, PASS if computed == predicted else FAIL, ""
    return params, predicted, vertices, run


def petersen():
    pet = families.petersen().graph
    comp = pet.complement()
    yield _equals({"graph": "petersen", "invariant": "kappa"}, 0, 10,
                  lambda: hamilton_compression(pet, "lift").kappa)
    yield _equals({"graph": "petersen", "invariant": "sem"}, [1, 5], 10,
                  lambda: list(sem_array(pet).values))
    yield _equals({"graph": "petersen", "invariant": "ham"}, [0], 10,
                  lambda: list(ham_array(pet).values))

    def kappa_comp():
        res = hamilton_compression(comp, "exhaustive")
        return 5, res.kappa, PASS if res.kappa == 5 and res.exact else FAIL, ""

    yield {"graph": "petersen-complement", "invariant": "kappa"}, 5, 10, kappa_comp

    def arrays_comp():
        ham = ham_array(comp)
        sem = sem_array(comp)
        agree = ham.exact and sem.exact and ham.values == sem.values == (1, 5)
        return ({"ham": [1, 5], "sem": [1, 5]}, {"ham": list(ham.values), "sem": list(sem.values)},
                PASS if agree else FAIL, "")

    yield ({"graph": "petersen-complement", "invariant": "ham=sem"},
           {"ham": [1, 5], "sem": [1, 5]}, 10, arrays_comp)


def thm22(k=None, p_max=50):
    """Prescribed compression: the 2m-generator family on k*p vertices attains
    exactly k for every prime p = 1 (mod k), k in 2..6 unless k is given."""
    for m in (2, 3, 4, 5, 6) if k is None else (k,):
        for p in primes_in_ap(1, m, p_max):
            params = {"k": m, "p": p}

            def compute(m=m, p=p, params=params):
                params["r"] = r = element_of_order(m, p)
                return hamilton_compression(families.x_mnr(m, p, r).graph, "lift").kappa

            yield _equals(params, m, m * p, compute)


def prop21():
    """Lower bounds from the twisted quotient, plus the double-arc positions."""
    def bound(m, n, r, lower, note=""):
        def run():
            kappa = hamilton_compression(families.x_mnr(m, n, r).graph, "lift").kappa
            return {"lower_bound": lower}, kappa, PASS if kappa >= lower else FAIL, note
        return run

    for n in (5, 7, 9, 11):
        yield {"case": "odd-prism", "n": n}, {"lower_bound": 2}, 2 * n, bound(2, n, n - 1, 2)
    for n in (4, 6, 8):
        yield ({"case": "even-prism", "n": n}, {"lower_bound": n // 2}, 2 * n,
               bound(2, n, n - 1, n // 2, "hypothesis relaxed: r-1 not a unit for even n"))
    for m, n, r in ((3, 7, 2), (3, 13, 3), (4, 5, 2), (4, 13, 5), (6, 7, 3)):
        def run(m=m, n=n, r=r):
            inst = families.x_mnr(m, n, r)
            kappa = hamilton_compression(inst.graph, "lift").kappa
            lower = {"lower_bound": m}
            if kappa < m:
                return lower, kappa, FAIL, ""
            # cross-check the double-arc positions against the quotient
            qg = quotient_with_voltages(inst.graph, inst.sigma)
            doubled = sorted((a, b) for (a, b), vs in qg.voltages.items()
                             if a < b and len(vs) > 1)
            expected = sorted(
                tuple(sorted((j, (j + 1) % n))) for j in double_edge_positions(n, r)
            )
            if doubled != expected:
                return lower, kappa, FAIL, f"double arcs at {doubled}, predicted {expected}"
            return lower, kappa, PASS, f"double arcs verified at {expected}"

        yield {"case": "twist-bound", "m": m, "n": n, "r": r}, {"lower_bound": m}, m * n, run


def thm31(q=2, p=13, t=2):
    """Trivial compression of the non-Cayley families; the 10-vertex member
    is the Petersen graph and is recorded as a documented discrepancy."""
    params = {"q": q, "p": p, "t": t}
    for family, build in (("yqp", families.y_qp), ("zqp", families.z_qp)):
        if family == "zqp" and t == 2:
            continue  # identical graph when t = 2

        def run(build=build):
            g = build(q, p, t).graph
            if is_petersen(g):
                res = hamilton_compression(g, "lift")
                return 1, res.kappa, DISCREPANCY, "instance is the Petersen graph (kappa 0)"
            if all(d == 3 for d in g.degrees()) and g.n <= 30:
                res = hamilton_compression(g, "exhaustive")
                if hamilton_compression(g, "lift").kappa != res.kappa:
                    return 1, res.kappa, FAIL, "lift and exhaustive modes disagree"
                note = "exhaustive enumeration plus empty symmetric sweep"
            else:
                res = hamilton_compression(g, "lift")
                note = "lift-mode sweep"
            return 1, res.kappa, PASS if res.kappa == 1 else FAIL, note

        yield {"family": family, **params}, 1, q * p, run


def _thm43_corpus() -> list[tuple[str, families.FamilyInstance]]:
    gp, triple = families.generalized_petersen, families.metacirculant_triple_2p
    return [
        ("petersen", families.petersen()),
        ("petersen-complement", triple(5, {2, 3}, {1, 4}, {1, 2, 3, 4})),
        ("prism-5", gp(5, 1)),
        ("prism-7", gp(7, 1)),
        ("prism-11", gp(11, 1)),
        ("gp-13-5", gp(13, 5)),
        ("gp-17-4", gp(17, 4)),
        ("xmnr-3-7-2", families.x_mnr(3, 7, 2)),
        ("triple-5-sym", triple(5, {1, 4}, {1, 4}, {0, 1, 4})),
        ("triple-7-sym", triple(7, {1, 6}, {1, 6}, {0, 1, 6})),
        ("triple-5-skew", triple(5, {1, 4}, {2, 3}, {1, 2, 3, 4})),
    ]


THM43_NOTE = ("connectivity split taken on the subgraph left after deleting "
              "the order-p rotation's orbit edges")


def thm43():
    """Predicted vs exhaustively computed compression over a corpus of
    order-pq metacirculants; the connected-case split is cross-checked, with
    disagreement there recorded, not failed."""
    for name, inst in _thm43_corpus():
        params = {"graph": name, "q": inst.m, "p": inst.n,
                  "vertices": inst.graph.n}

        def run(inst=inst, params=params):
            pred = predict_kappa_metapq(inst)
            params["case"] = pred.case
            res = hamilton_compression(inst.graph, "exhaustive")
            if not res.exact:
                status, note = UNKNOWN, "enumeration limit reached"
            elif pred.kappa is None:
                status, note = UNKNOWN, "prediction unknown (capped group)"
            elif pred.kappa == res.kappa:
                status, note = PASS, f"case {pred.case}"
            elif pred.case in ("connected-bicayley", "connected-default"):
                status, note = DISCREPANCY, (
                    f"predicted {pred.kappa} via {pred.case}; the connected-case "
                    "split is recorded rather than asserted")
            else:
                status, note = FAIL, f"predicted {pred.kappa} via {pred.case}"
            return pred.kappa, res.kappa, status, f"{THM43_NOTE}; {note}"

        yield params, None, inst.graph.n, run


def prop42():
    """Cubic lower bound p for Cayley graphs of the non-abelian order-p^3
    groups: a cycle lifted at the central rotation, or else lift mode's
    certificate, must have compression at least 3."""
    for variant in ("heisenberg", "modular"):
        def run(variant=variant):
            inst = families.cayley_p3(3, variant)
            cycle = find_symmetric_hamcycle(inst.graph, inst.rho)
            if cycle is not None:
                cert, note = cycle_compression(inst.graph, cycle), "central-rotation quotient lifts"
            else:
                # the central quotient need not carry a liftable cycle; lift
                # mode sweeps every cyclic semiregular subgroup for one
                cert = hamilton_compression(inst.graph).certificate
                note = "central-rotation quotient has no liftable cycle; lift sweep used"
            if cert is None:
                return {"lower_bound": 3}, 0, FAIL, "no rotation-symmetric Hamilton cycle at k=3"
            return {"lower_bound": 3}, cert.k, PASS if cert.k >= 3 else FAIL, note

        yield {"p": 3, "variant": variant}, {"lower_bound": 3}, 27, run


def circulant():
    for conn, expected in (({1, 14}, 15), ({3, 12, 5, 10}, 1)):
        def run(conn=conn, expected=expected):
            predicted = predict_kappa_circulant(15, conn)
            kappa = hamilton_compression(families.circulant(15, conn).graph, "lift").kappa
            if predicted != expected:
                return expected, kappa, FAIL, f"rule predicts {predicted}, expected {expected}"
            return expected, kappa, PASS if kappa == predicted else FAIL, ""

        yield {"n": 15, "connection": sorted(conn)}, expected, 15, run


CLAIMS = {
    "petersen": petersen,
    "thm22": thm22,
    "thm31": thm31,
    "thm43": thm43,
    "prop21": prop21,
    "prop42": prop42,
    "circulant": circulant,
}


def run_claim(claim: str, budget: Budget | None = None, **options) -> list[VerificationRecord]:
    """Records of one claim's instances, in the claim's own order."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; choose from {sorted(CLAIMS)}")
    budget = budget or Budget()
    try:
        cases = CLAIMS[claim](**options)
    except TypeError as exc:  # a generator binds its options at the call
        raise ValueError(f"claim {claim!r}: {exc}") from None
    records = []
    for params, predicted, vertices, run in cases:
        if vertices > budget.max_vertices:
            records.append(VerificationRecord(
                claim, params, predicted, None, UNKNOWN, 0.0, "over max-vertices budget"))
            continue
        start = time.monotonic()
        predicted, computed, status, note = run()
        elapsed = time.monotonic() - start
        if elapsed > budget.time_budget:
            status = UNKNOWN
            over = f"time budget {budget.time_budget}s exceeded"
            note = f"{note}; {over}" if note else over
        records.append(VerificationRecord(
            claim, params, predicted, computed, status, elapsed, note))
    return records


def probe_zsigma(q: int, p: int, t: int) -> dict:
    """Whether the twisted rotation and its powers preserve the edges of the
    sparser family member; recorded, never asserted."""
    inst = families.z_qp(q, p, t)
    g = inst.graph
    r = inst.params["r"]
    sigma = families.grid_sigma(q, p, r)
    perm_order = order(sigma)
    powers = []
    for d in divisors(perm_order):
        pw = power(sigma, d)
        powers.append({
            "power": d,
            "automorphism": is_automorphism(g, pw),
            "order": order(pw),
        })
    return {
        "q": q, "p": p, "t": t, "r": r,
        "map_order": perm_order,
        "sigma_is_automorphism": powers[0]["automorphism"],  # divisors starts at 1
        "powers": powers,
    }
