"""Named verification claims reproduced at desk scale.

Each claim runner builds concrete instances, computes the invariant from
scratch, compares against the predicted value, and emits one record per
instance. Documented edge cases (the Petersen member of the yqp family, the
relaxed even-prism hypothesis, the connected-case ambiguity for 2p-vertex
graphs) are reported with status "discrepancy-recorded" rather than pass or
fail: the harness verifies, it does not adjudicate.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from .autgroup import (
    automorphism_group,
    cyclic_semiregular_reps,
    is_automorphism,
    sem_array,
)
from .compression import (
    cycle_compression,
    double_edge_positions,
    hamilton_compression,
    ham_array,
    is_petersen,
    predict_kappa_circulant,
    predict_kappa_metapq,
)
from .families import (
    FamilyInstance,
    cayley_p3,
    circulant,
    generalized_petersen,
    grid_sigma,
    metacirculant_triple_2p,
    petersen,
    x_mnr,
    y_qp,
    z_qp,
)
from .hamlift import find_symmetric_hamcycle, quotient_with_voltages
from .numth import element_of_order, primes_in_ap
from .perm import order, power

DEFAULT_TIME_BUDGET = 300.0
DEFAULT_MAX_VERTICES = 500

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy-recorded"
UNKNOWN = "unknown"

CLAIMS = ("petersen", "thm22", "thm31", "thm43", "prop21", "prop42", "circulant")


@dataclass
class VerificationRecord:
    claim: str
    params: dict
    predicted: object
    computed: object
    status: str
    seconds: float
    note: str = ""

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "predicted": self.predicted,
            "computed": self.computed,
            "status": self.status,
            "seconds": round(self.seconds, 3),
            "note": self.note,
        }


@dataclass
class Budget:
    time_budget: float = DEFAULT_TIME_BUDGET
    max_vertices: int = DEFAULT_MAX_VERTICES

    def skip(self, n_vertices: int) -> bool:
        return n_vertices > self.max_vertices


def _timed(claim, params, predicted, compute, budget: Budget, note="") -> VerificationRecord:
    start = time.monotonic()
    computed, status, extra = compute()
    elapsed = time.monotonic() - start
    if elapsed > budget.time_budget:
        status = UNKNOWN
        extra = (extra + "; " if extra else "") + f"time budget {budget.time_budget}s exceeded"
    return VerificationRecord(
        claim, params, predicted, computed, status,
        elapsed, "; ".join(x for x in (note, extra) if x),
    )


def _eq_status(predicted, computed) -> str:
    return PASS if predicted == computed else FAIL


def _bound_status(bound, computed) -> str:
    return PASS if computed >= bound else FAIL


def verify_petersen(budget: Budget | None = None) -> list[VerificationRecord]:
    budget = budget or Budget()
    records = []
    pet = petersen().graph
    comp = pet.complement()

    def kappa_pet():
        res = hamilton_compression(pet, "lift")
        return res.kappa, _eq_status(0, res.kappa), ""

    records.append(_timed("petersen", {"graph": "petersen", "invariant": "kappa"},
                          0, kappa_pet, budget))

    def sem_pet():
        res = sem_array(pet)
        return list(res.values), _eq_status([1, 5], list(res.values)), ""

    records.append(_timed("petersen", {"graph": "petersen", "invariant": "sem"},
                          [1, 5], sem_pet, budget))

    def ham_pet():
        res = ham_array(pet)
        return list(res.values), _eq_status([0], list(res.values)), ""

    records.append(_timed("petersen", {"graph": "petersen", "invariant": "ham"},
                          [0], ham_pet, budget))

    def kappa_comp():
        res = hamilton_compression(comp, "exhaustive")
        status = PASS if res.kappa == 5 and res.exact else FAIL
        return res.kappa, status, ""

    records.append(_timed("petersen", {"graph": "petersen-complement", "invariant": "kappa"},
                          5, kappa_comp, budget))

    def arrays_comp():
        ham = ham_array(comp)
        sem = sem_array(comp)
        agree = ham.exact and sem.exact and ham.values == sem.values == (1, 5)
        return {"ham": list(ham.values), "sem": list(sem.values)}, (PASS if agree else FAIL), ""

    records.append(_timed("petersen", {"graph": "petersen-complement", "invariant": "ham=sem"},
                          {"ham": [1, 5], "sem": [1, 5]}, arrays_comp, budget))
    return records


def verify_thm22(
    k_values=(2, 3, 4, 5, 6), p_max: int = 50, budget: Budget | None = None
) -> list[VerificationRecord]:
    """Prescribed compression: the 2m-generator family on k*p vertices attains
    exactly k for every prime p = 1 (mod k)."""
    budget = budget or Budget()
    records = []
    for k in k_values:
        for p in primes_in_ap(1, k, p_max):
            params = {"k": k, "p": p}
            if budget.skip(k * p):
                records.append(VerificationRecord(
                    "thm22", params, k, None, UNKNOWN, 0.0, "over max-vertices budget"))
                continue
            r = element_of_order(k, p)
            params["r"] = r

            def compute(k=k, p=p, r=r):
                inst = x_mnr(k, p, r)
                res = hamilton_compression(inst.graph, "lift")
                return res.kappa, _eq_status(k, res.kappa), ""

            records.append(_timed("thm22", params, k, compute, budget))
    return records


def verify_prop21(budget: Budget | None = None) -> list[VerificationRecord]:
    """Lower bounds from the twisted quotient, plus the double-arc positions."""
    budget = budget or Budget()
    records = []
    for n in (5, 7, 9, 11):
        def compute(n=n):
            inst = x_mnr(2, n, n - 1)
            res = hamilton_compression(inst.graph, "lift")
            return res.kappa, _bound_status(2, res.kappa), ""

        records.append(_timed("prop21", {"case": "odd-prism", "n": n},
                              {"lower_bound": 2}, compute, budget))
    for n in (4, 6, 8):
        def compute(n=n):
            inst = x_mnr(2, n, n - 1)
            res = hamilton_compression(inst.graph, "lift")
            return res.kappa, _bound_status(n // 2, res.kappa), ""

        records.append(_timed("prop21", {"case": "even-prism", "n": n},
                              {"lower_bound": n // 2}, compute, budget,
                              note="hypothesis relaxed: r-1 not a unit for even n"))
    for m, n, r in ((3, 7, 2), (3, 13, 3), (4, 5, 2), (4, 13, 5), (6, 7, 3)):
        def compute(m=m, n=n, r=r):
            inst = x_mnr(m, n, r)
            res = hamilton_compression(inst.graph, "lift")
            if res.kappa < m:
                return res.kappa, FAIL, ""
            # cross-check the double-arc positions against the quotient
            qg = quotient_with_voltages(inst.graph, grid_sigma(m, n, r))
            counts = Counter((a, b) for (a, b, _s) in qg.arcs)
            doubled = sorted(pair for pair, cnt in counts.items() if cnt > 1)
            expected = sorted(
                tuple(sorted((j, (j + 1) % n))) for j in double_edge_positions(m, n, r)
            )
            if doubled != expected:
                return res.kappa, FAIL, f"double arcs at {doubled}, predicted {expected}"
            return res.kappa, PASS, f"double arcs verified at {expected}"

        records.append(_timed("prop21", {"case": "twist-bound", "m": m, "n": n, "r": r},
                              {"lower_bound": m}, compute, budget))
    return records


def verify_thm31(
    q: int = 2, p: int = 13, t: int = 2, large: bool = False, budget: Budget | None = None
) -> list[VerificationRecord]:
    """Trivial compression of the non-Cayley families; the 10-vertex member
    is the Petersen graph and is recorded as a documented discrepancy."""
    budget = budget or Budget()
    if q * p > 40 and not large:
        return [VerificationRecord(
            "thm31", {"q": q, "p": p, "t": t}, 1, None, UNKNOWN, 0.0,
            "instance gated behind --large")]
    records = []
    for family, build in (("yqp", y_qp), ("zqp", z_qp)):
        if family == "zqp" and t == 2:
            continue  # identical graph when t = 2

        def compute(build=build):
            inst = build(q, p, t)
            g = inst.graph
            if is_petersen(g):
                res = hamilton_compression(g, "lift")
                return res.kappa, DISCREPANCY, "instance is the Petersen graph (kappa 0)"
            if all(d == 3 for d in g.degrees()) and g.n <= 30:
                res = hamilton_compression(g, "exhaustive")
                lift_res = hamilton_compression(g, "lift")
                if lift_res.kappa != res.kappa:
                    return res.kappa, FAIL, "lift and exhaustive modes disagree"
                note = "exhaustive enumeration plus empty symmetric sweep"
            else:
                res = hamilton_compression(g, "lift")
                note = "lift-mode sweep"
            return res.kappa, _eq_status(1, res.kappa), note

        records.append(_timed("thm31", {"family": family, "q": q, "p": p, "t": t},
                              1, compute, budget))
    return records


def _thm43_corpus() -> list[tuple[str, FamilyInstance]]:
    pet = petersen()
    comp_graph = pet.graph.complement()
    complement_inst = FamilyInstance(
        comp_graph, pet.labeling, pet.rho, pet.sigma,
        {"family": "petersen-complement", "q": 2, "p": 5},
    )
    if not is_automorphism(comp_graph, pet.rho):
        raise AssertionError("rotation lost under complement")
    return [
        ("petersen", pet),
        ("petersen-complement", complement_inst),
        ("prism-5", generalized_petersen(5, 1)),
        ("prism-7", generalized_petersen(7, 1)),
        ("prism-11", generalized_petersen(11, 1)),
        ("gp-13-5", generalized_petersen(13, 5)),
        ("gp-17-4", generalized_petersen(17, 4)),
        ("xmnr-3-7-2", x_mnr(3, 7, 2)),
        ("triple-5-sym", metacirculant_triple_2p(5, {1, 4}, {1, 4}, {0, 1, 4})),
        ("triple-7-sym", metacirculant_triple_2p(7, {1, 6}, {1, 6}, {0, 1, 6})),
        ("triple-5-skew", metacirculant_triple_2p(5, {1, 4}, {2, 3}, {1, 2, 3, 4})),
    ]


def verify_thm43(budget: Budget | None = None) -> list[VerificationRecord]:
    """Predicted vs exhaustively computed compression over a corpus of
    order-pq metacirculants; the connected-case split is cross-checked, with
    disagreement there recorded, not failed."""
    budget = budget or Budget()
    records = []
    for name, inst in _thm43_corpus():
        params = {"graph": name, "q": inst.labeling.m, "p": inst.labeling.n,
                  "vertices": inst.graph.n}
        if budget.skip(inst.graph.n):
            records.append(VerificationRecord(
                "thm43", params, None, None, UNKNOWN, 0.0, "over max-vertices budget"))
            continue
        holder: dict = {}

        def compute(inst=inst, holder=holder):
            group = automorphism_group(inst.graph)
            pred = predict_kappa_metapq(inst, group=group)
            holder["predicted"] = pred.kappa
            holder["case"] = pred.case
            res = hamilton_compression(inst.graph, "exhaustive")
            if not res.exact:
                return res.kappa, UNKNOWN, "enumeration limit reached"
            if pred.kappa is None:
                return res.kappa, UNKNOWN, "prediction unknown (capped group)"
            if pred.kappa == res.kappa:
                return res.kappa, PASS, f"case {pred.case}"
            if pred.case in ("connected-bicayley", "connected-default"):
                return res.kappa, DISCREPANCY, (
                    f"predicted {pred.kappa} via {pred.case}; the connected-case "
                    "split is recorded rather than asserted")
            return res.kappa, FAIL, f"predicted {pred.kappa} via {pred.case}"

        rec = _timed("thm43", params, None, compute, budget,
                     note="connectivity split taken on the subgraph left after "
                          "deleting the order-p rotation's orbit edges")
        rec.predicted = holder.get("predicted")
        rec.params["case"] = holder.get("case")
        records.append(rec)
    return records


def verify_prop42(budget: Budget | None = None) -> list[VerificationRecord]:
    """Cubic lower bound p for Cayley graphs of the non-abelian order-p^3
    groups: the symmetric search at the central rotation must succeed."""
    budget = budget or Budget()
    records = []
    for variant in ("heisenberg", "modular"):
        def compute(variant=variant):
            inst = cayley_p3(3, variant)
            cycle = find_symmetric_hamcycle(inst.graph, inst.rho)
            note = "central-rotation quotient lifts"
            if cycle is None:
                # the central quotient need not carry a liftable cycle; any
                # order-3 cyclic semiregular subgroup certifies the bound
                note = "central-rotation quotient has no liftable cycle; k=3 sweep used"
                group = automorphism_group(inst.graph)
                for a in cyclic_semiregular_reps(group).get(3, []):
                    cycle = find_symmetric_hamcycle(inst.graph, a)
                    if cycle is not None:
                        break
            if cycle is None:
                return 0, FAIL, "no rotation-symmetric Hamilton cycle at k=3"
            cert = cycle_compression(inst.graph, cycle)
            return cert.k, _bound_status(3, cert.k), note

        records.append(_timed("prop42", {"p": 3, "variant": variant},
                              {"lower_bound": 3}, compute, budget))
    return records


def verify_circulant(budget: Budget | None = None) -> list[VerificationRecord]:
    budget = budget or Budget()
    records = []
    for conn, expected in (({1, 14}, 15), ({3, 12, 5, 10}, 1)):
        def compute(conn=conn, expected=expected):
            predicted = predict_kappa_circulant(15, conn)
            inst = circulant(15, conn)
            res = hamilton_compression(inst.graph, "lift")
            if predicted != expected:
                return res.kappa, FAIL, f"rule predicts {predicted}, expected {expected}"
            return res.kappa, _eq_status(predicted, res.kappa), ""

        records.append(_timed("circulant", {"n": 15, "connection": sorted(conn)},
                              expected, compute, budget))
    return records


def probe_zsigma(q: int, p: int, t: int) -> dict:
    """Whether the twisted rotation and its powers preserve the edges of the
    sparser family member; recorded, never asserted."""
    inst = z_qp(q, p, t)
    g = inst.graph
    r = inst.params["r"]
    sigma = grid_sigma(q, p, r)
    perm_order = order(sigma)
    powers = []
    for d in range(1, perm_order + 1):
        if perm_order % d:
            continue
        pw = power(sigma, d)
        powers.append({
            "power": d,
            "automorphism": is_automorphism(g, pw),
            "order": order(pw),
        })
    return {
        "q": q, "p": p, "t": t, "r": r,
        "map_order": perm_order,
        "sigma_is_automorphism": bool(powers and powers[0]["automorphism"]),
        "powers": powers,
    }


_RUNNERS = {
    "petersen": lambda budget, **kw: verify_petersen(budget),
    "thm22": lambda budget, **kw: verify_thm22(
        k_values=(kw["k"],) if kw.get("k") else (2, 3, 4, 5, 6),
        p_max=kw.get("p_max") or 50, budget=budget),
    "thm31": lambda budget, **kw: verify_thm31(
        q=kw.get("q") or 2, p=kw.get("p") or 13, t=kw.get("t") or 2,
        large=kw.get("large", False), budget=budget),
    "thm43": lambda budget, **kw: verify_thm43(budget),
    "prop21": lambda budget, **kw: verify_prop21(budget),
    "prop42": lambda budget, **kw: verify_prop42(budget),
    "circulant": lambda budget, **kw: verify_circulant(budget),
}


def run_claim(claim: str, budget: Budget | None = None, **kw) -> list[VerificationRecord]:
    if claim not in _RUNNERS:
        raise ValueError(f"unknown claim {claim!r}; choose from {sorted(_RUNNERS)}")
    records = _RUNNERS[claim](budget or Budget(), **kw)
    records.sort(key=lambda r: (r.claim, sorted(r.params.items(), key=str).__repr__()))
    return records
