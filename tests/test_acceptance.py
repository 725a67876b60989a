"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value and time bound is pinned here.
"""

import time

from corpora import small_corpus
from hamcompress.autgroup import automorphism_group, cyclic_semiregular_reps, sem_array
from hamcompress.compression import (
    cycle_compression,
    ham_array,
    hamilton_compression,
    is_petersen,
    predict_kappa_circulant,
)
from hamcompress.families import circulant, petersen, y_qp
from hamcompress.hamlift import enumerate_hamcycles, find_symmetric_hamcycle
from hamcompress.verify import DISCREPANCY, PASS, run_claim


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_petersen_facts():
    start = time.monotonic()
    pet = petersen().graph
    kappa = hamilton_compression(pet, "lift").kappa
    sem = sem_array(pet).values
    ham = ham_array(pet).values
    elapsed = time.monotonic() - start
    ok = kappa == 0 and sem == (1, 5) and ham == (0,) and elapsed < 1.0
    _report("C1 petersen facts", ok,
            f"kappa={kappa} sem={list(sem)} ham={list(ham)} in {elapsed:.2f}s (limit 1s)")


def test_c02_petersen_complement():
    start = time.monotonic()
    comp = petersen().graph.complement()
    res = hamilton_compression(comp, "exhaustive")
    ham = ham_array(comp)
    sem = sem_array(comp)
    elapsed = time.monotonic() - start
    ok = (res.kappa == 5 and res.exact and ham.exact
          and ham.values == sem.values == (1, 5) and elapsed < 30.0)
    _report("C2 petersen complement", ok,
            f"kappa={res.kappa} ham={list(ham.values)} sem={list(sem.values)} "
            f"in {elapsed:.1f}s (limit 30s)")


def test_c03_prescribed_compression_sweep():
    start = time.monotonic()
    records = run_claim("thm22")
    elapsed = time.monotonic() - start
    bad = [r for r in records if r.status != PASS]
    ok = not bad and len(records) >= 30 and elapsed < 600.0
    _report("C3 prescribed-compression sweep", ok,
            f"{len(records)} instances, failures={[(r.params, r.computed) for r in bad]}, "
            f"in {elapsed:.0f}s (limit 600s)")


def test_c04_twist_lower_bounds():
    start = time.monotonic()
    records = run_claim("prop21")
    elapsed = time.monotonic() - start
    bad = [r for r in records if r.status != PASS]
    odd = [r for r in records if r.params.get("case") == "odd-prism"]
    even = [r for r in records if r.params.get("case") == "even-prism"]
    twist = [r for r in records if r.params.get("case") == "twist-bound"]
    ok = (not bad and len(odd) == 4 and len(even) == 3 and len(twist) == 5
          and elapsed < 120.0)
    _report("C4 twist lower bounds", ok,
            f"odd={len(odd)} even={len(even)} twist={len(twist)} "
            f"failures={[r.params for r in bad]} in {elapsed:.1f}s (limit 120s)")


def test_c05_trivial_compression_instance():
    start = time.monotonic()
    inst = y_qp(2, 13, 2)
    g = inst.graph
    cycles, exact = enumerate_hamcycles(g)
    max_kappa = max(cycle_compression(g, c).k for c in cycles)
    group = automorphism_group(g)
    reps = cyclic_semiregular_reps(group)
    sweep_hits = [
        (k, a) for k, gens in reps.items() if k >= 2
        for a in gens if find_symmetric_hamcycle(g, a) is not None
    ]
    pet_member = y_qp(2, 5, 2)
    pet_is_petersen = is_petersen(pet_member.graph)
    pet_kappa = hamilton_compression(pet_member.graph, "lift").kappa
    elapsed = time.monotonic() - start
    ok = (exact and cycles and max_kappa == 1 and not sweep_hits
          and pet_is_petersen and pet_kappa == 0 and elapsed < 300.0)
    _report("C5 trivial compression", ok,
            f"{len(cycles)} cycles (exhaustive), max kappa={max_kappa}, "
            f"k>=2 sweep hits={sweep_hits}, (2,5,2) member: petersen={pet_is_petersen} "
            f"kappa={pet_kappa} -> {DISCREPANCY}; in {elapsed:.1f}s (limit 300s)")


def test_c06_order_pq_cross_check():
    start = time.monotonic()
    records = run_claim("thm43")
    elapsed = time.monotonic() - start
    bad = [r for r in records if r.status not in (PASS, DISCREPANCY)]
    cases = {r.params.get("case") for r in records}
    names = {r.params["graph"] for r in records}
    required = {"petersen", "prism-5", "prism-7", "xmnr-3-7-2",
                "triple-5-sym", "triple-5-skew"}
    ok = (len(records) >= 10 and not bad and required <= names
          and all(r.params["vertices"] <= 40 for r in records)
          and elapsed < 900.0)
    _report("C6 order-pq cross-check", ok,
            f"{len(records)} instances, cases={sorted(c for c in cases if c)}, "
            f"non-pass={[(r.params['graph'], r.status) for r in records if r.status != PASS]}, "
            f"in {elapsed:.0f}s (limit 900s)")


def test_c07_order_27_cayley_bound():
    results = {}
    for variant in ("heisenberg", "modular"):
        start = time.monotonic()
        records = run_claim("prop42")
        elapsed = time.monotonic() - start
        rec = next(r for r in records if r.params["variant"] == variant)
        results[variant] = (rec.status, rec.computed, elapsed)
    ok = all(status == PASS and kappa >= 3 and t < 120.0
             for status, kappa, t in results.values())
    _report("C7 order-27 Cayley bound", ok, f"{results} (limit 120s each)")


def test_c08_circulant_rule():
    start = time.monotonic()
    outcomes = {}
    for conn, expected in (({1, 14}, 15), ({3, 12, 5, 10}, 1)):
        predicted = predict_kappa_circulant(15, conn)
        computed = hamilton_compression(circulant(15, conn).graph, "lift").kappa
        outcomes[tuple(sorted(conn))] = (predicted, computed, expected)
    elapsed = time.monotonic() - start
    ok = all(p == c == e for p, c, e in outcomes.values()) and elapsed < 120.0
    _report("C8 circulant rule", ok, f"{outcomes} in {elapsed:.1f}s (limit 120s)")


def test_c09_oracle_equivalence_suite():
    start = time.monotonic()
    corpus = small_corpus()
    mismatches = []
    replay_failures = []
    for name, g in corpus:
        if g.n <= 16:
            lift_res = hamilton_compression(g, "lift")
            exh_res = hamilton_compression(g, "exhaustive")
            if not exh_res.exact or lift_res.kappa != exh_res.kappa:
                mismatches.append((name, lift_res.kappa, exh_res.kappa))
        for mode in ("lift", "exhaustive"):
            res = hamilton_compression(g, mode)
            if res.certificate is not None:
                if cycle_compression(g, res.certificate.cycle).k != res.certificate.k:
                    replay_failures.append((name, mode))
        arr = ham_array(g)
        for k, cert in arr.certificates.items():
            if cycle_compression(g, cert.cycle).k != k:
                replay_failures.append((name, "ham", k))
    elapsed = time.monotonic() - start
    ok = not mismatches and not replay_failures
    _report("C9 oracle equivalence", ok,
            f"{len(corpus)} corpus graphs, mode mismatches={mismatches}, "
            f"replay failures={replay_failures}, in {elapsed:.1f}s")


def test_c10_lift_soundness_randomized():
    # the full 1000-triple randomized suite lives in test_properties; this
    # runs it as the acceptance gate
    from test_properties import test_lift_soundness_1000_random_covers

    start = time.monotonic()
    test_lift_soundness_1000_random_covers()
    elapsed = time.monotonic() - start
    _report("C10 lift soundness", True,
            f"1000 random voltage covers lifted and verified, reversal negates "
            f"net voltage, in {elapsed:.1f}s")
