import pytest

from hamcompress import verify
from hamcompress.compression import KappaResult, MetaPqPrediction
from hamcompress.verify import (
    Budget,
    DISCREPANCY,
    FAIL,
    PASS,
    UNKNOWN,
    probe_zsigma,
    run_claim,
)


def test_petersen_claim_all_pass():
    records = run_claim("petersen")
    assert len(records) == 5
    assert all(r.status == PASS for r in records)
    kappa_rec = next(r for r in records
                     if r.params == {"graph": "petersen", "invariant": "kappa"})
    assert kappa_rec.predicted == 0 and kappa_rec.computed == 0


def test_thm22_single_k_instances():
    records = run_claim("thm22", k=3, p_max=50)
    assert [(r.params["k"], r.params["p"]) for r in records] == [
        (3, 7), (3, 13), (3, 19), (3, 31), (3, 37), (3, 43)
    ]
    assert all(r.status == PASS and r.computed == 3 for r in records)


def test_thm31_default_and_petersen_member():
    recs = run_claim("thm31", q=2, p=13, t=2)
    assert len(recs) == 1 and recs[0].status == PASS and recs[0].computed == 1
    recs = run_claim("thm31", q=2, p=5, t=2)
    assert recs[0].status == DISCREPANCY and recs[0].computed == 0


def test_thm31_57_vertex_member_under_the_vertex_gate():
    """The 57-vertex member runs by default; --max-vertices is its only gate."""
    recs = run_claim("thm31", q=3, p=19, t=2)
    assert len(recs) == 1 and recs[0].status == PASS and recs[0].computed == 1
    recs = run_claim("thm31", Budget(max_vertices=40), q=3, p=19, t=2)
    assert len(recs) == 1 and recs[0].status == UNKNOWN and recs[0].computed is None
    with pytest.raises(ValueError, match="thm31"):
        run_claim("thm31", q=3, p=19, t=2, large=True)


def test_max_vertices_budget_marks_unknown():
    records = run_claim("thm22", Budget(max_vertices=40), k=6, p_max=50)
    assert records and all(r.status == UNKNOWN for r in records)


def test_time_budget_marks_unknown():
    records = run_claim("circulant", Budget(time_budget=0.0))
    assert [(r.status, r.note) for r in records] == [
        (UNKNOWN, "time budget 0.0s exceeded")] * 2


def test_skipped_record_keeps_its_prediction():
    rec = run_claim("thm22", Budget(max_vertices=40), k=6)[0]
    assert (rec.params, rec.predicted, rec.computed, rec.seconds, rec.note) == (
        {"k": 6, "p": 7}, 6, None, 0.0, "over max-vertices budget")


def test_max_vertices_applies_to_every_claim():
    records = run_claim("prop42", Budget(max_vertices=20))
    assert [(r.params["variant"], r.status) for r in records] == [
        ("heisenberg", UNKNOWN), ("modular", UNKNOWN)
    ]
    for claim in ("petersen", "thm31", "prop21", "circulant"):
        assert all(r.status == UNKNOWN and r.computed is None
                   for r in run_claim(claim, Budget(max_vertices=1))), claim


def test_records_in_claim_order():
    """k, then p, ascending: not the string order, which puts p = 13 before 7."""
    records = run_claim("thm22", Budget(max_vertices=0))
    pairs = [(r.params["k"], r.params["p"]) for r in records]
    assert pairs[:3] == [(2, 3), (2, 5), (2, 7)]
    assert pairs == sorted(pairs) and len(pairs) == 35


def test_option_the_claim_does_not_take_is_an_input_error():
    with pytest.raises(ValueError, match="circulant"):
        run_claim("circulant", k=3)
    with pytest.raises(ValueError, match="thm22"):
        run_claim("thm22", q=2)


def test_run_claim_rejects_unknown():
    with pytest.raises(ValueError):
        run_claim("nonsense")


@pytest.mark.parametrize("fields, named", [
    ({"time_budget": -1.0}, "--time-budget"),
    ({"time_budget": float("nan")}, "--time-budget"),
    ({"max_vertices": -1}, "--max-vertices"),
], ids=["negative-time", "nan-time", "negative-vertices"])
def test_bad_budget_is_an_input_error(fields, named):
    """A negative budget would mark every instance unknown and a NaN time
    budget would switch the check off; both are refused when made."""
    with pytest.raises(ValueError, match=named):
        Budget(**fields)


def test_probe_zsigma_records():
    rec = probe_zsigma(2, 13, 2)
    assert rec["sigma_is_automorphism"] is True
    assert rec["map_order"] == 4
    full = next(p for p in rec["powers"] if p["power"] == 1)
    assert full["automorphism"] is True and full["order"] == 4
    rec = probe_zsigma(3, 19, 2)
    assert rec["sigma_is_automorphism"] is True and rec["map_order"] == 9
    rec = probe_zsigma(2, 17, 4)
    assert rec["sigma_is_automorphism"] is False


@pytest.mark.parametrize("pred_kappa, case, exact, status, note", [
    (2, "disconnected-cayley", False, UNKNOWN, "enumeration limit reached"),
    (None, "connected-default", True, UNKNOWN, "prediction unknown (capped group)"),
    (3, "connected-bicayley", True, DISCREPANCY,
     "predicted 3 via connected-bicayley; the connected-case split is recorded "
     "rather than asserted"),
    (3, "disconnected-noncayley", True, FAIL, "predicted 3 via disconnected-noncayley"),
])
def test_thm43_outcomes_other_than_pass(monkeypatch, pred_kappa, case, exact, status, note):
    """Each non-pass branch of thm43, reached with a stubbed prediction and
    a stubbed computation of 1."""
    monkeypatch.setattr(verify, "predict_kappa_metapq",
                        lambda inst: MetaPqPrediction(pred_kappa, case))
    monkeypatch.setattr(verify, "hamilton_compression",
                        lambda g, mode: KappaResult(1, None, exact))
    records = run_claim("thm43")
    assert len(records) == len(verify._thm43_corpus())
    for rec in records:
        assert (rec.status, rec.note) == (status, f"{verify.THM43_NOTE}; {note}")
        assert (rec.predicted, rec.computed, rec.params["case"]) == (pred_kappa, 1, case)


def _kappa_stub(lift: int, exhaustive: int | None = None):
    """A hamilton_compression that answers lift in lift mode and exhaustive
    (by default lift as well) in exhaustive mode."""
    def stub(g, mode="lift"):
        kappa = exhaustive if mode == "exhaustive" and exhaustive is not None else lift
        return KappaResult(kappa, None, True)
    return stub


TWIST_BOUND = {"case": "twist-bound"}


@pytest.mark.parametrize("claim, stubs, keep, expected", [
    ("prop21", {"hamilton_compression": _kappa_stub(1)}, TWIST_BOUND,
     [({"lower_bound": m}, 1, FAIL, "") for m in (3, 3, 4, 4, 6)]),
    ("prop21", {"hamilton_compression": _kappa_stub(6),
                "double_edge_positions": lambda n, r: (0, 0)}, TWIST_BOUND,
     [({"lower_bound": m}, 6, FAIL, f"double arcs at {arcs}, predicted [(0, 1), (0, 1)]")
      for m, arcs in ((3, [(1, 2), (5, 6)]), (3, [(5, 6), (7, 8)]), (4, [(1, 2), (3, 4)]),
                      (4, [(2, 3), (10, 11)]), (6, [(2, 3), (4, 5)]))]),
    ("thm31", {"hamilton_compression": _kappa_stub(2, exhaustive=1)}, {},
     [(1, 1, FAIL, "lift and exhaustive modes disagree")]),
    ("prop42", {"find_symmetric_hamcycle": lambda g, a: None}, {},
     [({"lower_bound": 3}, 0, FAIL, "no rotation-symmetric Hamilton cycle at k=3")] * 2),
    ("circulant", {"hamilton_compression": _kappa_stub(15),
                   "predict_kappa_circulant": lambda n, conn: 7}, {},
     [(15, 15, FAIL, "rule predicts 7, expected 15"),
      (1, 15, FAIL, "rule predicts 7, expected 1")]),
], ids=["prop21-kappa-below-m", "prop21-double-arcs-differ", "thm31-modes-disagree",
        "prop42-no-symmetric-cycle", "circulant-rule-mismatch"])
def test_fail_outcomes_of_the_other_claims(monkeypatch, claim, stubs, keep, expected):
    """Each FAIL branch of prop21, thm31, prop42 and circulant that the real
    computations never reach, reached with stubbed ones; keep selects the
    records of the instances that have the branch."""
    for name, stub in stubs.items():
        monkeypatch.setattr(verify, name, stub)
    records = [rec for rec in run_claim(claim)
               if all(rec.params.get(k) == v for k, v in keep.items())]
    assert [(rec.predicted, rec.computed, rec.status, rec.note) for rec in records] == expected
