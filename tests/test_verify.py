import pytest

from hamcompress.verify import (
    Budget,
    DISCREPANCY,
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


def test_records_serialise():
    for rec in run_claim("circulant"):
        blob = rec.to_json()
        assert blob["status"] == PASS
        assert set(blob) == {"claim", "params", "predicted", "computed",
                             "status", "seconds", "note"}


def test_run_claim_rejects_unknown():
    with pytest.raises(ValueError):
        run_claim("nonsense")


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
