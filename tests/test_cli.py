import json
import subprocess
import sys
from pathlib import Path

import pytest

from hamcompress import cli
from hamcompress.families import petersen
from hamcompress.graph import parse_edgelist


def run_cli(capsys, *argv):
    code = cli.main([*argv, "--quiet"])
    out = capsys.readouterr().out
    return code, out


def test_construct_writes_canonical_file(tmp_path, capsys):
    path = tmp_path / "x372.txt"
    code, _ = run_cli(capsys, "construct", "--family", "xmnr",
                      "--m", "3", "--n", "7", "--r", "2", "--out", str(path))
    assert code == 0
    g = parse_edgelist(path.read_text())
    assert g.n == 21 and g.m == 42
    sidecar = json.loads((tmp_path / "x372.txt.json").read_text())
    assert sidecar["schema"] == 1
    assert sidecar["params"]["family"] == "xmnr"
    assert sidecar["sigma"] is not None
    assert len(sidecar["rho"].split()) == 21


def test_construct_yqp_and_gp(tmp_path, capsys):
    path = tmp_path / "y.txt"
    code, _ = run_cli(capsys, "construct", "--family", "yqp",
                      "--q", "2", "--p", "13", "--out", str(path))
    assert code == 0
    assert parse_edgelist(path.read_text()).n == 26
    path2 = tmp_path / "pet.txt"
    code, _ = run_cli(capsys, "construct", "--family", "gp",
                      "--n", "5", "--r", "2", "--out", str(path2))
    assert code == 0
    assert parse_edgelist(path2.read_text()) == petersen().graph


def test_construct_invalid_params_exit_2(tmp_path, capsys):
    code, _ = run_cli(capsys, "construct", "--family", "xmnr",
                      "--m", "3", "--n", "7", "--r", "3",
                      "--out", str(tmp_path / "no.txt"))
    assert code == 2


def _petersen_file(tmp_path):
    from hamcompress.graph import emit_edgelist

    path = tmp_path / "pet.txt"
    path.write_text(emit_edgelist(petersen().graph))
    return str(path)


def test_kappa_sem_ham_reports(tmp_path, capsys):
    from hamcompress.autgroup import is_automorphism
    from hamcompress.perm import is_semiregular, order

    path = _petersen_file(tmp_path)
    code, out = run_cli(capsys, "kappa", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1 and rep["kappa"] == 0 and rep["certificate"] is None
    code, out = run_cli(capsys, "sem", path)
    rep = json.loads(out)
    assert rep["sem"] == [1, 5]
    # each witness reads back as an automorphism, semiregular of its key's order
    assert sorted(map(int, rep["witnesses"])) == rep["sem"]
    pet = petersen().graph
    for key, text in rep["witnesses"].items():
        witness = tuple(int(tok) for tok in text.split())
        assert sorted(witness) == list(range(pet.n))
        assert is_automorphism(pet, witness)
        assert order(witness) == int(key) and is_semiregular(witness, int(key))
    code, out = run_cli(capsys, "ham", path)
    rep = json.loads(out)
    assert rep["ham"] == [0] and rep["exact"] is True


def test_ham_complement_exact(tmp_path, capsys):
    from hamcompress.graph import emit_edgelist

    path = tmp_path / "comp.txt"
    path.write_text(emit_edgelist(petersen().graph.complement()))
    code, out = run_cli(capsys, "ham", str(path))
    rep = json.loads(out)
    assert rep["ham"] == [1, 5] and rep["exact"] is True


@pytest.mark.parametrize("argv", [["ham"], ["kappa", "--mode", "exhaustive"], ["kappa"]])
def test_limit_below_one_exit_2(tmp_path, capsys, argv):
    """A limit of 0 enumerates nothing; on the hamiltonian complement of
    Petersen that must not read as Ham = [0] or kappa = 0. Lift mode does
    not use the limit, but rejects it the same way."""
    from hamcompress.graph import emit_edgelist

    path = tmp_path / "comp.txt"
    path.write_text(emit_edgelist(petersen().graph.complement()))
    code = cli.main([argv[0], str(path), *argv[1:], "--limit", "0", "--quiet"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "limit must be positive" in captured.err


def test_kappa_certificate_replays(tmp_path, capsys):
    from hamcompress.compression import cycle_compression
    from hamcompress.families import x_mnr
    from hamcompress.graph import emit_edgelist

    g = x_mnr(3, 7, 2).graph
    path = tmp_path / "x.txt"
    path.write_text(emit_edgelist(g))
    code, out = run_cli(capsys, "kappa", str(path))
    rep = json.loads(out)
    assert rep["kappa"] == 3
    cert = rep["certificate"]
    assert cycle_compression(g, tuple(cert["cycle"])).k == cert["kappa"] == 3


def test_kappa_k2_is_zero(tmp_path, capsys):
    path = tmp_path / "k2.txt"
    path.write_text("2 1\n0 1\n")
    for mode in ("lift", "exhaustive"):
        code, out = run_cli(capsys, "kappa", str(path), "--mode", mode)
        rep = json.loads(out)
        assert code == 0
        assert rep["kappa"] == 0 and rep["certificate"] is None


def test_ham_long_cycle(tmp_path, capsys):
    from conftest import graph_cycle
    from hamcompress.graph import emit_edgelist

    n = 1100
    path = tmp_path / "c1100.txt"
    path.write_text(emit_edgelist(graph_cycle(n)))
    code, out = run_cli(capsys, "ham", str(path))
    assert code == 0
    assert json.loads(out)["ham"] == [n]


def test_lcf_command(tmp_path, capsys):
    from hamcompress.families import generalized_petersen
    from hamcompress.graph import emit_edgelist

    path = tmp_path / "mk.txt"
    path.write_text(emit_edgelist(generalized_petersen(8, 3).graph))
    code, out = run_cli(capsys, "lcf", str(path))
    rep = json.loads(out)
    assert rep["repeat"] == 8
    assert rep["text"].endswith("^8")
    assert rep["lcf"] == rep["block"] * rep["repeat"]


def test_lcf_non_cubic_exit_2(tmp_path, capsys):
    from hamcompress.graph import Graph, emit_edgelist

    path = tmp_path / "star.txt"
    path.write_text(emit_edgelist(Graph.build(4, [(0, 1), (0, 2), (0, 3)])))
    code, out = run_cli(capsys, "lcf", str(path))
    assert code == 2 and out == ""


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 0\n")
    code, _ = run_cli(capsys, "kappa", str(path))
    assert code == 2
    code, _ = run_cli(capsys, "kappa", str(tmp_path / "missing.txt"))
    assert code == 2


def test_verify_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "--claim", "circulant")
    assert code == 0
    rep = json.loads(out)
    assert rep["counts"]["fail"] == 0
    assert all(r["status"] == "pass" for r in rep["records"])


def test_verify_thm31_petersen_member_discrepancy(capsys):
    code, out = run_cli(capsys, "verify", "--claim", "thm31",
                        "--q", "2", "--p", "5", "--t", "2")
    assert code == 0  # discrepancy-recorded is not a failure
    rep = json.loads(out)
    assert rep["counts"]["discrepancy-recorded"] == 1


def test_verify_failure_exit_1(capsys, monkeypatch):
    from hamcompress import verify as verify_mod

    def fake_cases():
        yield {"n": 15}, 15, 15, lambda: (15, 1, "fail", "")

    monkeypatch.setitem(verify_mod.CLAIMS, "circulant", fake_cases)
    code, out = run_cli(capsys, "verify", "--claim", "circulant")
    assert code == 1
    assert json.loads(out)["counts"]["fail"] == 1


def test_verify_budget_exit_3(capsys):
    code, out = run_cli(capsys, "verify", "--claim", "thm22", "--k", "6",
                        "--max-vertices", "40")
    assert code == 3
    rep = json.loads(out)
    assert all(r["status"] == "unknown" for r in rep["records"])


def test_verify_max_vertices_applies_to_every_claim(capsys):
    code, out = run_cli(capsys, "verify", "--claim", "prop42", "--max-vertices", "20")
    assert code == 3
    rep = json.loads(out)
    assert [r["status"] for r in rep["records"]] == ["unknown", "unknown"]


def test_verify_option_the_claim_does_not_take_exit_2(capsys):
    code, out = run_cli(capsys, "verify", "--claim", "circulant", "--k", "3")
    assert code == 2 and out == ""


def test_probe_zsigma(capsys):
    code, out = run_cli(capsys, "probe-zsigma", "--q", "2", "--p", "13", "--t", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["sigma_is_automorphism"] is True and rep["map_order"] == 4
    code, out = run_cli(capsys, "probe-zsigma", "--q", "2", "--p", "17", "--t", "4")
    rep = json.loads(out)
    assert rep["sigma_is_automorphism"] is False
    assert any(p["automorphism"] for p in rep["powers"])  # some power still works


def test_construct_stdout_roundtrip(capsys):
    code = cli.main(["construct", "--family", "petersen", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_edgelist(out) == petersen().graph


@pytest.mark.parametrize(
    "argv,vertices",
    [
        (["--family", "circulant", "--n", "15", "--connection", "1,14"], 15),
        (["--family", "zqp", "--q", "2", "--p", "17", "--t", "4"], 34),
        (["--family", "triple2p", "--p", "5", "--outer", "1,4",
          "--inner", "1,4", "--spokes", "0,1,4"], 10),
        (["--family", "cayleyp3", "--p", "3", "--variant", "modular"], 27),
        (["--family", "orbit", "--m", "2", "--n", "13", "--r", "8",
          "--neighbors", "1:0,0:1,0:12"], 26),
    ],
)
def test_construct_all_families(capsys, argv, vertices):
    code = cli.main(["construct", *argv, "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_edgelist(out).n == vertices


def test_construct_missing_params_exit_2(capsys):
    code = cli.main(["construct", "--family", "xmnr", "--m", "3", "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--n" in err and "--r" in err


def test_runtime_imports_only_the_standard_library():
    """The package, its CLI and verify load no module from outside the
    standard library, with site-packages and the environment switched off."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import hamcompress, hamcompress.cli, hamcompress.verify\n"
        "print(*sorted({name.split('.')[0] for name in sys.modules}))\n"
    )
    run = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script],
                         capture_output=True, text=True, check=True, timeout=60)
    loaded = set(run.stdout.split()) - {"__main__"}
    assert loaded - set(sys.stdlib_module_names) == {"hamcompress"}
