import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from corpora import graph_complete, graph_disjoint_complete
from hamcompress import cli, families
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


@pytest.mark.parametrize("argv", [["ham"], ["kappa", "--mode", "exhaustive"], ["kappa"]])
def test_limit_above_maxsize_is_no_limit(tmp_path, capsys, argv):
    """A limit beyond sys.maxsize enumerates everything, like the default."""
    from hamcompress.graph import emit_edgelist

    path = tmp_path / "comp.txt"
    path.write_text(emit_edgelist(petersen().graph.complement()))
    code, out = run_cli(capsys, argv[0], str(path), *argv[1:], "--limit", str(10**20))
    assert code == 0 and json.loads(out)["exact"] is True


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
    from corpora import graph_cycle
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


def test_lcf_no_hamilton_cycle(tmp_path, capsys):
    """Petersen is cubic without a Hamilton cycle: no word, exit 0, and the
    same envelope as every graph report."""
    code, out = run_cli(capsys, "lcf", _petersen_file(tmp_path))
    rep = json.loads(out)
    assert code == 0
    assert set(rep) == {"schema", "graph", "seconds", "kappa", "lcf"}
    assert rep["schema"] == 1 and rep["graph"] == {"vertices": 10, "edges": 15}
    assert rep["kappa"] == 0 and rep["lcf"] is None


def test_group_report_shape(tmp_path, capsys):
    """K10's group (10! elements) is over the element cap: kappa reports a
    lower bound with its note and sem a capped group; Petersen's is exact."""
    from hamcompress.graph import Graph, emit_edgelist

    path = tmp_path / "k10.txt"
    path.write_text(emit_edgelist(Graph.build(10, [(i, j) for i in range(10)
                                                   for j in range(i + 1, 10)])))
    code, out = run_cli(capsys, "kappa", str(path))
    rep = json.loads(out)
    assert code == 0 and rep["exact"] is False
    assert rep["note"] == "lower bound only on the k>=2 sweep"
    code, out = run_cli(capsys, "sem", str(path))
    rep = json.loads(out)
    assert code == 0 and rep["group"]["capped"] is True and rep["group"]["order"] == 3628800
    code, out = run_cli(capsys, "sem", _petersen_file(tmp_path))
    group = json.loads(out)["group"]
    assert set(group) == {"order", "capped", "generators"}
    assert group["order"] == 120 and group["capped"] is False
    assert all(isinstance(gen, list) and len(gen) == 10 for gen in group["generators"])


@pytest.mark.parametrize("graph, argv, exact, note", [
    ("k10", [], False, True),  # capped group: the sweep's kappa is a lower bound
    ("4k4", [], True, False),  # capped, but no Hamilton cycle: kappa = 0 is exact
    ("k10", ["--mode", "exhaustive", "--limit", "1"], False, False),
    ("xmnr", [], True, False),
])
def test_kappa_report_mode_and_note(tmp_path, capsys, graph, argv, exact, note):
    """The report echoes --mode, and carries the lift bound note exactly when
    a lift kappa is not exact."""
    from hamcompress.graph import emit_edgelist

    graphs = {
        "k10": lambda: graph_complete(10),
        "4k4": lambda: graph_disjoint_complete(4, 4),
        "xmnr": lambda: families.x_mnr(3, 7, 2).graph,
    }
    path = tmp_path / "g.txt"
    path.write_text(emit_edgelist(graphs[graph]()))
    code, out = run_cli(capsys, "kappa", str(path), *argv)
    rep = json.loads(out)
    assert code == 0 and rep["exact"] is exact
    assert rep["mode"] == (argv[1] if argv else "lift")
    if note:
        assert rep["note"] == "lower bound only on the k>=2 sweep"
    else:
        assert "note" not in rep


def test_stderr_summaries(tmp_path, capsys):
    from hamcompress.families import generalized_petersen, x_mnr
    from hamcompress.graph import emit_edgelist

    xmnr = tmp_path / "x.txt"
    xmnr.write_text(emit_edgelist(x_mnr(3, 7, 2).graph))
    gp = tmp_path / "gp.txt"
    gp.write_text(emit_edgelist(generalized_petersen(8, 3).graph))
    expected = [
        (["kappa", str(xmnr)], "kappa = 3 (exact)\n"),
        (["sem", str(xmnr)], "sem = [1, 3, 7] (|Aut| = 42)\n"),
        (["ham", str(xmnr)], "ham = [1, 3] (exact)\n"),
        (["lcf", str(gp)], "[-5, 5]^8\n"),
        (["lcf", _petersen_file(tmp_path)], "graph has no Hamilton cycle; no LCF word\n"),
    ]
    for argv, summary in expected:
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == summary, argv


def test_lcf_non_cubic_exit_2(tmp_path, capsys):
    """A star is not cubic, and neither is any graph on fewer than four
    vertices: the empty one is vacuously 3-regular but is refused with the
    same message."""
    from hamcompress.graph import Graph, emit_edgelist

    path = tmp_path / "g.txt"
    for g in (Graph.build(4, [(0, 1), (0, 2), (0, 3)]), Graph.build(0, []),
              Graph.build(1, []), Graph.build(2, [(0, 1)])):
        path.write_text(emit_edgelist(g))
        code = cli.main(["lcf", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", g.n
        assert captured.err == "error: LCF notation requires a cubic graph\n", g.n


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 0\n")
    code, _ = run_cli(capsys, "kappa", str(path))
    assert code == 2
    code, _ = run_cli(capsys, "kappa", str(tmp_path / "missing.txt"))
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("", "line 1: missing header"),
    ("-1 0\n", "line 1: negative count in header"),
    ("3 1\n0 x\n", "line 2: malformed edge '0 x'"),
    ("3 1\n0 5\n", "line 2: endpoint out of range"),
], ids=["empty", "negative-count", "malformed-edge", "endpoint-out-of-range"])
def test_edgelist_error_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code = cli.main(["kappa", str(path), "--quiet"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_edgelist_blank_line_is_skipped(tmp_path, capsys):
    path = tmp_path / "path.txt"
    path.write_text("3 2\n0 1\n\n1 2\n")
    code, out = run_cli(capsys, "kappa", str(path))
    assert code == 0 and json.loads(out)["graph"] == {"vertices": 3, "edges": 2}


@pytest.mark.parametrize("header", ["4611686018427387904 0", "100000000000000000000 0"],
                         ids=["2^62", "10^20"])
def test_oversized_header_exit_2(tmp_path, capsys, header):
    path = tmp_path / "big.txt"
    path.write_text(header + "\n")
    code = cli.main(["kappa", str(path), "--quiet"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: line 1:")
    assert header.split()[0] in captured.err


@pytest.mark.parametrize("flags, named", [
    (["--family", "orbit", "--m", "3", "--n", "7", "--r", "2", "--neighbors", "0"],
     "--neighbors: '0'"),
    (["--family", "orbit", "--m", "3", "--n", "7", "--r", "2", "--neighbors", "1:x"],
     "--neighbors: '1:x'"),
    (["--family", "circulant", "--n", "7", "--connection", "1,a"], "--connection: 'a'"),
], ids=["neighbors-without-colon", "neighbors-not-integer", "connection-not-integer"])
def test_construct_parse_error_names_flag_and_token(capsys, flags, named):
    code = cli.main(["construct", *flags, "--quiet"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize("connection", ["", ","], ids=["empty", "comma"])
def test_construct_cayleyp3_empty_word_exit_2(capsys, connection):
    """An empty --connection is the identity word, not a request for the
    default set."""
    code = cli.main(["construct", "--family", "cayleyp3", "--p", "3",
                     "--connection", connection, "--quiet"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: connection set contains the identity\n"


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


def test_verify_large_flag_is_gone_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--claim", "thm31", "--q", "3", "--p", "19", "--large", "--quiet"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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


def test_verify_time_budget_exit_3(capsys):
    code, out = run_cli(capsys, "verify", "--claim", "circulant", "--time-budget", "0")
    assert code == 3
    rep = json.loads(out)
    assert [r["status"] for r in rep["records"]] == ["unknown", "unknown"]


def test_verify_max_vertices_applies_to_every_claim(capsys):
    code, out = run_cli(capsys, "verify", "--claim", "prop42", "--max-vertices", "20")
    assert code == 3
    rep = json.loads(out)
    assert [r["status"] for r in rep["records"]] == ["unknown", "unknown"]


def test_verify_option_the_claim_does_not_take_exit_2(capsys):
    code, out = run_cli(capsys, "verify", "--claim", "circulant", "--k", "3")
    assert code == 2 and out == ""


@pytest.mark.parametrize("flags, named", [
    (["--time-budget", "-1"], "--time-budget"),
    (["--time-budget", "nan"], "--time-budget"),
    (["--max-vertices", "-1"], "--max-vertices"),
], ids=["negative-time", "nan-time", "negative-vertices"])
def test_verify_bad_budget_exit_2(capsys, flags, named):
    code = cli.main(["verify", "--claim", "circulant", *flags, "--quiet"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {named} ")


def test_records_serialise(capsys):
    code, out = run_cli(capsys, "verify", "--claim", "circulant")
    rep = json.loads(out)
    assert code == 0 and set(rep) == {"schema", "claim", "counts", "records"}
    for blob in rep["records"]:
        assert blob["status"] == "pass"
        assert set(blob) == {"claim", "params", "predicted", "computed",
                             "status", "seconds", "note"}


def test_probe_zsigma(capsys):
    code, out = run_cli(capsys, "probe-zsigma", "--q", "2", "--p", "13", "--t", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["sigma_is_automorphism"] is True and rep["map_order"] == 4
    code, out = run_cli(capsys, "probe-zsigma", "--q", "2", "--p", "17", "--t", "4")
    rep = json.loads(out)
    assert rep["sigma_is_automorphism"] is False
    assert any(p["automorphism"] for p in rep["powers"])  # some power still works


@pytest.mark.parametrize("argv, message", [
    (["probe-zsigma", "--q", "0", "--p", "13", "--t", "0"], "q and p must be prime"),
    (["construct", "--family", "zqp", "--q", "0", "--p", "13", "--t", "0"],
     "q and p must be prime"),
    (["construct", "--family", "gp", "--n", "5", "--r", "0"],
     "inner step must satisfy 1 <= r < n/2, got 0"),
], ids=["probe-q0-t0", "zqp-q0-t0", "gp-r0"])
def test_family_refusal_exit_2(capsys, argv, message):
    code = cli.main([*argv, "--quiet"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["probe-zsigma", "--q", "3", "--p", "19", "--t", "10000000"],
    ["construct", "--family", "yqp", "--q", "3", "--p", "19", "--t", "10000000"],
    ["construct", "--family", "zqp", "--q", "3", "--p", "19", "--t", "10000000"],
    ["verify", "--claim", "thm31", "--q", "3", "--p", "19", "--t", "10000000"],
], ids=["probe", "yqp", "zqp", "thm31"])
def test_huge_t_refused_without_computing_q_to_the_t(capsys, argv):
    """q^t = 3^(10^7) has millions of digits; the refusal names it as 3^10000000."""
    start = time.perf_counter()
    code = cli.main([*argv, "--quiet"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: q^t = 3^10000000 does not divide p - 1 = 18\n"
    assert elapsed < 0.5


def test_construct_stdout_roundtrip(capsys):
    code = cli.main(["construct", "--family", "petersen", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_edgelist(out) == petersen().graph


# one case per family of the CLI table: its flags and the library call they mean
CONSTRUCT_CASES = {
    "xmnr": (["--m", "3", "--n", "7", "--r", "2"], lambda: families.x_mnr(3, 7, 2)),
    "yqp": (["--q", "2", "--p", "13"], lambda: families.y_qp(2, 13)),
    "zqp": (["--q", "2", "--p", "17", "--t", "4"], lambda: families.z_qp(2, 17, 4)),
    "circulant": (["--n", "15", "--connection", "1,14"],
                  lambda: families.circulant(15, {1, 14})),
    "gp": (["--n", "13", "--r", "5"], lambda: families.generalized_petersen(13, 5)),
    "petersen": ([], families.petersen),
    "triple2p": (["--p", "5", "--outer", "1,4", "--inner", "1,4", "--spokes", "0,1,4"],
                 lambda: families.metacirculant_triple_2p(5, {1, 4}, {1, 4}, {0, 1, 4})),
    "cayleyp3": (["--p", "3", "--variant", "modular"],
                 lambda: families.cayley_p3(3, "modular")),
    "orbit": (["--m", "2", "--n", "13", "--r", "8", "--neighbors", "1:0,0:1,0:12"],
              lambda: families.metacirculant_orbit(2, 13, 8, [(1, 0), (0, 1), (0, 12)])),
}


def test_construct_cases_cover_the_family_table():
    assert list(CONSTRUCT_CASES) == list(cli.FAMILIES)


@pytest.mark.parametrize("family", list(cli.FAMILIES))
def test_construct_all_families(capsys, family):
    flags, build = CONSTRUCT_CASES[family]
    code = cli.main(["construct", "--family", family, *flags, "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_edgelist(out) == build().graph


def test_construct_triple2p_asymmetric_set_exit_2(capsys):
    code = cli.main(["construct", "--family", "triple2p", "--p", "5", "--outer", "1,4",
                     "--inner", "1", "--spokes", "0", "--quiet"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: S' is not symmetric\n"


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


@pytest.mark.parametrize("command", ["sem", "kappa"])
def test_search_deeper_than_recursion_limit_exit_2(tmp_path, capsys, command):
    """K_{2,1100} needs one nested search call per individualized vertex of
    its large side, since refinement splits nothing there, more than the
    interpreter's recursion limit: the CLI names n and the limit and exits 2
    instead of printing a traceback. The graph is connected with minimum
    degree 2, so lift-mode kappa cannot rule out a Hamilton cycle before the
    search."""
    path = tmp_path / "k2_1100.txt"
    path.write_text("1102 2200\n" + "".join(f"{h} {v}\n" for h in (0, 1) for v in range(2, 1102)))
    code = cli.main([command, str(path), "--quiet"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: automorphism search on 1102 vertices exceeds the "
                            f"recursion limit of {sys.getrecursionlimit()}\n")
    assert "Traceback" not in captured.err


def test_construct_out_of_memory_exit_2(capsys, monkeypatch):
    """A construction too large for memory, such as a circulant on 5*10^7
    vertices under a small address-space limit, ends in one error line and
    exit 2, not a traceback."""
    def exhausted(*_):
        raise MemoryError
    monkeypatch.setattr(families, "_grid_graph", exhausted)
    code = cli.main(["construct", "--family", "circulant", "--n", "50000000",
                     "--connection", "1,49999999", "--quiet"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: out of memory\n"
