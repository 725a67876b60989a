"""Command-line surface: construct, kappa, sem, ham, lcf, verify, probe-zsigma.

Reports go to stdout as JSON (schema 1, arrays ascending); a human summary
goes to stderr unless --quiet. The JSON views of permutations, groups,
certificates and records live here only; the graph commands are one report
function each, all run by run_report. Exit codes: 0 all pass, 1 any fail,
2 input error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from . import families
from . import verify as verify_mod
from .autgroup import automorphism_group, sem_array
from .compression import (
    CompressionCertificate,
    check_cubic,
    ham_array,
    hamilton_compression,
    lcf_compressed,
)
from .graph import emit_edgelist, parse_edgelist
from .hamlift import ENUM_LIMIT

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

CLAIM_OPTIONS = ("k", "p_max", "q", "p", "t")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _emit(payload: dict) -> None:
    print(json.dumps({"schema": 1, **payload}, indent=2, sort_keys=True))


def _perm_text(p) -> str:
    """A permutation as one line: its space-separated image list."""
    return " ".join(map(str, p))


def _cert_json(cert: CompressionCertificate | None) -> dict | None:
    if cert is None:
        return None
    return {
        "kappa": cert.k,
        "cycle": list(cert.cycle),
        "shift": cert.shift,
        "witness": list(cert.witness),
    }


def _parse_int_set(text: str, flag: str) -> set[int]:
    out = set()
    for tok in text.replace(",", " ").split():
        try:
            out.add(int(tok))
        except ValueError:
            raise ValueError(f"--{flag}: {tok!r} is not an integer") from None
    return out


def _parse_neighbors(text: str) -> list[tuple[int, int]]:
    pairs = []
    for tok in text.split(","):
        try:
            i, j = (int(x) for x in tok.split(":"))
        except ValueError:
            raise ValueError(f"--neighbors: {tok.strip()!r} is not an i:j pair") from None
        pairs.append((i, j))
    return pairs


# family name -> (flags it requires, constructor call on the parsed arguments)
FAMILIES = {
    "xmnr": (("m", "n", "r"), lambda a: families.x_mnr(a.m, a.n, a.r)),
    "yqp": (("q", "p"), lambda a: families.y_qp(a.q, a.p, a.t)),
    "zqp": (("q", "p"), lambda a: families.z_qp(a.q, a.p, a.t)),
    "circulant": (("n", "connection"),
                  lambda a: families.circulant(a.n, _parse_int_set(a.connection, "connection"))),
    "gp": (("n", "r"), lambda a: families.generalized_petersen(a.n, a.r)),
    "petersen": ((), lambda a: families.petersen()),
    "triple2p": (("p", "outer", "inner", "spokes"),
                 lambda a: families.metacirculant_triple_2p(
                     a.p, _parse_int_set(a.outer, "outer"), _parse_int_set(a.inner, "inner"),
                     _parse_int_set(a.spokes, "spokes"))),
    "cayleyp3": (("p",), lambda a: families.cayley_p3(
        a.p, a.variant,
        tuple(a.connection.split(","))
        if a.connection is not None else families.P3_DEFAULT_CONNECTION)),
    "orbit": (("m", "n", "r", "neighbors"),
              lambda a: families.metacirculant_orbit(
                  a.m, a.n, a.r, _parse_neighbors(a.neighbors))),
}


def cmd_construct(args) -> int:
    required, build = FAMILIES[args.family]
    missing = [name for name in required if getattr(args, name) is None]
    if missing:
        raise ValueError(
            f"family {args.family!r} needs " + ", ".join(f"--{m}" for m in missing))
    inst = build(args)
    text = emit_edgelist(inst.graph)
    sidecar = {
        "schema": 1,
        "params": inst.params,
        "labeling": {"m": inst.m, "n": inst.n},
        "rho": _perm_text(inst.rho),
        "sigma": _perm_text(inst.sigma) if inst.sigma is not None else None,
        "vertices": inst.graph.n,
        "edges": inst.graph.m,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _say(args, f"wrote {inst.graph.n} vertices / {inst.graph.m} edges to {args.out}")
    else:
        sys.stdout.write(text)
        _say(args, json.dumps(sidecar, sort_keys=True))
    return EXIT_OK


def report_kappa(g, args):
    res = hamilton_compression(g, args.mode, limit=args.limit)
    payload = {"mode": args.mode, "kappa": res.kappa, "exact": res.exact,
               "certificate": _cert_json(res.certificate)}
    if args.mode == "lift" and not res.exact:
        payload["note"] = "lower bound only on the k>=2 sweep"
    return payload, f"kappa = {res.kappa} ({'exact' if res.exact else 'bound'})"


def report_sem(g, args):
    grp = automorphism_group(g)
    res = sem_array(g, group=grp)
    group = {"order": grp.order, "capped": grp.capped,
             "generators": [list(gen) for gen in grp.generators]}
    witnesses = {str(k): _perm_text(p) for k, p in sorted(res.witnesses.items())}
    return ({"sem": list(res.values), "exact": res.exact, "witnesses": witnesses, "group": group},
            f"sem = {list(res.values)} (|Aut| = {grp.order})")


def report_ham(g, args):
    res = ham_array(g, limit=args.limit)
    certificates = {str(k): _cert_json(c) for k, c in sorted(res.certificates.items())}
    return ({"ham": list(res.values), "exact": res.exact, "certificates": certificates},
            f"ham = {list(res.values)} ({'exact' if res.exact else 'partial'})")


def report_lcf(g, args):
    check_cubic(g)
    res = hamilton_compression(g, "lift")
    if res.certificate is None:
        return {"kappa": 0, "lcf": None}, "graph has no Hamilton cycle; no LCF word"
    block, repeat = lcf_compressed(g, res.certificate)
    text = "[" + ", ".join(map(str, block)) + "]" + (f"^{repeat}" if repeat > 1 else "")
    return ({"kappa": res.kappa, "cycle": list(res.certificate.cycle), "lcf": list(block * repeat),
             "block": list(block), "repeat": repeat, "text": text}, text)


def run_report(args) -> int:
    """The one path of the graph commands: load the file, time the report,
    print it with the graph's size and the seconds, then the summary."""
    with open(args.graph, encoding="utf-8") as fh:
        g = parse_edgelist(fh.read())
    start = time.monotonic()
    payload, summary = args.report(g, args)
    _emit({**payload, "graph": {"vertices": g.n, "edges": g.m},
           "seconds": round(time.monotonic() - start, 3)})
    _say(args, summary)
    return EXIT_OK


def cmd_verify(args) -> int:
    budget = verify_mod.Budget(time_budget=args.time_budget, max_vertices=args.max_vertices)
    options = {name: getattr(args, name) for name in CLAIM_OPTIONS if hasattr(args, name)}
    records = verify_mod.run_claim(args.claim, budget=budget, **options)
    counts = {status: sum(1 for r in records if r.status == status)
              for status in (verify_mod.PASS, verify_mod.FAIL,
                             verify_mod.DISCREPANCY, verify_mod.UNKNOWN)}
    _emit({"claim": args.claim, "counts": counts,
           "records": [{**asdict(r), "seconds": round(r.seconds, 3)} for r in records]})
    for rec in records:
        _say(args, f"{rec.claim} {rec.params}: {rec.status} "
                   f"(predicted {rec.predicted}, computed {rec.computed})")
    if any(r.status == verify_mod.FAIL for r in records):
        return EXIT_FAIL
    if any(r.status == verify_mod.UNKNOWN and "budget" in r.note for r in records):
        return EXIT_BUDGET
    return EXIT_OK


def cmd_probe_zsigma(args) -> int:
    record = verify_mod.probe_zsigma(args.q, args.p, args.t)
    _emit(record)
    _say(args, f"twisted rotation preserves edges: {record['sigma_is_automorphism']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamcompress",
        description="Metacirculant families and Hamilton-compression invariants")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", parents=[common],
                       help="build a family instance as an edge-list file")
    c.add_argument("--family", required=True, choices=list(FAMILIES))
    c.add_argument("--m", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--r", type=int)
    c.add_argument("--q", type=int)
    c.add_argument("--p", type=int)
    c.add_argument("--t", type=int, default=2)
    c.add_argument("--connection", help="comma/space separated residues or words")
    c.add_argument("--outer", help="triple2p: outer step set S")
    c.add_argument("--inner", help="triple2p: inner step set S'")
    c.add_argument("--spokes", help="triple2p: spoke offset set T")
    c.add_argument("--variant", choices=["heisenberg", "modular"], default="heisenberg")
    c.add_argument("--neighbors", help="orbit: comma list of i:j neighbour coordinates")
    c.add_argument("--out", help="output path (stdout when omitted)")
    c.set_defaults(func=cmd_construct)

    def graph_command(name, report, help_text):
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        cmd.add_argument("graph")
        cmd.set_defaults(func=run_report, report=report)
        return cmd

    k = graph_command("kappa", report_kappa, "Hamilton compression of a graph file")
    k.add_argument("--mode", choices=["lift", "exhaustive"], default="lift")
    k.add_argument("--limit", type=int, default=ENUM_LIMIT)
    graph_command("sem", report_sem, "semiregularity array of a graph file")
    h = graph_command("ham", report_ham, "compression array over all Hamilton cycles")
    h.add_argument("--limit", type=int, default=ENUM_LIMIT)
    graph_command("lcf", report_lcf, "LCF word of a cubic graph along its best cycle")

    # claim options default to absent, so a claim gets only the options given
    # and keeps its own defaults
    v = sub.add_parser("verify", parents=[common], help="run a named verification claim",
                       argument_default=argparse.SUPPRESS)
    v.add_argument("--claim", required=True, choices=sorted(verify_mod.CLAIMS))
    v.add_argument("--k", type=int, help="thm22: restrict to one compression value")
    v.add_argument("--p-max", dest="p_max", type=int, help="thm22: prime search limit")
    v.add_argument("--q", type=int, help="thm31")
    v.add_argument("--p", type=int, help="thm31")
    v.add_argument("--t", type=int, help="thm31")
    v.add_argument("--time-budget", type=float, default=verify_mod.DEFAULT_TIME_BUDGET,
                   help="seconds allowed per instance")
    v.add_argument("--max-vertices", type=int, default=verify_mod.DEFAULT_MAX_VERTICES)
    v.set_defaults(func=cmd_verify)

    z = sub.add_parser("probe-zsigma", parents=[common], help="record twisted-rotation behaviour of z_qp")
    z.add_argument("--q", type=int, required=True)
    z.add_argument("--p", type=int, required=True)
    z.add_argument("--t", type=int, required=True)
    z.set_defaults(func=cmd_probe_zsigma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
