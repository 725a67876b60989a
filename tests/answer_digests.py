"""Answer digests: every answer class of the library, per graph, as a short
hash of its canonical JSON, compared against the committed
tests/answer_digests.json by tests/test_answer_digests.py.

A change that moves answers on purpose regenerates the file, from the
repository root, with

    PYTHONPATH=src python3 tests/answer_digests.py --write

and says in CHANGES.md which classes moved and in how many entries (diff
the file). Without --write the script prints the classes whose digests
differ from the file and exits 1 when any does.

Answer classes, each digested on its own:
- group: generators in order, order, and the sorted element list (None
  when capped)
- sem: Sem values with their witnesses and the exact flag
- classes: `_semiregular_classes`, each leader with its conjugators in
  search order (uncapped groups)
- regular: the regular subgroups in the order the search yields them,
  each as its sorted element list (None when capped)
- lift: lift-mode kappa, exact flag and certificate
- ham: the full Ham array, with each value's certificate (enum-ham pool
  and thm43)
- ham-cut: Ham arrays cut at limits 1-11 (enum-ham pool, not relabelled)
- claims: the records of each `verify --claim` run at its default options,
  in order, without `seconds` (keyed by claim, not by graph)

Corpus: the three benchmark pools (hcbench/pools.py), one seeded relabelled
copy of each (names prefixed "r:"), the thm43 claim's graphs, the capped
graphs K7,7, K10, 4K4, 3K5, K12 and 3K6, and the large uncapped groups of
K8, K4,4, 4K3, GP(50, 1) and 3K4 (group, sem, classes and regular subgroups
only; 3K4, whose regular search takes seconds, without the last). Canonical
JSON has sorted keys, tuples as lists and dict keys as strings, so a renamed
field reads as a moved class, not a moved answer.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path

from hamcompress import families, verify
from hamcompress.autgroup import (
    _regular_search,
    _semiregular_classes,
    automorphism_group,
    sem_array,
)
from hamcompress.compression import ham_array, hamilton_compression
from hamcompress.graph import Graph

ROOT = Path(__file__).resolve().parents[1]
DIGEST_FILE = Path(__file__).with_name("answer_digests.json")
RELABEL_SEED = 7
CUT_LIMITS = range(1, 12)


def bench_pools() -> dict[str, list[tuple[str, Graph]]]:
    """The (name, graph) pool of each benchmark workload."""
    spec = importlib.util.spec_from_file_location("bench_pools", ROOT / "hcbench" / "pools.py")
    pools = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pools)
    return {w: pools.build_pool(w, families) for w in pools.WORKLOADS}


def relabelled(pool: list[tuple[str, Graph]], seed: int) -> list[tuple[str, Graph]]:
    """Each graph of the pool under a seeded random vertex permutation."""
    rng = random.Random(seed)
    out = []
    for name, g in pool:
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append((f"r:{name}", Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])))
    return out


def _cliques(copies: int, size: int) -> Graph:
    return Graph.build(copies * size, [
        (c * size + u, c * size + v)
        for c in range(copies) for u, v in itertools.combinations(range(size), 2)])


def _biclique(a: int) -> Graph:
    return Graph.build(2 * a, [(u, a + v) for u in range(a) for v in range(a)])


def capped_graphs() -> list[tuple[str, Graph]]:
    return [("K7,7", _biclique(7)), ("K10", _cliques(1, 10)), ("4K4", _cliques(4, 4)),
            ("3K5", _cliques(3, 5)), ("K12", _cliques(1, 12)), ("3K6", _cliques(3, 6))]


def large_graphs() -> list[tuple[str, Graph]]:
    """Uncapped groups far above the pools' orders (|Aut| 40 320, 1 152,
    31 104, 200 and 82 944)."""
    return [("K8", _cliques(1, 8)), ("K4,4", _biclique(4)), ("4K3", _cliques(4, 3)),
            ("GP(50,1)", families.generalized_petersen(50, 1).graph), ("3K4", _cliques(3, 4))]


def corpus() -> dict[str, list[tuple[str, Graph]]]:
    """The graphs of each pool with its relabelled copy, the thm43 graphs,
    the capped graphs and the large ones, each labelled "<pool>/<name>"."""
    out = {w: pool + relabelled(pool, RELABEL_SEED) for w, pool in bench_pools().items()}
    out["thm43"] = [(name, inst.graph) for name, inst in verify._thm43_corpus()]
    out["capped"] = capped_graphs()
    out["large"] = large_graphs()
    return {w: [(f"{w}/{label}", g) for label, g in graphs] for w, graphs in out.items()}


def _cert(c):
    return None if c is None else {"cycle": c.cycle, "k": c.k, "shift": c.shift,
                                   "witness": c.witness}


def _ham(arr):
    return {"exact": arr.exact, "values": arr.values,
            "certificates": sorted((k, _cert(c)) for k, c in arr.certificates.items())}


def answers(pools: dict[str, list[tuple[str, Graph]]]) -> dict[str, dict[str, object]]:
    """Every answer of every class, keyed by class and then by graph label."""
    out: dict[str, dict[str, object]] = {c: {} for c in (
        "group", "sem", "classes", "regular", "lift", "ham", "ham-cut")}
    for workload, graphs in pools.items():
        for label, g in graphs:
            group = automorphism_group(g)
            out["group"][label] = {"generators": group.generators, "order": group.order,
                                   "elements": group.elements}
            sem = sem_array(g, group=group)
            out["sem"][label] = {"values": sem.values, "exact": sem.exact,
                                 "witnesses": sorted(sem.witnesses.items())}
            if group.capped:
                out["regular"][label] = None
            else:
                out["classes"][label] = [
                    (k, sorted(leaders.items())) for k, leaders in _semiregular_classes(group).items()]
                if label != "large/3K4":  # its regular search alone takes about 2 s
                    out["regular"][label] = [sorted(h) for h in _regular_search(group, g.n)]
            if workload == "large":
                continue
            res = hamilton_compression(g)
            out["lift"][label] = {"kappa": res.kappa, "exact": res.exact,
                                  "certificate": _cert(res.certificate)}
            if workload in ("enum-ham", "thm43"):
                out["ham"][label] = _ham(ham_array(g))
            if workload == "enum-ham" and "/r:" not in label:
                out["ham-cut"][label] = [_ham(ham_array(g, limit)) for limit in CUT_LIMITS]
    return out


def claim_records() -> dict[str, list[dict]]:
    """The records of each claim's run at its default options, without the
    run time."""
    return {claim: [{k: v for k, v in asdict(r).items() if k != "seconds"}
                    for r in verify.run_claim(claim)] for claim in verify.CLAIMS}


def short_hash(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(pools: dict[str, list[tuple[str, Graph]]] | None = None) -> dict:
    """{class: {"digest": hash of its entries, "entries": {label: hash}}}."""
    out = {}
    classes = answers(corpus() if pools is None else pools)
    classes["claims"] = claim_records()
    for cls, entries in classes.items():
        hashed = {label: short_hash(value) for label, value in entries.items()}
        out[cls] = {"digest": short_hash(hashed), "entries": hashed}
    return out


def moved(found: dict, pinned: dict) -> dict[str, list[str]]:
    """Per class whose digest differs, the labels whose entries differ
    (added and dropped labels too)."""
    out = {}
    for cls in sorted(found.keys() | pinned.keys()):
        a, b = found.get(cls, {}), pinned.get(cls, {})
        if a.get("digest") != b.get("digest"):
            ea, eb = a.get("entries", {}), b.get("entries", {})
            out[cls] = sorted(k for k in ea.keys() | eb.keys() if ea.get(k) != eb.get(k))
    return out


def main(argv: list[str]) -> int:
    found = digests()
    if argv == ["--write"]:
        DIGEST_FILE.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
        return 0
    diff = moved(found, json.loads(DIGEST_FILE.read_text()))
    for cls, labels in diff.items():
        print(f"{cls}: {len(labels)} of {len(found.get(cls, {}).get('entries', {}))} entries "
              f"moved: {', '.join(labels[:10])}{' ...' if len(labels) > 10 else ''}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
