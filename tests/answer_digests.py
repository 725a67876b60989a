"""Answer digests: every answer class of the library, per graph, as a short
hash of its canonical JSON, compared against the committed
tests/answer_digests.json by tests/test_answer_digests.py.

A change that moves answers on purpose regenerates the file, from the
repository root, with

    PYTHONPATH=src python3 tests/answer_digests.py --write

and says in CHANGES.md which classes moved and in how many entries (diff
the file). Without --write the script prints the classes whose digests
differ from the file and exits 1 when any does. Both exit 2 without
networkx, which the atlas corpus needs.

Answer classes, each digested on its own:
- group: generators in order, order, and the sorted element list (None
  when capped)
- sem: Sem values with their witnesses and the exact flag
- classes: `_semiregular_classes`, each leader with its conjugators in
  search order (uncapped groups)
- regular: the regular subgroups in the order the search yields them,
  each as its sorted element list (None when capped)
- lift: lift-mode kappa, exact flag and certificate
- ham: the full Ham array, with each value's certificate (enum-ham pool,
  thm43 and the censuses; on the circulants and GP at their limit of
  50 000)
- ham-cut: Ham arrays cut at limits 1-11 (enum-ham pool, not relabelled)
- claims: the records of each `verify --claim` run at its default options,
  in order, without `seconds` (keyed by claim, not by graph)

Corpus (corpora.CORPORA, each graph labelled "<corpus>/<name>"): the three
benchmark pools (hcbench/pools.py), each with one seeded relabelled copy
(names prefixed "r:"); the thm43 claim's graphs; the capped graphs K7,7,
K10, 4K4, 3K5, K12 and 3K6; the large uncapped groups of K8, K4,4, 4K3,
GP(50, 1) and 3K4 (group, sem, classes and regular subgroups only; 3K4,
whose regular search takes seconds, without the last); and the 1 584
census graphs: the 1 253 atlas graphs, 110 random Cayley graphs, 72
circulants, 56 GP(n, r), the 16-graph small corpus and the 77 p = 5
triples. The answers come from one `corpora.AnswerTable`, which the census
suites read too. Canonical JSON has sorted keys, tuples as lists and dict
keys as strings, so a renamed field reads as a moved class, not a moved
answer.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from dataclasses import asdict
from pathlib import Path

from corpora import CORPORA, AnswerTable
from hamcompress import verify

DIGEST_FILE = Path(__file__).with_name("answer_digests.json")
CLASSES = ("group", "sem", "classes", "regular", "lift", "ham", "ham-cut")
NO_HAM = ("lift-xmnr", "group-cayley", "capped", "large")  # corpora without the ham class


def _cert(c):
    return None if c is None else {"cycle": c.cycle, "k": c.k, "shift": c.shift,
                                   "witness": c.witness}


def _ham(arr):
    return {"exact": arr.exact, "values": arr.values,
            "certificates": sorted((k, _cert(c)) for k, c in arr.certificates.items())}


def answers(table: AnswerTable, name: str) -> dict[str, dict[str, object]]:
    """Every answer of every class over one corpus, keyed by class and then
    by graph label."""
    out: dict[str, dict[str, object]] = {c: {} for c in CLASSES}
    for label, ans in table[name].items():
        key = f"{name}/{label}"
        group = ans.group
        out["group"][key] = {"generators": group.generators, "order": group.order,
                             "elements": ans.elements}
        sem = ans.sem
        out["sem"][key] = {"values": sem.values, "exact": sem.exact,
                           "witnesses": sorted(sem.witnesses.items())}
        if ans.classes is not None:
            out["classes"][key] = [(k, sorted(leaders.items())) for k, leaders in ans.classes.items()]
        if key != "large/3K4":  # its regular search alone takes about 2 s
            out["regular"][key] = ans.regular
        if name == "large":
            continue
        res = ans.lift
        out["lift"][key] = {"kappa": res.kappa, "exact": res.exact,
                            "certificate": _cert(res.certificate)}
        if name not in NO_HAM:
            out["ham"][key] = _ham(ans.ham)
        if name == "enum-ham" and not label.startswith("r:"):
            out["ham-cut"][key] = [_ham(arr) for arr in ans.ham_cut]
    return out


def claim_records() -> dict[str, list[dict]]:
    """The records of each claim's run at its default options, without the
    run time."""
    return {claim: [{k: v for k, v in asdict(r).items() if k != "seconds"}
                    for r in verify.run_claim(claim)] for claim in verify.CLAIMS}


def short_hash(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def hashed(entries: dict[str, dict[str, object]]) -> dict[str, dict[str, str]]:
    """Each class's entries as {label: hash}, classes without entries left
    out."""
    return {cls: {label: short_hash(value) for label, value in values.items()}
            for cls, values in entries.items() if values}


def pinned_entries(pinned: dict, name: str) -> dict[str, dict[str, str]]:
    """The committed {class: {label: hash}} of one corpus (the claims are
    keyed by claim, not by graph)."""
    out = {cls: {label: h for label, h in found["entries"].items()
                 if label.split("/", 1)[0] == name}
           for cls, found in pinned.items() if cls != "claims"}
    return {cls: entries for cls, entries in out.items() if entries}


def digests(table: AnswerTable) -> dict:
    """{class: {"digest": hash of its entries, "entries": {label: hash}}}
    over every corpus, with the claim records."""
    classes: dict[str, dict[str, str]] = {"claims": hashed({"claims": claim_records()})["claims"]}
    for name in CORPORA:
        for cls, entries in hashed(answers(table, name)).items():
            classes.setdefault(cls, {}).update(entries)
    return {cls: {"digest": short_hash(entries), "entries": entries}
            for cls, entries in classes.items()}


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
    if importlib.util.find_spec("networkx") is None:
        print("error: the atlas corpus needs networkx; no digests computed", file=sys.stderr)
        return 2
    found = digests(AnswerTable())
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
