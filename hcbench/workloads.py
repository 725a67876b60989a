"""Operations, answer checks and input schedule of the three workloads.

Each operation is one user-level call on a freshly relabelled pool graph.
Its answer is compared with the pinned, relabelling-invariant values of
pins.json, and every certificate or witness it returns is replayed. Checks
run outside the timed span.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

# Fractional part of the golden ratio: consecutive multiples mod 1 spread
# evenly over [0, 1), so every prefix of a pass mixes cheap and costly
# instances in about their pool proportions.
_GOLDEN = 0.6180339887498949


class Mismatch(Exception):
    """An answer differs from its pin, or a certificate does not replay."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def op_lift(hc: SimpleNamespace, g):
    return hc.compression.hamilton_compression(g)


def op_enum(hc: SimpleNamespace, g):
    return hc.compression.ham_array(g)


def op_group(hc: SimpleNamespace, g):
    group = hc.autgroup.automorphism_group(g)
    sem = hc.autgroup.sem_array(g, group=group)
    regular = hc.autgroup.regular_subgroups(g, group=group)
    return group, sem, regular


def _replay(hc: SimpleNamespace, g, cert, k: int) -> None:
    hc.hamlift.check_hamcycle(g, cert.cycle)
    _expect(hc.compression.cycle_compression(g, cert.cycle).k == k, f"cycle replays to k != {k}")
    _expect(cert.k == k, f"certificate k {cert.k} != {k}")
    _expect(hc.autgroup.is_automorphism(g, cert.witness), "rotation witness is not an automorphism")


def check_lift(hc: SimpleNamespace, g, res, pin: dict) -> None:
    _expect(res.exact, "lift result marked inexact")
    _expect(res.kappa == pin["kappa"], f"kappa {res.kappa} != pinned {pin['kappa']}")
    _expect(res.certificate is not None, "no certificate")
    _replay(hc, g, res.certificate, res.kappa)


def check_enum(hc: SimpleNamespace, g, res, pin: dict) -> None:
    _expect(res.exact, "enumeration hit its limit")
    _expect(list(res.values) == pin["ham"], f"Ham {list(res.values)} != pinned {pin['ham']}")
    for k, cert in res.certificates.items():
        _replay(hc, g, cert, k)


def check_group(hc: SimpleNamespace, g, res, pin: dict) -> None:
    group, sem, regular = res
    _expect(not group.capped and sem.exact, "group enumeration capped")
    _expect(group.order == pin["aut_order"], f"|Aut| {group.order} != pinned {pin['aut_order']}")
    _expect(list(sem.values) == pin["sem"], f"Sem {list(sem.values)} != pinned {pin['sem']}")
    for k, w in sem.witnesses.items():
        _expect(hc.autgroup.is_automorphism(g, w), f"Sem witness {k} is not an automorphism")
        _expect(hc.perm.order(w) == k and hc.perm.is_semiregular(w, k),
                f"Sem witness {k} is not semiregular of order {k}")
    _expect(regular is not None, "regular-subgroup status unknown")
    _expect(len(regular) == pin["regular_count"],
            f"{len(regular)} regular subgroups != pinned {pin['regular_count']}")
    _expect(("yes" if regular else "no") == pin["is_cayley"], "is_cayley verdict differs")


OPS = {
    "lift-xmnr": (op_lift, check_lift),
    "enum-ham": (op_enum, check_enum),
    "group-cayley": (op_group, check_group),
}


def relabel(hc: SimpleNamespace, g, rng: random.Random):
    """g under a uniformly random vertex permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    rows = [0] * g.n
    for u, row in enumerate(g.rows):
        img = 0
        for v in hc.graph.bits(row):
            img |= 1 << perm[v]
        rows[perm[u]] = img
    return hc.graph.Graph(g.n, tuple(rows), g.m)


def schedule(hc: SimpleNamespace, pool: list, costs: list, seed: int):
    """Endless (pool index, relabelled graph) stream, one pool pass at a time.

    Each pass visits every instance once, in an order that the seed shifts
    along a golden-ratio sequence laid over the instances sorted by pinned
    cost, so a run that ends mid-pass still holds a representative mix.
    """
    rng = random.Random(seed)
    by_cost = sorted(range(len(pool)), key=lambda i: (costs[i], pool[i][0]))
    while True:
        shift = rng.random()
        key = {i: (j * _GOLDEN + shift) % 1.0 for j, i in enumerate(by_cost)}
        for i in sorted(by_cost, key=key.__getitem__):
            yield i, relabel(hc, pool[i][1], rng)
