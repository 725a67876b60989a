"""Permutations as dense image tables on {0, ..., n-1}.

A permutation is a plain tuple of images; ``compose(a, b)`` applies b first,
then a, so ``compose(a, b)[x] == a[b[x]]``; ``precompose(b)`` is that map of
a for one fixed b, its image getter built once. ``orbits(a)`` returns the
cycles of a as vertex tuples. ``is_permutation`` is the one validity test;
``_cycle_length`` is ``semiregular_order`` without it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from operator import itemgetter

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} vs {len(b)}")
    return precompose(b)(a)


def precompose(b: Perm) -> Callable[[Perm], Perm]:
    """The map a -> compose(a, b) on permutations of b's degree, which it
    does not check: b's image getter, built once for a loop that composes
    many a with one b."""
    if len(b) < 2:  # itemgetter returns a scalar for one index, raises for none
        return lambda a: tuple(a[x] for x in b)
    return itemgetter(*b)


def is_permutation(a) -> bool:
    """True iff the sorted images of a are exactly 0..len(a)-1."""
    return sorted(a) == list(range(len(a)))


def inverse(a: Perm) -> Perm:
    """The inverse of a; ValueError when a is no permutation."""
    if not is_permutation(a):
        raise ValueError("not a permutation")
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def power(a: Perm, e: int) -> Perm:
    if e < 0:
        a, e = inverse(a), -e
    result = identity(len(a))
    base = a
    while e:
        if e & 1:
            result = compose(base, result)
        base = compose(base, base)
        e >>= 1
    return result


def orbits(a: Perm) -> tuple[tuple[int, ...], ...]:
    """The cycles of a, each from its least vertex following a, ascending by
    that vertex; ValueError when a is no permutation."""
    if not is_permutation(a):
        raise ValueError("not a permutation")
    seen = bytearray(len(a))
    out = []
    for v in range(len(a)):
        if seen[v]:
            continue
        cyc, w = [v], a[v]
        while w != v:
            seen[w] = 1
            cyc.append(w)
            w = a[w]
        out.append(tuple(cyc))
    return tuple(out)


def order(a: Perm) -> int:
    """Least e >= 1 with a**e the identity (lcm of cycle lengths)."""
    return math.lcm(*map(len, orbits(a)))


def semiregular_order(a: Perm) -> int:
    """k when every cycle of a has length k, else 0 (1 for the identity, 0
    when a is no permutation)."""
    return _cycle_length(a) if is_permutation(a) else 0


def _cycle_length(a: Perm) -> int:
    """`semiregular_order` of a, unchecked: a must be a permutation. 0's
    cycle, walked bare, gives k; refused unless k divides n, and with 0 fixed
    unless a is the identity. An n-cycle needs no second pass; else each
    cycle's walk marks it and stops past k steps or at another length."""
    n = len(a)
    k, w = 1, a[0] if n else 0  # n = 0: the identity
    while w:
        w = a[w]
        k += 1
    if n % k or k == 1 and a != tuple(range(n)):
        return 0
    if k in (1, n):
        return k
    seen = bytearray(n)
    for v in range(n):
        if seen[v]:
            continue
        length, w = 1, a[v]
        while w != v and length != k:
            seen[w] = 1
            w = a[w]
            length += 1
        if w != v or length != k:
            return 0
    return k


def is_semiregular(a: Perm, k: int) -> bool:
    """True iff every orbit of a has length exactly k."""
    if k < 1:
        raise ValueError("orbit length must be positive")
    return semiregular_order(a) == k
