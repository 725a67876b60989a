"""Permutations as dense image tables on {0, ..., n-1}.

A permutation is a plain tuple of images; ``compose(a, b)`` applies b first,
then a, so ``compose(a, b)[x] == a[b[x]]``. ``orbits(a)`` returns the cycles
of a as vertex tuples.
"""

from __future__ import annotations

import math
from operator import itemgetter, ne

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} vs {len(b)}")
    if len(b) < 2:  # itemgetter returns a scalar for one index, raises for none
        return tuple(a[x] for x in b)
    return itemgetter(*b)(a)


def inverse(a: Perm) -> Perm:
    """The inverse of a; ValueError when a repeats an image or has one
    outside 0..n-1, so a is no permutation."""
    out = [-1] * len(a)
    try:
        for i, v in enumerate(a):
            out[v] = i
    except IndexError:  # an image >= n or < -n
        raise ValueError("not a permutation") from None
    if -1 in out or min(a, default=0) < 0:  # a repeat leaves a slot unset
        raise ValueError("not a permutation")
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
    """The cycles of a, each starting at its least vertex and following a,
    in ascending order of that vertex; ValueError when a walk reaches an
    image >= n or does not close at its start, so a is no permutation."""
    seen = bytearray(len(a))
    out = []
    for v in range(len(a)):
        if seen[v]:
            continue
        seen[v] = 1
        cyc = [v]
        w = a[v]
        try:
            while not seen[w]:
                seen[w] = 1
                cyc.append(w)
                w = a[w]
        except IndexError:  # an image >= n
            raise ValueError("not a permutation") from None
        if w != v:
            raise ValueError("not a permutation")
        out.append(tuple(cyc))
    return tuple(out)


def order(a: Perm) -> int:
    """Least e >= 1 with a**e the identity (lcm of cycle lengths)."""
    return math.lcm(*map(len, orbits(a)))


def semiregular_order(a: Perm) -> int:
    """k when every cycle of a has length k, else 0 (1 for the identity, 0
    when a is no permutation).

    The cycle of 0 gives k, and a is rejected unless k divides n; each other
    cycle's walk stops once it passes k steps or closes at another length.
    """
    n = len(a)
    seen = bytearray(n)
    k = 0
    for v in range(n):
        if seen[v]:
            continue
        seen[v] = 1
        length, w = 1, a[v]
        try:
            while w != v and length != k and not seen[w]:  # seen: a repeats an image
                seen[w] = 1
                w = a[w]
                length += 1
        except IndexError:  # an image >= n
            return 0
        if w != v or n % length or k and length != k:
            return 0
        k = length
    return k or 1


def is_semiregular(a: Perm, k: int) -> bool:
    """True iff every orbit of a has length exactly k."""
    if k < 1:
        raise ValueError("orbit length must be positive")
    return semiregular_order(a) == k


def is_fixed_point_free(a: Perm) -> bool:
    return all(map(ne, a, range(len(a))))
