"""Modular arithmetic, prime search, and primitive roots.

Everything here targets desk-scale integers (64-bit at most); primality is
deterministic, never probabilistic.
"""

from __future__ import annotations

import math

# Witness set making Miller-Rabin deterministic for all 64-bit integers.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_ap(a: int, b: int, limit: int) -> list[int]:
    """Primes p <= limit with p congruent to a mod b, ascending."""
    if b < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(a, b) != 1:
        raise ValueError(f"gcd({a}, {b}) != 1: progression contains at most one prime")
    if limit < 2:
        raise ValueError("limit must be at least 2")
    first = a % b
    while first < 2:
        first += b
    return [p for p in range(first, limit + 1, b) if is_prime(p)]


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division."""
    if n < 1:
        raise ValueError("need a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def ord_mod(r: int, n: int) -> int:
    """Least e >= 1 with r**e == 1 (mod n)."""
    if n < 1:
        raise ValueError("modulus must be positive")
    if n == 1:
        return 1
    if math.gcd(r, n) != 1:
        raise ValueError(f"{r} is not a unit mod {n}")
    e, x = 1, r % n
    while x != 1:
        x = x * r % n
        e += 1
    return e


def primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod a prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ArithmeticError(f"no primitive root found mod {p}")  # unreachable


def element_of_order(k: int, p: int) -> int:
    """lambda**((p-1)/k) mod p for the least primitive root lambda; has exact order k."""
    root = primitive_root(p)  # refuses a p that is not prime
    if k < 1 or (p - 1) % k != 0:
        raise ValueError(f"{k} does not divide {p} - 1")
    return pow(root, (p - 1) // k, p)
