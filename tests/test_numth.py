import pytest

from conftest import brute_is_prime
from hamcompress.numth import (
    divisors,
    element_of_order,
    factorize,
    is_prime,
    ord_mod,
    primes_in_ap,
    primitive_root,
)


def test_is_prime_matches_trial_division():
    for n in range(-3, 2000):
        assert is_prime(n) == brute_is_prime(n), n


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 + 1)
    assert is_prime(1_000_000_007)


def test_primes_in_ap_known_values():
    assert primes_in_ap(1, 3, 50) == [7, 13, 19, 31, 37, 43]
    assert primes_in_ap(1, 4, 30) == [5, 13, 17, 29]
    assert primes_in_ap(1, 2, 10) == [3, 5, 7]


def test_primes_in_ap_trial_division_recheck():
    for a, b in ((1, 5), (2, 9), (3, 10)):
        for p in primes_in_ap(a, b, 500):
            assert brute_is_prime(p)
            assert p % b == a % b


def test_primes_in_ap_rejects_shared_factor():
    with pytest.raises(ValueError):
        primes_in_ap(2, 4, 100)
    with pytest.raises(ValueError):
        primes_in_ap(1, 3, 1)


def test_ord_mod_values():
    assert ord_mod(2, 7) == 3  # 2^3 = 8 = 1 mod 7
    assert ord_mod(1, 12) == 1
    # direct exponentiation oracle: 8^2 = 12, 8^4 = 1 mod 13
    assert pow(8, 2, 13) == 12 and pow(8, 4, 13) == 1
    assert ord_mod(8, 13) == 4


def test_ord_mod_exhaustive_small():
    import math

    for n in range(2, 40):
        for r in range(1, n):
            if math.gcd(r, n) != 1:
                with pytest.raises(ValueError):
                    ord_mod(r, n)
                continue
            e = ord_mod(r, n)
            assert pow(r, e, n) == 1
            assert all(pow(r, d, n) != 1 for d in range(1, e))


def test_primitive_root_least_generator():
    # exhaustive least-generator oracle
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        expected = next(
            g for g in range(1, p)
            if all(pow(g, d, p) != 1 for d in range(1, p - 1))
        )
        assert primitive_root(p) == expected
    assert primitive_root(13) == 2


def test_element_of_order():
    # lambda = 3 is the least primitive root mod 7; 3^2 = 2
    assert primitive_root(7) == 3
    assert element_of_order(3, 7) == 2
    for p in (5, 7, 11, 13, 31, 41):
        for k in divisors(p - 1):
            x = element_of_order(k, p)
            assert pow(x, k, p) == 1
            for d in range(1, k):
                if k % d == 0:
                    assert pow(x, d, p) != 1
        assert element_of_order(p - 1, p) == primitive_root(p)
    with pytest.raises(ValueError):
        element_of_order(4, 7)


def test_factorize_divisors():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    for n in range(1, 200):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
