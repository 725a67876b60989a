import random

import pytest

from hamcompress.families import grid_rho
from hamcompress.perm import compose, identity, inverse, is_semiregular, orbits, order, power


def random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def test_group_laws_randomized():
    rng = random.Random(20240)
    for _ in range(200):
        n = rng.randrange(1, 12)
        a, b = random_perm(rng, n), random_perm(rng, n)
        assert compose(a, inverse(a)) == identity(n)
        assert compose(inverse(a), a) == identity(n)
        assert inverse(inverse(a)) == a
        # conjugate elements share an order, hence order(ab) = order(ba)
        assert order(compose(a, b)) == order(compose(b, a))


def test_compose_convention():
    a = (1, 2, 0)  # 0->1->2->0
    b = (0, 2, 1)  # swap 1,2
    assert compose(a, b) == tuple(a[b[x]] for x in range(3))
    with pytest.raises(ValueError):
        compose(a, (0, 1))


def test_power_and_order():
    assert order(identity(5)) == 1
    six_cycle = tuple((i + 1) % 6 for i in range(6))
    assert order(six_cycle) == 6
    assert power(six_cycle, 6) == identity(6)
    assert power(six_cycle, -1) == inverse(six_cycle)
    rng = random.Random(7)
    for _ in range(50):
        a = random_perm(rng, rng.randrange(1, 10))
        k = order(a)
        assert power(a, k) == identity(len(a))
        for d in range(1, k):
            if power(a, d) == identity(len(a)):
                pytest.fail("order not minimal")


def test_orbits_identity_and_transposition():
    part = orbits(identity(4))
    assert part.orbits == ((0,), (1,), (2,), (3,))
    swap = (1, 0, 2, 3)
    part = orbits(swap)
    assert sorted(len(o) for o in part.orbits) == [1, 1, 2]


def test_orbits_rotation_grid():
    # three rows of length seven, each an orbit traversed in application order
    rho = grid_rho(3, 7)
    part = orbits(rho)
    assert [len(o) for o in part.orbits] == [7, 7, 7]
    for orb in part.orbits:
        assert orb[0] == min(orb)
        for a, b in zip(orb, orb[1:]):
            assert rho[a] == b


def test_orbit_partition_covers_everything():
    rng = random.Random(99)
    for _ in range(100):
        a = random_perm(rng, rng.randrange(1, 15))
        part = orbits(a)
        flat = sorted(v for orb in part.orbits for v in orb)
        assert flat == list(range(len(a)))
        for idx, orb in enumerate(part.orbits):
            assert all(part.orbit_of[v] == idx for v in orb)


def test_is_semiregular():
    assert is_semiregular(identity(4), 1)
    assert is_semiregular(grid_rho(3, 7), 7)
    assert not is_semiregular((1, 0, 2, 3), 2)  # two fixed points
    rng = random.Random(5)
    for _ in range(100):
        a = random_perm(rng, rng.randrange(1, 15))
        n = len(a)
        for k in range(1, n + 1):
            if is_semiregular(a, k):
                assert n % k == 0
                assert k * len(orbits(a).orbits) == n
