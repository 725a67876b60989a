import itertools
import random

import pytest

from conftest import graph_cycle

from hamcompress.families import grid_rho
from hamcompress.graph import remove_intra_orbit_edges
from hamcompress.perm import (
    _cycle_length,
    compose,
    identity,
    inverse,
    is_semiregular,
    orbits,
    order,
    power,
    precompose,
    semiregular_order,
)


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
    """compose(a, b)[x] == a[b[x]] as a tuple, on the degrees 0 and 1 (which
    itemgetter cannot serve), on degree 2 and on random permutations."""
    a = (1, 2, 0)  # 0->1->2->0
    b = (0, 2, 1)  # swap 1,2
    small = [(a, b), ((), ()), ((0,), (0,)), ((0, 1), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 0))]
    rng = random.Random(16)
    rand = [(random_perm(rng, n), random_perm(rng, n))
            for n in (rng.randrange(2, 40) for _ in range(200))]
    for p, q in small + rand:
        c = compose(p, q)
        assert type(c) is tuple and c == tuple(p[q[x]] for x in range(len(p)))
    with pytest.raises(ValueError):
        compose(a, (0, 1))


def test_precompose_is_compose_with_its_operand_fixed():
    """precompose(b)(a) == compose(a, b), as a tuple, on the degrees 0, 1
    and 2 and on random permutations, one getter serving many a; compose
    still refuses a degree mismatch."""
    rng = random.Random(5)
    cases = [((), [()]), ((0,), [(0,)]), *((b, [(0, 1), (1, 0)]) for b in ((0, 1), (1, 0)))]
    for n in (rng.randrange(2, 40) for _ in range(50)):
        cases.append((random_perm(rng, n), [random_perm(rng, n) for _ in range(5)]))
    for b, lefts in cases:
        times_b = precompose(b)
        for a in lefts:
            c = times_b(a)
            assert type(c) is tuple and c == compose(a, b)
    with pytest.raises(ValueError, match="degree mismatch"):
        compose((0, 1), (0,))
    with pytest.raises(ValueError, match="degree mismatch"):
        compose((0,), ())


def _semiregular_order_by_orbits(a) -> int:
    lengths = {len(orb) for orb in orbits(a)}
    return lengths.pop() if len(lengths) == 1 else 0


def _random_semiregular(rng, n, k):
    """A permutation of degree n whose cycles all have length k, k | n."""
    verts = random_perm(rng, n)
    out = [0] * n
    for i in range(0, n, k):
        cyc = verts[i:i + k]
        for j, v in enumerate(cyc):
            out[v] = cyc[(j + 1) % k]
    return tuple(out)


def test_semiregular_order_matches_orbits():
    """k when every orbit has length k, else 0: on all of S_6, on random
    permutations of degree up to 30, and on random semiregular ones."""
    for a in itertools.permutations(range(6)):
        assert semiregular_order(a) == _semiregular_order_by_orbits(a), a
    rng = random.Random(1606)
    for _ in range(500):
        a = random_perm(rng, rng.randrange(1, 31))
        assert semiregular_order(a) == _semiregular_order_by_orbits(a), a
    for _ in range(200):
        n = rng.randrange(1, 31)
        k = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        a = _random_semiregular(rng, n, k)
        assert semiregular_order(a) == _semiregular_order_by_orbits(a) == k, a
    assert semiregular_order(()) == 1  # the identity on no points
    assert semiregular_order((1, 1, 0)) == 0  # not a permutation: rejected, not looped on
    assert semiregular_order((1, 2, 5)) == 0  # an image >= n: rejected, not an IndexError
    assert not is_semiregular((1, 2, 5), 3)


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
    assert orbits(identity(4)) == ((0,), (1,), (2,), (3,))
    swap = (1, 0, 2, 3)
    assert sorted(len(o) for o in orbits(swap)) == [1, 1, 2]
    assert orbits(swap) == ((0, 1), (2,), (3,))
    assert orbits(()) == ()


def test_orbits_refuses_a_non_permutation():
    """A walk that stops at a vertex already seen, other than its start,
    shows a repeated image, and a walk that reaches an image >= n shows an
    image out of range: orbits, and order and the orbit-edge removal that
    read it, raise ValueError instead of walking forever or IndexError."""
    for a in ((1, 1, 0), (0, 0), (1, 2, 1), (2, 0, 0, 3), (1, 5, 0)):
        with pytest.raises(ValueError, match="not a permutation"):
            orbits(a)
    for a in ((1, 1, 0), (1, 5, 0)):
        with pytest.raises(ValueError, match="not a permutation"):
            order(a)
        with pytest.raises(ValueError, match="not a permutation"):
            remove_intra_orbit_edges(graph_cycle(3), a)


def test_orbits_rotation_grid():
    # three rows of length seven, each an orbit traversed in application order
    rho = grid_rho(3, 7)
    cycles = orbits(rho)
    assert [len(o) for o in cycles] == [7, 7, 7]
    for orb in cycles:
        assert orb[0] == min(orb)
        for a, b in zip(orb, orb[1:]):
            assert rho[a] == b


def test_orbit_partition_covers_everything():
    rng = random.Random(99)
    for _ in range(100):
        a = random_perm(rng, rng.randrange(1, 15))
        cycles = orbits(a)
        flat = sorted(v for orb in cycles for v in orb)
        assert flat == list(range(len(a)))


def test_orbits_are_the_cycles_from_their_least_vertex_ascending():
    """Each cycle starts at its least vertex, follows a and closes back
    there; the cycles ascend by that vertex."""
    rng = random.Random(2303)
    for _ in range(200):
        a = random_perm(rng, rng.randrange(1, 20))
        cycles = orbits(a)
        assert type(cycles) is tuple and all(type(c) is tuple for c in cycles)
        starts = [c[0] for c in cycles]
        assert starts == sorted(starts)
        for c in cycles:
            assert c[0] == min(c)
            assert [a[v] for v in c] == [*c[1:], c[0]]


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
                assert k * len(orbits(a)) == n


def test_non_permutations_are_refused():
    """A repeated image, an image >= n and a negative image each make a
    non-permutation; Python's indexing would wrap a negative image around.
    inverse, power with a negative exponent through it, orbits and order
    raise ValueError, semiregular_order gives 0 and is_semiregular False,
    instead of answering for some permutation."""
    for a in ((1, 1, 0), (0, 0), (2, 0, 0, 3), (1, 5, 0), (-1, 0, 1), (0, -9), (-1, 0),
              (0, -1, 1)):
        for refuses in (inverse, lambda a: power(a, -1), orbits, order):
            with pytest.raises(ValueError, match="not a permutation"):
                refuses(a)
        assert semiregular_order(a) == 0
        assert not any(is_semiregular(a, k) for k in range(1, len(a) + 1))
    assert inverse(()) == () and inverse((0,)) == (0,)


def _semiregular_order_walk(a) -> int:
    """semiregular_order as one bounds-checked walk over every cycle: the
    cycle of 0 gives k, a is rejected unless k divides n, and each other
    cycle's walk stops once it passes k steps or closes at another length.
    Exact on permutations only: it wraps a negative image around."""
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


def test_semiregular_order_and_its_kernel_match_the_checked_walk():
    """`_cycle_length` walks 0's cycle bare and checks nothing, and
    semiregular_order runs it only on a permutation. Both equal the checked
    walk on every permutation, and semiregular_order is 0 on every other
    map: all maps {0..n-1} -> {0..n-1} for n <= 6 (n = 0 included), maps
    with images in -2..n+1 for n <= 4, and seeded random permutations, any
    and semiregular, up to degree 80."""
    maps = [a for n in range(7) for a in itertools.product(range(n), repeat=n)]
    maps += [a for n in range(1, 5) for a in itertools.product(range(-2, n + 2), repeat=n)]
    rng = random.Random(3906)
    for _ in range(400):
        n = rng.randrange(1, 81)
        k = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        maps += [random_perm(rng, n), _random_semiregular(rng, n, k)]
    accepted = 0
    for a in maps:
        if sorted(a) == list(range(len(a))):
            k = _semiregular_order_walk(a)
            assert semiregular_order(a) == _cycle_length(a) == k, a
            accepted += k > 0
        else:
            assert semiregular_order(a) == 0, a
    assert _cycle_length(()) == 1 and accepted > 500
