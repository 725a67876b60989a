"""Refusals that no other test reaches: each call raises ValueError with
exactly this message. Plus the degenerate values of the number theory
helpers and the hash of equal graphs."""

import dataclasses

import pytest

from hamcompress import families
from hamcompress.compression import hamilton_compression, predict_kappa_metapq
from hamcompress.graph import Graph
from hamcompress.hamlift import check_hamcycle, lift, quotient_with_voltages
from hamcompress.numth import factorize, ord_mod, primes_in_ap, primitive_root
from hamcompress.perm import identity, is_semiregular


def _prism_quotient():
    """GP(5, 1) over its rotation: orbits 0 (outer) and 1 (inner), the
    spokes carrying voltage 0 only."""
    inst = families.generalized_petersen(5, 1)
    return quotient_with_voltages(inst.graph, inst.rho)


def _unrotated_prism():
    inst = families.generalized_petersen(5, 1)
    return dataclasses.replace(inst, rho=identity(inst.graph.n))


REFUSALS = {
    "x_mnr m < 2": (lambda: families.x_mnr(1, 5, 1), "need m >= 2 and n >= 2"),
    "y_qp q not prime": (lambda: families.y_qp(4, 13), "q and p must be prime"),
    "y_qp t < 2": (lambda: families.y_qp(2, 13, 1), "need t >= 2"),
    "circulant n < 2": (lambda: families.circulant(1, set()), "need n >= 2"),
    "gp n < 3": (lambda: families.generalized_petersen(2, 1), "need n >= 3"),
    "triple p = 9": (lambda: families.metacirculant_triple_2p(9, {1, 8}, {1, 8}, {0}),
                     "p must be an odd prime"),
    "cayley_p3 p = 2": (lambda: families.cayley_p3(2, "heisenberg"),
                        "p must be an odd prime"),
    "cayley_p3 variant": (lambda: families.cayley_p3(3, "other"),
                          "unknown variant 'other'"),
    "orbit no neighbours": (lambda: families.metacirculant_orbit(2, 5, 1, []),
                            "empty neighbour set"),
    "primes_in_ap b = 0": (lambda: primes_in_ap(1, 0, 10), "modulus must be positive"),
    "ord_mod n = 0": (lambda: ord_mod(2, 0), "modulus must be positive"),
    "factorize 0": (lambda: factorize(0), "need a positive integer"),
    "graph n < 0": (lambda: Graph.build(-1, []), "vertex count must be non-negative"),
    "hamcycle non-edge": (lambda: check_hamcycle(Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
                                                 (0, 2, 1, 3)),
                          "vertices 0 and 2 are not adjacent"),
    "quotient degree": (lambda: quotient_with_voltages(families.petersen().graph, identity(9)),
                        "degree mismatch"),
    "lift misses an orbit": (lambda: lift(_prism_quotient(), [0], [1]),
                             "not a closed quotient cycle visiting every orbit once"),
    "lift absent voltage": (lambda: lift(_prism_quotient(), [0, 1], [1, 0]),
                            "no arc from orbit 0 to 1 with voltage 1"),
    "compression mode": (lambda: hamilton_compression(families.petersen().graph, "bogus"),
                         "unknown mode 'bogus'"),
    "metapq rotation": (lambda: predict_kappa_metapq(_unrotated_prism()),
                        "instance rotation is not semiregular of order p"),
    "semiregular k = 0": (lambda: is_semiregular(identity(3), 0),
                          "orbit length must be positive"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_message(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_degenerate_number_theory():
    assert ord_mod(5, 1) == 1
    assert primitive_root(2) == 1


def test_equal_graphs_hash_equal():
    a = Graph.build(4, [(0, 1), (2, 3)])
    b = Graph.build(4, [(3, 2), (1, 0), (0, 1)])
    assert a == b and hash(a) == hash(b)
