"""Metacirculant graph families and Hamilton-compression invariants.

The names below are the library API listed in README.md; everything else
is reached through its submodule.
"""

from .autgroup import automorphism_group, is_cayley, regular_subgroups, sem_array
from .compression import (
    cycle_compression,
    ham_array,
    hamilton_compression,
    lcf,
    lcf_compressed,
    predict_kappa_circulant,
    predict_kappa_metapq,
)
from .families import (
    FamilyInstance,
    cayley_p3,
    circulant,
    generalized_petersen,
    metacirculant_orbit,
    metacirculant_triple_2p,
    petersen,
    x_mnr,
    y_qp,
    z_qp,
)
from .graph import Graph, emit_edgelist, is_automorphism, parse_edgelist
from .hamlift import enumerate_hamcycles, find_hamcycle, find_symmetric_hamcycle

__version__ = "0.1.0"
