"""Unitary Cayley graphs of finite rings, exact graph invariants, and a
verification suite for their structural identities.

The package builds the unitary Cayley graph C_R of an upper-triangular
matrix ring T_n(GF(p^k)) or of Z_n (vertices: ring elements, edge xy iff
x - y is a unit), together with the comparison graphs it is claimed to
match: Hamming graphs, their antipodal companions, semistrong products,
and complete (bipartite) graphs.  Every claim is checked by exhaustive
desk-scale computation and reported as a Verdict with a re-checkable
certificate.
"""

from .errors import (DimensionMismatch, DisconnectedGraph, FieldTooLarge,
                     GraphTooLarge, GraphTooLargeForOracle, NotPrime,
                     RingTooLarge, UctError, WrongField, ZeroInverse)
from .finite_field import (DEFAULT_FIELD_CAP, FieldTable, field_add,
                           field_inv, field_mul, field_sub, make_field)
from .tri_ring import (DEFAULT_VERTEX_CAP, HARD_VERTEX_CAP, RingSpec,
                       TriMatrix, decode, diagonal_of, encode, enumerate_ring,
                       from_parts, is_unit, mat_det, mat_sub, strict_upper_of)
from .graph_core import (Graph, all_pairs_distances, antipodal, clique_number,
                         complete_bipartite_parts, connected_components,
                         diameter, distance_rows, is_bipartite,
                         is_complete_bipartite, iso_check, labeled_equal,
                         max_clique, triameter, triametral_triple)
from .constructors import (antipodal_hamming_direct, complete_bipartite,
                           complete_graph, diagonal_quotient, hamming_graph,
                           semistrong_product, semistrong_rows, unitary_cayley)
from .theorem_checker import (DEFAULT_SUITE_SPECS, Verdict, check_clique,
                              check_connectivity_and_diameter, check_prop0,
                              check_prop1, check_quotient, check_theorem1,
                              check_theorem3, check_triameter,
                              check_zn_oracles, checks_for, run_check,
                              run_suite)

__version__ = "0.1.0"
