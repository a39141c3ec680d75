"""Builders for the graph families under study.

Vertex order is always the canonical encoding order of the underlying
objects (ring elements, tuples, product pairs), so structural claims can
be tested as labeled-graph equality instead of isomorphism search.  No
builder holds an adjacency array of its own.
Tuples are encoded base-q with the first coordinate least significant,
matching the matrix entry encoding in tri_ring.  Ring graphs and H(n, q)
and its antipodal graph A(H(n, q)) are Cayley graphs of a group Z_m**count
and are built from that definition by Graph._cayley from a mask over the
elements (the units of R; the tuples with 1 or with all n digits
nonzero), which it proves simple in O(V) and keeps: their adjacency is
read at x - y by one tri_ring.group_reader on its first read, and their
edge counts and labeled comparisons come from the mask.  The other
builders pass Graph.from_rows a rule for a block of rows; the product's
rule, semistrong_rows, reads any rows without building the product.
Labels (digit tuples "d0,d1,...", indices, "g|h" pairs) are passed as a
callable, so they are made and formatted on their first read, not when
the graph is built.
diagonal_quotient keeps its own field-subtraction rule, so comparing it
with antipodal_hamming_direct compares two independent constructions.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphTooLarge
from .graph_core import Graph, deferred_labels
from .finite_field import power_exceeds
from .tri_ring import (DEFAULT_VERTEX_CAP, RingSpec, entry_digit_matrix,
                       tuple_codes, unit_mask)


def _digit_labels(digits: np.ndarray) -> list:
    return [",".join(map(str, row)) for row in digits.tolist()]


def unitary_cayley(spec: RingSpec, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """The unitary Cayley graph of the ring: vertices in canonical encoding
    order, edge xy iff x - y is a unit.  It is Graph._cayley of (R, +) =
    spec.group with tri_ring.unit_mask, so the unit rule (gcd for Z_n, a
    nonzero determinant for T_n) is evaluated once per element, not once
    per pair.  check_prop1 and check_theorem3 compare the triangular
    graphs with independent rules on every pair."""
    def labels():
        return (range(spec.modulus) if spec.kind == "zn"
                else _digit_labels(entry_digit_matrix(spec, cap)))
    return Graph._cayley(spec.group, unit_mask(spec, cap), labels, cap)


def hamming_graph(length: int, q: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Tuples of the given length over 0..q-1; adjacent iff they differ in
    exactly one coordinate (the Cartesian power of K_q)."""
    return _differ_graph(length, q, 1, cap)


def antipodal_hamming_direct(n: int, q: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Tuples adjacent iff they differ in every coordinate, the direct power
    of K_q and the antipodal graph of hamming_graph(n, q) vertex for vertex."""
    return _differ_graph(n, q, n, cap)


def _differ_graph(n: int, q: int, count: int, cap: int) -> Graph:
    """The n-tuples over 0..q-1, adjacent iff they differ in exactly `count`
    coordinates: Graph._cayley of Z_q**n with the mask "exactly `count`
    nonzero digits", since x_j - y_j is nonzero in Z_q exactly when
    x_j != y_j, for every q, prime or not."""
    _tuple_count(n, q, cap)
    weight = np.count_nonzero(tuple_codes(n, q), axis=1)
    return Graph._cayley((q, n), weight == count,
                         lambda: _digit_labels(tuple_codes(n, q)), cap)


def _tuple_count(n: int, q: int, cap: int) -> int:
    """q**n, the number of n-tuples over 0..q-1, after checking n, q and the
    cap; a count above the cap is never formed."""
    if n < 1 or q < 2:
        raise ValueError("need tuple length n >= 1 and alphabet size q >= 2")
    if power_exceeds(q, n, cap):
        raise GraphTooLarge(f"{q}**{n} tuples exceed the cap of {cap}")
    return q ** n


def complete_graph(m: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    if m < 1:
        raise ValueError("need at least one vertex")
    return Graph.from_rows(m, lambda s: np.arange(m)[s, None] != np.arange(m),
                           labels=lambda: range(m), cap=cap)


def complete_bipartite(a: int, b: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """K_{a,b} with parts on index ranges [0, a) and [a, a+b)."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    return Graph.from_rows(a + b, lambda s: (np.arange(a + b)[s, None] < a)
                           != (np.arange(a + b) < a), labels=lambda: range(a + b),
                           cap=cap)


def semistrong_rows(g: Graph, h: Graph):
    """rows(x): the rows at x (a slice, or an index array in any order with
    repeats) of g (bullet) h, where (u1,v1) ~ (u2,v2) iff v1v2 is an edge of
    h and (u1u2 is an edge of g or u1 = u2).  Vertex (u, v) sits at index
    u*|V(h)| + v; its row is (row u of g + I) (x) (row v of h)."""
    v = g.vertex_count * h.vertex_count

    def rows(x):
        u, w = np.divmod(np.arange(v)[x], h.vertex_count)
        left = g.adjacency[u] | (np.arange(g.vertex_count) == u[:, None])
        return (left[:, :, None] & h.adjacency[w][:, None, :]).reshape(len(u), v)
    return rows


def semistrong_product(g: Graph, h: Graph, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """The graph of semistrong_rows(g, h); its labels "gl|hl", None when
    either factor has none, are made on their first read."""
    g_labels, h_labels = deferred_labels(g), deferred_labels(h)

    def labels():
        gl, hl = g_labels(), h_labels()
        return None if gl is None or hl is None else [f"{x}|{y}" for x in gl for y in hl]
    return Graph.from_rows(g.vertex_count * h.vertex_count, semistrong_rows(g, h),
                           labels=labels, cap=cap)


def diagonal_quotient(spec: RingSpec, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Quotient of the triangular ring's Cayley graph by equal-diagonal
    classes: one vertex per diagonal (base-q encoded), classes adjacent iff
    their diagonal representatives differ by a unit.

    Adjacency between classes does not depend on the choice of
    representatives, because unit difference is decided by the diagonals
    alone; tests assert this some-pair/every-pair equivalence exhaustively
    on small instances.
    """
    if spec.kind != "tri":
        raise ValueError("diagonal quotient is defined for triangular rings only")
    q = spec.q
    v = _tuple_count(spec.n, q, cap)
    nonzero = spec.field().sub_table != 0
    t = tuple_codes(spec.n, q)
    return Graph.from_rows(v, lambda s: np.logical_and.reduce(
        [nonzero[col[s, None], col] for col in t.T]),
        labels=lambda: _digit_labels(tuple_codes(spec.n, q)), cap=cap)
