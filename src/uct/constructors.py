"""Builders for the graph families under study.

Vertex order is always the canonical encoding order of the underlying
objects (ring elements, tuples, product pairs), so structural claims can
be tested as labeled-graph equality instead of isomorphism search.  Ring
graphs, the quotient and the product pass Graph.from_rows a rule for a
block of rows, so they hold no adjacency array of their own.
Tuples are encoded base-q with the first coordinate least significant,
matching the matrix entry encoding in tri_ring.  Ring graphs are Cayley
graphs of (R, +) and are built from that definition: a unit mask over the
elements, read at the differences x - y a row block at a time.  H(n, q)
and its antipodal graph A(H(n, q)) are the Cartesian and direct powers of
K_q, so both are built as Kronecker products of I_q and J_q - I_q, never
by a pass over all pairs per coordinate.
diagonal_quotient keeps its own field-subtraction rule, so comparing it
with antipodal_hamming_direct compares two independent constructions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphTooLarge
from .graph_core import Graph
from .tri_ring import (DEFAULT_VERTEX_CAP, RingSpec, difference_rows,
                       entry_digit_matrix, tuple_codes, unit_mask)


@dataclass(frozen=True)
class VertexLabeling:
    """Bijection between vertex indices and canonical integer encodings."""

    encodings: tuple

    def __post_init__(self):
        if len(set(self.encodings)) != len(self.encodings):
            raise ValueError("vertex labeling must be injective")
        object.__setattr__(self, "_inverse",
                           {e: v for v, e in enumerate(self.encodings)})

    def encoding_of(self, vertex: int) -> int:
        return self.encodings[vertex]

    def vertex_of(self, encoding: int) -> int:
        return self._inverse[encoding]

    def __len__(self):
        return len(self.encodings)


def _digit_labels(digits: np.ndarray) -> list:
    return [",".join(map(str, row)) for row in digits.tolist()]


def unitary_cayley(spec: RingSpec, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """The unitary Cayley graph of the ring: vertices in canonical encoding
    order, edge xy iff x - y is a unit.

    Adjacency is tri_ring.unit_mask read at tri_ring.difference_rows: the
    unit rule (gcd for Z_n, a nonzero determinant for T_n) is evaluated once
    per element, not once per pair.  check_prop1 compares the triangular
    graphs with the all-diagonal-entries-differ rule on every pair.
    """
    mask = unit_mask(spec, cap)
    labels = (range(spec.modulus) if spec.kind == "zn"
              else _digit_labels(entry_digit_matrix(spec, cap)))
    return Graph.from_rows(len(mask), lambda s: mask[difference_rows(spec, s, cap)],
                           labels=labels, cap=cap)


def hamming_graph(length: int, q: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Tuples of the given length over 0..q-1; adjacent iff they differ in
    exactly one coordinate.

    The Cartesian power of K_q, built as the Kronecker recursion
    A_1 = J_q - I_q, A_n = I_q (x) A_{n-1} + (J_q - I_q) (x) I: each step
    adds the most significant coordinate, copying A_{n-1} into the q
    diagonal blocks and setting the diagonals of the off-diagonal blocks
    (row a * size + i meets column b * size + i for every b != a).
    """
    v = _tuple_count(length, q, cap, "length")
    adj = np.zeros((v, v), dtype=bool)
    adj[:q, :q] = ~np.eye(q, dtype=bool)
    size = q  # adj[:size, :size] holds A_k, starting from A_1 = K_q
    while size < v:
        for a in range(1, q):
            block = slice(a * size, (a + 1) * size)
            adj[block, block] = adj[:size, :size]
        rows = np.arange(q * size)
        for shift in range(size, q * size, size):
            adj[rows, (rows + shift) % (q * size)] = True
        size *= q
    return Graph(adj, labels=_digit_labels(tuple_codes(length, q)), cap=cap)


def antipodal_hamming_direct(n: int, q: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Tuples adjacent iff they differ in every coordinate; equals the
    antipodal graph of hamming_graph(n, q) vertex for vertex.

    The direct power of K_q, so its adjacency is the Kronecker power
    (J_q - I_q)^(x)n.
    """
    _tuple_count(n, q, cap, "n")
    k = ~np.eye(q, dtype=bool)
    adj = k
    for _ in range(n - 1):
        adj = np.kron(k, adj)
    return Graph(adj, labels=_digit_labels(tuple_codes(n, q)), cap=cap)


def _tuple_count(length: int, q: int, cap: int, name: str) -> int:
    """q**length, the vertex count of a graph on the length-tuples over
    0..q-1, after checking the arguments and the cap; `name` is the
    caller's name for the length in the error messages."""
    if length < 1 or q < 2:
        raise ValueError(f"need {name} >= 1 and alphabet size >= 2")
    v = q ** length
    if v > cap:
        raise GraphTooLarge(f"q**{name} = {v} exceeds the cap of {cap}")
    return v


def complete_graph(m: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    if m < 1:
        raise ValueError("need at least one vertex")
    if m > cap:
        raise GraphTooLarge(f"{m} vertices exceed the cap of {cap}")
    adj = ~np.eye(m, dtype=bool)
    return Graph(adj, labels=[str(i) for i in range(m)], cap=cap)


def complete_bipartite(a: int, b: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """K_{a,b} with parts on index ranges [0, a) and [a, a+b)."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    if a + b > cap:
        raise GraphTooLarge(f"{a + b} vertices exceed the cap of {cap}")
    adj = np.zeros((a + b, a + b), dtype=bool)
    adj[:a, a:] = True
    adj[a:, :a] = True
    return Graph(adj, labels=[str(i) for i in range(a + b)], cap=cap)


def semistrong_product(g: Graph, h: Graph, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """(u1,v1) ~ (u2,v2) iff v1v2 is an edge of h and (u1u2 is an edge of g
    or u1 = u2).  Vertex (u, v) sits at index u*|V(h)| + v; its row is
    (row u of g + I) (x) (row v of h); labels are made after the cap check."""
    v = g.vertex_count * h.vertex_count

    def rows(s):
        u, w = np.divmod(np.arange(s.start, s.stop), h.vertex_count)
        left = g.adjacency[u] | (np.arange(g.vertex_count) == u[:, None])
        return (left[:, :, None] & h.adjacency[w][:, None, :]).reshape(len(u), v)
    labels = (None if g.labels is None or h.labels is None
              else (f"{gl}|{hl}" for gl in g.labels for hl in h.labels))
    return Graph.from_rows(v, rows, labels=labels, cap=cap)


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
    v = _tuple_count(spec.n, q, cap, "n")
    nonzero = spec.field().sub_table != 0
    t = tuple_codes(spec.n, q)
    return Graph.from_rows(v, lambda s: np.logical_and.reduce(
        [nonzero[col[s, None], col] for col in t.T]), labels=_digit_labels(t), cap=cap)
