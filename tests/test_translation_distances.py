"""The Cayley route against the generic route.  A graph built by
constructors._cayley_graph (ring graphs, H(n, q), A(H(n, q))) keeps its
group, and distance_rows, all_pairs_distances, diameter and
triametral_triple read its BFS from 0 at x - y; Graph(g.adjacency) keeps
no group, so the same calls on it run the generic all-pairs search and the
search over every triple, the references here.  The ring and Hamming
builders skip the dense symmetry check, which is run here as a
reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph, csr_matrix

from test_tri_ring import ALL_TRI_SPECS
from uct import (DisconnectedGraph, Graph, RingSpec, all_pairs_distances,
                 antipodal_hamming_direct, constructors, diameter,
                 distance_rows, graph_core, hamming_graph, triametral_triple,
                 unitary_cayley)
from uct.graph_core import distances_from_0
from uct.tri_ring import DEFAULT_VERTEX_CAP, tuple_codes

# Every triangular spec of at most 1024 vertices that the test suite or
# the benchmark's verify workload runs, q = 2 (disconnected) ones included.
TRI_SPECS = ["tri:2,2,1", "tri:3,2,1", "tri:4,2,1", "tri:2,3,1", "tri:3,3,1",
             "tri:2,2,2", "tri:2,5,1", "tri:2,3,2", "tri:2,2,3", "tri:2,7,1"]
ZN_SPECS = ["zn:2", "zn:12", "zn:30", "zn:64", "zn:9", "zn:45", "zn:13",
            "zn:97"]
# 4096 vertices of degree 1728: the generic side gathers 1728 frontier rows
# per vertex and level.
LARGE_SPECS = ["tri:3,2,2"]


def outcome(invariant, g):
    """invariant(g), or the type of the error it raises."""
    try:
        return invariant(g)
    except (DisconnectedGraph, ValueError) as exc:
        return type(exc)


def assert_matches_generic(g, dtype=None, triple=True):
    """The Cayley route on g against the generic route on Graph(g.adjacency):
    all_pairs_distances' dtype and bytes, diameter (or DisconnectedGraph)
    and, when `triple`, triametral_triple (or its error).  diameter and
    triametral_triple of the Cayley graph cache no V x V distances."""
    generic = Graph(g.adjacency)
    assert g._group is not None and generic._group is None
    for invariant in (diameter, triametral_triple)[:1 + triple]:
        assert outcome(invariant, g) == outcome(invariant, generic)
    assert "dist" not in g._cache
    d, want = all_pairs_distances(g), all_pairs_distances(generic)
    assert not d.flags.writeable
    assert d.dtype == want.dtype == (dtype or want.dtype)
    assert d.tobytes() == want.tobytes()


@pytest.mark.parametrize("text", TRI_SPECS + ZN_SPECS + LARGE_SPECS)
def test_matches_generic_distances(text):
    """distance_rows of a ring graph, asked for as slices and as unsorted,
    repeated index arrays, against the generic distances; its row 0 is
    distances_from_0, dtype and all; no V x V array is cached."""
    g = unitary_cayley(RingSpec.parse(text))
    v = g.vertex_count
    want = all_pairs_distances(Graph(g.adjacency))
    read = distance_rows(g)
    d0 = distances_from_0(g)
    assert d0.dtype == want.dtype == np.uint8 and np.array_equal(d0, want[0])
    for rows in (slice(None), slice(v // 3, v // 3 + 5), slice(0, 0),
                 [v - 1, 0, v // 2, v // 2, 1]):
        block = read(rows)
        assert block.dtype == want.dtype and np.array_equal(block, want[rows])
    assert "dist" not in g._cache


@pytest.mark.parametrize("text", ALL_TRI_SPECS
                         + [f"zn:{m}" for m in range(2, 65)] + ["zn:4096"])
def test_ring_graphs_pass_the_dense_references(text):
    """unitary_cayley proves its graph simple from the unit mask; on the
    stored adjacency the V x V symmetry check holds and the diagonal is
    empty, and the Cayley route matches the generic one."""
    g = unitary_cayley(RingSpec.parse(text))
    assert graph_core._is_symmetric(g.adjacency)
    assert not np.diagonal(g.adjacency).any()
    assert_matches_generic(g)


@pytest.mark.parametrize("n, q", [(1, 5), (3, 3), (4, 2), (2, 6), (12, 2),
                                  (6, 4)])
@pytest.mark.parametrize("build", [hamming_graph, antipodal_hamming_direct])
def test_hamming_graphs_match_generic(build, n, q):
    """H(n, q) and A(H(n, q)) against the generic route.  The generic
    triameter search on H(12, 2) never meets its 3 * diam = 36 bound and
    takes half a minute, so there the triple is checked on the generic
    distances instead: it attains 2n = 24, which no triple passes (a
    coordinate of three binary words differs in at most two of the three
    pairs), and is (0, 1, c) with c the first vertex attaining it, so it
    is the lexicographically first."""
    g = build(n, q)
    slow = (build, n, q) == (hamming_graph, 12, 2)
    assert_matches_generic(g, triple=not slow)
    if slow:
        d = all_pairs_distances(Graph(g.adjacency)).astype(np.intp)
        value, (a, b, c) = triametral_triple(g)
        sums = d[0, 1] + d[0] + d[1]
        assert value == int(d[a, b] + d[a, c] + d[b, c]) == 2 * n
        assert (a, b) == (0, 1) and c == int(np.argmax(sums)) and sums[c] == value


@pytest.mark.parametrize("m, step, dtype", [(600, 2, np.uint8),
                                            (512, 1, np.uint16)])
def test_long_cycles_match_generic(m, step, dtype):
    """Z_m with connection set {step, -step}: two cycles C_300 (diameter
    150, the uint8 maximum marking the pairs between them), or C_512,
    whose diameter 256 needs uint16."""
    connection = np.zeros(m, dtype=bool)
    connection[[step, -step]] = True
    g = constructors._cayley_graph((m, 1), connection, None, DEFAULT_VERTEX_CAP)
    assert_matches_generic(g, dtype)


@pytest.mark.parametrize("text", ["zn:9", "tri:2,3,1", "tri:2,2,3"])
@pytest.mark.parametrize("u", [0, 5])
def test_ring_graph_with_one_edge_removed_raises(text, u):
    """One edge of a ring graph removed from row u alone, in row 0 itself
    or away from vertex 0: the ring builder skips the V x V symmetry check,
    but Graph and Graph.from_rows over its adjacency run it and raise."""
    adj = np.array(unitary_cayley(RingSpec.parse(text)).adjacency)
    w = int(np.flatnonzero(adj[u])[-1])
    adj[u, w] = False
    with pytest.raises(ValueError, match="symmetric"):
        Graph(adj)
    with pytest.raises(ValueError, match="symmetric"):
        Graph.from_rows(len(adj), adj.__getitem__)


@pytest.mark.parametrize("text", ["zn:9", "tri:2,3,1", "tri:2,2,3"])
@pytest.mark.parametrize("u", [0, 5])
def test_ring_graph_with_one_edge_removed_takes_the_generic_route(text, u):
    """One edge of a ring graph removed, in row 0 itself or away from
    vertex 0: Graph(adj) keeps no group, so its distances are scipy's, not
    the ring graph's d0 read at x - y, which still has the edge."""
    ring = unitary_cayley(RingSpec.parse(text))
    adj = np.array(ring.adjacency)
    w = int(np.flatnonzero(adj[u])[-1])
    adj[u, w] = adj[w, u] = False
    g = Graph(adj)
    want = csgraph.shortest_path(csr_matrix(adj), unweighted=True)
    d = all_pairs_distances(g)
    assert g._group is None and d[u, w] == want[u, w] > 1
    assert np.array_equal(np.where(np.isinf(want), np.iinfo(d.dtype).max, want), d)
    assert np.array_equal(distance_rows(g)([u, w]), d[[u, w]])
    assert all_pairs_distances(ring)[u, w] == 1


@st.composite
def circulants(draw):
    """A random Cayley graph of Z_m, m <= 40, built by _cayley_graph, and
    its connection mask (closed under negation, missing 0)."""
    m = draw(st.integers(min_value=2, max_value=40))
    half = draw(st.sets(st.integers(min_value=1, max_value=m // 2)))
    mask = np.zeros(m, dtype=bool)
    for s in half:
        mask[s] = mask[-s % m] = True
    return constructors._cayley_graph((m, 1), mask, None, DEFAULT_VERTEX_CAP)


@settings(max_examples=60, deadline=None)
@given(circulants())
def test_random_circulant_matches_generic(g):
    assert_matches_generic(g)


@st.composite
def cayley_graphs_of_zq_power(draw):
    """A random Cayley graph of Z_q^n built by _cayley_graph, its adjacency
    first checked against the connection set read at a difference table of
    the digit tuples of tuple_codes, x - y taken digit-wise mod q."""
    q = draw(st.integers(min_value=2, max_value=7))
    n = draw(st.sampled_from([n for n in range(1, 7) if q ** n <= 64]))
    t = tuple_codes(n, q).astype(np.int64)
    weights = q ** np.arange(n)
    diff = ((t[:, None, :] - t[None, :, :]) % q) @ weights
    negative = ((-t) % q) @ weights
    mask = np.zeros(q ** n, dtype=bool)
    for s in draw(st.sets(st.integers(min_value=1, max_value=q ** n - 1))):
        mask[s] = mask[negative[s]] = True
    g = constructors._cayley_graph((q, n), mask, None, DEFAULT_VERTEX_CAP)
    assert np.array_equal(g.adjacency, mask[diff])
    return g


@settings(max_examples=60, deadline=None)
@given(cayley_graphs_of_zq_power())
def test_random_cayley_graph_of_zq_power_matches_generic(g):
    assert_matches_generic(g)


@settings(max_examples=150, deadline=None)
@given(st.one_of(circulants(), cayley_graphs_of_zq_power()))
def test_triameter_through_vertex_0_matches_generic(g):
    """The scan of the triples (0, b, c) gives the generic search's value
    and lexicographically first triple, on graphs that stop at the 3 * diam
    bound and on graphs that scan every triple through 0; both raise alike
    on disconnected graphs and graphs of fewer than 3 vertices."""
    assert (outcome(triametral_triple, g)
            == outcome(triametral_triple, Graph(g.adjacency)))
