"""The Cayley fast path (one BFS from 0 plus a translation check, and the
triameter through vertex 0) against the generic all-pairs BFS and
triameter search it replaces for ring graphs.  Both read a table at x - y
through a reader: difference_reader for ring specs, and here also the
rows of a whole difference table.  The ring checks skip the dense
symmetry and translation checks, which are Cayley by construction; those
checks are run here on the ring graphs as references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_tri_ring import ALL_TRI_SPECS
from uct import (DisconnectedGraph, Graph, NotTranslationInvariant, RingSpec,
                 all_pairs_distances, cayley_triametral_triple, graph_core,
                 translation_distances, triametral_triple, unitary_cayley)
from uct.theorem_checker import RingInstance
from uct.tri_ring import difference_reader, tuple_codes

# Every triangular spec of at most 1024 vertices that the test suite or
# the benchmark's verify workload runs, q = 2 (disconnected) ones included.
TRI_SPECS = ["tri:2,2,1", "tri:3,2,1", "tri:4,2,1", "tri:2,3,1", "tri:3,3,1",
             "tri:2,2,2", "tri:2,5,1", "tri:2,3,2", "tri:2,2,3", "tri:2,7,1"]
ZN_SPECS = ["zn:2", "zn:12", "zn:30", "zn:64", "zn:9", "zn:45", "zn:13",
            "zn:97"]
# 4096 vertices of degree 1728: the generic side gathers 1728 frontier rows
# per vertex and level.
LARGE_SPECS = ["tri:3,2,2"]


def difference_table(spec):
    """The whole V x V table of x - y, every row of difference_reader's codes."""
    return difference_reader(spec)(range(spec.order))


def reader(table, diff):
    """rows -> table read at x - y, x - y taken from the rows of the whole
    difference table diff."""
    return lambda rows: table[diff[rows]]


def assert_matches_generic(adj, diff, dtype=None):
    """translation_distances' d0, with row 0 of adj read at the rows of the
    table diff, against the generic distances of a fresh graph: d0[diff] is
    every pair, d0 is row 0, dtype and all, and the generic distance cache
    is left to all_pairs_distances."""
    g = Graph(adj)
    d0 = translation_distances(g, reader(g.adjacency[0], diff))
    assert "dist" not in g._cache
    generic = all_pairs_distances(Graph(adj))
    assert d0.shape == (len(adj),) and not d0.flags.writeable
    assert d0.dtype == generic.dtype == (dtype or generic.dtype)
    assert np.array_equal(d0, generic[0])
    assert np.array_equal(d0[diff], generic)


@pytest.mark.parametrize("text", TRI_SPECS + ZN_SPECS + LARGE_SPECS)
def test_matches_generic_distances(text):
    """Read through the whole difference table, and through the ring's
    own difference_reader, which gives the same d0."""
    spec = RingSpec.parse(text)
    g = unitary_cayley(spec)
    assert_matches_generic(g.adjacency, difference_table(spec), np.uint8)
    d0 = translation_distances(g, difference_reader(spec, g.adjacency[0]))
    assert np.array_equal(d0, all_pairs_distances(Graph(g.adjacency))[0])


@pytest.mark.parametrize("text", ALL_TRI_SPECS
                         + [f"zn:{m}" for m in range(2, 65)] + ["zn:4096"])
def test_ring_graphs_pass_the_dense_references(text):
    """unitary_cayley proves its graph simple from the unit mask, and
    RingInstance.d0 reads the BFS forest with no invariance pass; on the
    stored adjacency the V x V symmetry check holds, the diagonal is
    empty, and d0 is translation_distances' d0, dtype and bytes."""
    ring = RingInstance(RingSpec.parse(text))
    adj = ring.graph.adjacency
    assert graph_core._is_symmetric(adj) and not np.diagonal(adj).any()
    want = translation_distances(ring.graph, ring.reader(adj[0]))
    assert ring.d0.dtype == want.dtype and ring.d0.tobytes() == want.tobytes()


@pytest.mark.parametrize("m, step, dtype", [(600, 2, np.uint8),
                                            (512, 1, np.uint16)])
def test_long_cycles_match_generic(m, step, dtype):
    """Z_m with connection set {step, -step}: two cycles C_300 (diameter
    150, the uint8 maximum marking the pairs between them), or C_512,
    whose diameter 256 needs uint16."""
    diff = difference_table(RingSpec.integers_mod(m))
    connection = np.zeros(m, dtype=bool)
    connection[[step, -step]] = True
    assert_matches_generic(connection[diff], diff, dtype)


def test_circulant_with_one_edge_removed_raises():
    spec = RingSpec.integers_mod(9)
    adj = np.array(unitary_cayley(spec).adjacency)
    adj[2, 3] = adj[3, 2] = False
    with pytest.raises(NotTranslationInvariant):
        translation_distances(Graph(adj), reader(adj[0], difference_table(spec)))


@pytest.mark.parametrize("text", ["zn:9", "tri:2,3,1", "tri:2,2,3"])
@pytest.mark.parametrize("u", [0, 5])
def test_ring_graph_with_one_edge_removed_raises(text, u):
    """One edge of a ring graph removed, in row 0 itself (the table read at
    x - y) or away from vertex 0, fails the check through the ring's own
    difference_reader and through the whole difference table."""
    spec = RingSpec.parse(text)
    adj = np.array(unitary_cayley(spec).adjacency)
    w = int(np.flatnonzero(adj[u])[-1])
    adj[u, w] = adj[w, u] = False
    g = Graph(adj)
    for read in (reader(adj[0], difference_table(spec)),
                 difference_reader(spec, g.adjacency[0])):
        with pytest.raises(NotTranslationInvariant):
            translation_distances(g, read)


def test_rejects_a_malformed_reader():
    """read must give one row of V entries per row asked for."""
    g = unitary_cayley(RingSpec.integers_mod(6))
    read = reader(g.adjacency[0], difference_table(RingSpec.integers_mod(6)))
    small = unitary_cayley(RingSpec.integers_mod(5)).adjacency[0]
    malformed = [
        reader(small, difference_table(RingSpec.integers_mod(5))),  # 5 x 5
        lambda rows: read(rows)[:, :-1],  # a column short
        lambda rows: read(rows)[:-1],  # a row short
        lambda rows: read(rows).ravel(),  # flat
    ]
    for bad in malformed:
        with pytest.raises(ValueError):
            translation_distances(g, bad)
    with pytest.raises(ValueError):
        translation_distances(Graph(np.zeros((0, 0), dtype=bool)), read)


@st.composite
def circulants(draw):
    m = draw(st.integers(min_value=2, max_value=40))
    half = draw(st.sets(st.integers(min_value=1, max_value=m // 2)))
    mask = np.zeros(m, dtype=bool)
    for s in half:
        mask[s] = mask[-s % m] = True
    return m, mask


@settings(max_examples=60, deadline=None)
@given(circulants())
def test_random_circulant_matches_generic(case):
    m, connection = case
    diff = difference_table(RingSpec.integers_mod(m))
    assert_matches_generic(connection[diff], diff)


@st.composite
def cayley_graphs_of_zq_power(draw):
    """(difference table, connection mask) of a random Cayley graph of
    Z_q^n: the group elements are the digit tuples of tuple_codes, x - y is
    their digit-wise difference mod q, and the connection set is closed
    under negation and misses 0."""
    q = draw(st.integers(min_value=2, max_value=7))
    n = draw(st.sampled_from([n for n in range(1, 7) if q ** n <= 64]))
    t = tuple_codes(n, q).astype(np.int64)
    weights = q ** np.arange(n)
    diff = ((t[:, None, :] - t[None, :, :]) % q) @ weights
    negative = ((-t) % q) @ weights
    mask = np.zeros(q ** n, dtype=bool)
    for s in draw(st.sets(st.integers(min_value=1, max_value=q ** n - 1))):
        mask[s] = mask[negative[s]] = True
    return diff, mask


@settings(max_examples=60, deadline=None)
@given(cayley_graphs_of_zq_power())
def test_random_cayley_graph_of_zq_power_matches_generic(case):
    diff, connection = case
    assert_matches_generic(connection[diff], diff)


def triameter_outcome(search, *args):
    """search(*args), or the type of the error it raises."""
    try:
        return search(*args)
    except (DisconnectedGraph, ValueError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    circulants().map(lambda case: (difference_table(
        RingSpec.integers_mod(case[0])), case[1])),
    cayley_graphs_of_zq_power()))
def test_triameter_through_vertex_0_matches_generic(case):
    """The scan of the triples (0, b, c) gives the generic search's value
    and lexicographically first triple, on graphs that stop at the 3 * diam
    bound and on graphs that scan every triple through 0; both raise alike
    on disconnected graphs and graphs of fewer than 3 vertices."""
    diff, connection = case
    d0 = translation_distances(Graph(connection[diff]), reader(connection, diff))
    assert (triameter_outcome(cayley_triametral_triple, d0, reader(d0, diff))
            == triameter_outcome(triametral_triple, Graph(connection[diff])))
