"""The Cayley route against the generic route.  A graph built by
Graph._cayley (ring graphs, H(n, q), A(H(n, q))) keeps its group and
mask: its degrees are |S| everywhere, its BFS forest and
complete_bipartite_parts read rows through its reader (g.rows),
distance_rows, all_pairs_distances, diameter and triametral_triple read
its BFS from 0 at x - y, antipodal builds the Cayley graph of the mask
d0 == diameter and labeled_equal of two Cayley graphs of one group
compares their masks.  Graph(g.adjacency) keeps no group, so the same
calls on it count the stored rows, run the generic all-pairs search, the
search over every triple, the antipodal graph of the all-pairs distances
and the dense compare, the references here.  The ring and Hamming
builders skip the dense symmetry check, which is run here as a
reference."""

from itertools import chain, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph, csr_matrix

from test_tri_ring import ALL_TRI_SPECS
from uct import (DisconnectedGraph, Graph, RingSpec, all_pairs_distances,
                 antipodal, antipodal_hamming_direct, complete_bipartite_parts,
                 connected_components, diameter, distance_rows, graph_core,
                 hamming_graph, labeled_equal, triametral_triple, unitary_cayley)
from uct.graph_core import distances_from_0, two_coloring
from uct.tri_ring import DEFAULT_VERTEX_CAP, group_reader, tuple_codes

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


def plain(x):
    """x with an array replaced by its dtype and list, for an exact ==."""
    return (x.dtype, x.tolist()) if isinstance(x, np.ndarray) else x


# Read off the mask or through g.rows on a Cayley graph, and off the stored
# rows on Graph(g.adjacency), whose degrees are streamed row counts.
ROW_INVARIANTS = (Graph.degrees, Graph.edge_count, connected_components,
                  two_coloring, complete_bipartite_parts)


def edge_arrays(g):
    """The edges of g.edge_blocks, concatenated: us above vs."""
    return np.vstack([np.concatenate(side) for side in zip(*g.edge_blocks())])


def first_edges(g):
    """The first 2**18 edges of g.edges(), flat: every edge of each graph
    of at most 1024 vertices here."""
    return np.fromiter(chain.from_iterable(islice(g.edges(), 1 << 18)),
                       dtype=np.intp)


def some_vertices(g):
    """induced_subgraph of every third vertex and the last, in reverse."""
    v = g.vertex_count
    return g.induced_subgraph([v - 1, *range(v - 2, -1, -3)]).adjacency


def equal_to_stored_copies(g):
    """labeled_equal of g against two stored graphs built from g.rows: its
    copy and its complement."""
    v = g.vertex_count
    copy = Graph.from_rows(v, g.rows)
    other = Graph.from_rows(v, lambda s: ~g.rows(s) ^ (np.arange(v)[s, None]
                                                       == np.arange(v)))
    return labeled_equal(g, copy), labeled_equal(g, other)


# The rows read a row block at a time through g.rows on every graph.
ROW_READS = (edge_arrays, first_edges, Graph.neighbor_masks, some_vertices,
             equal_to_stored_copies)


def assert_matches_generic(g, dtype=None, triple=True):
    """The Cayley route on g against the generic route on Graph(g.adjacency):
    ROW_INVARIANTS and ROW_READS, taken on g first, so on a fresh g they
    read its mask and reader and fill nothing; all_pairs_distances' dtype and bytes,
    diameter (or DisconnectedGraph) and, when `triple`, triametral_triple
    (or its error); and antipodal (or DisconnectedGraph), its adjacency and
    edge_count.  diameter, triametral_triple and antipodal of the Cayley
    graph cache no V x V distances, and its antipodal graph is a Cayley
    graph of the same group.  Returns antipodal's outcome on g."""
    unfilled = g._adj is None
    mine = [plain(invariant(g)) for invariant in ROW_INVARIANTS]
    reads = [read(g) for read in ROW_READS]
    assert (g._adj is None) == unfilled  # the row invariants and reads fill nothing
    generic = Graph(g.adjacency)
    assert g._group is not None and generic._group is None
    assert mine == [plain(invariant(generic)) for invariant in ROW_INVARIANTS]
    for read, got in zip(ROW_READS, reads):
        assert np.array_equal(got, read(generic)), read.__name__
    assert reads[-1] == (True, False)
    for invariant in (diameter, triametral_triple)[:1 + triple]:
        assert outcome(invariant, g) == outcome(invariant, generic)
    anti = outcome(antipodal, g)
    assert "dist" not in g._cache
    d, want = all_pairs_distances(g), all_pairs_distances(generic)
    assert not d.flags.writeable
    assert d.dtype == want.dtype == (dtype or want.dtype)
    assert d.tobytes() == want.tobytes()
    reference = outcome(antipodal, generic)
    if anti is DisconnectedGraph or reference is DisconnectedGraph:
        assert anti is reference
    else:
        assert anti._group == g._group and reference._group is None
        assert anti.edge_count() == reference.edge_count()
        assert np.array_equal(anti.adjacency, reference.adjacency)
    return anti


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
    """unitary_cayley proves its graph simple from the unit mask; the
    Cayley route on the fresh graph matches the generic one, and on the
    stored adjacency the V x V symmetry check holds and the diagonal is
    empty."""
    g = unitary_cayley(RingSpec.parse(text))
    anti = assert_matches_generic(g)
    assert graph_core._is_symmetric(g.adjacency)
    assert not np.diagonal(g.adjacency).any()
    spec = RingSpec.parse(text)
    if spec.kind == "tri" and spec.q == 2:  # 2**(n - 1) components
        assert anti is DisconnectedGraph


CAYLEY_BUILDS = {"tri:3,2,2": lambda: unitary_cayley(RingSpec.parse("tri:3,2,2")),
                 "zn:4096": lambda: unitary_cayley(RingSpec.parse("zn:4096")),
                 "H(12,2)": lambda: hamming_graph(12, 2)}


@pytest.mark.parametrize("name", CAYLEY_BUILDS)
def test_cayley_invariants_fill_no_adjacency(name):
    """On a fresh 4096-vertex Cayley graph the row invariants read the mask
    and g.rows, and the distance calls d0 at x - y (or raise
    DisconnectedGraph, on tri:3,2,2): none fills the V x V adjacency."""
    g = CAYLEY_BUILDS[name]()
    for invariant in ROW_INVARIANTS + (distances_from_0, diameter,
                                       triametral_triple, all_pairs_distances,
                                       antipodal):
        outcome(invariant, g)
    assert g.vertex_count == 4096 and g._adj is None


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
    g = Graph._cayley((m, 1), connection, None, DEFAULT_VERTEX_CAP)
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
    """A random Cayley graph of Z_m, m <= 40, built by Graph._cayley, and
    its connection mask (closed under negation, missing 0)."""
    m = draw(st.integers(min_value=2, max_value=40))
    half = draw(st.sets(st.integers(min_value=1, max_value=m // 2)))
    mask = np.zeros(m, dtype=bool)
    for s in half:
        mask[s] = mask[-s % m] = True
    return Graph._cayley((m, 1), mask, None, DEFAULT_VERTEX_CAP)


@settings(max_examples=60, deadline=None)
@given(circulants())
def test_random_circulant_matches_generic(g):
    assert_matches_generic(g)


@st.composite
def cayley_graphs_of_zq_power(draw):
    """A random Cayley graph of Z_q^n built by Graph._cayley, its rows
    first checked against the connection set read at a difference table of
    the digit tuples of tuple_codes, x - y taken digit-wise mod q; its
    adjacency is left unfilled."""
    q = draw(st.integers(min_value=2, max_value=7))
    n = draw(st.sampled_from([n for n in range(1, 7) if q ** n <= 64]))
    t = tuple_codes(n, q).astype(np.int64)
    weights = q ** np.arange(n)
    diff = ((t[:, None, :] - t[None, :, :]) % q) @ weights
    negative = ((-t) % q) @ weights
    mask = np.zeros(q ** n, dtype=bool)
    for s in draw(st.sets(st.integers(min_value=1, max_value=q ** n - 1))):
        mask[s] = mask[negative[s]] = True
    g = Graph._cayley((q, n), mask, None, DEFAULT_VERTEX_CAP)
    assert np.array_equal(g.rows(slice(None)), mask[diff])
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


def negation(group):
    """The encoding of -z for each element z of Z_m**count: row 0 of the
    reader of the encodings, 0 - y."""
    m, count = group
    return group_reader(group, np.arange(m ** count))(slice(0, 1))[0]


@pytest.mark.parametrize("build", [
    lambda: unitary_cayley(RingSpec.parse("zn:12")),
    lambda: unitary_cayley(RingSpec.parse("tri:2,3,1")),
    lambda: unitary_cayley(RingSpec.parse("tri:3,2,1")),
    lambda: hamming_graph(3, 3),
    lambda: antipodal_hamming_direct(2, 6),
])
@pytest.mark.parametrize("out, into", [(True, False), (False, True),
                                       (True, True)])
def test_labeled_equal_sees_one_flipped_pair_on_both_routes(build, out, into):
    """A Cayley graph against one whose mask has a symmetric pair {z, -z}
    of S taken out, a pair {w, -w} outside S put in, or both, so that the
    edge count stays: labeled_equal is False on the mask route and on the
    dense compare of the Graph(g.adjacency) copies, and True on both for
    an unflipped rebuild; edge_count follows |S| on both routes."""
    g = build()
    mask, negate = np.array(g._mask), negation(g._group)
    z = int(np.flatnonzero(mask)[-1])
    w = next(int(w) for w in np.flatnonzero(~mask)[1:]  # 0 is never in S
             if (w == negate[w]) == (z == negate[z]))  # pairs of one size
    size = len({z, int(negate[z])})
    mask[[z, negate[z]]] = not out
    mask[[w, negate[w]]] = into
    flipped = Graph._cayley(g._group, mask, None, DEFAULT_VERTEX_CAP)
    same = Graph._cayley(g._group, g._mask, None, DEFAULT_VERTEX_CAP)
    assert not labeled_equal(g, flipped) and not labeled_equal(flipped, g)
    assert not labeled_equal(Graph(g.adjacency), Graph(flipped.adjacency))
    assert labeled_equal(g, same)
    assert labeled_equal(Graph(g.adjacency), Graph(same.adjacency))
    change = (into - out) * size * g.vertex_count // 2
    assert flipped.edge_count() == g.edge_count() + change
    assert flipped.edge_count() == Graph(flipped.adjacency).edge_count()


def over(group, connection):
    """Cay(Z_m**count, connection) for group = (m, count)."""
    v = group[0] ** group[1]
    return Graph._cayley(group, np.isin(np.arange(v), connection), None, v)


@pytest.mark.parametrize("pair, equal", [
    (lambda: (hamming_graph(4, 2), hamming_graph(2, 4)), False),
    # C_8 as Z_8 with S = {1, 7}, and Z_2^3 with the same mask {1, 7}
    (lambda: (over((8, 1), [1, 7]), over((2, 3), [1, 7])), False),
    # K_4 as Z_4 and as Z_2^2
    (lambda: (over((4, 1), [1, 2, 3]), over((2, 2), [1, 2, 3])), True),
])
def test_labeled_equal_of_two_groups_compares_the_adjacency(pair, equal):
    """Cayley graphs of two groups of one order are compared on their rows,
    not their masks, and neither is filled: equal masks over Z_8 and Z_2^3 give
    different graphs, and K_4 is the same graph over Z_4 and Z_2^2."""
    g, h = pair()
    assert g._group != h._group and g.vertex_count == h.vertex_count
    assert labeled_equal(g, h) is equal
    assert g._adj is None and h._adj is None  # compared through g.rows
    assert np.array_equal(g.adjacency, h.adjacency) is equal
