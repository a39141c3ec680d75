"""Graph invariants against brute-force oracles and hand values."""

import concurrent.futures
import functools
import hashlib
import itertools
import json
import math
import random
import re
import sys
import tracemalloc
import unittest.mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph, csr_matrix

from test_tri_ring import ALL_TRI_SPECS
from uct import (DisconnectedGraph, Graph, GraphTooLarge,
                 GraphTooLargeForOracle, RingSpec, all_pairs_distances,
                 antipodal, antipodal_hamming_direct, clique_number,
                 complete_bipartite, complete_bipartite_parts, complete_graph,
                 connected_components, diameter, hamming_graph, is_bipartite,
                 is_complete_bipartite, iso_check, labeled_equal, max_clique,
                 semistrong_product, triameter, triametral_triple,
                 unitary_cayley)
from uct import graph_core
from uct.graph_core import (_all_sources_bfs, distances_from_0,
                            largest_finite_distance, twin_classes,
                            two_coloring)
from uct.graphio import (dump_json, from_json_envelope, read_edge_list,
                         to_dot, to_edge_list, to_json_envelope)
from uct.theorem_checker import RingInstance, _diagonal_matrix_encoding
from uct.tri_ring import diagonal_slots, entry_digit_matrix


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def spider_graph(legs, length):
    """A centre vertex 0 with `legs` paths of `length` vertices hanging off
    it; leg i holds the vertices i * length + 1 ... (i + 1) * length."""
    edges = []
    for leg in range(legs):
        first = leg * length + 1
        edges.append((0, first))
        edges += [(u, u + 1) for u in range(first, first + length - 1)]
    return Graph.from_edges(legs * length + 1, edges)


def hop_dtype(longest):
    """The smallest unsigned dtype with room for `longest` and a mark above
    it: the dtype of every distance matrix whose largest finite entry is
    `longest`."""
    return next(t for t in (np.uint8, np.uint16, np.uint32)
                if np.iinfo(t).max > longest)


def as_scipy(d):
    """A hop-count matrix in scipy's form: float64, np.inf across
    components."""
    return np.where(d == np.iinfo(d.dtype).max, np.inf, d)


def random_graph(n, p, rng):
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u, v] = adj[v, u] = True
    return Graph(adj)


def random_connected_graph(n, p, rng):
    g = random_graph(n, p, rng)
    adj = np.array(g.adjacency)
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):  # spanning path keeps it connected
        adj[a, b] = adj[b, a] = True
    return Graph(adj)


# -- brute-force oracles ----------------------------------------------------

def brute_triameter(g):
    d = all_pairs_distances(g)
    best = -1
    for u, v, w in itertools.combinations(range(g.vertex_count), 3):
        best = max(best, int(d[u, v] + d[u, w] + d[v, w]))
    return best


def brute_clique_number(g):
    n = g.vertex_count
    masks = g.neighbor_masks()
    best = 0
    is_clique = bytearray(1 << n)
    is_clique[0] = 1
    for s in range(1, 1 << n):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        if is_clique[rest] and (masks[v] & rest) == rest:
            is_clique[s] = 1
            best = max(best, s.bit_count())
    return best


# -- construction and validation --------------------------------------------

def test_graph_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        Graph([[0, 1], [0, 0]])  # not symmetric
    with pytest.raises(ValueError):
        Graph([[1, 0], [0, 0]])  # loop
    with pytest.raises(ValueError):
        Graph(np.zeros((2, 3), dtype=bool))
    with pytest.raises(GraphTooLarge):
        Graph(np.zeros((5, 5), dtype=bool), cap=4)
    with pytest.raises(ValueError):
        Graph(np.zeros((2, 2), dtype=bool), labels=["a"])


def test_label_count_is_checked_at_construction_or_on_first_read():
    """Labels given as a sequence or a generator are counted when the graph
    is built; labels given as a callable are made, formatted and counted
    once, on the first read of .labels, and a wrong count raises there."""
    a = cycle_graph(3).adjacency
    wrong = (lambda: ["a", "b"], lambda: ("a", "b", "c", "d"), lambda: range(2),
             lambda: (str(x) for x in range(4)))
    for labels in wrong:
        with pytest.raises(ValueError):
            Graph(a, labels=labels())
        with pytest.raises(ValueError):
            Graph.from_rows(3, lambda s: a[s], labels=labels())
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)], labels=labels())
        g = Graph(a, labels=labels)
        with pytest.raises(ValueError):
            g.labels
        with pytest.raises(ValueError):
            g.induced_subgraph([0, 1]).labels
    calls = []

    def labels():
        calls.append(1)
        return range(10, 13)
    g = Graph(a, labels=labels)
    assert calls == []
    assert g.labels == ("10", "11", "12") and g.labels is g.labels
    assert calls == [1]
    assert Graph(a, labels=lambda: None).labels is None


@st.composite
def symmetric_matrices(draw, max_vertices=300):
    """Random symmetric loop-free bool matrices of 0..max_vertices vertices."""
    v = draw(st.sampled_from([0, 1]) | st.integers(0, max_vertices))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = np.triu(rng.random((v, v)) < draw(st.sampled_from([0.0, 0.05, 0.5])), 1)
    return a | a.T


@settings(max_examples=40, deadline=None)
@given(symmetric_matrices(), st.sampled_from([1, 7, None]))
@example(np.zeros((0, 0), dtype=bool), 1)
@example(np.zeros((1, 1), dtype=bool), 7)
def test_from_rows_matches_graph_of_the_matrix(a, entries):
    """Filled a row block at a time, at 1 entry, 7 entries or the default
    block size, from_rows gives the graph of the whole matrix."""
    with pytest.MonkeyPatch.context() as mp:
        if entries is not None:
            mp.setattr(graph_core, "_ROW_BLOCK_ENTRIES", entries)
        g = Graph.from_rows(len(a), lambda s: a[s], labels=range(len(a)))
    assert labeled_equal(g, Graph(a)) and g.labels == tuple(map(str, range(len(a))))
    assert not g.adjacency.flags.writeable


def test_from_rows_rejects_bad_rows(monkeypatch):
    monkeypatch.setattr(graph_core, "_ROW_BLOCK_ENTRIES", 7)
    a = np.array(cycle_graph(9).adjacency)
    asymmetric, loop = a.copy(), a.copy()
    asymmetric[2, 7] = True
    loop[4, 4] = True
    for bad, match in ((asymmetric, "symmetric"), (loop, "loops")):
        with pytest.raises(ValueError, match=match):
            Graph.from_rows(9, lambda s: bad[s])
    for rows in (lambda s: a[s, :8], lambda s: a[s][1:], lambda s: a[0]):
        with pytest.raises(ValueError, match="must be a"):
            Graph.from_rows(9, rows)

    def refuse(s):
        raise AssertionError("rows called over the cap")
    with pytest.raises(GraphTooLarge):
        Graph.from_rows(9, refuse, cap=8)


def test_public_constructor_copies():
    a = np.array(cycle_graph(5).adjacency)
    g = Graph(a)
    a[0, 1] = a[1, 0] = False
    assert g.adjacency[0, 1] and g.edge_count() == 5
    assert a.flags.writeable and not g.adjacency.flags.writeable


@st.composite
def square_bool_matrices(draw):
    """Random bool matrices around the 256-wide symmetry tiles: symmetric,
    symmetric with one entry flipped, or unconstrained."""
    v = draw(st.sampled_from([0, 1, 2, 255, 256, 257, 600])
             | st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.random((v, v)) < draw(st.sampled_from([0.0, 0.01, 0.5]))
    kind = draw(st.sampled_from(["symmetric", "flipped", "free"]))
    if kind != "free":
        a |= a.T
    if kind == "flipped" and v:
        a[draw(st.integers(0, v - 1)), draw(st.integers(0, v - 1))] ^= True
    return a


@settings(max_examples=60, deadline=None)
@given(square_bool_matrices())
def test_tiled_symmetry_check_matches_full_transpose(a):
    assert graph_core._is_symmetric(a) == np.array_equal(a, a.T)


# One flipped off-diagonal entry of a symmetric 600-vertex graph (tiles
# start at 0, 256 and 512): in a corner tile, in a tile on the diagonal,
# and in the last, partial tile.
@pytest.mark.parametrize("u, w", [(599, 0), (0, 599), (300, 301), (598, 599)])
def test_one_asymmetric_entry_is_rejected(u, w):
    adj = np.array(cycle_graph(600).adjacency)
    adj[u, w] ^= True
    with pytest.raises(ValueError, match="symmetric"):
        Graph(adj)


# At a power-of-two V every tile column is read from the padded mirror
# buffer; tiles start at multiples of 256, so 4096 has 16 full tiles a side.
def test_all_ones_power_of_two_matrix_is_symmetric():
    assert graph_core._is_symmetric(np.ones((4096, 4096), dtype=bool))


# One flipped entry of an all-ones matrix: in the first tile, on a diagonal
# tile, in the last tile, and in either corner off the diagonal; then in
# the partial last tiles at V = 4093 (253 rows) and V = 4097 (one row).
@pytest.mark.parametrize("v, u, w", [
    (4096, 3, 200), (4096, 200, 3), (4096, 2100, 2200), (4096, 4095, 3900),
    (4096, 0, 4095), (4096, 4095, 0),
    (4093, 4092, 3850), (4093, 3850, 4092), (4093, 4092, 5), (4093, 5, 4092),
    (4097, 4096, 5), (4097, 5, 4096), (4097, 4096, 4095), (4097, 4000, 4096),
])
def test_one_flipped_entry_of_all_ones_is_found(v, u, w):
    adj = np.ones((v, v), dtype=bool)
    adj[u, w] = False
    assert not graph_core._is_symmetric(adj)


def test_graph_is_immutable():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = False


def test_edges_and_degrees():
    g = complete_graph(4)
    assert g.edge_count() == 6
    assert list(g.degrees()) == [3, 3, 3, 3]
    assert list(g.edges())[0] == (0, 1)


# Around the 255/256 switch from uint8 to uint16 counts; row 0 has degree
# V - 1, the largest a loop-free row can have.
@pytest.mark.parametrize("v", [255, 256, 257])
@pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
def test_row_counts_match_count_nonzero(v, density):
    rng = np.random.default_rng(v)
    a = np.triu(rng.random((v, v)) < density, 1)
    a[0, 1:] = True
    a |= a.T
    want = np.count_nonzero(a, axis=1)
    assert want[0] == v - 1
    for got, rows in ((graph_core.row_counts(a), slice(None)),
                      (graph_core.row_counts(a[3:9]), slice(3, 9)),
                      (Graph(a).degrees(), slice(None))):
        assert got.dtype == want.dtype and np.array_equal(got, want[rows])


def test_degrees_are_one_cached_read_only_array():
    g = path_graph(4)
    d = g.degrees()
    assert g.degrees() is d
    assert d.tolist() == [1, 2, 2, 1]
    with pytest.raises(ValueError):
        d[0] = 5


# -- components --------------------------------------------------------------

def test_components():
    assert connected_components(complete_graph(4)) == [[0, 1, 2, 3]]
    edgeless = Graph(np.zeros((5, 5), dtype=bool))
    assert connected_components(edgeless) == [[0], [1], [2], [3], [4]]
    two = Graph.from_edges(6, [(0, 2), (2, 4), (1, 3), (3, 5)])
    assert connected_components(two) == [[0, 2, 4], [1, 3, 5]]


def test_components_are_cached_but_returned_fresh():
    two = Graph.from_edges(6, [(0, 2), (2, 4), (1, 3), (3, 5)])
    first = connected_components(two)
    first[0].append(99)
    first.pop()
    assert connected_components(two) == [[0, 2, 4], [1, 3, 5]]


# -- distances, diameter -----------------------------------------------------

def test_distances_complete_and_bipartite():
    d = all_pairs_distances(complete_graph(5))
    assert (d[~np.eye(5, dtype=bool)] == 1).all()
    d = all_pairs_distances(complete_bipartite(3, 3))
    assert d[0, 3] == 1 and d[0, 1] == 2 and d[0, 0] == 0


def test_distance_matrix_invariants_on_random_graphs():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng.randrange(2, 25), rng.random(), rng)
        d = all_pairs_distances(g)
        assert (np.diagonal(d) == 0).all()
        assert (d == d.T).all()
        finite = d != np.iinfo(d.dtype).max
        wide = d.astype(np.int64)  # a sum of hop counts may overflow d.dtype
        n = g.vertex_count
        for u, v, w in itertools.combinations(range(n), 3):
            if finite[u, v] and finite[v, w]:
                assert wide[u, w] <= wide[u, v] + wide[v, w]


def test_diameter():
    assert diameter(complete_graph(4)) == 1
    assert diameter(hamming_graph(3, 2)) == 3  # the cube
    assert diameter(path_graph(5)) == 4
    with pytest.raises(DisconnectedGraph):
        diameter(Graph(np.zeros((3, 3), dtype=bool)))


@st.composite
def apsp_cases(draw):
    """Symmetric adjacencies on 0-200 vertices (so V crosses multiples of
    64) at any density, split into up to four blocks with no edge between
    them, with a share of the vertices isolated.  Some draws thread a path
    through every block first, for diameters up to V - 1."""
    v = draw(st.integers(min_value=0, max_value=200))
    density = draw(st.floats(min_value=0, max_value=1))
    blocks = draw(st.integers(min_value=1, max_value=4))
    isolated = draw(st.floats(min_value=0, max_value=0.3))
    chained = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = rng.integers(0, blocks, v)
    kept = rng.random(v) >= isolated
    adj = np.triu(rng.random((v, v)) < density, 1)
    if chained:
        adj[:] = np.triu(rng.random((v, v)) < density / 50, 1)
        walk = rng.permutation(v)
        adj[walk[:-1], walk[1:]] = True
        adj = np.triu(adj | adj.T, 1)
    adj &= (block[:, None] == block) & kept[:, None] & kept
    return adj | adj.T


@settings(max_examples=80, deadline=None)
@given(apsp_cases())
def test_all_sources_bfs_matches_scipy(adj):
    v = len(adj)
    expected = (csgraph.shortest_path(csr_matrix(adj), directed=False,
                                      unweighted=True) if v else np.zeros((0, 0)))
    label = csgraph.connected_components(csr_matrix(adj), directed=False)[1]
    longest = int(expected.max(where=np.isfinite(expected), initial=0))
    for d in (_all_sources_bfs(adj),
              all_pairs_distances(Graph(adj))):
        assert d.dtype == hop_dtype(longest)
        assert np.array_equal(as_scipy(d), expected)
        assert np.array_equal(d == np.iinfo(d.dtype).max,
                              label[:, None] != label)
    assert not d.flags.writeable


@st.composite
def skewed_graphs(draw):
    """Symmetric bool adjacencies on V % 64 != 0 vertices whose degrees
    range from 0 to about V: a few hubs joined to nearly every vertex, a
    sparse rest and a share of isolated vertices."""
    v = draw(st.integers(min_value=1, max_value=300).filter(lambda n: n % 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    hub = rng.random(v) < draw(st.floats(min_value=0, max_value=0.1))
    density = np.where(hub[:, None] | hub, 0.95,
                       draw(st.floats(min_value=0, max_value=0.05)))
    kept = rng.random(v) >= draw(st.floats(min_value=0, max_value=0.3))
    adj = np.triu(rng.random((v, v)) < density, 1) & kept[:, None] & kept
    return adj | adj.T


def assert_scipy_distances(adj):
    """_all_sources_bfs(adj) against scipy, values, marks and dtype; returns
    the distances."""
    expected = csgraph.shortest_path(csr_matrix(adj), directed=False,
                                     unweighted=True)
    longest = int(expected.max(where=np.isfinite(expected), initial=0))
    d = _all_sources_bfs(adj)
    assert d.dtype == hop_dtype(longest)
    assert np.array_equal(as_scipy(d), expected)
    return d


@pytest.mark.parametrize("block_bytes", [1, graph_core._EXPAND_BLOCK_BYTES])
@settings(max_examples=40, deadline=None)
@given(skewed_graphs())
def test_expand_blocks_of_one_row_and_of_the_default_size(block_bytes, adj):
    """At 1 byte every expand block holds one vertex, so every block
    boundary of the degree-major tables and of the unreached mask is
    crossed; at the default size the blocks split only where the degree
    halves or the block is full."""
    with unittest.mock.patch.object(graph_core, "_EXPAND_BLOCK_BYTES",
                                    block_bytes):
        assert_scipy_distances(adj)


@pytest.mark.parametrize("diameter_", [1, 2, 3, 4, 7, 8, 15, 16, 63, 64, 127,
                                       128, 150])
def test_bit_planes_unpack_at_every_bit_length(diameter_):
    """Paths, and spiders of three legs where the diameter is even, whose
    diameters cross each change of the level's bit length up to the 8
    planes of a uint8 result: Horner's rule must take the planes from the
    top one down."""
    graphs = [path_graph(diameter_ + 1)]
    if diameter_ % 2 == 0:
        graphs.append(spider_graph(3, diameter_ // 2))
    for g in graphs:
        assert int(assert_scipy_distances(g.adjacency).max()) == diameter_


@pytest.mark.parametrize("make, n, levels", [
    (path_graph, 1000, False), (cycle_graph, 300, False),
    (path_graph, 60, True), (cycle_graph, 120, True)])
def test_long_diameters_go_to_per_source_search(monkeypatch, make, n, levels):
    """Twice the root's eccentricity bounds the level count; past
    3 * V / ceil(V / 64) levels the graph gets one scipy search per source
    and the level BFS is not entered."""
    g = make(n)
    expected = csgraph.shortest_path(csr_matrix(g.adjacency), directed=False,
                                     unweighted=True)
    calls = []

    def counted(*args):
        calls.append(args)
        return _all_sources_bfs(*args)
    monkeypatch.setattr(graph_core, "_all_sources_bfs", counted)
    d = all_pairs_distances(g)
    assert np.array_equal(d, expected) and not d.flags.writeable
    assert d.dtype == hop_dtype(int(expected.max()))
    assert bool(calls) == levels


@pytest.mark.parametrize("g, level_bfs, diam, triam, triple, antipodes", [
    (spider_graph(3, 75), True, 150, 450, (75, 150, 225), 3),
    (path_graph(200), False, 199, 398, (0, 1, 199), 1)])
def test_sums_of_one_byte_distances_do_not_overflow(monkeypatch, g, level_bfs,
                                                    diam, triam, triple,
                                                    antipodes):
    """Diameters between 128 and 254 come back as uint8 on both routes, and
    the triameter (up to three diameters) and the antipodal graph are still
    exact: every sum is taken after widening."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _all_sources_bfs(*args)
    monkeypatch.setattr(graph_core, "_all_sources_bfs", counted)
    d = all_pairs_distances(g)
    assert bool(calls) == level_bfs
    assert d.dtype == np.uint8
    assert diameter(g) == diam
    assert triametral_triple(g) == (triam, triple)
    assert antipodal(g).edge_count() == antipodes


@pytest.mark.parametrize("n, dtype", [
    (255, np.uint8), (256, np.uint16), (300, np.uint16)])
def test_other_components_are_marked_with_the_dtype_maximum(n, dtype):
    """P_n plus an isolated vertex: the longest distance n - 1 and the mark
    above it must both fit, so n - 1 = 255 already needs uint16, whose
    maximum 65535 marks the pairs in different components."""
    g = Graph.from_edges(n + 1, [(i, i + 1) for i in range(n - 1)])
    d = all_pairs_distances(g)
    mark = np.iinfo(dtype).max
    assert d.dtype == dtype
    assert d[0, n - 1] == n - 1 and d[0, n] == d[n, 5] == mark
    assert largest_finite_distance(d) == n - 1
    for invariant in (diameter, triameter, antipodal):
        with pytest.raises(DisconnectedGraph):
            invariant(g)


def test_distances_take_one_byte_per_pair():
    d = all_pairs_distances(hamming_graph(12, 2))
    assert d.dtype == np.uint8 and d.nbytes == 4096 * 4096
    ring = RingInstance(RingSpec.parse("tri:2,3,2"))
    v = ring.graph.vertex_count
    d0 = distances_from_0(ring.graph)
    assert d0.dtype == np.uint8 and d0.shape == (v,)


def test_per_source_route_holds_no_float_matrix():
    """scipy's float64 rows are converted block by block: the search never
    holds a V x V float64 matrix (8 bytes per pair)."""
    v = 3000
    g = path_graph(v)
    graph_core._forest(g)  # the forest behind the level bound
    tracemalloc.start()
    try:
        d = all_pairs_distances(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.dtype == np.uint16 and d[0, v - 1] == v - 1
    assert peak < 8 * v * v


def test_neighbor_masks_pack_one_row_block_at_a_time(monkeypatch):
    """With blocks of 16 rows, the bitset rows of tri:3,2,2 hold the ints
    (V^2 / 8 bytes) and one packed block besides, not a packed copy of the
    whole adjacency (2 V^2 / 8 at the peak); they equal each row's bits."""
    monkeypatch.setattr(graph_core, "_ROW_BLOCK_ENTRIES", 1 << 16)
    g = unitary_cayley(RingSpec.parse("tri:3,2,2"))
    v = len(g.adjacency)  # filled on this first read, before the masks
    tracemalloc.start()
    try:
        masks = g.neighbor_masks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * v * v / 8, peak / (v * v / 8)
    rng = random.Random(v)
    for u in [0, v - 1, *rng.sample(range(v), 6)]:
        assert masks[u] == sum(1 << w for w in np.flatnonzero(g.adjacency[u]).tolist())


def test_level_route_unpacks_its_bit_planes_in_row_blocks():
    """H(12, 2), read as a plain adjacency so that it takes the level BFS:
    a 16.8 MB uint8 result whose four bit planes are unpacked a row block
    at a time, not as whole 4096 x 4096 arrays (63 MB peak)."""
    g = Graph(hamming_graph(12, 2).adjacency)
    graph_core._forest(g)  # the forest behind the level bound
    tracemalloc.start()
    try:
        d = all_pairs_distances(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.dtype == np.uint8 and d.max() == 12
    assert peak < 40_000_000


# -- triameter ----------------------------------------------------------------

def test_triameter_hand_values():
    assert triameter(complete_graph(3)) == 3
    assert triameter(complete_graph(6)) == 3
    assert triameter(path_graph(3)) == 4  # 1 + 1 + 2


def test_triameter_matches_brute_force():
    rng = random.Random(11)
    for _ in range(25):
        g = random_connected_graph(rng.randrange(3, 28), rng.random() * 0.5, rng)
        assert triameter(g) == brute_triameter(g)


def test_triametral_triple_is_lex_first_and_attains_value():
    rng = random.Random(13)
    for _ in range(15):
        g = random_connected_graph(rng.randrange(3, 18), rng.random() * 0.5, rng)
        value, triple = triametral_triple(g)
        d = all_pairs_distances(g)
        u, v, w = triple
        assert int(d[u, v] + d[u, w] + d[v, w]) == value
        first = min(t for t in itertools.combinations(range(g.vertex_count), 3)
                    if int(d[t[0], t[1]] + d[t[0], t[2]] + d[t[1], t[2]]) == value)
        assert triple == first


def test_triameter_at_most_three_diameters():
    rng = random.Random(17)
    for _ in range(15):
        g = random_connected_graph(rng.randrange(3, 25), rng.random() * 0.4, rng)
        assert triameter(g) <= 3 * diameter(g)


def test_triameter_needs_connected():
    with pytest.raises(DisconnectedGraph):
        triameter(Graph.from_edges(4, [(0, 1), (2, 3)]))


# -- cliques -------------------------------------------------------------------

def test_clique_hand_values():
    assert clique_number(complete_graph(7)) == 7
    assert clique_number(complete_bipartite(4, 4)) == 2
    assert clique_number(cycle_graph(5)) == 2
    assert clique_number(path_graph(1)) == 1
    # First-fit from vertex 0 (the one of largest degree) stops at {0, 1};
    # the branch and bound must still find the K5 through the K4.
    g = Graph.from_edges(6, [(0, u) for u in range(1, 6)]
                         + list(itertools.combinations(range(2, 6), 2)))
    assert max_clique(g) == [0, 2, 3, 4, 5]
    assert clique_number(g) == 5


def test_max_clique_reads_each_mask_a_bounded_number_of_times(monkeypatch):
    """On K_V the first-fit warm start is already maximum and the first
    colouring bounds the search, so max_clique reads O(V) masks; a warm
    start that scores every candidate reads about V^2 / 2."""
    class CountingList(list):
        reads = 0

        def __getitem__(self, i):
            CountingList.reads += 1
            return super().__getitem__(i)

    masks = Graph.neighbor_masks
    monkeypatch.setattr(Graph, "neighbor_masks", lambda g: CountingList(masks(g)))
    v = 1024
    assert max_clique(complete_graph(v)) == list(range(v))
    assert CountingList.reads <= 4 * v, CountingList.reads


def first_fit_clique(g):
    """The clique from vertex 0 that takes the lowest-index common
    neighbour until none is left, read off the adjacency."""
    adj = g.adjacency
    clique, cand = [0], adj[0].copy()
    while cand.any():
        clique.append(int(np.argmax(cand)))
        cand &= adj[clique[-1]]
    return clique


@pytest.mark.parametrize("text", ALL_TRI_SPECS + [f"zn:{n}" for n in range(2, 65)])
def test_max_clique_of_a_ring_graph_is_its_first_fit_clique(text):
    """The found_clique bytes of the clique verdict: on every ring graph
    max_clique returns the first-fit clique from 0 (the q scalar matrices
    of T_n(GF(q)), which the clique check reports without a search, and
    0..p-1 in Z_n for the least prime factor p of n)."""
    spec = RingSpec.parse(text)
    g = unitary_cayley(spec)
    found = max_clique(g)
    assert found == first_fit_clique(g)
    if spec.kind == "tri":
        assert found == [_diagonal_matrix_encoding(spec, [a] * spec.n)
                         for a in range(spec.q)]


def test_max_clique_is_a_clique():
    rng = random.Random(19)
    for _ in range(10):
        g = random_graph(rng.randrange(2, 30), rng.random(), rng)
        clique = max_clique(g)
        for u, v in itertools.combinations(clique, 2):
            assert g.adjacency[u, v]


def test_clique_number_against_brute_force():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng.randrange(1, 17), rng.random(), rng)
        assert clique_number(g) == brute_clique_number(g)


# -- bipartite recognizers -------------------------------------------------

@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 9) for b in range(a, 9)])
def test_complete_bipartite_recognized(a, b):
    parts = is_complete_bipartite(complete_bipartite(a, b))
    assert parts is not None
    assert sorted([len(parts[0]), len(parts[1])]) == sorted([a, b])
    assert sorted(parts[0] + parts[1]) == list(range(a + b))


def test_complete_bipartite_parts_per_component_in_component_order():
    """K_{3,2} on {1, 7, 12} | {3, 4}, C_6 on 0 2 5 8 10 13 (in cycle order),
    K_1 on 6 and a triangle on 9 11 14: components ordered by their
    smallest vertex, A holding it whatever the part sizes."""
    cycle = [0, 2, 5, 8, 10, 13]
    edges = [(a, b) for a in (1, 7, 12) for b in (3, 4)]
    edges += list(zip(cycle, cycle[1:] + cycle[:1]))
    edges += [(9, 11), (11, 14), (9, 14)]
    g = Graph.from_edges(15, edges)
    assert complete_bipartite_parts(g) == [None, ([1, 7, 12], [3, 4]), None, None]


def test_complete_bipartite_rejections():
    assert is_complete_bipartite(complete_graph(3)) is None  # odd cycle
    assert is_complete_bipartite(cycle_graph(6)) is None  # bipartite, not complete
    assert is_complete_bipartite(path_graph(4)) is None
    assert is_complete_bipartite(cycle_graph(4)) == ([0, 2], [1, 3])
    with pytest.raises(DisconnectedGraph):
        is_complete_bipartite(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_is_bipartite():
    assert is_bipartite(cycle_graph(6))
    assert not is_bipartite(cycle_graph(5))
    assert is_bipartite(Graph.from_edges(4, [(0, 1), (2, 3)]))  # disconnected ok


def test_two_coloring_is_cached_read_only():
    g = cycle_graph(6)
    color = two_coloring(g)
    assert list(color) == [0, 1, 0, 1, 0, 1]
    assert two_coloring(g) is color
    with pytest.raises(ValueError):
        color[0] = 1
    odd = cycle_graph(5)
    assert two_coloring(odd) is None and two_coloring(odd) is None


@st.composite
def small_graphs(draw, min_vertices=0, connected=False):
    """Random graphs on at most 10 vertices; unless `connected`, they may be
    disconnected and have isolated vertices."""
    n = draw(st.integers(min_value=min_vertices, max_value=10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if connected:
        order = draw(st.permutations(range(n)))
        edges |= {tuple(sorted(e)) for e in zip(order, order[1:])}
    return Graph.from_edges(n, sorted(edges))


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_two_coloring_matches_brute_force(g):
    n, edges = g.vertex_count, list(g.edges())
    proper_exists = any(all((s >> u & 1) != (s >> v & 1) for u, v in edges)
                        for s in range(1 << n))
    color = two_coloring(g)
    assert (color is not None) == proper_exists
    if color is not None:
        assert all(color[u] != color[v] for u, v in edges)
        assert all(color[comp[0]] == 0 for comp in connected_components(g))


# -- the cached BFS forest and the neighbour lists --------------------------

def canonical_labels(label):
    """Component labels renumbered in order of first appearance."""
    _, first, inverse = np.unique(label, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def two_colourable(adj):
    """Whether every component 2-colours, by propagating colours vertex by
    vertex along a stack."""
    color = [-1] * len(adj)
    for start in range(len(adj)):
        if color[start] >= 0:
            continue
        color[start], stack = 0, [start]
        while stack:
            u = stack.pop()
            for w in np.flatnonzero(adj[u]).tolist():
                if color[w] == color[u]:
                    return False
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    stack.append(w)
    return True


def check_forest(adj):
    count, label, depth, odd = graph_core._forest(Graph(adj))
    want_count, want_label = csgraph.connected_components(csr_matrix(adj),
                                                          directed=False)
    assert count == want_count
    assert np.array_equal(label, canonical_labels(want_label))
    _, roots = np.unique(want_label, return_index=True)
    assert np.array_equal(depth, csgraph.dijkstra(csr_matrix(adj),
                                                  directed=False, indices=roots,
                                                  min_only=True))
    assert odd == (not two_colourable(adj))
    return depth


@settings(max_examples=80, deadline=None)
@given(apsp_cases())
@example(np.zeros((0, 0), dtype=bool))
@example(np.zeros((1, 1), dtype=bool))
@example(np.zeros((70, 70), dtype=bool))
def test_bfs_forest_matches_scipy(adj):
    """The forest's components are scipy's up to renumbering, labelled in
    the order of their smallest vertices; its depths are scipy's distances
    from those vertices, and `odd` says that some component has no proper
    2-colouring."""
    check_forest(adj)


def test_bfs_forest_spans_several_row_blocks():
    """Frontiers wider than one row block are read in several, at 256 and
    at 1-3 rows per block."""
    v = 3000
    rng = np.random.default_rng(5)
    adj = np.triu(rng.random((v, v)) < 0.002, 1)
    adj[:, :40] = adj[:40] = False  # isolated vertices
    adj |= adj.T
    for rows in (256, 1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "_ROW_BLOCK_ENTRIES", rows * v)
            depth = check_forest(adj)
        assert np.bincount(depth).max() > 2 * rows  # at least 3 blocks


@settings(max_examples=80, deadline=None)
@given(apsp_cases(), st.integers(min_value=1, max_value=2000))
@example(np.zeros((0, 0), dtype=bool), 1)
@example(np.zeros((1, 1), dtype=bool), 1)
@example(np.zeros((70, 70), dtype=bool), 100)
@example(np.ones((9, 9), dtype=bool) ^ np.eye(9, dtype=bool), 9)
def test_forest_over_a_row_callable_matches_the_graph(adj, block_entries):
    """bfs_forest over a row callable, read in row blocks of any size, is the
    forest of the Graph of the same rows: count, labels, depths and `odd`.
    The callable is handed index arrays and forms each row at most once."""
    want = graph_core._forest(Graph(adj))
    asked = [np.zeros(0, dtype=np.intp)]

    def rows(x):
        assert isinstance(x, np.ndarray) and x.dtype.kind in "iu"
        asked.append(x)
        return adj[x]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_core, "_ROW_BLOCK_ENTRIES", block_entries)
        count, label, depth, odd = graph_core.bfs_forest(rows, adj.any(axis=1))
    assert count == want[0] and odd == want[3]
    assert np.array_equal(label, want[1]) and np.array_equal(depth, want[2])
    assert np.bincount(np.concatenate(asked), minlength=1).max(initial=0) <= 1


@settings(max_examples=80, deadline=None)
@given(apsp_cases(), st.integers(min_value=1, max_value=2000))
@example(np.zeros((0, 0), dtype=bool), 1)
@example(np.zeros((1, 1), dtype=bool), 1)
@example(np.zeros((70, 70), dtype=bool), 100)
def test_neighbour_lists_match_scipy(adj, block_entries):
    """Read in row blocks of any size, the neighbour lists have scipy's own
    CSR structure."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_core, "_ROW_BLOCK_ENTRIES", block_entries)
        indptr, indices = graph_core._neighbours(adj)
    expected = csr_matrix(adj)
    assert np.array_equal(indptr, expected.indptr)
    assert np.array_equal(indices, expected.indices)


def test_dense_traversals_build_no_sparse_form(monkeypatch):
    """Components, the two-coloring, the complete-bipartite test and every
    distance of a Cayley graph (read off its BFS from 0) read the dense
    rows only.  all_pairs_distances builds the neighbour lists once on
    either generic route, and only the per-source route wraps them in a
    scipy matrix."""
    lists, matrices = [], []
    neighbours = graph_core._neighbours

    def counted_lists(adj):
        lists.append(adj)
        return neighbours(adj)

    def counted_matrix(*args, **kwargs):
        matrices.append(args)
        return csr_matrix(*args, **kwargs)
    monkeypatch.setattr(graph_core, "_neighbours", counted_lists)
    monkeypatch.setattr(scipy.sparse, "csr_matrix", counted_matrix)
    for g, per_source in ((random_connected_graph(60, 0.05, random.Random(3)),
                           False), (path_graph(1000), True)):
        lists.clear()
        matrices.clear()
        connected_components(g)
        assert is_bipartite(g) == (two_coloring(g) is not None)
        is_complete_bipartite(g)
        assert not lists and not matrices
        all_pairs_distances(g)
        assert len(lists) == 1 and len(matrices) == per_source
    g = unitary_cayley(RingSpec.parse("tri:2,3,1"))
    lists.clear()
    matrices.clear()
    all_pairs_distances(g)
    triametral_triple(g)
    connected_components(g)
    two_coloring(g)
    is_complete_bipartite(g)
    assert not lists and not matrices


# -- antipodal ----------------------------------------------------------------

def test_antipodal_of_complete_graph_is_itself():
    g = complete_graph(5)
    assert labeled_equal(antipodal(g), g)


def test_antipodal_direct_oracle_small():
    # independent tuple enumeration for A(H(2,3)): neighbors differ in both
    # coordinates, so each vertex has (3-1)^2 = 4 of them
    h = hamming_graph(2, 3)
    a = antipodal(h)
    tuples = [(i % 3, i // 3) for i in range(9)]
    for x in range(9):
        for y in range(9):
            expect = x != y and tuples[x][0] != tuples[y][0] and tuples[x][1] != tuples[y][1]
            assert bool(a.adjacency[x, y]) == expect
    assert set(int(d) for d in a.degrees()) == {4}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_antipodal_of_binary_hamming_is_perfect_matching(n):
    a = antipodal(hamming_graph(n, 2))
    assert set(int(d) for d in a.degrees()) == {1}
    for v in range(2 ** n):
        partner = (2 ** n - 1) ^ v  # bitwise complement
        assert a.adjacency[v, partner]


def test_antipodal_requires_connected():
    with pytest.raises(DisconnectedGraph):
        antipodal(Graph.from_edges(4, [(0, 1), (2, 3)]))


# -- isomorphism oracle ------------------------------------------------------

def shuffled_copy(g, rng):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    adj = np.zeros_like(g.adjacency)
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            adj[perm[u], perm[v]] = g.adjacency[u, v]
    return Graph(adj)


def test_iso_check_self_relabelings():
    rng = random.Random(29)
    graphs = [cycle_graph(7), complete_bipartite(3, 4), hamming_graph(2, 3),
              random_connected_graph(12, 0.4, rng)]
    for g in graphs:
        h = shuffled_copy(g, rng)
        mapping = iso_check(g, h)
        assert mapping is not None
        for u in range(g.vertex_count):
            for v in range(g.vertex_count):
                assert g.adjacency[u, v] == h.adjacency[mapping[u], mapping[v]]


def test_iso_check_k22_is_c4():
    assert iso_check(complete_bipartite(2, 2), cycle_graph(4)) is not None


def prism_graph():
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                (0, 3), (1, 4), (2, 5)])


def two_triangles():
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


def test_iso_check_negatives():
    assert iso_check(complete_graph(3), path_graph(3)) is None
    assert iso_check(complete_bipartite(3, 3), prism_graph()) is None  # both 3-regular
    assert iso_check(cycle_graph(6), two_triangles()) is None


def spider(legs):
    """A tree: one centre (vertex 0) with paths of the given lengths."""
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Graph.from_edges(nxt, edges)


def test_iso_check_irregular_equal_degree_sequences():
    # Both spiders have 7 vertices and degrees 3,2,2,2,1,1,1, so no degree
    # class tells them apart; the search has to.
    a, b = spider((1, 2, 3)), spider((1, 1, 4))
    assert sorted(a.degrees()) == sorted(b.degrees())
    assert iso_check(a, b) is None
    assert iso_check(a, spider((3, 1, 2))) is not None


def test_iso_check_cap():
    big = Graph(np.zeros((513, 513), dtype=bool), cap=1024)
    with pytest.raises(GraphTooLargeForOracle):
        iso_check(big, big)


def reference_search(g_masks, h_masks, cand):
    """iso_check's search on python-int bitsets: the graphs given by their
    neighbour masks, searched one vertex at a time from the candidate
    masks cand, taking the same lowest-indexed most constrained vertex and
    the same ascending order of candidates, so the same mapping or None."""
    v = len(g_masks)
    mapping = [-1] * v
    full = (1 << v) - 1

    def assign(cand, used):
        if used == full:
            return True
        pick, pick_n = -1, None
        for u in range(v):
            if mapping[u] < 0:
                n = (cand[u] & ~used).bit_count()
                if n == 0:
                    return False
                if pick_n is None or n < pick_n:
                    pick, pick_n = u, n
                    if n == 1:
                        break
        options = cand[pick] & ~used
        while options:
            bit = options & -options
            hu = bit.bit_length() - 1
            new_cand = list(cand)
            ok = True
            for w in range(v):
                if mapping[w] < 0 and w != pick:
                    new_cand[w] &= h_masks[hu] if g_masks[pick] >> w & 1 else ~h_masks[hu]
                    if new_cand[w] & ~(used | bit) == 0:
                        ok = False
                        break
            if ok:
                mapping[pick] = hu
                if assign(new_cand, used | bit):
                    return True
                mapping[pick] = -1
            options ^= bit
        return False

    return mapping if assign(cand, 0) else None


def same_degree_sequence(g, h):
    return (g.vertex_count == h.vertex_count and g.edge_count() == h.edge_count()
            and sorted(g.degrees()) == sorted(h.degrees()))


def vertex_reference_iso_check(g, h):
    """The search one vertex at a time, candidates starting as degree
    classes: iso_check's mapping on twin-free graphs."""
    if not same_degree_sequence(g, h):
        return None
    by_degree_h = {}
    for u, d in enumerate(h.degrees().tolist()):
        by_degree_h[d] = by_degree_h.get(d, 0) | (1 << u)
    return reference_search(g.neighbor_masks(), h.neighbor_masks(),
                            [by_degree_h[d] for d in g.degrees().tolist()])


def reference_twin_classes(g):
    """The vertex lists of g's classes of equal neighbour masks, in order of
    their smallest members, members ascending."""
    classes = {}
    for u, mask in enumerate(g.neighbor_masks()):
        classes.setdefault(mask, []).append(u)
    return list(classes.values())


def reference_iso_check(g, h):
    """The same search over the twin-class quotients, candidates starting
    as the classes of equal size and vertex degree, lifted by mapping the
    members of each class to those of its image in ascending order: the
    same mapping as iso_check, or None."""
    if not same_degree_sequence(g, h):
        return None
    g_classes, h_classes = reference_twin_classes(g), reference_twin_classes(h)
    if len(g_classes) != len(h_classes):
        return None

    def quotient(graph, classes):
        """Neighbour masks over the classes, and each class's (size, degree)."""
        masks = graph.neighbor_masks()
        rows = [sum(1 << b for b, other in enumerate(classes)
                    if masks[c[0]] >> other[0] & 1) for c in classes]
        return rows, [(len(c), int(graph.degrees()[c[0]])) for c in classes]

    g_masks, g_keys = quotient(g, g_classes)
    h_masks, h_keys = quotient(h, h_classes)
    by_key_h = {}
    for b, key in enumerate(h_keys):
        by_key_h[key] = by_key_h.get(key, 0) | (1 << b)
    classes = reference_search(g_masks, h_masks, [by_key_h.get(k, 0) for k in g_keys])
    if classes is None:
        return None
    mapping = [-1] * g.vertex_count
    for a, b in enumerate(classes):
        for u, w in zip(g_classes[a], h_classes[b]):
            mapping[u] = w
    return mapping


def double_edge_swaps(adj, count, rng):
    """adj after up to `count` random double edge swaps (ab, cd -> ad, cb),
    which keep every degree and often break isomorphism; adj is changed in
    place and returned."""
    for _ in range(count):
        edges = list(zip(*np.nonzero(np.triu(adj))))
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not adj[a, d] and not adj[c, b]:
            adj[a, b] = adj[b, a] = adj[c, d] = adj[d, c] = False
            adj[a, d] = adj[d, a] = adj[c, b] = adj[b, c] = True
    return adj


@st.composite
def iso_pairs(draw):
    """Pairs of graphs on at most 12 vertices: a relabelled copy, a copy
    with random double edge swaps (same degree sequence, often not
    isomorphic), or an independent random graph."""
    n = draw(st.integers(min_value=0, max_value=12))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    g = random_graph(n, draw(st.sampled_from([0.2, 0.5, 0.8])), rng)
    kind = draw(st.sampled_from(["relabelled", "swapped", "independent"]))
    if kind == "independent":
        return g, random_graph(n, rng.random(), rng)
    adj = np.array(g.adjacency)
    if kind == "swapped":
        double_edge_swaps(adj, draw(st.integers(1, 20)), rng)
    perm = rng.sample(range(n), n)
    return g, Graph(adj[np.ix_(perm, perm)])


@settings(max_examples=300, deadline=None)
@given(iso_pairs())
@example((complete_bipartite(3, 3), prism_graph()))
@example((prism_graph(), complete_bipartite(3, 3)))
@example((cycle_graph(6), two_triangles()))
@example((two_triangles(), cycle_graph(6)))
@example((spider((1, 2, 3)), spider((1, 1, 4))))
def test_iso_check_matches_reference_search(pair):
    """The same mapping as the twin-class reference; the same answer as
    the vertex-at-a-time search, and its mapping too when g is twin-free."""
    g, h = pair
    mapping = iso_check(g, h)
    assert mapping == reference_iso_check(g, h)
    by_vertex = vertex_reference_iso_check(g, h)
    assert (mapping is None) == (by_vertex is None)
    if len(reference_twin_classes(g)) == g.vertex_count:
        assert mapping == by_vertex


def disjoint_union(*graphs):
    adj = np.zeros((sum(g.vertex_count for g in graphs),) * 2, dtype=bool)
    start = 0
    for g in graphs:
        stop = start + g.vertex_count
        adj[start:stop, start:stop] = g.adjacency
        start = stop
    return Graph(adj)


def blow_up(g, sizes):
    """g with vertex u replaced by sizes[u] false twins."""
    side = np.repeat(np.arange(g.vertex_count), sizes)
    return Graph(g.adjacency[np.ix_(side, side)])


def small_twin_heavy_graphs():
    """Graphs on at most 7 vertices made mostly of false twins: complete
    multipartite graphs (blown-up complete graphs, stars among them), edgeless graphs, disjoint
    unions of K_{a,a}, some of these or random graphs with isolated
    vertices added, and the house graph (a 4-cycle with a roof) with two of
    its vertices doubled, whose quotients have isomorphisms that keep
    every vertex degree but not every class size."""
    rng = random.Random(41)

    def edgeless(n):
        return Graph(np.zeros((n, n), dtype=bool))
    house = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (2, 4)])
    graphs = [blow_up(complete_graph(len(parts)), parts)
              for n in range(1, 8) for parts in integer_partitions(n)]
    graphs += [edgeless(n) for n in range(8)]
    graphs += [disjoint_union(*(complete_bipartite(a, a) for a in sides))
               for sides in [(1, 1), (1, 2), (1, 1, 1), (2, 1), (3,), (2,)]]
    graphs += [disjoint_union(g, edgeless(k))
               for g, k in [(complete_bipartite(1, 3), 2), (complete_bipartite(2, 2), 3),
                            (cycle_graph(5), 2), (complete_graph(3), 3)]]
    graphs += [disjoint_union(random_graph(n, 0.5, rng), edgeless(7 - n))
               for n in (3, 4, 5, 5, 6)]
    graphs += [blow_up(house, [1 + (u in doubled) for u in range(5)])
               for doubled in itertools.combinations(range(5), 2)]
    return graphs


def integer_partitions(n, largest=None):
    """The partitions of n, parts in non-increasing order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first,) + rest


@functools.cache
def all_permutations(n):
    return np.array(list(itertools.permutations(range(n))),
                    dtype=np.intp).reshape(math.factorial(n), n)


def brute_isomorphic(g, h):
    """Whether some vertex permutation p has h[p[u], p[v]] == g[u, v] for
    all u, v: every permutation tried at once, nothing shared with the
    search."""
    if g.vertex_count != h.vertex_count:
        return False
    perms = all_permutations(g.vertex_count)
    moved = h.adjacency[perms[:, :, None], perms[:, None, :]]
    return bool((moved == g.adjacency).all(axis=(1, 2)).any())


def test_iso_check_existence_matches_all_permutations():
    """On graphs of at most 7 vertices, full of twins, iso_check finds a
    mapping exactly when some permutation is an isomorphism: against every
    graph of the family with as many vertices, a relabelled copy and copies
    with double edge swaps."""
    rng = random.Random(43)
    graphs = small_twin_heavy_graphs()
    pairs, found = 0, 0
    for g in graphs:
        n = g.vertex_count
        others = [h for h in graphs if h.vertex_count == n]
        for _ in range(2):
            perm = rng.sample(range(n), n)
            swapped = double_edge_swaps(np.array(g.adjacency), 3, rng)
            others += [Graph(g.adjacency[np.ix_(perm, perm)]),
                       Graph(swapped[np.ix_(perm, perm)])]
        for h in others:
            mapping = iso_check(g, h)
            expected = brute_isomorphic(g, h)
            assert (mapping is not None) == expected
            pairs, found = pairs + 1, found + expected
    assert found > 100 and pairs - found > 100, (pairs, found)


@functools.cache
def theorem3_pair(text):
    """The ring graph of a q > 2 spec and theorem3's K_m . A(H(n, q))."""
    spec = RingSpec.parse(text)
    m = spec.q ** (spec.n * (spec.n - 1) // 2)
    return unitary_cayley(spec), semistrong_product(
        complete_graph(m), antipodal_hamming_direct(spec.n, spec.q))


@pytest.mark.parametrize("text", ["tri:2,3,1", "tri:2,2,2", "tri:2,5,1",
                                  "tri:2,7,1", "tri:2,2,3"])
def test_iso_check_matches_reference_search_on_theorem3_rings(text):
    """The twin-class search finds the mapping the vertex-at-a-time search
    finds on these rings."""
    g, product = theorem3_pair(text)
    mapping = iso_check(g, product)
    assert mapping is not None and mapping == reference_iso_check(g, product)
    assert mapping == vertex_reference_iso_check(g, product)


@pytest.mark.parametrize("text", ["tri:2,3,1", "tri:2,2,2", "tri:2,5,1",
                                  "tri:2,7,1", "tri:2,2,3"])
def test_twin_classes_of_theorem3_rings_are_the_diagonal_classes(text):
    """The ring graph's classes of false twins are its q^n diagonal classes
    of m = q^(n(n-1)/2) matrices each, and those of K_m . A(H(n, q)) its
    K_m fibres {u |V(H)| + w : u}, numbered by their smallest members."""
    spec = RingSpec.parse(text)
    count, m = spec.q ** spec.n, spec.q ** (spec.n * (spec.n - 1) // 2)
    diagonal = (entry_digit_matrix(spec)[:, diagonal_slots(spec.n)]
                @ spec.q ** np.arange(spec.n))
    g, product = theorem3_pair(text)
    for graph, key in [(g, diagonal), (product, np.arange(count * m) % count)]:
        reps, class_of = twin_classes(graph)
        assert len(reps) == len(set(key.tolist())) == count
        assert np.array_equal(class_of[reps], np.arange(count))
        assert (reps[class_of] <= np.arange(count * m)).all()
        assert (np.bincount(class_of) == m).all()
        # one key per class and one class per key
        assert len(set(zip(class_of.tolist(), key.tolist()))) == count


def test_iso_check_leaves_the_recursion_limit():
    """A search 513 calls deep fits under the default recursion limit, in
    the main thread and in worker threads, without raising it."""
    limit = sys.getrecursionlimit()
    g, product = theorem3_pair("tri:2,2,3")
    assert g.vertex_count == 512 and iso_check(g, product) is not None
    path = path_graph(512)
    shuffled = shuffled_copy(path, random.Random(5))
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        found = list(pool.map(iso_check, [path, shuffled], [shuffled, path]))
    assert all(mapping is not None for mapping in found)
    assert sys.getrecursionlimit() == limit


def test_iso_check_holds_one_candidate_row_per_unmapped_class():
    """The search on tri:2,2,3 (512 vertices in 8 twin classes) holds one
    one-word row per unmapped class at each depth; besides it, the packed
    rows for the classes and the edge-by-edge check of the 512 x 512
    result.  A search one vertex at a time held about V^2 / 2 rows of 64
    bytes in all (10.7 MB)."""
    g, product = theorem3_pair("tri:2,2,3")
    tracemalloc.start()
    try:
        assert iso_check(g, product) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak / (1 << 20)


# -- serialization -------------------------------------------------------------

def test_edge_list_roundtrip():
    g = cycle_graph(5)
    text = to_edge_list(g)
    assert text.splitlines()[0] == "0 1"
    back = read_edge_list(text)
    assert labeled_equal(back, g)
    iso = read_edge_list(text, vertex_count=7)
    assert iso.vertex_count == 7


def _old_edge_list(g):
    """The edge-list export as first written, one numpy row at a time."""
    return "".join(f"{u} {v}\n" for u, v in
                   ((int(u), int(v)) for u, v in np.argwhere(np.triu(g.adjacency))))


@pytest.mark.parametrize("make", [
    lambda: cycle_graph(7),
    lambda: unitary_cayley(RingSpec.parse("tri:2,3,2")),
    lambda: Graph.from_edges(9, [(1, 4), (4, 7), (2, 8)]),
    lambda: Graph(np.zeros((0, 0), dtype=bool)),
    lambda: Graph(np.zeros((1, 1), dtype=bool)),
    lambda: path_graph(1001),
    lambda: complete_graph(101),
    lambda: Graph.from_edges(1001, [(0, 1000), (9, 999), (10, 100), (99, 1000)]),
    lambda: hamming_graph(12, 2),
], ids=["cycle", "tri:2,3,2", "isolated-vertices", "V=0", "V=1",
        "path-1001", "complete-101", "mixed-widths", "H(12,2)"])
def test_edge_list_export_bytes_are_unchanged(make):
    g = make()
    text = to_edge_list(g)
    assert text == _old_edge_list(g)
    assert labeled_equal(read_edge_list(text, g.vertex_count), g)


def test_edge_list_import_skips_blank_and_comment_lines():
    text = "# a path\n\n0 1\n   \n  # indented comment\n1\t2\n#3 4\n"
    g = read_edge_list(text)
    assert g.vertex_count == 3
    assert list(g.edges()) == [(0, 1), (1, 2)]


@pytest.mark.parametrize("text", [
    "0 1\r\n1 2\r\n2 3\r\n",
    "0 1\r1 2\r2 3\r",
    "0\t1\n1 \t 2\n\t2\t3\t\n",
    "0 1\n\t# tab-indented\n   #spaces\n1 2\n # 5 6\n2 3\n",
    "0 1\r\n  # indented, CRLF\r\n1 2\r\n#\r\n2 3",
    "\n \n0 1\n\t\n1 2\n  \t \n2 3\n\n",
    "0 1\n1 2\n2 3",
    "  0 1\n 1 2 \n2   3   ",
], ids=["crlf", "cr", "tabs", "indented-comments", "crlf-comments",
        "whitespace-lines", "no-final-newline", "padded"])
def test_edge_list_import_line_forms(text):
    """Every line form below reads as the path 0-1-2-3."""
    assert list(read_edge_list(text).edges()) == [(0, 1), (1, 2), (2, 3)]


# "0\n1 2 3\n" holds four tokens: two pairs if they were read as one stream.
# A '#' after the pair is not a comment.
@pytest.mark.parametrize("text", ["0\n", "0 1\n2\n", "0 1 2\n", "0 1\n1 2 3\n",
                                  "0\n1 2 3\n", "0 1 2\n3\n", "0 x\n",
                                  "0 1.5\n", "0 99999999999999999999\n",
                                  "0 1 # note\n", "# a\n0 1\n1 2 # note"])
def test_edge_list_rejects_lines_without_two_integers(text):
    with pytest.raises(ValueError):
        read_edge_list(text)


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n"])
def test_empty_edge_list_has_no_vertices(text):
    g = read_edge_list(text)
    assert g.vertex_count == 0 and g.edge_count() == 0


def test_from_edges_takes_an_integer_array():
    ends = np.array([[0, 1], [1, 2]], dtype=np.int64)
    assert labeled_equal(Graph.from_edges(3, ends), path_graph(3))
    assert Graph.from_edges(2, np.zeros((0, 2), dtype=np.int64)).edge_count() == 0
    with pytest.raises(ValueError, match="integer"):
        Graph.from_edges(3, np.array([[0, 1.0]]))
    with pytest.raises(ValueError, match="pairs"):
        Graph.from_edges(3, np.array([0, 1]))
    # Narrow dtypes, repeats and both directions give one edge; the cap is
    # checked before any V x V array is made.
    one = Graph.from_edges(200, np.array([[199, 198], [198, 199], [199, 198]],
                                         dtype=np.uint8))
    assert one.edge_count() == 1 and one.adjacency[198, 199]
    with pytest.raises(ValueError, match="loops"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(GraphTooLarge):
        read_edge_list("0 1\n5 1000000\n")


def test_edge_list_import_fills_the_graph_without_a_copy(monkeypatch):
    """With blocks of 16 rows, reading an edge list back holds the graph's
    own V x V bool array and one row block besides (2.13 V^2 when a
    V x V array of its own was copied into the Graph)."""
    monkeypatch.setattr(graph_core, "_ROW_BLOCK_ENTRIES", 1 << 16)
    g = hamming_graph(12, 2)
    text = to_edge_list(g)
    tracemalloc.start()
    try:
        back = read_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    v = g.vertex_count
    assert v == 4096 and peak < 1.25 * v * v, peak / (v * v)
    assert labeled_equal(back, g)


def test_dot_export():
    dot = to_dot(complete_graph(3))
    assert "graph G {" in dot
    assert "  0 -- 1;" in dot and "  1 -- 2;" in dot


def test_dot_export_escapes_labels():
    """Backslashes and double quotes in labels are escaped, so each label
    stays one DOT string and reads back as itself."""
    g = Graph(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=bool),
              labels=['a"b', 'c\\', '\\"'])
    lines = to_dot(g).splitlines()
    assert lines[1:4] == ['  0 [label="a\\"b"];', '  1 [label="c\\\\"];',
                          '  2 [label="\\\\\\""];']
    quoted = [re.fullmatch(r'  \d+ \[label="((?:[^"\\]|\\.)*)"\];', line)
              for line in lines[1:4]]
    assert [re.sub(r"\\(.)", r"\1", m.group(1)) for m in quoted] == list(g.labels)


def test_json_envelope_roundtrip():
    g = complete_bipartite(2, 3)
    payload = to_json_envelope(g)
    assert payload["vertex_count"] == 5
    back = from_json_envelope(payload)
    assert labeled_equal(back, g)
    assert back.labels == g.labels


def json_cases():
    """(name, graph) pairs whose dump_json bytes are pinned below: ring
    graphs with digit labels, graphs without edges, with one vertex and
    with none, labels=None, and labels JSON must escape."""
    for text in ["tri:2,3,1", "zn:8", "tri:2,2,2", "tri:3,2,1", "tri:2,3,2"]:
        yield text, unitary_cayley(RingSpec.parse(text))
    yield "edgeless-4", Graph(np.zeros((4, 4), dtype=bool))
    yield "one-vertex", Graph(np.zeros((1, 1), dtype=bool))
    yield "empty", Graph(np.zeros((0, 0), dtype=bool))
    yield "H(4,3)-unlabeled", Graph(hamming_graph(4, 3).adjacency)
    yield "K5", complete_graph(5)
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 3] = adj[3, 0] = True
    yield "odd-labels", Graph(adj, labels=['a"b', "c\\d", "\u00e9\n", ""])
    yield "edgeless-labeled", Graph(np.zeros((3, 3), dtype=bool), labels="xyz")


# sha256 of dump_json's text, taken from json.dumps(to_json_envelope(g),
# indent=2) + "\n" before dump_json wrote the edges from byte tables.
DUMP_JSON_SHA256 = {
    "tri:2,3,1": "9500fb8902cf94c688db9d6d58dc5c0e67ae3480668dcbe299e2a866a19b6221",
    "zn:8": "d3b27f1d39a90109fe624fa38e5d402c175fccf4a17a0a1e4eeb1ed216c3b9f2",
    "tri:2,2,2": "eaeff8197c57577d4178537371d2968c08166c44f745f7fab305d2e66e1a3b61",
    "tri:3,2,1": "92e035cbdec40368e6c48a11c097f009de217ac0d18d5d6e1a52eb387442aa41",
    "tri:2,3,2": "879f937a2f838235aa3dc7ea0de7708ec8c5989cb1811cbe93a93d4d44b1f76d",
    "edgeless-4": "1bf0d017549d845e0b3c1ab626e81330efa0f0f58af293a0c771aef735bd9eea",
    "one-vertex": "1241b12d671ce8d698cb225adb5f8b06c0e77a63a87ad7e1a9ac832e43fa8f62",
    "empty": "237574e70d29b71b8d4b6123bede8aa933fe6000b8e073df8b94c232df09b9fc",
    "H(4,3)-unlabeled": "8b11f687fe0cb349c06248d6f77115cb4b6767c479ffc68bccdf53e538b10ed2",
    "K5": "220783389632d9d436d1a0a8700027ea6880b5c3d3283ca69049bde900078c41",
    "odd-labels": "73894ed44bb0d09c5c19a60dc0e4b32e6b25aacdb2accf2812609fc24ad3487b",
    "edgeless-labeled": "aa15f79d89332f1f020818af624ab26ad26ace2d3a4b83a05f7cd1e01394ce60",
}


def test_dump_json_bytes_are_pinned():
    """dump_json writes the bytes json.dumps gives the envelope, pinned."""
    got = {}
    for name, g in json_cases():
        text = dump_json(g)
        assert text == json.dumps(to_json_envelope(g), indent=2) + "\n", name
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == DUMP_JSON_SHA256


def dot_reference(g):
    """to_dot's text written one line at a time from g.edges()."""
    lines = ["graph G {"]
    for v, label in enumerate(g.labels or ()):
        quoted = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{quoted}"];')
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    return "\n".join(lines + ["}"]) + "\n"


# sha256 of to_dot's text on json_cases, taken while to_dot still wrote
# one Python line per edge.  The unlabeled graphs without edges all read
# "graph G {\n}\n".
TO_DOT_SHA256 = {
    "tri:2,3,1": "542f9e65b9a42a7fe5aafb7e995c1cde0b4f0b27aff7df0e82fd40010059087e",
    "zn:8": "95f32d7b0c075b9a1fc65ad54e6021ea47a3459c523aae521b6847052c12b600",
    "tri:2,2,2": "2554b5f352b8be0ba185eba8a728240277b94496b097f684f0f5b52144de618c",
    "tri:3,2,1": "46372e05c674709b5e5b6d6a93e124566302705b240d938a3064075f04f35baf",
    "tri:2,3,2": "a21f82cf546c152e74d86c38b672d67236fdae9f3c9a181539b3e8a61e607928",
    "edgeless-4": "94ee019dd2435ac8630ce5e10bdc37256b6afe3bb90aa6ef27f76687ba01a907",
    "one-vertex": "94ee019dd2435ac8630ce5e10bdc37256b6afe3bb90aa6ef27f76687ba01a907",
    "empty": "94ee019dd2435ac8630ce5e10bdc37256b6afe3bb90aa6ef27f76687ba01a907",
    "H(4,3)-unlabeled": "cfb4be300f2de32fb5e92d3803aaa3886d369182ecdbc0cc7ee4b955a0068c07",
    "K5": "2078cec139839b567c6005d4f96af6ddc52731514b5059dee32d84cd1ed612b6",
    "odd-labels": "0bf91deae71d9d67c747bc2b2b4112dfc5b5bb93876789d791b7c8a7407c4c77",
    "edgeless-labeled": "8a42b57e4f86e2c9f361c1403357860e95b688f1639bdb10bf69cbe2f57ef140",
}


def test_to_dot_bytes_are_pinned():
    """to_dot writes the bytes of one line per edge from g.edges(), pinned:
    ring graphs, labels that need escapes, no labels, no edges, and graphs
    of one vertex and of none."""
    got = {}
    for name, g in json_cases():
        text = to_dot(g)
        assert text == dot_reference(g), name
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == TO_DOT_SHA256


@pytest.mark.parametrize("text", ["0 -1\n", "0 7\n"])
def test_edge_list_rejects_endpoints_outside_the_vertex_range(text):
    with pytest.raises(ValueError, match="vertex ind"):
        read_edge_list(text, vertex_count=5)


@pytest.mark.parametrize("edge", [[0, 1.0], [0, "1"], [0.5, 1], [None, 1]])
def test_json_envelope_rejects_non_integer_endpoints(edge):
    with pytest.raises(ValueError, match="vertex ind"):
        from_json_envelope({"vertex_count": 3, "edges": [edge]})


def test_induced_subgraph():
    g = complete_bipartite(3, 3)
    sub = g.induced_subgraph([0, 1, 3])
    assert sub.vertex_count == 3
    assert sub.edge_count() == 2  # the two cross pairs


# -- relabelling invariance ----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(small_graphs(min_vertices=3, connected=True), st.randoms())
def test_invariants_survive_random_relabelling(g, rnd):
    perm = list(range(g.vertex_count))
    rnd.shuffle(perm)
    h = Graph.from_edges(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges()])
    assert clique_number(h) == clique_number(g)
    assert diameter(h) == diameter(g)
    assert triameter(h) == triameter(g)
    assert is_bipartite(h) == is_bipartite(g)
    mapping = iso_check(g, h)
    assert mapping is not None
    assert np.array_equal(h.adjacency[np.ix_(mapping, mapping)], g.adjacency)
