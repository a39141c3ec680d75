"""Immutable dense simple graphs and exact invariant algorithms.

A Graph is built one of two ways.  Graph.from_rows (and Graph(a), which
copies a) writes a row block at a time into an array no caller holds, so
builders pass a row rule, and checks it for loops and symmetry.
Graph._cayley builds a Cayley graph of Z_m**count (ring graphs, H(n, q),
A(H(n, q)) and the antipodal graph of any Cayley graph) from the mask of
its connection set: it proves the graph simple from the mask in O(V) and
keeps the group, the mask and a reader of mask[x - y].  Graph.rows, the
one row accessor, reads rows through that reader until the first read
of .adjacency fills the adjacency from it.  Its degrees (|S| everywhere),
edge count, labeled comparison with another Cayley graph of the same
group and antipodal graph (the Cayley graph of d0 == diameter) are read
off the masks.  Everything else reads Graph.rows a row block at a time:
the BFS forest, edge_blocks and edges, neighbor_masks, induced_subgraph
and labeled_equal of any other pair.  None fills an adjacency; only
callers that need a whole matrix read .adjacency (iso_check,
twin_classes and the all-pairs search of a graph that is not Cayley).
Symmetry is checked one 256 x 256 tile pair at a time, each
mirror tile first copied into one reused buffer whose rows are padded
off a power-of-two stride (see _is_symmetric), so every pair is compared
at memory speed at any V, powers of two included, where a full transpose
would stride.  Row counts (degrees, neighbour-list lengths) are summed
as bytes into the smallest unsigned dtype that holds V and widened to
intp (see row_counts).  Labels are formatted on first read: builders and
the graphs made from another (antipodal, induced_subgraph) pass a
callable that makes them, which Graph.labels calls once, on its first
read (see deferred_labels), so a check that compares adjacency formats
none.

Components, root depths, the two-coloring and the complete-bipartite
parts come from one BFS per component over Graph.rows (see bfs_forest).
A Cayley graph's distances are d(x, y) = d0[x - y], d0 the depths of
that BFS out of vertex 0 (see distances_from_0), read at x - y a row
block at a time by tri_ring.group_reader (see distance_rows):
distance_rows, all_pairs_distances, diameter and triametral_triple read
them, the triameter searched over the triples through vertex 0 only.
Other graphs' all-pairs distances come from one level-synchronous BFS out
of every vertex at once over packed bitset frontiers.  Each level
ORs the frontier rows of every vertex's neighbours in blocks of at most
512 KB of gathered words, so a block stays in cache; a block's neighbour
table is stored degree-major, so the OR runs over contiguous slabs, and
the block is masked by the pairs not yet reached as it is written (see
_gather_expand).  Level numbers are kept in bit planes and unpacked by
Horner's rule, from the top plane down, with no shift.  Graphs that may
have too many levels for that (a diameter in the hundreds) get one scipy
search per source instead.
Distances are returned as hop counts in the smallest unsigned dtype that
holds the largest finite distance plus one (uint8 up to a diameter of
254), with that dtype's maximum marking pairs in different components;
widen them before adding two, since a sum can overflow the dtype.
Passes over V x V pairs hold one row block at a time (see row_blocks).
The maximum clique is an exact branch and bound over Python-int bitset
rows, built for each search, from a first-fit warm start (see max_clique).
Diameter, triameter and antipodal graphs are only defined for connected
graphs and raise DisconnectedGraph otherwise.
The isomorphism oracle (iso_check) searches the quotients by classes of
false twins (equal adjacency rows; see twin_classes), the q^n diagonal
classes on the graph of T_n(GF(q)), and lifts the class bijection it
finds to the vertices.  It backtracks over packed bitset rows of candidates,
one row per unmapped class, narrowing them all in a few whole-array
operations per step; on a twin-free graph its search order, and so the
bijection it finds, is that of a vertex-at-a-time search.
"""

from __future__ import annotations

import numpy as np

from .errors import DisconnectedGraph, GraphTooLarge, GraphTooLargeForOracle
from .tri_ring import DEFAULT_VERTEX_CAP, group_reader

ISO_ORACLE_CAP = 512


class Graph:
    """Simple undirected graph over a dense boolean adjacency matrix.

    Immutable after construction: the adjacency array is read-only (a
    Cayley graph's is filled on its first read; see Graph._cayley).
    g.rows(s), s a slice or an index array, is the len(s) x V bool block of
    rows s, for reading only: the stored rows, or a Cayley graph's read
    through its reader while its adjacency is not filled.  The graph's own
    row passes read g.rows, so a Cayley graph is filled only by a caller
    that reads .adjacency for a whole matrix.  Expensive
    derived data (the BFS forest behind components and the two-coloring,
    distances) is cached on first use.  Labels are optional opaque strings
    kept for export.  A sequence (any iterable) of labels is formatted with
    str and counted at construction; a zero-argument callable returning one
    (or None) is kept as it is and called, formatted and counted on the
    first read of .labels, so a builder formats no label that nobody reads.
    """

    def __init__(self, adjacency, labels=None, cap: int = DEFAULT_VERTEX_CAP):
        adj = np.asarray(adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        self._fill(adj.shape[0], adj.__getitem__, labels, cap)

    @classmethod
    def from_rows(cls, vertex_count, rows, labels=None, cap=DEFAULT_VERTEX_CAP):
        """The graph whose adjacency rows s are rows(s), for each slice s of
        row_blocks(vertex_count), written into its own array; the cap is
        checked before rows is called."""
        g = cls.__new__(cls)
        g._fill(vertex_count, rows, labels, cap)
        return g

    @classmethod
    def _cayley(cls, group, mask, labels, cap):
        """Cay(Z_m**count, S) for group = (m, count), on its V = m**count
        elements encoded base m (first digit least significant), S the
        elements where the boolean `mask` is set: edge xy iff mask[x - y],
        read a row block at a time by one tri_ring.group_reader.

        Two O(V) facts make it simple, and are checked here: mask[0] is
        False (no loops), and row 0 of the reader, mask[-y], equals mask[y]
        (S = -S, so adj[x, y] = mask[x - y] = mask[y - x]).  A mask that
        fails either raises ValueError, and Graph's V x V loop and symmetry
        checks are skipped.  The graph keeps the group and its own
        read-only copy of the mask, and g.rows is the reader until the
        first read of .adjacency fills it from the reader and drops it.  So
        degrees, edge_count and labeled_equal answer from the mask, the BFS
        forest reads g.rows, antipodal builds the Cayley graph of d0 ==
        diameter, and distance_rows, all_pairs_distances, diameter and
        triametral_triple read d0 at x - y (see distance_rows).  Every
        other Graph has _group None, Graph(g.adjacency) included."""
        m, count = group
        g = cls.__new__(cls)
        g._start(m ** count, labels, cap)
        mask = np.array(mask, dtype=bool)
        if mask[0]:
            raise ValueError("the mask holds 0: loops are not allowed")
        read = group_reader(group, mask)
        if not np.array_equal(read(slice(0, 1))[0], mask):
            raise ValueError("the mask is not closed under negation: "
                             "adjacency must be symmetric")
        mask.flags.writeable = False
        g._group, g._mask, g.rows = group, mask, read
        return g

    def _start(self, v, labels, cap):
        if v > cap:
            raise GraphTooLarge(f"{v} vertices exceed the cap of {cap}")
        self._v = v
        self._adj = self._group = self._mask = self.rows = None
        self._labels = labels if callable(labels) else _formatted(labels, v)
        self._cache = {}

    def _fill(self, v, rows, labels, cap):
        self._start(v, labels, cap)
        adj = _filled(v, rows)
        if np.diagonal(adj).any():
            raise ValueError("loops are not allowed")
        if not _is_symmetric(adj):
            raise ValueError("adjacency must be symmetric")
        self._adj, self.rows = adj, adj.__getitem__

    @classmethod
    def from_edges(cls, vertex_count, edges, labels=None, cap=DEFAULT_VERTEX_CAP):
        """Graph on vertex_count vertices with the given (u, v) edges: any
        iterable of pairs, or an E x 2 integer array.

        Both directions of every edge become one sorted flat position
        u * V + w, and each row block is filled from its own run of them.
        """
        ends = (edges if isinstance(edges, np.ndarray)
                else np.array(list(edges) or np.zeros((0, 2), dtype=int)))
        if ends.ndim != 2 or ends.shape[1] != 2 or ends.dtype.kind not in "iu":
            raise ValueError("edges must be pairs of integer vertex indices")
        if ((ends < 0) | (ends >= vertex_count)).any():
            raise ValueError(f"endpoint not a vertex index 0..{vertex_count - 1}")
        v = vertex_count
        u, w = ends.astype(np.int64).T
        flat = np.sort(np.concatenate([u * v + w, w * v + u]))

        def rows(s):
            block = np.zeros((s.stop - s.start, v), dtype=bool)
            lo, hi = np.searchsorted(flat, [s.start * v, s.stop * v])
            block.reshape(-1)[flat[lo:hi] - s.start * v] = True
            return block
        return cls.from_rows(v, rows, labels=labels, cap=cap)

    @property
    def vertex_count(self) -> int:
        return self._v

    @property
    def adjacency(self) -> np.ndarray:
        """The read-only V x V bool array; a Cayley graph's is filled from
        its reader on this first read, one row block at a time."""
        if self._adj is None:
            self._adj = _filled(self._v, self.rows)
            self.rows = self._adj.__getitem__
        return self._adj

    @property
    def labels(self):
        """The labels as a tuple of strings, or None; deferred labels are
        made, formatted and counted here on the first read."""
        if callable(self._labels):
            self._labels = _formatted(self._labels(), self.vertex_count)
        return self._labels

    def degrees(self) -> np.ndarray:
        """Row sums as a read-only intp array, cached on the graph; a Cayley
        graph's are |S| at every vertex, read off its mask."""
        if "degrees" not in self._cache:
            self._cache["degrees"] = (
                row_counts(self._adj) if self._mask is None
                else np.full(self._v, np.count_nonzero(self._mask), dtype=np.intp))
            self._cache["degrees"].flags.writeable = False
        return self._cache["degrees"]

    def edge_count(self) -> int:
        """Half the degree sum (V * |S| / 2 on a Cayley graph)."""
        return int(self.degrees().sum()) // 2

    def edges(self):
        """Iterate edges as (u, v) with u < v, in row-major order."""
        for us, vs in self.edge_blocks():
            yield from zip(us.tolist(), vs.tolist())

    def edge_blocks(self):
        """Iterate the edges as index arrays (us, vs), us < vs, one
        row_blocks block of the upper triangle at a time; concatenated they
        are the edges in row-major order."""
        v = self.vertex_count
        for s in row_blocks(v):
            upper = np.arange(v) > np.arange(s.start, s.stop)[:, None]
            upper &= self.rows(s)
            us, vs = np.divmod(np.flatnonzero(upper), v)
            us += s.start
            yield us, vs

    def neighbor_masks(self):
        """Adjacency rows as python-int bitsets (bit v set <=> edge to v),
        packed one row_blocks block at a time.  Not cached: the ints take
        V^2 / 8 bytes, so they live only as long as the caller holds them."""
        masks = []
        for s in row_blocks(self.vertex_count):
            packed = np.packbits(self.rows(s), axis=1, bitorder="little")
            masks += [int.from_bytes(row.tobytes(), "little") for row in packed]
        return masks

    def induced_subgraph(self, vertices) -> "Graph":
        vs = np.array(list(vertices), dtype=np.intp)
        source = deferred_labels(self)

        def labels():
            full = source()
            return None if full is None else [full[v] for v in vs.tolist()]
        return Graph.from_rows(len(vs), lambda s: self.rows(vs[s])[:, vs],
                               labels=labels, cap=max(len(vs), 1))

    def __repr__(self):
        return f"Graph(V={self.vertex_count}, E={self.edge_count()})"


def _formatted(labels, v: int):
    """labels (any iterable, or None) as a tuple of strings, checked to hold
    one label per vertex of a v-vertex graph."""
    if labels is None:
        return None
    labels = tuple(str(x) for x in labels)
    if len(labels) != v:
        raise ValueError("label count must match vertex count")
    return labels


def _filled(v, rows):
    """The read-only v x v bool array whose rows s are rows(s), written one
    row_blocks block at a time."""
    adj = np.empty((v, v), dtype=bool)
    for s in row_blocks(v):
        block = np.asarray(rows(s))
        if block.shape != adj[s].shape:
            raise ValueError(f"rows({s}) must be a {adj[s].shape} array")
        adj[s] = block
    adj.flags.writeable = False
    return adj


def deferred_labels(g: Graph):
    """A zero-argument callable returning g.labels, for a graph made from g
    to pass on as its own deferred labels: it holds what g's labels are
    made from but not g, so the new graph does not keep g alive, and it
    formats nothing until called."""
    labels, v = g._labels, g.vertex_count
    if callable(labels):
        return lambda: _formatted(labels(), v)
    return lambda: labels


# Side of the square tiles _is_symmetric compares: a 256 x 256 bool tile and
# its mirror (64 KB each) stay in cache while one is read transposed.  The
# mirror is read transposed from a copy whose rows are 256 + 8 bytes apart:
# read in place, a power-of-two V puts the 256 rows of a tile column in a
# few cache sets, and V = 32768 ran 7-8x slower than V = 32700.
_SYMMETRY_TILE = 256


def _is_symmetric(adj: np.ndarray) -> bool:
    """adj == adj.T, compared one tile pair at a time: every tile on or
    above the diagonal against the transpose of its mirror tile, so every
    pair is compared without a strided pass over the whole matrix.  Each
    mirror tile is first copied, row by row, into one reused buffer padded
    off a power-of-two row stride, and read transposed from there."""
    v, t = adj.shape[0], _SYMMETRY_TILE
    buffer = np.empty((t, t + 8), dtype=bool)
    for i in range(0, v, t):
        for j in range(i, v, t):
            tile = adj[i:i + t, j:j + t]
            mirror = buffer[:tile.shape[1], :tile.shape[0]]
            np.copyto(mirror, adj[j:j + t, i:i + t])
            if not np.array_equal(tile, mirror.T):
                return False
    return True


def labeled_equal(g: Graph, h: Graph) -> bool:
    """Equality as labeled graphs: same adjacency matrix, vertex for vertex.
    Two Cayley graphs of one group are equal iff their masks are, since
    adj[x, y] = mask[x - y].  Any other pair of equal order is compared a
    row block of g.rows and h.rows at a time.  Neither fills an
    adjacency."""
    if g._group is not None and g._group == h._group:
        return np.array_equal(g._mask, h._mask)
    v = g.vertex_count
    return v == h.vertex_count and all(np.array_equal(g.rows(s), h.rows(s))
                                       for s in row_blocks(v))


def connected_components(g: Graph) -> list:
    """Vertex partition; components ordered by their smallest vertex index.
    The labelling is cached on the graph; every call returns fresh lists."""
    label = _forest(g)[1]  # every label 0..count-1 has a vertex
    members = np.split(np.argsort(label, kind="stable"), np.cumsum(np.bincount(label)))
    return [c.tolist() for c in members[:-1]]


def _forest(g: Graph):
    """bfs_forest of g.rows, cached on g."""
    if "forest" not in g._cache:
        g._cache["forest"] = bfs_forest(g.rows, g.degrees() > 0)
    return g._cache["forest"]


def bfs_forest(rows, linked: np.ndarray):
    """(count, label, depth, odd) of one BFS per component of the graph on
    0..len(linked)-1 whose rows at an index array x are rows(x), linked
    marking the vertices with a neighbour.

    Each BFS starts at its component's smallest vertex, so labels rise with
    that vertex and depth is the hop distance from it; a vertex without
    neighbours gets depth 0 and no BFS.  A level is the OR of the frontier's
    rows, one row block at a time, masked by the unvisited vertices.
    That OR also shows any edge inside the frontier: `odd` says some level
    has one, which holds iff some component has an odd cycle.
    """
    v = len(linked)
    root = np.arange(v)
    depth = np.zeros(v, dtype=np.intp)
    todo = np.array(linked, dtype=bool)  # vertices with a neighbour, not yet reached
    odd = False
    for top in range(v):
        if not todo[top]:
            continue
        todo[top] = False
        front, level = np.array([top]), 0
        while front.size:
            hit = np.zeros(v, dtype=bool)
            for s in row_blocks(front.size, v):
                hit |= rows(front[s]).any(axis=0)
            odd = odd or bool(hit[front].any())
            front = np.flatnonzero(hit & todo)
            level += 1
            todo[front] = False
            root[front], depth[front] = top, level
    tops, label = np.unique(root, return_inverse=True)
    return len(tops), label, depth, odd


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Hop distances between every pair, as a read-only matrix cached on
    the graph.

    The dtype is the smallest unsigned one holding the largest finite
    distance plus one (uint8 for any diameter up to 254), and its maximum,
    np.iinfo(d.dtype).max, marks pairs in different components.  Widen
    before adding distances: a sum of two can overflow the dtype.

    A Cayley graph's are filled from distance_rows one row block at a
    time.  Any other graph's come from one level-synchronous BFS from all
    sources at once (see _all_sources_bfs), unless the graph may have more
    levels than that pays for (see _LEVEL_WORDS_PER_VERTEX); then from one
    scipy search per source (see _per_source_distances).
    """
    if "dist" not in g._cache:
        v = g.vertex_count
        # d(x, y) <= d(x, root) + d(root, y) <= 2 * the root's eccentricity
        levels = 2 * int(_forest(g)[2].max()) if v else 0
        if g._group is not None:
            read = distance_rows(g)
            d = np.empty((v, v), dtype=read.table.dtype)
            for s in row_blocks(v):
                d[s] = read(s)
        elif levels * -(-v // 64) <= _LEVEL_WORDS_PER_VERTEX * v:
            d = _all_sources_bfs(g.adjacency)
        else:
            d = _per_source_distances(g.adjacency, levels)
        d.flags.writeable = False
        g._cache["dist"] = d
    return g._cache["dist"]


# Each level of _all_sources_bfs makes a few passes over V * ceil(V / 64)
# words; per-source scipy search costs the same whatever the diameter.
# all_pairs_distances runs the level BFS while its level bound times
# ceil(V / 64) is at most this many words per vertex, i.e. while the bound
# is at most 64 * 3 = 192 levels.  On 2 cores with V = 1024-4096 (paths,
# cycles, grids, circulants and layered graphs of degree 2-64) the two took
# equal time at 1.5-4.9 words per vertex, mostly 2-3, counting true levels;
# the bound is up to twice the true count.
_LEVEL_WORDS_PER_VERTEX = 3
# Bytes of gathered frontier words one block of _gather_expand holds, so
# that a block stays in a 4 MB L2 cache.  _all_sources_bfs on
# hamming_graph(12, 2) and hamming_graph(6, 4) (V = 4096, 2 cores, best of
# 7) took 65 / 43 ms at 64 KB, 51 / 33 ms at 256 KB, 51 / 31 ms at 512 KB
# and 1 MB, and 57-58 / 35-36 ms at 2 to 8 MB.
_EXPAND_BLOCK_BYTES = 512 << 10
_WORD = np.dtype("<u8")  # bit j of word w is vertex 64 * w + j


def _hop_dtype(longest: int) -> np.dtype:
    """The smallest unsigned dtype holding every hop count up to `longest`
    and, above them, its own maximum: the mark of pairs in different
    components."""
    return np.min_scalar_type(longest + 1)


def _unreachable(d: np.ndarray) -> int:
    """The entry of distances from all_pairs_distances, distance_rows or
    distances_from_0 that marks pairs in different components."""
    return int(np.iinfo(d.dtype).max)


def largest_finite_distance(d: np.ndarray) -> int:
    """The largest distance between two vertices of one component in a
    distance matrix of all_pairs_distances, or in the distances d0 from
    vertex 0 of distances_from_0 (0 when there are no entries).  The
    components of a Cayley graph are translates of one another, so for its
    d0 that is the largest over every component as well."""
    top = int(d.max()) if d.size else 0
    if top == _unreachable(d):
        top = int(d.max(where=d != top, initial=0))
    return top


def _per_source_distances(adj: np.ndarray, levels: int) -> np.ndarray:
    """All-pairs hop distances from one scipy search per source, `levels`
    bounding every finite distance.

    scipy reads the neighbour lists as a directed float64 CSR (the adjacency
    is symmetric).  Its float64 rows are turned into hop counts of the dtype
    `levels` needs one row block at a time (row_blocks of width 4 * v, so
    8 MB of float64), and narrowed once the largest distance is known:
    truncating a wider unsigned dtype turns its all-ones mark into the
    narrower one's.
    """
    from scipy.sparse import csgraph, csr_matrix  # the one scipy use: import on demand
    v = adj.shape[0]
    indptr, indices = _neighbours(adj)
    csr = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(v, v))
    hops = np.empty((v, v), dtype=_hop_dtype(levels))
    mark = _unreachable(hops)
    longest = 0
    for s in row_blocks(v, 4 * v):
        block = csgraph.shortest_path(csr, method="D", directed=True,
                                      unweighted=True,
                                      indices=np.arange(s.start, s.stop))
        reached = np.isfinite(block)
        longest = max(longest, int(block.max(where=reached, initial=0)))
        hops[s] = np.where(reached, block, mark)
    return hops.astype(_hop_dtype(longest), copy=False)


def _all_sources_bfs(adj: np.ndarray) -> np.ndarray:
    """All-pairs hop distances of a symmetric bool adjacency, in the format
    of all_pairs_distances, from one BFS out of every vertex at once.

    Frontiers are packed bitsets: bit s of row u is set when u lies on the
    current level of the BFS from s.  Distances are symmetric, so row s is
    also the frontier of source s, and one level is frontier @ adjacency
    (the OR of the neighbours' frontier rows, see _gather_expand), masked by
    the pairs not yet reached block by block inside the expand step.  Level
    1 is the packed adjacency itself.

    Each level's pairs are ORed into the bit planes of the level number,
    so the distances are unpacked once per bit plane, not once per level,
    one row block at a time (see row_blocks), by Horner's rule from the
    top plane down: block = block + block, then block |= the plane's bits,
    with no shift.
    """
    v = adj.shape[0]
    words = -(-v // 64)
    vertex = np.arange(v)
    unreached = np.zeros((v, words), dtype=_WORD)
    unreached[vertex, vertex >> 6] = np.left_shift(1, (vertex & 63).astype(_WORD))
    unreached = ~unreached
    if v % 64:
        unreached[:, -1] &= _WORD.type((1 << v % 64) - 1)
    front = _pack(adj)
    expand = None
    planes = []
    level = 0
    while front.any():
        unreached ^= front
        level += 1
        if level.bit_length() > len(planes):
            planes.append(np.zeros_like(front))
        for bit, plane in enumerate(planes):
            if level >> bit & 1:
                plane |= front
        if not unreached.any():
            break
        if expand is None:  # built on first use: no table when diameter <= 1
            expand = _gather_expand(*_neighbours(adj))
        front = expand(front, unreached)
    hops = np.zeros((v, v), dtype=_hop_dtype(level))
    split = unreached.any()  # some pairs lie in different components
    for rows in row_blocks(v):
        block = hops[rows]
        for plane in reversed(planes):  # Horner: block = 2 * block | plane
            np.add(block, block, out=block)
            block |= _unpack(plane[rows], v)
        if split:
            block[_unpack(unreached[rows], v).view(bool)] = _unreachable(hops)
    return hops


def _pack(rows: np.ndarray) -> np.ndarray:
    """Bool rows as packed bitset rows of ceil(v / 64) words, v = columns."""
    v = rows.shape[1]
    packed = np.zeros((len(rows), -(-v // 64)), dtype=_WORD)
    packed.view(np.uint8)[:, :-(-v // 8)] = np.packbits(rows, axis=1,
                                                        bitorder="little")
    return packed


def _unpack(rows: np.ndarray, v: int) -> np.ndarray:
    """Packed bitset rows as a len(rows) x v uint8 array of 0s and 1s."""
    return np.unpackbits(rows.view(np.uint8), axis=1, count=v,
                         bitorder="little")


# Entries of a V-column array per row block: 4 MB of bool or at most 32 MB
# of int64 nonzero positions.
_ROW_BLOCK_ENTRIES = 1 << 22


def row_blocks(v: int, width: int | None = None) -> list:
    """Slices of rows covering 0..v-1, each at least one row and at most
    _ROW_BLOCK_ENTRIES entries of an array of `width` columns (default v)."""
    step = max(_ROW_BLOCK_ENTRIES // max(v if width is None else width, 1), 1)
    return [slice(i, min(i + step, v)) for i in range(0, v, step)]


def row_counts(rows: np.ndarray) -> np.ndarray:
    """The True entries of each row of a 2-d bool array, as intp: summed
    as bytes into the smallest unsigned dtype that holds the column count
    (a bool count_nonzero casts every entry to intp first), then widened,
    so callers may add or multiply them."""
    width = np.min_scalar_type(rows.shape[1])
    return rows.view(np.uint8).sum(axis=1, dtype=width).astype(np.intp)


def _neighbours(adj: np.ndarray):
    """(indptr, indices): the sorted neighbour lists of a bool adjacency in
    CSR layout, with no data array.  The rows are read one row block at a
    time, with no array of all (row, col) pairs."""
    v = adj.shape[0]
    counts = row_counts(adj)
    nnz = int(counts.sum())
    index = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(v + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(nnz, dtype=index)
    for rows in row_blocks(v):
        flat = np.flatnonzero(adj[rows])
        indices[indptr[rows.start]:indptr[rows.stop]] = np.remainder(flat, v, out=flat)
    return indptr, indices


def _gather_expand(indptr, indices):
    """Expand step expand(front, unreached): the OR of the frontier rows of
    each vertex's neighbours, given as the neighbour lists of _neighbours,
    ANDed with that vertex's row of unreached.

    Vertices go in blocks of falling degree, each at most
    _EXPAND_BLOCK_BYTES of gathered words and no vertex under half the
    block's top degree.  Inside a block every neighbour list is padded to
    the top degree with repeats of its last neighbour, which OR leaves
    unchanged, and the table is stored degree-major (top degree x rows), so
    one block reduces a degree x rows x words array over its first axis:
    each OR runs over a contiguous rows x words slab.  Vertices without
    neighbours get no block and stay 0.
    """
    row_bytes = 8 * -(-(len(indptr) - 1) // 64)
    degree = np.diff(indptr)
    order = np.argsort(-degree, kind="stable")
    order = order[degree[order] > 0]
    blocks = []  # (vertices, rows x top-degree neighbour table)
    start = 0
    while start < len(order):
        top = int(degree[order[start]])
        room = max(_EXPAND_BLOCK_BYTES // (top * row_bytes), 1)
        falling = degree[order[start:start + room]]
        stop = start + int(np.count_nonzero(2 * falling >= top))
        rows = order[start:stop]
        slot = np.minimum(np.arange(top)[:, None], degree[rows] - 1)
        blocks.append((rows, indices[indptr[rows] + slot]))  # top x rows
        start = stop

    def expand(front, unreached):
        out = np.zeros_like(front)
        for rows, table in blocks:
            hit = np.bitwise_or.reduce(front[table], axis=0)
            hit &= unreached[rows]
            out[rows] = hit
        return out
    return expand


def distances_from_0(g: Graph) -> np.ndarray:
    """Hop distances from vertex 0, a read-only vector in the format of
    all_pairs_distances: the depths of g's cached BFS forest on vertex 0's
    component, whose BFS starts at 0, and the unreachable mark elsewhere.
    On a Cayley graph d(x, y) = d0[x - y] (see distance_rows)."""
    _, label, depth, _ = _forest(g)
    reached = label == 0  # vertex 0 roots the first component's BFS
    dtype = _hop_dtype(int(depth.max(where=reached, initial=0)))
    d0 = np.where(reached, depth, np.iinfo(dtype).max).astype(dtype)
    d0.flags.writeable = False
    return d0


def _connected_diameter(d: np.ndarray, op: str) -> int:
    """The largest of the distances d of a connected graph (0 if d is empty)."""
    diam = int(d.max()) if d.size else 0  # one reduction, no V x V temporary
    if diam == _unreachable(d):
        raise DisconnectedGraph(f"{op} is undefined for disconnected graphs")
    return diam


def distance_rows(g: Graph):
    """The function rows -> the len(rows) x V hop distances from the
    vertices `rows` (a slice or a sequence of indices) to every vertex, in
    the format of all_pairs_distances.

    A Cayley graph (see Graph._cayley) has d(x, y) = d0[x - y], d0 =
    distances_from_0(g): translation by -y is an automorphism.  Its rows are
    d0 read at x - y by tri_ring.group_reader, whose window table is built
    here, once per call, and no V x V array is formed.  Any other graph's
    are rows of all_pairs_distances(g).  Not cached: a caller keeps the
    function only while it reads rows."""
    if g._group is not None:
        return group_reader(g._group, distances_from_0(g))
    d = all_pairs_distances(g)
    return lambda rows: d[rows]


def diameter(g: Graph) -> int:
    d = all_pairs_distances(g) if g._group is None else distances_from_0(g)
    return _connected_diameter(d, "diameter")


def triametral_triple(g: Graph):
    """(triameter, lexicographically first triametral triple).

    Exact maximum of d(u,v)+d(u,w)+d(v,w) over unordered triples.  Pairs
    that cannot beat the current best are skipped, and the search stops
    as soon as the 3*diam upper bound is attained.  On a Cayley graph only
    the triples (0, b, c) are searched, reading the rows of distance_rows:
    translation carries the lexicographically first triametral triple onto
    one through 0.
    """
    if g._group is None:
        d = all_pairs_distances(g)
        return _triametral_search(d, lambda x, s: d[x, s:], len(d) - 2)
    read = distance_rows(g)
    return _triametral_search(distances_from_0(g),
                              lambda x, s: read(slice(x, x + 1))[0, s:], 1)


def _triametral_search(d: np.ndarray, row, firsts: int):
    """triametral_triple over the triples (a, b, c) with a < firsts; row(x, s)
    holds d(x, y) for y >= s, and the largest entry of d is the diameter."""
    diam = _connected_diameter(d, "triameter")
    if len(d) < 3:
        raise ValueError("triameter needs at least 3 vertices")
    bound = 3 * diam
    best = -1
    best_triple = None
    for a in range(firsts):
        da = row(a, 0).astype(np.intp)  # sums of three hop counts overflow d.dtype
        for b in range(a + 1, len(d) - 1):
            dab = da[b]
            if dab + 2 * diam <= best:
                continue
            tail = da[b + 1:] + row(b, b + 1)
            top = tail.max()
            val = int(dab + top)
            if val > best:
                best = val
                best_triple = (a, b, b + 1 + int(np.argmax(tail)))
                if best == bound:
                    return best, best_triple
    return best, best_triple


def triameter(g: Graph) -> int:
    return triametral_triple(g)[0]


def max_clique(g: Graph) -> list:
    """An exact maximum clique, via branch and bound with greedy-colouring
    upper bounds on bitset candidate sets.

    The warm start is first-fit: from a maximum-degree vertex, append the
    lowest-index common neighbour until none is left (one mask read per
    vertex appended).  On the ring graphs of uct it is already maximum (the
    q scalar matrices of T_n(GF(q)); 0..p-1 in Z_n, p the least prime
    factor of n) and the first colouring bounds the search at its size, so
    the search returns after that one colouring."""
    v = g.vertex_count
    if v == 0:
        return []
    masks = g.neighbor_masks()

    best = [int(np.argmax(g.degrees()))]
    cand = masks[best[0]]
    while cand:
        best.append((cand & -cand).bit_length() - 1)
        cand &= masks[best[-1]]

    def color_order(cand_mask):
        # Greedy colouring: vertices listed colour class by colour class,
        # each paired with its class number (an upper bound on the clique
        # extendable through it and everything listed before it).
        order, bounds = [], []
        uncolored = cand_mask
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                bit = avail & -avail
                u = bit.bit_length() - 1
                order.append(u)
                bounds.append(color)
                avail &= ~(masks[u] | bit)
                uncolored ^= bit
        return order, bounds

    stack = []

    def expand(cand_mask):
        nonlocal best
        order, bounds = color_order(cand_mask)
        for i in range(len(order) - 1, -1, -1):
            if len(stack) + bounds[i] <= len(best):
                return
            u = order[i]
            stack.append(u)
            sub = cand_mask & masks[u]
            if sub:
                expand(sub)
            elif len(stack) > len(best):
                best = stack.copy()
            stack.pop()
            cand_mask &= ~(1 << u)

    expand((1 << v) - 1)
    return sorted(best)


def clique_number(g: Graph) -> int:
    return len(max_clique(g))


def two_coloring(g: Graph):
    """A proper 2-coloring as a read-only int array, or None if any
    component has an odd cycle; cached on the graph.

    The colour is the parity of the depth below the smallest vertex of the
    component (see bfs_forest), so every root gets colour 0.  The coloring
    is proper iff no edge joins two vertices of one BFS level.
    """
    if "coloring" not in g._cache:
        _, _, depth, odd = _forest(g)
        color = (depth % 2).astype(np.int8)
        color.flags.writeable = False
        g._cache["coloring"] = None if odd else color
    return g._cache["coloring"]


def is_bipartite(g: Graph) -> bool:
    return two_coloring(g) is not None


def complete_bipartite_parts(g: Graph) -> list:
    """For each component, in connected_components order, its parts (A, B)
    when it is complete bipartite with both parts nonempty, else None; A
    holds the component's smallest vertex, and both parts are ascending.

    The parts are the depth parities in the component's BFS tree (see
    bfs_forest): with part = 2 * label + depth % 2, a component passes iff
    on each of its rows x ~ y exactly when part[y] == part[x] ^ 1,
    compared a row block at a time.
    """
    count, label, depth, _ = _forest(g)
    part = (2 * label + depth % 2).astype(np.min_scalar_type(2 * count))
    sizes = np.bincount(part, minlength=2 * count)
    ok = sizes.reshape(count, 2).all(axis=1)
    for s in row_blocks(g.vertex_count):
        wrong = part[s, None] ^ 1 == part
        wrong ^= g.rows(s)
        ok[label[s][wrong.any(axis=1)]] = False
    members = np.split(np.argsort(part, kind="stable"), np.cumsum(sizes)[:-1])
    return [(members[2 * c].tolist(), members[2 * c + 1].tolist()) if ok[c] else None
            for c in range(count)]


def is_complete_bipartite(g: Graph):
    """The bipartition (A, B) when the connected graph g is K_{|A|,|B|},
    else None: the one entry of complete_bipartite_parts."""
    if _forest(g)[0] != 1:
        raise DisconnectedGraph("complete-bipartite test needs a connected graph")
    return complete_bipartite_parts(g)[0]


def antipodal(g: Graph) -> Graph:
    """Same vertices; edge uv iff d(u, v) equals the diameter of g.

    A Cayley graph's is the Cayley graph of the same group whose mask is
    d0 == diameter, 0 left out (d0 = distances_from_0, d(x, y) = d0[x - y]):
    no V x V distances are read, and its adjacency is filled only when
    read.  Any other graph's is read off all_pairs_distances."""
    labels, cap = deferred_labels(g), max(g.vertex_count, 1)
    if g._group is not None:
        d0 = distances_from_0(g)
        mask = d0 == _connected_diameter(d0, "antipodal graph")
        mask[0] = False  # diam 0 would otherwise put a loop
        return Graph._cayley(g._group, mask, labels, cap)
    d = all_pairs_distances(g)
    adj = d == _connected_diameter(d, "antipodal graph")
    np.fill_diagonal(adj, False)  # diam 0 would otherwise put loops
    return Graph(adj, labels=labels, cap=cap)


# -- isomorphism oracle ---------------------------------------------------

def iso_check(g: Graph, h: Graph):
    """A vertex bijection g -> h, or None when the graphs are not isomorphic.

    The search runs on the twin-class quotients (see twin_classes): an
    isomorphism maps classes of false twins onto classes of the same size,
    and every size-preserving isomorphism of the quotients lifts, by
    mapping the members of each class to those of its image in ascending
    order.  Backtracking over candidate sets: a class of g may map to the
    classes of h of its size and vertex degree, pruned by adjacency to the
    classes already mapped.  A search step holds one packed bitset row of
    candidates per unmapped class of g, with the classes of h already used
    taken out.  It maps the lowest-indexed unmapped class with the fewest
    candidates to each of them in ascending order, and narrows every other
    row to that candidate's row of h or its complement in a few
    whole-array operations; a row left empty rejects the candidate.  On a
    twin-free graph the quotient is the graph itself, so the search order
    and the bijection found are those of a vertex-at-a-time search.
    The search is exhaustive, so None is a definitive answer, and a
    mapping found is checked edge by edge.  There is no colour
    refinement: theorem3 compares Cayley graphs, which are regular, and
    refinement cannot split a regular graph's degree class.
    Capped at ISO_ORACLE_CAP vertices.
    """
    if max(g.vertex_count, h.vertex_count) > ISO_ORACLE_CAP:
        raise GraphTooLargeForOracle(
            f"isomorphism oracle capped at {ISO_ORACLE_CAP} vertices")
    v = g.vertex_count
    if sorted(g.degrees()) != sorted(h.degrees()):  # so V and E agree too
        return None
    if v == 0:
        return []
    g_reps, g_class = twin_classes(g)
    h_reps, h_class = twin_classes(h)
    c = len(g_reps)
    if c != len(h_reps):
        return None

    g_adj = g.adjacency[np.ix_(g_reps, g_reps)]
    h_adj = h.adjacency[np.ix_(h_reps, h_reps)]
    near = _pack(h_adj)
    far = _pack(~(h_adj | np.eye(c, dtype=bool)))  # not adjacent, not equal
    mapping = [-1] * c

    def assign(unmapped, cand):
        # Recursion depth is at most V + 1 <= ISO_ORACLE_CAP + 1.
        if not unmapped.size:
            return True
        counts = np.bitwise_count(cand).sum(axis=1)
        i = int(np.argmin(counts))
        if not counts[i]:
            return False
        pick = int(unmapped[i])
        rest = np.delete(unmapped, i)
        adjacent = g_adj[pick, rest][:, None]
        for hu in np.flatnonzero(_unpack(cand[i:i + 1], c)).tolist():
            narrowed = np.delete(cand, i, axis=0)
            narrowed &= np.where(adjacent, near[hu], far[hu])
            if narrowed.any(axis=1).all() and assign(rest, narrowed):
                mapping[pick] = hu
                return True
        return False

    g_size, h_size = np.bincount(g_class), np.bincount(h_class)
    start = ((g.degrees()[g_reps, None] == h.degrees()[h_reps])
             & (g_size[:, None] == h_size))
    if not assign(np.arange(c), _pack(start)):
        return None
    # lift: the members of class a, ascending, go to those of mapping[a]
    preimage = np.empty(c, dtype=np.intp)
    preimage[mapping] = np.arange(c)
    perm = np.empty(v, dtype=np.intp)
    perm[np.argsort(g_class, kind="stable")] = np.argsort(preimage[h_class],
                                                          kind="stable")
    # verify edge by edge before reporting
    if not np.array_equal(h.adjacency[np.ix_(perm, perm)], g.adjacency):
        raise AssertionError("isomorphism search produced an invalid mapping")
    return perm.tolist()


def twin_classes(g: Graph):
    """The classes of false twins of g (vertices with equal adjacency rows;
    each class is an independent set) as (reps, class_of): reps[a] is the
    smallest member of class a, ascending, and class_of[x] the class of
    vertex x."""
    _, first, inverse = np.unique(_pack(g.adjacency), axis=0,
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]
