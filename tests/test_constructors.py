"""Graph builders checked against their defining rules, element by element."""

import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uct import (Graph, GraphTooLarge, RingSpec, RingTooLarge,
                 antipodal, antipodal_hamming_direct, complete_bipartite,
                 complete_graph, connected_components, diagonal_quotient,
                 diameter, hamming_graph, is_complete_bipartite, iso_check,
                 labeled_equal, semistrong_product, semistrong_rows,
                 unitary_cayley)
from uct import constructors, graph_core
from uct.tri_ring import (decode, diagonal_of, enumerate_ring, is_unit, mat_sub,
                          tuple_codes)


def vertex_tuples(length, base, count):
    out = []
    for code in range(count):
        t = []
        for _ in range(length):
            code, r = divmod(code, base)
            t.append(r)
        out.append(tuple(t))
    return out


# -- unitary Cayley graphs ----------------------------------------------------

def test_z5_is_complete():
    g = unitary_cayley(RingSpec.integers_mod(5))
    assert labeled_equal(g, complete_graph(5))


def test_z8_is_k44():
    g = unitary_cayley(RingSpec.integers_mod(8))
    parts = is_complete_bipartite(g)
    assert parts is not None
    assert sorted(map(len, parts)) == [4, 4]
    assert sorted(parts[0] + parts[1]) == list(range(8))
    # the parts are the evens and the odds
    assert {p % 2 for p in parts[0]} in ({0}, {1})


def test_t2_gf2_structure():
    g = unitary_cayley(RingSpec.triangular(2, 2, 1))
    assert g.vertex_count == 8
    assert set(int(d) for d in g.degrees()) == {2}
    comps = connected_components(g)
    assert [len(c) for c in comps] == [4, 4]
    for comp in comps:
        sub = g.induced_subgraph(comp)
        assert is_complete_bipartite(sub) is not None
        assert iso_check(sub, complete_bipartite(2, 2)) is not None


def test_cayley_adjacency_matches_per_element_unit_rule():
    """The graph rule re-derived one pair at a time through the scalar API."""
    for spec in [RingSpec.triangular(2, 3, 1), RingSpec.triangular(2, 2, 2),
                 RingSpec.integers_mod(12)]:
        g = unitary_cayley(spec)
        elements = enumerate_ring(spec)
        for x in range(g.vertex_count):
            for y in range(g.vertex_count):
                if spec.kind == "tri":
                    expect = x != y and is_unit(mat_sub(elements[x], elements[y]))
                else:
                    import math
                    expect = x != y and math.gcd((x - y) % spec.modulus,
                                                 spec.modulus) == 1
                assert bool(g.adjacency[x, y]) == expect


def zn_gcd_adjacency(m):
    """Pairwise reference for C_{Z_m}: gcd((x - y) mod m, m) == 1 and x != y."""
    x = np.arange(m, dtype=np.int16)
    diff = np.subtract.outer(x, x) % m
    return (np.gcd(diff, m) == 1) & (diff != 0)


@pytest.mark.parametrize("moduli", [range(2, 101), range(101, 201), range(201, 301),
                                    [4093]])
def test_zn_cayley_matches_the_gcd_definition(moduli):
    for m in moduli:
        g = unitary_cayley(RingSpec.integers_mod(m))
        assert np.array_equal(g.adjacency, zn_gcd_adjacency(m)), m


def test_cayley_is_unit_count_regular():
    for spec in [RingSpec.triangular(2, 3, 1), RingSpec.triangular(3, 2, 1),
                 RingSpec.triangular(2, 5, 1), RingSpec.integers_mod(9)]:
        g = unitary_cayley(spec)
        if spec.kind == "tri":
            units = sum(1 for a in enumerate_ring(spec) if is_unit(a))
        else:
            import math
            units = sum(1 for x in range(spec.modulus)
                        if math.gcd(x, spec.modulus) == 1)
        assert set(int(d) for d in g.degrees()) == {units}


def test_cayley_diagonal_shortcut_agrees():
    spec = RingSpec.triangular(2, 3, 1)
    g = unitary_cayley(spec)
    f = spec.field()
    for x in range(27):
        for y in range(27):
            dx = diagonal_of(decode(f, 2, x))
            dy = diagonal_of(decode(f, 2, y))
            assert bool(g.adjacency[x, y]) == all(a != b for a, b in zip(dx, dy))


def test_cayley_ring_too_large():
    with pytest.raises(RingTooLarge):
        unitary_cayley(RingSpec.triangular(9, 2, 1))
    with pytest.raises(RingTooLarge):
        unitary_cayley(RingSpec.integers_mod(100), cap=50)
    # The order check comes before any modulus-sized work.
    with pytest.raises(RingTooLarge):
        unitary_cayley(RingSpec.integers_mod(10**15))


def drop_unit_5(mask):
    mask[5] = False  # 7 = -5 stays a unit of Z_12


def make_0_a_unit(mask):
    mask[0] = True


def hold_0_and_an_axis(mask):
    mask[[0, 1, 2]] = True  # (0, 0), (1, 0) and (2, 0) = -(1, 0)


def hold_1_0_alone(mask):
    mask[1] = True  # (1, 0) without (2, 0) = -(1, 0)


@pytest.mark.parametrize("text, mutate, match, row_reads", [
    ("zn:12", drop_unit_5, "symmetric", [slice(0, 1)]),
    ("tri:2,3,1", make_0_a_unit, "loops", []),
    ("Z_3^2", hold_0_and_an_axis, "loops", []),
    ("Z_3^2", hold_1_0_alone, "symmetric", [slice(0, 1)]),
])
def test_cayley_rejects_a_mask_that_is_not_simple(monkeypatch, text, mutate,
                                                   match, row_reads):
    """The Cayley builder skips Graph's V x V loop and symmetry checks, so
    its O(V) mask checks must catch a mask that is not closed under
    negation, or that holds 0, before any row block is filled: no read but
    the negation check's read of row 0.  Ring graphs reach it through
    unitary_cayley with a mutated unit mask; Z_3^2 (encodings x0 + 3 x1),
    the group of H(2, 3), through the builder itself."""
    real_mask, real_reader = constructors.unit_mask, graph_core.group_reader
    reads = []

    def mutated_mask(spec, cap):
        mask = real_mask(spec, cap).copy()
        mutate(mask)
        return mask

    def counting_reader(group, of):
        read = real_reader(group, of)
        return lambda rows: reads.append(rows) or read(rows)
    monkeypatch.setattr(constructors, "unit_mask", mutated_mask)
    monkeypatch.setattr(graph_core, "group_reader", counting_reader)
    with pytest.raises(ValueError, match=match):
        if text == "Z_3^2":
            mask = np.zeros(9, dtype=bool)
            mutate(mask)
            Graph._cayley((3, 2), mask, None, 9)
        else:
            unitary_cayley(RingSpec.parse(text))
    assert reads == row_reads


def test_cayley_labels_are_entry_digits():
    g = unitary_cayley(RingSpec.triangular(2, 2, 1))
    assert g.labels[0] == "0,0,0"
    assert g.labels[7] == "1,1,1"


# -- Hamming graphs -----------------------------------------------------------

def test_hamming_one_coordinate_is_complete():
    assert labeled_equal(hamming_graph(1, 5), complete_graph(5))


def test_hamming_cube():
    g = hamming_graph(3, 2)
    assert g.vertex_count == 8
    assert g.edge_count() == 12
    assert diameter(g) == 3


def test_hamming_adjacency_rule():
    g = hamming_graph(2, 3)
    assert set(int(d) for d in g.degrees()) == {4}
    tuples = vertex_tuples(2, 3, 9)
    for x in range(9):
        for y in range(9):
            differ = sum(a != b for a, b in zip(tuples[x], tuples[y]))
            assert bool(g.adjacency[x, y]) == (differ == 1)


def test_antipodal_hamming_direct_rule():
    g = antipodal_hamming_direct(2, 3)
    tuples = vertex_tuples(2, 3, 9)
    for x in range(9):
        for y in range(9):
            differ = sum(a != b for a, b in zip(tuples[x], tuples[y]))
            assert bool(g.adjacency[x, y]) == (differ == 2)
    assert labeled_equal(antipodal_hamming_direct(1, 4), complete_graph(4))
    matching = antipodal_hamming_direct(3, 2)
    assert set(int(d) for d in matching.degrees()) == {1}


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3),
                                 (2, 5), (4, 2), (2, 7)])
def test_antipodal_direct_equals_generic(n, q):
    direct = antipodal_hamming_direct(n, q)
    generic = antipodal(hamming_graph(n, q))
    assert labeled_equal(direct, generic)
    assert direct.labels == generic.labels


# Every (n, q) with q**n <= 1024, plus the two 4096-vertex cases the
# benchmark's library workload builds.
COORDINATE_CASES = [(n, q) for n in range(1, 11) for q in range(2, 1025)
                    if q ** n <= 1024] + [(12, 2), (6, 4)]


@pytest.mark.parametrize("n", sorted({n for n, _ in COORDINATE_CASES}))
def test_kronecker_builders_match_the_coordinate_rule(n):
    """H(n, q) is 'differ in exactly one coordinate' and A(H(n, q)) is
    'differ in every coordinate', counted here from the digit tuples; the
    labels are the digit tuples in encoding order."""
    for q in (q for length, q in COORDINATE_CASES if length == n):
        t = tuple_codes(n, q)
        differ = np.zeros((q ** n, q ** n), dtype=np.int8)
        for i in range(n):
            differ += t[:, i][:, None] != t[None, :, i]
        labels = tuple(",".join(map(str, row)) for row in t.tolist())
        h, a = hamming_graph(n, q), antipodal_hamming_direct(n, q)
        assert np.array_equal(h.adjacency, differ == 1), q
        assert np.array_equal(a.adjacency, differ == n), q
        assert h.labels == labels and a.labels == labels


def test_hamming_too_large():
    """The cap is checked without forming q**n: 3**(10**4) has too many
    digits to print, and a longer length would take seconds to form."""
    with pytest.raises(GraphTooLarge):
        hamming_graph(17, 2)
    with pytest.raises(GraphTooLarge):
        hamming_graph(10**4, 3)
    with pytest.raises(GraphTooLarge):
        antipodal_hamming_direct(10**4, 3)
    with pytest.raises(ValueError):
        hamming_graph(0, 2)
    with pytest.raises(ValueError):
        antipodal_hamming_direct(2, 1)


# -- complete graphs ------------------------------------------------------------

def test_complete_graph_counts():
    assert complete_graph(1).edge_count() == 0
    assert complete_graph(4).edge_count() == 6
    k22 = complete_bipartite(2, 2)
    assert k22.edge_count() == 4
    assert set(int(d) for d in k22.degrees()) == {2}
    with pytest.raises(GraphTooLarge):
        complete_graph(70000)
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)


# -- semistrong product ----------------------------------------------------------

def semistrong_by_rule(g, h):
    """The definitional edge rule, one vertex pair at a time."""
    ng, nh = g.vertex_count, h.vertex_count
    adj = np.zeros((ng * nh, ng * nh), dtype=bool)
    for u1, v1, u2, v2 in itertools.product(range(ng), range(nh),
                                            range(ng), range(nh)):
        if h.adjacency[v1, v2] and (g.adjacency[u1, u2] or u1 == u2):
            adj[u1 * nh + v1, u2 * nh + v2] = True
    return Graph(adj)


def random_graph(n, p, rng):
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u, v] = adj[v, u] = True
    return Graph(adj)


def test_semistrong_identity_factor():
    h = hamming_graph(2, 3)
    assert labeled_equal(semistrong_product(complete_graph(1), h), h)


def test_semistrong_matches_defining_rule():
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng.randrange(1, 6), rng.random(), rng)
        h = random_graph(rng.randrange(1, 6), rng.random(), rng)
        assert labeled_equal(semistrong_product(g, h), semistrong_by_rule(g, h))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_semistrong_rows_at_any_index_array(a, b, seed, data):
    """semistrong_rows read at index arrays in any order, with repeats, or
    at a slice gives the rows of semistrong_product there."""
    rng = random.Random(seed)
    g, h = random_graph(a, rng.random(), rng), random_graph(b, rng.random(), rng)
    rows, product = semistrong_rows(g, h), semistrong_product(g, h)
    x = np.array(data.draw(st.lists(st.integers(0, a * b - 1), max_size=12)),
                 dtype=np.intp)
    assert np.array_equal(rows(x), product.adjacency[x])
    assert np.array_equal(rows(slice(1, a * b)), product.adjacency[1:])


def test_semistrong_degree_law():
    rng = random.Random(37)
    cases = [(complete_graph(3), antipodal_hamming_direct(2, 3))]
    for _ in range(5):
        cases.append((random_graph(rng.randrange(1, 7), rng.random(), rng),
                      random_graph(rng.randrange(1, 7), rng.random(), rng)))
    for g, h in cases:
        prod = semistrong_product(g, h)
        dg, dh = g.degrees(), h.degrees()
        for u in range(g.vertex_count):
            for v in range(h.vertex_count):
                assert prod.degrees()[u * h.vertex_count + v] == (dg[u] + 1) * dh[v]


def test_k3_bullet_antipodal_h23():
    prod = semistrong_product(complete_graph(3), antipodal_hamming_direct(2, 3))
    assert prod.vertex_count == 27
    assert set(int(d) for d in prod.degrees()) == {12}


def test_semistrong_cap():
    with pytest.raises(GraphTooLarge):
        semistrong_product(complete_graph(10), complete_graph(10), cap=50)


# -- diagonal quotient -------------------------------------------------------------

def test_quotient_hand_values():
    q23 = diagonal_quotient(RingSpec.triangular(2, 3, 1))
    assert q23.vertex_count == 9
    assert set(int(d) for d in q23.degrees()) == {4}
    q22 = diagonal_quotient(RingSpec.triangular(2, 2, 1))
    assert q22.vertex_count == 4
    assert set(int(d) for d in q22.degrees()) == {1}  # perfect matching


@pytest.mark.parametrize("spec", [RingSpec.triangular(2, 2, 1),
                                  RingSpec.triangular(2, 3, 1),
                                  RingSpec.triangular(3, 2, 1),
                                  RingSpec.triangular(2, 2, 2),
                                  RingSpec.triangular(3, 3, 1)])
def test_quotient_equals_direct_antipodal_hamming(spec):
    assert labeled_equal(diagonal_quotient(spec),
                         antipodal_hamming_direct(spec.n, spec.q))


@pytest.mark.parametrize("spec", [RingSpec.triangular(2, 2, 1),
                                  RingSpec.triangular(2, 3, 1)])
def test_quotient_some_pair_equals_every_pair(spec):
    """Adjacency between diagonal classes is all-or-nothing: representatives
    agree pair for pair, so the quotient reading is unambiguous."""
    g = unitary_cayley(spec)
    f = spec.field()
    classes = {}
    for code in range(spec.order):
        classes.setdefault(diagonal_of(decode(f, spec.n, code)), []).append(code)
    quotient = diagonal_quotient(spec)
    diag_code = {d: sum(x * spec.q ** i for i, x in enumerate(d)) for d in classes}
    for d1, d2 in itertools.combinations(classes, 2):
        cross = {bool(g.adjacency[x, y])
                 for x in classes[d1] for y in classes[d2]}
        assert len(cross) == 1  # some pair adjacent <=> every pair adjacent
        assert cross.pop() == bool(quotient.adjacency[diag_code[d1], diag_code[d2]])


@pytest.mark.parametrize("entries", [1, 100])
def test_row_blocked_builds_match_one_block(monkeypatch, entries):
    """unitary_cayley, diagonal_quotient and semistrong_product give the
    same graph whether the rows go one at a time, a few at a time or all
    in one block."""
    specs = [RingSpec.parse(text) for text in ("tri:2,3,1", "tri:3,2,1",
                                               "tri:2,2,2", "zn:30")]
    factors = [(hamming_graph(2, 2), antipodal_hamming_direct(2, 3)),
               (complete_graph(4), hamming_graph(2, 3)),
               (random_graph(7, 0.4, random.Random(5)), complete_bipartite(2, 3))]
    builds = ([(unitary_cayley, s) for s in specs]
              + [(diagonal_quotient, s) for s in specs[:3]]
              + [(lambda pair: semistrong_product(*pair), f) for f in factors])
    whole = [build(spec) for build, spec in builds]
    monkeypatch.setattr(graph_core, "_ROW_BLOCK_ENTRIES", entries)
    for g, (build, spec) in zip(whole, builds):
        blocked = build(spec)
        assert labeled_equal(blocked, g) and blocked.labels == g.labels


def test_builders_fill_the_graph_without_a_copy(monkeypatch):
    """With blocks of 16 rows, unitary_cayley, semistrong_product,
    hamming_graph, antipodal_hamming_direct and Graph.induced_subgraph,
    their adjacency read (a Cayley graph's is filled on that first read),
    hold the graph's own V x V bool array and one row block besides: no
    array of their own and no copy of it (which would be 2 V^2 bytes)."""
    monkeypatch.setattr(graph_core, "_ROW_BLOCK_ENTRIES", 1 << 16)
    spec = RingSpec.parse("tri:3,2,2")
    k, a = complete_graph(64), antipodal_hamming_direct(3, 4)
    big = complete_graph(4100)
    for name, build in (("unitary_cayley", lambda: unitary_cayley(spec)),
                        ("semistrong_product", lambda: semistrong_product(k, a)),
                        ("hamming_graph", lambda: hamming_graph(12, 2)),
                        ("antipodal_hamming_direct",
                         lambda: antipodal_hamming_direct(6, 4)),
                        ("induced_subgraph",
                         lambda: big.induced_subgraph(range(4, 4100)))):
        tracemalloc.start()
        try:
            v = len(build().adjacency)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v == 4096 and peak < 1.25 * v * v, (name, peak / (v * v))


def test_zn_cayley_holds_the_graph_and_one_row_block():
    """unitary_cayley(zn:4093), its adjacency read, reads the unit mask
    through one cyclic window: the graph's V x V bool array and one row
    block, with no uint16 code block of twice the block's size beside it."""
    v = 4093
    tracemalloc.start()
    try:
        adj = unitary_cayley(RingSpec.integers_mod(v)).adjacency
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert adj.shape == (v, v) and peak < 1.6 * v * v, peak / (v * v)


def test_quotient_needs_triangular_spec():
    with pytest.raises(ValueError):
        diagonal_quotient(RingSpec.integers_mod(8))



# -- labels ------------------------------------------------------------------------

def digit_labels(length, base):
    """The labels "d0,d1,..." of the base-`base` tuples of the given
    length in encoding order, by plain loops."""
    out = []
    for t in vertex_tuples(length, base, base ** length):
        out.append(",".join(str(d) for d in t))
    return tuple(out)


def index_labels(count):
    return tuple(str(x) for x in range(count))


def test_builders_format_no_label_until_read():
    """Until .labels is read, hamming_graph(10, 2), unitary_cayley(tri:4,2,1)
    and antipodal of hamming_graph(8, 2) (2304 vertices, every graph held)
    hold a few dozen new allocator blocks between them, not one string per
    vertex; read, the labels are the digit tuples."""
    spec = RingSpec.parse("tri:4,2,1")

    def build():
        base = hamming_graph(8, 2)
        return [hamming_graph(10, 2), unitary_cayley(spec), base, antipodal(base)]
    build()  # fills the caches a build reads (field and window tables)
    before = sys.getallocatedblocks()
    graphs = build()
    held = sys.getallocatedblocks() - before
    assert held < 200, held
    h, g, base, a = graphs
    assert h.labels == digit_labels(10, 2)
    assert g.labels == digit_labels(10, 2)  # T_4(GF(2)) has 10 entries
    assert a.labels == base.labels == digit_labels(8, 2)


def test_every_builder_labels_match_a_loop_reference():
    """Each builder's labels, read after the build, against plain loops;
    antipodal and induced_subgraph pass on their input's labels whether
    or not those were read, and unlabeled graphs stay unlabeled."""
    assert unitary_cayley(RingSpec.parse("tri:2,3,1")).labels == digit_labels(3, 3)
    assert unitary_cayley(RingSpec.parse("tri:2,2,2")).labels == digit_labels(3, 4)
    assert unitary_cayley(RingSpec.integers_mod(12)).labels == index_labels(12)
    assert complete_graph(5).labels == index_labels(5)
    assert complete_bipartite(2, 3).labels == index_labels(5)
    assert diagonal_quotient(RingSpec.parse("tri:2,3,1")).labels == digit_labels(2, 3)
    assert diagonal_quotient(RingSpec.parse("tri:3,2,1")).labels == digit_labels(3, 2)
    want = []
    for gl in index_labels(2):
        for hl in digit_labels(2, 3):
            want.append(gl + "|" + hl)
    assert semistrong_product(complete_graph(2), hamming_graph(2, 3)).labels == tuple(want)
    unread, read = hamming_graph(3, 2), hamming_graph(3, 2)
    read.labels
    for h in (unread, read):
        assert antipodal(h).labels == digit_labels(3, 2)
        want = []
        for v in (5, 0, 7):
            want.append(digit_labels(3, 2)[v])
        assert h.induced_subgraph([5, 0, 7]).labels == tuple(want)
    bare = Graph(hamming_graph(2, 3).adjacency)
    assert bare.labels is None
    assert antipodal(bare).labels is None
    assert bare.induced_subgraph([0, 4]).labels is None
    assert semistrong_product(complete_graph(2), bare).labels is None
    assert semistrong_product(bare, complete_graph(2)).labels is None
