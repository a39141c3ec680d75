"""Triangular matrix ring arithmetic, canonical encoding, and RingSpec."""

import math
import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uct import (DimensionMismatch, FieldTooLarge, RingSpec, RingTooLarge,
                 TriMatrix, constructors, decode, diagonal_of, encode,
                 enumerate_ring, finite_field, from_parts, graph_core,
                 is_unit, make_field, mat_det, mat_sub, strict_upper_of)
from uct.finite_field import power_exceeds
from uct.theorem_checker import check_prop0
from uct.tri_ring import (DEFAULT_VERTEX_CAP, diagonal_slots,
                          entry_digit_matrix, group_reader,
                          strict_upper_slots, tuple_codes, unit_mask,
                          upper_positions, window_digits)


def tri(field, n, entries):
    return TriMatrix(field, n, tuple(entries))


def diag_matrix(field, n, diagonal):
    return from_parts(field, n, (0,) * (n * (n - 1) // 2), tuple(diagonal))


def test_entry_order_is_row_major_upper_triangle():
    assert upper_positions(3) == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    assert diagonal_slots(3) == (0, 3, 5)
    assert strict_upper_slots(3) == (1, 2, 4)


@pytest.mark.parametrize("spec", [RingSpec.triangular(2, 2, 1),
                                  RingSpec.triangular(2, 3, 1),
                                  RingSpec.triangular(3, 3, 1)])
def test_encode_decode_bijection(spec):
    f = spec.field()
    seen = set()
    for code in range(spec.order):
        a = decode(f, spec.n, code)
        assert encode(a) == code
        seen.add(a.entries)
    assert len(seen) == spec.order


# Every triangular spec inside the default vertex cap (p = 41 and above
# already exceed it at n = 2).
CAPPED_TRI_SPECS = [RingSpec.triangular(n, p, k)
                    for n in range(2, 6)
                    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
                    for k in range(1, 7)
                    if p ** k <= 64
                    and p ** (k * n * (n + 1) // 2) <= DEFAULT_VERTEX_CAP]


@lru_cache(maxsize=None)
def cached_digits(spec):
    return entry_digit_matrix(spec)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CAPPED_TRI_SPECS), st.data())
def test_encode_decode_round_trip_inside_the_cap(spec, data):
    code = data.draw(st.integers(min_value=0, max_value=spec.order - 1))
    a = decode(spec.field(), spec.n, code)
    assert encode(a) == code
    assert a.entries == tuple(int(x) for x in cached_digits(spec)[code])


def test_mat_sub_examples():
    f3 = make_field(3, 1)
    a = tri(f3, 2, (1, 2, 2))  # diag (1, 2), upper 2
    z = mat_sub(a, a)
    assert z.entries == (0, 0, 0)
    # diag(1,2) - diag(2,2) = diag(2,0) entrywise mod 3
    b = tri(f3, 2, (2, 1, 2))
    assert diagonal_of(mat_sub(a, b)) == (2, 0)

    f2 = make_field(2, 1)
    x = tri(f2, 2, (1, 0, 1))
    y = tri(f2, 2, (1, 1, 0))
    add = tuple(f2.add(u, v) for u, v in zip(x.entries, y.entries))
    assert mat_sub(x, y).entries == add  # characteristic 2: a - b = a + b


def test_mat_sub_dimension_mismatch():
    f = make_field(3, 1)
    a = tri(f, 2, (1, 0, 1))
    b = tri(f, 3, (1, 0, 0, 1, 0, 1))
    with pytest.raises(DimensionMismatch):
        mat_sub(a, b)
    g = make_field(2, 1)
    c = tri(g, 2, (1, 0, 1))
    with pytest.raises(DimensionMismatch):
        mat_sub(a, c)


def test_mat_det():
    f = make_field(3, 1)
    identity = diag_matrix(f, 3, (1, 1, 1))
    assert mat_det(identity) == 1
    assert mat_det(tri(f, 2, (0, 2, 1))) == 0  # zero on the diagonal
    for upper in range(3):  # strict-upper entries never matter
        assert mat_det(tri(f, 2, (2, upper, 2))) == 1  # 2*2 = 4 = 1 mod 3


@pytest.mark.parametrize("spec", [RingSpec.triangular(2, 3, 1),
                                  RingSpec.triangular(3, 2, 1),
                                  RingSpec.triangular(2, 2, 2)])
def test_is_unit_iff_det_nonzero(spec):
    for a in enumerate_ring(spec):
        assert is_unit(a) == (mat_det(a) != 0)


@pytest.mark.parametrize("spec,expected", [
    (RingSpec.triangular(2, 2, 1), (2 - 1) ** 2 * 2),
    (RingSpec.triangular(2, 3, 1), (3 - 1) ** 2 * 3),
    (RingSpec.triangular(3, 2, 1), (2 - 1) ** 3 * 2 ** 3),
    (RingSpec.triangular(2, 2, 2), (4 - 1) ** 2 * 4),
])
def test_unit_count_formula(spec, expected):
    count = sum(1 for a in enumerate_ring(spec) if is_unit(a))
    assert count == expected


def test_identity_and_zero_parts():
    f = make_field(3, 1)
    identity = diag_matrix(f, 3, (1, 1, 1))
    assert diagonal_of(identity) == (1, 1, 1)
    assert strict_upper_of(identity) == (0, 0, 0)
    zero = decode(f, 3, 0)
    assert diagonal_of(zero) == (0, 0, 0)


def test_parts_recombine_for_all_of_t3_f3():
    spec = RingSpec.triangular(3, 3, 1)
    f = spec.field()
    for a in enumerate_ring(spec):
        rebuilt = from_parts(f, 3, strict_upper_of(a), diagonal_of(a))
        assert rebuilt == a


def test_enumerate_ring_sizes():
    assert len(enumerate_ring(RingSpec.triangular(2, 2, 1))) == 8
    assert len(enumerate_ring(RingSpec.triangular(3, 3, 1))) == 729
    assert enumerate_ring(RingSpec.integers_mod(8)) == list(range(8))


def test_enumerate_ring_too_large():
    with pytest.raises(RingTooLarge):
        enumerate_ring(RingSpec.triangular(9, 2, 1))
    with pytest.raises(RingTooLarge):
        enumerate_ring(RingSpec.triangular(2, 3, 1), cap=10)


def test_unit_mask_zn_matches_gcd():
    for m in [2, 6, 8, 12, 30]:
        units = unit_mask(RingSpec.integers_mod(m))
        assert units.shape == (m,)
        for x in range(m):
            assert units[x] == (math.gcd(x, m) == 1)


@pytest.mark.parametrize("text", ["tri:2,3,1", "tri:3,2,1", "tri:2,2,2",
                                  "tri:2,2,3"])
def test_unit_mask_matches_is_unit(text):
    spec = RingSpec.parse(text)
    want = [is_unit(a) for a in enumerate_ring(spec)]
    assert unit_mask(spec).tolist() == want


def test_unit_mask_checks_order_first():
    # No modulus-sized array is made before the cap check.
    with pytest.raises(RingTooLarge):
        unit_mask(RingSpec.integers_mod(10**15))
    with pytest.raises(RingTooLarge):
        unit_mask(RingSpec.triangular(2, 3, 1), cap=10)


def test_entry_digit_matrix_matches_decode():
    spec = RingSpec.triangular(2, 3, 1)
    digits = entry_digit_matrix(spec)
    f = spec.field()
    for code in range(spec.order):
        assert tuple(int(x) for x in digits[code]) == decode(f, 2, code).entries


# Every tri spec of at most 4096 vertices that the tests or the benchmark
# run, and one with k = 4.
ALL_TRI_SPECS = ["tri:2,2,1", "tri:3,2,1", "tri:4,2,1", "tri:2,3,1",
                 "tri:3,3,1", "tri:2,5,1", "tri:2,7,1", "tri:2,2,2",
                 "tri:2,3,2", "tri:2,2,3", "tri:3,2,2", "tri:2,2,4"]


@pytest.mark.parametrize("text", ALL_TRI_SPECS)
def test_enumerate_ring_decodes_every_encoding(text):
    """enumerate_ring reads the rows of entry_digit_matrix; element e must
    be decode(e), the scalar digit expansion of its encoding."""
    spec = RingSpec.parse(text)
    f = spec.field()
    assert enumerate_ring(spec) == [decode(f, spec.n, e)
                                    for e in range(spec.order)]


@pytest.mark.parametrize("text", ALL_TRI_SPECS + ["tri:2,17,1"])
def test_difference_codes_match_mat_sub(text):
    """group_reader's codes of (R, +) against mat_sub on the TriMatrix
    values, every column: every row up to 256 elements, else the first,
    second, middle and last rows and four more."""
    spec = RingSpec.parse(text)
    v = spec.order
    rows = (range(v) if v <= 256 else
            sorted({0, 1, v // 2, v - 1, *random.Random(v).sample(range(v), 4)}))
    diff = group_reader(spec.group)(rows)
    assert diff.dtype == np.min_scalar_type(v - 1)
    assert diff.shape == (len(rows), v)
    elems = enumerate_ring(spec)
    for i, x in enumerate(rows):
        assert [int(c) for c in diff[i]] == [encode(mat_sub(elems[x], b))
                                             for b in elems]


def entrywise_difference_codes(spec):
    """Reference rule: subtract entry by entry through the field's
    sub_table, reading the entry digits base q."""
    sub = spec.field().sub_table
    digits = entry_digit_matrix(spec)
    codes = np.zeros((spec.order, spec.order), dtype=np.int32)
    for t in reversed(range(digits.shape[1])):
        col = digits[:, t]
        codes *= spec.q
        codes += sub[col[:, None], col[None, :]]
    return codes


@pytest.mark.parametrize("text", ALL_TRI_SPECS)
def test_prop0_unit_count_is_the_definitional_count(text):
    """prop0 counts the units from the diagonal digits; the reference is
    is_unit on every TriMatrix of enumerate_ring."""
    spec = RingSpec.parse(text)
    verdict = check_prop0(spec)
    assert verdict.computed["unit_count"] == sum(is_unit(a) for a in enumerate_ring(spec))


@pytest.mark.parametrize("text", ALL_TRI_SPECS)
def test_difference_codes_match_entrywise_sub_table(text):
    """Every row of group_reader's codes of (R, +), asked for as np.arange(V)
    and as one slice, against the entrywise reference."""
    spec = RingSpec.parse(text)
    want = entrywise_difference_codes(spec).astype(np.min_scalar_type(spec.order - 1))
    for rows in (np.arange(spec.order), slice(None)):
        diff = group_reader(spec.group)(rows)
        assert diff.dtype == want.dtype and diff.tobytes() == want.tobytes()


def test_difference_codes_zn():
    for m, dtype in [(12, np.uint8), (256, np.uint8), (257, np.uint16),
                     (4093, np.uint16)]:
        diff = group_reader(RingSpec.integers_mod(m).group)(np.arange(m))
        idx = np.arange(m, dtype=np.int64)
        assert diff.dtype == dtype
        assert np.array_equal(diff, np.subtract.outer(idx, idx) % m)


@pytest.mark.parametrize("text", ["tri:3,2,1", "tri:2,3,2", "zn:30"])
def test_difference_rows_in_any_order(text):
    """Unsorted and repeated rows are rows of the whole table in the order
    asked for; no rows give a 0 x V array."""
    spec = RingSpec.parse(text)
    v = spec.order
    table = group_reader(spec.group)(range(v))
    rows = [v - 1, 0, 3, 3, 1, v - 1, 2]
    assert np.array_equal(group_reader(spec.group)(rows), table[rows])
    assert np.array_equal(group_reader(spec.group)(np.array(rows[::-1])),
                          table[rows[::-1]])
    for empty in ([], np.array([], dtype=np.int64), slice(0, 0)):
        diff = group_reader(spec.group)(empty)
        assert diff.shape == (0, v) and diff.dtype == table.dtype


@pytest.mark.parametrize("text", ["zn:2", "zn:3", "zn:12", "zn:256", "zn:257",
                                  "zn:4093", *ALL_TRI_SPECS, "tri:2,17,1"])
def test_difference_rows_of_table(text):
    """group_reader(spec.group, t)(rows) is t read at the difference codes,
    in t's dtype, for bool, uint8 and uint16 tables and rows asked for as
    slices, unsorted and repeated arrays and no rows at all.  The specs
    include digit splits inside one entry's k digits and halves of one
    digit (see test_window_digits)."""
    spec = RingSpec.parse(text)
    v = spec.order
    rng = np.random.default_rng(v)
    tables = (rng.random(v) < 0.5, rng.integers(0, 256, v, dtype=np.uint8),
              rng.integers(0, 1 << 16, v, dtype=np.uint16))
    row_sets = (slice(None) if v <= 512 else slice(v // 3, v // 3 + 40),
                slice(v - 1, None), np.array([v - 1, 0, v // 2, v // 2, 1, v - 1]),
                rng.integers(0, v, 17), [], slice(0, 0))
    for t in tables:
        for rows in row_sets:
            got = group_reader(spec.group, t)(rows)
            want = t[group_reader(spec.group)(rows)]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (text, t.dtype, rows)


@pytest.mark.parametrize("text", ["zn:12", "tri:2,3,1"])
def test_difference_rows_of_wrong_length_raises(text):
    spec = RingSpec.parse(text)
    for size in (spec.order - 1, spec.order + 1, 0):
        with pytest.raises(ValueError):
            group_reader(spec.group, np.zeros(size, dtype=bool))(slice(None))


@pytest.mark.parametrize("rows", [[-1], [0, 27], [27], np.array([[0, 1]]),
                                  np.array([-1, 3], dtype=np.int16),
                                  -np.array([1], dtype=np.uint8),
                                  np.arange(1, 28)])
def test_difference_rows_outside_the_ring_raise(rows):
    """Rows below 0, at V itself or wrapped above V - 1 by an unsigned
    dtype are rejected, so no code outside 0..V-1 reaches a reader."""
    spec = RingSpec.parse("tri:2,3,1")
    with pytest.raises(ValueError):
        group_reader(spec.group)(rows)
    read = group_reader(spec.group, np.zeros(spec.order, dtype=bool))
    with pytest.raises(ValueError):
        read(rows)


@pytest.mark.parametrize("text, low", [
    ("tri:2,2,3", 5), ("tri:2,3,2", 3),  # the split inside one entry's k digits
    ("tri:2,2,1", 1), ("tri:2,3,1", 1),  # a low half of one digit
    ("tri:2,17,1", 2),  # a high half of one digit
    ("tri:3,2,2", 8), ("zn:4093", 1),
    ("tri:5,2,1", 9), ("tri:2,37,1", 2), ("tri:4,3,1", 6)])
def test_window_digits(text, low):
    """window_digits for a bool table: chunks of 512 entries where V allows
    (2^9 on tri:5,2,1), longer where one digit more is the first to reach
    it (37^2, 3^6), shorter where the window table would pass V^2 / 16."""
    spec = RingSpec.parse(text)
    assert window_digits(spec.group) == low
    if text in ("tri:2,2,3", "tri:2,3,2"):
        assert low % spec.k


@pytest.mark.parametrize("text", ["zn:12", "zn:4093", *ALL_TRI_SPECS, "tri:2,17,1"])
def test_window_table_stays_within_its_bound(text):
    """The table a reader gathers from holds V * m^L entries, within V^2 / 16
    when L > 1, and (V / m) * (2m - 1) at L = 1, the ramp's windows; its
    chunks reach 512 bytes unless that bound or the digit count stops them."""
    spec = RingSpec.parse(text)
    v = spec.order
    m, count = (spec.modulus, 1) if spec.kind == "zn" else (
        spec.p, spec.k * spec.n * (spec.n + 1) // 2)
    assert spec.group == (m, count) and m ** count == v
    for t in (np.zeros(v, dtype=bool), np.zeros(v, dtype=np.uint16)):
        low = window_digits((m, count), t.itemsize)
        table = group_reader(spec.group, t).table
        assert table.dtype == t.dtype
        if low == 1:
            assert table.size == v // m * (2 * m - 1)
        else:
            assert table.size == v * m ** low <= v * v / 16
        assert (m ** low * t.itemsize >= 512 or low == count
                or 16 * m ** (low + 1) > v)


def test_reader_builds_its_window_table_once(monkeypatch):
    """A reader's window table is built with the reader: reading every one
    of tri:3,2,2's 256 blocks of 16 rows allocates about one block at a
    time, far below the 1 MB table, which a rebuild per block would add."""
    monkeypatch.setattr(graph_core, "_ROW_BLOCK_ENTRIES", 1 << 16)
    spec = RingSpec.parse("tri:3,2,2")
    read = group_reader(spec.group, unit_mask(spec))
    assert read.table.nbytes == spec.order * 2 ** 8
    blocks = graph_core.row_blocks(spec.order)
    tracemalloc.start()
    try:
        for s in blocks:
            block = read(s)
            del block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == 256
    assert peak < 4 * (1 << 16) <= read.table.nbytes / 4, peak


def test_difference_codes_peak_memory():
    """One row block of tri:3,2,2 holds the block and the block before its
    last digit (half its size for p = 2); an int32 or int64 temporary of
    the block's size would break the bound."""
    spec = RingSpec.parse("tri:3,2,2")
    tracemalloc.start()
    try:
        diff = group_reader(spec.group)(graph_core.row_blocks(spec.order)[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = graph_core._ROW_BLOCK_ENTRIES // spec.order
    assert diff.shape == (rows, spec.order) and rows < spec.order
    assert diff.nbytes == 2 * rows * spec.order
    assert peak < 1.6 * diff.nbytes


def test_ring_spec_parse_roundtrip():
    for text in ["tri:2,3,1", "tri:3,2,2", "zn:8"]:
        assert str(RingSpec.parse(text)) == text
    with pytest.raises(ValueError):
        RingSpec.parse("tri:2,3")
    with pytest.raises(ValueError):
        RingSpec.parse("poly:5")
    with pytest.raises(ValueError):
        RingSpec.parse("zn:x")


def test_ring_spec_validation():
    with pytest.raises(ValueError):
        RingSpec.triangular(1, 3, 1)  # needs n >= 2
    with pytest.raises(ValueError, match="not prime"):
        RingSpec.triangular(2, 4, 1)
    with pytest.raises(ValueError):
        RingSpec.integers_mod(1)
    spec = RingSpec.triangular(2, 2, 2)
    assert spec.q == 4
    assert spec.order == 4 ** 3
    with pytest.raises(ValueError):
        RingSpec.integers_mod(8).q
    # The field cap (64) is checked when the spec is made, before any table.
    assert RingSpec.triangular(2, 2, 6).q == 64
    for p, k in [(67, 1), (2, 7), (3, 4), (2, 10 ** 9)]:
        with pytest.raises(FieldTooLarge):
            RingSpec.triangular(2, p, k)
    with pytest.raises(FieldTooLarge):
        RingSpec.parse("tri:2,67,1")


def test_ring_order_is_bounded_before_it_is_formed():
    """T_10(GF(2)) has 2**55 elements, T_11(GF(2)) 2**66: RingTooLarge
    above 2**64, decided from p and the exponent, even for a dimension
    whose order would have billions of digits."""
    assert RingSpec.triangular(10, 2, 1).order == 2 ** 55
    assert RingSpec.triangular(4, 2, 6).order == 2 ** 60
    for n, p, k in [(11, 2, 1), (5, 2, 6), (100000, 2, 1)]:
        with pytest.raises(RingTooLarge, match=rf"{p}\*\*{k * n * (n + 1) // 2} "):
            RingSpec.triangular(n, p, k)
    assert power_exceeds(2, 65, 1 << 64) and not power_exceeds(2, 64, 1 << 64)
    assert not power_exceeds(-100, 2, 64) and not power_exceeds(1, 10 ** 9, 64)


def test_tri_matrix_validation():
    f = make_field(2, 1)
    with pytest.raises(ValueError):
        TriMatrix(f, 2, (0, 1))  # needs 3 entries
    with pytest.raises(ValueError):
        TriMatrix(f, 2, (0, 1, 2))  # entry out of field


def test_digit_matrix_is_vectorized_consistently():
    spec = RingSpec.triangular(3, 2, 1)
    digits = entry_digit_matrix(spec)
    assert digits.shape == (64, 6)
    codes = digits.astype(np.int64) @ (2 ** np.arange(6, dtype=np.int64))
    assert (codes == np.arange(64)).all()
    # One digit expansion: the digit matrix is tuple_codes over n(n+1)/2
    # entries, and the field tables and the Hamming constructors use the
    # same function.
    assert np.array_equal(digits, tuple_codes(6, 2))
    assert constructors.tuple_codes is finite_field.tuple_codes is tuple_codes
