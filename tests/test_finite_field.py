"""Field construction and arithmetic, checked against independent
polynomial arithmetic written here (no shared code with the package)."""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uct import (DEFAULT_FIELD_CAP, FieldTable, FieldTooLarge, NotPrime,
                 ZeroInverse, field_add, field_inv, field_mul, field_sub,
                 make_field)

ALL_SMALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


# -- independent oracle: dense polynomial arithmetic over Z_p --------------

def oracle_digits(e, p, k):
    out = []
    for _ in range(k):
        e, r = divmod(e, p)
        out.append(r)
    return out


def oracle_int(coeffs, p):
    v = 0
    for c in reversed(coeffs):
        v = v * p + c
    return v


def oracle_mul(a, b, p, modulus, k):
    """Multiply field elements a, b by raw convolution then long division."""
    da, db = oracle_digits(a, p, k), oracle_digits(b, p, k)
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] = (prod[i + j] + da[i] * db[j]) % p
    # reduce by the monic modulus
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        if c:
            for i, mi in enumerate(modulus):
                prod[top - k + i] = (prod[top - k + i] - c * mi) % p
    return oracle_int(prod[:k], p)


def oracle_monic_irreducibles(p, k):
    """All monic irreducible degree-k polynomials over Z_p, by checking that
    no product of two lower-degree monic polynomials matches."""
    def all_polys(deg):
        return [list(t) + [1] for t in itertools.product(range(p), repeat=deg)]

    def mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, fi in enumerate(f):
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
        return out

    products = set()
    for d1 in range(1, k):
        d2 = k - d1
        if d2 < d1:
            break
        for f in all_polys(d1):
            for g in all_polys(d2):
                products.add(tuple(mul(f, g)))
    return [tuple(f) for f in all_polys(k) if tuple(f) not in products]


# (p, k) for every field order q = p^k <= 64.
ALL_Q_UP_TO_64 = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                   41, 43, 47, 53, 59, 61)
                  for k in range(1, 7) if p ** k <= 64]


@lru_cache(maxsize=None)
def cached_field(p, k):
    return make_field(p, k)


def test_gf2_addition_is_xor():
    f = make_field(2, 1)
    assert f.q == 2
    assert f.add(1, 1) == 0
    assert f.add(1, 0) == 1


def test_gf3_arithmetic():
    f = make_field(3, 1)
    assert f.mul(2, 2) == 1
    assert f.sub(1, 2) == 2


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    expected = oracle_monic_irreducibles(2, 2)
    assert expected == [(1, 1, 1)]  # x^2 + x + 1
    f = make_field(2, 2)
    assert f.modulus == (1, 1, 1)


def test_gf4_full_multiplication_table_against_oracle():
    f = make_field(2, 2)
    for a in range(4):
        for b in range(4):
            assert f.mul(a, b) == oracle_mul(a, b, 2, f.modulus, 2)
    # the one value quoted everywhere: x * x = x + 1
    assert f.mul(2, 2) == 3


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (2, 4), (5, 2), (2, 5),
                                 (3, 3), (7, 2), (2, 6), (2, 7), (2, 8)])
def test_modulus_is_smallest_irreducible(p, k):
    """GF(2^7) and GF(2^8) need a raised cap; GF(2^8)'s modulus is the
    28th candidate in encoding order."""
    f = make_field(p, k, cap=max(DEFAULT_FIELD_CAP, p ** k))
    irreducibles = oracle_monic_irreducibles(p, k)
    smallest = min(irreducibles, key=lambda c: oracle_int(list(c[:-1]), p))
    assert f.modulus == smallest


@pytest.mark.parametrize("p,k", ALL_Q_UP_TO_64)
def test_extension_multiplication_against_oracle(p, k):
    """The whole multiplication table of every field the cap allows: the
    oracle's convolution and long division for k >= 2, a*b mod p for k = 1."""
    f = cached_field(p, k)
    if k == 1:
        elems = np.arange(p)
        assert np.array_equal(f.mul_table, np.multiply.outer(elems, elems) % p)
        return
    for a in range(f.q):
        for b in range(f.q):
            assert f.mul(a, b) == oracle_mul(a, b, p, f.modulus, k)


@pytest.mark.parametrize("p,k", ALL_Q_UP_TO_64)
def test_inverse_table(p, k):
    """inv[a] is a's inverse through mul_table, inv[0] is -1, and all four
    tables are read-only int16."""
    f = cached_field(p, k)
    elems = np.arange(1, f.q)
    assert f.inv_table[0] == -1
    assert (f.mul_table[elems, f.inv_table[elems]] == 1).all()
    for t in (f.add_table, f.sub_table, f.mul_table, f.inv_table):
        assert t.dtype == np.int16 and not t.flags.writeable


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    """Every axiom over all q^3 triples, q <= 9."""
    f = make_field(p, k)
    q = f.q
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,k", ALL_Q_UP_TO_64)
def test_addition_is_digitwise_mod_p(p, k):
    """The encoding contract tri_ring.group_reader rests on: add and
    subtract act on the base-p digits of the indices one by one, mod p."""
    f = cached_field(p, k)
    for a in range(f.q):
        da = oracle_digits(a, p, k)
        for b in range(f.q):
            db = oracle_digits(b, p, k)
            assert f.add_table[a, b] == oracle_int([(x + y) % p for x, y in zip(da, db)], p)
            assert f.sub_table[a, b] == oracle_int([(x - y) % p for x, y in zip(da, db)], p)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_Q_UP_TO_64), st.data())
def test_field_axioms_sampled_up_to_64(pk, data):
    """The axioms on drawn triples of every field the field cap allows."""
    f = cached_field(*pk)
    a, b, c = data.draw(st.tuples(*[st.integers(0, f.q - 1)] * 3))
    assert f.add(a, 0) == a and f.mul(a, 1) == a
    assert f.add(a, f.neg(a)) == 0
    assert f.add(a, b) == f.add(b, a) and f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a:
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,k", ALL_SMALL_Q)
def test_multiplicative_group_has_order_q_minus_1(p, k):
    f = make_field(p, k)
    for a in range(1, f.q):
        acc = 1
        for _ in range(f.q - 1):
            acc = f.mul(acc, a)
        assert acc == 1


def test_subtraction_inverts_addition():
    f = make_field(3, 2)
    for a in range(9):
        for b in range(9):
            assert f.sub(f.add(a, b), b) == a


def test_make_field_deterministic():
    f1 = make_field(3, 2)
    f2 = make_field(3, 2)
    assert f1.modulus == f2.modulus
    assert (f1.add_table == f2.add_table).all()
    assert (f1.mul_table == f2.mul_table).all()
    assert (f1.inv_table == f2.inv_table).all()


def test_gf5_inverse():
    f = make_field(5, 1)
    assert f.inv(2) == 3  # 2*3 = 6 = 1 mod 5


def test_module_level_ops_validate_range():
    f = make_field(5, 1)
    assert field_add(f, 2, 4) == 1
    assert field_sub(f, 1, 3) == 3
    assert field_mul(f, 3, 4) == 2
    assert field_inv(f, 4) == 4
    with pytest.raises(ValueError):
        field_add(f, 5, 0)
    with pytest.raises(ValueError):
        field_mul(f, 0, -1)


def test_errors():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(NotPrime):
        make_field(1, 1)
    with pytest.raises(FieldTooLarge):
        make_field(2, 7)  # 128 > default cap 64
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ZeroInverse):
        make_field(7, 1).inv(0)


def test_field_equality_by_parameters():
    assert make_field(2, 2) == make_field(2, 2)
    assert make_field(2, 2) != make_field(2, 1)


def test_tables_are_immutable():
    f = make_field(2, 2)
    with pytest.raises(ValueError):
        f.mul_table[0, 0] = 1


def test_cap_is_configurable():
    f = make_field(2, 7, cap=128)
    assert f.q == 128
    assert isinstance(f, FieldTable)
