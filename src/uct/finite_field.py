"""Lookup-table arithmetic for small finite fields GF(p^k).

Field elements are plain integers 0..q-1.  Index e stands for the
polynomial over Z_p whose coefficients are the base-p digits of e, least
significant digit first:

    e = sum_i c_i * p**i   <->   c_0 + c_1*x + ... + c_{k-1}*x**(k-1)

so index 0 is the additive identity and index 1 the multiplicative
identity.  Addition and subtraction act digit by digit mod p, so
(GF(p^k), +) is Z_p^k read base p (RingSpec.group relies on it, so
tri_ring.group_reader forms a ring's x - y digit by digit).  tuple_codes
is the one digit expansion, of field elements here and of ring entries
in tri_ring.

The modulus is the first monic degree-k polynomial, in the encoding
order of its lower coefficients, whose quotient ring has no zero
divisors: its multiplication table, built anyway, decides
irreducibility, so there is no polynomial arithmetic apart from it.
Trial division is used only by is_prime.  All arithmetic is precomputed
into q x q tables; a FieldTable never mutates and is safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldTooLarge, NotPrime, ZeroInverse

# Keeps every table comfortably materializable; T_3 over GF(4) is already
# a 4096-vertex graph downstream.
DEFAULT_FIELD_CAP = 64


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def power_exceeds(base: int, exponent: int, bound: int) -> bool:
    """base**exponent > bound, for base >= 2 (False for smaller bases),
    without forming a power above base**bit_length(bound), which already
    exceeds the bound."""
    return base > 1 and base ** min(exponent, bound.bit_length()) > bound


def tuple_codes(length: int, base: int) -> np.ndarray:
    """base**length x length array of digit tuples in encoding order
    (first coordinate least significant)."""
    codes = np.arange(base ** length, dtype=np.int64)
    out = np.empty((len(codes), length), dtype=np.int16)
    for j in range(length):
        codes, out[:, j] = np.divmod(codes, base)
    return out


@dataclass(frozen=True, eq=False)
class FieldTable:
    """A fully materialized GF(p^k) with table-driven arithmetic."""

    p: int
    k: int
    q: int
    modulus: tuple  # monic, constant term first, length k+1
    add_table: np.ndarray
    sub_table: np.ndarray
    mul_table: np.ndarray
    inv_table: np.ndarray  # entry 0 is -1: the inverse of zero is undefined

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        if not isinstance(other, FieldTable):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def add(self, a, b):
        return int(self.add_table[a, b])

    def sub(self, a, b):
        return int(self.sub_table[a, b])

    def mul(self, a, b):
        return int(self.mul_table[a, b])

    def neg(self, a):
        return int(self.sub_table[0, a])

    def inv(self, a):
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return int(self.inv_table[a])


def make_field(p: int, k: int, cap: int = DEFAULT_FIELD_CAP) -> FieldTable:
    """Construct GF(p**k) with the smallest-encoding irreducible modulus.

    The candidates x**k + low(x) are tried with low in encoding order (the
    rows of tuple_codes(k, p)); the modulus is the first whose quotient
    ring Z_p[x]/(x**k + low(x)) has no zero divisors, read off its
    multiplication table: a finite ring without zero divisors is a field,
    and the quotient is one exactly when the modulus is irreducible.
    Deterministic: two calls with equal (p, k) yield identical moduli and
    tables.  For k = 1 the modulus is x and the field is Z_p itself.
    """
    if power_exceeds(p, k, cap):  # first: trial division is slow for a large p
        raise FieldTooLarge(f"p**k = {p}**{k} exceeds field cap {cap}")
    if not is_prime(p):
        raise NotPrime(f"p={p} is not prime")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    q = p ** k

    digit = tuple_codes(k, p)
    powers = p ** np.arange(k, dtype=np.int64)
    add = (((digit[:, None, :] + digit[None, :, :]) % p) @ powers).astype(np.int16)
    sub = (((digit[:, None, :] - digit[None, :, :]) % p) @ powers).astype(np.int16)

    wide = digit.astype(np.int64)  # digit products overflow int16 for p > 181
    shifted = np.empty((k, q, k), dtype=np.int64)  # [i, b]: digits of x**i * b
    shifted[0] = wide
    for low in wide:  # the candidate moduli x**k + low(x), in encoding order
        for i in range(1, k):
            # x * c: c's digits move up, the top one folds back as -top * low(x)
            shifted[i, :, 0] = 0
            shifted[i, :, 1:] = shifted[i - 1, :, :-1]
            shifted[i] -= shifted[i - 1, :, -1:] * low
            shifted[i] %= p
        prod = wide @ shifted.reshape(k, q * k)  # a * b = sum_i a_i * (x**i * b)
        prod %= p
        mul = prod.reshape(q, q, k) @ powers
        # Row and column 0 hold 0 * b = 0; the quotient ring is a field
        # exactly when no other product is 0 (no zero divisors).
        if np.count_nonzero(mul) == (q - 1) ** 2:
            break
    mul = mul.astype(np.int16)
    inv = np.argmax(mul == 1, axis=1).astype(np.int16)  # the 1 in each row
    inv[0] = -1

    for t in (add, sub, mul, inv):
        t.flags.writeable = False
    return FieldTable(p=p, k=k, q=q, modulus=(*low.tolist(), 1),
                      add_table=add, sub_table=sub, mul_table=mul, inv_table=inv)


def _check_element(f: FieldTable, a: int):
    if not 0 <= a < f.q:
        raise ValueError(f"element index {a} out of range 0..{f.q - 1}")


def field_add(f: FieldTable, a: int, b: int) -> int:
    _check_element(f, a)
    _check_element(f, b)
    return f.add(a, b)


def field_sub(f: FieldTable, a: int, b: int) -> int:
    _check_element(f, a)
    _check_element(f, b)
    return f.sub(a, b)


def field_mul(f: FieldTable, a: int, b: int) -> int:
    _check_element(f, a)
    _check_element(f, b)
    return f.mul(a, b)


def field_inv(f: FieldTable, a: int) -> int:
    _check_element(f, a)
    return f.inv(a)
