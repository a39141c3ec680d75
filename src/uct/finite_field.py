"""Lookup-table arithmetic for small finite fields GF(p^k).

Field elements are plain integers 0..q-1.  Index e stands for the
polynomial over Z_p whose coefficients are the base-p digits of e, least
significant digit first:

    e = sum_i c_i * p**i   <->   c_0 + c_1*x + ... + c_{k-1}*x**(k-1)

so index 0 is the additive identity and index 1 the multiplicative
identity.  Addition and subtraction act digit by digit mod p, so
(GF(p^k), +) is Z_p^k read base p (tri_ring.difference_reader relies
on it).  All arithmetic is precomputed into q x q tables; a FieldTable never
mutates and is safe to share between threads.
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


def base_digits(value: int, base: int, width: int) -> list[int]:
    """Base-`base` digits of `value`, least significant first, padded to `width`."""
    out = []
    for _ in range(width):
        value, r = divmod(value, base)
        out.append(r)
    return out


def digits_to_int(digits, base: int) -> int:
    v = 0
    for d in reversed(list(digits)):
        v = v * base + d
    return v


# -- polynomial helpers over Z_p; coefficient lists are constant-first ---

def _trim(c):
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m, over Z_p."""
    a = _trim(list(a))
    deg_m = len(m) - 1
    while len(a) - 1 >= deg_m:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - deg_m
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()  # top coefficient is now zero
        _trim(a)
    return a


def is_irreducible(poly, p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg//2.

    A reducible polynomial of degree d always has a monic factor of
    degree at most d//2, so this is exact.
    """
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p ** d):
            divisor = base_digits(enc, p, d) + [1]
            if poly_mod(poly, divisor, p) == [0]:
                return False
    return True


def smallest_irreducible_modulus(p: int, k: int) -> list[int]:
    """The monic irreducible degree-k polynomial over Z_p whose non-leading
    coefficient vector has the smallest base-p integer encoding."""
    for enc in range(p ** k):
        cand = base_digits(enc, p, k) + [1]
        if is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found; unreachable")


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

    modulus = smallest_irreducible_modulus(p, k)

    digit = np.array([base_digits(e, p, k) for e in range(q)], dtype=np.int16)
    powers = p ** np.arange(k, dtype=np.int64)
    add = (((digit[:, None, :] + digit[None, :, :]) % p) @ powers).astype(np.int16)
    sub = (((digit[:, None, :] - digit[None, :, :]) % p) @ powers).astype(np.int16)

    mul = np.zeros((q, q), dtype=np.int16)
    for a in range(1, q):
        pa = list(digit[a])
        for b in range(a, q):
            prod = poly_mod(poly_mul(pa, list(digit[b]), p), modulus, p)
            v = digits_to_int(prod, p)
            mul[a, b] = v
            mul[b, a] = v

    inv = np.full(q, -1, dtype=np.int16)
    for a in range(1, q):
        inv[a] = int(np.nonzero(mul[a] == 1)[0][0])

    for t in (add, sub, mul, inv):
        t.flags.writeable = False
    return FieldTable(p=p, k=k, q=q, modulus=tuple(modulus),
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
