"""Upper-triangular matrix rings over lookup-table fields, plus Z_n.

The entry order is fixed project-wide: the stored upper triangle is
listed row by row with the diagonal included,

    (0,0), (0,1), ..., (0,n-1), (1,1), ..., (1,n-1), ..., (n-1,n-1)

and the canonical integer encoding reads that sequence as base-q digits,
first entry least significant.  The encoding is a bijection between
T_n(F) and 0..q**(n(n+1)/2)-1; exported graphs and all structural maps
depend on it.  group_reader is the one place x - y is formed, in any group
Z_m**count (a ring's (R, +), or the tuples of a Hamming graph); it reads a
per-element table (the unit mask, say) there, as a gather of contiguous
chunks of one window table W built once per table (see group_reader).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, FieldTooLarge, RingTooLarge
from .finite_field import (DEFAULT_FIELD_CAP, FieldTable, is_prime, make_field,
                           power_exceeds, tuple_codes)

DEFAULT_VERTEX_CAP = 1 << 16
HARD_VERTEX_CAP = 1 << 20


@lru_cache(maxsize=None)
def upper_positions(n: int) -> tuple:
    """Row-major (i, j) positions of the stored upper triangle, i <= j."""
    return tuple((i, j) for i in range(n) for j in range(i, n))


@lru_cache(maxsize=None)
def diagonal_slots(n: int) -> tuple:
    """Indices of the diagonal entries inside the canonical entry sequence."""
    return tuple(t for t, (i, j) in enumerate(upper_positions(n)) if i == j)


@lru_cache(maxsize=None)
def strict_upper_slots(n: int) -> tuple:
    return tuple(t for t, (i, j) in enumerate(upper_positions(n)) if i < j)


@dataclass(frozen=True)
class TriMatrix:
    """Upper-triangular n x n matrix; entries are field element indices."""

    field: FieldTable
    n: int
    entries: tuple

    def __post_init__(self):
        want = self.n * (self.n + 1) // 2
        if len(self.entries) != want:
            raise ValueError(f"need {want} entries for n={self.n}, got {len(self.entries)}")
        if any(not 0 <= e < self.field.q for e in self.entries):
            raise ValueError("entry out of field range")

    def __repr__(self):
        return f"TriMatrix(n={self.n}, q={self.field.q}, entries={self.entries})"


def mat_sub(a: TriMatrix, b: TriMatrix) -> TriMatrix:
    if a.n != b.n or a.field != b.field:
        raise DimensionMismatch("operands live in different rings")
    sub = a.field.sub_table
    return TriMatrix(a.field, a.n,
                     tuple(int(sub[x, y]) for x, y in zip(a.entries, b.entries)))


def mat_det(a: TriMatrix) -> int:
    """Determinant: the field product of the diagonal entries."""
    mul = a.field.mul_table
    v = 1
    for t in diagonal_slots(a.n):
        v = int(mul[v, a.entries[t]])
    return v


def is_unit(a: TriMatrix) -> bool:
    return all(a.entries[t] != 0 for t in diagonal_slots(a.n))


def diagonal_of(a: TriMatrix) -> tuple:
    return tuple(a.entries[t] for t in diagonal_slots(a.n))


def strict_upper_of(a: TriMatrix) -> tuple:
    """Entries (i, j) with i < j, in row-major order."""
    return tuple(a.entries[t] for t in strict_upper_slots(a.n))


def from_parts(field: FieldTable, n: int, strict_upper, diagonal) -> TriMatrix:
    """Rebuild a matrix from its strictly-upper part and its diagonal."""
    entries = [0] * (n * (n + 1) // 2)
    for t, e in zip(strict_upper_slots(n), strict_upper):
        entries[t] = e
    for t, e in zip(diagonal_slots(n), diagonal):
        entries[t] = e
    return TriMatrix(field, n, tuple(entries))


def encode(a: TriMatrix) -> int:
    """Canonical integer encoding (entry sequence as base-q digits, LSD first)."""
    code = 0
    for e in reversed(a.entries):
        code = code * a.field.q + e
    return code


def decode(field: FieldTable, n: int, code: int) -> TriMatrix:
    entries = []
    for _ in range(n * (n + 1) // 2):
        code, e = divmod(code, field.q)
        entries.append(e)
    return TriMatrix(field, n, tuple(entries))


@dataclass(frozen=True)
class RingSpec:
    """Parameters sufficient to rebuild one supported ring deterministically.

    kind "tri": T_n(GF(p^k)); kind "zn": integers modulo `modulus`.
    The CLI spelling is ``tri:N,P,K`` / ``zn:M``.
    """

    kind: str
    n: int = 0
    p: int = 0
    k: int = 0
    modulus: int = 0

    def __post_init__(self):
        if self.kind == "tri":
            if self.n < 2:
                raise ValueError("matrix dimension must be >= 2")
            if power_exceeds(self.p, self.k, DEFAULT_FIELD_CAP):
                raise FieldTooLarge(f"p**k = {self.p}**{self.k} exceeds field "
                                    f"cap {DEFAULT_FIELD_CAP}")
            if not is_prime(self.p):
                raise ValueError(f"p={self.p} is not prime")
            if self.k < 1:
                raise ValueError("extension degree must be >= 1")
            exponent = self.k * self.n * (self.n + 1) // 2
            if power_exceeds(self.p, exponent, 1 << 64):
                raise RingTooLarge(f"ring {self} has {self.p}**{exponent} "
                                   "elements, more than 2**64")
        elif self.kind == "zn":
            if self.modulus < 2:
                raise ValueError("modulus must be >= 2")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

    @staticmethod
    def triangular(n: int, p: int, k: int = 1) -> "RingSpec":
        return RingSpec(kind="tri", n=n, p=p, k=k)

    @staticmethod
    def integers_mod(m: int) -> "RingSpec":
        return RingSpec(kind="zn", modulus=m)

    @staticmethod
    def parse(text: str) -> "RingSpec":
        """Parse the CLI spelling ``tri:N,P,K`` or ``zn:M``."""
        kind, _, rest = text.partition(":")
        try:
            if kind == "tri":
                n, p, k = (int(x) for x in rest.split(","))
                return RingSpec.triangular(n, p, k)
            if kind == "zn":
                return RingSpec.integers_mod(int(rest))
        except ValueError as exc:
            raise ValueError(f"bad ring spec {text!r}: {exc}") from None
        raise ValueError(f"bad ring spec {text!r}: kind must be tri or zn")

    def __str__(self):
        if self.kind == "tri":
            return f"tri:{self.n},{self.p},{self.k}"
        return f"zn:{self.modulus}"

    @property
    def q(self) -> int:
        if self.kind != "tri":
            raise ValueError("q is only defined for triangular rings")
        return self.p ** self.k

    @property
    def group(self) -> tuple:
        """(m, count): (R, +) is Z_m**count, added digit-wise."""
        if self.kind == "zn":
            return self.modulus, 1
        return self.p, self.k * self.n * (self.n + 1) // 2

    @property
    def order(self) -> int:
        m, count = self.group
        return m ** count

    def field(self) -> FieldTable:
        if self.kind != "tri":
            raise ValueError("only triangular rings carry a field")
        return _field(self.p, self.k)


@lru_cache(maxsize=None)
def _field(p, k):
    return make_field(p, k)


def _check_order(spec: RingSpec, cap: int):
    if spec.order > cap:
        raise RingTooLarge(f"ring {spec} has {spec.order} elements, cap is {cap}")


def enumerate_ring(spec: RingSpec, cap: int = DEFAULT_VERTEX_CAP) -> list:
    """Every ring element exactly once, in canonical-encoding order.

    Triangular rings yield TriMatrix values (element at position i decodes
    encoding i), one per row of entry_digit_matrix; Z_n yields the residues
    0..n-1.
    """
    _check_order(spec, cap)
    if spec.kind == "zn":
        return list(range(spec.modulus))
    f = spec.field()
    return [TriMatrix(f, spec.n, tuple(row))
            for row in entry_digit_matrix(spec, cap).tolist()]


def entry_digit_matrix(spec: RingSpec, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
    """order x n(n+1)/2 array: row e holds the canonical entry digits of
    the matrix with encoding e.  Triangular rings only."""
    if spec.kind != "tri":
        raise ValueError("digit matrix is only defined for triangular rings")
    _check_order(spec, cap)
    return tuple_codes(spec.n * (spec.n + 1) // 2, spec.q)


# Bytes of one chunk of group_reader's gather that window_digits aims
# for.  Filling tri:4,3,1's rows (59049 x 59049, p = 3) took 1.49, 1.21,
# 1.12 and 1.12 s at chunks of 81, 243, 729 and 2187 bytes (2 cores), and
# tri:2,37,1's 1.13 s at 37 bytes and 0.79 s at 1369.
_CHUNK_BYTES = 512


def window_digits(group, itemsize: int = 1) -> int:
    """L, the low base-m digits of group_reader's split of Z_m**count,
    group = (m, count), for a table of `itemsize` bytes per entry: the
    fewest whose chunk m**L * itemsize reaches _CHUNK_BYTES, but no more
    than keep the reader's window table (m**(count + L) entries) within
    m**(2 count) / 16 entries; at least 1 (a table of m**(count - 1) *
    (2m - 1) entries), and all of Z_n's one digit."""
    m, count = group
    low = 1
    while (low < count and m ** low * itemsize < _CHUNK_BYTES
           and 16 * m ** (low + 1) <= m ** count):
        low += 1
    return low


def group_reader(group, of=None):
    """The function read(rows) over Z_m**count, group = (m, count), whose
    elements are encoded base m, first digit least significant: the
    len(rows) x m**count array of the table `of` (one entry per element)
    read at x - y, for x in rows (a slice or a sequence of encodings) and
    every y, in of's dtype.  The default `of` is the encodings themselves
    in the smallest unsigned dtype (uint8 up to 256 elements, uint16 up to
    2**16), so read(rows) holds the codes of x - y.  A caller reading many
    row blocks of one table keeps the reader, so its window table is
    built once.

    The digits split into the low L = window_digits and the rest, so x - y
    is hi[x_hi, y_hi] * m**L + lo[x_lo, y_lo], hi and lo the difference
    tables of Z_m**(count - L) and Z_m**L.  The reader first builds
    W = of.reshape(-1, m**L)[:, lo], so W[h, l] is `of` at every element
    whose high part is h and whose low parts are row l of lo; row x is then
    W[hi[x_hi], x_lo], a gather of contiguous chunks of m**L entries.  A
    difference table's rows are Kronecker sums of one cyclic-table row
    (x_j - y_j) mod m per digit x_j of x, each new digit the most
    significant, and cyclic-table rows are windows of one length-(2m - 1)
    ramp; so for L = 1 (Z_n always) the table is `of` read at the ramp and
    W a view of its windows.  The reader's `table` attribute is the array
    W was made from.
    """
    m, count = group
    v = m ** count
    if of is None:
        of = np.arange(v, dtype=np.min_scalar_type(v - 1))
    elif len(of) != v:
        raise ValueError(f"of must have {v} entries, got {len(of)}")
    of = np.asarray(of)
    low = window_digits(group, of.itemsize)
    size = m ** low
    ramp = (np.arange(m - 1, -m, -1) % m).astype(np.min_scalar_type(v - 1))
    cyclic = sliding_window_view(ramp, m)[::-1]  # [i, j] = ramp[m - 1 - i + j]
    table = of.reshape(-1, size)[:, ramp if low == 1 else
                                 _kronecker_rows(cyclic, np.arange(size), low)]
    window = sliding_window_view(table, m, axis=1)[:, ::-1] if low == 1 else table

    def read(rows):
        x = np.asarray(range(v)[rows] if isinstance(rows, slice) else rows, int)
        if x.ndim != 1 or x.size and not 0 <= x.min() <= x.max() < v:
            raise ValueError(f"rows must be encodings 0..{v - 1}")
        x_hi, x_lo = np.divmod(x, size)
        hi = _kronecker_rows(cyclic, x_hi, count - low)
        return window[hi, x_lo[:, None]].reshape(len(x), v)
    read.table = table
    return read


def _kronecker_rows(cyclic: np.ndarray, x: np.ndarray, count: int) -> np.ndarray:
    """Rows x of the difference table of Z_m**count, m = len(cyclic): one
    cyclic-table row per digit of x, each new digit the most significant."""
    m = len(cyclic)
    codes = np.zeros((len(x), 1), dtype=cyclic.dtype)
    for size in (m ** j for j in range(count)):  # the next digit's weight
        codes = (cyclic[x // size % m][:, :, None] * size
                 + codes[:, None, :]).reshape(len(x), m * size)
    return codes


def unit_mask(spec: RingSpec, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
    """Boolean vector over the encodings 0..order-1: True where the element
    is a unit.  Z_n: gcd(x, n) == 1.  Triangular rings: the determinant,
    the field product of the diagonal digits, is nonzero."""
    _check_order(spec, cap)
    if spec.kind == "zn":
        return np.gcd(np.arange(spec.modulus, dtype=np.int64), spec.modulus) == 1
    mul = spec.field().mul_table
    digits = entry_digit_matrix(spec, cap)
    det = np.ones(spec.order, dtype=mul.dtype)
    for t in diagonal_slots(spec.n):
        det = mul[det, digits[:, t]]
    return det != 0
