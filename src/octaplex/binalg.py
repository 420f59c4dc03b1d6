"""Exact linear algebra over GF(2) on bit-packed rows.

Vectors and matrix rows are Python-int masks (bit i is column i). A
vector's length is the width of the matrix it meets, and a bit at or beyond
that width is a ``ValueError``. The one elimination is a basis keyed by
lowest set bit (``LowbitBasis``): a matrix inserts its rows in descending
order of their lowest set bit, which keeps fill-in low, and rank, row-space
residues, kernels and rank increases all read that basis. Its keys are the
lowest-column pivots, and the reduced row echelon form built from it is
unique, so kernels and ranks do not depend on row order. The keys are also
held as one mask, so a reduction jumps from key bit to key bit of a vector
and never visits its other bits.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def mask_from_support(support: Iterable[int]) -> int:
    m = 0
    for i in support:
        m |= 1 << i
    return m


def support_from_mask(mask: int) -> list[int]:
    """Set bit positions in increasing order, one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def parity(mask: int) -> int:
    return mask.bit_count() & 1


class LowbitBasis:
    """A span over GF(2) as rows keyed by their lowest set bit.

    ``rows`` maps each key to its row, and ``keys`` is the mask of the keys.
    A row clears its key bit and flips only higher ones, so the member of
    v + span that is zero on every key, the residue, is unique: it is 0
    exactly when v is in the span.
    """

    def __init__(self, rows: dict[int, int] | None = None):
        self.rows = dict(rows or {})
        self.keys = mask_from_support(self.rows)

    def reduce(self, v: int) -> int:
        """The residue of v: each step XORs the row of v's lowest key bit."""
        rows, keys = self.rows, self.keys
        hit = v & keys
        while hit:
            v ^= rows[(hit & -hit).bit_length() - 1]
            hit = v & keys
        return v

    def insert(self, v: int) -> int:
        """Reduce v, add the residue as a row and return it."""
        residue = self.reduce(v)
        if residue:
            low = residue & -residue
            self.rows[low.bit_length() - 1] = residue
            self.keys |= low
        return residue


def _within(v: int, width: int) -> int:
    """v, checked to have no bit at or beyond ``width``."""
    if v >> width:
        raise ValueError(f"vector has bits beyond width {width}")
    return v


class BinMatrix:
    """Matrix over GF(2); rows are ints, columns indexed from bit 0.

    Rank, kernel and row-space queries share one cached lowest-bit basis.
    Instances are treated as immutable once built.
    """

    def __init__(self, rows: Sequence[int], cols: int):
        self.cols = cols
        self.rows = [_within(r, cols) for r in rows]
        self._basis: LowbitBasis | None = None

    @classmethod
    def from_supports(cls, cols: int, supports: Iterable[Iterable[int]]) -> "BinMatrix":
        return cls([mask_from_support(s) for s in supports], cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.cols)

    def _lowbit_basis(self) -> LowbitBasis:
        """The rows' span keyed by lowest set bit, built once.

        Rows go in by descending lowest set bit, so a row meets only basis
        rows that start above it and the fill-in stays low.
        """
        if self._basis is None:
            self._basis = LowbitBasis()
            for r in sorted(self.rows, key=lambda r: (r & -r).bit_length(), reverse=True):
                self._basis.insert(r)
        return self._basis

    def rank(self) -> int:
        return len(self._lowbit_basis().rows)

    def reduce(self, v: int) -> int:
        """Residue of v after elimination against the row space."""
        return self._lowbit_basis().reduce(_within(v, self.cols))

    def in_row_space(self, v: int) -> bool:
        return self.reduce(v) == 0

    def kernel_basis(self) -> list[int]:
        """Basis of {v : M v = 0}, one vector per free column, in column order."""
        # Back-reduce into the reduced row echelon form, top key first: each
        # pivot row is then zero on every other pivot column (a row's own key
        # is not yet a key of ``rref``, so inserting it keeps that key).
        basis, rref = self._lowbit_basis().rows, LowbitBasis()
        for c in sorted(basis, reverse=True):
            rref.insert(basis[c])
        kernel = {f: 1 << f for f in range(self.cols) if f not in rref.rows}
        for c, row in rref.rows.items():
            for f in support_from_mask(row ^ 1 << c):
                kernel[f] |= 1 << c
        return list(kernel.values())

    def mul_vec(self, v: int) -> int:
        """Syndrome M v: bit i is the overlap parity of row i with v."""
        _within(v, self.cols)
        out = 0
        for i, row in enumerate(self.rows):
            if parity(row & v):
                out |= 1 << i
        return out

    def row_combination(self, selector: int) -> int:
        """XOR of the rows picked out by selector bits."""
        acc = 0
        for i in support_from_mask(_within(selector, len(self.rows))):
            acc ^= self.rows[i]
        return acc

    def matmul(self, other: "BinMatrix") -> "BinMatrix":
        """Self's rows select combinations of other's rows (composition of maps)."""
        if self.cols != len(other.rows):
            raise ValueError("inner dimension mismatch")
        return BinMatrix([other.row_combination(r) for r in self.rows], other.cols)

    def transpose(self) -> "BinMatrix":
        cols_out = len(self.rows)
        new_rows = [0] * self.cols
        for i, row in enumerate(self.rows):
            for j in support_from_mask(row):
                new_rows[j] |= 1 << i
        return BinMatrix(new_rows, cols_out)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def rank_increase(self, extra_rows: Sequence[int]) -> int:
        """By how much the row space grows when extra_rows are appended."""
        basis = LowbitBasis(self._lowbit_basis().rows)
        return sum(1 for v in extra_rows if basis.insert(v))
