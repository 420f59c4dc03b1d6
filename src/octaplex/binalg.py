"""Exact linear algebra over GF(2) on bit-packed rows.

Vectors are fixed-length bit strings backed by Python integers (bit i is
column i); matrices pack their rows into a numpy uint64 array for the
elimination kernels. Pivoting is deterministic (lowest column index first)
so echelon forms, kernels and ranks are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

WORD = 64


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


def lowbit_insert(basis: dict[int, int], v: int) -> int:
    """Reduce v against ``basis``, add the residue to it and return it.

    ``basis`` maps each row's lowest set bit to the row. The walk goes up
    v's set bits; a row clears its key bit and flips only higher ones. The
    residue is the unique member of v + span(basis) that is zero on every
    key, so it is 0 exactly when v is in the span.
    """
    residue = 0
    while v:
        low = v & -v
        row = basis.get(low.bit_length() - 1)
        if row is None:
            residue |= low
            v ^= low
        else:
            v ^= row
    if residue:
        basis[(residue & -residue).bit_length() - 1] = residue
    return residue


@dataclass(frozen=True)
class BitVec:
    """Length-n vector over GF(2)."""

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("bits out of range for vector length")

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "BitVec":
        sup = list(support)
        if any(i < 0 or i >= n for i in sup):
            raise ValueError("support index out of range")
        return cls(n, mask_from_support(sup))

    def support(self) -> list[int]:
        return support_from_mask(self.bits)

    def weight(self) -> int:
        return self.bits.bit_count()

    def get(self, i: int) -> int:
        return (self.bits >> i) & 1

    def flipped(self, i: int) -> "BitVec":
        return BitVec(self.n, self.bits ^ (1 << i))

    def overlap_parity(self, other: "BitVec | int") -> int:
        bits = other.bits if isinstance(other, BitVec) else other
        return parity(self.bits & bits)

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVec(self.n, self.bits ^ other.bits)

    def __and__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVec(self.n, self.bits & other.bits)


def _pack(rows: Sequence[int], cols: int) -> np.ndarray:
    words = max(1, (cols + WORD - 1) // WORD)
    out = np.zeros((len(rows), words), dtype=np.uint64)
    nbytes = words * 8
    for i, r in enumerate(rows):
        out[i] = np.frombuffer(r.to_bytes(nbytes, "little"), dtype=np.uint64)
    return out


def _unpack_row(packed: np.ndarray) -> int:
    return int.from_bytes(packed.tobytes(), "little")


def _rref(packed: np.ndarray, cols: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form in place on a copy; returns (rref, pivot cols)."""
    a = packed.copy()
    m = len(a)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == m:
            break
        w, b = divmod(c, WORD)
        col = (a[:, w] >> np.uint64(b)) & np.uint64(1)
        nz = np.nonzero(col[r:])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        col = (a[:, w] >> np.uint64(b)) & np.uint64(1)
        col[r] = 0
        sel = col.astype(bool)
        if sel.any():
            a[sel] ^= a[r]
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


class BinMatrix:
    """Matrix over GF(2); rows are ints, columns indexed from bit 0.

    Rank, kernel and row-space queries share one cached echelon form.
    Instances are treated as immutable once built.
    """

    def __init__(self, rows: Sequence[int], cols: int):
        self.cols = cols
        self.rows = list(rows)
        for r in self.rows:
            if r < 0 or (cols < (r.bit_length())):
                raise ValueError("row has bits beyond column count")
        self._rref_rows: list[int] | None = None
        self._pivots: list[int] | None = None

    @classmethod
    def from_supports(cls, cols: int, supports: Iterable[Iterable[int]]) -> "BinMatrix":
        return cls([mask_from_support(s) for s in supports], cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.cols)

    def row(self, i: int) -> BitVec:
        return BitVec(self.cols, self.rows[i])

    def _ensure_rref(self) -> tuple[list[int], list[int]]:
        if self._rref_rows is None:
            packed = _pack(self.rows, self.cols)
            red, piv = _rref(packed, self.cols)
            self._rref_rows = [_unpack_row(red[i]) for i in range(len(piv))]
            self._pivots = piv
        return self._rref_rows, self._pivots  # type: ignore[return-value]

    def rank(self) -> int:
        _, piv = self._ensure_rref()
        return len(piv)

    def reduce(self, v: int) -> int:
        """Residue of v after elimination against the row space."""
        rows, piv = self._ensure_rref()
        for row, c in zip(rows, piv):
            if (v >> c) & 1:
                v ^= row
        return v

    def in_row_space(self, v: "BitVec | int") -> bool:
        bits = v.bits if isinstance(v, BitVec) else v
        if isinstance(v, BitVec) and v.n != self.cols:
            raise ValueError("length mismatch")
        return self.reduce(bits) == 0

    def kernel_basis(self) -> list[BitVec]:
        """Basis of {v : M v = 0}, one vector per free column, in column order."""
        rows, piv = self._ensure_rref()
        pivset = set(piv)
        basis = []
        for f in range(self.cols):
            if f in pivset:
                continue
            bits = 1 << f
            for row, c in zip(rows, piv):
                if (row >> f) & 1:
                    bits |= 1 << c
            basis.append(BitVec(self.cols, bits))
        return basis

    def mul_vec(self, v: "BitVec | int") -> BitVec:
        """Syndrome M v: bit i is the overlap parity of row i with v."""
        bits = v.bits if isinstance(v, BitVec) else v
        out = 0
        for i, row in enumerate(self.rows):
            if parity(row & bits):
                out |= 1 << i
        return BitVec(len(self.rows), out)

    def row_combination(self, selector: "BitVec | int") -> BitVec:
        """XOR of the rows picked out by selector bits."""
        sel = selector.bits if isinstance(selector, BitVec) else selector
        acc = 0
        for i in support_from_mask(sel):
            acc ^= self.rows[i]
        return BitVec(self.cols, acc)

    def matmul(self, other: "BinMatrix") -> "BinMatrix":
        """Self's rows select combinations of other's rows (composition of maps)."""
        if self.cols != len(other.rows):
            raise ValueError("inner dimension mismatch")
        return BinMatrix(
            [other.row_combination(r).bits for r in self.rows], other.cols
        )

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
        reduced = []
        for v in extra_rows:
            reduced.append(self.reduce(v))
        extra = BinMatrix(reduced, self.cols)
        return extra.rank()
