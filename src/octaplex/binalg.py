"""Exact linear algebra over GF(2) on sparse rows.

A matrix stores its rows in CSR form: the sorted column indices of all rows
in one flat ``array('i')`` plus row offsets. Its column index, built once on
first use, is the CSR form of the transpose, whose own transpose is the
matrix itself. A vector is an index list: a logical operator, a syndrome or
a row selector names the columns (or rows) where it is 1. ``syndrome`` maps
columns to the rows that meet them oddly and ``xor_rows`` maps rows to the
columns they meet oddly, both by the one row-XOR kernel on the CSR arrays;
an index outside the matrix is a ``ValueError``.

Python-int masks (bit i is column i) live only inside elimination. A row
becomes a mask only to enter the one basis keyed by lowest set bit
(``LowbitBasis``), which takes the rows by descending lowest index to keep
fill-in low, and ``reduce``, ``in_row_space``, ``kernel_basis`` and
``residues`` speak masks. The basis's keys are the lowest-column pivots and
the reduced row echelon form built from it is unique, so kernels and ranks
do not depend on row order; the keys are also one mask, so a reduction
jumps from key bit to key bit. ``rank`` keeps only the count, and only
row-space queries keep the basis; ``peel`` bounds the rank from below with
none.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, compress, count, pairwise
from operator import eq, xor
from typing import Iterable, Iterator, Sequence


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
    """Matrix over GF(2) with CSR rows, columns indexed from 0.

    ``BinMatrix(masks, cols)`` converts int-mask rows once;
    ``from_supports`` fills the rows straight from index lists. Instances
    are treated as immutable once built.
    """

    def __init__(self, rows: Sequence[int], cols: int):
        m = self.from_supports(cols, (support_from_mask(_within(r, cols)) for r in rows))
        self.__dict__.update(m.__dict__)

    @classmethod
    def from_supports(cls, cols: int, supports: Iterable[Iterable[int]]) -> "BinMatrix":
        """Rows from their column indices; an index outside the width or
        repeated within one row is a ``ValueError``."""
        rows = [sorted(s) for s in supports]
        flat = list(chain.from_iterable(rows))
        indptr = array("i", [0, *accumulate(map(len, rows))])
        if flat and not 0 <= min(flat) <= max(flat) < cols:
            raise ValueError(f"column index outside width {cols}")
        # Equal neighbours in ``flat`` are a repeat unless a row starts between them.
        if not set(compress(count(1), map(eq, flat, flat[1:]))) <= set(indptr):
            raise ValueError("repeated column index in one row")
        return cls._csr(cols, indptr, array("i", flat))

    @classmethod
    def _csr(cls, cols: int, indptr: array, indices: array) -> "BinMatrix":
        m = cls.__new__(cls)
        m.cols, m._indptr, m._indices = cols, indptr, indices
        m._t = m._rank = m._basis = None  # column index, rank, row-space basis
        m._zero = {}  # product_is_zero's answers, keyed by the other matrix
        return m

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._indptr) - 1, self.cols)

    def supports(self) -> Iterator[array]:
        """Each row's column indices, in increasing order."""
        indices = self._indices
        return (indices[a:b] for a, b in pairwise(self._indptr))

    def support(self, i: int) -> array:
        """Row i's column indices; a row outside 0..rows-1 is an ``IndexError``."""
        if not 0 <= i < len(self._indptr) - 1:
            raise IndexError(f"row {i} outside the {self.shape[0]} rows")
        return self._indices[self._indptr[i]:self._indptr[i + 1]]

    def mapped_rows(self, table: Sequence) -> list[list]:
        """Each row as ``[table[j] for j in row]``: the index array is
        mapped in one pass and sliced per row."""
        flat = list(map(table.__getitem__, self._indices))
        return [flat[a:b] for a, b in pairwise(self._indptr)]

    def weights(self) -> list[int]:
        return [b - a for a, b in pairwise(self._indptr)]

    @property
    def rows(self) -> list[int]:
        """The rows as int masks, built anew on every access."""
        return [mask_from_support(s) for s in self.supports()]

    def _eliminate(self) -> LowbitBasis:
        """The rows' span keyed by lowest set bit.

        Rows go in by descending lowest index, so a row meets only basis
        rows that start above it and the fill-in stays low.
        """
        ptr, indices = self._indptr, self._indices
        order = sorted(range(self.shape[0]), reverse=True,
                       key=lambda i: indices[ptr[i]] + 1 if ptr[i] < ptr[i + 1] else 0)
        basis = LowbitBasis()
        for i in order:
            basis.insert(mask_from_support(indices[ptr[i]:ptr[i + 1]]))
        return basis

    def _lowbit_basis(self) -> LowbitBasis:
        """The basis that row-space queries read, built once."""
        if self._basis is None:
            self._basis = self._eliminate()
        return self._basis

    def rank(self) -> int:
        if self._rank is None:
            self._rank = len((self._basis or self._eliminate()).rows)
        return self._rank

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

    def xor_rows(self, rows: Sequence[int]) -> set[int]:
        """Columns where an odd number of the given rows have a 1; a row
        outside 0..rows-1 is a ``ValueError``."""
        if rows and not 0 <= min(rows) <= max(rows) < len(self._indptr) - 1:
            raise ValueError(f"row index outside the {self.shape[0]} rows")
        ptr, indices, acc = self._indptr, self._indices, set()
        for i in rows:
            acc.symmetric_difference_update(indices[ptr[i]:ptr[i + 1]])
        return acc

    def syndrome(self, support: Sequence[int]) -> set[int]:
        """Rows that meet the given columns an odd number of times; a column
        outside the width is a ``ValueError``."""
        if support and not 0 <= min(support) <= max(support) < self.cols:
            raise ValueError(f"column index outside width {self.cols}")
        return self.transpose().xor_rows(support)

    def syndromes(self, supports: Sequence[Sequence[int]]) -> list[set[int]]:
        """``syndrome`` of each support, with no column index: bit i tags the
        columns of support i, and a row's syndrome bits are the XOR prefix over
        the entries, differenced across the row."""
        tags = [0] * self.cols
        for i, s in enumerate(supports):
            if s and not 0 <= min(s) <= max(s) < self.cols:
                raise ValueError(f"column index outside width {self.cols}")
            for j in s:
                tags[j] ^= 1 << i
        prefix = list(accumulate(map(tags.__getitem__, self._indices), xor, initial=0))
        odd = list(map(xor, map(prefix.__getitem__, self._indptr[1:]),
                       map(prefix.__getitem__, self._indptr)))
        rows, odd = list(compress(count(), odd)), list(compress(odd, odd))  # the rows met at all
        return [set(compress(rows, map((1 << i).__and__, odd))) for i in range(len(supports))]

    def matmul(self, other: "BinMatrix") -> "BinMatrix":
        """Self's rows select combinations of other's rows (composition of maps)."""
        if self.cols != other.shape[0]:
            raise ValueError("inner dimension mismatch")
        return BinMatrix.from_supports(other.cols, map(other.xor_rows, self.supports()))

    def product_is_zero(self, other: "BinMatrix") -> bool:
        """Whether self·other = 0: the rows of other that a row of self picks
        meet each column an even number of times. Kept per other object."""
        if self.cols != other.shape[0]:
            raise ValueError("inner dimension mismatch")
        if other not in self._zero:
            picked = map(chain.from_iterable, self.mapped_rows(list(map(tuple, other.supports()))))
            self._zero[other] = all(s[::2] == s[1::2] for s in map(sorted, picked))
        return self._zero[other]

    def transpose(self) -> "BinMatrix":
        """The column index: row j of the transpose lists the rows with a 1
        in column j, in increasing order. Built once, and linked back, so
        the transpose's transpose is this matrix."""
        if self._t is None:
            columns: list[list[int]] = [[] for _ in range(self.cols)]
            for i, s in enumerate(self.supports()):
                for j in s:
                    columns[j].append(i)
            indptr = array("i", [0, *accumulate(map(len, columns))])
            self._t = BinMatrix._csr(self.shape[0], indptr, array("i", chain(*columns)))
            self._t._t = self
        return self._t

    def stacked(self, supports: Iterable[Iterable[int]]) -> "BinMatrix":
        """This matrix with the given rows appended below."""
        extra, ptr = BinMatrix.from_supports(self.cols, supports), self._indptr
        return BinMatrix._csr(self.cols, ptr + array("i", (p + ptr[-1] for p in extra._indptr[1:])),
                              self._indices + extra._indices)

    def peel(self) -> int:
        """A lower bound on the rank, with no basis: while a column has one
        live row, that row is a pivot and leaves, else the live row of lowest
        index leaves uncounted. In a sum of pivot rows the earliest alone
        meets its column, so the pivots are independent."""
        ptr, indices, t = self._indptr, self._indices, self.transpose()
        tptr, tindices, live = t._indptr, t._indices, t.weights()
        dead, pivots, lowest = bytearray(len(ptr) - 1), 0, 0
        singles = [c for c, k in enumerate(live) if k == 1]
        while True:
            if singles:
                c = singles.pop()
                if live[c] != 1:
                    continue
                for r in tindices[tptr[c]:tptr[c + 1]]:
                    if not dead[r]:
                        break
                pivots += 1
            else:
                lowest = dead.find(0, lowest)
                if lowest < 0:
                    return pivots
                r = lowest
            dead[r] = 1
            for j in indices[ptr[r]:ptr[r + 1]]:
                k = live[j] = live[j] - 1
                if k == 1:
                    singles.append(j)

    def residues(self, extra_rows: Iterable[int]) -> Iterator[int]:
        """Each extra row's residue against the row space and the extra rows
        before it; 0 for a row that adds nothing. Row order cannot change it."""
        basis = LowbitBasis(self._basis.rows) if self._basis else self._eliminate()
        self._rank = len(basis.rows)
        return (basis.insert(_within(v, self.cols)) for v in extra_rows)

    def completed(self, candidates: Iterable[int]) -> "BinMatrix":
        """This matrix and each candidate's nonzero residue below it: each brings
        a new lowest key, so the rank is kept, but not the basis."""
        extra = [support_from_mask(r) for r in self.residues(candidates) if r]
        m = self.stacked(extra)
        m._rank = self._rank + len(extra)
        return m

    def rank_increase(self, extra_rows: Iterable[int]) -> int:
        """By how much the row space grows when extra_rows are appended."""
        return sum(1 for r in self.residues(extra_rows) if r)
