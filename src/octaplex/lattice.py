"""The octaplex (24-cell) tessellation of the 4-torus.

Coordinates are stored scaled by 4, so quarter-integer lattice positions
become plain integers modulo 4L. Residues mod 4 then classify every cell:

    residue 0 <-> integer coordinate
    residue 2 <-> half-integer coordinate
    odd       <-> quarter-integer coordinate

Cell classification by residue pattern (counts of residue-0 / residue-2 /
odd components):

    V0    (2,2,0)  vertex
    E1    (1,1,2)  edge
    F2I   (1,0,3)  triangle anchored at an integer coordinate
    F2II  (0,1,3)  triangle anchored at a half-integer coordinate
    C3I   (1,3,0)  octahedron, one integer + three half-integer
    C3II  (3,1,0)  octahedron, three integer + one half-integer
    C3III (0,0,4)  octahedron, four quarter-integer
    H4I   (4,0,0)  24-cell at integer coordinates
    H4II  (0,4,0)  24-cell at half-integer coordinates

The 3-cells (octahedra) carry the physical qubits. Boundary maps follow the
explicit offset rules below; `cross_check_nearest` re-derives them from the
nearest-in-2-norm definition as an independent oracle. It reads each cell
c through the ball c+δ, |δ|² ≤ 4, which for L ≥ 2 holds every cell within
squared distance 4 with no offset aliased; an empty ball fails the check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Iterable, Sequence

from .binalg import BinMatrix

Coord = tuple[int, int, int, int]

AXES = ("x", "y", "z", "w")


class CellType(Enum):
    V0 = "V0"
    E1 = "E1"
    F2I = "F2I"
    F2II = "F2II"
    C3I = "C3I"
    C3II = "C3II"
    C3III = "C3III"
    H4I = "H4I"
    H4II = "H4II"


_PATTERN = {
    (2, 2, 0): CellType.V0,
    (1, 1, 2): CellType.E1,
    (1, 0, 3): CellType.F2I,
    (0, 1, 3): CellType.F2II,
    (1, 3, 0): CellType.C3I,
    (3, 1, 0): CellType.C3II,
    (0, 0, 4): CellType.C3III,
    (4, 0, 0): CellType.H4I,
    (0, 4, 0): CellType.H4II,
}

DIM_OF = {
    CellType.V0: 0,
    CellType.E1: 1,
    CellType.F2I: 2,
    CellType.F2II: 2,
    CellType.C3I: 3,
    CellType.C3II: 3,
    CellType.C3III: 3,
    CellType.H4I: 4,
    CellType.H4II: 4,
}

QUBIT_TYPES = (CellType.C3I, CellType.C3II, CellType.C3III)
FOURCELL_TYPES = (CellType.H4I, CellType.H4II)


class Color(Enum):
    RED = "red"
    GREEN = "green"
    BLUE = "blue"


# Positions of the two half-integer components of a vertex decide its color.
_COLOR_BY_HALF_POSITIONS = {
    frozenset({2, 3}): Color.RED,
    frozenset({0, 1}): Color.RED,
    frozenset({1, 3}): Color.GREEN,
    frozenset({0, 2}): Color.GREEN,
    frozenset({1, 2}): Color.BLUE,
    frozenset({0, 3}): Color.BLUE,
}


class NotACellError(ValueError):
    pass


def try_classify(c: Coord) -> CellType | None:
    r0 = r2 = ro = 0
    for v in c:
        m = v % 4
        if m == 0:
            r0 += 1
        elif m == 2:
            r2 += 1
        else:
            ro += 1
    return _PATTERN.get((r0, r2, ro))


def classify(c: Coord) -> CellType:
    t = try_classify(c)
    if t is None:
        raise NotACellError(f"{c} matches no cell residue pattern")
    return t


def vertex_color(v: Coord) -> Color:
    if try_classify(v) is not CellType.V0:
        raise NotACellError(f"{v} is not a vertex")
    halves = frozenset(i for i in range(4) if v[i] % 4 == 2)
    return _COLOR_BY_HALF_POSITIONS[halves]


def _half_adjacent(v: int, period: int) -> int:
    # odd value -> the neighbouring residue-2 value
    return (v + 1) % period if v % 4 == 1 else (v - 1) % period


def _int_adjacent(v: int, period: int) -> int:
    # odd value -> the neighbouring residue-0 value
    return (v - 1) % period if v % 4 == 1 else (v + 1) % period


_STAR_OFFSETS = [  # star24's offsets, in its order: ±2 on one axis, then (±1)^4
    *(tuple(s if i == axis else 0 for i in range(4)) for axis in range(4) for s in (2, -2)),
    *product((1, -1), repeat=4),
]


def star24(center: Coord, period: int) -> list[Coord]:
    """The 24 cells offset by ±2 on one axis or ±1 on every axis.

    For a 4-cell this is its boundary (24 octahedra); for a vertex it is the
    set of octahedra containing it. Both coincide with the cells at squared
    scaled distance 4.
    """
    a, b, c, d = center
    return [((a + p) % period, (b + q) % period, (c + r) % period, (d + s) % period)
            for p, q, r, s in _STAR_OFFSETS]


def sublattice(values: Iterable[int], *residues: int) -> list[int]:
    """The values whose residue mod 4 is one of ``residues``."""
    return [v for v in values if v % 4 in residues]


def line(d: int, point: Sequence[int], values: Iterable[int]) -> list[Coord]:
    """The cells along axis d through ``point``, one per axis-d value."""
    return [tuple(v if i == d else p for i, p in enumerate(point)) for v in values]


def sheet(d: int, position: int, free: Sequence[Iterable[int]]) -> list[Coord]:
    """The cells at coordinate ``position`` on axis d whose other three
    coordinates, in axis order, range over the value lists in ``free``."""
    out: list[Coord] = []
    for vals in product(*free):
        co = list(vals)
        co.insert(d, position)
        out.append(tuple(co))
    return out


def boundary_coords(c: Coord, period: int) -> list[Coord]:
    """Cells one dimension down, by the explicit offset rules."""
    t = classify(c)
    if t is CellType.E1:
        p, q = (i for i in range(4) if c[i] % 2)
        a = list(c)
        b = list(c)
        a[p] = _half_adjacent(c[p], period)
        a[q] = _int_adjacent(c[q], period)
        b[p] = _int_adjacent(c[p], period)
        b[q] = _half_adjacent(c[q], period)
        return [tuple(a), tuple(b)]
    if t in (CellType.F2I, CellType.F2II):
        snap = _half_adjacent if t is CellType.F2I else _int_adjacent
        out = []
        for i in range(4):
            if c[i] % 2:
                a = list(c)
                a[i] = snap(c[i], period)
                out.append(tuple(a))
        return out
    if t in (CellType.C3I, CellType.C3II):
        res = 2 if t is CellType.C3I else 0
        idx = [i for i in range(4) if c[i] % 4 == res]
        out = []
        for signs in product((1, -1), repeat=3):
            a = list(c)
            for i, s in zip(idx, signs):
                a[i] = (a[i] + s) % period
            out.append(tuple(a))
        return out
    if t is CellType.C3III:
        return [c[:i] + ((c[i] + s) % period,) + c[i + 1:] for i in range(4) for s in (1, -1)]
    # 4-cells
    return star24(c, period)


@dataclass
class CellComplex:
    """Cells of all dimensions with boundary/co-boundary incidence.

    Cells are lexicographically ordered per dimension; all downstream check
    matrices inherit that order, so reports are byte-stable.
    """

    L: int
    period: int
    cells: list[list[Coord]]
    index: list[dict[Coord, int]]
    boundary: list[list[tuple[int, ...]]]       # boundary[d][i], d in 1..4
    coboundary: list[list[tuple[int, ...]]]     # coboundary[d][i], d in 0..3
    colors: list[Color] = field(default_factory=list)

    def incidence_matrix(self, dim: int) -> BinMatrix:
        """Boundary map as a matrix: rows are dim-cells over (dim-1)-cells."""
        return BinMatrix.from_supports(
            len(self.cells[dim - 1]), self.boundary[dim]
        )

    def to_json_dict(self) -> dict:
        return {
            "L": self.L,
            "scale": 4,
            "cells": {str(d): [list(c) for c in self.cells[d]] for d in range(5)},
            "boundary": {
                str(d): [list(b) for b in self.boundary[d]] for d in range(1, 5)
            },
            "vertex_colors": [c.value for c in self.colors],
        }


def build_octaplex(L: int) -> CellComplex:
    """Construct the periodic tessellation at linear size L (L >= 2).

    At L=1 the ±2 offsets alias modulo 4 and distinct boundary cells
    collapse, so small sizes are rejected.
    """
    if L < 2:
        raise ValueError(
            "L must be >= 2: the ±2 cell offsets alias modulo 4L when L=1"
        )
    period = 4 * L
    cells: list[list[Coord]] = [[] for _ in range(5)]
    for c in product(range(period), repeat=4):
        t = try_classify(c)
        if t is not None:
            cells[DIM_OF[t]].append(c)
    # product() already yields lexicographic order
    index = [{c: i for i, c in enumerate(cells[d])} for d in range(5)]

    boundary: list[list[tuple[int, ...]]] = [[] for _ in range(5)]
    for d in range(1, 5):
        idx = index[d - 1]
        for c in cells[d]:
            bs = boundary_coords(c, period)
            boundary[d].append(tuple(sorted(idx[b] for b in bs)))

    coboundary: list[list[tuple[int, ...]]] = [[] for _ in range(5)]
    for d in range(4):
        buckets: list[list[int]] = [[] for _ in cells[d]]
        for i, bs in enumerate(boundary[d + 1]):
            for j in bs:
                buckets[j].append(i)
        coboundary[d] = [tuple(sorted(b)) for b in buckets]

    colors = [vertex_color(v) for v in cells[0]]
    return CellComplex(L, period, cells, index, boundary, coboundary, colors)


def incident_cells(cx: CellComplex, dim: int, i: int, target_dim: int) -> list[int]:
    """All target_dim-cells related to cell i by iterated (co)boundary."""
    if not (0 <= dim <= 4 and 0 <= target_dim <= 4):
        raise ValueError("dimensions must lie in 0..4")
    current = {i}
    d = dim
    while d != target_dim:
        step = cx.boundary[d] if target_dim < d else cx.coboundary[d]
        current = {j for c in current for j in step[c]}
        d += -1 if target_dim < d else 1
    return sorted(current)


def toroidal_dist2(a: Coord, b: Coord, period: int) -> int:
    s = 0
    for x, y in zip(a, b):
        d = abs(x - y)
        d = min(d, period - d)
        s += d * d
    return s


# The oracle's 89 offsets |δ|² ≤ 4, as tuples: only a run of the oracle loads numpy.
_WINDOW = [o for o in product(range(-2, 3), repeat=4) if sum(x * x for x in o) <= 4]
_CHUNK = 512  # d-cells per numpy pass; keeps the temporaries under 1 MB


def _boundary_is_nearest(
    cx: CellComplex, d: int, cells: Sequence[int], candidates: Sequence[int]
) -> bool:
    """Whether each listed d-cell's boundary is its set of nearest listed
    (d-1)-cells within the window. A dense array, padded by 2 with the
    torus's wrap, maps each candidate's coordinate to its index."""
    import numpy as np

    lookup = np.full((cx.period,) * 4, -1, dtype=np.int32)
    lookup[tuple(zip(*(cx.cells[d - 1][j] for j in candidates)))] = candidates
    lookup = np.pad(lookup, 2, mode="wrap").ravel()
    strides = (cx.period + 4) ** np.arange(3, -1, -1)
    window = np.array(_WINDOW)
    centers = (np.array([cx.cells[d][i] for i in cells]).reshape(-1, 4) + 2) @ strides
    for start in range(0, len(cells), _CHUNK):
        hits = lookup[centers[start:start + _CHUNK, None] + window @ strides]
        d2 = np.where(hits >= 0, (window * window).sum(axis=1), 5)  # 5: none there
        dmin = d2.min(axis=1, keepdims=True)
        if (dmin == 5).any():
            return False  # an empty ball: the nearest cell is out of reach
        rows, cols = np.nonzero(d2 == dmin)
        found = set(zip(rows.tolist(), hits[rows, cols].tolist()))
        chunk = cells[start:start + _CHUNK]
        if found != {(r, j) for r, i in enumerate(chunk) for j in cx.boundary[d][i]}:
            return False
    return True


def cross_check_nearest(cx: CellComplex) -> bool:
    """Boundary maps equal the nearest-(d-1)-cells sets, for d in {1, 3, 4}.

    The d=2 map is skipped: triangle labels are algebraic, not centroids, so
    nearest-in-2-norm does not apply there (it is validated instead through
    ∂∘∂ = 0 and the co-boundary counts). The same label skew makes triangles
    of the wrong anchor type tie in distance at d=3, so there the candidate
    set is restricted to the matching anchor type (octahedra with a
    half-integer sheet bound F2I triangles, integer-sheet ones bound F2II;
    the all-quarter octahedra see both types and need no restriction).

    Each cell c is compared only with the candidates at c+δ mod 4L for the
    89 scaled offsets |δ|² ≤ 4. This is exact: for L ≥ 2 (period ≥ 8) no two
    offsets alias and every cell within toroidal squared distance 4 is some
    c+δ, so a ball minimum ≤ 4 is the global minimum and its argmin set the
    global one. A cell whose ball holds no candidate fails the check.
    """
    every = [range(len(cells)) for cells in cx.cells]
    faces = [classify(f) for f in cx.cells[2]]
    octahedra = [classify(c) for c in cx.cells[3]]
    anchors = {CellType.C3I: {CellType.F2I}, CellType.C3II: {CellType.F2II},
               CellType.C3III: {CellType.F2I, CellType.F2II}}
    checks = [(1, every[1], every[0]), (4, every[4], every[3])] + [
        (3, [i for i, t in enumerate(octahedra) if t is kind],
         [j for j, t in enumerate(faces) if t in allowed])
        for kind, allowed in anchors.items()
    ]
    return all(_boundary_is_nearest(cx, *check) for check in checks)


def boundary_composition_is_zero(cx: CellComplex) -> bool:
    """∂_{d-1} ∘ ∂_d = 0 over GF(2) for d in {2, 3, 4}."""
    for d in (2, 3, 4):
        outer = cx.incidence_matrix(d)
        inner = cx.incidence_matrix(d - 1)
        if not outer.matmul(inner).is_zero():
            return False
    return True


def euler_characteristic(cx: CellComplex) -> int:
    return sum((-1) ** d * len(cx.cells[d]) for d in range(5))
