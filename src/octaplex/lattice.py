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

A point v has the flat key ((v0·P + v1)·P + v2)·P + v3, P = 4L, and one
table maps each key to the cell's index within its dimension (``Cells``).
The 3-cells (octahedra) carry the physical qubits. A vertex's ``Color`` is
the block whose X checks sit on it (1 red, 2 green, 3 blue; block 0's sit on
the 4-cells), read off the positions of its two half-integer components;
``CellComplex.colors`` holds one byte per vertex. Boundary maps follow the
explicit offset rules below and are kept as CSR matrices, the periodic check
matrices themselves; `cross_check_nearest` re-derives them from the
nearest-in-2-norm definition as an independent oracle, reading each cell c
at c+δ for the offsets of least |δ|² ≤ 4 that its residue class allows.
∂∘∂ = 0 is checked on the maps' rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cache
from itertools import compress, product
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

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

DIM_OF = {t: int(t.value[1]) for t in CellType}  # each type's name carries its dimension

QUBIT_TYPES = (CellType.C3I, CellType.C3II, CellType.C3III)
FOURCELL_TYPES = (CellType.H4I, CellType.H4II)


class Color(IntEnum):  # valued as the block whose X checks sit on the vertex
    RED = 1
    GREEN = 2
    BLUE = 3


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
    r = [v % 4 for v in c]
    return _PATTERN.get((r.count(0), r.count(2), len(r) - r.count(0) - r.count(2)))


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
    return [(*vals[:d], position, *vals[d:]) for vals in product(*free)]


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


def kind_mask(kinds: bytes, kind: int) -> bytes:
    """One byte per key of ``kinds``, 1 where the key is of ``kind``."""
    return kinds.translate(bytes(v == kind for v in range(256)))


class Cells:
    """The cells of one kind on the grid (Z/P)^4, P = ``period``, in lex order:
    a read-only sized view over their flat keys. ``kinds[k]`` is the kind of
    key k; ``pos`` maps each key to its index within its kind, shared by the
    kinds of one grid (one given no ``pos`` reads ``len(self)`` off its kind).
    ``wrap`` holds w3, w2, w1, w: w3[v] + w2[x] + w1[y] + w[z] is the key of
    (v, x, y, z) mod P for values in ±2P, as a negative index reads from the end.
    """

    def __init__(self, period: int, kinds: bytes, kind: int, pos: array | None = None):
        self.period, self.kinds, self.kind, w = period, kinds, kind, [*range(period)] * 2
        self.wrap = [v * period**3 for v in w], [v * period**2 for v in w], [v * period for v in w], w
        self.keys = array("i", compress(range(len(kinds)), kind_mask(kinds, kind)))
        self.pos = array("i", [len(self.keys)]) * len(kinds) if pos is None else pos
        for i, k in enumerate(self.keys):
            self.pos[k] = i

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Coord]:
        return compress(product(range(self.period), repeat=4), kind_mask(self.kinds, self.kind))

    def __getitem__(self, i: int) -> Coord:
        k, p = self.keys[i], self.period
        return k // p**3, k // p**2 % p, k // p % p, k % p

    def index(self, c: Sequence[int]) -> int:
        """Cell c's index; a ``ValueError`` for a point off the grid or of another kind."""
        (a, b, e, f), p = c, self.period
        if 0 <= a < p and 0 <= b < p and 0 <= e < p and 0 <= f < p:
            if self.kinds[k := ((a * p + b) * p + e) * p + f] == self.kind:
                return self.pos[k]
        raise ValueError(f"{c} is not among these cells")


@dataclass
class CellComplex:
    """Cells of all dimensions and their boundary maps.

    ``cells[d]`` views the d-cells in lex order, which every check matrix
    inherits, so reports are byte-stable. ``boundary[d]`` is ∂d, a
    ``BinMatrix`` with one row per d-cell over the (d-1)-cells (no columns at
    d = 0): hx0 = ∂4, hz0 = ∂3ᵀ, m1 = ∂2ᵀ and m0 = ∂1ᵀ. A coboundary is
    ``boundary[d + 1].transpose()``.
    """

    L: int
    period: int
    cells: list[Cells]
    boundary: list[BinMatrix]
    colors: bytearray  # each vertex's Color, one byte per vertex


@cache
def _cell_classes() -> dict[Coord, tuple[int, tuple[Coord, ...]]]:
    """Each residue class mod 4 → its dimension (5: no cell) and boundary
    offsets, read from ``boundary_coords`` at its representative in 0..3."""
    table = {}
    for r in product(range(4), repeat=4):
        d = DIM_OF.get(try_classify(r), 5)
        bs = boundary_coords(r, 8) if 0 < d < 5 else []
        table[r] = d, tuple(tuple((v - u + 4) % 8 - 4 for u, v in zip(r, b)) for b in bs)
    return table


def build_octaplex(L: int) -> CellComplex:
    """Construct the periodic tessellation at linear size L (L >= 2).

    At L=1 the ±2 offsets alias modulo 4 and distinct boundary cells
    collapse, so small sizes are rejected. Each cell's dimension and
    boundary offsets come from its residue class's ``_cell_classes`` entry.
    """
    if L < 2:
        raise ValueError(
            "L must be >= 2: the ±2 cell offsets alias modulo 4L when L=1"
        )
    period = 4 * L
    table = _cell_classes()
    residues = [v & 3 for v in range(period)]
    dims = bytes(map(itemgetter(0), map(table.__getitem__, product(residues, repeat=4))))
    pos = array("i", bytes(4 * len(dims)))
    cells = [Cells(period, dims, d, pos) for d in range(5)]

    boundary = [BinMatrix.from_supports(0, [()] * len(cells[0]))]
    for d in range(1, 5):
        w3, w2, w1, w = cells[d - 1].wrap
        classes = compress(product(residues, repeat=4), kind_mask(dims, d))
        boundary.append(BinMatrix.from_supports(len(cells[d - 1]), (
            [pos[w3[a + p] + w2[b + q] + w1[c + s] + w[e + t]] for p, q, s, t in table[r][1]]
            for (a, b, c, e), r in zip(cells[d], classes))))

    colors = bytearray(map(vertex_color, cells[0]))
    return CellComplex(L, period, cells, boundary, colors)


# The nearest-cell oracle's window, the 89 scaled offsets |δ|² ≤ 4, and the
# candidate types of each 1-, 3- and 4-cell type (anchor-restricted at d=3).
_WINDOW = [o for o in product(range(-2, 3), repeat=4) if sum(x * x for x in o) <= 4]
_CANDIDATES = {CellType.E1: {CellType.V0}, CellType.C3I: {CellType.F2I},
               CellType.C3II: {CellType.F2II}, CellType.C3III: {CellType.F2I, CellType.F2II},
               **dict.fromkeys(FOURCELL_TYPES, set(QUBIT_TYPES))}


@cache
def _nearest_offsets() -> dict[Coord, tuple[Coord, ...]]:
    """Each residue class mod 4 of a 1-, 3- or 4-cell → the window offsets of least |δ|²
    that land on a candidate type, read from the 256 classes' types. Built on first use."""
    types, table = {r: try_classify(r) for r in product(range(4), repeat=4)}, {}
    for (a, b, c, d), t in types.items():
        if (allowed := _CANDIDATES.get(t)) is not None:
            near = [o for o in _WINDOW if types[(a + o[0]) & 3, (b + o[1]) & 3,
                                                (c + o[2]) & 3, (d + o[3]) & 3] in allowed]
            least = min(sum(x * x for x in o) for o in near)
            table[a, b, c, d] = tuple(o for o in near if sum(x * x for x in o) == least)
    return table


def cross_check_nearest(cx: CellComplex) -> bool:
    """Boundary maps equal the nearest-(d-1)-cells sets, for d in {1, 3, 4}.

    The d=2 map is skipped: triangle labels are algebraic, not centroids, so
    nearest-in-2-norm does not apply there (it is validated instead through
    ∂∘∂ = 0 and the co-boundary counts). The same label skew makes triangles
    of the wrong anchor type tie in distance at d=3, so there the candidate
    set is restricted to the matching anchor type (octahedra with a
    half-integer sheet bound F2I triangles, integer-sheet ones bound F2II;
    the all-quarter octahedra see both types and need no restriction).

    Cell c's nearest candidates sit at c+δ mod 4L for its residue class's
    ``_nearest_offsets``. This is exact: every cell is numbered, and for L ≥ 2
    no two window offsets alias.
    """
    table = _nearest_offsets()
    for d in (1, 3, 4):
        pos, (w3, w2, w1, w) = cx.cells[d - 1].pos, cx.cells[d - 1].wrap
        for (a, b, e, f), bs in zip(cx.cells[d], cx.boundary[d].supports(), strict=True):
            found = {pos[w3[a + p] + w2[b + q] + w1[e + r] + w[f + s]]
                     for p, q, r, s in table[a & 3, b & 3, e & 3, f & 3]}
            if found != set(bs):
                return False
    return True


def boundary_composition_is_zero(cx: CellComplex) -> bool:
    """∂_{d-1} ∘ ∂_d = 0 over GF(2) for d in {2, 3, 4}, by the kept products
    ``BinMatrix.product_is_zero``. A map whose shape is not (d-cells,
    (d-1)-cells) is a ``ValueError``; a repeated or outside entry is already
    one when the map is built."""
    for d in range(1, 5):
        if cx.boundary[d].shape != (len(cx.cells[d]), len(cx.cells[d - 1])):
            raise ValueError(f"boundary[{d}] is not a map from the {d}- to the {d - 1}-cells")
    return all(cx.boundary[d].product_is_zero(cx.boundary[d - 1]) for d in (2, 3, 4))


def euler_characteristic(cx: CellComplex) -> int:
    return sum((-1) ** d * len(cx.cells[d]) for d in range(5))
