"""CSS codeblock assembly.

Families built here:

  * ``octaplex``          four codeblocks on the periodic tessellation,
                          qubits on the 3-cells
  * ``octaplex-bounded``  the open-boundary variant with one logical qubit
                          per block
  * ``2d``                two toric-code blocks on the {4,4} torus with X/Z
                          roles swapped
  * ``3d``                three blocks on the {4,3,4} torus (two cube
                          colors plus vertex stars), qubits on edges

Blocks of one family share a single qubit index; a warm-up's qubits are its
edge indices themselves. Generator sets are kept
redundant on purpose: the metacheck module is about those redundancies, and
logical counts are always computed from ranks (a bounded hz's by its completion).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, compress, product, repeat
from operator import add, itemgetter, not_, xor
from typing import Iterator, Sequence

from .binalg import BinMatrix
from .lattice import (
    AXES,
    _STAR_OFFSETS,
    _cell_classes,
    CellComplex,
    Cells,
    CellType,
    Color,
    Coord,
    FOURCELL_TYPES,
    kind_mask,
    line,
    sheet,
    sublattice,
    try_classify,
    vertex_color,
)

# Direction partner induced by the block-equivalence translations: block c's
# structure along axis d mirrors block 0's along SIGMA[c][d]. SIGMA[0] is the
# identity; the others are the three double transpositions.
SIGMA = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))

# Translation (scaled) mapping each colored vertex set onto the 4-cell set,
# chosen to fix the block's rough axis in the bounded construction.
BLOCK_SHIFTS = (
    (0, 0, 0, 0),
    (2, 2, 0, 0),   # red
    (2, 0, 2, 0),   # green
    (0, 2, 2, 0),   # blue
)

# Rough (logical-string) axis per block in the bounded family: w, z, y, x.
BOUNDED_ROUGH_AXIS = (3, 2, 1, 0)


@dataclass
class Codeblock:
    label: int
    n: int
    hx: BinMatrix
    hz: BinMatrix
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.n - self.hx.rank() - self.hz.rank()

    def css_commutes(self) -> bool:
        """hz·hxᵀ = 0, through hx's column index (hz has far more rows)."""
        return self.hz.product_is_zero(self.hx.transpose())

    def x_weights(self) -> list[int]:
        return sorted(set(self.hx.weights()))

    def z_weights(self) -> list[int]:
        return sorted(set(self.hz.weights()))


@dataclass
class CodeFamily:
    kind: str
    L: int
    blocks: list[Codeblock]
    qubit_labels: Sequence
    complex: CellComplex | None = None

    @property
    def n(self) -> int:
        return len(self.qubit_labels)


# ---------------------------------------------------------------------------
# periodic octaplex family


def _star(center: Coord, qubits: Cells) -> list[int]:
    """The qubits among the 24 cells of ``star24(center)``; a cell off the
    qubits reads ``len(qubits)`` in their key table."""
    (a, b, c, d), (w3, w2, w1, w), n = center, qubits.wrap, len(qubits)
    keys = (w3[a + p] + w2[b + q] + w1[c + r] + w[d + s] for p, q, r, s in _STAR_OFFSETS)
    return [j for j in map(qubits.pos.__getitem__, keys) if j != n]


def build_codeblock0(cx: CellComplex) -> Codeblock:
    """hx0 = ∂4: X checks on 4-cells (weight 24); hz0 = ∂3ᵀ: Z checks on triangles (weight 3)."""
    return Codeblock(0, len(cx.cells[3]), cx.boundary[4], cx.boundary[3].transpose())


_BLOCK_BY_RESIDUES = {  # residues mod 4 of a cell carrying X checks -> block: 0 or a color
    r: 0 if t in FOURCELL_TYPES else vertex_color(r)
    for r in product(range(4), repeat=4)
    if (t := try_classify(r)) in FOURCELL_TYPES + (CellType.V0,)
}


def _mask_order(support: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key putting sorted supports in the order of their masks."""
    return support[::-1]


@cache
def _triangle_table(residues: Coord, drops: tuple[int, ...]) -> tuple[tuple[Coord, ...], tuple]:
    """For a qubit of this residue class: its triangle partners' offsets, and
    ``(drop, j, k)`` per triangle, j and k the positions of its other two
    cells in that list.

    Of the qubit's 24 ``_STAR_OFFSETS`` neighbours, two are 4-cells and two
    are vertices of each color, so the eight triples per dropped block are
    every triple whose stars meet at the qubit. Stars meet at ±4 on one axis
    only from centers ±2 apart on it, of one block, so a triangle lies within
    ±3 of the qubit and its offsets do not alias on any period ≥ 8.
    """
    groups = [[o for o in _STAR_OFFSETS
               if _BLOCK_BY_RESIDUES.get(tuple(v & 3 for v in map(add, residues, o))) == b]
              for b in range(4)]
    star = {o: {tuple(map(add, o, s)) for s in _STAR_OFFSETS} for g in groups for o in g}
    triangles = sorted({(drop, tuple(sorted(star[x] & star[y] & star[z])))
                        for drop in drops
                        for x, y, z in product(*(g for b, g in enumerate(groups) if b != drop))})
    partners = tuple(sorted({o for _, t in triangles for o in t if any(o)}))
    return partners, tuple((drop, *(partners.index(o) for o in t if any(o))) for drop, t in triangles)


def star_triangles(qubits: Cells, drops: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(drop, support)`` for the nonempty intersections of three stars,
    one center from each block but the dropped one, for each block in
    ``drops``; a support (a sorted tuple) may repeat. Each qubit looks its
    ``_triangle_table`` partners up in the qubits' key table once; a
    triangle is clipped to the qubits and yielded from its lowest one.
    """
    n, pos, (w3, w2, w1, w) = len(qubits), qubits.pos, qubits.wrap
    ints = [*range(n + 1)]  # one int object per index, shared by all the triangles kept
    for i, (a, b, c, d) in zip(ints, qubits):
        partners, triangles = _triangle_table((a & 3, b & 3, c & 3, d & 3), tuple(drops))
        ix = [ints[pos[w3[a + p] + w2[b + q] + w1[c + r] + w[d + s]]] for p, q, r, s in partners]
        for drop, j, k in triangles:
            x, y = ix[j], ix[k]
            if i < x and i < y:  # a partner off the qubits reads n and sorts last
                s = (i, x, y) if x < y else (i, y, x)
                yield drop, s[:3 - s.count(n)]


def colored_z_supports(cx: CellComplex) -> list[list[tuple[int, ...]]]:
    """Z check supports of the red, green and blue blocks: the nonempty
    triple intersections of the other three blocks' X supports, each list
    sorted for a stable row order."""
    found: dict[int, set[tuple[int, ...]]] = {1: set(), 2: set(), 3: set()}
    for drop, s in star_triangles(cx.cells[3], drops=tuple(found)):
        found[drop].add(s)
    return [sorted(supports) for supports in found.values()]


def _colored_codeblock(
    cx: CellComplex, color: Color, hz_rows: list[tuple[int, ...]]
) -> Codeblock:
    n = len(cx.cells[3])
    stars = (_star(v, cx.cells[3]) for v, c in zip(cx.cells[0], cx.colors) if c == color)
    return Codeblock(color, n, BinMatrix.from_supports(n, stars),
                     BinMatrix.from_supports(n, hz_rows))


def build_colored_codeblock(cx: CellComplex, color: Color) -> Codeblock:
    """One colored block on its own; ``build_family`` shares the Z pass."""
    return _colored_codeblock(cx, color, colored_z_supports(cx)[color - 1])


def build_family(cx: CellComplex) -> CodeFamily:
    """Block 0 and the three colored blocks, whose Z sides come from one
    star-triangle pass."""
    blocks = [build_codeblock0(cx)]
    for color, hz_rows in zip(Color, colored_z_supports(cx)):
        blocks.append(_colored_codeblock(cx, color, hz_rows))
    return CodeFamily("octaplex", cx.L, blocks, cx.cells[3], complex=cx)


def shifted_qubit_permutation(cx: CellComplex, block: int) -> list[int]:
    """Qubit permutation induced by the block-equivalence translation."""
    (t0, t1, t2, t3), pos, (w3, w2, w1, w) = BLOCK_SHIFTS[block], cx.cells[3].pos, cx.cells[3].wrap
    return [pos[w3[a + t0] + w2[b + t1] + w1[c + t2] + w[d + t3]] for a, b, c, d in cx.cells[3]]


# ---------------------------------------------------------------------------
# logical representatives of both octaplex families
#
# The torus and the box differ only in value ranges: the torus takes every
# value mod 4L with sheets at 0 (integer), 2 (half) and 1 (quarter); the box
# takes [2, 4L] with sheets at 4, 2 and 3 and strings based at 4.


def z_string(block: int, d: int, values: Sequence[int], base: int) -> list[Coord]:
    """Logical Z string of ``block`` along axis d, over ``values`` on that axis.

    Block 0's string runs through half-integer positions, at ``base`` on the
    other axes; a colored block's runs through integer positions on the
    half-integer sheet of axis SIGMA[block][d].
    """
    h = SIGMA[block][d]
    point = [2 if i == h != d else base for i in range(4)]
    return line(d, point, sublattice(values, 2 if h == d else 0))


def x_hyperplane(
    block: int, d: int, values: Sequence[int], positions: tuple[int, int, int]
) -> list[Coord]:
    """Three-sheet logical X of ``block`` orthogonal to axis d.

    ``positions`` holds the axis-d coordinates of the integer, half-integer
    and quarter-integer sheets. The free coordinates of each sheet range
    over the members of ``values`` on its sublattice: of the integer and
    half sheets, one is half-integer on axis SIGMA[block][d] alone and the
    other on every axis but that one; the quarter sheet is odd throughout.
    """
    h = SIGMA[block][d]
    integer, half, quarter = positions
    cells: list[Coord] = []
    for on_h, off_h in ((2, 0), (0, 2)):
        res = [on_h if i == h else off_h for i in range(4)]
        free = [sublattice(values, res[i]) for i in range(4) if i != d]
        cells += sheet(d, half if res[d] == 2 else integer, free)
    return cells + sheet(d, quarter, [sublattice(values, 1, 3)] * 3)


# ---------------------------------------------------------------------------
# bounded octaplex family


def build_bounded_family(L: int) -> CodeFamily:
    """Open-boundary family on the box [1/2, L]^4; one logical qubit per block.

    Each block is defined by its retained X stabilizers plus its logical X;
    the Z stabilizer space is the full orthogonal complement of those. The
    complement is generated by the clipped geometric triangles (interior
    weight 3, boundary weight 2) plus a small deterministic completion layer
    near the box corners, reported per block.
    """
    if L < 2:
        raise ValueError("L must be >= 2")
    hi = 4 * L
    box = range(2, hi + 1)
    # The box's qubits (kind 4) and block b's X centers (kind b), by residue class, on the
    # grid of period 4L + 2, where a value within 3 of [2, 4L] but off it wraps to 0, 1 or
    # 4L + 1 (kind 5). A block keeps the centers whose rough-axis coordinate lies in
    # [1, L - 1/2], where its logical string can end; smooth-axis coordinates span the box.
    period = hi + 2
    kind = {r: _BLOCK_BY_RESIDUES.get(r, 4 if d == 3 else 5) for r, (d, _) in _cell_classes().items()}
    residues = [v & 3 if v in box else 4 for v in range(period)]
    kinds = bytes(map(kind.get, product(residues, repeat=4), repeat(5)))
    qubits = Cells(period, kinds, 4)
    centers = [[c for c in compress(product(range(period), repeat=4), kind_mask(kinds, b))
                if 4 <= c[BOUNDED_ROUGH_AXIS[b]] <= hi - 2] for b in range(4)]
    n = len(qubits)

    # All triangles of weight 2-3 in the box, of every block, in mask order, and
    # their first, second and third qubits; a weight-2 triangle's third is n, tagged 0.
    triangles = sorted({s for _, s in star_triangles(qubits, drops=range(4)) if len(s) > 1},
                       key=_mask_order)
    slots = [array("i", map(itemgetter(0), triangles)), array("i", map(itemgetter(1), triangles)),
             array("i", [s[2] if len(s) == 3 else n for s in triangles])]

    blocks = []
    for b in range(4):
        d = BOUNDED_ROUGH_AXIS[b]
        hx = BinMatrix.from_supports(n, (_star(c, qubits) for c in centers[b]))
        xbar_cells = list(map(qubits.index, x_hyperplane(b, d, box, positions=(4, 2, 3))))
        constraint = BinMatrix.from_supports(n, [*hx.supports(), xbar_cells])
        tags = [0] * (n + 1)  # per qubit, a mask of its constraint rows; last row first: sized once
        for r in reversed(range(constraint.shape[0])):
            for q in constraint.support(r):
                tags[q] |= 1 << r
        # Keep the triangles whose qubits' constraint rows cancel.
        first, second, third = (map(tags.__getitem__, slot) for slot in slots)
        kept = list(compress(triangles, map(not_, map(xor, map(xor, first, second), third))))
        # Complete to the full complement of hx + logical X by the kernel vectors that add to the
        # span; a residue depends on the span alone, so the fill order is free. hz keeps the rank.
        hz = BinMatrix.from_supports(n, kept).completed(constraint.kernel_basis())
        blocks.append(
            Codeblock(
                b,
                n,
                hx,
                hz,
                meta={
                    "x_centers": centers[b],
                    "triangle_generators": len(kept),
                    "completion_generators": hz.shape[0] - len(kept),
                    "triangle_weights": sorted({len(s) for s in kept}),
                    "logical_x": xbar_cells,
                    "logical_z": list(map(qubits.index, z_string(b, d, box, base=4))),
                    "rough_axis": AXES[d],
                },
            )
        )
    return CodeFamily("octaplex-bounded", L, blocks, qubits)


def bounded_boundary_coordinate_count(center: Coord, block: int, L: int) -> int:
    """Number of smooth-axis coordinates of a center at the box endpoints."""
    hi = 4 * L
    rough = BOUNDED_ROUGH_AXIS[block]
    return sum(
        1 for i in range(4) if i != rough and center[i] in (2, hi)
    )


# ---------------------------------------------------------------------------
# 2D and 3D warm-ups on the cubic torus (Z/L)^dim
#
# Vertex v is read as a base-L number with axis 0 the top digit. Edge (a, v) runs from v
# along axis a and is qubit a·L^dim + v. Check rows zip edge lists read off shift tables.


def edge_shift(L: int, dim: int, a: int, s: int = 1) -> list[int]:
    """The edge map (b, v) ↦ (b, v + s·e_a), s = ±1, as a list: a run of L·st vertices,
    st = L^(dim-1-a), steps by s·st but for its last (s = 1) or first st, which wrap."""
    st = L ** (dim - 1 - a)
    hop, wrap = [s * st] * ((L - 1) * st), [-s * (L - 1) * st] * st
    return list(map(add, range(dim * L**dim), (hop + wrap if s == 1 else wrap + hop) * dim * L**a))


def _corners(shifts: list[list[int]], axes: Sequence[int], a: int) -> list[Sequence[int]]:
    """Per t < 2^len(axes), the edges (a, v) moved by ``shifts[axes[i]]`` for each bit i of t:
    with the +e_b tables, the edges at corner t of the cells spanned by ``axes``."""
    size = len(shifts[0]) // len(shifts)
    c: list[Sequence[int]] = [range(a * size, (a + 1) * size)]
    for b in axes:
        c += [list(map(shifts[b].__getitem__, u)) for u in c]
    return c


def _cells(plus: list[list[int]], axes: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The edges of the cell spanned by ``axes`` at each vertex: along each
    axis a, from the corners of the cell spanned by the others."""
    return zip(*(c for a in axes for c in _corners(plus, [b for b in axes if b != a], a)))


def _stars(L: int, dim: int) -> Iterator[tuple[int, ...]]:
    """The edges (a, v) and (a, v - e_a) at each vertex v."""
    minus = [edge_shift(L, dim, a, -1) for a in range(dim)]
    return zip(*(c for a in range(dim) for c in _corners(minus, [a], a)))


def build_2d_pair(L: int) -> CodeFamily:
    """Two toric-code blocks with swapped roles: plaquettes and vertex stars."""
    if L < 2:
        raise ValueError("L must be >= 2")
    n, plus = 2 * L * L, [edge_shift(L, 2, a) for a in range(2)]
    plaq = BinMatrix.from_supports(n, _cells(plus, (0, 1)))
    star = BinMatrix.from_supports(n, _stars(L, 2))
    return CodeFamily("2d", L, [Codeblock(0, n, plaq, star), Codeblock(1, n, star, plaq)], range(n))


def build_3d_triple(L: int) -> CodeFamily:
    """Vertex-star block plus two cube-color blocks on the {4,3,4} torus.

    L must be even so that the cube 2-coloring, the parity of i + j + k,
    closes up around the torus.
    """
    if L < 2 or L % 2:
        raise ValueError("L must be even and >= 2 (cube 2-coloring)")
    n, plus = 3 * L**3, [edge_shift(L, 3, a) for a in range(3)]
    # Along axis a, the cube at v has the edges at its corners t with bit a clear. At corner t
    # it meets the triple of edges at t & ~2^a, which ascend, so (z, y, x) order is mask order.
    x, y, z = corners = [_corners(plus, range(3), a) for a in range(3)]
    cube_edges = [c[t] for a, c in enumerate(corners) for t in range(8) if not t >> a & 1]

    def cube_block(label: int, color: int) -> Codeblock:
        """X checks on one color's cubes; Z checks on the other's corner triples."""
        own = [sum(c) & 1 == color for c in product(range(L), repeat=3)]
        triples = sorted(chain(*(compress(zip(x[t & 6], y[t & 5], z[t & 3]), map(not_, own))
                                 for t in range(8))), key=itemgetter(2, 1, 0))
        return Codeblock(label, n, BinMatrix.from_supports(n, compress(zip(*cube_edges), own)),
                         BinMatrix.from_supports(n, triples))

    faces = chain(*(_cells(plus, axes) for axes in ((1, 2), (0, 2), (0, 1))))  # normal x, y, z
    block0 = Codeblock(0, n, BinMatrix.from_supports(n, _stars(L, 3)),
                       BinMatrix.from_supports(n, faces))
    return CodeFamily("3d", L, [block0, cube_block(1, 0), cube_block(2, 1)], range(n))
