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

Blocks of one family share a single qubit index. Generator sets are kept
redundant on purpose: the metacheck module is about those redundancies, and
logical counts are always computed from ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

from .binalg import BinMatrix, mask_from_support, support_from_mask
from .lattice import (
    AXES,
    CellComplex,
    CellType,
    Color,
    Coord,
    FOURCELL_TYPES,
    QUBIT_TYPES,
    build_octaplex,
    star24,
    try_classify,
    vertex_color,
)

# Block order is fixed: 0 = 4-cells, then the vertex colors.
BLOCK_COLORS = (None, Color.RED, Color.GREEN, Color.BLUE)

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
    x_centers: list = field(default_factory=list)   # geometric tag per hx row
    z_cells: list = field(default_factory=list)     # geometric tag per hz row
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.n - self.hx.rank() - self.hz.rank()

    def css_commutes(self) -> bool:
        return self.hx.matmul(self.hz.transpose()).is_zero()

    def x_weights(self) -> list[int]:
        return sorted({r.bit_count() for r in self.hx.rows})

    def z_weights(self) -> list[int]:
        return sorted({r.bit_count() for r in self.hz.rows})


@dataclass
class CodeFamily:
    kind: str
    L: int
    blocks: list[Codeblock]
    qubit_labels: list
    complex: CellComplex | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.qubit_labels)

    def qubit_index(self) -> dict:
        return {q: i for i, q in enumerate(self.qubit_labels)}


# ---------------------------------------------------------------------------
# periodic octaplex family


def _qubit_order(cx: CellComplex) -> tuple[list[Coord], dict[Coord, int]]:
    qubits = cx.cells[3]
    return qubits, {q: i for i, q in enumerate(qubits)}


def _star_mask(center: Coord, qidx: dict[Coord, int], period: int) -> int:
    return mask_from_support(qidx[q] for q in star24(center, period))


def build_codeblock0(cx: CellComplex) -> Codeblock:
    """X checks on 4-cells (weight 24), Z checks on triangles (weight 3)."""
    qubits, qidx = _qubit_order(cx)
    hx_rows = [mask_from_support(b) for b in cx.boundary[4]]
    hz_rows = [mask_from_support(cb) for cb in cx.coboundary[2]]
    return Codeblock(
        0,
        len(qubits),
        BinMatrix(hx_rows, len(qubits)),
        BinMatrix(hz_rows, len(qubits)),
        x_centers=list(cx.cells[4]),
        z_cells=list(cx.cells[2]),
    )


def _vertices_of_qubit(cx: CellComplex, q: Coord) -> list[Coord]:
    # The six vertices of an octahedron sit at squared scaled distance 4.
    return [c for c in star24(q, cx.period) if try_classify(c) is CellType.V0]


def _fourcells_of_qubit(cx: CellComplex, q: Coord) -> list[Coord]:
    return [c for c in star24(q, cx.period) if try_classify(c) in FOURCELL_TYPES]


def colored_z_supports(cx: CellComplex, color: Color) -> list[tuple[int, ...]]:
    """Nonempty triple intersections of the other three blocks' X supports.

    Enumerated per qubit: every nonempty triple contains some 3-cell, and a
    3-cell lies in exactly two 4-cells and two vertices of each color, so
    eight candidate triples per qubit cover everything. Deduplicated and
    sorted by support for a stable row order.
    """
    qubits, qidx = _qubit_order(cx)
    period = cx.period
    other_colors = [c for c in (Color.RED, Color.GREEN, Color.BLUE) if c != color]
    star_cache: dict[Coord, int] = {}

    def star(c: Coord) -> int:
        m = star_cache.get(c)
        if m is None:
            m = _star_mask(c, qidx, period)
            star_cache[c] = m
        return m

    seen: set[int] = set()
    for q in qubits:
        by_color: dict[Color, list[Coord]] = {c: [] for c in other_colors}
        for v in _vertices_of_qubit(cx, q):
            col = vertex_color(v)
            if col in by_color:
                by_color[col].append(v)
        fours = _fourcells_of_qubit(cx, q)
        for o in fours:
            for va in by_color[other_colors[0]]:
                for vb in by_color[other_colors[1]]:
                    m = star(o) & star(va) & star(vb)
                    if m:
                        seen.add(m)
    return sorted(tuple(support_from_mask(m)) for m in seen)


def build_colored_codeblock(cx: CellComplex, color: Color) -> Codeblock:
    qubits, qidx = _qubit_order(cx)
    verts = [v for v, c in zip(cx.cells[0], cx.colors) if c == color]
    hx_rows = [_star_mask(v, qidx, cx.period) for v in verts]
    z_supports = colored_z_supports(cx, color)
    hz_rows = [mask_from_support(s) for s in z_supports]
    label = BLOCK_COLORS.index(color)
    return Codeblock(
        label,
        len(qubits),
        BinMatrix(hx_rows, len(qubits)),
        BinMatrix(hz_rows, len(qubits)),
        x_centers=verts,
        z_cells=list(z_supports),
    )


def build_family(cx: CellComplex) -> CodeFamily:
    blocks = [build_codeblock0(cx)]
    for color in (Color.RED, Color.GREEN, Color.BLUE):
        blocks.append(build_colored_codeblock(cx, color))
    qubits, _ = _qubit_order(cx)
    return CodeFamily("octaplex", cx.L, blocks, qubits, complex=cx)


def build_periodic_family(L: int) -> CodeFamily:
    return build_family(build_octaplex(L))


def shifted_qubit_permutation(cx: CellComplex, block: int) -> list[int]:
    """Qubit permutation induced by the block-equivalence translation."""
    qubits, qidx = _qubit_order(cx)
    t = BLOCK_SHIFTS[block]
    return [
        qidx[tuple((v + s) % cx.period for v, s in zip(q, t))] for q in qubits
    ]


# ---------------------------------------------------------------------------
# bounded octaplex family


def bounded_retained_centers(L: int, block: int) -> list[Coord]:
    """X-stabilizer centers kept for one block of the bounded family.

    Smooth-axis coordinates span the full box [1/2, L]; the block's rough
    axis is restricted to [1, L - 1/2] so that its logical string can
    terminate there.
    """
    hi = 4 * L
    rough = BOUNDED_ROUGH_AXIS[block]
    out = []
    for c in product(range(2, hi + 1), repeat=4):
        t = try_classify(c)
        if block == 0:
            if t not in FOURCELL_TYPES:
                continue
        else:
            if t is not CellType.V0 or vertex_color(c) is not BLOCK_COLORS[block]:
                continue
        if 4 <= c[rough] <= hi - 2:
            out.append(c)
    return out


def _bounded_xbar(L: int, block: int, qidx: dict[Coord, int]) -> int:
    """Three-sheet logical X along the block's rough axis, inside the box."""
    hi = 4 * L
    d = BOUNDED_ROUGH_AXIS[block]
    h = SIGMA[block][d]
    t1 = [0, 0, 0, 0]
    t1[h] = 2
    t2 = [2 - v for v in t1]
    sup: list[Coord] = []
    free = [i for i in range(4) if i != d]
    for t in (t1, t2):
        axis_val = 2 if t[d] == 2 else 4
        ranges = [[v for v in range(2, hi + 1) if v % 4 == t[i]] for i in free]
        for vals in product(*ranges):
            co = [0, 0, 0, 0]
            co[d] = axis_val
            for i, v in zip(free, vals):
                co[i] = v
            sup.append(tuple(co))
    odds = [v for v in range(3, hi) if v % 2]
    for vals in product(odds, repeat=3):
        co = [0, 0, 0, 0]
        co[d] = 3
        for i, v in zip(free, vals):
            co[i] = v
        sup.append(tuple(co))
    return mask_from_support(qidx[q] for q in sup)


def _bounded_zbar(L: int, block: int, qidx: dict[Coord, int]) -> int:
    d = BOUNDED_ROUGH_AXIS[block]
    h = SIGMA[block][d]
    sup: list[Coord] = []
    if h == d:  # block 0: string over half-integer positions
        for t in range(L):
            co = [4, 4, 4, 4]
            co[d] = 4 * t + 2
            sup.append(tuple(co))
    else:
        for t in range(1, L + 1):
            co = [4, 4, 4, 4]
            co[h] = 2
            co[d] = 4 * t
            sup.append(tuple(co))
    return mask_from_support(qidx[q] for q in sup)


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
    qubits = sorted(
        c
        for c in product(range(2, hi + 1), repeat=4)
        if try_classify(c) in QUBIT_TYPES
    )
    qidx = {q: i for i, q in enumerate(qubits)}
    n = len(qubits)

    period = 4 * L + 8  # past the box: no wrapped coordinate lands in [2, 4L]

    def clipped_star(center: Coord) -> int:
        return mask_from_support(
            qidx[q] for q in star24(center, period) if q in qidx
        )

    centers = {b: bounded_retained_centers(L, b) for b in range(4)}
    hx_rows = {b: [clipped_star(c) for c in centers[b]] for b in range(4)}
    xbars = {b: _bounded_xbar(L, b, qidx) for b in range(4)}
    zbars = {b: _bounded_zbar(L, b, qidx) for b in range(4)}

    # All geometric triangles with support in the box: per qubit, triples of
    # the centers containing it in the unbounded lattice.
    triangle_masks: set[int] = set()
    star_cache: dict[Coord, int] = {}

    def star(c: Coord) -> int:
        m = star_cache.get(c)
        if m is None:
            m = clipped_star(c)
            star_cache[c] = m
        return m

    for q in qubits:
        groups: dict[int, list[Coord]] = {0: [], 1: [], 2: [], 3: []}
        for c in star24(q, period):
            t = try_classify(c)
            if t in FOURCELL_TYPES:
                groups[0].append(c)
            elif t is CellType.V0:
                groups[BLOCK_COLORS.index(vertex_color(c))].append(c)
        for drop in range(4):
            slots = [groups[s] for s in range(4) if s != drop]
            for trip in product(*slots):
                m = star(trip[0]) & star(trip[1]) & star(trip[2])
                if m:
                    triangle_masks.add(m)
    triangles = sorted(triangle_masks)

    blocks = []
    for b in range(4):
        hx = BinMatrix(hx_rows[b], n)
        kept = [
            m
            for m in triangles
            if 2 <= m.bit_count() <= 3
            and (m & xbars[b]).bit_count() % 2 == 0
            and all((m & x).bit_count() % 2 == 0 for x in hx.rows)
        ]
        # Deterministic completion to the full complement of hx + logical X.
        constraint = BinMatrix(hx.rows + [xbars[b]], n)
        complement = constraint.kernel_basis()
        # Incremental reducer keyed by lowest-set-bit pivot; reducing in
        # ascending pivot order only ever flips higher bits, so one pass
        # suffices for membership tests.
        reducer: dict[int, int] = {}

        def _reduce(v: int) -> int:
            for piv in sorted(reducer):
                if (v >> piv) & 1:
                    v ^= reducer[piv]
            return v

        for m in kept:
            res = _reduce(m)
            if res:
                reducer[(res & -res).bit_length() - 1] = res
        completion: list[int] = []
        for vec in complement:
            res = _reduce(vec.bits)
            if res:
                completion.append(res)
                reducer[(res & -res).bit_length() - 1] = res
        hz = BinMatrix(kept + completion, n)
        blocks.append(
            Codeblock(
                b,
                n,
                hx,
                hz,
                x_centers=centers[b],
                z_cells=[],
                meta={
                    "triangle_generators": len(kept),
                    "completion_generators": len(completion),
                    "triangle_weights": sorted({m.bit_count() for m in kept}),
                    "logical_x": xbars[b],
                    "logical_z": zbars[b],
                    "rough_axis": AXES[BOUNDED_ROUGH_AXIS[b]],
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
# 2D warm-up: two toric-code blocks with swapped roles


def _edges_2d(L: int) -> list[tuple]:
    return sorted(
        (kind, i, j) for kind in ("h", "v") for i in range(L) for j in range(L)
    )


def _plaquette_2d(L: int, i: int, j: int) -> list[tuple]:
    return [
        ("h", i, j),
        ("h", i, (j + 1) % L),
        ("v", i, j),
        ("v", (i + 1) % L, j),
    ]


def _star_2d(L: int, i: int, j: int) -> list[tuple]:
    return [
        ("h", i, j),
        ("h", (i - 1) % L, j),
        ("v", i, j),
        ("v", i, (j - 1) % L),
    ]


def build_2d_pair(L: int) -> CodeFamily:
    if L < 2:
        raise ValueError("L must be >= 2")
    edges = _edges_2d(L)
    eidx = {e: i for i, e in enumerate(edges)}
    n = len(edges)

    def m(coords: Sequence[tuple]) -> int:
        return mask_from_support(eidx[c] for c in coords)

    sites = [(i, j) for i in range(L) for j in range(L)]
    plaq = [m(_plaquette_2d(L, i, j)) for i, j in sites]
    star = [m(_star_2d(L, i, j)) for i, j in sites]
    block_a = Codeblock(0, n, BinMatrix(plaq, n), BinMatrix(star, n), x_centers=sites, z_cells=sites)
    block_b = Codeblock(1, n, BinMatrix(star, n), BinMatrix(plaq, n), x_centers=sites, z_cells=sites)
    return CodeFamily("2d", L, [block_a, block_b], edges)


# ---------------------------------------------------------------------------
# 3D warm-up: two cube colors plus vertex stars


def _edges_3d(L: int) -> list[tuple]:
    return sorted(
        (ax, i, j, k)
        for ax in ("x", "y", "z")
        for i in range(L)
        for j in range(L)
        for k in range(L)
    )


def cube_edges(L: int, i: int, j: int, k: int) -> list[tuple]:
    out = []
    for b in (0, 1):
        for c in (0, 1):
            out.append(("x", i, (j + b) % L, (k + c) % L))
            out.append(("y", (i + b) % L, j, (k + c) % L))
            out.append(("z", (i + b) % L, (j + c) % L, k))
    return out


def vertex_star_edges(L: int, i: int, j: int, k: int) -> list[tuple]:
    return [
        ("x", i, j, k),
        ("x", (i - 1) % L, j, k),
        ("y", i, j, k),
        ("y", i, (j - 1) % L, k),
        ("z", i, j, k),
        ("z", i, j, (k - 1) % L),
    ]


def face_edges(L: int, normal: str, i: int, j: int, k: int) -> list[tuple]:
    if normal == "z":
        return [("x", i, j, k), ("x", i, (j + 1) % L, k),
                ("y", i, j, k), ("y", (i + 1) % L, j, k)]
    if normal == "y":
        return [("x", i, j, k), ("x", i, j, (k + 1) % L),
                ("z", i, j, k), ("z", (i + 1) % L, j, k)]
    return [("y", i, j, k), ("y", i, j, (k + 1) % L),
            ("z", i, j, k), ("z", i, (j + 1) % L, k)]


def build_3d_triple(L: int, cube_color=None) -> CodeFamily:
    """Vertex-star block plus two cube-color blocks on the {4,3,4} torus.

    L must be even so that the cube 2-coloring closes up around the torus.
    ``cube_color`` may override the coloring (used by fault-injection tests).
    """
    if L < 2 or L % 2:
        raise ValueError("L must be even and >= 2 (cube 2-coloring)")
    edges = _edges_3d(L)
    eidx = {e: i for i, e in enumerate(edges)}
    n = len(edges)

    def m(coords: Sequence[tuple]) -> int:
        return mask_from_support(eidx[c] for c in coords)

    if cube_color is None:
        cube_color = lambda i, j, k: (i + j + k) % 2  # noqa: E731
    cubes = [(i, j, k) for i in range(L) for j in range(L) for k in range(L)]
    red = [c for c in cubes if cube_color(*c) == 0]
    blue = [c for c in cubes if cube_color(*c) == 1]
    verts = cubes

    star_rows = [m(vertex_star_edges(L, *v)) for v in verts]
    red_rows = [m(cube_edges(L, *c)) for c in red]
    blue_rows = [m(cube_edges(L, *c)) for c in blue]

    faces = sorted(
        (ax, i, j, k)
        for ax in ("x", "y", "z")
        for i in range(L)
        for j in range(L)
        for k in range(L)
    )
    face_rows = [m(face_edges(L, *f)) for f in faces]

    def corner_triples(cube_list: list[tuple]) -> list[int]:
        seen = set()
        for c in cube_list:
            ce = set(cube_edges(L, *c))
            for dv in product((0, 1), repeat=3):
                v = tuple((a + b) % L for a, b in zip(c, dv))
                s = set(vertex_star_edges(L, *v)) & ce
                if s:
                    seen.add(m(sorted(s)))
        return sorted(seen)

    block0 = Codeblock(0, n, BinMatrix(star_rows, n), BinMatrix(face_rows, n),
                       x_centers=verts, z_cells=faces)
    block1 = Codeblock(1, n, BinMatrix(red_rows, n),
                       BinMatrix(corner_triples(blue), n), x_centers=red)
    block2 = Codeblock(2, n, BinMatrix(blue_rows, n),
                       BinMatrix(corner_triples(red), n), x_centers=blue)
    return CodeFamily("3d", L, [block0, block1, block2], edges)
