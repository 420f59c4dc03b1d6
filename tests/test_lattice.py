import copy
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import octaplex.lattice as lattice
from octaplex.binalg import BinMatrix
from octaplex.lattice import (
    DIM_OF,
    CellType,
    Color,
    NotACellError,
    boundary_composition_is_zero,
    boundary_coords,
    build_octaplex,
    classify,
    cross_check_nearest,
    euler_characteristic,
    star24,
    try_classify,
    vertex_color,
)


def incident_cells(cx, dim, i, target_dim):
    """All target_dim-cells related to cell i by iterated (co)boundary."""
    if not (0 <= dim <= 4 and 0 <= target_dim <= 4):
        raise ValueError("dimensions must lie in 0..4")
    current = {i}
    d = dim
    while d != target_dim:
        step = cx.boundary[d] if target_dim < d else cx.boundary[d + 1].transpose()
        current = {j for c in current for j in step.support(c)}
        d += -1 if target_dim < d else 1
    return sorted(current)


def toroidal_dist2(a, b, period):
    s = 0
    for x, y in zip(a, b):
        d = abs(x - y)
        d = min(d, period - d)
        s += d * d
    return s


def test_cell_counts(cx2):
    L = 2
    assert [len(cx2.cells[d]) for d in range(5)] == [
        6 * L**4, 48 * L**4, 64 * L**4, 24 * L**4, 2 * L**4,
    ]


def test_euler_characteristic(cx2):
    assert euler_characteristic(cx2) == 0


def test_classify_examples():
    assert classify((0, 0, 2, 2)) is CellType.V0
    assert classify((1, 1, 1, 1)) is CellType.C3III
    assert classify((0, 2, 1, 3)) is CellType.E1
    assert classify((0, 0, 0, 0)) is CellType.H4I
    with pytest.raises(NotACellError):
        classify((0, 0, 0, 1))


def test_vertex_colors():
    assert vertex_color((0, 0, 2, 2)) == Color.RED == 1
    assert vertex_color((0, 2, 0, 2)) == Color.GREEN == 2
    assert vertex_color((0, 2, 2, 0)) == Color.BLUE == 3
    with pytest.raises(NotACellError):
        vertex_color((1, 1, 1, 1))


def test_small_l_rejected():
    with pytest.raises(ValueError):
        build_octaplex(1)


def test_boundary_cardinalities(cx2):
    assert all(len(b) == 24 for b in cx2.boundary[4].supports())
    assert all(len(b) == 8 for b in cx2.boundary[3].supports())
    assert all(len(b) == 3 for b in cx2.boundary[2].supports())
    assert all(len(b) == 2 for b in cx2.boundary[1].supports())


def test_coboundary_cardinalities(cx2):
    assert all(len(c) == 3 for c in cx2.boundary[3].transpose().supports())   # faces in 3 octahedra
    assert all(len(c) == 4 for c in cx2.boundary[2].transpose().supports())   # edges in 4 faces
    assert all(len(c) == 2 for c in cx2.boundary[4].transpose().supports())   # octahedra in 2 bodies
    assert all(len(c) == 16 for c in cx2.boundary[1].transpose().supports())  # vertices in 16 edges


def test_boundary_maps_are_linked_to_their_transposes(cx2):
    assert cx2.boundary[0].shape == (len(cx2.cells[0]), 0)
    for d in range(1, 5):
        m = cx2.boundary[d]
        assert m.shape == (len(cx2.cells[d]), len(cx2.cells[d - 1]))
        assert m.transpose().transpose() is m
        assert m.transpose().shape == (len(cx2.cells[d - 1]), len(cx2.cells[d]))


def test_incident_cells_counts(cx2):
    assert len(incident_cells(cx2, 0, 0, 3)) == 24
    assert len(incident_cells(cx2, 1, 5, 2)) == 4
    assert len(incident_cells(cx2, 2, 7, 3)) == 3
    assert len(incident_cells(cx2, 0, 3, 2)) == 32
    with pytest.raises(ValueError):
        incident_cells(cx2, 0, 0, 5)


def cells_by_dim(period):
    """Every point of the torus classified, per dimension, in lex order."""
    by_dim = [[] for _ in range(5)]
    for c in product(range(period), repeat=4):
        if (t := try_classify(c)) is not None:
            by_dim[DIM_OF[t]].append(c)
    return by_dim


@pytest.mark.parametrize("L", [2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_cell_table_matches_boundary_coords(L):
    # the residue-class table against the per-cell classification and
    # boundary rules it is read from
    cx = build_octaplex(L)
    assert [list(cells) for cells in cx.cells] == cells_by_dim(cx.period)
    for d in range(1, 5):
        idx = cx.cells[d - 1].index
        for c, bs in zip(cx.cells[d], cx.boundary[d].supports(), strict=True):
            assert list(bs) == sorted(idx(b) for b in boundary_coords(c, cx.period)), c


@pytest.mark.parametrize("L", [2, 3])
def test_one_numbering_per_dimension(L):
    # each dimension's view lists the lex-sorted classified points, each
    # looks up to its own position, and a point of another dimension or
    # off the torus is rejected
    cx = build_octaplex(L)
    reference, period = cells_by_dim(cx.period), cx.period
    for d, cells in enumerate(cx.cells):
        assert len(cells) == len(reference[d])
        assert list(cells) == reference[d]
        assert [cells[i] for i in range(len(cells))] == reference[d]
        assert [cells.index(c) for c in cells] == list(range(len(cells)))
        for other in range(5):
            if other != d:
                for c in reference[other][::97]:
                    with pytest.raises(ValueError):
                        cells.index(c)
        c = reference[d][0]
        for off in ((c[0] + period, *c[1:]), (*c[:3], c[3] - period), (*c[:3], c[3] + 4 * period)):
            assert try_classify(off) is try_classify(c)
            with pytest.raises(ValueError):
                cells.index(off)
        with pytest.raises(ValueError):
            cells.index((0, 0, 0, period))
        with pytest.raises(ValueError):
            cells.index(c[:3])


def test_complex_retains_under_two_megabytes():
    # the numbering is one key table and one key array per dimension; the
    # coordinate lists and index dicts it replaced held 6.2 MB at L=4
    build_octaplex(4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cx = build_octaplex(4)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cx.cells[3]) == 24 * 4**4
    assert retained < 2_000_000, retained


def test_cell_table_entry_reaches_the_complex(monkeypatch):
    # negative control: one class with one boundary offset fewer
    table = dict(lattice._cell_classes())
    dim, offsets = table[1, 1, 1, 1]
    table[1, 1, 1, 1] = dim, offsets[1:]
    monkeypatch.setattr(lattice, "_cell_classes", lambda: table)
    cx = build_octaplex(2)
    c = (1, 1, 1, 1)
    bs = cx.boundary[3].support(cx.cells[3].index(c))
    assert len(bs) == 7
    assert set(bs) < {cx.cells[2].index(b) for b in boundary_coords(c, cx.period)}


def test_boundary_squared_is_zero(cx2):
    assert boundary_composition_is_zero(cx2)


def nearest_reference(cx, rows=128):
    """The all-pairs form of ``cross_check_nearest``: every d-cell against
    every (d-1)-cell, anchor-type restricted at d=3, as numpy distance
    blocks of up to ``rows`` d-cells of one type."""
    period = cx.period

    def dist2(block, candidates):
        total = 0
        for k in range(4):
            diff = np.abs(block[:, k, None] - candidates[None, :, k])
            total = total + np.minimum(diff, period - diff) ** 2
        return total

    f2i = np.array([classify(f) is CellType.F2I for f in cx.cells[2]])
    anchored = {CellType.C3I: f2i, CellType.C3II: ~f2i,
                CellType.C3III: np.ones_like(f2i)}
    for d in (1, 3, 4):
        lower = np.array(list(cx.cells[d - 1]), dtype=np.int32).reshape(-1, 4)
        groups = {}
        for i, c in enumerate(cx.cells[d]):
            groups.setdefault(classify(c) if d == 3 else None, []).append(i)
        for kind, members in groups.items():
            ids = np.flatnonzero(anchored[kind]) if d == 3 else np.arange(len(lower))
            slot = dict(zip(ids.tolist(), range(len(ids))))  # candidate id -> column
            for start in range(0, len(members), rows):
                chunk = members[start:start + rows]
                block = np.array([cx.cells[d][i] for i in chunk], dtype=np.int32)
                dist = dist2(block, lower[ids])
                nearest = dist == dist.min(axis=1, keepdims=True)
                listed = np.zeros_like(nearest)
                for r, i in enumerate(chunk):
                    if any(j not in slot for j in cx.boundary[d].support(i)):
                        return False
                    listed[r, [slot[j] for j in cx.boundary[d].support(i)]] = True
                if not np.array_equal(nearest, listed):
                    return False
    return True


def test_nearest_cross_check(cx2):
    assert cross_check_nearest(cx2)
    assert nearest_reference(cx2)


def test_nearest_cross_check_l3():
    cx3 = build_octaplex(3)
    assert cross_check_nearest(cx3)
    assert nearest_reference(cx3)


def _swap_one(cx, d, kind):
    """A copy of cx in which one ``kind`` d-cell's boundary trades one member
    for a member of another such cell's boundary."""
    bad = copy.deepcopy(cx)
    i, other = [k for k, c in enumerate(cx.cells[d]) if classify(c) in kind][:2]
    rows = [list(s) for s in cx.boundary[d].supports()]
    outside = next(j for j in rows[other] if j not in rows[i])
    rows[i] = rows[i][1:] + [outside]
    bad.boundary[d] = BinMatrix.from_supports(cx.boundary[d].cols, rows)
    return bad


@pytest.mark.parametrize("d, kind", [
    (1, {CellType.E1}),
    (3, {CellType.C3I}),
    (3, {CellType.C3III}),
    (4, {CellType.H4I, CellType.H4II}),
])
def test_nearest_cross_check_rejects_a_swapped_boundary(cx2, d, kind):
    bad = _swap_one(cx2, d, kind)
    assert not cross_check_nearest(bad)
    assert not nearest_reference(bad)


def nearest_offsets_reference():
    """The table by the definition: every window offset of every class is
    classified anew by ``try_classify``."""
    table = {}
    for r in product(range(4), repeat=4):
        if (allowed := lattice._CANDIDATES.get(try_classify(r))) is not None:
            near = [o for o in lattice._WINDOW
                    if try_classify(tuple(a + b for a, b in zip(r, o))) in allowed]
            least = min(sum(x * x for x in o) for o in near)
            table[r] = tuple(o for o in near if sum(x * x for x in o) == least)
    return table


def test_nearest_offsets_match_the_per_offset_classification():
    table = lattice._nearest_offsets()
    assert table == nearest_offsets_reference()
    # the E1, C3I, C3II, C3III and 4-cell classes, none empty, all offsets in the window
    assert len(table) == 48 + 4 + 4 + 16 + 2 and all(table.values())
    assert all(o in lattice._WINDOW for offsets in table.values() for o in offsets)


def test_nearest_table_is_built_on_first_use():
    import octaplex

    script = ("import octaplex.lattice as lat\n"
              "before = lat._nearest_offsets.cache_info().currsize\n"
              "lat.cross_check_nearest(lat.build_octaplex(2))\n"
              "print(before, lat._nearest_offsets.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(octaplex.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


@pytest.mark.slow
def test_nearest_cross_check_l4():
    cx4 = build_octaplex(4)
    assert cross_check_nearest(cx4)
    assert nearest_reference(cx4)


def composition_reference(cx):
    """∂∘∂ = 0 as products of the boundary maps, each d-cell a row over the
    (d-1)-cells."""
    return all(not any(cx.boundary[d].matmul(cx.boundary[d - 1]).weights()) for d in (2, 3, 4))


@pytest.mark.parametrize("d, kind", [
    (2, {CellType.F2I}),
    (3, {CellType.C3III}),
    (4, {CellType.H4II}),
])
def test_boundary_composition_rejects_a_swapped_boundary(cx2, d, kind):
    assert composition_reference(cx2)
    bad = _swap_one(cx2, d, kind)
    assert not composition_reference(bad)
    assert not boundary_composition_is_zero(bad)


@pytest.mark.parametrize("entry", ["repeated", "outside"])
def test_boundary_map_rejects_a_malformed_row(cx2, entry):
    # a repeated or outside entry cannot enter a map: building it fails
    rows = [list(s) for s in cx2.boundary[2].supports()]
    a, b, _ = rows[0]
    rows[0] = [a, a, b] if entry == "repeated" else [a, b, len(cx2.cells[1])]
    with pytest.raises(ValueError):
        BinMatrix.from_supports(len(cx2.cells[1]), rows)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("change", ["one column more", "one row fewer"])
def test_boundary_composition_rejects_a_wrong_shape(cx2, d, change):
    cx = copy.copy(cx2)
    cx.boundary = list(cx2.boundary)
    m = cx2.boundary[d]
    rows = list(m.supports())
    cx.boundary[d] = (BinMatrix.from_supports(m.cols + 1, rows) if change == "one column more"
                      else BinMatrix.from_supports(m.cols, rows[:-1]))
    with pytest.raises(ValueError):
        boundary_composition_is_zero(cx)
    # the reference's products check only the inner dimensions: ∂d's columns
    # for d ≥ 2, its rows for d ≤ 3
    if (d >= 2) if change == "one column more" else (d <= 3):
        with pytest.raises(ValueError):
            composition_reference(cx)
    else:
        assert composition_reference(cx)


def test_fourcell_boundary_distance(cx2):
    i = cx2.cells[4].index((0, 0, 0, 0))
    for j in cx2.boundary[4].support(i):
        assert toroidal_dist2((0, 0, 0, 0), cx2.cells[3][j], cx2.period) == 4


def test_fourcell_boundary_composition(cx2):
    # 8 octahedra at +-2 along one axis, 16 at (+-1,+-1,+-1,+-1)
    i = cx2.cells[4].index((0, 0, 0, 0))
    types = [classify(cx2.cells[3][j]) for j in cx2.boundary[4].support(i)]
    assert sum(1 for t in types if t is CellType.C3II) == 8
    assert sum(1 for t in types if t is CellType.C3III) == 16


def test_edge_boundary_distance(cx2):
    for i in range(0, len(cx2.cells[1]), 97):
        e = cx2.cells[1][i]
        for j in cx2.boundary[1].support(i):
            assert toroidal_dist2(e, cx2.cells[0][j], cx2.period) == 2


def test_edge_adjacency_iff_distance_eight(cx2):
    # vertices share an edge exactly when their toroidal distance^2 is 8
    adj = set()
    for a, b in cx2.boundary[1].supports():
        adj.add((min(a, b), max(a, b)))
    verts = cx2.cells[0]
    count = 0
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            d2 = toroidal_dist2(verts[i], verts[j], cx2.period)
            if d2 == 8:
                count += 1
                assert (i, j) in adj
            else:
                assert (i, j) not in adj
    assert count == len(adj)


def test_no_same_color_edge(cx2):
    for a, b in cx2.boundary[1].supports():
        assert cx2.colors[a] != cx2.colors[b]


def test_color_balance(cx2):
    for c in Color:
        assert sum(1 for col in cx2.colors if col == c) == 2 * cx2.L**4


def test_each_face_has_three_colors(cx2):
    for i in range(len(cx2.cells[2])):
        verts = incident_cells(cx2, 2, i, 0)
        assert len(verts) == 3
        assert {cx2.colors[v] for v in verts} == set(Color)


def test_each_octahedron_has_two_of_each_color(cx2):
    for i in range(len(cx2.cells[3])):
        verts = incident_cells(cx2, 3, i, 0)
        assert len(verts) == 6
        counts = {c: 0 for c in Color}
        for v in verts:
            counts[cx2.colors[v]] += 1
        assert set(counts.values()) == {2}


def test_role_exchange_translation(cx2):
    # translating by (1/2, 1/2, 0, 0) swaps red vertices with 4-cells and
    # green with blue, and fixes the set of 3-cells
    t = (2, 2, 0, 0)
    period = cx2.period

    def shift(c):
        return tuple((v + s) % period for v, s in zip(c, t))

    fours = set(cx2.cells[4])
    reds = {v for v, c in zip(cx2.cells[0], cx2.colors) if c == Color.RED}
    greens = {v for v, c in zip(cx2.cells[0], cx2.colors) if c == Color.GREEN}
    blues = {v for v, c in zip(cx2.cells[0], cx2.colors) if c == Color.BLUE}
    assert {shift(v) for v in reds} == fours
    assert {shift(v) for v in fours} == reds
    assert {shift(v) for v in greens} == blues
    assert {shift(v) for v in blues} == greens
    assert {shift(q) for q in cx2.cells[3]} == set(cx2.cells[3])
    # a 4-cell's 24 octahedra become the shifted red vertex's star
    from octaplex.lattice import star24

    for i in (0, 11, 31):
        c = cx2.cells[4][i]
        shifted_boundary = {shift(cx2.cells[3][j]) for j in cx2.boundary[4].support(i)}
        assert vertex_color(shift(c)) == Color.RED
        assert shifted_boundary == set(star24(shift(c), cx2.period))


def test_json_export_roundtrip(cx2):
    assert cx2.L == 2
    assert len(cx2.cells[3]) == 384
    assert len(cx2.boundary[4].support(0)) == 24
    assert len(cx2.colors) == 96


def star24_by_definition(center, period):
    """±2 on one axis, then (±1)^4, each coordinate taken mod the period."""
    out = []
    for axis in range(4):
        for s in (2, -2):
            out.append(tuple((v + (s if i == axis else 0)) % period for i, v in enumerate(center)))
    for signs in product((1, -1), repeat=4):
        out.append(tuple((v + s) % period for v, s in zip(center, signs)))
    return out


STAR_CENTER_TYPES = (CellType.H4I, CellType.H4II, CellType.V0,
                     CellType.C3I, CellType.C3II, CellType.C3III)


@pytest.mark.parametrize("L", [2, 3])
def test_star24_matches_definition(L):
    cx = build_octaplex(L)
    centers = [*cx.cells[4], *cx.cells[0], *cx.cells[3]]
    assert len(centers) == (2 + 6 + 24) * L**4
    for c in centers:
        assert star24(c, cx.period) == star24_by_definition(c, cx.period)


def test_star24_matches_definition_on_bounded_period():
    L = 2
    period = 4 * L + 8
    centers = [c for c in product(range(2, 4 * L + 1), repeat=4)
               if try_classify(c) in STAR_CENTER_TYPES]
    assert centers
    for c in centers:
        assert star24(c, period) == star24_by_definition(c, period)
