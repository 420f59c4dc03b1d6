import hashlib
from dataclasses import replace
from itertools import product

import pytest

from octaplex import report
from octaplex.binalg import BinMatrix
from octaplex.codes import CodeFamily, Codeblock, build_2d_pair, build_3d_triple, edge_shift
from octaplex.logicals import LogicalBasis, build_logicals, verify_logical_basis
from octaplex.transversal import (
    ALL_DISTINCT_TRIPLES,
    check_ccz_conditions,
    check_cz_conditions,
)


# ---------------------------------------------------------------------------
# Label reference for the warm-up builders: every edge is a label
# (axis name, *vertex) and every check a list of labels, mapped to qubit
# indices through the sorted labels. The builders compute those indices
# directly, so the references below are the only place labels exist.


def label_index(labels):
    return {e: i for i, e in enumerate(labels)}


def edges_2d(L):
    return sorted((kind, i, j) for kind in ("h", "v") for i in range(L) for j in range(L))


def plaquette_2d(L, i, j):
    return [("h", i, j), ("h", i, (j + 1) % L), ("v", i, j), ("v", (i + 1) % L, j)]


def star_2d(L, i, j):
    return [("h", i, j), ("h", (i - 1) % L, j), ("v", i, j), ("v", i, (j - 1) % L)]


def edges_3d(L):
    return sorted((ax, i, j, k) for ax in ("x", "y", "z")
                  for i in range(L) for j in range(L) for k in range(L))


def cube_edges(L, i, j, k):
    out = []
    for b in (0, 1):
        for c in (0, 1):
            out.append(("x", i, (j + b) % L, (k + c) % L))
            out.append(("y", (i + b) % L, j, (k + c) % L))
            out.append(("z", (i + b) % L, (j + c) % L, k))
    return out


def vertex_star_edges(L, i, j, k):
    return [("x", i, j, k), ("x", (i - 1) % L, j, k),
            ("y", i, j, k), ("y", i, (j - 1) % L, k),
            ("z", i, j, k), ("z", i, j, (k - 1) % L)]


def face_edges(L, normal, i, j, k):
    if normal == "z":
        return [("x", i, j, k), ("x", i, (j + 1) % L, k),
                ("y", i, j, k), ("y", (i + 1) % L, j, k)]
    if normal == "y":
        return [("x", i, j, k), ("x", i, j, (k + 1) % L),
                ("z", i, j, k), ("z", (i + 1) % L, j, k)]
    return [("y", i, j, k), ("y", i, j, (k + 1) % L),
            ("z", i, j, k), ("z", i, (j + 1) % L, k)]


def reference_2d(L):
    """The qubit count and (hx rows, hz rows) per block."""
    edges = edges_2d(L)
    eidx = label_index(edges)
    sites = [(i, j) for i in range(L) for j in range(L)]
    plaq = [tuple(sorted(eidx[e] for e in plaquette_2d(L, *s))) for s in sites]
    star = [tuple(sorted(eidx[e] for e in star_2d(L, *s))) for s in sites]
    return len(edges), [(plaq, star), (star, plaq)]


def reference_3d(L, cube_color):
    """The qubit count and (hx rows, hz rows) per block."""
    edges = edges_3d(L)
    eidx = label_index(edges)

    def rows(labels):
        return [tuple(sorted(eidx[e] for e in row)) for row in labels]

    def corner_triples(cube_list):
        seen = set()  # the three edges of cube (i, j, k) at corner (i + b0, j + b1, k + b2)
        for i, j, k in cube_list:
            for b0, b1, b2 in product((0, 1), repeat=3):
                i1, j1, k1 = (i + b0) % L, (j + b1) % L, (k + b2) % L
                seen.add(tuple(sorted((eidx["x", i, j1, k1], eidx["y", i1, j, k1],
                                       eidx["z", i1, j1, k]))))
        return sorted(seen, key=lambda s: s[::-1])

    cubes = [(i, j, k) for i in range(L) for j in range(L) for k in range(L)]
    red = [c for c in cubes if cube_color(*c) == 0]
    blue = [c for c in cubes if cube_color(*c) == 1]
    return len(edges), [
        (rows(vertex_star_edges(L, *v) for v in cubes), rows(face_edges(L, *f) for f in edges)),
        (rows(cube_edges(L, *c) for c in red), corner_triples(blue)),
        (rows(cube_edges(L, *c) for c in blue), corner_triples(red)),
    ]


def as_reference(family):
    return family.n, [
        ([tuple(s) for s in b.hx.supports()], [tuple(s) for s in b.hz.supports()])
        for b in family.blocks
    ]


@pytest.mark.parametrize("L", [2, 3, 5])
def test_2d_matches_label_reference(L):
    assert as_reference(build_2d_pair(L)) == reference_2d(L)


def checkerboard(i, j, k):
    return (i + j + k) % 2


def stripes(i, j, k):
    return i % 2


@pytest.mark.parametrize("L", [2, 4, 12])
def test_3d_matches_label_reference(L):
    fam = build_3d_triple(L)
    assert as_reference(fam) == reference_3d(L, checkerboard)


# ---------------------------------------------------------------------------
# 2D pair


def test_2d_parameters(pair2d):
    assert pair2d.n == 8
    for blk in pair2d.blocks:
        assert blk.k == 2
        assert blk.x_weights() == [4]
        assert blk.z_weights() == [4]
        assert blk.css_commutes()


def test_2d_role_swap(pair2d):
    a, b = pair2d.blocks
    assert set(a.hx.rows) == set(b.hz.rows)
    assert set(a.hz.rows) == set(b.hx.rows)


def test_2d_conditions(pair2d):
    basis = build_logicals(pair2d)
    assert verify_logical_basis(pair2d, basis)[0]
    rep = check_cz_conditions(pair2d, basis)
    assert rep.all_even_pass
    assert rep.pairing_is_identity
    assert [[rep.tensor[(i, j)] for j in range(2)] for i in range(2)] == [
        [1, 0], [0, 1],
    ]


@pytest.mark.parametrize("L", [2, 3, 5])
def test_2d_logicals_match_label_reference(L):
    eidx = label_index(edges_2d(L))

    def rows(label_lists):
        return [sorted(eidx[e] for e in labels) for labels in label_lists]

    loops = rows([[("h", i, 0) for i in range(L)], [("v", 0, j) for j in range(L)]])
    coloops = rows([[("h", 0, j) for j in range(L)], [("v", i, 0) for i in range(L)]])
    basis = build_logicals(build_2d_pair(L))
    assert [[list(s) for s in m.supports()] for m in basis.x_ops] == [loops, coloops]
    assert [[list(s) for s in m.supports()] for m in basis.z_ops] == [coloops, loops]


def test_2d_same_block_pair_fails():
    # pairing a block with itself (roles not swapped) violates the even
    # overlap requirement and yields a witness
    fam = build_2d_pair(2)
    same = CodeFamily("2d", 2, [fam.blocks[0], fam.blocks[0]], fam.qubit_labels)
    basis = build_logicals(fam)
    basis.x_ops[1] = basis.x_ops[0]
    basis.z_ops[1] = basis.z_ops[0]
    rep = check_cz_conditions(same, basis)
    assert not rep.all_even_pass
    assert any(c["witness"] for c in rep.conditions)


def test_2d_disjoint_padding_passes_even_fails_pairing():
    fam = build_2d_pair(2)
    n = fam.n
    a = fam.blocks[0]
    shift = n

    def pad_a(rows):
        return BinMatrix(list(rows), 2 * n)

    def pad_b(rows):
        return BinMatrix([r << shift for r in rows], 2 * n)

    block_a = Codeblock(0, 2 * n, pad_a(a.hx.rows), pad_a(a.hz.rows))
    block_b = Codeblock(1, 2 * n, pad_b(fam.blocks[1].hx.rows), pad_b(fam.blocks[1].hz.rows))
    padded = CodeFamily("2d", 2, [block_a, block_b], list(range(2 * n)))
    basis = build_logicals(fam)
    padded_basis = LogicalBasis(
        [pad_a(basis.x_ops[0].rows), pad_b(basis.x_ops[1].rows)],
        [pad_a(basis.z_ops[0].rows), pad_b(basis.z_ops[1].rows)],
        labels=basis.labels,
    )
    rep = check_cz_conditions(padded, padded_basis)
    assert rep.all_even_pass          # all intersections empty
    assert not rep.pairing_is_identity


# ---------------------------------------------------------------------------
# 3D triple


def test_3d_parameters(triple3d):
    L = 2
    assert triple3d.n == 3 * L**3
    for blk in triple3d.blocks:
        assert blk.k == 3
        assert blk.css_commutes()
    assert triple3d.blocks[0].x_weights() == [6]
    assert triple3d.blocks[1].x_weights() == [12]
    assert triple3d.blocks[2].x_weights() == [12]
    assert triple3d.blocks[1].z_weights() == [3]
    assert triple3d.blocks[0].z_weights() == [4]


def corner_triples_by_intersection(family, cubes):
    """Each Z row of a cube-color block as the edges that a cube shares with
    the vertex star of one of its corners, sorted in mask order."""
    L = family.L
    eidx = label_index(edges_3d(L))
    seen = set()
    for c in cubes:
        ce = set(cube_edges(L, *c))
        for dv in product((0, 1), repeat=3):
            v = tuple((a + b) % L for a, b in zip(c, dv))
            if s := set(vertex_star_edges(L, *v)) & ce:
                seen.add(tuple(sorted(eidx[e] for e in s)))
    return sorted(seen, key=lambda s: s[::-1])


@pytest.mark.parametrize("L", [2, 12])
def test_3d_corner_triples_match_intersection(L):
    fam = build_3d_triple(L)
    cubes = list(product(range(L), repeat=3))
    for block, color in ((1, 1), (2, 0)):  # each color's Z rows sit on the other's cubes
        other = [c for c in cubes if sum(c) % 2 == color]
        assert [tuple(s) for s in fam.blocks[block].hz.supports()] == \
            corner_triples_by_intersection(fam, other)


@pytest.mark.parametrize("L, dim", [(2, 2), (3, 2), (2, 3), (4, 3), (5, 3)])
def test_edge_shift_matches_coordinates(L, dim):
    # edge (b, v) is b·L^dim + v, v read as base-L digits with axis 0 on top
    def index(b, coords):
        return b * L**dim + sum(c * L ** (dim - 1 - i) for i, c in enumerate(coords))

    for a, s in product(range(dim), (1, -1)):
        moved = [index(b, [(c + s) % L if i == a else c for i, c in enumerate(coords)])
                 for b in range(dim) for coords in product(range(L), repeat=dim)]
        assert edge_shift(L, dim, a, s) == moved


def spy_3d(monkeypatch, perturb=False):
    """The 3d families a report builds and every matrix it eliminates; with
    ``perturb``, block 2's first Z row also gets the lowest qubit outside it."""
    families, eliminated = [], []

    def build(L):
        fam = build_3d_triple(L)
        if perturb:
            rows = [list(r) for r in fam.blocks[2].hz.supports()]
            rows[0].append(min(set(range(fam.n)) - set(rows[0])))
            fam.blocks[2].hz = BinMatrix.from_supports(fam.n, rows)
        families.append(fam)
        return fam

    eliminate = BinMatrix._eliminate
    monkeypatch.setattr(report, "build_3d_triple", build)
    monkeypatch.setattr(BinMatrix, "_eliminate",
                        lambda self: eliminated.append(self) or eliminate(self))
    return families, eliminated


@pytest.mark.parametrize("L, pin", [(4, "report-3d-L4"), (12, "report-3d-L12")])
def test_3d_report_ranks_no_translate_block(monkeypatch, L, pin):
    from test_exports import BYTE_CONTRACT

    # block 2 is block 1 moved by e_0, so the codes section takes its k from
    # block 1 and no section eliminates block 2's hx or hz
    families, eliminated = spy_3d(monkeypatch)
    result = report.run_report("3d", L)
    (fam,) = families
    b1, b2 = fam.blocks[1:]
    assert not any(m is b2.hx or m is b2.hz for m in eliminated)
    assert any(m is b1.hx for m in eliminated) and any(m is b1.hz for m in eliminated)
    assert hashlib.sha256(report.report_json(result).encode()).hexdigest() == BYTE_CONTRACT[pin]


def test_3d_perturbed_block_is_ranked_on_its_own(monkeypatch):
    # negative control: block 2 is no translate of block 1, so it is ranked
    # by elimination and the report carries its own k, not block 1's
    families, eliminated = spy_3d(monkeypatch, perturb=True)
    result = report.run_report("3d", 4, sections={"codes"})
    (fam,) = families
    b2 = fam.blocks[2]
    assert not report._is_translate(b2, (report._row_set(fam.blocks[1].hx),
                                         report._row_set(fam.blocks[1].hz)), edge_shift(4, 3, 0))
    assert any(m is b2.hx for m in eliminated) and any(m is b2.hz for m in eliminated)
    own = Codeblock(2, b2.n, BinMatrix.from_supports(b2.n, b2.hx.supports()),
                    BinMatrix.from_supports(b2.n, b2.hz.supports())).k
    assert own == 2 != fam.blocks[1].k
    assert result.report["sections"]["codes"]["blocks"][2]["k"] == own
    assert result.report["sections"]["codes"]["status"] == "fail" and not result.ok


def moved_hz_entry(builder, block):
    """A builder whose family has ``block``'s first Z check with its first
    qubit moved to the lowest qubit outside it, and the families it built."""
    built = []

    def build(run):
        fam = builder(run.L)
        blk = fam.blocks[block]
        rows = [list(r) for r in blk.hz.supports()]
        rows[0][0] = min(set(range(blk.n)) - set(rows[0]))
        blk.hz = BinMatrix.from_supports(blk.n, rows)
        built.append(fam)
        return fam

    return build, built


@pytest.mark.parametrize("family, builder, L, block", [
    ("2d", build_2d_pair, 3, 0),
    ("2d", build_2d_pair, 3, 1),
    ("3d", build_3d_triple, 4, 0),
    ("3d", build_3d_triple, 4, 1),
    ("3d", build_3d_triple, 4, 2),
])
def test_warmup_non_css_block_fails_codes(monkeypatch, family, builder, L, block):
    # negative control for the warm-ups' CSS check: the moved entry breaks
    # commutation of that block alone, and the codes section says so; a 3d
    # block 2 that no longer matches block 1 (either of them moved) is ranked
    # and checked on its own, and block equivalence fails
    build, built = moved_hz_entry(builder, block)
    monkeypatch.setitem(report.FAMILIES, family, replace(report.FAMILIES[family], build=build))
    eliminate, eliminated = BinMatrix._eliminate, []
    monkeypatch.setattr(BinMatrix, "_eliminate",
                        lambda self: eliminated.append(self) or eliminate(self))
    result = report.run_report(family, L, sections={"codes"})
    (fam,) = built
    moved = fam.blocks[block]
    assert any(moved.hz.matmul(moved.hx.transpose()).weights())
    codes = result.report["sections"]["codes"]
    assert codes["status"] == "fail" and not result.ok
    assert [b["css"] for b in codes["blocks"]] == [b != block for b in range(len(fam.blocks))]
    if family == "3d":
        assert codes["block_equivalence"] is (block == 0)
        b2 = fam.blocks[2]
        assert any(m is b2.hz for m in eliminated) is (block != 0)
        if block != 0:
            own = Codeblock(2, b2.n, BinMatrix.from_supports(b2.n, b2.hx.supports()),
                            BinMatrix.from_supports(b2.n, b2.hz.supports())).k
            assert codes["blocks"][2]["k"] == own
    else:
        assert "block_equivalence" not in codes
        # the moved entry breaks the swap of block 0's and block 1's roles either way
        assert codes["role_swap"] is False


def test_2d_reversed_logicals_fail_transversal(monkeypatch):
    # block 1's logicals listed in reverse still form a valid basis, but the
    # CZ then couples logical i of block 0 with logical 1 - i of block 1: the
    # coupling support is no longer the expected identity pairing
    bases = []

    def build(family):
        basis = build_logicals(family)
        for ops in (basis.x_ops, basis.z_ops):
            ops[1] = BinMatrix.from_supports(family.n, list(ops[1].supports())[::-1])
        bases.append((family, basis))
        return basis

    monkeypatch.setattr(report, "build_logicals", build)
    result = report.run_report("2d", 2)
    ((fam, basis),) = bases
    assert verify_logical_basis(fam, basis)[0]
    transversal = result.report["sections"]["transversal"]
    assert all(c["passed"] for c in transversal["conditions"])
    assert transversal["coupling_tensor_nonzero"] == [[0, 1], [1, 0]]
    assert transversal["status"] == "fail" and not result.ok


def test_3d_odd_l_rejected():
    with pytest.raises(ValueError):
        build_3d_triple(3)


def test_3d_conditions(triple3d):
    basis = build_logicals(triple3d)
    assert verify_logical_basis(triple3d, basis)[0]
    rep = check_ccz_conditions(triple3d, basis)
    assert rep.all_even_pass
    assert set(rep.extras["triple_intersection_weights"]) <= {0, 2}
    assert rep.tensor_support() == sorted(ALL_DISTINCT_TRIPLES)


def test_3d_bad_coloring_fails():
    # stripes instead of a checkerboard put same-color cubes face to face
    n, rows = reference_3d(2, stripes)
    blocks = [Codeblock(b, n, BinMatrix.from_supports(n, hx), BinMatrix.from_supports(n, hz))
              for b, (hx, hz) in enumerate(rows)]
    fam = CodeFamily("3d", 2, blocks, range(n))
    basis = build_logicals(fam)
    rep = check_ccz_conditions(fam, basis)
    hist = set(rep.extras["triple_intersection_weights"])
    assert not (rep.all_even_pass and hist <= {0, 2})


def test_3d_diagonal_of_tensor_is_even(triple3d):
    basis = build_logicals(triple3d)
    rep = check_ccz_conditions(triple3d, basis)
    for i in range(3):
        assert rep.tensor[(i, i, i)] == 0


def predicate_3d_logicals(family, comb_step=1):
    """The 3d logicals by scanning every edge label through a predicate; the
    reference for the coordinate-range builder. ``comb_step`` picks the axis
    of the comb edges relative to the logical's direction (1 is the basis)."""
    qidx = label_index(edges_3d(family.L))
    ax_i = {"x": 0, "y": 1, "z": 2}

    def m(pred):
        return [i for q, i in qidx.items() if pred(q)]

    def parallel_plane(d):
        return m(lambda e: e[0] == d and e[1 + ax_i[d]] == 0)

    def line(d):
        return m(lambda e: e[0] == d and all(e[1 + i] == 0 for i in range(3) if i != ax_i[d]))

    def in_plane(d):
        return m(lambda e: e[0] != d and e[1 + ax_i[d]] == 0)

    def comb(d):
        other = "xyz"[(ax_i[d] + comb_step) % 3]
        return m(lambda e: e[0] == other
                 and all(e[1 + i] == 0 for i in range(3) if i != ax_i[d]))

    dirs = "xyz"
    x_ops = [[parallel_plane(d) for d in dirs],
             [in_plane(d) for d in dirs],
             [in_plane(d) for d in dirs]]
    z_ops = [[line(d) for d in dirs],
             [comb(d) for d in dirs],
             [comb(d) for d in dirs]]
    return x_ops, z_ops


@pytest.mark.parametrize("L", [2, 4, 12])
def test_3d_logicals_match_predicate_reference(L):
    fam = build_3d_triple(L)
    basis = build_logicals(fam)
    x_ops, z_ops = ([[list(s) for s in m.supports()] for m in ops]
                    for ops in (basis.x_ops, basis.z_ops))
    assert (x_ops, z_ops) == predicate_3d_logicals(fam)
    assert basis.labels == ["x", "y", "z"]
    # negative control: combs of edges along the wrong axis differ
    _, wrong_z = predicate_3d_logicals(fam, comb_step=2)
    for block in (1, 2):
        assert all(a != b for a, b in zip(z_ops[block], wrong_z[block]))
