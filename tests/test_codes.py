import copy
from functools import cache
from itertools import product

import pytest

import octaplex.codes as codes
from octaplex.binalg import BinMatrix, mask_from_support, support_from_mask
from octaplex.codes import (
    _BLOCK_BY_RESIDUES,
    Codeblock,
    build_codeblock0,
    build_colored_codeblock,
    shifted_qubit_permutation,
    star_triangles,
)
from octaplex.lattice import (
    FOURCELL_TYPES,
    QUBIT_TYPES,
    Cells,
    CellType,
    Color,
    build_octaplex,
    star24,
    try_classify,
    vertex_color,
)
from octaplex.report import SECTIONS, _Run


def test_block0_shape(cx2, family2):
    blk = family2.blocks[0]
    assert blk.n == 384
    assert len(blk.hx.rows) == 32
    assert len(blk.hz.rows) == 1024
    assert blk.x_weights() == [24]
    assert blk.z_weights() == [3]


def test_block0_css(family2):
    assert family2.blocks[0].css_commutes()


def test_colored_blocks(family2):
    for blk in family2.blocks[1:]:
        assert len(blk.hx.rows) == 32
        assert len(blk.hz.rows) == 1024
        assert blk.x_weights() == [24]
        assert blk.z_weights() == [3]
        assert blk.css_commutes()


def test_k_is_four_all_blocks(family2):
    assert [blk.k for blk in family2.blocks] == [4, 4, 4, 4]


def test_rank_identities(family2):
    L = family2.L
    for blk in family2.blocks:
        assert blk.hx.rank() == 2 * L**4 - 1
        assert blk.hz.rank() == 22 * L**4 - 3


def test_sum_of_x_rows_vanishes(family2):
    for blk in family2.blocks:
        acc = 0
        for r in blk.hx.rows:
            acc ^= r
        assert acc == 0


@pytest.mark.parametrize("corruption", ["drop-z-row", "move-z-entry"])
def test_codes_section_ranks_a_non_translate_block(family2, monkeypatch, corruption):
    # Negative control for the rank-once and CSS-once shortcuts: block 2
    # without its first Z check, or with that check's first qubit moved to
    # the lowest qubit outside it (so that block 2 is no longer CSS), is no
    # translate of block 0, so the section fails and reports block 2's own
    # rank and CSS result. Block 0's k is the metacheck ledger's and its CSS
    # result the lattice's ∂4·∂3 = 0, and the verified translates share
    # both, so none of them is ranked or checked.
    family = copy.deepcopy(family2)
    blk2 = family.blocks[2]
    rows = [list(s) for s in blk2.hz.supports()]
    if corruption == "drop-z-row":
        del rows[0]
    else:
        rows[0][0] = next(q for q in range(blk2.n) if q not in rows[0])
    blk2.hz = BinMatrix.from_supports(blk2.n, rows)
    css2 = not any(blk2.hx.matmul(blk2.hz.transpose()).weights())
    assert css2 is (corruption == "drop-z-row")
    rank, css_commutes = BinMatrix.rank, Codeblock.css_commutes
    ranked, checked = [], []

    def spy(m):
        ranked.append(m)
        return rank(m)

    monkeypatch.setattr(BinMatrix, "rank", spy)
    monkeypatch.setattr(Codeblock, "css_commutes",
                        lambda blk: checked.append(blk.label) or css_commutes(blk))
    run = _Run("octaplex", family.L, None, {})
    run.family = family
    passed, data, _ = SECTIONS["octaplex"]["codes"](run)
    assert not passed
    assert data["block_equivalence"] is False
    assert data["blocks"][2]["k"] == blk2.n - rank(blk2.hx) - rank(blk2.hz)
    assert data["blocks"][2]["css"] is css2
    assert [b["css"] for b in data["blocks"]] == [True, True, css2, True]
    assert checked == [2]
    cx = family.complex
    assert cx.boundary[4]._zero == {cx.boundary[3]: True}
    ranked_ids = {id(m) for m in ranked}
    for b, blk in enumerate(family.blocks):
        own = {id(blk.hx), id(blk.hz)}
        assert ranked_ids & own == (own if b == 2 else set()), b


def block_of(c):
    """The block whose X checks sit on cell c, by its residue class; None
    for a cell that carries none."""
    return _BLOCK_BY_RESIDUES.get(tuple(v & 3 for v in c))


def test_block_table_matches_classification():
    # the torus and the bounded box, whose stars reach past 4L, at L=2
    def block(c):
        t = try_classify(c)
        if t in FOURCELL_TYPES:
            return 0
        return vertex_color(c) if t is CellType.V0 else None

    for c in product(range(4 * 2 + 10), repeat=4):
        assert block_of(c) == block(c), c


def test_k_is_four_at_l3(family3):
    assert family3.n == 24 * 3**4
    assert [blk.k for blk in family3.blocks] == [4, 4, 4, 4]
    assert family3.blocks[0].x_weights() == [24]
    assert family3.blocks[0].z_weights() == [3]


def test_z_dedup_stable(family2):
    regen = build_colored_codeblock(family2.complex, Color.RED)
    assert regen.hz.rows == family2.blocks[1].hz.rows


def test_block0_regen_matches(family2):
    regen = build_codeblock0(family2.complex)
    assert regen.hx.rows == family2.blocks[0].hx.rows
    assert regen.hz.rows == family2.blocks[0].hz.rows


def test_block_equivalence_under_translation(family2):
    cx = family2.complex
    blk0 = family2.blocks[0]
    for b in (1, 2, 3):
        perm = shifted_qubit_permutation(cx, b)

        def permute(mask):
            out = 0
            i = 0
            while mask:
                if mask & 1:
                    out |= 1 << perm[i]
                mask >>= 1
                i += 1
            return out

        blk = family2.blocks[b]
        assert {permute(r) for r in blk.hx.rows} == set(blk0.hx.rows)
        assert {permute(r) for r in blk.hz.rows} == set(blk0.hz.rows)


def test_colored_z_rows_are_block0_triangles_shifted(family2):
    # independent oracle for the triple-intersection construction: the red
    # block's Z set must be the translated image of block 0's 2-cell set
    cx = family2.complex
    perm = shifted_qubit_permutation(cx, 1)
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i

    def pull_back(mask):
        out = 0
        i = 0
        while mask:
            if mask & 1:
                out |= 1 << inv[i]
            mask >>= 1
            i += 1
        return out

    shifted = {pull_back(r) for r in family2.blocks[0].hz.rows}
    assert shifted == set(family2.blocks[1].hz.rows)


def test_qubit_index_built_once(family2, bounded2):
    # both octaplex families look qubits up in their one cell numbering
    assert family2.qubit_labels is family2.complex.cells[3]
    for family in (family2, bounded2):
        labels = family.qubit_labels
        assert isinstance(labels, Cells)
        index = labels.index
        assert [index(q) for q in labels] == list(range(family.n))
        assert [labels[i] for i in range(family.n)] == list(labels)


def test_explicit_triangle_is_z_row(family2):
    # the triple intersection of the three colored vertices around
    # (1/2,1/2,1/2,w) is the weight-3 check on {(2,2,2,4w),(1,1,1,4w+-1)}
    qidx = family2.qubit_labels.index
    period = family2.complex.period
    for w4 in (0, 4):
        sup = sorted(
            qidx(c)
            for c in [(2, 2, 2, w4), (1, 1, 1, (w4 - 1) % period), (1, 1, 1, w4 + 1)]
        )
        mask = 0
        for i in sup:
            mask |= 1 << i
        assert mask in family2.blocks[0].hz.rows


def test_cross_block_css(family2, basis2):
    # every block's Z rows also commute with every other block's X rows'
    # triple structure indirectly; spot-check raw CSS within blocks at L=3
    blk = family2.blocks[2]
    for x in blk.hx.rows[:8]:
        for z in blk.hz.rows[::101]:
            assert (x & z).bit_count() % 2 == 0


@pytest.mark.parametrize("block", [1, 2, 3])
def test_colored_z_rows_are_all_triple_intersections(family2, block):
    # brute-force oracle for the per-qubit star-triangle enumerator: every
    # nonempty AND of one X row from each of the other three blocks
    others = [family2.blocks[b].hx.rows for b in range(4) if b != block]
    assert [len(rows) for rows in others] == [32, 32, 32]
    oracle = {a & b & c for a, b, c in product(*others)} - {0}
    hz = family2.blocks[block].hz.rows
    assert len(hz) == len(set(hz))
    assert set(hz) == oracle


def star_triangles_reference(qubits, drops):
    """The mask form of ``star_triangles``: each qubit's eight candidate
    triples per dropped block, their stars clipped to the qubits (through a
    dict of their own) and ANDed as n-bit masks, each nonempty intersection
    yielded from its lowest qubit."""
    period, qidx = qubits.period, {q: i for i, q in enumerate(qubits)}
    star = cache(lambda c: mask_from_support(qidx[q] for q in star24(c, period) if q in qidx))
    for q, i in qidx.items():
        low, groups = 1 << i, [[], [], [], []]
        for c in star24(q, period):
            block = block_of(c)
            if block is not None:
                groups[block].append(star(c))
        for drop in drops:
            for x, y, z in product(*(g for s, g in enumerate(groups) if s != drop)):
                m = x & y & z
                if m & -m == low:
                    yield drop, tuple(support_from_mask(m))


def torus_qubits(L):
    return build_octaplex(L).cells[3]


def box_qubits(L, pad=4):
    """The qubits of the box [2, 4L], kind 1, on the grid of period 4L + pad."""
    box = range(2, 4 * L + 1)
    kinds = bytes(all(v in box for v in c) and try_classify(c) in QUBIT_TYPES
                  for c in product(range(4 * L + pad), repeat=4))
    return Cells(4 * L + pad, kinds, 1)


@pytest.mark.parametrize("qubits, L", [
    # at L=2 the period is 8, so offsets of ±4 alias
    (torus_qubits, 2), (torus_qubits, 3),
    pytest.param(torus_qubits, 4, marks=pytest.mark.slow),
    (box_qubits, 2), (box_qubits, 3),
])
def test_star_triangles_match_mask_reference(qubits, L):
    cells = qubits(L)
    drops = (0, 1, 2, 3)
    found = set(star_triangles(cells, drops))
    assert found == set(star_triangles_reference(cells, drops))
    assert {len(s) for _, s in found} == ({3} if qubits is torus_qubits else {1, 2, 3})
    if qubits is box_qubits:
        # the bounded builder's grid, 4L + 2, where a point within 3 of the
        # box but off it wraps to 0, 1 or 4L + 1, numbers the same qubits
        tight = box_qubits(L, pad=2)
        assert list(tight) == list(cells)
        assert set(star_triangles(tight, drops)) == found


def test_star_triangles_miss_a_dropped_table_entry(monkeypatch):
    # negative control: one class's table without one triangle, one whose
    # partners both lie lexicographically above the qubit, so that the
    # qubit is its lowest member away from the wrap
    table = codes._triangle_table

    def short(residues, drops):
        partners, triangles = table(residues, drops)
        if residues != (1, 1, 1, 1):
            return partners, triangles
        gone = next(e for e in triangles if min(partners[e[1]], partners[e[2]]) > (0, 0, 0, 0))
        return partners, [e for e in triangles if e is not gone]

    cells = torus_qubits(2)
    monkeypatch.setattr(codes, "_triangle_table", short)
    found = set(star_triangles(cells, (1, 2, 3)))
    expected = set(star_triangles_reference(cells, (1, 2, 3)))
    assert found < expected
