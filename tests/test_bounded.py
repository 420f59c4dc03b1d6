from dataclasses import replace
from functools import reduce
from operator import xor

import pytest

from octaplex.binalg import BinMatrix, LowbitBasis, mask_from_support
from octaplex.codes import (
    _mask_order,
    bounded_boundary_coordinate_count,
    build_bounded_family,
    star_triangles,
)
from octaplex.logicals import verify_logical_basis
from octaplex.report import FAMILIES, run_report
from octaplex.transversal import check_cccz_conditions


@pytest.fixture(scope="module")
def bounded3():
    return build_bounded_family(3)


def test_qubit_count(bounded2):
    L = 2
    assert bounded2.n == 8 * L**4 + (2 * L - 1) ** 4 == 209


def test_k_is_one(bounded2):
    assert [blk.k for blk in bounded2.blocks] == [1, 1, 1, 1]


def test_css(bounded2):
    for blk in bounded2.blocks:
        assert blk.css_commutes()


def test_x_weights_and_formula(bounded2):
    for b, blk in enumerate(bounded2.blocks):
        assert set(blk.x_weights()) == {24, 15, 10, 7}
        for center, row in zip(blk.meta["x_centers"], blk.hx.rows):
            n_boundary = bounded_boundary_coordinate_count(center, b, 2)
            assert row.bit_count() == 8 - n_boundary + 16 // 2**n_boundary


def test_triangle_z_weights(bounded2):
    for blk in bounded2.blocks:
        assert set(blk.meta["triangle_weights"]) == {2, 3}
        assert blk.meta["triangle_generators"] > 0
        # boundary triangles of weight 2 exist
        weights = [r.bit_count() for r in blk.hz.rows[: blk.meta["triangle_generators"]]]
        assert 2 in weights and 3 in weights


def test_logicals_valid(bounded2, bounded_basis2):
    assert verify_logical_basis(bounded2, bounded_basis2)[0]
    for b in range(4):
        assert bounded_basis2.pairing(b) == [[1]]


def test_rough_axes_distinct(bounded2):
    axes = [blk.meta["rough_axis"] for blk in bounded2.blocks]
    assert axes == ["w", "z", "y", "x"]


def test_cccz_single_action(bounded2, bounded_basis2):
    rep = check_cccz_conditions(bounded2, bounded_basis2)
    assert rep.all_even_pass
    assert rep.extras["single_cccz"]
    assert rep.tensor_support() == [(0, 0, 0, 0)]


def test_logical_string_weights(bounded2, bounded_basis2):
    L = 2
    for b in range(4):
        assert bounded_basis2.z_ops[b].weights()[0] == L
        assert bounded_basis2.x_ops[b].weights()[0] == 2 * L**3 + (2 * L - 1) ** 3


def test_small_l_rejected():
    with pytest.raises(ValueError):
        build_bounded_family(1)


def test_blocks_share_qubits(bounded2):
    n = bounded2.n
    for blk in bounded2.blocks:
        assert blk.n == n
        assert all(r.bit_length() <= n for r in blk.hx.rows)


def test_logical_x_commutes_with_all_z(bounded2, bounded_basis2):
    for b, blk in enumerate(bounded2.blocks):
        x = set(bounded_basis2.x_ops[b].support(0))
        assert all(len(x & set(z)) % 2 == 0 for z in blk.hz.supports())


# ---------------------------------------------------------------------------
# the completion layer against the sequential construction


def reference_completion(block):
    """The kept triangles inserted one by one in ascending mask order, then
    each kernel vector of hx + logical X; the residues that grow the span."""
    kept = sorted(block.hz.rows[: block.meta["triangle_generators"]])
    constraint = BinMatrix([*block.hx.rows, mask_from_support(block.meta["logical_x"])], block.n)
    span = LowbitBasis()
    for row in kept:
        span.insert(row)
    residues = (span.insert(v) for v in constraint.kernel_basis())
    return [r for r in residues if r]


def assert_completion_matches_reference(family):
    for blk in family.blocks:
        completion = blk.hz.rows[blk.meta["triangle_generators"]:]
        assert len(completion) == blk.meta["completion_generators"]
        assert completion == reference_completion(blk)


def test_completion_matches_sequential_reference(bounded2):
    assert [blk.meta["completion_generators"] for blk in bounded2.blocks] == [36] * 4
    assert_completion_matches_reference(bounded2)


@pytest.mark.slow
def test_completion_matches_sequential_reference_l3():
    assert_completion_matches_reference(build_bounded_family(3))


# ---------------------------------------------------------------------------
# hz's rank from the completion pass, and the one-pass kept filter


def constraint_of(block):
    """hx with the logical X appended: the rows every Z check must commute with."""
    return BinMatrix.from_supports(block.n, [*block.hx.supports(), block.meta["logical_x"]])


def reference_kept(family, block):
    """The triangles of weight 2-3 in mask order, each kept when the XOR of
    its qubits' constraint-row masks, read from the column index, is 0."""
    triangles = sorted({s for _, s in star_triangles(family.qubit_labels, drops=range(4))},
                       key=_mask_order)
    rows_of = [mask_from_support(c) for c in constraint_of(block).transpose().supports()]
    return [s for s in triangles
            if 2 <= len(s) <= 3 and not reduce(xor, map(rows_of.__getitem__, s))]


def assert_hz_rank_matches_fresh_elimination(family):
    for blk in family.blocks:
        assert blk.hz._basis is None
        assert blk.hz.rank() == BinMatrix.from_supports(blk.n, list(blk.hz.supports())).rank()


def test_hz_rank_matches_fresh_elimination(bounded2):
    assert_hz_rank_matches_fresh_elimination(bounded2)


@pytest.mark.slow
def test_hz_rank_matches_fresh_elimination_l3(bounded3):
    assert_hz_rank_matches_fresh_elimination(bounded3)


def test_completion_ignores_a_repeated_kernel_vector(bounded2):
    # Negative control: a second copy of each kernel vector reduces to 0
    # against a span that already holds the first, so it appends nothing.
    for blk in bounded2.blocks:
        kept = list(blk.hz.supports())[: blk.meta["triangle_generators"]]
        kernel = constraint_of(blk).kernel_basis()
        once = BinMatrix.from_supports(blk.n, kept).completed(kernel)
        twice = BinMatrix.from_supports(blk.n, kept).completed(kernel + kernel)
        assert twice.rows == once.rows == blk.hz.rows
        assert twice.rank() == once.rank() == blk.hz.rank()


@pytest.mark.parametrize("L", [2, 3])
def test_kept_triangles_match_per_triangle_reference(L, bounded2, bounded3):
    family = {2: bounded2, 3: bounded3}[L]
    for blk in family.blocks:
        kept = [tuple(s) for s in blk.hz.supports()][: blk.meta["triangle_generators"]]
        assert kept == reference_kept(family, blk)


def test_bounded_report_eliminates_no_z_side(monkeypatch):
    # Per block: the constraint's kernel basis, the kept triangles'
    # completion pass and hx's rank; hz's rank is the completion's.
    eliminate, eliminated, built = BinMatrix._eliminate, [], []

    def spy(m):
        eliminated.append(m)
        return eliminate(m)

    monkeypatch.setattr(BinMatrix, "_eliminate", spy)
    monkeypatch.setitem(FAMILIES, "octaplex-bounded", replace(
        FAMILIES["octaplex-bounded"],
        build=lambda run: built.append(build_bounded_family(run.L)) or built[0]))
    assert run_report("octaplex-bounded", 3).ok
    assert len(eliminated) == 12
    ids = {id(m) for m in eliminated}
    for blk in built[0].blocks:
        assert id(blk.hx) in ids and id(blk.hz) not in ids
        assert blk.hz._basis is None


def test_bounded_report_builds_no_hz_column_index(monkeypatch):
    # the CSS check reads hx's column index instead of building hz's, about
    # four times larger (212 against about 880 entries per block at L=2)
    built = []
    monkeypatch.setitem(FAMILIES, "octaplex-bounded", replace(
        FAMILIES["octaplex-bounded"],
        build=lambda run: built.append(build_bounded_family(run.L)) or built[0]))
    result = run_report("octaplex-bounded", 2)
    assert result.ok
    assert [b["css"] for b in result.report["sections"]["codes"]["blocks"]] == [True] * 4
    for blk in built[0].blocks:
        assert blk.hz._t is None
        assert blk.hx._t is not None
