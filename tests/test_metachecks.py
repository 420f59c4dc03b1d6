import hashlib
from dataclasses import replace
from itertools import combinations

import pytest

import octaplex.codes as codes
import octaplex.report as report
from octaplex.binalg import BinMatrix, mask_from_support
from octaplex.codes import build_family
from octaplex.lattice import AXES, build_octaplex
from octaplex.metachecks import (
    build_ladder,
    single_shot_repair_demo,
    verify_counting,
    verify_global_constraints,
)
from octaplex.report import Fault, report_json, run_report


def test_matrix_shapes(ladder2):
    assert ladder2.m1.shape == (768, 1024)
    assert ladder2.m0.shape == (96, 768)
    assert all(r.bit_count() == 4 for r in ladder2.m1.rows)
    assert all(r.bit_count() == 16 for r in ladder2.m0.rows)


def test_block0_and_ladder_are_the_boundary_maps(cx2, family2, ladder2):
    # hx0 = ∂4, hz0 = ∂3ᵀ, m1 = ∂2ᵀ, m0 = ∂1ᵀ: the complex's own objects
    assert family2.complex is cx2 and ladder2.cx is cx2
    block0 = family2.blocks[0]
    assert block0.hx is cx2.boundary[4]
    assert block0.hz.transpose() is cx2.boundary[3]
    assert ladder2.hx is block0.hx and ladder2.hz is block0.hz
    assert ladder2.m1.transpose() is cx2.boundary[2]
    assert ladder2.m0.transpose() is cx2.boundary[1]
    assert build_ladder(cx2).m1 is ladder2.m1


def test_m0_kernel_dimension(ladder2):
    # 768 edges minus rank 95 leaves a 673-dimensional kernel
    assert len(ladder2.m0.kernel_basis()) == 768 - 95


def test_chain_conditions(ladder2):
    assert not any(ladder2.m1.matmul(ladder2.hz).weights())
    assert not any(ladder2.m0.matmul(ladder2.m1).weights())


def test_counting_l2(ladder2):
    rep = verify_counting(ladder2)
    assert rep["passed"]
    assert rep["ranks"] == {"m0": 95, "m1": 669, "hz": 349, "hx": 31}
    assert rep["k"] == 4
    assert rep["total_independent_generators"] == 24 * 2**4 - 4 == 380


@pytest.mark.slow
def test_counting_l3(family3):
    ladder = build_ladder(family3.complex)
    rep = verify_counting(ladder)
    assert rep["passed"]
    assert rep["ranks"] == {"m0": 485, "m1": 3399, "hz": 1779, "hx": 161}
    assert rep["k"] == 4
    glob = verify_global_constraints(ladder)
    assert glob["passed"]


def test_global_constraints(ladder2):
    rep = verify_global_constraints(ladder2)
    assert rep["passed"]
    assert rep["face_planes_rank_gain"] == 6
    assert rep["edge_hyperplanes_rank_gain"] == 4
    assert rep["m0_rank_deficit"] == 1
    assert rep["hx_rank_deficit"] == 1


def test_face_plane_sizes(ladder2):
    L = 2
    for g in ladder2.globals2.values():
        assert len(g) == 4 * L**2
    for g in ladder2.globals1.values():
        assert len(g) == 12 * L**3


def face_plane_reference(cx, ax1, ax2):
    """Every face, kept by the residue test: value 1 on the other two axes,
    and (ax1, ax2) on the integer and quarter sublattices in either order."""
    o1, o2 = (i for i in range(4) if i not in (ax1, ax2))
    return [i for i, f in enumerate(cx.cells[2]) if f[o1] == f[o2] == 1
            and (f[ax1] % 4 == 0 and f[ax2] % 2 or f[ax1] % 2 and f[ax2] % 4 == 0)]


@pytest.mark.parametrize("L", [2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_globals_equal_the_predicate_scans(L):
    # the whole-grid scans are the oracle for the coordinate lookups, in
    # content and in order, which the peeled stacks inherit
    cx = build_octaplex(L)
    ladder = build_ladder(cx)
    planes = {(AXES[i], AXES[j]): face_plane_reference(cx, i, j)
              for i, j in combinations(range(4), 2)}
    hyperplanes = {AXES[a]: [i for i, e in enumerate(cx.cells[1]) if e[a] == 1] for a in range(4)}
    assert list(ladder.globals2.items()) == list(planes.items())
    assert list(ladder.globals1.items()) == list(hyperplanes.items())
    assert list(ladder.global0) == list(range(len(cx.cells[0])))
    assert list(ladder.globalX) == list(range(len(cx.cells[4])))


def test_rank_with_planes_reaches_dependency_dimension(ladder2):
    L = 2
    extra = [mask_from_support(g) for g in ladder2.globals2.values()]
    total = ladder2.m1.rank() + ladder2.m1.rank_increase(extra)
    assert total == 42 * L**4 + 3  # 675: the full dependency space of hz rows


def test_single_flip_demo(ladder2):
    demo = single_shot_repair_demo(ladder2, {0})
    assert demo["violated_per_flip"] == 3          # a triangle has three edges
    assert demo["edge_metacheck_row_weight"] == 4  # an edge lies in four faces
    assert demo["face_boundary_edge_count"] == 3
    assert demo["identified_face"] == 0


def test_empty_flip(ladder2):
    demo = single_shot_repair_demo(ladder2, set())
    assert demo["violated_edges"] == []
    assert demo["identified_face"] is None


def test_two_flips_symmetric_difference(ladder2):
    a = single_shot_repair_demo(ladder2, {0})["violated_edges"]
    b = single_shot_repair_demo(ladder2, {1})["violated_edges"]
    both = single_shot_repair_demo(ladder2, {0, 1})["violated_edges"]
    assert set(both) == set(a) ^ set(b)


def test_unique_identification_over_sample(ladder2):
    for f in range(0, 1024, 37):
        demo = single_shot_repair_demo(ladder2, {f})
        assert demo["identified_face"] == f


@pytest.mark.parametrize("pos", range(3))
def test_flip_missing_from_one_edge_metacheck_is_not_identified(ladder2, pos):
    # negative control: drop face f from the metacheck of one of its edges;
    # the flip {f} then violates two edges, and no face has that boundary
    f = 37
    e = ladder2.cx.boundary[2].support(f)[pos]
    m1 = BinMatrix.from_supports(ladder2.m1.cols, (
        [x for x in row if (i, x) != (e, f)] for i, row in enumerate(ladder2.m1.supports())))
    demo = single_shot_repair_demo(replace(ladder2, m1=m1), {f})
    assert demo["violated_per_flip"] == 2
    assert demo["identified_face"] is None


def test_tanner_export(ladder2):
    # qubits, Z checks, edge metachecks and vertex metachecks, from the shapes
    assert ladder2.hz.shape == (1024, 384)
    assert ladder2.m1.shape == (768, 1024)
    assert ladder2.m0.shape == (96, 768)
    assert len(ladder2.globals2) == 6
    assert len(ladder2.globals1) == 4


def assert_ledger_matches_elimination(ladder, L):
    # elimination is the oracle: every certified rank equals BinMatrix.rank()
    ranks = ladder.ledger.ranks
    for name in ("m0", "m1", "hz", "hx"):
        assert ranks[name] == getattr(ladder, name).rank()
    stack = lambda m, g: m.stacked(g.values()).rank()
    assert ranks["m0+edges"] == stack(ladder.m0, ladder.globals1) == 6 * L**4 + 3
    assert ranks["m1+faces"] == stack(ladder.m1, ladder.globals2) == 42 * L**4 + 3
    assert ranks["vertices"] == ranks["x"] == 1
    assert ladder.ledger.fallbacks == []
    assert all(ladder.ledger.zero.values())


def test_certified_ranks_equal_elimination_l2(ladder2):
    assert_ledger_matches_elimination(ladder2, 2)


def test_certified_ranks_equal_elimination_l3(family3):
    assert_ledger_matches_elimination(build_ladder(family3.complex), 3)


@pytest.mark.slow
def test_certified_ranks_equal_elimination_l4():
    family = build_family(build_octaplex(4))
    assert_ledger_matches_elimination(build_ladder(family.complex), 4)


def test_dropped_edge_hyperplane_falls_back_to_elimination(ladder2):
    # three hyperplanes: the zero products hold, but peel(m1ᵀ) + peel([m0; three
    # hyperplanes]) is one short of the 768 edges, so the pair is eliminated
    short = replace(ladder2, globals1=dict(list(ladder2.globals1.items())[1:]))
    ledger = short.ledger
    assert ledger.zero["edges"] and ledger.zero["m0_m1"]
    assert ledger.fallbacks == ["m1", "m0+edges"]
    assert ledger.ranks["m1"] == ladder2.m1.rank() == 669
    assert ledger.ranks["m0+edges"] == ladder2.m0.rank() + 3
    glob = verify_global_constraints(short)
    assert glob["edge_hyperplanes_rank_gain"] == 3 and not glob["passed"]


def test_flipped_vertex_bit_falls_back_to_elimination(ladder2):
    # the all-vertices row minus vertex 0 no longer annihilates m0
    flipped = replace(ladder2, global0=ladder2.global0[1:])
    ledger = flipped.ledger
    assert not ledger.zero["vertices"]
    assert ledger.fallbacks == ["m0", "vertices"]
    assert ledger.ranks["m0"] == ladder2.m0.rank() == 95
    assert not verify_global_constraints(flipped)["passed"]
    assert verify_counting(flipped)["ranks"]["m0"] == 95


def test_uncorrupted_ledger_runs_no_fallback(ladder2, monkeypatch):
    calls = []
    monkeypatch.setattr(BinMatrix, "rank", lambda self: calls.append(self.shape))
    ledger = replace(ladder2).ledger
    assert ledger.fallbacks == [] and calls == []


def test_dropped_m1_entry_falls_back_on_both_pairs(ladder2):
    rows = [list(s) for s in ladder2.m1.supports()]
    rows[5].pop(0)
    ledger = replace(ladder2, m1=BinMatrix.from_supports(ladder2.m1.cols, rows)).ledger
    assert not ledger.zero["m1_hz"] and not ledger.zero["m0_m1"]
    assert ledger.fallbacks == ["m1", "m0+edges", "hz", "m1+faces"]
    assert ledger.ranks["hz"] == ladder2.hz.rank()


def spy_products(monkeypatch):
    """The complexes a report builds, and the (self, other) pairs whose
    product ``product_is_zero`` computes rather than reads: computing it
    maps self's rows."""
    built, computed, open_calls = [], [], []
    build, product, mapped = report.build_octaplex, BinMatrix.product_is_zero, BinMatrix.mapped_rows

    def product_spy(self, other):
        open_calls.append((self, other))
        try:
            return product(self, other)
        finally:
            open_calls.pop()

    def mapped_spy(self, table):
        if open_calls and open_calls[-1][0] is self:
            computed.append(open_calls[-1])
        return mapped(self, table)

    monkeypatch.setattr(report, "build_octaplex", lambda L: built.append(build(L)) or built[-1])
    monkeypatch.setattr(BinMatrix, "product_is_zero", product_spy)
    monkeypatch.setattr(BinMatrix, "mapped_rows", mapped_spy)
    return built, computed


def chain_pairs(cx, ds):
    """The pairs (∂d, ∂(d-1)) as object ids, sorted."""
    return sorted((id(cx.boundary[d]), id(cx.boundary[d - 1])) for d in ds)


@pytest.mark.parametrize("sections, ds", [
    (None, (2, 3, 4)),
    ({"lattice"}, (2, 3, 4)),
    ({"codes"}, (2, 3, 4)),        # block 0's CSS is ∂4·∂3; the ledger reads the other two
    ({"metachecks"}, (2, 3)),
])
def test_each_chain_product_is_computed_once(monkeypatch, sections, ds):
    # ∂∘∂ in lattice, block 0's CSS check in codes and the ledger's chain
    # conditions are the same three products; whichever section runs first
    # computes one, and the others read it
    built, computed = spy_products(monkeypatch)
    assert run_report("octaplex", 2, sections=sections).ok
    [cx] = built
    assert sorted((id(a), id(b)) for a, b in computed) == chain_pairs(cx, ds)


def test_dropped_m1_entry_fails_only_metachecks(monkeypatch):
    # codes and distance read block 0's k from the faulted ladder's ledger;
    # its fallback ranks are exact, so only the metachecks section fails
    built, computed = spy_products(monkeypatch)
    result = run_report("octaplex", 2, fault=Fault("drop-m1-entry", seed=3))
    sections = result.report["sections"]
    assert {n: s["status"] for n, s in sections.items() if s["status"] != "pass"} == {
        "metachecks": "fail"}
    assert [b["k"] for b in sections["codes"]["blocks"]] == [4, 4, 4, 4]
    assert sections["metachecks"]["counting"]["k"] == 4
    # lattice computes the complex's three products; the faulted m1 is a new
    # matrix, so the ledger computes its two chain products afresh
    [cx] = built
    B, fault = cx.boundary, result.report["fault"]
    assert sorted((id(a), id(b)) for a, b in computed[:3]) == chain_pairs(cx, (2, 3, 4))
    (b3, faulted), (faulted_too, b1) = computed[3:]
    assert b3 is B[3] and b1 is B[1] and faulted_too is faulted and faulted is not B[2]

    def entries(m):
        return {(i, j) for i, s in enumerate(m.supports()) for j in s}

    # ∂2 without the dropped (face, edge) entry
    assert entries(B[2]) - entries(faulted) == {(fault["face"], fault["edge"])}
    assert entries(faulted) <= entries(B[2])


@pytest.mark.slow
def test_periodic_report_eliminates_no_ledger_matrix(monkeypatch):
    from test_exports import BYTE_CONTRACT_SLOW

    shapes = []
    eliminate = BinMatrix._eliminate
    monkeypatch.setattr(BinMatrix, "_eliminate",
                        lambda self: shapes.append(self.shape) or eliminate(self))
    result = run_report("octaplex", 3)
    # the ledger ranks every ledger matrix and gives block 0's k, and the
    # distance section tests equivalence by pairing: nothing is eliminated
    assert shapes == []
    digest = hashlib.sha256(report_json(result).encode()).hexdigest()
    assert digest == BYTE_CONTRACT_SLOW["report-L3"]


@pytest.mark.parametrize("sections, digest", [
    ({"metachecks"}, "fb14b836c5c9aac19d6f82d1e3855ab9f43e37184e56bd11265cca5942717667"),
    ({"lattice", "metachecks"}, "5b935cd941ae6c42afaab15ed8ea2cb95f6ef930370cbbfb70f59e21ce60dfef"),
    ({"codes"}, None),  # control: the codes section does build the family
], ids=["metachecks", "lattice-metachecks", "codes"])
def test_ladder_sections_build_no_code_family(monkeypatch, sections, digest):
    # the ladder is the complex's: a run of lattice and metachecks alone
    # builds no block, and its bytes are those of a run that built them all
    calls = []
    build = codes.build_family
    spy = lambda cx: calls.append(cx) or build(cx)  # noqa: E731
    monkeypatch.setattr(codes, "build_family", spy)
    monkeypatch.setattr(report, "build_family", spy)
    result = run_report("octaplex", 2, sections=sections)
    assert result.ok
    if digest is None:
        assert len(calls) == 1 and "codes_build" in result.timings
        return
    assert calls == [] and "codes_build" not in result.timings
    assert hashlib.sha256(report_json(result).encode()).hexdigest() == digest
