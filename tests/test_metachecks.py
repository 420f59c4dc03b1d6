from dataclasses import replace

import pytest

from octaplex.binalg import BinMatrix
from octaplex.metachecks import (
    build_ladder,
    single_shot_repair_demo,
    tanner_graph_json,
    verify_counting,
    verify_global_constraints,
)


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
    assert build_ladder(cx2, block0).m1 is ladder2.m1


def test_m0_kernel_dimension(ladder2):
    # 768 edges minus rank 95 leaves a 673-dimensional kernel
    assert len(ladder2.m0.kernel_basis()) == 768 - 95


def test_chain_conditions(ladder2):
    assert ladder2.m1.matmul(ladder2.hz).is_zero()
    assert ladder2.m0.matmul(ladder2.m1).is_zero()


def test_counting_l2(ladder2):
    rep = verify_counting(ladder2, 2)
    assert rep.passed
    assert rep.ranks == {"m0": 95, "m1": 669, "hz": 349, "hx": 31}
    assert rep.k == 4
    assert rep.total_independent == 24 * 2**4 - 4 == 380


@pytest.mark.slow
def test_counting_l3(family3):
    ladder = build_ladder(family3.complex, family3.blocks[0])
    rep = verify_counting(ladder, 3)
    assert rep.passed
    assert rep.ranks == {"m0": 485, "m1": 3399, "hz": 1779, "hx": 161}
    assert rep.k == 4
    glob = verify_global_constraints(ladder)
    assert glob.passed


def test_global_constraints(ladder2):
    rep = verify_global_constraints(ladder2)
    assert rep.passed
    assert rep.face_planes_rank_gain == 6
    assert rep.edge_hyperplanes_rank_gain == 4
    assert rep.m0_rank_deficit == 1
    assert rep.hx_rank_deficit == 1


def test_face_plane_sizes(ladder2):
    L = 2
    for g in ladder2.globals2.values():
        assert g.bit_count() == 4 * L**2
    for g in ladder2.globals1.values():
        assert g.bit_count() == 12 * L**3


def test_rank_with_planes_reaches_dependency_dimension(ladder2):
    L = 2
    extra = list(ladder2.globals2.values())
    total = ladder2.m1.rank() + ladder2.m1.rank_increase(extra)
    assert total == 42 * L**4 + 3  # 675: the full dependency space of hz rows


def test_single_flip_demo(ladder2):
    demo = single_shot_repair_demo(ladder2, {0})
    assert demo.violated_per_flip == 3           # a triangle has three edges
    assert demo.edge_metacheck_row_weight == 4   # an edge lies in four faces
    assert demo.face_boundary_edge_count == 3
    assert demo.identified_face == 0


def test_empty_flip(ladder2):
    demo = single_shot_repair_demo(ladder2, set())
    assert demo.violated_edges == []
    assert demo.identified_face is None


def test_two_flips_symmetric_difference(ladder2):
    a = single_shot_repair_demo(ladder2, {0}).violated_edges
    b = single_shot_repair_demo(ladder2, {1}).violated_edges
    both = single_shot_repair_demo(ladder2, {0, 1}).violated_edges
    assert set(both) == set(a) ^ set(b)


def test_unique_identification_over_sample(ladder2):
    for f in range(0, 1024, 37):
        demo = single_shot_repair_demo(ladder2, {f})
        assert demo.identified_face == f


@pytest.mark.parametrize("pos", range(3))
def test_flip_missing_from_one_edge_metacheck_is_not_identified(ladder2, pos):
    # negative control: drop face f from the metacheck of one of its edges;
    # the flip {f} then violates two edges, and no face has that boundary
    f = 37
    e = ladder2.cx.boundary[2].support(f)[pos]
    m1 = BinMatrix.from_supports(ladder2.m1.cols, (
        [x for x in row if (i, x) != (e, f)] for i, row in enumerate(ladder2.m1.supports())))
    demo = single_shot_repair_demo(replace(ladder2, m1=m1), {f})
    assert demo.violated_per_flip == 2
    assert demo.identified_face is None


def test_tanner_export(ladder2):
    g = tanner_graph_json(ladder2)
    assert g["counts"] == {
        "qubits": 384, "z_checks": 1024,
        "edge_metachecks": 768, "vertex_metachecks": 96,
    }
    assert len(g["globals"]["face_planes"]) == 6
    assert len(g["globals"]["edge_hyperplanes"]) == 4
