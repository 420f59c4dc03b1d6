"""Acceptance gate: one test per criterion, exact tolerances, timed budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.

Two stated target values are refuted by the code as built: the four-quartet
coupling list and the d_X = 8L^3 distance. Their tests keep the names of the
stated claims and check the certified refutation instead. Each recomputes,
from octahedron coordinates, the geometric breakdown that decides the
measured value, asserts the measured value exactly, and asserts that the
report carries the stated value as a discrepancy record.
"""

import time

import pytest

from octaplex.codes import (
    SIGMA,
    bounded_boundary_coordinate_count,
    build_bounded_family,
    build_family,
    build_2d_pair,
    build_3d_triple,
)
from octaplex.lattice import (
    boundary_composition_is_zero,
    build_octaplex,
    euler_characteristic,
)
from octaplex.logicals import build_logicals, certify_distances, verify_logical_basis
from octaplex.metachecks import build_ladder, verify_counting, verify_global_constraints
from octaplex.report import Fault, run_octaplex_report, report_json
from octaplex.transversal import (
    ALL_DISTINCT_QUADRUPLES,
    ALL_DISTINCT_TRIPLES,
    STATED_QUARTETS,
    check_ccz_conditions,
    check_cz_conditions,
    check_cccz_conditions,
    sandwich_identity,
    targeted_gate_from_rounds,
)


def _line(num: int, name: str, ok: bool, elapsed: float | None = None) -> None:
    t = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{t}")


def _split_support(family, support) -> tuple[list[tuple], list[tuple]]:
    """Scaled coordinates of the octahedra in ``support``, split into
    quarter-type (all four coordinates odd) and half-type (all even)."""
    support = set(support)
    coords = sorted(map(family.qubit_labels.__getitem__, support))
    quarter = [c for c in coords if all(v % 2 for v in c)]
    half = [c for c in coords if not any(v % 2 for v in c)]
    assert len(quarter) + len(half) == len(coords)
    return quarter, half


@pytest.fixture(scope="module")
def periodic2():
    family = build_family(build_octaplex(2))
    basis = build_logicals(family)
    return family, basis


def test_criterion1_lattice_counts():
    t0 = time.monotonic()
    cx = build_octaplex(2)
    counts = [len(cx.cells[d]) for d in range(5)]
    ok = (
        counts == [96, 768, 1024, 384, 32]
        and euler_characteristic(cx) == 0
        and boundary_composition_is_zero(cx)
    )
    elapsed = time.monotonic() - t0
    _line(1, "lattice-counts", ok and elapsed < 5.0, elapsed)
    assert counts == [96, 768, 1024, 384, 32]
    assert euler_characteristic(cx) == 0
    assert boundary_composition_is_zero(cx)
    assert elapsed < 5.0


def test_criterion2_code_parameters():
    t0 = time.monotonic()
    for L in (2, 3):
        family = build_family(build_octaplex(L))
        for blk in family.blocks:
            assert blk.n == 24 * L**4
            assert blk.k == 4
            assert blk.x_weights() == [24]
            assert blk.z_weights() == [3]
    elapsed = time.monotonic() - t0
    _line(2, "code-parameters", elapsed < 30.0, elapsed)
    assert elapsed < 30.0


def test_criterion3_cccz_conditions(periodic2):
    family, basis = periodic2
    t0 = time.monotonic()
    rep = check_cccz_conditions(family, basis)
    elapsed = time.monotonic() - t0
    ok = rep.all_even_pass and rep.scanned >= 10**6 and elapsed < 60.0
    _line(3, "cccz-even-conditions", ok, elapsed)
    assert rep.all_even_pass, [c for c in rep.conditions if not c["passed"]]
    assert rep.scanned >= 10**6
    assert rep.extras["tensor_entries_are_permutations"]
    assert elapsed < 60.0


def test_criterion3_coupling_is_exactly_four_quartets(periodic2):
    """The name records the stated claim under test: the transversal CCCZ
    couples exactly the four ``STATED_QUARTETS``. The code refutes it.

    With all even-overlap conditions holding, the coupling tensor does not
    depend on the representatives. The quarter sheet of the direction-d
    logical X sits at coordinate 1 on axis d with odd free coordinates, so
    for any four distinct directions the quarter sheets meet in exactly
    (1,1,1,1). The integer and half sheets of block b sit at residues set
    by the axis SIGMA[b][d]; four of them meet only when that axis is one
    common c, i.e. the directions are column c of SIGMA, and then in the
    two points 2e_c and 2(1,1,1,1) - 2e_c. So every permutation overlaps in
    1 or 3 octahedra and couples; the stated quartets differ by an even two.
    """
    family, basis = periodic2
    rep = check_cccz_conditions(family, basis)
    measured = rep.tensor_support()
    columns = {tuple(SIGMA[b][c] for b in range(4)): c for c in range(4)}
    ok = (
        measured == sorted(ALL_DISTINCT_QUADRUPLES)
        and set(STATED_QUARTETS) < set(measured)
    )
    _line(3, "four-quartets-refuted", ok)
    assert measured == sorted(ALL_DISTINCT_QUADRUPLES)
    assert set(STATED_QUARTETS) < set(measured)
    assert set(columns) == set(STATED_QUARTETS)

    for q in ALL_DISTINCT_QUADRUPLES:
        common = set(basis.x_ops[0].support(q[0]))
        for b in (1, 2, 3):
            common &= set(basis.x_ops[b].support(q[b]))
        quarter, half = _split_support(family, common)
        assert quarter == [(1, 1, 1, 1)], (q, quarter)
        if q in columns:
            c = columns[q]
            expected_half = sorted(
                [tuple(2 * (i == c) for i in range(4)),
                 tuple(2 * (i != c) for i in range(4))]
            )
        else:
            expected_half = []
        assert half == expected_half, (q, half)
        assert (len(quarter) + len(half)) % 2 == 1

    result = run_octaplex_report(2, sections={"transversal"})
    assert result.ok
    assert result.report["sections"]["transversal"]["status"] == "pass"
    records = result.report["discrepancies"]
    assert [r["section"] for r in records] == ["transversal"]
    record = records[0]
    assert record["stated"] == [list(q) for q in sorted(STATED_QUARTETS)]
    assert record["measured"] == [list(q) for q in sorted(ALL_DISTINCT_QUADRUPLES)]


def test_criterion4_distances(periodic2):
    family, basis = periodic2
    t0 = time.monotonic()
    cert = certify_distances(family, basis, build_ladder(family.complex).k)
    elapsed = time.monotonic() - t0
    ok = (
        cert["dz"] == 2
        and cert["exhaustive_dz"] == 2
        and cert["disjoint_z_reps_per_direction"] >= 64
        and cert["dx_lower"] >= 64
        and elapsed < 60.0
    )
    _line(4, "distances", ok, elapsed)
    assert cert["dz"] == 2
    assert cert["exhaustive_dz"] == 2
    assert cert["disjoint_z_reps_per_direction"] >= 64  # 8 L^3 disjoint strings exist
    assert cert["dx_lower"] >= 64                       # the stated lower bound holds
    assert cert["dx_lower"] == cert["dx_upper"]         # certificate is tight
    assert elapsed < 60.0


def test_criterion4_dx_is_64(periodic2):
    """The name records the stated claim under test: d_X = 8L^3 (64 at L=2).
    The code refutes it and certifies d_X = 10L^3.

    A logical X in class e_d must cross every dual loop that winds once
    along d. The L^3 + L^3 axial loops and the (2L)^3 zigzag loops of
    ``disjoint_z_strings`` are pairwise disjoint and stabilizer-equivalent,
    so d_X >= 10L^3, and the three-sheet hyperplane reaches it. The stated
    8L^3 is the quarter sheet alone, (2L)^3 all-odd octahedra, which is no
    logical operator: it violates the Z checks.
    """
    family, basis = periodic2
    L = family.L
    cert = certify_distances(family, basis, build_ladder(family.complex).k)
    ok = cert["dx_lower"] == cert["dx_upper"] == 10 * L**3 and cert["dx_formula_discrepancy"]
    _line(4, "dx-64-refuted", ok)
    assert cert["dx_lower"] == cert["dx_upper"] == 10 * L**3 == 80
    assert cert["dx_stated_formula_8L3"] == 8 * L**3 == 64
    assert cert["dx_formula_discrepancy"]
    assert cert["disjoint_z_breakdown"] == {
        "half_sheet": L**3, "integer_sheet": L**3, "quarter_sheet": 8 * L**3
    }

    index = family.qubit_labels.index
    hz = family.blocks[0].hz
    for d in range(4):
        x = basis.x_ops[0].support(d)
        quarter, half = _split_support(family, x)
        assert len(quarter) == 8 * L**3 == 64
        assert len(half) == 2 * L**3 == 16
        assert all(c[d] == 1 for c in quarter)
        assert hz.syndrome(x) == set()
        quarter_part = list(map(index, quarter))
        assert hz.syndrome(quarter_part) != set(), d

    result = run_octaplex_report(2, sections={"distance"})
    assert result.ok
    assert result.report["sections"]["distance"]["status"] == "pass"
    records = result.report["discrepancies"]
    assert [r["section"] for r in records] == ["distance"]
    record = records[0]
    assert record["stated"] == 64
    assert record["measured"] == 80


def test_criterion5_metacheck_ledger(periodic2):
    family, _ = periodic2
    ladder = build_ladder(family.complex)
    counting = verify_counting(ladder)
    glob = verify_global_constraints(ladder)
    ok = (
        counting["ranks"] == {"m0": 95, "m1": 669, "hz": 349, "hx": 31}
        and counting["chain_m1_hz_zero"]
        and counting["chain_m0_m1_zero"]
        and glob["passed"]
        and counting["total_independent_generators"] == 380
    )
    _line(5, "metacheck-ledger", ok)
    assert counting["ranks"] == {"m0": 95, "m1": 669, "hz": 349, "hx": 31}
    assert counting["chain_m1_hz_zero"] and counting["chain_m0_m1_zero"]
    assert glob["face_planes_zero_on_qubits"] and glob["face_planes_rank_gain"] == 6
    assert glob["edge_hyperplanes_zero_on_faces"] and glob["edge_hyperplanes_rank_gain"] == 4
    assert counting["total_independent_generators"] == 24 * 2**4 - 4 == 380


def test_criterion6_bounded_family():
    family = build_bounded_family(2)
    basis = build_logicals(family)
    ok = all(blk.k == 1 for blk in family.blocks)
    for b, blk in enumerate(family.blocks):
        assert blk.k == 1
        assert set(blk.x_weights()) == {24, 15, 10, 7}
        for center, row in zip(blk.meta["x_centers"], blk.hx.rows):
            nb = bounded_boundary_coordinate_count(center, b, 2)
            assert row.bit_count() == 8 - nb + 16 // 2**nb
        assert set(blk.meta["triangle_weights"]) == {2, 3}
    rep = check_cccz_conditions(family, basis)
    ok &= rep.all_even_pass and rep.extras["single_cccz"]
    _line(6, "bounded-family", ok)
    assert rep.all_even_pass
    assert rep.extras["single_cccz"]
    assert verify_logical_basis(family, basis)[0]


def test_criterion7_warmups():
    pair = build_2d_pair(2)
    basis2d = build_logicals(pair)
    rep2d = check_cz_conditions(pair, basis2d)
    triple = build_3d_triple(2)
    basis3d = build_logicals(triple)
    rep3d = check_ccz_conditions(triple, basis3d)
    ok = (
        rep2d.all_even_pass
        and rep3d.all_even_pass
        and set(rep3d.extras["triple_intersection_weights"]) <= {0, 2}
        and all(blk.k == 3 for blk in triple.blocks)
        and all(blk.k == 2 for blk in pair.blocks)
    )
    _line(7, "warmups", ok)
    assert rep2d.all_even_pass
    print(f"  2d measured pairing: {[[rep2d.tensor[(i, j)] for j in range(2)] for i in range(2)]}")
    assert rep3d.all_even_pass
    assert set(rep3d.extras["triple_intersection_weights"]) <= {0, 2}
    assert all(blk.k == 2 for blk in pair.blocks)
    assert all(blk.k == 3 for blk in triple.blocks)
    assert rep3d.tensor_support() == sorted(ALL_DISTINCT_TRIPLES)


def test_criterion8_phase_polynomials():
    ok = True
    for arity in (2, 3, 4):
        for pos in range(arity):
            poly = sandwich_identity(arity, pos)
            rest = [f"q{i}" for i in range(arity) if i != pos]
            ok &= poly.is_single_monomial(rest)
    quartets = [
        ["a0", "b1", "c2", "d3"],
        ["a1", "b0", "c3", "d2"],
        ["a2", "b3", "c0", "d1"],
        ["a3", "b2", "c1", "d0"],
    ]
    targeted = targeted_gate_from_rounds(quartets, "a0")
    ok &= targeted.is_single_monomial(["b1", "c2", "d3"])
    _line(8, "phase-polynomials", ok)
    assert ok
    assert sandwich_identity(4, 1).is_single_monomial(["q0", "q2", "q3"])
    assert sandwich_identity(2, 1).is_single_monomial(["q0"])


def test_criterion9_determinism():
    a = report_json(run_octaplex_report(2, threads=1))
    b = report_json(run_octaplex_report(2, threads=8))
    ok = a.encode() == b.encode()
    _line(9, "determinism", ok)
    assert a.encode() == b.encode()


def test_criterion10_negative_controls():
    perturbed = run_octaplex_report(
        2,
        sections={"logicals", "transversal"},
        fault=Fault("perturb-logical", seed=1),
    )
    recolored = run_octaplex_report(
        2, sections={"lattice"}, fault=Fault("recolor-vertex", seed=1)
    )
    perturbed_sec = perturbed.report["sections"]["logicals"]
    recolored_sec = recolored.report["sections"]["lattice"]
    ok = (
        not perturbed.ok
        and perturbed_sec["status"] == "fail"
        and bool(perturbed_sec["witnesses"])
        and not recolored.ok
        and recolored_sec["status"] == "fail"
        and bool(recolored_sec["same_color_edge_witness"])
    )
    _line(10, "negative-controls", ok)
    assert not perturbed.ok
    assert perturbed_sec["witnesses"]
    assert not recolored.ok
    assert recolored_sec["same_color_edge_witness"]
