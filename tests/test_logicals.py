import hashlib
import random
import re
import sys
from dataclasses import replace
from functools import partial

import pytest

import octaplex.logicals
from octaplex import binalg
from octaplex.binalg import BinMatrix, mask_from_support
from octaplex.codes import build_family
from octaplex.logicals import (
    DIRS,
    PauliSupport,
    _verify_disjoint_equivalent,
    build_logicals,
    certify_distances,
    disjoint_x_hyperplanes,
    disjoint_z_strings,
    exhaustive_z_distance,
    logical_class,
    verify_logical_basis,
)
from octaplex.report import BUILDERS, Fault, report_json, run_report


def toggled(m, i, qubits):
    """``m`` with row i's support XORed with the given qubits."""
    rows = [set(s) for s in m.supports()]
    rows[i] ^= set(qubits)
    return BinMatrix.from_supports(m.cols, rows)


def test_full_report_builds_no_colored_column_index(monkeypatch):
    # A colored block's logical syndromes come from one pass over its rows.
    built = []
    monkeypatch.setitem(BUILDERS, "octaplex",
                        lambda run: built.append(build_family(run.cx)) or built[0])
    assert run_report("octaplex", 3).ok
    for blk in built[0].blocks[1:]:
        assert blk.hz._t is None and blk.hx._t is None, blk.label


def test_basis_weights(family2, basis2):
    L = family2.L
    for b in range(4):
        for d in range(4):
            assert basis2.z_ops[b].weights()[d] == L
            assert basis2.x_ops[b].weights()[d] == 10 * L**3


def test_lemma_holds(family2, basis2):
    assert verify_logical_basis(family2, basis2)[0]


def test_pairing_identity(family2, basis2):
    for b in range(4):
        pair = basis2.pairing(b)
        assert pair == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_anticommute_at_single_cell(family2, basis2):
    # conjugate pair along the last axis meets at the one cell (0,0,0,1/2)
    inter = set(basis2.x_ops[0].support(3)) & set(basis2.z_ops[0].support(3))
    assert len(inter) == 1
    (q,) = inter
    assert family2.qubit_labels[q] == (0, 0, 0, 2)


def test_perturbed_basis_fails(family2, basis2):
    broken = replace(basis2, x_ops=[toggled(basis2.x_ops[0], 0, [17]), *basis2.x_ops[1:]])
    ok, witnesses = verify_logical_basis(family2, broken)
    assert not ok
    assert witnesses


def test_z_vs_all_x_stabilizers_even(family2, basis2):
    blk = family2.blocks[0]
    z = set(basis2.z_ops[0].support(3))
    assert all(len(z & set(r)) % 2 == 0 for r in blk.hx.supports())


def test_logical_class_of_basis(family2, basis2):
    for d in range(4):
        p = PauliSupport("Z", 0, list(basis2.z_ops[0].support(d)))
        bits = logical_class(family2, basis2, p)
        assert bits == tuple(1 if i == d else 0 for i in range(4))


def test_class_constant_under_stabilizer_shift(family2, basis2):
    # multiply the string by the weight-4 product of two triangles sharing
    # their quarter cells; the class must not move
    qidx = family2.qubit_labels.index
    shift = [qidx(c) for c in [(0, 0, 0, 2), (1, 1, 1, 3), (1, 1, 1, 7), (2, 2, 2, 0)]]
    blk = family2.blocks[0]
    assert blk.hz.in_row_space(mask_from_support(shift))
    moved = sorted(set(basis2.z_ops[0].support(3)) ^ set(shift))
    p = PauliSupport("Z", 0, moved)
    assert logical_class(family2, basis2, p) == (0, 0, 0, 1)


def test_stabilizer_row_is_trivial_class(family2, basis2):
    row = list(family2.blocks[0].hz.support(10))
    p = PauliSupport("Z", 0, row)
    assert logical_class(family2, basis2, p) == (0, 0, 0, 0)


def test_single_qubit_z_is_not_logical(family2, basis2):
    rng = random.Random(2)
    for _ in range(5):
        q = rng.randrange(family2.n)
        p = PauliSupport("Z", 0, [q])
        assert logical_class(family2, basis2, p) is None


def test_disjoint_strings_counts(family2):
    fams = disjoint_z_strings(family2, 3)
    L = family2.L
    assert len(fams["half_sheet"]) == L**3
    assert len(fams["integer_sheet"]) == L**3
    assert len(fams["quarter_sheet"]) == (2 * L) ** 3
    acc = set()
    for s in fams["half_sheet"] + fams["integer_sheet"] + fams["quarter_sheet"]:
        assert not acc & set(s)
        acc |= set(s)


def test_certificate(family2, basis2, ladder2):
    cert = certify_distances(family2, basis2, ladder2.k)
    assert cert["dz"] == 2
    assert cert["exhaustive_dz"] == 2
    assert cert["dx_lower"] == cert["dx_upper"] == 80
    assert cert["disjoint_z_reps_per_direction"] == 80
    assert cert["disjoint_z_breakdown"] == {
        "half_sheet": 8, "integer_sheet": 8, "quarter_sheet": 64,
    }
    assert cert["disjoint_x_reps_per_direction"] == 2
    assert cert["dx_stated_formula_8L3"] == 64
    assert cert["dx_formula_discrepancy"]


def test_certificate_rejects_heavier_z_logical(family2, basis2, ladder2):
    # d_Z <= L rests on the Z logicals having weight L; a stabilizer-shifted
    # representative keeps the class but not the weight
    row = family2.blocks[0].hz.support(0)
    heavier = replace(basis2, z_ops=[toggled(basis2.z_ops[0], 1, row), *basis2.z_ops[1:]])
    with pytest.raises(AssertionError, match="Z logical 1 weight"):
        certify_distances(family2, heavier, ladder2.k)


def test_certificate_rejects_a_ledger_k_other_than_the_basis_k(family2, basis2, ladder2):
    # with three of the four logicals the pairing rule would be no proof:
    # the quotient has dimension 4, so the certificate must stop first
    def first3(ops):
        return [BinMatrix.from_supports(m.cols, list(m.supports())[:3]) for m in ops]

    short = replace(basis2, x_ops=first3(basis2.x_ops), z_ops=first3(basis2.z_ops))
    assert short.k == 3 and ladder2.k == 4
    with pytest.raises(AssertionError, match="ledger k=4 differs from the basis's k=3"):
        certify_distances(family2, short, ladder2.k)


def test_certificate_rejects_a_logical_x_violating_hz0_first(family2, basis2, ladder2, monkeypatch):
    broken = replace(basis2, x_ops=[toggled(basis2.x_ops[0], 0, [17]), *basis2.x_ops[1:]])
    first = min(family2.blocks[0].hz.syndrome(broken.x_ops[0].support(0)))
    tested = []
    for name in ("disjoint_z_strings", "disjoint_x_hyperplanes"):
        monkeypatch.setattr(octaplex.logicals, name, lambda *a: tested.append(a))
    witness = {"kind": "x_vs_z_stab", "block": 0, "detail": [0, first]}
    with pytest.raises(AssertionError, match=re.escape(str(witness))):
        certify_distances(family2, broken, ladder2.k)
    assert tested == []


def test_certificate_rejects_a_direction_1_string_among_direction_0(
    family2, basis2, ladder2, monkeypatch
):
    def strings(family, d):
        fams = disjoint_z_strings(family, d)
        if d == 0:
            fams["half_sheet"].insert(0, list(basis2.z_ops[0].support(1)))
        return fams

    monkeypatch.setattr(octaplex.logicals, "disjoint_z_strings", strings)
    with pytest.raises(AssertionError, match="not stabilizer-equivalent to logical 0"):
        certify_distances(family2, basis2, ladder2.k)


@pytest.mark.parametrize("L", [2, 3])
def test_pairing_rule_agrees_with_row_space_membership(request, L):
    # the row-space rule is the oracle: every Z string and X hyperplane
    # translate, against the logical of every direction
    family = request.getfixturevalue(f"family{L}")
    basis, blk0 = build_logicals(family), family.blocks[0]
    sides = (
        (lambda d: [s for reps in disjoint_z_strings(family, d).values() for s in reps],
         basis.z_ops[0], basis.x_ops[0], blk0.hx, blk0.hz),
        (partial(disjoint_x_hyperplanes, family), basis.x_ops[0], basis.z_ops[0], blk0.hz, blk0.hx),
    )
    for reps_of, refs, conjugates, checks, stabilizers in sides:
        for rep_dir in DIRS:
            for s in reps_of(rep_dir):
                for d in DIRS:
                    try:
                        _verify_disjoint_equivalent([s], d, conjugates, checks)
                        accepted = True
                    except AssertionError:
                        accepted = False
                    sum_with_ref = mask_from_support(s) ^ mask_from_support(refs.support(d))
                    assert accepted == stabilizers.in_row_space(sum_with_ref)
                    assert accepted == (d == rep_dir)


def test_exhaustive_requires_small_l(family3):
    with pytest.raises(ValueError):
        exhaustive_z_distance(family3)


def test_exhaustive_search_directly(family2):
    dz, candidates = exhaustive_z_distance(family2)
    assert dz == 2
    assert candidates == 384 + 384 * 383 // 2


def test_l3_certificate_without_search(family3, ladder3):
    basis3 = build_logicals(family3)
    cert = certify_distances(family3, basis3, ladder3.k)
    assert cert["dz"] == 3
    assert cert["dx_lower"] == cert["dx_upper"] == 10 * 27
    assert cert["exhaustive_dz"] is None


def test_block1_representatives_translate_to_block0(family2, basis2):
    # the translated red-block string is the integer-sheet representative of
    # block 0 along the same axis, up to Z stabilizers
    from octaplex.codes import shifted_qubit_permutation

    perm = shifted_qubit_permutation(family2.complex, 1)
    blk0 = family2.blocks[0]
    for d in range(4):
        moved = [perm[i] for i in basis2.z_ops[1].support(d)]
        assert blk0.hx.syndrome(moved) == set()
        assert blk0.hz.in_row_space(mask_from_support(moved) ^ mask_from_support(basis2.z_ops[0].support(d)))


# OCTAPLEX_SEED 0 picks qubit 79, inside block 0's first X logical, so the
# fault removes it; seed 3 picks qubit 342, outside it, so the fault adds it.
# Each report's first witness and sha256 are pinned.
@pytest.mark.parametrize("seed, qubit, inside, first, digest", [
    (0, 79, True, 47, "f413fd44f287bf7a74d6ba1bf7849a8e38b99592c1e68d5b384db02501942df6"),
    (3, 342, False, 22, "f10a7bff3238fcf7566b734125ce8f308ec7572d83298bcd5ad8f85f6b318bee"),
], ids=["removes", "adds"])
def test_perturb_logical_toggles_one_qubit_of_row_0(basis2, seed, qubit, inside, first, digest):
    result = run_report("octaplex", 2, fault=Fault("perturb-logical", seed=seed))
    report = result.report
    assert report["fault"] == {"kind": "perturb-logical", "qubit": qubit}
    assert (qubit in basis2.x_ops[0].support(0)) == inside
    logicals, distance = report["sections"]["logicals"], report["sections"]["distance"]
    assert logicals["status"] == distance["status"] == "fail"
    assert logicals["x_weight"] == (79 if inside else 81)
    witness = {"kind": "x_vs_z_stab", "block": 0, "detail": [0, first]}
    assert logicals["witnesses"][0] == witness
    assert distance["error"] == f"block 0 logicals fail: {witness}"
    assert hashlib.sha256(report_json(result).encode()).hexdigest() == digest


@pytest.fixture
def mask_calls(monkeypatch):
    """Every call of the mask helpers and of the mask constructor, wherever
    an octaplex module holds them."""
    calls = []

    def spy(name, fn):
        return lambda *a, **k: calls.append(name) or fn(*a, **k)

    for name in ("mask_from_support", "support_from_mask"):
        original = getattr(binalg, name)
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "octaplex"]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy(name, original))
    monkeypatch.setattr(BinMatrix, "__init__", spy("BinMatrix.__init__", BinMatrix.__init__))
    return calls


@pytest.mark.parametrize("sections", [None, {"distance"}], ids=["all", "distance"])
def test_periodic_report_builds_no_mask(mask_calls, sections):
    # logicals, representatives, syndromes and metacheck globals are index
    # lists: a periodic report above L=2, which eliminates nothing, makes no mask
    assert run_report("octaplex", 3, sections=sections).ok
    assert mask_calls == []
    # the spy sees the masks that the L=2 search's row-space test builds
    assert run_report("octaplex", 2, sections={"distance"}).ok
    assert "mask_from_support" in mask_calls
