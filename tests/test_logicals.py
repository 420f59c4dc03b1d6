import copy
import random
import re
from functools import partial

import pytest

import octaplex.logicals
from octaplex.binalg import parity, support_from_mask
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


def test_basis_weights(family2, basis2):
    L = family2.L
    for b in range(4):
        for d in range(4):
            assert basis2.z_ops[b][d].bit_count() == L
            assert basis2.x_ops[b][d].bit_count() == 10 * L**3


def test_lemma_holds(family2, basis2):
    assert verify_logical_basis(family2, basis2)[0]


def test_pairing_identity(family2, basis2):
    for b in range(4):
        pair = basis2.pairing(b)
        assert pair == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_anticommute_at_single_cell(family2, basis2):
    # conjugate pair along the last axis meets at the one cell (0,0,0,1/2)
    inter = basis2.x_ops[0][3] & basis2.z_ops[0][3]
    assert inter.bit_count() == 1
    (q,) = support_from_mask(inter)
    assert family2.qubit_labels[q] == (0, 0, 0, 2)


def test_perturbed_basis_fails(family2, basis2):
    broken = copy.deepcopy(basis2)
    broken.x_ops[0][0] = broken.x_ops[0][0] ^ 1 << 17
    ok, witnesses = verify_logical_basis(family2, broken)
    assert not ok
    assert witnesses


def test_z_vs_all_x_stabilizers_even(family2, basis2):
    blk = family2.blocks[0]
    z = basis2.z_ops[0][3]
    assert all(parity(z & r) == 0 for r in blk.hx.rows)


def test_logical_class_of_basis(family2, basis2):
    for d in range(4):
        p = PauliSupport("Z", 0, basis2.z_ops[0][d])
        bits = logical_class(family2, basis2, p)
        assert bits == tuple(1 if i == d else 0 for i in range(4))


def test_class_constant_under_stabilizer_shift(family2, basis2):
    # multiply the string by the weight-4 product of two triangles sharing
    # their quarter cells; the class must not move
    qidx = family2.qubit_index()
    shift = [(0, 0, 0, 2), (1, 1, 1, 3), (1, 1, 1, 7), (2, 2, 2, 0)]
    mask = 0
    for c in shift:
        mask |= 1 << qidx[c]
    blk = family2.blocks[0]
    assert blk.hz.in_row_space(mask)
    moved = basis2.z_ops[0][3] ^ mask
    p = PauliSupport("Z", 0, moved)
    assert logical_class(family2, basis2, p) == (0, 0, 0, 1)


def test_stabilizer_row_is_trivial_class(family2, basis2):
    row = family2.blocks[0].hz.rows[10]
    p = PauliSupport("Z", 0, row)
    assert logical_class(family2, basis2, p) == (0, 0, 0, 0)


def test_single_qubit_z_is_not_logical(family2, basis2):
    rng = random.Random(2)
    for _ in range(5):
        q = rng.randrange(family2.n)
        p = PauliSupport("Z", 0, 1 << q)
        assert logical_class(family2, basis2, p) is None


def test_disjoint_strings_counts(family2):
    fams = disjoint_z_strings(family2, 3)
    L = family2.L
    assert len(fams["half_sheet"]) == L**3
    assert len(fams["integer_sheet"]) == L**3
    assert len(fams["quarter_sheet"]) == (2 * L) ** 3
    acc = 0
    for m in fams["half_sheet"] + fams["integer_sheet"] + fams["quarter_sheet"]:
        assert acc & m == 0
        acc |= m


def test_certificate(family2, basis2, ladder2):
    cert = certify_distances(family2, basis2, ladder2)
    assert cert.dz == 2
    assert cert.exhaustive_dz == 2
    assert cert.dx_lower == cert.dx_upper == 80
    assert cert.disjoint_z_reps == 80
    assert cert.disjoint_z_breakdown == {
        "half_sheet": 8, "integer_sheet": 8, "quarter_sheet": 64,
    }
    assert cert.disjoint_x_reps == 2
    assert cert.dx_stated_formula == 64
    assert cert.dx_formula_discrepancy


def test_certificate_rejects_heavier_z_logical(family2, basis2, ladder2):
    # d_Z <= L rests on the Z logicals having weight L; a stabilizer-shifted
    # representative keeps the class but not the weight
    heavier = copy.deepcopy(basis2)
    row = family2.blocks[0].hz.rows[0]
    heavier.z_ops[0][1] = heavier.z_ops[0][1] ^ row
    with pytest.raises(AssertionError, match="Z logical 1 weight"):
        certify_distances(family2, heavier, ladder2)


def test_certificate_rejects_a_ledger_k_other_than_the_basis_k(family2, basis2, ladder2):
    # with three of the four logicals the pairing rule would be no proof:
    # the quotient has dimension 4, so the certificate must stop first
    short = copy.deepcopy(basis2)
    for ops in short.x_ops + short.z_ops:
        del ops[3]
    assert short.k == 3 and ladder2.k == 4
    with pytest.raises(AssertionError, match="ledger k=4 differs from the basis's k=3"):
        certify_distances(family2, short, ladder2)


def test_certificate_rejects_a_logical_x_violating_hz0_first(family2, basis2, ladder2, monkeypatch):
    broken = copy.deepcopy(basis2)
    broken.x_ops[0][0] ^= 1 << 17
    first = support_from_mask(family2.blocks[0].hz.mul_vec(broken.x_ops[0][0]))[0]
    tested = []
    for name in ("disjoint_z_strings", "disjoint_x_hyperplanes"):
        monkeypatch.setattr(octaplex.logicals, name, lambda *a: tested.append(a))
    witness = {"kind": "x_vs_z_stab", "block": 0, "detail": [0, first]}
    with pytest.raises(AssertionError, match=re.escape(str(witness))):
        certify_distances(family2, broken, ladder2)
    assert tested == []


def test_certificate_rejects_a_direction_1_string_among_direction_0(
    family2, basis2, ladder2, monkeypatch
):
    def strings(family, d):
        fams = disjoint_z_strings(family, d)
        if d == 0:
            fams["half_sheet"].insert(0, basis2.z_ops[0][1])
        return fams

    monkeypatch.setattr(octaplex.logicals, "disjoint_z_strings", strings)
    with pytest.raises(AssertionError, match="not stabilizer-equivalent to logical 0"):
        certify_distances(family2, basis2, ladder2)


@pytest.mark.parametrize("L", [2, 3])
def test_pairing_rule_agrees_with_row_space_membership(request, L):
    # the row-space rule is the oracle: every Z string and X hyperplane
    # translate, against the logical of every direction
    family = request.getfixturevalue(f"family{L}")
    basis, blk0 = build_logicals(family), family.blocks[0]
    sides = (
        (lambda d: [m for reps in disjoint_z_strings(family, d).values() for m in reps],
         basis.z_ops[0], basis.x_ops[0], blk0.hx, blk0.hz),
        (partial(disjoint_x_hyperplanes, family), basis.x_ops[0], basis.z_ops[0], blk0.hz, blk0.hx),
    )
    for reps_of, refs, conjugates, checks, stabilizers in sides:
        for rep_dir in DIRS:
            for m in reps_of(rep_dir):
                for d in DIRS:
                    try:
                        _verify_disjoint_equivalent([m], d, conjugates, checks)
                        accepted = True
                    except AssertionError:
                        accepted = False
                    assert accepted == stabilizers.in_row_space(m ^ refs[d])
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
    cert = certify_distances(family3, basis3, ladder3)
    assert cert.dz == 3
    assert cert.dx_lower == cert.dx_upper == 10 * 27
    assert cert.exhaustive_dz is None


def test_block1_representatives_translate_to_block0(family2, basis2):
    # the translated red-block string is the integer-sheet representative of
    # block 0 along the same axis, up to Z stabilizers
    from octaplex.codes import shifted_qubit_permutation

    perm = shifted_qubit_permutation(family2.complex, 1)

    def permute(mask):
        out = 0
        i = 0
        while mask:
            if mask & 1:
                out |= 1 << perm[i]
            mask >>= 1
            i += 1
        return out

    blk0 = family2.blocks[0]
    for d in range(4):
        moved = permute(basis2.z_ops[1][d])
        assert blk0.hx.mul_vec(moved) == 0
        assert blk0.hz.in_row_space(moved ^ basis2.z_ops[0][d])
