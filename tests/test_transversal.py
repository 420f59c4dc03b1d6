import copy
import itertools
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from octaplex import transversal
from octaplex.binalg import BinMatrix, mask_from_support
from octaplex.codes import build_3d_triple
from octaplex.logicals import build_logicals
from octaplex.transversal import (
    ALL_DISTINCT_QUADRUPLES,
    PhasePolynomial,
    STATED_QUARTETS,
    _coupling_tensor,
    _mixed_conditions,
    _RowIndex,
    check_ccz_conditions,
    check_cccz_conditions,
    induced_logical_z,
    multilinearity_holds,
    sandwich_identity,
    targeted_gate_from_rounds,
    triple_weight_histogram,
)


def test_cccz_conditions_pass(family2, basis2):
    rep = check_cccz_conditions(family2, basis2)
    assert rep.all_even_pass
    assert rep.scanned >= 10**6
    assert rep.extras["tensor_entries_are_permutations"]
    assert rep.extras["tensor_is_all_distinct_pattern"]


def test_tensor_content(family2, basis2):
    rep = check_cccz_conditions(family2, basis2)
    support = rep.tensor_support()
    assert len(support) == 24
    assert set(STATED_QUARTETS) < set(support)
    assert support == sorted(ALL_DISTINCT_QUADRUPLES)
    # the stated four-quartet pattern is strictly smaller than measured
    assert not rep.extras["tensor_matches_stated_quartets"]


def test_tensor_representative_independent(family2, basis2):
    rep = check_cccz_conditions(family2, basis2)
    rows = [set(s) for s in basis2.x_ops[1].supports()]
    rows[2] ^= set(family2.blocks[1].hx.support(5))
    moved = BinMatrix.from_supports(family2.n, rows)
    shifted = replace(basis2, x_ops=[basis2.x_ops[0], moved, *basis2.x_ops[2:]])
    rep2 = check_cccz_conditions(family2, shifted)
    assert rep2.all_even_pass
    assert rep2.tensor_support() == rep.tensor_support()


def test_threads_do_not_change_result(family2, basis2):
    a = check_cccz_conditions(family2, basis2, threads=1)
    b = check_cccz_conditions(family2, basis2, threads=8)
    assert a.as_dict() == b.as_dict()


def test_multilinearity(family2, basis2):
    rng = random.Random(9)
    rows = list(family2.blocks[0].hx.supports())
    others = [
        family2.blocks[1].hx.support(3),
        family2.blocks[2].hx.support(7),
        basis2.x_ops[3].support(1),
    ]
    trials = [(rng.randrange(len(rows)), rng.randrange(len(rows))) for _ in range(30)]
    assert multilinearity_holds(rows, others, trials)


def test_induced_logical_quartet(family2, basis2):
    # directions (z, y, x) on blocks 1..3 produce the w string on block 0
    bits = induced_logical_z(family2, basis2, [(1, 2), (2, 1), (3, 0)])
    assert bits == (0, 0, 0, 1)


def test_induced_logical_off_quartet_nontrivial(family2, basis2):
    # the stated coupling list would make this trivial; the measured class is
    # the same w string (the intersection is a quarter-sheet string, which is
    # a valid representative)
    bits = induced_logical_z(family2, basis2, [(1, 2), (2, 0), (3, 1)])
    assert bits == (0, 0, 0, 1)


def test_induced_string_reduces_to_basis_string(family2, basis2):
    acc = sorted(
        set(basis2.x_ops[1].support(2))
        & set(basis2.x_ops[2].support(1))
        & set(basis2.x_ops[3].support(0))
    )
    blk0 = family2.blocks[0]
    assert blk0.hx.syndrome(acc) == set()
    assert blk0.hz.in_row_space(mask_from_support(acc) ^ mask_from_support(basis2.z_ops[0].support(3)))


def test_parallel_directions_do_not_couple(family2, basis2):
    rep = check_cccz_conditions(family2, basis2)
    assert rep.tensor[(3, 3, 3, 3)] == 0
    assert rep.tensor[(0, 0, 1, 2)] == 0


def test_triple_histogram_smoke(triple3d):
    hist = triple_weight_histogram([b.hx for b in triple3d.blocks])
    assert set(hist) <= {0, 2}


# ---------------------------------------------------------------------------
# brute-force reference for the incidence enumeration


def _oracle_weights(slots):
    """Every tuple of the product, in order, with its intersection weight."""
    for t in itertools.product(*(range(len(s)) for s in slots)):
        acc = -1
        for s, i in zip(slots, t):
            acc &= s[i]
        yield t, acc.bit_count()


def _oracle_condition(stab, logical, n_logical):
    blocks = range(len(stab))
    scanned, witness = 0, None
    for placed in itertools.combinations(blocks, n_logical):
        slots = [logical[b] if b in placed else stab[b] for b in blocks]
        for t, w in _oracle_weights(slots):
            scanned += 1
            if w & 1 and witness is None:
                witness = (placed, t)
    return witness is None, scanned, witness


def _random_slots(rng, blocks, n, plant):
    """Rows built from qubit pairs, so every intersection is even, with one
    bit flipped per planted fault; some rows are empty."""
    slots = []
    for _ in range(blocks):
        rows = []
        for _ in range(rng.randrange(1, 5)):
            pairs = rng.sample(range(n // 2), rng.randrange(0, 4))
            rows.append(sum(3 << (2 * p) for p in pairs))
        slots.append(rows)
    for _ in range(plant):
        rows = rng.choice(slots)
        rows[rng.randrange(len(rows))] ^= 1 << rng.randrange(n)
    return slots


@pytest.mark.parametrize("blocks", [2, 3, 4])
@pytest.mark.parametrize("plant", [0, 1, 3])
def test_enumeration_matches_brute_force(blocks, plant):
    rng = random.Random(100 * blocks + plant)
    for _ in range(20):
        stab = _random_slots(rng, blocks, 12, plant)
        logical = _random_slots(rng, blocks, 12, plant)
        stab_ix = [_RowIndex(BinMatrix(rows, 12)) for rows in stab]
        logical_ix = [_RowIndex(BinMatrix(rows, 12)) for rows in logical]
        for n_logical in range(blocks):
            c = _mixed_conditions(stab_ix, logical_ix, n_logical, "c")
            assert (c["passed"], c["quadruples_scanned"], c["witness"]) == _oracle_condition(
                stab, logical, n_logical
            )
        assert _coupling_tensor(logical_ix) == {
            t: w & 1 for t, w in _oracle_weights(logical)
        }
        if blocks == 3:
            assert triple_weight_histogram([BinMatrix(rows, 12) for rows in stab]) == Counter(
                w for _, w in _oracle_weights(stab)
            )


def _long_slot0(rng, blocks, n, rows0, plant_row=None):
    """Pair-built slots (every intersection even) whose slot 0 has ``rows0``
    rows, empty on both sides of every block edge. With ``plant_row``, one
    bit of that slot-0 row is flipped on a pair that row 0 of every other
    slot holds: the odd tuples are then exactly those through ``plant_row``
    and, in every other slot, a row holding that pair."""
    B = transversal.BLOCK_ROWS
    slots = _random_slots(rng, blocks, n, 0)
    slots[0] = [0 if i % B in (0, B - 1) else sum(3 << (2 * p) for p in rng.sample(range(n // 2), 2))
                for i in range(rows0)]
    if plant_row is not None:
        pair = rng.randrange(n // 2)
        for rows in slots[1:]:
            rows[0] |= 3 << (2 * pair)
        slots[0][plant_row] ^= 1 << (2 * pair)
    return slots


def _indexed(slots, n):
    return [_RowIndex(BinMatrix(rows, n)) for rows in slots]


def _histogram(slots, n):
    hist = Counter()
    odd = transversal._first_odd(_indexed(slots, n), hist)
    return odd, hist


@pytest.mark.parametrize("blocks", [2, 3, 4])
def test_block_edges_match_brute_force(blocks):
    rng = random.Random(7 + blocks)
    rows0 = 3 * transversal.BLOCK_ROWS + 3  # three full blocks and a partial one
    for plant_row in (None, rows0 - 1, rows0 // 2):
        stab = _long_slot0(rng, blocks, 12, rows0, plant_row)
        logical = _long_slot0(rng, blocks, 12, rows0)
        stab_ix, logical_ix = _indexed(stab, 12), _indexed(logical, 12)
        for n_logical in range(blocks):
            c = _mixed_conditions(stab_ix, logical_ix, n_logical, "c")
            assert (c["passed"], c["quadruples_scanned"], c["witness"]) == _oracle_condition(
                stab, logical, n_logical
            )
        assert _coupling_tensor(logical_ix) == {
            t: w & 1 for t, w in _oracle_weights(logical)
        }
        odd, hist = _histogram(stab, 12)
        assert hist == Counter(w for _, w in _oracle_weights(stab))
        assert sum(hist.values()) == math.prod(map(len, stab))
        assert odd == next((t for t, w in _oracle_weights(stab) if w & 1), None)


@pytest.mark.parametrize("blocks", [2, 3, 4])
def test_odd_tuple_only_in_last_partial_block(blocks):
    rng = random.Random(31 + blocks)
    B = transversal.BLOCK_ROWS
    rows0 = 3 * B + 2
    stab = _long_slot0(rng, blocks, 12, rows0, plant_row=rows0 - 1)
    logical = _long_slot0(rng, blocks, 12, B)
    c = _mixed_conditions(_indexed(stab, 12), _indexed(logical, 12), 0, "c")
    expected = _oracle_condition(stab, logical, 0)
    assert not expected[0] and expected[2][1][0] == rows0 - 1
    assert (c["passed"], c["quadruples_scanned"], c["witness"]) == expected
    odd, hist = _histogram(stab, 12)
    assert odd == expected[2][1]
    assert sum(hist.values()) == math.prod(map(len, stab))
    assert hist == Counter(w for _, w in _oracle_weights(stab))


def _reports_per_block_size(monkeypatch, rows, run):
    """``run()`` under block sizes 1, 2, rows + 1 and the module's own."""
    results = [run()]
    for size in (1, 2, rows + 1):
        monkeypatch.setattr(transversal, "BLOCK_ROWS", size)
        results.append(run())
    return results


def test_cccz_report_independent_of_block_size(monkeypatch, family2, basis2):
    rows = max(blk.hx.shape[0] for blk in family2.blocks)
    first, *others = _reports_per_block_size(
        monkeypatch, rows, lambda: check_cccz_conditions(family2, basis2))
    for rep in others:
        assert rep.as_dict() == first.as_dict()
        assert rep.tensor == first.tensor


def test_ccz_report_and_histogram_independent_of_block_size(monkeypatch):
    family = build_3d_triple(4)
    basis = build_logicals(family)
    rows = max(blk.hx.shape[0] for blk in family.blocks)
    first, *others = _reports_per_block_size(
        monkeypatch, rows, lambda: _ccz_with_histogram(monkeypatch, family, basis))
    for rep, hist in others:
        assert rep.as_dict() == first[0].as_dict()
        assert rep.tensor == first[0].tensor
        assert hist == first[1]


def _spy_blocks(monkeypatch):
    """Every block `_weight_counts` yields, with the slot-0 index it read."""
    read = []
    inner = transversal._weight_counts

    def spy(slots):
        for counts in inner(slots):
            read.append((slots[0], counts))
            yield counts

    monkeypatch.setattr(transversal, "_weight_counts", spy)
    return read


def test_failing_condition_reads_no_block_after_its_witness(monkeypatch):
    rng = random.Random(5)
    B = transversal.BLOCK_ROWS
    rows0 = 4 * B + 1
    plant_row = B + 1  # in the second block
    logical = _long_slot0(rng, 3, 12, rows0, plant_row)
    stab = _long_slot0(rng, 3, 12, rows0)
    stab_ix, logical_ix = _indexed(stab, 12), _indexed(logical, 12)
    read = _spy_blocks(monkeypatch)
    # placements (0,), (1,), (2,): the first holds the witness
    c = _mixed_conditions(stab_ix, logical_ix, 1, "c")
    assert (c["passed"], c["quadruples_scanned"], c["witness"]) == _oracle_condition(
        stab, logical, 1
    )
    assert c["witness"][0] == (0,) and c["witness"][1][0] == plant_row
    assert [slot0 for slot0, _ in read] == [logical_ix[0]] * (plant_row // B + 1)
    assert c["witness"][1] in read[-1][1]
    # with a histogram, every block of every placement is read
    read.clear()
    _mixed_conditions(stab_ix, logical_ix, 1, "c", Counter())
    assert len(read) == 3 * -(-rows0 // B)


def test_flipped_stabilizer_qubit_fails_with_first_witness(family2, basis2):
    faulty = copy.deepcopy(family2)
    hx = faulty.blocks[2].hx
    rows = list(hx.rows)
    rows[0] ^= 1 << (rows[0].bit_length() - 1)
    faulty.blocks[2].hx = BinMatrix(rows, hx.cols)
    rep = check_cccz_conditions(faulty, basis2)
    assert not rep.all_even_pass
    # conditions are ordered by their number of logical slots
    n_logical, first = next(
        (n, c) for n, c in enumerate(rep.conditions) if not c["passed"]
    )
    stab = [blk.hx.rows for blk in faulty.blocks]
    logical = [x.rows for x in basis2.x_ops]
    assert (first["passed"], first["quadruples_scanned"], first["witness"]) == _oracle_condition(
        stab, logical, n_logical
    )


def _ccz_with_histogram(monkeypatch, family, basis):
    """check_ccz_conditions' report and the histogram it counted."""
    seen = []
    inner = transversal._mixed_conditions

    def spy(stab, logical, n_logical, name, hist=None):
        if hist is not None:
            seen.append(hist)
        return inner(stab, logical, n_logical, name, hist)

    monkeypatch.setattr(transversal, "_mixed_conditions", spy)
    rep = check_ccz_conditions(family, basis)
    assert len(seen) == 1
    return rep, seen[0]


def _assert_histogram_complete(rep, hist, matrices):
    stab = [m.rows for m in matrices]
    assert hist == triple_weight_histogram(matrices)
    assert hist == Counter(w for _, w in _oracle_weights(stab))
    assert sum(hist.values()) == math.prod(map(len, stab))
    assert rep.extras["triple_intersection_weights"] == sorted(hist)


@pytest.mark.parametrize("L", [2, 4])
def test_ccz_histogram_matches_brute_force(monkeypatch, L):
    family = build_3d_triple(L)
    rep, hist = _ccz_with_histogram(monkeypatch, family, build_logicals(family))
    assert rep.all_even_pass
    _assert_histogram_complete(rep, hist, [blk.hx for blk in family.blocks])


def test_ccz_flipped_stabilizer_qubit_keeps_witness_and_histogram(monkeypatch):
    family = build_3d_triple(4)
    basis = build_logicals(family)
    hx = family.blocks[0].hx
    rows = list(hx.rows)
    rows[0] ^= 1 << (rows[0].bit_length() - 1)
    family.blocks[0].hx = BinMatrix(rows, hx.cols)
    rep, hist = _ccz_with_histogram(monkeypatch, family, basis)
    sss = rep.conditions[0]
    stab = [blk.hx.rows for blk in family.blocks]
    assert sss["name"] == "sss_even" and not sss["passed"]
    assert (sss["passed"], sss["quadruples_scanned"], sss["witness"]) == _oracle_condition(
        stab, [x.rows for x in basis.x_ops], 0
    )
    # the stream was read past the witness: every triple is counted
    assert any(w & 1 for w in hist)
    _assert_histogram_complete(rep, hist, [blk.hx for blk in family.blocks])


# ---------------------------------------------------------------------------
# phase polynomials


def test_sandwich_cccz():
    poly = sandwich_identity(4, 0)
    assert poly.is_single_monomial(["q1", "q2", "q3"])


def test_sandwich_cz():
    poly = sandwich_identity(2, 0)
    assert poly.is_single_monomial(["q1"])


def test_sandwich_all_positions():
    for arity in (2, 3, 4):
        for pos in range(arity):
            poly = sandwich_identity(arity, pos)
            rest = [f"q{i}" for i in range(arity) if i != pos]
            assert poly.is_single_monomial(rest)
            assert poly.degree() == arity - 1


def test_conjugation_is_involution():
    gate = PhasePolynomial.multi_controlled_z(["a", "b", "c", "d"])
    assert gate.conjugated_by_x("b").conjugated_by_x("b") == gate


def test_gate_squares_to_identity():
    gate = PhasePolynomial.multi_controlled_z(["a", "b", "c"])
    assert (gate ^ gate).monomials == frozenset()


def test_four_round_sandwich_targets_one_ccz():
    # four disjoint coupled quadruples; flipping one variable leaves exactly
    # the one reduced monomial
    quartets = [
        ["a0", "b1", "c2", "d3"],
        ["a1", "b0", "c3", "d2"],
        ["a2", "b3", "c0", "d1"],
        ["a3", "b2", "c1", "d0"],
    ]
    poly = targeted_gate_from_rounds(quartets, "a0")
    assert poly.is_single_monomial(["b1", "c2", "d3"])


def test_measured_coupling_sandwich_gives_six_ccz(family2, basis2):
    # with the measured 24-entry coupling, one sandwiched logical X leaves
    # the six CCZs over the remaining blocks
    rep = check_cccz_conditions(family2, basis2)
    sets = []
    for q in rep.tensor_support():
        sets.append([f"{blk}:{d}" for blk, d in enumerate(q)])
    poly = targeted_gate_from_rounds(sets, "0:3")
    assert len(poly.monomials) == 6
    assert all(len(m) == 3 for m in poly.monomials)
