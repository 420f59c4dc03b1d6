import random

import pytest

from octaplex.binalg import (
    BinMatrix,
    LowbitBasis,
    mask_from_support,
    support_from_mask,
)
from octaplex.codes import build_3d_triple


def reference_rref(rows, cols):
    """Textbook Gauss-Jordan, column by column: (RREF rows, pivot columns)."""
    rows, pivots = list(rows), []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i] >> c & 1), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> c & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def reference_reduce(rows, cols, v):
    for row, c in zip(*reference_rref(rows, cols)):
        if v >> c & 1:
            v ^= row
    return v


def reference_kernel(rows, cols):
    red, pivots = reference_rref(rows, cols)
    return [
        1 << f | sum(1 << c for row, c in zip(red, pivots) if row >> f & 1)
        for f in range(cols)
        if f not in pivots
    ]


def assert_matches_reference(m, rng):
    rank = len(reference_rref(m.rows, m.cols)[1])
    assert m.rank() == rank
    assert m.kernel_basis() == reference_kernel(m.rows, m.cols)
    probes = [rng.getrandbits(m.cols) for _ in range(5)] + m.rows[:3]
    for v in probes:
        assert m.reduce(v) == reference_reduce(m.rows, m.cols, v)
    extra = probes[:3] + [probes[0] ^ probes[1]]
    assert m.rank_increase(extra) == len(reference_rref(m.rows + extra, m.cols)[1]) - rank
    assert m.rank_increase(extra) == sum(1 for r in m.residues(extra) if r)


@pytest.mark.parametrize("shape", ["wide", "tall", "zero-row", "duplicate-row", "full-rank"])
def test_elimination_matches_reference(shape):
    rng = random.Random(shape)
    for _ in range(12):
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 40)
        if shape == "wide":
            cols += rows
        elif shape == "tall":
            rows += cols
        vecs = [rng.getrandbits(cols) for _ in range(rows)]
        if shape == "zero-row":
            vecs = [v if rng.random() < 0.5 else 0 for v in vecs] + [0]
        elif shape == "duplicate-row":
            vecs += [rng.choice(vecs) for _ in range(3)]
        elif shape == "full-rank":
            # distinct top bits, then shuffled and mixed by row operations
            cols = rows + rng.randrange(0, 5)
            vecs = [1 << i | rng.getrandbits(i) for i in range(cols - rows, cols)]
            rng.shuffle(vecs)
            for i in range(1, rows):
                vecs[i] ^= vecs[i - 1]
            assert len(reference_rref(vecs, cols)[1]) == rows
        assert_matches_reference(BinMatrix(vecs, cols), rng)
    assert_matches_reference(BinMatrix([], 7), rng)


def test_elimination_matches_reference_on_octaplex(family2, ladder2):
    rng = random.Random(2)
    assert_matches_reference(family2.blocks[0].hz, rng)
    assert_matches_reference(ladder2.m0, rng)


def test_rank_zero_matrix():
    m = BinMatrix([0, 0, 0], 3)
    assert m.rank() == 0


def test_rank_identity():
    m = BinMatrix([1 << i for i in range(4)], 4)
    assert m.rank() == 4


def test_kernel_of_identity_is_empty():
    m = BinMatrix([1 << i for i in range(5)], 5)
    assert m.kernel_basis() == []


def test_kernel_of_parity_check():
    m = BinMatrix([0b1111], 4)
    basis = m.kernel_basis()
    assert len(basis) == 3
    for v in basis:
        assert m.syndrome(support_from_mask(v)) == set()


def test_in_row_space_basics():
    m = BinMatrix([0b001, 0b010, 0b100], 3)
    assert m.in_row_space(0)
    assert m.in_row_space(0b011)
    m2 = BinMatrix([0b011, 0b110], 3)
    assert m2.in_row_space(0b101)
    assert not m2.in_row_space(0b001)


@pytest.mark.parametrize(
    "method, bad, form",
    # a vector is a mask over the 3 columns, a selector one over the 2 rows;
    # syndrome and xor_rows read them as index lists
    [("in_row_space", 0b1011, int), ("syndrome", 0b1011, support_from_mask),
     ("syndromes", 0b1011, lambda v: [[], support_from_mask(v)]),
     ("xor_rows", 0b100, support_from_mask)],
    ids=["in_row_space", "syndrome", "syndromes", "xor_rows"],
)
def test_in_row_space_length_mismatch(method, bad, form):
    m = BinMatrix([0b011, 0b110], 3)
    getattr(m, method)(form(bad >> 1))
    with pytest.raises(ValueError):
        getattr(m, method)(form(bad))


def test_rank_plus_kernel_dim_random():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 12)
        m = BinMatrix([rng.getrandbits(cols) for _ in range(rows)], cols)
        assert m.rank() + len(m.kernel_basis()) == cols
        for r in m.rows:
            assert m.in_row_space(r)


def test_rank_invariant_under_row_ops():
    rng = random.Random(11)
    for _ in range(25):
        cols = rng.randrange(2, 10)
        rows = [rng.getrandbits(cols) for _ in range(rng.randrange(2, 8))]
        m = BinMatrix(rows, cols)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        added = rows[:]
        if i != j:
            added[i] ^= added[j]
        assert BinMatrix(shuffled, cols).rank() == m.rank()
        assert BinMatrix(added, cols).rank() == m.rank()


def test_kernel_vectors_annihilated():
    rng = random.Random(3)
    for _ in range(20):
        cols = rng.randrange(3, 14)
        m = BinMatrix([rng.getrandbits(cols) for _ in range(5)], cols)
        for v in m.kernel_basis():
            assert m.syndrome(support_from_mask(v)) == set()


def test_syndromes_match_syndrome_without_column_index():
    rng = random.Random(13)
    for _ in range(30):
        cols = rng.randrange(1, 12)
        m = BinMatrix([rng.getrandbits(cols) for _ in range(rng.randrange(1, 8))], cols)
        supports = [support_from_mask(rng.getrandbits(cols)) for _ in range(rng.randrange(6))]
        found = m.syndromes(supports)
        assert m._t is None
        assert found == [m.syndrome(s) for s in supports]


def test_completed_appends_growing_residues_and_keeps_rank():
    rng = random.Random(17)
    for _ in range(30):
        cols = rng.randrange(2, 12)
        rows = [rng.getrandbits(cols) for _ in range(rng.randrange(1, 6))]
        extra = [rng.getrandbits(cols) for _ in range(rng.randrange(6))]
        m = BinMatrix(rows, cols).completed(extra)
        assert m._basis is None
        assert m.rows[: len(rows)] == BinMatrix(rows, cols).rows
        assert m.rank() == BinMatrix(m.rows, cols).rank() == BinMatrix(rows + extra, cols).rank()
        assert m.shape[0] == len(rows) + BinMatrix(rows, cols).rank_increase(extra)


def test_transpose_rank_agrees():
    rng = random.Random(5)
    for _ in range(20):
        cols = rng.randrange(2, 12)
        m = BinMatrix([rng.getrandbits(cols) for _ in range(6)], cols)
        assert m.rank() == m.transpose().rank()


def test_matmul_associates_with_combination():
    a = BinMatrix([0b11, 0b10], 2)
    b = BinMatrix([0b101, 0b011], 3)
    prod = a.matmul(b)
    assert prod.rows == [0b101 ^ 0b011, 0b011]


def test_rank_increase():
    m = BinMatrix([0b011, 0b110], 4)
    assert m.rank_increase([0b101]) == 0
    assert m.rank_increase([0b1000, 0b1011]) == 1
    assert m.rank_increase([0b1000, 0b0001]) == 2


def test_residues_of_span_members_are_zero():
    m = BinMatrix([0b0011, 0b0110], 4)
    assert list(m.residues([0b0011, 0b0101, 0])) == [0, 0, 0]
    # each residue joins the span before the next row is reduced
    assert list(m.residues([0b1000, 0b1011, 0b0001])) == [0b1000, 0, 0b0100]
    with pytest.raises(ValueError):
        list(m.residues([0b10000]))


def lowbit_residues(rows, probes):
    """Residues of probes against the span of rows, inserted in the given order."""
    basis = LowbitBasis()
    for r in rows:
        basis.insert(r)
    return [basis.reduce(v) for v in probes]


@pytest.mark.parametrize("seed", range(5))
def test_residues_do_not_depend_on_row_order(seed):
    rng = random.Random(seed)
    n = rng.randrange(20, 150)
    # sparse rows, so that the two orders build different fill
    rows = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
            for _ in range(rng.randrange(5, n))]
    probes = [rng.getrandbits(n) for _ in range(20)]
    ascending = lowbit_residues(sorted(rows), probes)
    assert ascending == lowbit_residues(_descending_lowbit(rows), probes)
    # the method, which eliminates in fill order, gives the same residues
    # and then grows the span by each probe in turn
    grown = LowbitBasis()
    for r in sorted(rows):
        grown.insert(r)
    assert list(BinMatrix(rows, n).residues(probes)) == [grown.insert(v) for v in probes]
    # negative control: without one independent row the span shrinks and
    # some residue changes
    rank = BinMatrix(rows, n).rank()
    i = next(i for i in range(len(rows)) if BinMatrix(rows[:i] + rows[i + 1:], n).rank() < rank)
    dropped = rows[:i] + rows[i + 1:]
    assert lowbit_residues(sorted(dropped), probes + [rows[i]]) != ascending + [0]


def test_mask_helpers():
    assert mask_from_support([0, 2]) == 0b101
    assert support_from_mask(0b101) == [0, 2]
    assert mask_from_support([1, 4, 9]).bit_count() == 3
    assert support_from_mask(0) == []
    # the lowest-set-bit walk agrees with a scan of every position
    rng = random.Random(7)
    for n in (1, 63, 64, 65, 1000):
        mask = rng.getrandbits(n) | 1 << (n - 1)
        assert support_from_mask(mask) == [i for i in range(n) if mask >> i & 1]
        assert mask_from_support(support_from_mask(mask)) == mask


def test_lowbit_insert_matches_elimination():
    # the residue is zero exactly on span members, is zero on every key,
    # and the basis keeps the rank of the vectors fed in
    rng = random.Random(11)
    n = 90
    vecs = [rng.getrandbits(n) for _ in range(30)]
    sparse = [rng.sample(range(n), rng.randint(1, 3)) for _ in range(20)]
    vecs += [mask_from_support(s) for s in sparse]
    vecs += [vecs[0] ^ vecs[1], vecs[2] ^ vecs[3] ^ vecs[4], 0]
    basis = LowbitBasis()
    for i, v in enumerate(vecs):
        before, keys = BinMatrix(vecs[:i], n), list(basis.rows)
        residue = basis.insert(v)
        assert (residue == 0) == before.in_row_space(v)
        assert before.in_row_space(v ^ residue)
        assert not any(residue >> key & 1 for key in keys)
    assert len(basis.rows) == BinMatrix(vecs, n).rank()
    assert all(row & -row == 1 << key for key, row in basis.rows.items())


# ---------------------------------------------------------------------------
# the key-mask reduction against the bit-by-bit walk it replaced


def walk_reduce(rows, v):
    """Residue of v against ``{lowest bit: row}``, visiting every set bit."""
    residue = 0
    while v:
        low = v & -v
        row = rows.get(low.bit_length() - 1)
        if row is None:
            residue |= low
            v ^= low
        else:
            v ^= row
    return residue


def walk_insert(rows, v):
    residue = walk_reduce(rows, v)
    if residue:
        rows[(residue & -residue).bit_length() - 1] = residue
    return residue


def assert_reduces_like_walk(basis, rows, probes):
    assert list(basis.rows.items()) == list(rows.items())
    for v in probes:
        assert basis.reduce(v) == walk_reduce(rows, v)


def assert_inserts_like_walk(vecs, probes):
    """Feed vecs to a LowbitBasis and to the walk: equal residues and equal
    basis dicts, row for row, after every insert."""
    basis, rows = LowbitBasis(), {}
    for v in vecs:
        assert basis.reduce(v) == walk_reduce(rows, v)
        assert basis.insert(v) == walk_insert(rows, v)
        assert list(basis.rows.items()) == list(rows.items())
        assert basis.keys == mask_from_support(rows)
    assert_reduces_like_walk(basis, rows, probes + list(rows.values()))
    return basis, rows


def test_key_mask_reduction_matches_walk_random():
    rng = random.Random(23)
    for n in (1, 7, 64, 65, 200):
        for count in (1, n // 2 + 1, n + 5):
            vecs = [rng.getrandbits(n) for _ in range(count)]
            vecs += [vecs[0] ^ vecs[-1], 0]
            sparse = [mask_from_support(rng.sample(range(n), 1)) for _ in range(5)]
            assert_inserts_like_walk(vecs + sparse, [rng.getrandbits(n) for _ in range(20)])


def _descending_lowbit(rows):
    return sorted(rows, key=lambda r: (r & -r).bit_length(), reverse=True)


def test_key_mask_reduction_matches_walk_on_families(family2, ladder2):
    rng = random.Random(4)
    triple = build_3d_triple(4)
    matrices = [m for blk in triple.blocks for m in (blk.hx, blk.hz)]
    matrices += [family2.blocks[0].hx, family2.blocks[0].hz, ladder2.m0, ladder2.m1]
    for m in matrices:
        probes = [rng.getrandbits(m.cols) for _ in range(10)] + m.rows[:5]
        _, rows = assert_inserts_like_walk(_descending_lowbit(m.rows), probes)
        # the matrix's own cached basis is the same dict, row for row
        assert_reduces_like_walk(m._lowbit_basis(), rows, probes)


def test_key_mask_missing_a_key_is_caught(family2):
    m = family2.blocks[0].hz
    _, rows = assert_inserts_like_walk(_descending_lowbit(m.rows), [])
    broken = LowbitBasis(rows)
    key = sorted(rows)[len(rows) // 2]
    broken.keys ^= 1 << key
    # the row at that key reduces to 0 by the walk but keeps its key bit here
    with pytest.raises(AssertionError):
        assert_reduces_like_walk(broken, rows, list(rows.values()))


# ---------------------------------------------------------------------------
# CSR rows and the column index against int-mask references


def test_from_supports_rejects_bad_indices():
    assert BinMatrix.from_supports(4, [[3, 0, 1], [], [2]]).rows == [0b1011, 0, 0b100]
    with pytest.raises(ValueError, match="outside"):
        BinMatrix.from_supports(4, [[0, 1], [4]])
    with pytest.raises(ValueError, match="outside"):
        BinMatrix.from_supports(4, [[-1]])
    with pytest.raises(ValueError, match="repeated"):
        BinMatrix.from_supports(4, [[1, 2], [3, 0, 3]])
    # the same index at the end of one row and the start of the next is fine
    assert BinMatrix.from_supports(4, [[1, 2], [2, 3], [], [3]]).weights() == [2, 2, 0, 1]
    empty = BinMatrix.from_supports(5, [])
    assert empty.shape == (0, 5)
    assert empty.rows == [] and not any(empty.weights()) and empty.rank() == 0
    assert empty.syndrome([0, 2, 4]) == set()
    assert empty.transpose().shape == (5, 0)
    assert empty.kernel_basis() == [1 << i for i in range(5)]


def random_masks(rng, rows, cols):
    """Random rows with some empty ones and some repeated ones."""
    masks = [rng.getrandbits(cols) if rng.random() < 0.8 else 0 for _ in range(rows)]
    if masks:
        masks += [rng.choice(masks) for _ in range(rng.randrange(3))]
    return masks


def mask_mul_vec(rows, v):
    return sum((r & v).bit_count() % 2 << i for i, r in enumerate(rows))


def mask_transpose(rows, cols):
    return [sum((r >> j & 1) << i for i, r in enumerate(rows)) for j in range(cols)]


def mask_combination(rows, selector):
    acc = 0
    for i, r in enumerate(rows):
        if selector >> i & 1:
            acc ^= r
    return acc


@pytest.mark.parametrize("seed", range(6))
def test_csr_matches_mask_reference(seed):
    rng = random.Random(seed)
    for _ in range(15):
        rows, cols, inner = rng.randrange(0, 12), rng.randrange(1, 70), rng.randrange(1, 9)
        masks = random_masks(rng, rows, cols)
        m = BinMatrix(masks, cols)
        assert m.rows == masks
        assert m.shape == (len(masks), cols)
        assert m.weights() == [r.bit_count() for r in masks]
        assert [list(s) for s in m.supports()] == [support_from_mask(r) for r in masks]
        assert m.mapped_rows([-j for j in range(cols)]) == [
            [-j for j in support_from_mask(r)] for r in masks]
        assert BinMatrix.from_supports(cols, m.supports()).rows == masks
        assert (not any(m.weights())) == (not any(masks))
        assert m.transpose().rows == mask_transpose(masks, cols)
        assert m.transpose().transpose() is m
        # a transpose built afresh from the column index, not linked to m
        fresh = BinMatrix.from_supports(len(masks), m.transpose().supports())
        assert fresh.transpose() is not m and fresh.transpose().rows == masks
        assert [m.support(i) for i in range(len(masks))] == list(m.supports())
        for v in [rng.getrandbits(cols) for _ in range(5)] + [0, (1 << cols) - 1]:
            assert mask_from_support(m.syndrome(support_from_mask(v))) == mask_mul_vec(masks, v)
        for _ in range(3):
            selector = rng.getrandbits(len(masks))
            assert (mask_from_support(m.xor_rows(support_from_mask(selector)))
                    == mask_combination(masks, selector))
        left = BinMatrix(random_masks(rng, inner, len(masks)), len(masks)) if masks else None
        if left is not None:
            assert left.matmul(m).rows == [mask_combination(masks, s) for s in left.rows]
            assert left.product_is_zero(m) == (not any(left.matmul(m).weights()))
        rank = len(reference_rref(masks, cols)[1])
        assert m.rank() == rank
        assert m.kernel_basis() == reference_kernel(masks, cols)
        assert m.product_is_zero(BinMatrix(m.kernel_basis(), cols).transpose())
        assert BinMatrix(masks, cols).rank() == rank


def test_product_is_zero_rejects_an_inner_dimension_mismatch():
    m = BinMatrix.from_supports(3, [[0, 1], [2]])
    for other in (BinMatrix.from_supports(2, [[0], [1]]), m):
        with pytest.raises(ValueError, match="inner dimension"):
            m.product_is_zero(other)


def test_product_is_zero_keeps_no_answer_for_a_rebuilt_matrix(monkeypatch):
    # a triangle's boundary maps: the face's three edges meet each vertex twice
    d2 = BinMatrix.from_supports(3, [[0, 1, 2]])
    d1 = BinMatrix.from_supports(3, [[0, 1], [1, 2], [0, 2]])
    computed, mapped = [], BinMatrix.mapped_rows
    monkeypatch.setattr(BinMatrix, "mapped_rows",
                        lambda self, table: computed.append(self) or mapped(self, table))
    assert d2.product_is_zero(d1) and d2.product_is_zero(d1)
    assert computed == [d2]
    # the same rows rebuilt are a new matrix: computed afresh, still zero
    assert d2.product_is_zero(BinMatrix.from_supports(3, d1.supports()))
    assert computed == [d2, d2]
    # edge 2 rebuilt with vertex 2 moved to vertex 1: computed afresh, not zero
    moved = BinMatrix.from_supports(3, [[0, 1], [1, 2], [0, 1]])
    assert not d2.product_is_zero(moved)
    assert any(d2.matmul(moved).weights())
    assert computed == [d2, d2, d2]
    assert d2.product_is_zero(d1) and not d2.product_is_zero(moved)
    assert computed == [d2, d2, d2]


def test_rank_keeps_no_basis():
    # ranking a block keeps its rank, not its fill-in; a later row-space
    # query eliminates again and agrees with a fresh elimination
    triple = build_3d_triple(4)
    assert [blk.k for blk in triple.blocks] == [3, 3, 3]
    matrices = [m for blk in triple.blocks for m in (blk.hx, blk.hz)]
    assert all(m._basis is None for m in matrices)
    rng = random.Random(12)
    for m in matrices:
        probes = [rng.getrandbits(m.cols) for _ in range(3)]
        probes += [mask_from_support(m.xor_rows(support_from_mask(rng.getrandbits(m.shape[0]))))
                   for _ in range(3)]
        fresh = LowbitBasis()
        for r in m.rows:
            fresh.insert(r)
        for v in probes:
            assert m.in_row_space(v) == (fresh.reduce(v) == 0)
        assert m._basis is not None and len(m._basis.rows) == m.rank()


def test_support_rejects_a_row_outside():
    m = BinMatrix.from_supports(4, [[0, 3], [], [1]])
    assert [m.support(i).tolist() for i in range(3)] == [[0, 3], [], [1]]
    for i in (-1, 3):
        with pytest.raises(IndexError):
            m.support(i)
    with pytest.raises(IndexError):
        BinMatrix.from_supports(4, []).support(0)


def test_syndrome_rejects_a_column_outside():
    m = BinMatrix.from_supports(3, [[0, 2], [1]])
    assert m.syndrome([2]) == {0} and m.syndrome([0, 1, 2]) == {1} and m.syndrome([]) == set()
    for bad in ([-1], [3], [0, -1], [2, 3]):
        with pytest.raises(ValueError, match="outside"):
            m.syndrome(bad)
    assert m.xor_rows([0, 1]) == {0, 1, 2} and m.xor_rows([]) == set()
    for bad in ([-1], [2], [0, -1], [1, 2]):
        with pytest.raises(ValueError, match="outside"):
            m.xor_rows(bad)


@pytest.mark.parametrize("seed", range(3))
def test_transpose_of_transpose_is_the_matrix(seed):
    rng = random.Random(seed)
    for _ in range(10):
        cols = rng.randrange(1, 40)
        m = BinMatrix(random_masks(rng, rng.randrange(0, 10), cols), cols)
        t = m.transpose()
        assert t.transpose() is m and m.transpose() is t
        assert t.transpose().transpose() is t


@pytest.mark.parametrize("seed", range(6))
def test_peel_is_a_lower_bound_on_the_rank(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 30), rng.randint(1, 30)
    m = BinMatrix(random_masks(rng, rows, cols), cols)
    rank = len(reference_rref(m.rows, m.cols)[1])
    assert 0 <= m.peel() <= rank
    # a unit triangular matrix peels exactly, column 0 first
    tri = [1 << i | rng.getrandbits(cols) >> (i + 1) << (i + 1) for i in range(cols)]
    assert BinMatrix(tri, cols).peel() == cols


def test_peel_falls_short_without_a_singleton():
    # full rank, but every column meets two rows or more: row 0 is dropped,
    # and only rows 2 and 1 are then peeled
    m = BinMatrix([0b011, 0b110, 0b111], 3)
    assert m.rank() == 3
    assert m.peel() == 2


def test_peel_counts_zero_and_repeated_rows_once():
    m = BinMatrix([0, 0b101, 0b101, 0], 3)
    assert m.peel() == m.rank() == 1
    assert BinMatrix([], 4).peel() == 0


def test_peel_meets_the_rank_on_the_octaplex_maps(family2, ladder2):
    for m in (ladder2.m1.transpose(), ladder2.hz, ladder2.m0, ladder2.hx):
        assert m.peel() == m.rank()


def test_stacked_appends_rows():
    m = BinMatrix([0b011, 0b100], 3)
    s = m.stacked([[2, 0], []])
    assert s.rows == [0b011, 0b100, 0b101, 0]
    assert s.transpose().transpose() is s
    with pytest.raises(ValueError):
        m.stacked([[3]])
