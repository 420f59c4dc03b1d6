"""Transversal multi-controlled-Z verification.

For codeblocks sharing one qubit index, a transversal CZ/CCZ/CCCZ preserves
the joint codespace iff every mixed intersection of X stabilizers and X
logicals across the blocks has even weight, except the pure-logical one,
whose parities form the coupling tensor of the induced logical gate.

A tuple of rows, one per block, has a nonempty intersection only if its rows
share a qubit. `_weight_counts` therefore counts every intersection weight
from per-qubit incidence lists, one Counter per block of slot-0 rows, and
the even conditions, the coupling tensor and the triple-weight histogram
all read those Counters unsorted; every tuple not counted has weight 0.
The CZ, CCZ and CCCZ checks share one scan, `_scan`: it checks the block
count, indexes each row list (a block's X stabilizers, a block's X
logicals) once, as a `_RowIndex`, runs one condition level per block over
every block placement and reads the coupling tensor; each check then adds
its own extras. The CCZ check counts the stabilizer triples once for both
its all-stabilizer condition and the histogram. The ``threads`` argument of
the ``check_*_conditions`` functions is accepted and has no effect.

All parities here are multilinear in each slot (intersection distributes
over symmetric difference), so checking generators plus fixed
representatives covers the full stabilizer group; `multilinearity_holds`
spot-checks that identity.

The phase-polynomial engine represents diagonal gates at the pi-phase level
as sets of monomials over named binary variables and implements conjugation
by X (variable substitution x -> 1 + x), which is what reduces a sandwiched
multi-controlled-Z to a lower-arity gate.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, product, repeat
from typing import Iterable, Iterator, Sequence

from .binalg import BinMatrix
from .codes import CodeFamily
from .logicals import LogicalBasis, PauliSupport, logical_class

# Expected coupling pattern for the periodic four-block family: every
# quadruple of pairwise-distinct directions couples (the four X hyperplanes
# then intersect in an odd point set). Derived independently of the checker:
# the quarter sheets of all four operators meet in the single cell with all
# quarter coordinates when, and only when, the directions are a permutation.
ALL_DISTINCT_QUADRUPLES = tuple(
    q for q in product(range(4), repeat=4) if len(set(q)) == 4
)

# The four quartets the construction is stated to couple (a strict subset of
# the above; the measured tensor decides which pattern actually holds).
STATED_QUARTETS = ((3, 2, 1, 0), (2, 3, 0, 1), (1, 0, 3, 2), (0, 1, 2, 3))

ALL_DISTINCT_TRIPLES = tuple(
    t for t in product(range(3), repeat=3) if len(set(t)) == 3
)


@dataclass
class TransversalReport:
    arity: int
    conditions: list[dict]  # {name, passed, quadruples_scanned, witness}
    tensor: dict[tuple, int]
    tensor_labels: list[str]
    pairing_is_identity: bool | None = None
    extras: dict = field(default_factory=dict)

    @property
    def all_even_pass(self) -> bool:
        return all(c["passed"] for c in self.conditions)

    @property
    def scanned(self) -> int:
        return sum(c["quadruples_scanned"] for c in self.conditions)

    def tensor_support(self) -> list[tuple]:
        return sorted(k for k, v in self.tensor.items() if v)

    def as_dict(self) -> dict:
        return {
            "arity": self.arity,
            "conditions": self.conditions,
            "coupling_tensor_nonzero": [list(k) for k in self.tensor_support()],
            "tensor_labels": self.tensor_labels,
            "pairing_is_identity": self.pairing_is_identity,
            "quadruples_scanned": self.scanned,
            **self.extras,
        }


class _RowIndex:
    """One row list, read from a matrix: its CSR form with each entry's row,
    and the rows on each qubit (the empty tuple on a qubit no row meets)."""

    def __init__(self, m: BinMatrix):
        weights = m.weights()
        self.offsets = [0, *accumulate(weights)]
        self.qubits = array("i", chain.from_iterable(m.supports()))
        self.rowid = array("i", chain.from_iterable(map(repeat, range(len(weights)), weights)))
        self.rows_at = rows_at = [()] * m.cols
        for r, s in enumerate(m.supports()):
            for q in s:
                rows_at[q] += (r,)

    def __len__(self) -> int:
        return len(self.offsets) - 1


# Slot-0 rows per Counter, from a sweep of 1, 8, 64 and whole placements: 1
# is the slowest, and whole placements lift peak RSS by 8% at 3d L=12.
BLOCK_ROWS = 8


def _weight_counts(slots: Sequence[_RowIndex]) -> Iterator[Counter]:
    """Per block of `BLOCK_ROWS` slot-0 rows, in row order: each tuple of
    row indices, one per slot, whose rows share a qubit, counted once per
    shared qubit (its weight). Slot 0's entry (row i, qubit q) gives
    ``(i, *t)`` for each tuple t of the other slots' rows on q."""
    first, rest = slots[0], slots[1:]
    offsets, rows = first.offsets, len(first)
    for r in range(0, rows, BLOCK_ROWS):
        lo, hi = offsets[r], offsets[min(r + BLOCK_ROWS, rows)]
        yield Counter(chain.from_iterable(map(
            product, zip(first.rowid[lo:hi]),
            *(map(slot.rows_at.__getitem__, first.qubits[lo:hi]) for slot in rest))))


def _first_odd(slots: Sequence[_RowIndex], hist: Counter | None = None) -> tuple | None:
    """The lexicographically first tuple of odd weight, or None; no block
    after its own is read. With ``hist``, every block is read and every tuple
    of the product is counted into ``hist`` by weight, 0 for those sharing
    no qubit."""
    odd, nonempty = None, 0
    for counts in _weight_counts(slots):
        weights = Counter(counts.values())
        if odd is None and any(w & 1 for w in weights):
            odd = min(t for t, w in counts.items() if w & 1)
            if hist is None:
                return odd
        if hist is not None:
            hist.update(weights)
            nonempty += len(counts)
    if hist is not None and (empty := math.prod(map(len, slots)) - nonempty):
        hist[0] += empty
    return odd


def _mixed_conditions(stab: list[_RowIndex], logical: list[_RowIndex], n_logical_slots: int,
                      name: str, hist: Counter | None = None) -> dict:
    """One condition level: a fixed number of logical slots over all block
    placements, stabilizers filling the rest.

    ``quadruples_scanned`` is the full product size of every placement, the
    witness the first placement's lexicographically first odd tuple. ``hist``,
    if given, counts every placement's tuples by weight (see `_first_odd`).
    """
    blocks = range(len(stab))
    scanned = 0
    witness = None
    for logical_blocks in combinations(blocks, n_logical_slots):
        slots = [logical[b] if b in logical_blocks else stab[b] for b in blocks]
        scanned += math.prod(map(len, slots))
        odd = _first_odd(slots, hist) if witness is None or hist is not None else None
        if odd is not None and witness is None:
            witness = (logical_blocks, odd)
    return {"name": name, "passed": witness is None, "quadruples_scanned": scanned,
            "witness": witness}


def _coupling_tensor(logical: list[_RowIndex]) -> dict[tuple, int]:
    shape = [range(len(slot)) for slot in logical]
    tensor = dict.fromkeys(product(*shape), 0)
    for counts in _weight_counts(logical):
        tensor.update((t, w & 1) for t, w in counts.items())
    return tensor


def _scan(family: CodeFamily, basis: LogicalBasis, names: Sequence[str],
          hist: Counter | None = None) -> tuple[list[dict], dict[tuple, int], int]:
    """One condition per block, named by ``names`` (level i has i logical
    slots), the coupling tensor and k. Each block's X stabilizers and X
    logicals are indexed once; ``hist``, if given, counts level 0's tuples."""
    if len(family.blocks) != len(names):
        raise ValueError(f"need exactly {len(names)} blocks")
    stab = [_RowIndex(b.hx) for b in family.blocks]
    logical = [_RowIndex(x) for x in basis.x_ops]
    conditions = [_mixed_conditions(stab, logical, i, name, hist if i == 0 else None)
                  for i, name in enumerate(names)]
    return conditions, _coupling_tensor(logical), len(logical[0])


def check_cz_conditions(
    family: CodeFamily, basis: LogicalBasis, threads: int = 1
) -> TransversalReport:
    """Two-block conditions: stabilizer overlaps even, logical pairing measured."""
    conditions, tensor, k = _scan(family, basis, ("stab_stab_even", "stab_logical_even"))
    identity = all(
        tensor[(i, j)] == (1 if i == j else 0)
        for i in range(k)
        for j in range(k)
    )
    return TransversalReport(
        2, conditions, tensor, list(basis.labels), pairing_is_identity=identity
    )


def check_ccz_conditions(
    family: CodeFamily, basis: LogicalBasis, threads: int = 1
) -> TransversalReport:
    hist: Counter = Counter()
    conditions, tensor, _ = _scan(family, basis, ("sss_even", "ssl_even", "sll_even"), hist)
    extras = {"triple_intersection_weights": sorted(hist)}
    return TransversalReport(3, conditions, tensor, list(basis.labels), extras=extras)


def triple_weight_histogram(stabs: list[BinMatrix]) -> dict[int, int]:
    """Number of stabilizer triples, one row per block, per intersection weight."""
    hist: Counter = Counter()
    _first_odd(list(map(_RowIndex, stabs)), hist)
    return dict(hist)


def check_cccz_conditions(
    family: CodeFamily, basis: LogicalBasis, threads: int = 1
) -> TransversalReport:
    conditions, tensor, k = _scan(family, basis, ("ssss_even", "sssl_even", "ssll_even",
                                                  "slll_even"))
    support = sorted(t for t, v in tensor.items() if v)
    extras: dict = {}
    if k == 4:
        extras["tensor_is_all_distinct_pattern"] = (
            support == sorted(ALL_DISTINCT_QUADRUPLES)
        )
        extras["tensor_matches_stated_quartets"] = (
            support == sorted(STATED_QUARTETS)
        )
        extras["tensor_entries_are_permutations"] = all(
            len(set(q)) == 4 for q in support
        )
    if k == 1:
        extras["single_cccz"] = support == [(0, 0, 0, 0)]
    return TransversalReport(4, conditions, tensor, list(basis.labels), extras=extras)


def multilinearity_holds(
    slot_a: Sequence[Sequence[int]], others: Sequence[Sequence[int]],
    trials: Sequence[tuple[int, int]],
) -> bool:
    """|(a xor a') & M| == |a & M| + |a' & M| mod 2, for supports a, a' of
    ``slot_a`` and M the common intersection of ``others``."""
    rest = set.intersection(*map(set, others))
    for i, j in trials:
        a, b = set(slot_a[i]), set(slot_a[j])
        if len((a ^ b) & rest) % 2 != (len(a & rest) + len(b & rest)) % 2:
            return False
    return True


def induced_logical_z(
    family: CodeFamily,
    basis: LogicalBasis,
    reps: Sequence[tuple[int, int]],
) -> tuple[int, ...] | None:
    """Logical class, on the remaining block, of the common intersection of
    three X logicals given as (block, direction) pairs from distinct blocks."""
    blocks = [b for b, _ in reps]
    if len(set(blocks)) != 3 or len(family.blocks) != 4:
        raise ValueError("need X logicals from three distinct blocks of four")
    target = next(b for b in range(4) if b not in blocks)
    common = set.intersection(*(set(basis.x_ops[b].support(d)) for b, d in reps))
    return logical_class(family, basis, PauliSupport("Z", target, sorted(common)))


# ---------------------------------------------------------------------------
# phase polynomials


@dataclass(frozen=True)
class PhasePolynomial:
    """Multilinear polynomial over GF(2); the gate is (-1)^(sum of monomials)."""

    monomials: frozenset[frozenset[str]] = frozenset()

    @classmethod
    def multi_controlled_z(cls, variables: Iterable[str]) -> "PhasePolynomial":
        vs = frozenset(variables)
        if len(vs) < 1:
            raise ValueError("need at least one variable")
        return cls(frozenset({vs}))

    def __xor__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        return PhasePolynomial(self.monomials ^ other.monomials)

    def conjugated_by_x(self, var: str) -> "PhasePolynomial":
        """Polynomial of X G X: substitute var -> 1 + var."""
        out: set[frozenset[str]] = set()
        for m in self.monomials:
            out ^= {m}
            if var in m:
                out ^= {m - {var}}
        return PhasePolynomial(frozenset(out))

    def sandwich(self, var: str) -> "PhasePolynomial":
        """Diagonal part of G X G beyond the X itself: G + X G X."""
        return self ^ self.conjugated_by_x(var)

    def is_single_monomial(self, variables: Iterable[str]) -> bool:
        return self.monomials == frozenset({frozenset(variables)})

    def degree(self) -> int:
        return max((len(m) for m in self.monomials), default=0)


def sandwich_identity(gate_arity: int, flipped_qubit: int) -> PhasePolynomial:
    """G X_i G for an arity-n controlled-Z gate G, as a phase polynomial.

    The result must be the single monomial over the remaining variables.
    """
    if gate_arity < 2 or not (0 <= flipped_qubit < gate_arity):
        raise ValueError("arity >= 2 and flipped qubit within range required")
    names = [f"q{i}" for i in range(gate_arity)]
    gate = PhasePolynomial.multi_controlled_z(names)
    return gate.sandwich(names[flipped_qubit])


def targeted_gate_from_rounds(
    coupled_sets: Sequence[Sequence[str]], flipped: str
) -> PhasePolynomial:
    """Sandwich one logical X between two rounds of a coupled gate product.

    ``coupled_sets`` lists the monomials the transversal gate implements;
    sandwiching keeps exactly the reduced monomials of those containing the
    flipped variable.
    """
    gate = PhasePolynomial(frozenset(frozenset(s) for s in coupled_sets))
    return gate.sandwich(flipped)
