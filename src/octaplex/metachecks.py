"""Extended Tanner graph of the Z-check side: metachecks and rank ledger.

Levels, bottom to top:

    qubits (3-cells)  <-  Z checks (2-cells)  <-  edge metachecks (1-cells)
                                              <-  vertex metachecks (0-cells)

Block 0 and the ladder are one chain complex, so the ladder is built from
the ``CellComplex`` alone: hx = ∂4, hz = ∂3ᵀ, m1 = ∂2ᵀ and m0 = ∂1ᵀ, the
same objects block 0 holds. Above them sit the global combinations: six
face planes (one per axis pair), four edge hyperplanes (one per axis), the
all-vertices combination, and the all-X-stabilizers combination, each an
index list of the rows it sums, read through ``BinMatrix.xor_rows``. A plane
or hyperplane is looked up cell by cell from its coordinates; the other two
are ranges. Chain conditions m1*hz = 0 and m0*m1 = 0
hold exactly, and the rank bookkeeping

    rank(m0) = 6L^4-1,  rank(m1) = 42L^4-3,
    rank(hz) = 22L^4-3, rank(hx) = 2L^4-1

accounts for all dependencies, leaving 4 logical qubits. That k,
``MetacheckLadder.k``, is block 0's in the ``codes`` and ``distance``
sections too: no other rank of hx0 or hz0 is taken.

Each rank is certified by peeling (``BinMatrix.peel``), not elimination.
A ledger matrix M has a dependency set D with D*M = 0 verified, so
rank(M) + rank(D) <= rows(M), and peel lower bounds that sum to rows(M)
are both exact:

    M   peeled as         D, peeled as                      D*M = 0 from
    m1  faces x edges     [m0; edge hyperplanes]            m0*m1, hyperplanes
    hz  faces x qubits    [m1; face planes], faces x edges  m1*hz, face planes
    m0  vertices x edges  the all-vertices row              vertex sum
    hx  4-cells x qubits  the all-X row                     X sum

A pair that does not close is ranked by elimination and named in
``Ledger.fallbacks``, which the report never carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, combinations, permutations, product

from .binalg import BinMatrix
from .lattice import AXES, CellComplex, sheet, sublattice


@dataclass
class Ledger:
    ranks: dict[str, int]    # of m0, m1, hz, hx and of their dependency sets
    zero: dict[str, bool]    # the verified zero products
    fallbacks: list[str]     # the ranks taken by elimination


@dataclass
class MetacheckLadder:
    cx: CellComplex
    hz: BinMatrix                        # 2-cells x qubits
    hx: BinMatrix                        # 4-cells x qubits
    m1: BinMatrix                        # 1-cells x 2-cells, cx.boundary[2] transposed
    m0: BinMatrix                        # 0-cells x 1-cells, cx.boundary[1] transposed
    globals2: dict[tuple[str, str], list[int]]   # face planes (hz rows), per axis pair
    globals1: dict[str, list[int]]               # edge hyperplanes (m1 rows), per axis
    global0: range                               # all vertices (m0 rows)
    globalX: range                               # all X stabilizer rows

    @cached_property
    def ledger(self) -> Ledger:
        """Zero products (m1·hz, m0·m1 as ∂3·∂2, ∂2·∂1) and certified ranks, once each."""
        m0, m1, hz, hx = self.m0, self.m1, self.hz, self.hx
        planes, hyperplanes = self.globals2.values(), self.globals1.values()
        zero = {
            "m1_hz": hz.transpose().product_is_zero(m1.transpose()),
            "m0_m1": m1.transpose().product_is_zero(m0.transpose()),
            "faces": all(not hz.xor_rows(g) for g in planes),
            "edges": all(not m1.xor_rows(g) for g in hyperplanes),
            "vertices": not m0.xor_rows(self.global0),
            "hx": not hx.xor_rows(self.globalX),
        }
        pairs = (  # M, M as peeled, D's name, D as peeled, D*M = 0 verified
            ("m1", m1.transpose(), "m0+edges", m0.stacked(hyperplanes),
             zero["m0_m1"] and zero["edges"]),
            ("hz", hz, "m1+faces", m1.stacked(planes).transpose(), zero["m1_hz"] and zero["faces"]),
            ("m0", m0, "vertices", BinMatrix.from_supports(m0.shape[0], [self.global0]),
             zero["vertices"]),
            ("hx", hx, "x", BinMatrix.from_supports(hx.shape[0], [self.globalX]), zero["hx"]),
        )
        ledger = Ledger({}, zero, [])
        for name, peeled, dep, d, closed in pairs:
            m = getattr(self, name)
            lower = (peeled.peel(), d.peel())
            if not closed or sum(lower) != m.shape[0]:
                lower = (m.rank(), d.rank())
                ledger.fallbacks += [name, dep]
            ledger.ranks[name], ledger.ranks[dep] = lower
        return ledger

    @property
    def k(self) -> int:
        """n - rank(hx) - rank(hz), both ranks from the ledger."""
        return self.hz.cols - self.ledger.ranks["hx"] - self.ledger.ranks["hz"]


def _face_plane(cx: CellComplex, ax1: int, ax2: int) -> list[int]:
    """The faces at value 1 on the other two axes whose (ax1, ax2)
    coordinates lie on the integer and quarter sublattices, in either order."""
    on = partial(sublattice, range(cx.period))
    pairs = chain(product(on(0), on(1, 3)), product(on(1, 3), on(0)))
    return sorted(cx.cells[2].index([u if i == ax1 else v if i == ax2 else 1 for i in range(4)])
                  for u, v in pairs)


def _edge_hyperplane(cx: CellComplex, a: int) -> list[int]:
    """The edges on the sheet at value 1 on axis a: one of the other three
    coordinates lies on each of the integer, half and quarter sublattices."""
    on = partial(sublattice, range(cx.period))
    sheets = (sheet(a, 1, free) for free in permutations((on(0), on(2), on(1, 3))))
    return sorted(map(cx.cells[1].index, chain.from_iterable(sheets)))


def build_ladder(cx: CellComplex) -> MetacheckLadder:
    """Block 0's ladder from the complex alone: hz = ∂3ᵀ and hx = ∂4 are the
    objects block 0 holds. Each global is read off its cells' coordinates."""
    hz, hx = cx.boundary[3].transpose(), cx.boundary[4]
    globals2 = {(AXES[i], AXES[j]): _face_plane(cx, i, j) for i, j in combinations(range(4), 2)}
    globals1 = {AXES[a]: _edge_hyperplane(cx, a) for a in range(4)}
    return MetacheckLadder(
        cx, hz, hx, cx.boundary[2].transpose(), cx.boundary[1].transpose(),
        globals2, globals1, range(len(cx.cells[0])), range(hx.shape[0]),
    )


def verify_counting(ladder: MetacheckLadder) -> dict:
    """The ledger's ranks against the stated counts at the ladder's L."""
    ledger, L = ladder.ledger, ladder.cx.L
    ranks = {name: ledger.ranks[name] for name in ("m0", "m1", "hz", "hx")}
    expected = {"m0": 6 * L**4 - 1, "m1": 42 * L**4 - 3, "hz": 22 * L**4 - 3, "hx": 2 * L**4 - 1}
    rec = {
        "ranks": ranks,
        "expected": expected,
        "chain_m1_hz_zero": ledger.zero["m1_hz"],
        "chain_m0_m1_zero": ledger.zero["m0_m1"],
        "k": ladder.k,
        "sum_hx_rows_zero": ledger.zero["hx"],
        "total_independent_generators": ranks["hx"] + ranks["hz"],
    }
    rec["passed"] = (ranks == expected and rec["chain_m1_hz_zero"] and rec["chain_m0_m1_zero"]
                     and rec["k"] == 4 and rec["sum_hx_rows_zero"])
    return rec


def verify_global_constraints(ladder: MetacheckLadder) -> dict:
    # A global is a dependency of hz (face planes) or of m1 (edge hyperplanes)
    # that the local ones, m1 and m0, do not span: the gain is a rank difference.
    zero, ranks = ladder.ledger.zero, ladder.ledger.ranks
    rec = {
        "face_planes_zero_on_qubits": zero["faces"],
        "face_planes_rank_gain": ranks["m1+faces"] - ranks["m1"],
        "edge_hyperplanes_zero_on_faces": zero["edges"],
        "edge_hyperplanes_rank_gain": ranks["m0+edges"] - ranks["m0"],
        "vertex_sum_zero_on_edges": zero["vertices"],
        "m0_rank_deficit": ladder.m0.shape[0] - ranks["m0"],
        "hx_sum_zero": zero["hx"],
        "hx_rank_deficit": ladder.hx.shape[0] - ranks["hx"],
    }
    rec["passed"] = (
        zero["faces"] and rec["face_planes_rank_gain"] == 6
        and zero["edges"] and rec["edge_hyperplanes_rank_gain"] == 4
        and zero["vertices"] and rec["m0_rank_deficit"] == 1
        and zero["hx"] and rec["hx_rank_deficit"] == 1
    )
    return rec


def single_shot_repair_demo(ladder: MetacheckLadder, flipped_checks: set[int]) -> dict:
    """Metacheck syndrome of a set of flipped Z-check outcomes.

    A single flipped triangular check violates the metachecks of its three
    boundary edges (a triangle has three edges); each edge metacheck spans
    four faces. Both counts are reported. For single flips the flipped check
    is recovered uniquely from its violated-edge set: it is the face on the
    first violated edge whose boundary is exactly that set.
    """
    violated = sorted(ladder.m1.syndrome(sorted(flipped_checks)))
    identified = None
    per_flip = None
    d2 = ladder.cx.boundary[2]
    if len(flipped_checks) == 1:
        per_flip = len(violated)
        faces = d2.transpose().support(violated[0]) if violated else ()
        identified = next((f for f in faces if d2.support(f).tolist() == violated), None)
    return {
        "violated_edges": violated,
        "violated_per_flip": per_flip,
        "identified_face": identified,
        "edge_metacheck_row_weight": ladder.m1.weights()[0],
        "face_boundary_edge_count": len(d2.support(0)),
    }
