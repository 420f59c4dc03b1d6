"""Extended Tanner graph of the Z-check side: metachecks and rank ledger.

Levels, bottom to top:

    qubits (3-cells)  <-  Z checks (2-cells)  <-  edge metachecks (1-cells)
                                              <-  vertex metachecks (0-cells)

plus the global combinations: six face planes (one per axis pair), four edge
hyperplanes (one per axis), the all-vertices combination, and the
all-X-stabilizers combination. Chain conditions m1*hz = 0 and m0*m1 = 0 hold
exactly, and the rank bookkeeping

    rank(m0) = 6L^4-1,  rank(m1) = 42L^4-3,
    rank(hz) = 22L^4-3, rank(hx) = 2L^4-1

accounts for all dependencies, leaving 4 logical qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binalg import BinMatrix, mask_from_support, support_from_mask
from .codes import Codeblock
from .lattice import AXES, CellComplex


@dataclass
class MetacheckLadder:
    cx: CellComplex
    hz: BinMatrix                        # 2-cells x qubits
    hx: BinMatrix                        # 4-cells x qubits
    m1: BinMatrix                        # 1-cells x 2-cells, cx.boundary[2] transposed
    m0: BinMatrix                        # 0-cells x 1-cells, cx.boundary[1] transposed
    globals2: dict[tuple[str, str], int]   # face planes (hz rows), per axis pair
    globals1: dict[str, int]               # edge hyperplanes (m1 rows), per axis
    global0: int                           # all vertices (m0 rows)
    globalX: int                           # all X stabilizer rows


def _face_plane(cx: CellComplex, ax1: int, ax2: int) -> int:
    """Faces with both transverse coordinates at value 1 and the (ax1, ax2)
    coordinates on the integer/quarter sublattices in either order."""
    other = [i for i in range(4) if i not in (ax1, ax2)]
    sel = []
    for i, f in enumerate(cx.cells[2]):
        if f[other[0]] != 1 or f[other[1]] != 1:
            continue
        a, b = f[ax1], f[ax2]
        if (a % 4 == 0 and b % 2 == 1) or (a % 2 == 1 and b % 4 == 0):
            sel.append(i)
    return mask_from_support(sel)


def _edge_hyperplane(cx: CellComplex, axis: int) -> int:
    return mask_from_support(i for i, e in enumerate(cx.cells[1]) if e[axis] == 1)


def build_ladder(cx: CellComplex, block0: Codeblock) -> MetacheckLadder:
    globals2 = {}
    for i in range(4):
        for j in range(i + 1, 4):
            globals2[(AXES[i], AXES[j])] = _face_plane(cx, i, j)
    globals1 = {AXES[i]: _edge_hyperplane(cx, i) for i in range(4)}
    global0 = (1 << len(cx.cells[0])) - 1
    globalX = (1 << block0.hx.shape[0]) - 1
    return MetacheckLadder(
        cx, block0.hz, block0.hx, cx.boundary[2].transpose(), cx.boundary[1].transpose(),
        globals2, globals1, global0, globalX,
    )


@dataclass
class CountingReport:
    L: int
    ranks: dict[str, int]
    expected: dict[str, int]
    chain_m1_hz_zero: bool
    chain_m0_m1_zero: bool
    k: int
    sum_hx_rows_zero: bool
    total_independent: int

    @property
    def passed(self) -> bool:
        return (
            self.ranks == self.expected
            and self.chain_m1_hz_zero
            and self.chain_m0_m1_zero
            and self.k == 4
            and self.sum_hx_rows_zero
        )

    def as_dict(self) -> dict:
        return {
            "ranks": self.ranks,
            "expected": self.expected,
            "chain_m1_hz_zero": self.chain_m1_hz_zero,
            "chain_m0_m1_zero": self.chain_m0_m1_zero,
            "k": self.k,
            "sum_hx_rows_zero": self.sum_hx_rows_zero,
            "total_independent_generators": self.total_independent,
            "passed": self.passed,
        }


def verify_counting(ladder: MetacheckLadder, L: int) -> CountingReport:
    ranks = {
        "m0": ladder.m0.rank(),
        "m1": ladder.m1.rank(),
        "hz": ladder.hz.rank(),
        "hx": ladder.hx.rank(),
    }
    expected = {
        "m0": 6 * L**4 - 1,
        "m1": 42 * L**4 - 3,
        "hz": 22 * L**4 - 3,
        "hx": 2 * L**4 - 1,
    }
    n = ladder.hz.cols
    k = n - ranks["hx"] - ranks["hz"]
    return CountingReport(
        L=L,
        ranks=ranks,
        expected=expected,
        chain_m1_hz_zero=ladder.m1.matmul(ladder.hz).is_zero(),
        chain_m0_m1_zero=ladder.m0.matmul(ladder.m1).is_zero(),
        k=k,
        sum_hx_rows_zero=(ladder.hx.row_combination(ladder.globalX) == 0),
        total_independent=ranks["hx"] + ranks["hz"],
    )


@dataclass
class GlobalConstraintReport:
    face_planes_zero_on_qubits: bool
    face_planes_rank_gain: int
    edge_hyperplanes_zero_on_faces: bool
    edge_hyperplanes_rank_gain: int
    vertex_sum_zero_on_edges: bool
    m0_rank_deficit: int
    hx_sum_zero: bool
    hx_rank_deficit: int

    @property
    def passed(self) -> bool:
        return (
            self.face_planes_zero_on_qubits
            and self.face_planes_rank_gain == 6
            and self.edge_hyperplanes_zero_on_faces
            and self.edge_hyperplanes_rank_gain == 4
            and self.vertex_sum_zero_on_edges
            and self.m0_rank_deficit == 1
            and self.hx_sum_zero
            and self.hx_rank_deficit == 1
        )

    def as_dict(self) -> dict:
        d = self.__dict__.copy()
        d["passed"] = self.passed
        return d


def verify_global_constraints(ladder: MetacheckLadder) -> GlobalConstraintReport:
    faces_zero = all(not ladder.hz.row_combination(g) for g in ladder.globals2.values())
    # A face plane is a dependency among hz rows; independence from the local
    # (edge) dependencies shows up as rank gain over m1's row space.
    gain2 = ladder.m1.rank_increase(list(ladder.globals2.values()))

    edges_zero = all(not ladder.m1.row_combination(g) for g in ladder.globals1.values())
    gain1 = ladder.m0.rank_increase(list(ladder.globals1.values()))

    vertex_sum = ladder.m0.row_combination(ladder.global0)
    hx_sum = ladder.hx.row_combination(ladder.globalX)
    return GlobalConstraintReport(
        face_planes_zero_on_qubits=faces_zero,
        face_planes_rank_gain=gain2,
        edge_hyperplanes_zero_on_faces=edges_zero,
        edge_hyperplanes_rank_gain=gain1,
        vertex_sum_zero_on_edges=(vertex_sum == 0),
        m0_rank_deficit=ladder.m0.shape[0] - ladder.m0.rank(),
        hx_sum_zero=(hx_sum == 0),
        hx_rank_deficit=ladder.hx.shape[0] - ladder.hx.rank(),
    )


@dataclass
class RepairDemo:
    violated_edges: list[int]
    violated_per_flip: int | None
    identified_face: int | None
    edge_metacheck_row_weight: int
    face_boundary_edge_count: int

    def as_dict(self) -> dict:
        return self.__dict__.copy()


def single_shot_repair_demo(
    ladder: MetacheckLadder, flipped_checks: set[int]
) -> RepairDemo:
    """Metacheck syndrome of a set of flipped Z-check outcomes.

    A single flipped triangular check violates the metachecks of its three
    boundary edges (a triangle has three edges); each edge metacheck spans
    four faces. Both counts are reported. For single flips the flipped check
    is recovered uniquely from its violated-edge set: it is the face on the
    first violated edge whose boundary is exactly that set.
    """
    flip_mask = mask_from_support(flipped_checks)
    violated = support_from_mask(ladder.m1.mul_vec(flip_mask))
    identified = None
    per_flip = None
    if len(flipped_checks) == 1:
        per_flip = len(violated)
        d2 = ladder.cx.boundary[2]
        faces = d2.transpose().support(violated[0]) if violated else ()
        identified = next((f for f in faces if d2.support(f).tolist() == violated), None)
    return RepairDemo(
        violated_edges=violated,
        violated_per_flip=per_flip,
        identified_face=identified,
        edge_metacheck_row_weight=ladder.m1.weights()[0],
        face_boundary_edge_count=len(ladder.cx.boundary[2].support(0)),
    )


def tanner_graph_json(ladder: MetacheckLadder) -> dict:
    cx = ladder.cx
    return {
        "levels": ["qubits", "z_checks", "edge_metachecks", "vertex_metachecks"],
        "counts": {
            "qubits": len(cx.cells[3]),
            "z_checks": len(cx.cells[2]),
            "edge_metachecks": len(cx.cells[1]),
            "vertex_metachecks": len(cx.cells[0]),
        },
        "z_check_supports": [list(s) for s in ladder.hz.supports()],
        "edge_metacheck_supports": [list(s) for s in ladder.m1.supports()],
        "vertex_metacheck_supports": [list(s) for s in ladder.m0.supports()],
        "globals": {
            "face_planes": {
                "-".join(k): support_from_mask(v) for k, v in ladder.globals2.items()
            },
            "edge_hyperplanes": {
                k: support_from_mask(v) for k, v in ladder.globals1.items()
            },
            "all_vertices": "all",
            "all_x_stabilizers": "all",
        },
    }
