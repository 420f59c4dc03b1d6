"""End-to-end verification runs and the machine-readable report.

A report is a dict of sections, each carrying ``status`` ("pass", "fail" or
"skipped") plus section data. Section status reflects verified structural
invariants; where a measured quantity disagrees with a stated target value
(the hyperplane-weight distance formula, the four-quartet coupling list),
the mismatch is emitted in the top-level ``discrepancies`` block so it
cannot be missed, with the measured and stated values side by side.

Every family runs through one driver, ``run_report``, over that family's
table in ``SECTIONS``: a section function returns ``(passed, data,
discrepancies)``, ``data`` being the record as the report carries it.
``requested_sections`` checks a run's inputs; ``export`` reads its matrices
off a run through ``EXPORTS``.

The canonical JSON rendering contains no timings; wall-clock per build phase
and per section is kept in the text summary so that report bytes are
reproducible.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Sequence

from . import __version__
from .binalg import BinMatrix
from .codes import (
    CodeFamily,
    Codeblock,
    bounded_boundary_coordinate_count,
    build_2d_pair,
    build_3d_triple,
    build_bounded_family,
    build_family,
    edge_shift,
    shifted_qubit_permutation,
)
from .exports import canonical_json
from .lattice import (
    Color,
    boundary_composition_is_zero,
    build_octaplex,
    cross_check_nearest,
    euler_characteristic,
)
from .logicals import (
    build_logicals,
    certify_distances,
    verify_logical_basis,
)
from .metachecks import (
    build_ladder,
    single_shot_repair_demo,
    verify_counting,
    verify_global_constraints,
)
from .transversal import (
    ALL_DISTINCT_TRIPLES,
    STATED_QUARTETS,
    check_ccz_conditions,
    check_cz_conditions,
    check_cccz_conditions,
)

SECTION_NAMES = ("lattice", "codes", "logicals", "transversal", "distance", "metachecks")
# Each fault kind and the section that must catch it.
FAULT_KINDS = {"perturb-logical": "logicals", "recolor-vertex": "lattice",
               "drop-m1-entry": "metachecks"}


@dataclass
class Fault:
    """Deterministic corruption for negative-control runs."""

    kind: str               # one of FAULT_KINDS
    seed: int = 0

    def pick(self, count: int) -> int:
        # simple LCG so fault choice is reproducible across platforms
        state = (self.seed * 6364136223846793005 + 1442695040888963407) % 2**63
        return state % count


@dataclass
class RunResult:
    report: dict
    ok: bool
    timings: dict[str, float] = field(default_factory=dict)


@dataclass
class _Run:
    """One report run: its inputs, its report and its shared objects.

    ``cx``, ``family``, ``basis`` and ``ladder`` are built on first use,
    each once, and timed. A fault is applied right after the object it
    corrupts.
    """

    name: str
    L: int
    fault: Fault | None
    report: dict
    timings: dict[str, float] = field(default_factory=dict)
    timed_s: float = 0.0

    def timed(self, phase: str, fn, *args):
        """Call ``fn(*args)``, adding its time net of nested phases to ``phase``."""
        t0, inner = time.monotonic(), self.timed_s
        out = fn(*args)
        t = time.monotonic() - t0 - (self.timed_s - inner)
        self.timings[phase] = self.timings.get(phase, 0.0) + t
        self.timed_s += t
        return out

    @cached_property
    def cx(self):
        cx = self.timed("build", build_octaplex, self.L)
        if self.fault is not None and self.fault.kind == "recolor-vertex":
            i = self.fault.pick(len(cx.colors))
            cx.colors[i] = next(c for c in Color if c != cx.colors[i])
            self.report["fault"] = {"kind": self.fault.kind, "vertex": i}
        return cx

    @cached_property
    def family(self) -> CodeFamily:
        return self.timed("codes_build", BUILDERS[self.name], self)

    @cached_property
    def basis(self):
        basis = self.timed("logicals_build", build_logicals, self.family)
        if self.fault is not None and self.fault.kind == "perturb-logical":
            i = self.fault.pick(self.family.n)
            rows = [set(s) for s in basis.x_ops[0].supports()]
            rows[0] ^= {i}
            basis.x_ops[0] = BinMatrix.from_supports(self.family.n, rows)
            self.report["fault"] = {"kind": self.fault.kind, "qubit": i}
        return basis

    @cached_property
    def ladder(self):
        """Block 0's ladder, from ``cx`` alone; its rank ledger, which ``codes``,
        ``distance`` and ``metachecks`` all read, is computed in the same phase."""
        ladder = self.timed("ladder_build", build_ladder, self.cx)
        if self.fault is not None and self.fault.kind == "drop-m1-entry":
            rows = [list(s) for s in ladder.m1.supports()]
            edge = self.fault.pick(len(rows))
            face = rows[edge].pop(self.fault.pick(len(rows[edge])))
            ladder = replace(ladder, m1=BinMatrix.from_supports(ladder.m1.cols, rows))
            self.report["fault"] = {"kind": self.fault.kind, "edge": edge, "face": face}
        self.timed("ladder_build", getattr, ladder, "ledger")
        return ladder


def requested_sections(family: str, L: int, sections: set[str] | None,
                       fault: Fault | None) -> set[str]:
    """The sections a run of ``family`` at size L executes, all of them for None.

    A ``ValueError``, before anything is built, unless L ≥ 2 (and even for
    ``3d``, whose cubes are 2-colored), the sections are a nonempty subset of
    the family's and, given a fault, the family is ``octaplex`` and the
    section that catches the fault is among them: a fault no section reads
    would pass silently.
    """
    if L < 2:
        raise ValueError("L must be >= 2")
    if family == "3d" and L % 2:
        raise ValueError("the 3d family needs even L (cube 2-coloring)")
    table = SECTIONS[family]
    wanted = set(table) if sections is None else set(sections)
    if not wanted:
        raise ValueError("no section is requested")
    if unknown := sorted(wanted - table.keys()):
        raise ValueError(f"sections {unknown} are not defined for the {family} family")
    if fault is not None:
        if family != "octaplex":
            raise ValueError(f"faults are not supported for the {family} family")
        catcher = FAULT_KINDS.get(fault.kind)
        if catcher not in wanted:
            raise ValueError(f"fault {fault.kind} is caught by the {catcher} section, "
                             "which is not requested")
    return wanted


def run_report(
    family: str,
    L: int,
    threads: int = 1,
    sections: set[str] | None = None,
    fault: Fault | None = None,
) -> RunResult:
    """Run the requested sections of ``SECTIONS[family]`` (all for None).

    L, the sections and the fault must pass ``requested_sections``;
    otherwise ``ValueError``. ``threads`` is accepted and has no effect.
    """
    wanted = requested_sections(family, L, sections, fault)
    table = SECTIONS[family]
    report: dict = {
        "tool_version": __version__,
        "family": family,
        "L": L,
        "sections": {},
        "discrepancies": [],
    }
    run = _Run(family, L, fault, report)
    for name in SECTION_NAMES:
        if name not in wanted:
            report["sections"][name] = {"status": "skipped"}
            continue
        passed, data, discrepancies = run.timed(name, table[name], run)
        report["sections"][name] = {"status": "pass" if passed else "fail", **data}
        report["discrepancies"].extend(discrepancies)
    ok = all(s["status"] != "fail" for s in report["sections"].values())
    return RunResult(report, ok, run.timings)


def _octaplex_lattice(run: _Run):
    cx, L = run.cx, run.L
    counts = [len(cx.cells[d]) for d in range(5)]
    expected = [6 * L**4, 48 * L**4, 64 * L**4, 24 * L**4, 2 * L**4]
    color_balance = {Color(c).name.lower(): cx.colors.count(c) for c in set(cx.colors)}
    same_color_edge = next(([a, b] for a, b in cx.boundary[1].supports()
                            if cx.colors[a] == cx.colors[b]), None)
    euler = euler_characteristic(cx)
    passed = (
        counts == expected
        and euler == 0
        and boundary_composition_is_zero(cx)
        and cross_check_nearest(cx)
        and same_color_edge is None
    )
    return passed, dict(
        cell_counts=counts,
        expected_counts=expected,
        euler_characteristic=euler,
        color_balance=color_balance,
        same_color_edge_witness=same_color_edge,
    ), []


def _octaplex_codes(run: _Run):
    family, L = run.family, run.L
    # Block 0's k is the metacheck ledger's and its CSS check the lattice's kept
    # ∂4·∂3 = 0; a verified translate of block 0 has both (a qubit bijection
    # keeps ranks and overlaps), and any other block is checked on its own.
    cx, rows0 = family.complex, (_row_set(family.blocks[0].hx), _row_set(family.blocks[0].hz))
    translates = [True] + [_is_translate(family.blocks[b], rows0, shifted_qubit_permutation(cx, b))
                           for b in (1, 2, 3)]
    k0, css0 = run.ladder.k, cx.boundary[4].product_is_zero(cx.boundary[3])
    block_data = []
    passed = True
    for blk, translate in zip(family.blocks, translates):
        entry = {
            "label": blk.label,
            "n": blk.n,
            "k": k0 if translate else blk.k,
            "x_weights": blk.x_weights(),
            "z_weights": blk.z_weights(),
            "x_rows": blk.hx.shape[0],
            "z_rows": blk.hz.shape[0],
            "css": css0 if translate else blk.css_commutes(),
        }
        passed &= (
            entry["css"]
            and entry["n"] == 24 * L**4
            and entry["k"] == 4
            and entry["x_weights"] == [24]
            and entry["z_weights"] == [3]
        )
        block_data.append(entry)
    equiv = all(translates)
    passed &= equiv
    return passed, dict(blocks=block_data, block_equivalence=equiv), []


def _octaplex_logicals(run: _Run):
    basis = run.basis
    valid, witnesses = verify_logical_basis(run.family, basis)
    return valid, dict(
        k=basis.k,
        witnesses=witnesses[:8],
        x_weight=basis.x_ops[0].weights()[0],
        z_weight=basis.z_ops[0].weights()[0],
    ), []


def _octaplex_transversal(run: _Run):
    rep = check_cccz_conditions(run.family, run.basis)
    passed = (
        rep.all_even_pass
        and rep.extras["tensor_is_all_distinct_pattern"]
        and rep.extras["tensor_entries_are_permutations"]
    )
    discrepancies = []
    if not rep.extras["tensor_matches_stated_quartets"]:
        discrepancies.append(
            {
                "section": "transversal",
                "claim": "coupling tensor equals the four stated quartets",
                "summary": (
                    f"stated 4 quartets, measured "
                    f"{len(rep.tensor_support())} coupled quadruples"
                ),
                "stated": [list(q) for q in sorted(STATED_QUARTETS)],
                "measured": [list(q) for q in rep.tensor_support()],
                "note": (
                    "all direction-permutation quadruples couple; the four "
                    "stated quartets are a strict subset"
                ),
            }
        )
    return passed, rep.as_dict(), discrepancies


def _octaplex_distance(run: _Run):
    family, basis, L = run.family, run.basis, run.L
    try:
        cert = certify_distances(family, basis, run.ladder.k)
    except AssertionError as exc:
        return False, dict(error=str(exc)), []
    passed = cert["dz"] == L and cert["dx_lower"] == cert["dx_upper"]
    discrepancies = []
    if cert["dx_formula_discrepancy"]:
        discrepancies.append(
            {
                "section": "distance",
                "claim": "dx equals 8*L^3 with a hyperplane of that weight",
                "summary": (
                    f"stated {cert['dx_stated_formula_8L3']}, certified "
                    f"{cert['dx_upper']}"
                ),
                "stated": cert["dx_stated_formula_8L3"],
                "measured": cert["dx_upper"],
                "note": (
                    "the three-sheet hyperplane has weight 10*L^3 and "
                    "the disjoint-string certificate matches it exactly"
                ),
            }
        )
    return passed, cert, discrepancies


def _octaplex_metachecks(run: _Run):
    ladder = run.ladder
    glob = verify_global_constraints(ladder)
    counting = verify_counting(ladder)
    demo = single_shot_repair_demo(ladder, {0})
    passed = counting["passed"] and glob["passed"] and demo["violated_per_flip"] == 3
    return passed, dict(counting=counting, global_constraints=glob, single_flip_demo=demo), []


def _row_set(m: BinMatrix, perm: Sequence[int] | None = None) -> set[bytes]:
    """The rows' sorted supports as a set of bytes, each qubit mapped by ``perm``."""
    if perm is None:
        return {r.tobytes() for r in m.supports()}
    return {array("i", sorted(row)).tobytes() for row in m.mapped_rows(perm)}


def _is_translate(blk: Codeblock, rows: tuple[set, set], perm: Sequence[int]) -> bool:
    """The block's row sets, each qubit mapped by ``perm``, are ``rows`` (X, Z)."""
    return _row_set(blk.hx, perm) == rows[0] and _row_set(blk.hz, perm) == rows[1]


def _bounded_codes(run: _Run):
    family, basis, L = run.family, run.basis, run.L
    blocks = []
    passed = True
    formula_ok = True
    for b, blk in enumerate(family.blocks):
        xw = blk.x_weights()
        for center, weight in zip(blk.meta["x_centers"], blk.hx.weights()):
            bcount = bounded_boundary_coordinate_count(center, b, L)
            if weight != 8 - bcount + 16 // 2**bcount:
                formula_ok = False
        entry = {
            "label": b,
            "n": blk.n,
            "k": blk.k,
            "x_weights": xw,
            "triangle_z_weights": blk.meta["triangle_weights"],
            "triangle_generators": blk.meta["triangle_generators"],
            "completion_generators": blk.meta["completion_generators"],
            "rough_axis": blk.meta["rough_axis"],
            "css": blk.css_commutes(),
        }
        passed &= (
            entry["css"]
            and entry["k"] == 1
            and set(xw) <= {24, 15, 10, 7}
            and set(entry["triangle_z_weights"]) <= {2, 3}
        )
        blocks.append(entry)
    passed &= formula_ok
    valid, witnesses = verify_logical_basis(family, basis)
    passed &= valid
    return passed, dict(
        blocks=blocks,
        x_weight_formula_holds=formula_ok,
        logicals_valid=valid,
        witnesses=witnesses[:8],
    ), []


def _bounded_transversal(run: _Run):
    rep = check_cccz_conditions(run.family, run.basis)
    tpass = rep.all_even_pass and rep.extras.get("single_cccz", False)
    return tpass, rep.as_dict(), []


def _warmup_blocks(family: CodeFamily, ks: Sequence[int]) -> list[dict]:
    return [
        {"label": b.label, "n": b.n, "k": k,
         "x_weights": b.x_weights(), "z_weights": b.z_weights()}
        for b, k in zip(family.blocks, ks)
    ]


def _2d_codes(run: _Run):
    family = run.family
    return all(b.k == 2 for b in family.blocks), dict(
        blocks=_warmup_blocks(family, [b.k for b in family.blocks]),
        role_swap=(_row_set(family.blocks[0].hx) == _row_set(family.blocks[1].hz)),
    ), []


def _2d_transversal(run: _Run):
    family, basis = run.family, run.basis
    rep = check_cz_conditions(family, basis)
    valid, _ = verify_logical_basis(family, basis)
    passed = rep.all_even_pass and valid
    return passed, dict(
        pairing_matrix=[
            [rep.tensor[(i, j)] for j in range(basis.k)]
            for i in range(basis.k)
        ],
        **rep.as_dict(),
    ), []


def _3d_codes(run: _Run):
    # Block 2 is block 1 moved by e_0 (the cube colors swap); a verified translate has its k.
    # It is checked before any rank: its row sets cannot reuse the heap elimination frees.
    b0, b1, b2 = run.family.blocks
    translate = _is_translate(b2, (_row_set(b1.hx), _row_set(b1.hz)), edge_shift(run.L, 3, 0))
    ks = [b0.k, b1.k, b1.k if translate else b2.k]
    return all(k == 3 for k in ks), dict(blocks=_warmup_blocks(run.family, ks)), []


def _3d_transversal(run: _Run):
    family, basis = run.family, run.basis
    rep = check_ccz_conditions(family, basis)
    valid, _ = verify_logical_basis(family, basis)
    weights_ok = set(rep.extras["triple_intersection_weights"]) <= {0, 2}
    tensor_ok = rep.tensor_support() == sorted(ALL_DISTINCT_TRIPLES)
    passed = rep.all_even_pass and valid and weights_ok and tensor_ok
    return passed, rep.as_dict(), []


# Each family's code family, built from the run's inputs and shared objects.
# The layer builders are looked up by their global names at call time.
BUILDERS = {
    "octaplex": lambda run: build_family(run.cx),
    "octaplex-bounded": lambda run: build_bounded_family(run.L),
    "2d": lambda run: build_2d_pair(run.L),
    "3d": lambda run: build_3d_triple(run.L),
}

# Per family, its sections in SECTION_NAMES order.
SECTIONS = {
    "octaplex": {
        "lattice": _octaplex_lattice,
        "codes": _octaplex_codes,
        "logicals": _octaplex_logicals,
        "transversal": _octaplex_transversal,
        "distance": _octaplex_distance,
        "metachecks": _octaplex_metachecks,
    },
    "octaplex-bounded": {"codes": _bounded_codes, "transversal": _bounded_transversal},
    "2d": {"codes": _2d_codes, "transversal": _2d_transversal},
    "3d": {"codes": _3d_codes, "transversal": _3d_transversal},
}


def _block_matrix(side: str, block: int, run: _Run) -> BinMatrix:
    return getattr(run.family.blocks[block], side)


_BLOCK_EXPORTS = {f"{side}{b}": partial(_block_matrix, side, b)
                  for side in ("hx", "hz") for b in range(4)}

# Per exportable family, its matrices in `export --which all` order. m0 = ∂1ᵀ
# and m1 = ∂2ᵀ are the complex's, so a run that reads only them builds no
# code family.
EXPORTS = {
    "octaplex": {**_BLOCK_EXPORTS,
                 "m0": lambda run: run.cx.boundary[1].transpose(),
                 "m1": lambda run: run.cx.boundary[2].transpose()},
    "octaplex-bounded": _BLOCK_EXPORTS,
}

RUNNERS = {family: partial(run_report, family) for family in SECTIONS}
run_octaplex_report = RUNNERS["octaplex"]
run_bounded_report = RUNNERS["octaplex-bounded"]
run_2d_report = RUNNERS["2d"]
run_3d_report = RUNNERS["3d"]


def render_text(result: RunResult) -> str:
    lines = [
        f"family={result.report['family']} L={result.report['L']} "
        f"version={result.report['tool_version']}"
    ]
    sections = result.report["sections"]
    # The build phases, in the order they completed.
    for phase, t in result.timings.items():
        if phase not in sections:
            lines.append(f"  {phase}: [{t:.2f}s]")
    for name in SECTION_NAMES:
        t = result.timings.get(name)
        suffix = f" [{t:.2f}s]" if t is not None else ""
        lines.append(f"  {name}: {sections[name]['status'].upper()}{suffix}")
    for disc in result.report["discrepancies"]:
        lines.append(
            f"  DISCREPANCY ({disc['section']}): {disc['claim']} -> "
            f"{disc['summary']}"
        )
    lines.append("  overall: " + ("PASS" if result.ok else "FAIL"))
    return "\n".join(lines) + "\n"


def report_json(result: RunResult) -> str:
    return canonical_json(result.report)
