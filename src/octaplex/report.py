"""End-to-end verification runs and the machine-readable report.

A report is a dict of sections, each carrying ``status`` ("pass", "fail" or
"skipped") plus section data. Section status reflects verified structural
invariants; where a measured quantity disagrees with a stated target value
(the hyperplane-weight distance formula, the four-quartet coupling list),
the mismatch is emitted in the top-level ``discrepancies`` block so it
cannot be missed, with the measured and stated values side by side.

A family is its one entry in ``FAMILIES``: its builder, its sections, what
the shared sections certify of it and its export selectors. Every family
runs through one driver, ``run_report``, over that entry's sections: a
section function returns ``(passed, data, discrepancies)``, ``data`` being
the record as the report carries it. The ``codes`` and ``transversal``
sections are one function each for every family. ``requested_sections``
checks a run's inputs; ``export`` reads its matrices off a run through the
entry's selectors.

The canonical JSON rendering contains no timings; wall-clock per build phase
and per section is kept in the text summary so that report bytes are
reproducible.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Sequence

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
    ALL_DISTINCT_QUADRUPLES,
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
    corrupts. ``verified`` is computed once, in the first section that reads it.
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
        return self.timed("codes_build", FAMILIES[self.name].build, self)

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
    def verified(self) -> tuple[bool, list[dict]]:
        """``verify_logical_basis`` of the family's basis: its validity and witnesses."""
        return verify_logical_basis(self.family, self.basis)

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

    A ``ValueError``, before anything is built, unless the family is one of
    ``FAMILIES``, L is an ``int`` ≥ 2 (and even for ``3d``, whose cubes are
    2-colored), the sections are a nonempty subset of the family's and, given
    a fault, the section that catches it is among them: a fault no section
    reads would pass silently.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; the families are {', '.join(FAMILIES)}")
    if type(L) is not int:
        raise ValueError(f"L must be an int, not {type(L).__name__}")
    if L < 2:
        raise ValueError("L must be >= 2")
    if family == "3d" and L % 2:
        raise ValueError("the 3d family needs even L (cube 2-coloring)")
    table = FAMILIES[family].section_table()
    wanted = set(table) if sections is None else set(sections)
    if not wanted:
        raise ValueError("no section is requested")
    if unknown := sorted(wanted - table.keys()):
        raise ValueError(f"sections {unknown} are not defined for the {family} family")
    if fault is not None and (catcher := FAULT_KINDS.get(fault.kind)) not in wanted:
        raise ValueError(f"fault {fault.kind} is caught by the {catcher} section, "
                         "which this run does not execute")
    return wanted


def run_report(
    family: str,
    L: int,
    threads: int = 1,
    sections: set[str] | None = None,
    fault: Fault | None = None,
) -> RunResult:
    """Run the requested sections of the family's ``FAMILIES`` entry (all for None).

    L, the sections and the fault must pass ``requested_sections``;
    otherwise ``ValueError``. ``threads`` is accepted and has no effect.
    """
    wanted = requested_sections(family, L, sections, fault)
    table = FAMILIES[family].section_table()
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


def _octaplex_logicals(run: _Run):
    basis, (valid, witnesses) = run.basis, run.verified
    return valid, dict(
        k=basis.k,
        witnesses=witnesses[:8],
        x_weight=basis.x_ops[0].weights()[0],
        z_weight=basis.z_ops[0].weights()[0],
    ), []


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


def _verified_images(run: _Run) -> dict[int, bool]:
    """Per image block of the run's family, whether it is its source moved by its qubit map.
    Each source's row sets are built once. Run before any rank: the row sets cannot reuse
    the heap elimination frees."""
    blocks, images = run.family.blocks, FAMILIES[run.name].images
    rows = {src: (_row_set(blocks[src].hx), _row_set(blocks[src].hz))
            for src in {src for src, _ in images.values()}}
    return {b: _is_translate(blocks[b], rows[src], perm(run, b)) for b, (src, perm) in images.items()}


def _allowed(weights: list[int], allowed: set[int] | None) -> bool:
    return allowed is None or set(weights) <= allowed


def _codes(run: _Run):
    """Every block's record. Its k and CSS result come from the family's anchor, else from a
    verified image's source (a qubit bijection keeps ranks and overlaps), else from its own
    ranks and ``css_commutes``."""
    spec, family, L = FAMILIES[run.name], run.family, run.L
    verified = _verified_images(run)
    known = spec.anchor(run) if spec.anchor else {}
    records, passed = [], True
    for b, (blk, (xs, zs)) in enumerate(zip(family.blocks, spec.weights)):
        if b not in known:
            known[b] = known[spec.images[b][0]] if verified.get(b) else (blk.k, blk.css_commutes())
        k, css = known[b]
        rec = {"label": blk.label, "n": blk.n, "k": k, "css": css,
               "x_weights": blk.x_weights(), "z_weights": blk.z_weights(),
               "x_rows": blk.hx.shape[0], "z_rows": blk.hz.shape[0]}
        passed &= (css and rec["n"] == spec.n(L) and k == spec.k
                   and _allowed(rec["x_weights"], xs) and _allowed(rec["z_weights"], zs))
        records.append(rec)
    data: dict = {"blocks": records}
    if verified:
        data["block_equivalence"] = all(verified.values())
        passed &= data["block_equivalence"]
    if spec.codes:
        ok, fields = spec.codes(run, records)
        passed &= ok
        data.update(fields)
    return passed, data, []


def _transversal(run: _Run):
    """The family's CZ, CCZ or CCCZ conditions hold, its basis is valid and its coupling
    support is the expected one."""
    spec, family = FAMILIES[run.name], run.family
    rep = CHECKS[len(family.blocks)](family, run.basis)
    passed = rep.all_even_pass and run.verified[0] and tuple(rep.tensor_support()) == spec.support
    discrepancies: list = []
    if spec.transversal:
        ok, discrepancies = spec.transversal(rep)
        passed &= ok
    return passed, rep.as_dict(), discrepancies


def _octaplex_anchor(run: _Run) -> dict[int, tuple[int, bool]]:
    # Block 0's k is the metacheck ledger's and its CSS check the lattice's kept ∂4·∂3 = 0.
    cx = run.family.complex
    return {0: (run.ladder.k, cx.boundary[4].product_is_zero(cx.boundary[3]))}


def _stated_quartets(rep) -> tuple[bool, list[dict]]:
    if rep.extras["tensor_matches_stated_quartets"]:
        return True, []
    return True, [{
        "section": "transversal",
        "claim": "coupling tensor equals the four stated quartets",
        "summary": f"stated 4 quartets, measured {len(rep.tensor_support())} coupled quadruples",
        "stated": [list(q) for q in sorted(STATED_QUARTETS)],
        "measured": [list(q) for q in rep.tensor_support()],
        "note": "all direction-permutation quadruples couple; the four stated quartets are a "
                "strict subset",
    }]


def _bounded_fields(run: _Run, records: list[dict]) -> tuple[bool, dict]:
    """Each X check's weight is 8 - c + 16 / 2^c, c its count of smooth-axis coordinates at
    the box ends; the kept triangles weigh 2 or 3; the basis is valid."""
    family, L = run.family, run.L
    formula_ok = all(
        weight == 8 - c + 16 // 2**c
        for b, blk in enumerate(family.blocks)
        for center, weight in zip(blk.meta["x_centers"], blk.hx.weights())
        for c in [bounded_boundary_coordinate_count(center, b, L)])
    for rec, blk in zip(records, family.blocks):
        rec.update(triangle_z_weights=blk.meta["triangle_weights"],
                   triangle_generators=blk.meta["triangle_generators"],
                   completion_generators=blk.meta["completion_generators"],
                   rough_axis=blk.meta["rough_axis"])
    triangles_ok = all(set(rec["triangle_z_weights"]) <= {2, 3} for rec in records)
    valid, witnesses = run.verified
    return formula_ok and triangles_ok and valid, dict(
        x_weight_formula_holds=formula_ok, logicals_valid=valid, witnesses=witnesses[:8])


def _role_swap(run: _Run, records: list[dict]) -> tuple[bool, dict]:
    b0, b1 = run.family.blocks
    swap = _row_set(b0.hx) == _row_set(b1.hz) and _row_set(b0.hz) == _row_set(b1.hx)
    return swap, dict(role_swap=swap)


def _block_matrix(side: str, block: int, run: _Run) -> BinMatrix:
    return getattr(run.family.blocks[block], side)


_BLOCK_SELECTORS = {f"{side}{b}": partial(_block_matrix, side, b)
                    for side in ("hx", "hz") for b in range(4)}


@dataclass(frozen=True)
class FamilySpec:
    """One family: how a run builds it, its sections, what the shared ``codes`` and
    ``transversal`` sections certify of it and what ``export`` writes of it.

    ``build`` makes the code family from the run's inputs and shared objects,
    looking the layer builder up by its global name at call time. ``sections``
    are the family's own sections beyond ``codes`` and ``transversal``, and
    ``exports`` its matrices in ``export --which all`` order, each read off a
    run (a family without them is not exportable). Every block has ``n(L)``
    qubits and ``k`` logical qubits, and its X and Z check weights lie in its
    entry of ``weights`` (None allows any). ``support`` is the coupling support
    expected at k. ``images`` maps a block to (source block, the run and the
    block → qubit map): the block is certified as its source moved by the map.
    Hooks hold what data cannot: ``anchor`` gives blocks' (k, css) from
    elsewhere, ``codes`` adds fields to the records and the section, and
    ``transversal`` reads the check's report; the bool each hook returns joins
    the section status.
    """

    build: Callable
    n: Callable[[int], int]
    k: int
    weights: tuple
    support: tuple
    sections: dict = field(default_factory=dict)
    exports: dict = field(default_factory=dict)
    images: dict = field(default_factory=dict)
    anchor: Callable | None = None
    codes: Callable | None = None
    transversal: Callable | None = None

    def section_table(self) -> dict[str, Callable]:
        """Every section of the family, in SECTION_NAMES order."""
        table = {"codes": _codes, "transversal": _transversal, **self.sections}
        return {name: table[name] for name in SECTION_NAMES if name in table}


FAMILIES = {
    # m0 = ∂1ᵀ and m1 = ∂2ᵀ are the complex's, so an export of them alone builds no code family.
    "octaplex": FamilySpec(
        lambda run: build_family(run.cx), lambda L: 24 * L**4, 4, (({24}, {3}),) * 4,
        ALL_DISTINCT_QUADRUPLES,
        sections={"lattice": _octaplex_lattice, "logicals": _octaplex_logicals,
                  "distance": _octaplex_distance, "metachecks": _octaplex_metachecks},
        exports={**_BLOCK_SELECTORS, "m0": lambda run: run.cx.boundary[1].transpose(),
                 "m1": lambda run: run.cx.boundary[2].transpose()},
        images={b: (0, lambda run, b: shifted_qubit_permutation(run.family.complex, b))
                for b in (1, 2, 3)},
        anchor=_octaplex_anchor, transversal=_stated_quartets),
    # The box's 3-cells: per residue class, L values on each axis but L - 1 on one ≡ 1 (mod 4).
    "octaplex-bounded": FamilySpec(
        lambda run: build_bounded_family(run.L), lambda L: 8 * L**4 + (2 * L - 1) ** 4, 1,
        (({24, 15, 10, 7}, None),) * 4, ((0, 0, 0, 0),), exports=_BLOCK_SELECTORS,
        codes=_bounded_fields),
    "2d": FamilySpec(lambda run: build_2d_pair(run.L), lambda L: 2 * L**2, 2, (({4}, {4}),) * 2,
                     ((0, 0), (1, 1)), codes=_role_swap),
    # Block 2 is block 1 moved by e_0, which swaps the cube colors.
    "3d": FamilySpec(
        lambda run: build_3d_triple(run.L), lambda L: 3 * L**3, 3,
        (({6}, {4}), ({12}, {3}), ({12}, {3})), ALL_DISTINCT_TRIPLES,
        images={2: (1, lambda run, b: edge_shift(run.L, 3, 0))},
        transversal=lambda rep: (set(rep.extras["triple_intersection_weights"]) <= {0, 2}, [])),
}

# The transversal check of a family of 2, 3 or 4 blocks, looked up at call time.
CHECKS = {2: check_cz_conditions, 3: check_ccz_conditions, 4: check_cccz_conditions}

RUNNERS = {family: partial(run_report, family) for family in FAMILIES}
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
