"""End-to-end verification runs and the machine-readable report.

A report is a dict of sections, each carrying ``status`` ("pass", "fail" or
"skipped") plus section data. Section status reflects verified structural
invariants; where a measured quantity disagrees with a stated target value
(the hyperplane-weight distance formula, the four-quartet coupling list),
the mismatch is emitted in the top-level ``discrepancies`` block so it
cannot be missed, with the measured and stated values side by side.

The canonical JSON rendering contains no timings; wall-clock per section is
kept in the text summary so that report bytes are reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import __version__
from .binalg import mask_from_support, support_from_mask
from .codes import (
    CodeFamily,
    bounded_boundary_coordinate_count,
    build_2d_pair,
    build_3d_triple,
    build_bounded_family,
    build_family,
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


@dataclass
class Fault:
    """Deterministic corruption for negative-control runs."""

    kind: str               # "perturb-logical" or "recolor-vertex"
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


def _section(status: bool, **data) -> dict:
    return {"status": "pass" if status else "fail", **data}


def _apply_logical_fault(basis, fault: Fault, n: int):
    i = fault.pick(n)
    old = basis.x_ops[0][0]
    basis.x_ops[0][0] = old.flipped(i)
    return i


def run_octaplex_report(
    L: int,
    threads: int = 1,
    sections: set[str] | None = None,
    fault: Fault | None = None,
) -> RunResult:
    wanted = sections or set(SECTION_NAMES)
    report: dict = {
        "tool_version": __version__,
        "family": "octaplex",
        "L": L,
        "sections": {},
        "discrepancies": [],
    }
    timings: dict[str, float] = {}
    ok = True

    t0 = time.monotonic()
    cx = build_octaplex(L)
    if fault is not None and fault.kind == "recolor-vertex":
        i = fault.pick(len(cx.colors))
        old = cx.colors[i]
        cx.colors[i] = next(c for c in Color if c is not old)
        report["fault"] = {"kind": fault.kind, "vertex": i}
    timings["build"] = time.monotonic() - t0

    if "lattice" in wanted:
        t0 = time.monotonic()
        counts = [len(cx.cells[d]) for d in range(5)]
        expected = [6 * L**4, 48 * L**4, 64 * L**4, 24 * L**4, 2 * L**4]
        color_balance = {
            c.value: sum(1 for col in cx.colors if col is c)
            for c in set(cx.colors)
        }
        same_color_edge = None
        for i, e in enumerate(cx.cells[1]):
            a, b = cx.boundary[1][i]
            if cx.colors[a] is cx.colors[b]:
                same_color_edge = [a, b]
                break
        passed = (
            counts == expected
            and euler_characteristic(cx) == 0
            and boundary_composition_is_zero(cx)
            and cross_check_nearest(cx)
            and same_color_edge is None
        )
        ok &= passed
        report["sections"]["lattice"] = _section(
            passed,
            cell_counts=counts,
            expected_counts=expected,
            euler_characteristic=euler_characteristic(cx),
            color_balance=color_balance,
            same_color_edge_witness=same_color_edge,
        )
        timings["lattice"] = time.monotonic() - t0

    t0 = time.monotonic()
    family = build_family(cx)
    timings["codes_build"] = time.monotonic() - t0

    if "codes" in wanted:
        t0 = time.monotonic()
        block_data = []
        passed = True
        for blk in family.blocks:
            entry = {
                "label": blk.label,
                "n": blk.n,
                "k": blk.k,
                "x_weights": blk.x_weights(),
                "z_weights": blk.z_weights(),
                "x_rows": len(blk.hx.rows),
                "z_rows": len(blk.hz.rows),
                "css": blk.css_commutes(),
            }
            passed &= (
                entry["css"]
                and entry["n"] == 24 * L**4
                and entry["k"] == 4
                and entry["x_weights"] == [24]
                and entry["z_weights"] == [3]
            )
            block_data.append(entry)
        equiv = all(
            _blocks_equivalent(family, b) for b in (1, 2, 3)
        )
        passed &= equiv
        ok &= passed
        report["sections"]["codes"] = _section(
            passed, blocks=block_data, block_equivalence=equiv
        )
        timings["codes"] = time.monotonic() - t0

    t0 = time.monotonic()
    basis = build_logicals(family)
    if fault is not None and fault.kind == "perturb-logical":
        i = _apply_logical_fault(basis, fault, family.n)
        report["fault"] = {"kind": fault.kind, "qubit": i}
    timings["logicals_build"] = time.monotonic() - t0

    if "logicals" in wanted:
        t0 = time.monotonic()
        valid, witnesses = verify_logical_basis(family, basis)
        ok &= valid
        report["sections"]["logicals"] = _section(
            valid,
            k=basis.k,
            witnesses=[w.as_dict() for w in witnesses[:8]],
            x_weight=basis.x_ops[0][0].weight(),
            z_weight=basis.z_ops[0][0].weight(),
        )
        timings["logicals"] = time.monotonic() - t0

    if "transversal" in wanted:
        t0 = time.monotonic()
        rep = check_cccz_conditions(family, basis, threads=threads)
        passed = (
            rep.all_even_pass
            and rep.extras["tensor_is_all_distinct_pattern"]
            and rep.extras["tensor_entries_are_permutations"]
        )
        ok &= passed
        report["sections"]["transversal"] = _section(passed, **rep.as_dict())
        if not rep.extras["tensor_matches_stated_quartets"]:
            report["discrepancies"].append(
                {
                    "section": "transversal",
                    "claim": "coupling tensor equals the four stated quartets",
                    "summary": (
                        f"stated 4 quartets, measured "
                        f"{len(rep.tensor_support())} coupled quadruples"
                    ),
                    "stated": [list(q) for q in sorted_stated_quartets()],
                    "measured": [list(q) for q in rep.tensor_support()],
                    "note": (
                        "all direction-permutation quadruples couple; the four "
                        "stated quartets are a strict subset"
                    ),
                }
            )
        timings["transversal"] = time.monotonic() - t0

    if "distance" in wanted:
        t0 = time.monotonic()
        try:
            cert = certify_distances(family, basis, exhaustive=(L == 2))
            passed = cert.dz == L and cert.dx_lower == cert.dx_upper
        except AssertionError as exc:
            cert = None
            passed = False
            report["sections"]["distance"] = _section(False, error=str(exc))
        if cert is not None:
            ok &= passed
            report["sections"]["distance"] = _section(passed, **cert.as_dict())
            if cert.dx_formula_discrepancy:
                report["discrepancies"].append(
                    {
                        "section": "distance",
                        "claim": "dx equals 8*L^3 with a hyperplane of that weight",
                        "summary": (
                            f"stated {cert.dx_stated_formula}, certified "
                            f"{cert.dx_upper}"
                        ),
                        "stated": cert.dx_stated_formula,
                        "measured": cert.dx_upper,
                        "note": (
                            "the three-sheet hyperplane has weight 10*L^3 and "
                            "the disjoint-string certificate matches it exactly"
                        ),
                    }
                )
        else:
            ok = False
        timings["distance"] = time.monotonic() - t0

    if "metachecks" in wanted:
        t0 = time.monotonic()
        ladder = build_ladder(cx, family.blocks[0])
        counting = verify_counting(ladder, L)
        glob = verify_global_constraints(ladder)
        demo = single_shot_repair_demo(ladder, {0})
        passed = counting.passed and glob.passed and demo.violated_per_flip == 3
        ok &= passed
        report["sections"]["metachecks"] = _section(
            passed,
            counting=counting.as_dict(),
            global_constraints=glob.as_dict(),
            single_flip_demo=demo.as_dict(),
        )
        timings["metachecks"] = time.monotonic() - t0

    for name in SECTION_NAMES:
        report["sections"].setdefault(name, {"status": "skipped"})
    return RunResult(report, ok, timings)


def sorted_stated_quartets() -> list[tuple]:
    return sorted(STATED_QUARTETS)


def _blocks_equivalent(family: CodeFamily, block: int) -> bool:
    """Row sets map onto block 0's under the block translation."""
    cx = family.complex
    perm = shifted_qubit_permutation(cx, block)

    def permute(mask: int) -> int:
        return mask_from_support(perm[i] for i in support_from_mask(mask))

    blk = family.blocks[block]
    blk0 = family.blocks[0]
    if {permute(r) for r in blk.hx.rows} != set(blk0.hx.rows):
        return False
    return {permute(r) for r in blk.hz.rows} == set(blk0.hz.rows)


def run_bounded_report(L: int, threads: int = 1) -> RunResult:
    report: dict = {
        "tool_version": __version__,
        "family": "octaplex-bounded",
        "L": L,
        "sections": {},
        "discrepancies": [],
    }
    timings: dict[str, float] = {}
    t0 = time.monotonic()
    family = build_bounded_family(L)
    basis = build_logicals(family)
    timings["build"] = time.monotonic() - t0

    t0 = time.monotonic()
    blocks = []
    passed = True
    formula_ok = True
    for b, blk in enumerate(family.blocks):
        xw = blk.x_weights()
        for center, row in zip(blk.x_centers, blk.hx.rows):
            bcount = bounded_boundary_coordinate_count(center, b, L)
            if row.bit_count() != 8 - bcount + 16 // 2**bcount:
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
    report["sections"]["codes"] = _section(
        passed,
        blocks=blocks,
        x_weight_formula_holds=formula_ok,
        logicals_valid=valid,
        witnesses=[w.as_dict() for w in witnesses[:8]],
    )
    timings["codes"] = time.monotonic() - t0

    t0 = time.monotonic()
    rep = check_cccz_conditions(family, basis, threads=threads)
    tpass = rep.all_even_pass and rep.extras.get("single_cccz", False)
    report["sections"]["transversal"] = _section(tpass, **rep.as_dict())
    timings["transversal"] = time.monotonic() - t0

    for name in SECTION_NAMES:
        report["sections"].setdefault(name, {"status": "skipped"})
    ok = passed and tpass
    return RunResult(report, ok, timings)


def run_2d_report(L: int, threads: int = 1) -> RunResult:
    family = build_2d_pair(L)
    basis = build_logicals(family)
    rep = check_cz_conditions(family, basis, threads=threads)
    valid, _ = verify_logical_basis(family, basis)
    passed = rep.all_even_pass and valid
    report = {
        "tool_version": __version__,
        "family": "2d",
        "L": L,
        "sections": {
            "codes": _section(
                all(b.k == 2 for b in family.blocks),
                blocks=[
                    {"label": b.label, "n": b.n, "k": b.k,
                     "x_weights": b.x_weights(), "z_weights": b.z_weights()}
                    for b in family.blocks
                ],
                role_swap=(set(family.blocks[0].hx.rows) == set(family.blocks[1].hz.rows)),
            ),
            "transversal": _section(
                passed,
                pairing_matrix=[
                    [rep.tensor[(i, j)] for j in range(basis.k)]
                    for i in range(basis.k)
                ],
                **rep.as_dict(),
            ),
        },
        "discrepancies": [],
    }
    for name in SECTION_NAMES:
        report["sections"].setdefault(name, {"status": "skipped"})
    ok = passed and all(b.k == 2 for b in family.blocks)
    return RunResult(report, ok, {})


def run_3d_report(L: int, threads: int = 1) -> RunResult:
    family = build_3d_triple(L)
    basis = build_logicals(family)
    rep = check_ccz_conditions(family, basis, threads=threads)
    valid, _ = verify_logical_basis(family, basis)
    weights_ok = set(rep.extras["triple_intersection_weights"]) <= {0, 2}
    tensor_ok = rep.tensor_support() == sorted(ALL_DISTINCT_TRIPLES)
    passed = rep.all_even_pass and valid and weights_ok and tensor_ok
    report = {
        "tool_version": __version__,
        "family": "3d",
        "L": L,
        "sections": {
            "codes": _section(
                all(b.k == 3 for b in family.blocks),
                blocks=[
                    {"label": b.label, "n": b.n, "k": b.k,
                     "x_weights": b.x_weights(), "z_weights": b.z_weights()}
                    for b in family.blocks
                ],
            ),
            "transversal": _section(passed, **rep.as_dict()),
        },
        "discrepancies": [],
    }
    for name in SECTION_NAMES:
        report["sections"].setdefault(name, {"status": "skipped"})
    ok = passed and all(b.k == 3 for b in family.blocks)
    return RunResult(report, ok, {})


RUNNERS = {
    "octaplex": run_octaplex_report,
    "octaplex-bounded": run_bounded_report,
    "2d": run_2d_report,
    "3d": run_3d_report,
}


def render_text(result: RunResult) -> str:
    lines = [
        f"family={result.report['family']} L={result.report['L']} "
        f"version={result.report['tool_version']}"
    ]
    sections = result.report["sections"]
    for name in SECTION_NAMES:
        if name not in sections:
            continue
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
