"""Command-line entry point.

Subcommands:

    report    build a family at size L, run its verification sections, write
              canonical JSON (optional) and a text summary with timings
    export    write check matrices in alist or MatrixMarket format
    selftest  fast invariant suite: the octaplex report at L=2 without the
              distance section

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
The environment variable OCTAPLEX_SEED seeds fault injection used by the
negative-control tests.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .codes import build_bounded_family, build_periodic_family
from .exports import matrix_to_alist, matrix_to_mtx, write_text
from .report import (
    FAULT_KINDS,
    RUNNERS,
    SECTIONS,
    Fault,
    render_text,
    report_json,
    requested_sections,
)

PERIODIC_ONLY_KEYS = ("m0", "m1")
EXPORT_KEYS = tuple(
    [f"hx{i}" for i in range(4)] + [f"hz{i}" for i in range(4)]
) + PERIODIC_ONLY_KEYS

USAGE_ERROR = 2
IO_ERROR = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--L", type=int, required=True, help="lattice linear size")
    p.add_argument("--threads", type=int, default=0,
                   help="accepted for compatibility; has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octaplex",
        description="Verification workbench for toric codes on the octaplex "
                    "tessellation and their transversal multi-controlled-Z gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="run verification and emit a report")
    _add_common(rep)
    rep.add_argument("--family", choices=tuple(RUNNERS), default="octaplex")
    rep.add_argument("--out", type=Path, default=None, help="JSON output path")
    rep.add_argument("--json", action="store_true",
                     help="print canonical JSON to stdout")
    rep.add_argument("--sections", type=str, default=None,
                     help="comma-separated subset of the family's sections: "
                          + "; ".join(f"{f}: {','.join(t)}" for f, t in SECTIONS.items()))
    rep.add_argument("--inject-fault", choices=FAULT_KINDS,
                     default=None, help=argparse.SUPPRESS)

    exp = sub.add_parser("export", help="write check matrices to files")
    _add_common(exp)
    exp.add_argument("--family", choices=("octaplex", "octaplex-bounded"),
                     default="octaplex")
    exp.add_argument("--which", required=True,
                     help="comma-separated subset of hx0..hx3,hz0..hz3,m0,m1 "
                          "or 'all' (every selector the family defines)")
    exp.add_argument("--format", choices=("alist", "mtx"), default="alist")
    exp.add_argument("--out", type=Path, required=True, help="output directory")

    st = sub.add_parser("selftest", help="fast invariant suite at L=2")
    st.set_defaults(family="octaplex", L=2,
                    sections="lattice,codes,logicals,transversal,metachecks")
    st.add_argument("--threads", type=int, default=0,
                    help="accepted for compatibility; has no effect")
    st.add_argument("--out", type=Path, default=None)
    st.add_argument("--json", action="store_true")
    st.add_argument("--inject-fault", choices=FAULT_KINDS,
                    default=None, help=argparse.SUPPRESS)
    return parser


def _fault(kind: str | None) -> Fault | None:
    """The requested fault; an OCTAPLEX_SEED that is no integer is a ValueError."""
    if kind is None:
        return None
    return Fault(kind, seed=int(os.environ.get("OCTAPLEX_SEED", "0")))


def cmd_report(args) -> int:
    if args.L < 2:
        print("error: L must be >= 2", file=sys.stderr)
        return USAGE_ERROR
    if args.family == "3d" and args.L % 2:
        print("error: the 3d family needs even L (cube 2-coloring)", file=sys.stderr)
        return USAGE_ERROR
    sections = None
    if args.sections is not None:
        sections = {s.strip() for s in args.sections.split(",") if s.strip()}
    try:
        fault = _fault(args.inject_fault)
    except ValueError:
        print("error: OCTAPLEX_SEED must be an integer", file=sys.stderr)
        return USAGE_ERROR
    try:
        requested_sections(args.family, sections, fault)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    result = RUNNERS[args.family](args.L, sections=sections, fault=fault)
    text = render_text(result)
    sys.stdout.write(text)
    payload = report_json(result)
    if args.json:
        sys.stdout.write(payload)
    if args.out is not None:
        try:
            write_text(args.out, payload)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return IO_ERROR
    return 0 if result.ok else 1


def cmd_export(args) -> int:
    if args.L < 2:
        print("error: L must be >= 2", file=sys.stderr)
        return USAGE_ERROR
    keys = (
        [k for k in EXPORT_KEYS
         if args.family == "octaplex" or k not in PERIODIC_ONLY_KEYS]
        if args.which == "all"
        else list(dict.fromkeys(k.strip() for k in args.which.split(",") if k.strip()))
    )
    if not keys:
        print("error: --which names no selector", file=sys.stderr)
        return USAGE_ERROR
    unknown = [k for k in keys if k not in EXPORT_KEYS]
    if unknown:
        print(f"error: unknown selectors {unknown}", file=sys.stderr)
        return USAGE_ERROR
    periodic_only = [k for k in keys if k in PERIODIC_ONLY_KEYS]
    if periodic_only and args.family != "octaplex":
        print(f"error: {periodic_only} are defined for the periodic family only",
              file=sys.stderr)
        return USAGE_ERROR
    matrices = {}
    if args.family == "octaplex":
        family = build_periodic_family(args.L)
        if periodic_only:  # the complex's maps: m0 = ∂1ᵀ, m1 = ∂2ᵀ
            boundary = family.complex.boundary
            matrices = {"m0": boundary[1].transpose(), "m1": boundary[2].transpose()}
    else:
        family = build_bounded_family(args.L)
    for b, blk in enumerate(family.blocks):
        matrices[f"hx{b}"] = blk.hx
        matrices[f"hz{b}"] = blk.hz
    render = matrix_to_alist if args.format == "alist" else matrix_to_mtx
    try:
        for k in keys:
            path = args.out / f"{args.family}_L{args.L}_{k}.{args.format}"
            write_text(path, render(matrices[k]))
    except OSError as exc:
        print(f"error: cannot write under {args.out}: {exc}", file=sys.stderr)
        return IO_ERROR
    print(f"wrote {len(keys)} files to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "export":
        return cmd_export(args)
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
