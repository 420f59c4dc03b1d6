"""Command-line entry point.

Subcommands:

    report    build a family at size L, run its verification sections, write
              canonical JSON (optional) and a text summary with timings
    export    write check matrices in alist or MatrixMarket format; only the
              hx/hz selectors build the code family
    selftest  fast invariant suite: the octaplex report at L=2 without the
              distance section

Exit codes: 0 success, 1 verification failure, 2 usage error (every input
rule is ``report``'s), 3 I/O error. The environment variable OCTAPLEX_SEED
seeds fault injection used by the negative-control tests.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .exports import matrix_to_alist, matrix_to_mtx, write_text
from .report import (
    FAMILIES,
    FAULT_KINDS,
    RUNNERS,
    Fault,
    _Run,
    render_text,
    report_json,
    requested_sections,
)

USAGE_ERROR = 2
IO_ERROR = 3


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=0,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--out", type=Path, default=None, help="JSON output path")
    p.add_argument("--json", action="store_true",
                   help="print canonical JSON to stdout")
    p.add_argument("--inject-fault", choices=FAULT_KINDS,
                   default=None, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octaplex",
        description="Verification workbench for toric codes on the octaplex "
                    "tessellation and their transversal multi-controlled-Z gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="run verification and emit a report")
    rep.add_argument("--L", type=int, required=True, help="lattice linear size")
    rep.add_argument("--family", choices=tuple(RUNNERS), default="octaplex")
    rep.add_argument("--sections", type=str, default=None,
                     help="comma-separated subset of the family's sections: "
                          + "; ".join(f"{f}: {','.join(spec.section_table())}"
                                      for f, spec in FAMILIES.items()))
    _add_run_options(rep)

    exp = sub.add_parser("export", help="write check matrices to files")
    exp.add_argument("--L", type=int, required=True, help="lattice linear size")
    exp.add_argument("--threads", type=int, default=0,
                     help="accepted for compatibility; has no effect")
    exp.add_argument("--family", default="octaplex",
                     choices=tuple(f for f, spec in FAMILIES.items() if spec.exports))
    exp.add_argument("--which", required=True,
                     help="comma-separated subset of hx0..hx3,hz0..hz3,m0,m1 "
                          "or 'all' (every selector the family defines)")
    exp.add_argument("--format", choices=("alist", "mtx"), default="alist")
    exp.add_argument("--out", type=Path, required=True, help="output directory")

    st = sub.add_parser("selftest", help="fast invariant suite at L=2")
    st.set_defaults(family="octaplex", L=2, sections=",".join(
        s for s in FAMILIES["octaplex"].section_table() if s != "distance"))
    _add_run_options(st)
    return parser


def _fault(kind: str | None) -> Fault | None:
    """The requested fault; an OCTAPLEX_SEED that is no integer is a ValueError."""
    if kind is None:
        return None
    return Fault(kind, seed=int(os.environ.get("OCTAPLEX_SEED", "0")))


def cmd_report(args) -> int:
    sections = None
    if args.sections is not None:
        sections = {s.strip() for s in args.sections.split(",") if s.strip()}
    try:
        fault = _fault(args.inject_fault)
    except ValueError:
        print("error: OCTAPLEX_SEED must be an integer", file=sys.stderr)
        return USAGE_ERROR
    try:
        requested_sections(args.family, args.L, sections, fault)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    result = RUNNERS[args.family](args.L, sections=sections, fault=fault)
    (sys.stderr if args.json else sys.stdout).write(render_text(result))
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
    selectors = FAMILIES[args.family].exports
    keys = (
        list(selectors) if args.which == "all"
        else list(dict.fromkeys(k.strip() for k in args.which.split(",") if k.strip()))
    )
    try:
        requested_sections(args.family, args.L, None, None)
        if not keys:
            raise ValueError("--which names no selector")
        if unknown := [k for k in keys if k not in selectors]:
            raise ValueError(f"selectors {unknown} are not defined for the "
                             f"{args.family} family")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    run = _Run(args.family, args.L, None, {})
    render = matrix_to_alist if args.format == "alist" else matrix_to_mtx
    try:
        for k in keys:
            path = args.out / f"{args.family}_L{args.L}_{k}.{args.format}"
            write_text(path, render(selectors[k](run)))
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
