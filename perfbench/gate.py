"""Correctness gate for one run of the octaplex CLI.

A run fails on a nonzero exit code, on any section status other than the
pinned one ("pass" for every section the family runs), on any pinned
certified value that differs from the value recorded at the seed commit,
and, for exports, on any written file whose sha256 differs from the seed's
or on a missing or extra file. The pins live in ``pins.json`` next to this
file. The report's own sha256 is information, never a failure condition.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_FILE = Path(__file__).with_name("pins.json")


def load_pins() -> dict:
    """Pinned seed values per case name (workload or control)."""
    return json.loads(PINS_FILE.read_text(encoding="utf-8"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def extract(doc, path: str):
    """Value at a dotted path; a ``*`` step maps over a list."""
    head, _, rest = path.partition(".")
    if head == "*":
        return [extract(item, rest) if rest else item for item in doc]
    return extract(doc[head], rest) if rest else doc[head]


def check(pins: dict, exit_code: int, out: Path) -> list[str]:
    """Reasons a run failed against one case's pins; empty if it passed.

    ``out`` is the report JSON for a report run and the output directory
    for an export run.
    """
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    if "files" in pins:
        written = {p.name: sha256(p) for p in out.iterdir()} if out.is_dir() else {}
        for fname in sorted(set(pins["files"]) | set(written)):
            if written.get(fname) != pins["files"].get(fname):
                reasons.append(f"file {fname}: sha256 {written.get(fname)} != "
                               f"pinned {pins['files'].get(fname)}")
        return reasons
    try:
        report = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return reasons + [f"no readable report: {exc}"]
    for section, status in pins["statuses"].items():
        got = report.get("sections", {}).get(section, {}).get("status")
        if got != status:
            reasons.append(f"section {section}: status {got} != {status}")
    for path, value in pins["values"].items():
        try:
            got = extract(report, path)
        except (KeyError, TypeError):
            got = "<missing>"
        if got != value:
            reasons.append(f"{path}: {json.dumps(got)} != pinned {json.dumps(value)}")
    return reasons
