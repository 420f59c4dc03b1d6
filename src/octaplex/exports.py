"""Check-matrix exporters and the canonical JSON rendering.

alist is the MacKay sparse layout: `n m`, max column/row degrees, per-column
then per-row 1-based index lists, each list zero-padded to the maximum
degree. MatrixMarket uses the coordinate integer header.
"""

from __future__ import annotations

import json
from pathlib import Path

from .binalg import BinMatrix


def matrix_to_alist(m: BinMatrix) -> str:
    rows, cols = m.shape
    names = list(map(str, range(1, max(m.shape) + 1)))  # names[j] is str(j + 1)
    lists = m.transpose().mapped_rows(names), m.mapped_rows(names)
    widths = [max(map(len, t), default=0) for t in lists]
    lines = [f"{cols} {rows}", " ".join(map(str, widths)),
             *(" ".join(map(str, map(len, t))) for t in lists)]
    for t, width in zip(lists, widths):
        zeros = ["0"] * width
        lines += [" ".join(r + zeros[len(r):]) for r in t]
    return "\n".join(lines) + "\n"


def matrix_to_mtx(m: BinMatrix) -> str:
    rows, cols = m.shape
    names = list(map(str, range(1, max(m.shape) + 1)))  # names[j] is str(j + 1)
    lines = ["%%MatrixMarket matrix coordinate integer general", f"{rows} {cols} {sum(m.weights())}"]
    for i, t in enumerate(m.mapped_rows(names)):
        if t:  # the row's entries "i j 1", one per line
            lines.append(f"{names[i]} " + f" 1\n{names[i]} ".join(t) + " 1")
    return "\n".join(lines) + "\n"


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
