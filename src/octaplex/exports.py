"""Check-matrix exporters and the canonical JSON rendering.

alist is the MacKay sparse layout: `n m`, max column/row degrees, per-column
then per-row 1-based index lists, each list zero-padded to the maximum
degree. MatrixMarket uses the coordinate integer header.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path

from .binalg import BinMatrix


_NAMES: list[str] = []  # _NAMES[j] is str(j + 1); one table for all exports, grown on demand


def _names(size: int) -> list[str]:
    """The shared 1-based names, covering the indices below ``size``."""
    _NAMES.extend(map(str, range(len(_NAMES) + 1, size + 1)))
    return _NAMES


def matrix_to_alist(m: BinMatrix) -> str:
    rows, cols = m.shape
    names, parts = _names(max(m.shape)), []
    for t in (m.transpose(), m):  # the columns, then the rows
        weights = t.weights()
        width = max(weights, default=0)
        if sum(weights) != width * len(weights):  # each list zero-padded to the width
            degrees = " ".join(map(str, weights))
            lines = [" ".join(r + ["0"] * (width - len(r))) for r in t.mapped_rows(names)]
        else:  # one width: runs of the flat mapped index list
            degrees = " ".join([str(width)] * len(weights))
            runs = zip(*[iter(t.mapped(names))] * width) if width else repeat((), len(weights))
            lines = list(map(" ".join, runs))
        parts.append((width, degrees, lines))
    (cw, cweights, clines), (rw, rweights, rlines) = parts
    return "\n".join([f"{cols} {rows}", f"{cw} {rw}", cweights, rweights, *clines, *rlines]) + "\n"


def matrix_to_mtx(m: BinMatrix) -> str:
    rows, cols = m.shape
    names = _names(max(m.shape))
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
