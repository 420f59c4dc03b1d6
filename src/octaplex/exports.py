"""Check-matrix and lattice exporters.

alist is the MacKay sparse layout: `n m`, max column/row degrees, per-column
then per-row 1-based index lists, each list zero-padded to the maximum
degree. MatrixMarket uses the coordinate integer header.
"""

from __future__ import annotations

import json
from pathlib import Path

from .binalg import BinMatrix, support_from_mask


def matrix_to_alist(m: BinMatrix) -> str:
    rows, cols = m.shape
    col_lists = [[i + 1 for i in s] for s in m.transpose().supports()]
    row_lists = [[j + 1 for j in s] for s in m.supports()]
    max_col = max((len(c) for c in col_lists), default=0)
    max_row = max((len(r) for r in row_lists), default=0)
    lines = [
        f"{cols} {rows}",
        f"{max_col} {max_row}",
        " ".join(str(len(c)) for c in col_lists),
        " ".join(str(len(r)) for r in row_lists),
    ]
    for c in col_lists:
        lines.append(" ".join(str(v) for v in c + [0] * (max_col - len(c))))
    for r in row_lists:
        lines.append(" ".join(str(v) for v in r + [0] * (max_row - len(r))))
    return "\n".join(lines) + "\n"


def alist_to_supports(text: str) -> tuple[int, int, list[list[int]]]:
    """Parse back to (cols, rows, per-row 0-based supports); used in tests."""
    tokens = [int(t) for t in text.split()]
    it = iter(tokens)
    cols = next(it)
    rows = next(it)
    max_col = next(it)
    max_row = next(it)
    col_deg = [next(it) for _ in range(cols)]
    row_deg = [next(it) for _ in range(rows)]
    for _ in range(cols):
        for _ in range(max_col):
            next(it)
    supports = []
    for i in range(rows):
        vals = [next(it) for _ in range(max_row)]
        supports.append(sorted(v - 1 for v in vals[: row_deg[i]]))
    del col_deg
    return cols, rows, supports


def matrix_to_mtx(m: BinMatrix) -> str:
    rows, cols = m.shape
    entries = []
    for i, s in enumerate(m.supports()):
        entries.extend(f"{i + 1} {j + 1} 1" for j in s)
    head = "%%MatrixMarket matrix coordinate integer general"
    return "\n".join([head, f"{rows} {cols} {len(entries)}"] + entries) + "\n"


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def logicals_to_json(labels: list, qubit_labels: list, ops: dict[str, int]) -> dict:
    out = {}
    for name, mask in ops.items():
        out[name] = [list(qubit_labels[i]) for i in support_from_mask(mask)]
    return {"directions": labels, "operators": out}
