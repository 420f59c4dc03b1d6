"""Traced in-process run of the octaplex CLI, for the per-layer metrics.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/tracer.py TRACE_JSON OCTAPLEX_ARG...

The package is never edited. This script imports ``octaplex.cli``, rebinds
the public functions of each module (lattice, codes, binalg, logicals,
transversal, metachecks, exports, report) to span-recording wrappers in
every ``octaplex`` module that refers to them, calls
``octaplex.cli.main(argv)`` and writes the spans and counters to
TRACE_JSON. It exits with the CLI's exit code.

A span records its name, its parent span, wall start and end, process CPU
time (all threads) and the process RSS high-water mark at its end. Only
calls that do a layer's work are wrapped, never per-element helpers such as
``parity``, ``mask_from_support``, ``star24`` or ``try_classify``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import weakref  # noqa: E402

WORD = 64

# (module, attribute, span name). "Class.method" rebinds on the class.
WRAPPED = (
    ("octaplex.lattice", "build_octaplex", "lattice.build"),
    ("octaplex.lattice", "boundary_composition_is_zero", "lattice.boundary_check"),
    ("octaplex.lattice", "cross_check_nearest", "lattice.nearest_check"),
    ("octaplex.codes", "build_family", "codes.family"),
    ("octaplex.codes", "build_codeblock0", "codes.block0"),
    ("octaplex.codes", "build_colored_codeblock", "codes.colored"),
    ("octaplex.codes", "colored_z_supports", "codes.colored_z_supports"),
    ("octaplex.codes", "Codeblock.css_commutes", "codes.css"),
    ("octaplex.codes", "shifted_qubit_permutation", "codes.shift_perm"),
    ("octaplex.codes", "build_bounded_family", "codes.bounded_build"),
    ("octaplex.codes", "build_2d_pair", "codes.warmup_build"),
    ("octaplex.codes", "build_3d_triple", "codes.warmup_build"),
    ("octaplex.binalg", "BinMatrix.matmul", "binalg.matmul"),
    ("octaplex.binalg", "BinMatrix.rank", "binalg.rank"),
    ("octaplex.binalg", "BinMatrix.kernel_basis", "binalg.kernel"),
    ("octaplex.binalg", "BinMatrix.in_row_space", "binalg.row_space"),
    ("octaplex.binalg", "BinMatrix.rank_increase", "binalg.row_space"),
    ("octaplex.logicals", "build_logicals", "logicals.build"),
    ("octaplex.logicals", "verify_logical_basis", "logicals.verify"),
    ("octaplex.logicals", "certify_distances", "logicals.distance"),
    ("octaplex.transversal", "check_cz_conditions", "transversal.check"),
    ("octaplex.transversal", "check_ccz_conditions", "transversal.check"),
    ("octaplex.transversal", "check_cccz_conditions", "transversal.check"),
    ("octaplex.transversal", "triple_weight_histogram", "transversal.histogram"),
    ("octaplex.metachecks", "build_ladder", "metachecks.ladder"),
    ("octaplex.metachecks", "verify_counting", "metachecks.counting"),
    ("octaplex.metachecks", "verify_global_constraints", "metachecks.globals"),
    ("octaplex.metachecks", "single_shot_repair_demo", "metachecks.demo"),
    ("octaplex.exports", "matrix_to_alist", "exports.alist"),
    ("octaplex.exports", "write_text", "exports.write"),
    ("octaplex.report", "run_octaplex_report", "report.run"),
    ("octaplex.report", "run_bounded_report", "report.run"),
    ("octaplex.report", "run_2d_report", "report.run"),
    ("octaplex.report", "run_3d_report", "report.run"),
    ("octaplex.report", "report_json", "report.json"),
)

# Binalg calls after which the matrix has been brought to echelon form.
ELIMINATING = ("binalg.rank", "binalg.kernel", "binalg.row_space")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._local = threading.local()
        self._eliminated: weakref.WeakSet = weakref.WeakSet()
        self._rank = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, name: str) -> dict:
        """Start a span under the calling thread's innermost open span."""
        stack = self._stack()
        rec = {"id": len(self.spans), "parent": stack[-1] if stack else None,
               "name": name, "cpu0": time.process_time(),
               "start": time.perf_counter() - T0}
        self.spans.append(rec)
        stack.append(rec["id"])
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter() - T0
        rec["cpu"] = time.process_time() - rec.pop("cpu0")
        rec["rss_mb"] = _maxrss_mb()
        self._stack().pop()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            tracer.count(name, args, result)
            return result

        return wrapper

    def count(self, name: str, args: tuple, result) -> None:
        """Exact counters, taken after the span has closed."""
        if name in ELIMINATING:
            m = args[0]
            if m not in self._eliminated:
                # Computed, not measured: each pivot XORs at most every row,
                # one word at a time.
                self._eliminated.add(m)
                words = max(1, (m.cols + WORD - 1) // WORD)
                self.add("binalg.rref_word_ops", self._rank(m) * len(m.rows) * words)
        elif name in ("codes.family", "codes.bounded_build", "codes.warmup_build"):
            for blk in result.blocks:
                self.add("codes.hx_rows", len(blk.hx.rows))
                self.add("codes.hz_rows", len(blk.hz.rows))
                self.add("codes.nnz", sum(r.bit_count() for r in blk.hx.rows)
                         + sum(r.bit_count() for r in blk.hz.rows))
                self.add("codes.completion_generators",
                         blk.meta.get("completion_generators", 0))
        elif name == "lattice.build":
            self.add("lattice.cells", sum(len(c) for c in result.cells))
        elif name == "transversal.check":
            self.add("transversal.tuples_scanned", result.scanned)
        elif name == "exports.write":
            self.add("exports.bytes", len(args[1].encode("utf-8")))
        elif name == "report.json":
            self.add("report.json_bytes", len(result.encode("utf-8")))

    def install(self) -> None:
        """Rebind every wrapped function wherever an octaplex module holds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "octaplex" or n.startswith("octaplex.")]
        from octaplex.binalg import BinMatrix
        self._rank = BinMatrix.rank
        for modname, attr, name in WRAPPED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                value[k] = wrapper


# Spans whose inclusive wall time is a per-layer metric, named <span>_s.
TIMED_SPANS = (
    "lattice.build",
    "lattice.boundary_check",
    "lattice.nearest_check",
    "codes.block0",
    "codes.colored",
    "codes.colored_z_supports",
    "codes.css",
    "codes.shift_perm",
    "codes.bounded_build",
    "codes.warmup_build",
    "binalg.matmul",
    "binalg.rank",
    "binalg.kernel",
    "binalg.row_space",
    "logicals.build",
    "logicals.verify",
    "logicals.distance",
    "transversal.check",
    "transversal.histogram",
    "metachecks.ladder",
    "metachecks.counting",
    "metachecks.globals",
    "metachecks.demo",
    "exports.alist",
    "exports.write",
    "report.json",
    "cli.import",
)

COUNTERS = (
    "lattice.cells", "codes.hx_rows", "codes.hz_rows", "codes.nnz",
    "codes.completion_generators", "binalg.rref_word_ops",
    "transversal.tuples_scanned", "exports.bytes", "report.json_bytes",
)


def span_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive wall, self wall, CPU and peak RSS.

    Inclusive wall skips a span nested inside another span of the same name,
    so recursion is not counted twice. Self wall is a span's wall minus the
    wall of its direct children.
    """
    by_id = {s["id"]: s for s in spans}
    child_wall: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_wall[s["parent"]] = child_wall.get(s["parent"], 0.0) + s["end"] - s["start"]
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "wall_s": 0.0, "self_s": 0.0,
                                           "cpu_s": 0.0, "rss_mb": 0.0})
        wall = s["end"] - s["start"]
        row["calls"] += 1
        row["self_s"] += wall - child_wall.get(s["id"], 0.0)
        row["rss_mb"] = max(row["rss_mb"], s["rss_mb"])
        p = s["parent"]
        while p is not None and by_id[p]["name"] != s["name"]:
            p = by_id[p]["parent"]
        if p is None:
            row["wall_s"] += wall
            row["cpu_s"] += s["cpu"]
    return table


def layer_metrics(trace: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run, except ``trace.overhead_s``."""
    table = span_table(trace["spans"])
    counters = trace["counters"]

    def wall(span: str) -> float:
        return table.get(span, {}).get("wall_s", 0.0)

    out: dict[str, float] = {f"{s}_s": wall(s) for s in TIMED_SPANS}
    out.update({c: counters.get(c, 0) for c in COUNTERS})
    out["binalg.matmul_calls"] = table.get("binalg.matmul", {}).get("calls", 0)
    out["binalg.rank_calls"] = table.get("binalg.rank", {}).get("calls", 0)
    out["report.self_s"] = table.get("report.run", {}).get("self_s", 0.0)
    check = wall("transversal.check")
    out["transversal.tuples_per_s"] = (
        out["transversal.tuples_scanned"] / check if check > 0 else 0.0)
    export_time = wall("exports.alist") + wall("exports.write")
    out["exports.mb_per_s"] = (
        out["exports.bytes"] / 1e6 / export_time if export_time > 0 else 0.0)
    top = sum(s["end"] - s["start"] for s in trace["spans"] if s["parent"] is None)
    out["trace.coverage"] = top / trace["wall_s"]
    return out


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    rec = tracer.open("cli.import")
    import octaplex.cli
    tracer.close(rec)
    tracer.install()
    code = octaplex.cli.main(cli_argv)
    sys.stdout.flush()
    wall = time.perf_counter() - T0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "exit_code": code, "spans": tracer.spans,
                   "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
