"""The per-layer trace in perfbench/tracer.py rebinds package functions by
name; every name it wraps must exist, and every result it counts must have
the attributes it reads, or ``perfbench/run.py --trace 1`` fails."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    tracer = _load_tracer()
    assert tracer.WRAPPED
    for modname, attr, _span in tracer.WRAPPED:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{modname}.{attr}"


def _top_level_names(tree):
    """Names a module binds at top level: its defs, classes, assignments and
    imports, and each class's method names under ``Class.method``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names |= {f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def wrapped_table():
    """The ``WRAPPED`` tuple of tracer.py, read from its syntax tree."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py assigns no WRAPPED table")


def test_wrapped_names_resolve_in_the_source_tree():
    # static: neither tracer.py nor the package is executed
    table = wrapped_table()
    assert table
    defined = {}
    for modname, attr, _span in table:
        assert modname.startswith("octaplex."), modname
        if modname not in defined:
            path = SRC.joinpath(*modname.split(".")).with_suffix(".py")
            assert path.is_file(), f"{modname} has no file under src/"
            defined[modname] = _top_level_names(ast.parse(path.read_text(encoding="utf-8")))
        assert attr in defined[modname], f"{modname}.{attr} is not defined"


def test_static_resolution_rejects_a_renamed_name():
    names = _top_level_names(ast.parse("def f(): pass\nclass C:\n    def m(self): pass\n"))
    assert {"f", "C", "C.m"} <= names
    assert "g" not in names and "C.n" not in names


# Each traced command, and whether it runs a transversal check.
TRACED = {
    "report-2d": (["report", "--family", "2d", "--L", "2"], True),
    "report-octaplex": (["report", "--family", "octaplex", "--L", "2"], True),
    "report-bounded": (["report", "--family", "octaplex-bounded", "--L", "2"], True),
    "export-octaplex": (["export", "--family", "octaplex", "--L", "2", "--which", "all"], False),
}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_tracer_runs_the_cli(name, tmp_path):
    # in a subprocess: install() rebinds the package's globals for good
    argv, scans = TRACED[name]
    if argv[0] == "export":
        argv = [*argv, "--out", str(tmp_path / "exports")]
    trace_path = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, str(TRACER), str(trace_path), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    assert trace["exit_code"] == 0 and trace["spans"]
    assert trace["counters"]["codes.hx_rows"] > 0
    assert (trace["counters"].get("transversal.tuples_scanned", 0) > 0) == scans
