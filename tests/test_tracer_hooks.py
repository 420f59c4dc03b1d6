"""The per-layer trace in perfbench/tracer.py rebinds package functions by
name; every name it wraps must exist, or ``perfbench/run.py --trace 1``
fails."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
