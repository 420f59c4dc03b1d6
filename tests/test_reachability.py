"""Every function, class, method and module-level name in src/octaplex is
reached from what the CLI runs, or is named in ``PENDING``.

The check reads the syntax trees of ``src/octaplex/*.py`` and imports
nothing. Its roots are ``cli.main`` and every module's top-level statements
other than defs and assignments to names (the ``if __name__`` guard, say);
an import statement reaches nothing. A module-level assignment such as the
``FAMILIES``, ``CHECKS`` and ``FAULT_KINDS`` tables counts as a def of the
names it binds. A reached body reaches every name it reads, as a variable or
as an attribute, and a reached name reaches every def with that name, in any
module or class. A reached class reaches its body and its dunder methods.
"""

import ast
from pathlib import Path

from test_tracer_hooks import wrapped_table

SRC = Path(__file__).resolve().parent.parent / "src" / "octaplex"

# Defs that no command reaches yet, each with the open ROADMAP work that
# decides its fate: "tracer" until the per-layer trace stops wrapping them by
# name, "gate" until the logical gate becomes a report section.
PENDING = {
    "build_colored_codeblock": "tracer",
    "triple_weight_histogram": "tracer",
    "BinMatrix.matmul": "tracer",
    "BinMatrix.rank_increase": "tracer",
    "run_octaplex_report": "tracer",
    "run_bounded_report": "tracer",
    "run_2d_report": "tracer",
    "run_3d_report": "tracer",
    "PauliSupport": "gate",
    "logical_class": "gate",
    "induced_logical_z": "gate",
    "multilinearity_holds": "gate",
    "PhasePolynomial": "gate",
    "sandwich_identity": "gate",
    "targeted_gate_from_rounds": "gate",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse_sources() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def _bound(node: ast.AST) -> list[str]:
    """The names a module-level assignment binds; none for other statements."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for target in targets for t in ast.walk(target)
                if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
    return []


def _defs(trees: dict[str, ast.Module]) -> dict[str, list[ast.AST]]:
    """Each def's qualified name (``f``, ``C``, ``C.m`` or an assigned ``X``)
    → its nodes, in any module."""
    out: dict[str, list] = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, _DEFS):
                out.setdefault(node.name, []).append(node)
            for name in _bound(node):
                out.setdefault(name, []).append(node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS):
                        out.setdefault(f"{node.name}.{item.name}", []).append(item)
    return out


def _names_read(nodes) -> set[str]:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def reached(trees: dict[str, ast.Module]) -> set[str]:
    """The qualified names of the defs reached from the roots."""
    defs = _defs(trees)
    by_name: dict[str, list[str]] = {}
    for qual in defs:
        by_name.setdefault(qual.rsplit(".", 1)[-1], []).append(qual)
    names = {"main"} | _names_read(node for tree in trees.values() for node in tree.body
                                   if not isinstance(node, (*_DEFS, ast.Import, ast.ImportFrom))
                                   and not _bound(node))
    seen: set[str] = set()
    todo = [qual for name in names for qual in by_name.get(name, ())]
    while todo:
        qual = todo.pop()
        if qual in seen:
            continue
        seen.add(qual)
        for node in defs[qual]:
            if isinstance(node, ast.ClassDef):
                body = [item for item in node.body if not isinstance(item, _DEFS)]
                names = _names_read(body + node.decorator_list + node.bases)
                todo += (f"{qual}.{item.name}" for item in node.body
                         if isinstance(item, _DEFS) and item.name.startswith("__"))
            else:
                names = _names_read([node])
            todo += (q for name in names for q in by_name.get(name, ()))
    return seen


def problems(trees: dict[str, ast.Module], pending: dict[str, str], wrapped) -> list[str]:
    """Everything the rules above reject, as one message each."""
    defs, seen, out = _defs(trees), reached(trees), []
    for qual in defs:
        owner = qual.split(".")[0]
        if qual not in seen and qual not in pending and owner not in pending:
            out.append(f"unreached: {qual}")
    out += [f"reached but pending: {qual}" for qual in pending if qual in seen]
    out += [f"pending but not defined: {qual}" for qual in pending if qual not in defs]
    traced = {attr for _mod, attr, _span in wrapped}
    out += [f"pending for the tracer but not traced: {qual}"
            for qual, why in pending.items() if why == "tracer" and qual not in traced]
    return out


def test_every_def_is_reached_or_pending():
    assert problems(parse_sources(), PENDING, wrapped_table()) == []


def test_pending_is_the_open_items():
    assert len(PENDING) == 15
    assert set(PENDING.values()) == {"tracer", "gate"}


def test_an_unreached_def_fails():
    trees = parse_sources()
    trees["lattice"].body += ast.parse("def orphan(cx):\n    return cx.L\n").body
    assert problems(trees, PENDING, wrapped_table()) == ["unreached: orphan"]


def test_an_unread_module_level_alias_fails():
    trees = parse_sources()
    trees["report"].body += ast.parse("run_spare_report = RUNNERS['3d']\n").body
    assert problems(trees, PENDING, wrapped_table()) == ["unreached: run_spare_report"]


def test_a_reached_pending_name_fails():
    trees = parse_sources()
    trees["report"].body += ast.parse("FAMILIES['probe'] = multilinearity_holds\n").body
    assert problems(trees, PENDING, wrapped_table()) == [
        "reached but pending: multilinearity_holds"]


def test_an_untraced_tracer_name_fails():
    wrapped = [w for w in wrapped_table() if w[1] != "BinMatrix.rank_increase"]
    assert problems(parse_sources(), PENDING, wrapped) == [
        "pending for the tracer but not traced: BinMatrix.rank_increase"]


def test_a_reached_class_reaches_its_dunders_only():
    trees = {"cli": ast.parse("def main():\n    return C()\n"),
             "m": ast.parse("class C:\n    X = helper\n    def __init__(self): pass\n"
                            "    def spare(self): pass\n"
                            "def helper(): pass\n")}
    assert reached(trees) == {"main", "C", "C.__init__", "helper"}


def test_a_read_alias_reaches_its_value_and_an_unread_one_nothing():
    trees = {"cli": ast.parse("def main():\n    return ALIAS()\n"),
             "m": ast.parse("ALIAS = helper\nSPARE = other\n"
                            "def helper(): pass\ndef other(): pass\n"
                            "if __name__ == '__main__':\n    main()\n")}
    assert reached(trees) == {"main", "ALIAS", "helper"}
