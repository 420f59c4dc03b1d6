import ast
from pathlib import Path

import pytest

import octaplex

SRC = Path(octaplex.__file__).parent
SOURCES = sorted(SRC.glob("*.py"))

# Modules that a module must not import: the metacheck ladder is built from
# the complex alone, and the distance certificate takes the ledger's k.
FORBIDDEN_IMPORTS = {"metachecks": {"codes", "logicals", "report"}, "logicals": {"metachecks"}}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_310(path):
    # pyproject.toml requires Python >= 3.10; the parser rejects later syntax
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_feature_version_rejects_later_syntax():
    # negative control, runnable on 3.10 itself: a match statement is 3.10
    # syntax, so the parser accepts it for 3.10 and rejects it for 3.9
    source = "match x:\n    case 1:\n        pass\n"
    ast.parse(source, feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 9))


def package_imports(tree):
    """The ``octaplex`` modules an import statement anywhere in ``tree``
    names, relative (``from .codes import x``, ``from . import codes``) or
    absolute (``from octaplex.codes import x``, ``import octaplex.codes``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "octaplex":
                    continue
                parts = parts[1:]
            found |= {parts[0]} if parts and parts[0] else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("octaplex.")}
    return found


@pytest.mark.parametrize("module", sorted(FORBIDDEN_IMPORTS))
def test_module_imports_no_forbidden_layer(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert package_imports(tree)  # it does import from the package
    assert not package_imports(tree) & FORBIDDEN_IMPORTS[module]


def test_package_imports_sees_every_import_form():
    # negative control: each way of importing codes is caught, and a
    # same-named module outside the package is not
    for source in ("from .codes import Codeblock", "from . import codes",
                   "from octaplex.codes import build_family", "import octaplex.codes",
                   "def f():\n    from .codes import Codeblock\n"):
        assert package_imports(ast.parse(source)) == {"codes"}, source
    assert package_imports(ast.parse("from codes import x\nimport codes")) == set()
