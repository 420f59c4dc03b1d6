import ast
from pathlib import Path

import pytest

import octaplex

SOURCES = sorted(Path(octaplex.__file__).parent.glob("*.py"))


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
