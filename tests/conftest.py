import pytest

from octaplex.codes import (
    build_2d_pair,
    build_3d_triple,
    build_bounded_family,
    build_family,
)
from octaplex.lattice import build_octaplex
from octaplex.logicals import build_logicals
from octaplex.metachecks import build_ladder


def alist_to_supports(text):
    """Parse an alist file back to (cols, rows, per-row 0-based supports)."""
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


@pytest.fixture(scope="session")
def cx2():
    return build_octaplex(2)


@pytest.fixture(scope="session")
def family2(cx2):
    from octaplex.codes import build_family

    return build_family(cx2)


@pytest.fixture(scope="session")
def basis2(family2):
    return build_logicals(family2)


@pytest.fixture(scope="session")
def ladder2(family2):
    return build_ladder(family2.complex)


@pytest.fixture(scope="session")
def family3():
    return build_family(build_octaplex(3))


@pytest.fixture(scope="session")
def ladder3(family3):
    return build_ladder(family3.complex)


@pytest.fixture(scope="session")
def bounded2():
    return build_bounded_family(2)


@pytest.fixture(scope="session")
def bounded_basis2(bounded2):
    return build_logicals(bounded2)


@pytest.fixture(scope="session")
def pair2d():
    return build_2d_pair(2)


@pytest.fixture(scope="session")
def triple3d():
    return build_3d_triple(2)
