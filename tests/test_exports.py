import hashlib
import random

import pytest

from octaplex.binalg import BinMatrix, support_from_mask
from octaplex.exports import (
    canonical_json,
    matrix_to_alist,
    matrix_to_mtx,
)
from octaplex.cli import main
from conftest import alist_to_supports

# sha256 of the canonical L=2 outputs, of the warm-up reports at an L where
# +1 and -1 differ mod L and of the 3d report at L=12 (the benchmark's
# warm-up workload), and of the selftest under each fault at
# OCTAPLEX_SEED=0 (failing records and their witnesses); a refactor must keep
# these bytes.
BYTE_CONTRACT = {
    "report": "8053eed83410562034af8c73a9fc8da4759034d978cb4698ca034aebe0aca5a5",
    "report-bounded": "24e28f88cd5ee6c364a81eff3d293407e59b69aa88274567d28095b76e3206b2",
    "report-2d": "5d44d0f241a8431a7d0809ea13a113cd7b217e104bc86f5901ff67ebc4642fed",
    "report-3d": "f4e8c205555579ec4f66218bea9090edc42207406fab6b589192ba22f32d5e02",
    "report-2d-L5": "487a97a2f59fa72efd29611aca09089001e5f6287f28d9ed179b91666ac66c87",
    "report-3d-L4": "8d976484c38222c345e71aaced3415cf20e93740da15187aa6860b753390818e",
    "report-3d-L12": "50e6e7f6bf7a33199b58525d012a6559284673b223f3690f22bd008b61fac0e8",
    "selftest": "6bb40ce57267e9f260ac2d6796703f560a13709058eb06c37e37fef267e77886",
    "selftest-perturb-logical": "239f3323e79464ef692fb4089f91ff2ac7787875c34aae04773647aa065d4802",
    "selftest-recolor-vertex": "54eced433fc2c19eb36cc0658a7c2273bdc840349868404b0acc0995f09139ef",
    "selftest-drop-m1-entry": "758f5bf2ddb0ff07b35697b19b37f7f7d013d397bab0b2cd2e34a34afa688180",
    "hx1.alist": "9e5874d3e213441955c67afc08c55eb39138218d4b0b6299f7722e172ec2250d",
    "hx1.mtx": "05a11aa4b9d0ffe5e5964c69554c13445bddc455302a1fff055526e81f27d61b",
    "hz1.alist": "a009018fe78d840fb9edbf9c08e7354e74372d9996d85f0d7cbd313909947b92",
    "hz1.mtx": "58b9b791da52f728f2de4c60d134ec8162f192fd410b94666b073816fbc92cd9",
    "m1.alist": "e304a87c89cee3317b4a3cdef3bcc09b7077f3a5e421a0e09e547418cb93fcc0",
    "m1.mtx": "b13d25d62e94e8daa35bd901dde9ce069f7e73a4b1291939227c26c357735143",
    "octaplex-bounded_L2_hx0.alist": "6989872e958b60a68eb2b6163e82cd556fd4cf0acabca6489557a7bc66373024",
    "octaplex-bounded_L2_hx1.alist": "ca39e75a849012621ddfa1f3d8783c63d62208ecb3d519f42ee7bd583e881d63",
    "octaplex-bounded_L2_hx2.alist": "723e2ed6e184741dd2291c65d5086b6ca5e5bac4441dcd52098e8a5351fa4ebe",
    "octaplex-bounded_L2_hx3.alist": "59b748a31090f50500acf27bb4bbfc7f5fb545a80deb97b61652be9d2dd9866b",
    "octaplex-bounded_L2_hz0.alist": "27e8623e4f64d99a2a778c6f7fc287e0b8c71ff4db9338c670ccef53eccbb6b1",
    "octaplex-bounded_L2_hz1.alist": "02db0df062ed71d0dbe51e3470d4cca82aceddc1f1770d3f4573d221f9757cfc",
    "octaplex-bounded_L2_hz2.alist": "568cb794c9c1c3c12c8acc3b6150a5dbaf79380f8bb6c65deda76624da4a2b5b",
    "octaplex-bounded_L2_hz3.alist": "ab5cde13b97e7023fc21ed6339b3f5d82aa38f128262a079f5da97c1b895f4bf",
}
# sha256 of the slow pins: the canonical L=3 outputs of both octaplex
# families and the L=4 and L=5 octaplex reports (L=5, about 3 s, is the
# first odd size above 4 at which the flat cell keys wrap).
BYTE_CONTRACT_SLOW = {
    "report-L3": "6822a7e4f08500d7e22ad358fcd2f0b497111f56adc5d00c8d28e48f2b68e043",
    "report-L4": "bd0988dec37000f9c5a50be6af6eb2c6b9baef599746726e9a3662c241c78af7",
    "report-L5": "eeb0d43c09a565ab202e3c662217937abc891246c0cae74ca1214474d3573d98",
    "report-bounded-L3": "f341f191e1355962ed823aa22eba4203f43b66b33b172766ffcb31138d587fbe",
    "octaplex_L3_hx0.alist": "797f59dbda726fb6a43a66be6c16145821b3ac4092674d2d8486e5d043977012",
    "octaplex_L3_hx1.alist": "f046668960e98638adffcccd81552e211bcff70602291a1a9f56847da70078e5",
    "octaplex_L3_hx2.alist": "d7c1b5542383906ccea35ab96207ccc98c5533524e9442502e8b1e351463f63a",
    "octaplex_L3_hx3.alist": "eed1b75d3e01b12fbee51b8eea5d0105c14eb5a46fc42345741761da1d365365",
    "octaplex_L3_hz0.alist": "fec5f1ee5307366480a25162caca3497b27794434d3cc8689fdd2b67b94bea6c",
    "octaplex_L3_hz1.alist": "7115e069898fc83cfdad44a0075433aee68da7593b5a34e37401fa10e85f7065",
    "octaplex_L3_hz2.alist": "18ba668114d241892695ec59341960a63a5e2150a51453c7bf6a0215571e2029",
    "octaplex_L3_hz3.alist": "d886c8e97c7ff73e727577b4a19dd15adc13430ce01521f6fd00076ff0d4ccf3",
    "octaplex_L3_m0.alist": "1e74265daa5ff609c61477385a643339d13d418b25b5f276249da94601522a63",
    "octaplex_L3_m1.alist": "01d76f852fcab681920bb99a7b1e7f3d192b8470371c65488117d8643971b173",
}
# CLI argv of each pinned report, run with --threads 1 --out; a faulted run
# exits 1.
REPORT_ARGV = {
    "report": ["report", "--family", "octaplex", "--L", "2"],
    "report-bounded": ["report", "--family", "octaplex-bounded", "--L", "2"],
    "report-2d": ["report", "--family", "2d", "--L", "2"],
    "report-3d": ["report", "--family", "3d", "--L", "2"],
    "report-2d-L5": ["report", "--family", "2d", "--L", "5"],
    "report-3d-L4": ["report", "--family", "3d", "--L", "4"],
    "report-3d-L12": ["report", "--family", "3d", "--L", "12"],
    "selftest": ["selftest"],
    **{f"selftest-{kind}": ["selftest", "--inject-fault", kind]
       for kind in ("perturb-logical", "recolor-vertex", "drop-m1-entry")},
    "report-L3": ["report", "--family", "octaplex", "--L", "3"],
    "report-bounded-L3": ["report", "--family", "octaplex-bounded", "--L", "3"],
    "report-L4": ["report", "--family", "octaplex", "--L", "4"],
    "report-L5": ["report", "--family", "octaplex", "--L", "5"],
}
# CLI argv that writes every pinned export file of one prefix, with --out DIR.
EXPORT_ARGV = {
    "octaplex-bounded_": ["export", "--family", "octaplex-bounded", "--L", "2",
                          "--which", "all", "--format", "alist"],
    "octaplex_L3_": ["export", "--family", "octaplex", "--L", "3",
                     "--which", "all", "--format", "alist"],
}


@pytest.fixture(scope="module")
def export_dirs(tmp_path_factory):
    """Each export prefix's output directory, written on first use."""
    dirs = {}

    def get(prefix):
        if prefix not in dirs:
            dirs[prefix] = tmp_path_factory.mktemp("export")
            assert main([*EXPORT_ARGV[prefix], "--out", str(dirs[prefix])]) == 0
        return dirs[prefix]

    return get


def test_alist_roundtrip_small():
    m = BinMatrix([0b0111, 0b1100], 4)
    text = matrix_to_alist(m)
    cols, rows, supports = alist_to_supports(text)
    assert (cols, rows) == (4, 2)
    assert supports == [[0, 1, 2], [2, 3]]


def test_alist_header_and_padding():
    m = BinMatrix([0b011, 0b100], 3)
    lines = matrix_to_alist(m).splitlines()
    assert lines[0] == "3 2"
    assert lines[1] == "1 2"
    # rows are padded with zeros up to the max degree
    assert lines[-1].split() == ["3", "0"]


def test_alist_hx0(family2):
    text = matrix_to_alist(family2.blocks[0].hx)
    cols, rows, supports = alist_to_supports(text)
    assert (cols, rows) == (384, 32)
    assert all(len(s) == 24 for s in supports)
    assert supports == [support_from_mask(r) for r in family2.blocks[0].hx.rows[:32]]


def test_alist_hz0_degrees(family2):
    text = matrix_to_alist(family2.blocks[0].hz)
    cols, rows, supports = alist_to_supports(text)
    assert (cols, rows) == (384, 1024)
    assert all(len(s) == 3 for s in supports)


def test_mtx_format(ladder2):
    text = matrix_to_mtx(ladder2.m1)
    lines = text.splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
    r, c, nnz = map(int, lines[1].split())
    assert (r, c) == (768, 1024)
    assert nnz == 768 * 4
    assert len(lines) == 2 + nnz


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_logicals_json(family2, basis2):
    labels = family2.qubit_labels
    assert [list(labels[i]) for i in basis2.z_ops[0].support(3)] == [[0, 0, 0, 2], [0, 0, 0, 6]]
    assert len([labels[i] for i in basis2.x_ops[0].support(3)]) == 80


@pytest.mark.parametrize(
    "name",
    sorted(BYTE_CONTRACT)
    + [pytest.param(name, marks=pytest.mark.slow) for name in sorted(BYTE_CONTRACT_SLOW)],
)
def test_byte_contract(name, family2, ladder2, tmp_path, export_dirs, monkeypatch):
    prefix = next((p for p in EXPORT_ARGV if name.startswith(p)), None)
    if name in REPORT_ARGV:
        out = tmp_path / "report.json"
        argv = REPORT_ARGV[name]
        monkeypatch.setenv("OCTAPLEX_SEED", "0")
        code = main([*argv, "--threads", "1", "--out", str(out)])
        assert code == (1 if "--inject-fault" in argv else 0)
        data = out.read_bytes()
    elif prefix is not None:
        data = (export_dirs(prefix) / name).read_bytes()
    else:
        key, fmt = name.split(".")
        m = ladder2.m1 if key == "m1" else getattr(family2.blocks[1], key[:2])
        data = (matrix_to_alist if fmt == "alist" else matrix_to_mtx)(m).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == {**BYTE_CONTRACT, **BYTE_CONTRACT_SLOW}[name]


def alist_reference(m):
    """The per-element alist writer: one ``str`` per entry and per pad."""
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


def mtx_reference(m):
    """The per-element MatrixMarket writer: one formatted line per entry."""
    rows, cols = m.shape
    entries = []
    for i, s in enumerate(m.supports()):
        entries.extend(f"{i + 1} {j + 1} 1" for j in s)
    head = "%%MatrixMarket matrix coordinate integer general"
    return "\n".join([head, f"{rows} {cols} {len(entries)}"] + entries) + "\n"


def random_matrix(rng, rows, cols, density):
    """Random rows over ``cols`` columns; empty rows and columns are likely."""
    return BinMatrix.from_supports(
        cols, ([j for j in range(cols) if rng.random() < density] for _ in range(rows)))


EDGE_MATRICES = {
    "zero-rows": BinMatrix.from_supports(5, []),
    "zero-rows-zero-cols": BinMatrix.from_supports(0, []),
    "empty-rows-zero-cols": BinMatrix.from_supports(0, [[], []]),
    "one-column": BinMatrix.from_supports(1, [[0], [], [0], []]),
    "all-empty": BinMatrix.from_supports(4, [[], [], []]),
    "empty-rows-and-columns": BinMatrix.from_supports(12, [[0, 3, 10], [1], [], [2, 10]]),
}


@pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
def test_emitters_match_reference_on_edge_cases(name):
    m = EDGE_MATRICES[name]
    assert matrix_to_alist(m) == alist_reference(m)
    assert matrix_to_mtx(m) == mtx_reference(m)


@pytest.mark.parametrize("seed", range(6))
def test_emitters_match_reference_on_random_matrices(seed):
    rng = random.Random(seed)
    for _ in range(8):
        rows, cols = rng.randrange(0, 40), rng.randrange(1, 130)
        m = random_matrix(rng, rows, cols, rng.choice((0.01, 0.05, 0.3)))
        assert matrix_to_alist(m) == alist_reference(m)
        assert matrix_to_mtx(m) == mtx_reference(m)


def test_emitter_reference_sees_a_changed_byte():
    # negative control: the reference tells apart matrices one entry apart
    a = BinMatrix.from_supports(6, [[0, 2], [5]])
    b = BinMatrix.from_supports(6, [[0, 3], [5]])
    assert alist_reference(a) != alist_reference(b)
    assert mtx_reference(a) != mtx_reference(b)
    assert matrix_to_alist(a) != alist_reference(b)


@pytest.mark.parametrize("key", ["hx1", "hz1", "m1"])
def test_emitters_match_reference_on_the_l2_matrices(family2, ladder2, key):
    m = ladder2.m1 if key == "m1" else getattr(family2.blocks[1], key[:2])
    assert matrix_to_alist(m) == alist_reference(m)
    assert matrix_to_mtx(m) == mtx_reference(m)
