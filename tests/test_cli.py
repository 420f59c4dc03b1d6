import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from octaplex import codes, report
from octaplex.cli import main
from octaplex.report import run_report
from conftest import alist_to_supports
from test_tracer_hooks import wrapped_table


def test_report_2d(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["report", "--family", "2d", "--L", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["family"] == "2d"
    assert payload["sections"]["transversal"]["status"] == "pass"
    text = capsys.readouterr().out
    assert "overall: PASS" in text


def test_report_bounded(tmp_path):
    out = tmp_path / "b.json"
    code = main(["report", "--family", "octaplex-bounded", "--L", "2",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert all(b["k"] == 1 for b in payload["sections"]["codes"]["blocks"])


def test_report_octaplex_sections(tmp_path):
    out = tmp_path / "o.json"
    code = main(["report", "--family", "octaplex", "--L", "2",
                 "--sections", "lattice,codes", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["sections"]["lattice"]["status"] == "pass"
    assert payload["sections"]["codes"]["blocks"][0]["k"] == 4
    assert payload["sections"]["distance"]["status"] == "skipped"
    assert payload["sections"]["metachecks"]["status"] == "skipped"


@pytest.mark.parametrize("family, asked, skipped", [
    ("2d", "codes", "transversal"),
    ("octaplex-bounded", "transversal", "codes"),
])
def test_report_sections_every_family(tmp_path, family, asked, skipped):
    out = tmp_path / "s.json"
    code = main(["report", "--family", family, "--L", "2",
                 "--sections", asked, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["sections"][asked]["status"] == "pass"
    assert payload["sections"][skipped]["status"] == "skipped"


def test_usage_errors():
    assert main(["report", "--family", "octaplex", "--L", "1"]) == 2
    assert main(["report", "--family", "3d", "--L", "3"]) == 2
    assert main(["report", "--family", "octaplex", "--L", "2",
                 "--sections", "nonsense"]) == 2
    # a section the family does not define
    assert main(["report", "--family", "2d", "--L", "2",
                 "--sections", "lattice"]) == 2
    # only the octaplex family takes a fault; elsewhere a negative control
    # would silently pass
    assert main(["report", "--family", "octaplex-bounded", "--L", "2",
                 "--inject-fault", "perturb-logical"]) == 2
    # a fault whose catching section is not requested could not fail
    assert main(["report", "--family", "octaplex", "--L", "2",
                 "--sections", "codes", "--inject-fault", "perturb-logical"]) == 2
    assert main(["report", "--family", "octaplex", "--L", "2",
                 "--sections", "codes", "--inject-fault", "recolor-vertex"]) == 2
    assert main(["report", "--family", "octaplex", "--L", "2",
                 "--sections", "codes", "--inject-fault", "drop-m1-entry"]) == 2
    # an empty selector list names nothing; it must not mean "everything"
    assert main(["report", "--family", "octaplex", "--L", "2",
                 "--sections", ","]) == 2
    assert main(["export", "--L", "2", "--which", ",", "--out", "unused"]) == 2
    # export takes report's L rule, and a selector its family does not define
    for family in ("octaplex", "octaplex-bounded"):
        assert main(["export", "--family", family, "--L", "1", "--which", "all",
                     "--out", "unused"]) == 2
    assert main(["export", "--family", "octaplex-bounded", "--L", "2",
                 "--which", "m0", "--out", "unused"]) == 2


@pytest.mark.parametrize("family, L, sections", [
    ("octaplex-bounded", 2, set()),
    ("octaplex-bounded", 2, {"lattice"}),
    ("octaplex-bounded", 2, {"nonsense"}),
    ("3d", 3, None),
    ("octaplex", 1, None),
    ("octaplex-bounded", 1, None),
], ids=["empty", "not-in-family", "unknown", "3d-odd-L", "octaplex-L1", "bounded-L1"])
def test_run_report_rejects_bad_sections(monkeypatch, family, L, sections):
    # the library call as well: nothing is not everything, a section the
    # family does not define is an error, not a skip, and an L outside the
    # family's rule fails before anything is built
    built = []
    spy = lambda *a: built.append(a)  # noqa: E731
    monkeypatch.setattr(report, "build_octaplex", spy)
    for name in report.BUILDERS:
        monkeypatch.setitem(report.BUILDERS, name, spy)
    with pytest.raises(ValueError):
        run_report(family, L, sections=sections)
    assert built == []


# A fault on a family without faults, or whose catching section is not run,
# could never fail the run: each is a usage error, not a silent pass.
UNCAUGHT_FAULTS = [
    ("octaplex-bounded", None, "recolor-vertex"),
    ("octaplex-bounded", None, "drop-m1-entry"),
    ("2d", None, "recolor-vertex"),
    ("octaplex", {"lattice"}, "drop-m1-entry"),
    ("octaplex", {"lattice"}, "perturb-logical"),
]


@pytest.mark.parametrize("family, sections, kind", UNCAUGHT_FAULTS)
def test_run_report_rejects_an_uncaught_fault(family, sections, kind):
    with pytest.raises(ValueError):
        run_report(family, 2, sections=sections, fault=report.Fault(kind))


@pytest.mark.parametrize("family, sections, kind", UNCAUGHT_FAULTS)
def test_cli_rejects_an_uncaught_fault(capsys, family, sections, kind):
    argv = ["report", "--family", family, "--L", "2", "--inject-fault", kind]
    if sections is not None:
        argv += ["--sections", ",".join(sections)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_argparse_rejects_unknown_family():
    with pytest.raises(SystemExit) as err:
        main(["report", "--family", "5d", "--L", "2"])
    assert err.value.code == 2


def test_io_error(tmp_path):
    target = tmp_path / "f"
    target.write_text("x")
    # a file where a directory is needed triggers the I/O exit path
    code = main(["export", "--family", "octaplex", "--L", "2",
                 "--which", "hx0", "--out", str(target / "sub")])
    assert code == 3


def test_export(tmp_path):
    code = main(["export", "--family", "octaplex", "--L", "2",
                 "--which", "hx0,hz0,m1", "--format", "alist",
                 "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "octaplex_L2_hx0.alist").read_text()
    cols, rows, supports = alist_to_supports(text)
    assert (cols, rows) == (384, 32)
    assert all(len(s) == 24 for s in supports)
    m1 = (tmp_path / "octaplex_L2_m1.alist").read_text()
    cols, rows, supports = alist_to_supports(m1)
    assert (cols, rows) == (1024, 768)
    assert all(len(s) == 4 for s in supports)


def test_export_mtx(tmp_path):
    code = main(["export", "--family", "octaplex", "--L", "2",
                 "--which", "hz0", "--format", "mtx", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "octaplex_L2_hz0.mtx").read_text().splitlines()
    assert lines[0].startswith("%%MatrixMarket")
    assert lines[1] == "1024 384 3072"


def test_export_unknown_selector(tmp_path):
    assert main(["export", "--family", "octaplex", "--L", "2",
                 "--which", "hq9", "--out", str(tmp_path)]) == 2


def test_export_bounded_all(tmp_path):
    code = main(["export", "--family", "octaplex-bounded", "--L", "2",
                 "--which", "all", "--out", str(tmp_path)])
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(
        f"octaplex-bounded_L2_h{s}{b}.alist" for s in "xz" for b in range(4)
    )
    # naming a periodic-only selector is still a usage error
    assert main(["export", "--family", "octaplex-bounded", "--L", "2",
                 "--which", "hx0,m1", "--out", str(tmp_path / "m")]) == 2


def test_export_duplicate_selectors_written_once(tmp_path, capsys):
    code = main(["export", "--family", "octaplex", "--L", "2",
                 "--which", "hz1,hx0,hz1,hx0", "--out", str(tmp_path)])
    assert code == 0
    assert "wrote 2 files" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "octaplex_L2_hx0.alist", "octaplex_L2_hz1.alist"]


# sha256 of the L=2 m0 and m1 alist files as written when every export built
# the whole code family first
M_ALIST_L2 = {
    "octaplex_L2_m0.alist": "eb414e2f046949f1a916cee7cf1086916cf814ef67bfbbcbcf7d88dbed0acdca",
    "octaplex_L2_m1.alist": "e304a87c89cee3317b4a3cdef3bcc09b7077f3a5e421a0e09e547418cb93fcc0",
}


@pytest.mark.parametrize("which, families", [
    ("hx0,hz3", 1), ("hx0,m0", 1), ("all", 1), ("m0,m1", 0),
], ids=["hx0,hz3", "hx0,m0", "all", "m0,m1"])
def test_export_builds_no_ladder_for_any_selector(tmp_path, monkeypatch, which, families):
    # m0 and m1 are the complex's transposed boundary maps, read off the run
    # as a metachecks-only report reads its ladder: no metacheck ladder is
    # constructed, the code family only for an hx or hz selector and then
    # once, and the CLI binds nothing from metachecks
    import octaplex.cli
    from octaplex.metachecks import MetacheckLadder

    built, calls = [], []
    real = MetacheckLadder.__init__
    monkeypatch.setattr(MetacheckLadder, "__init__",
                        lambda self, *a, **k: built.append(a) or real(self, *a, **k))
    build = codes.build_family
    spy = lambda cx: calls.append(cx) or build(cx)  # noqa: E731
    monkeypatch.setattr(codes, "build_family", spy)
    monkeypatch.setattr(report, "build_family", spy)
    assert main(["export", "--family", "octaplex", "--L", "2",
                 "--which", which, "--out", str(tmp_path)]) == 0
    assert built == []
    assert len(calls) == families
    assert len(list(tmp_path.iterdir())) == (10 if which == "all" else 2)
    for path in tmp_path.glob("octaplex_L2_m?.alist"):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == M_ALIST_L2[path.name]
    assert not [name for name, v in vars(octaplex.cli).items()
                if getattr(v, "__module__", None) == "octaplex.metachecks"]


def test_no_command_loads_numpy(tmp_path):
    import octaplex

    runs = [
        ["report", "--family", "3d", "--L", "2"],
        ["report", "--family", "octaplex-bounded", "--L", "2"],
        ["export", "--family", "octaplex", "--L", "2", "--which", "hx0",
         "--out", str(tmp_path)],
        ["report", "--family", "octaplex", "--L", "2"],
    ]
    script = ("import json, sys\nfrom octaplex.cli import main\n"
              f"print(json.dumps([[main(a), 'numpy' in sys.modules] for a in {runs!r}]))")
    env = dict(os.environ, PYTHONPATH=str(Path(octaplex.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == [[0, False]] * 4


def test_package_import_loads_no_submodule_and_the_cli_loads_all_traced_modules():
    import octaplex

    traced = sorted({mod for mod, _attr, _span in wrapped_table()})
    script = ("import json, sys\nimport octaplex\n"
              "bare = sorted(m for m in sys.modules if m.startswith('octaplex.'))\n"
              "import octaplex.cli\n"
              "print(json.dumps([bare, sorted(m for m in sys.modules if m.startswith('octaplex.'))]))")
    env = dict(os.environ, PYTHONPATH=str(Path(octaplex.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    bare, with_cli = json.loads(proc.stdout.splitlines()[-1])
    assert bare == []
    assert len(traced) == 8
    assert set(traced) <= set(with_cli)


def test_selftest_passes(capsys):
    assert main(["selftest", "--threads", "1"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["report", "--family", "2d", "--L", "3"],
    ["report", "--family", "3d", "--L", "4", "--sections", "codes"],
    ["selftest"],
], ids=["report-2d", "report-3d-codes", "selftest"])
def test_json_stdout_is_the_report_alone(tmp_path, capsys, argv):
    # under --json the timed text summary goes to stderr, so stdout is one
    # JSON document, byte for byte the file --out writes
    out = tmp_path / "r.json"
    assert main([*argv, "--threads", "1", "--json", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == json.loads(out.read_text())
    assert captured.out.encode("utf-8") == out.read_bytes()
    assert "overall: PASS" in captured.err and "overall" not in captured.out
    # without --json the summary stays on stdout
    assert main([*argv, "--threads", "1"]) == 0
    captured = capsys.readouterr()
    assert "overall: PASS" in captured.out and captured.err == ""


def test_selftest_determinism_across_threads(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["selftest", "--threads", "1", "--out", str(a)]) == 0
    assert main(["selftest", "--threads", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_injected_fault_fails_with_witness(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OCTAPLEX_SEED", "5")
    out = tmp_path / "bad.json"
    code = main(["selftest", "--threads", "1", "--inject-fault",
                 "perturb-logical", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["fault"]["kind"] == "perturb-logical"
    assert payload["sections"]["logicals"]["status"] == "fail"
    assert payload["sections"]["logicals"]["witnesses"]


def test_injected_recolor_fails(tmp_path):
    out = tmp_path / "bad2.json"
    code = main(["report", "--family", "octaplex", "--L", "2",
                 "--sections", "lattice,codes", "--inject-fault",
                 "recolor-vertex", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["sections"]["lattice"]["status"] == "fail"
    assert payload["sections"]["lattice"]["same_color_edge_witness"]


@pytest.mark.parametrize("seed", ["0", "5", "11"])
def test_injected_m1_entry_drop_fails(tmp_path, monkeypatch, seed):
    # one entry of m1 is removed after the ladder is built: the m1*hz chain
    # product is no longer zero, and both pairs that read m1 are eliminated
    monkeypatch.setenv("OCTAPLEX_SEED", seed)
    ladders = []
    counting = report.verify_counting
    monkeypatch.setattr(report, "verify_counting",
                        lambda ladder: ladders.append(ladder) or counting(ladder))
    out = tmp_path / "bad3.json"
    code = main(["report", "--family", "octaplex", "--L", "2",
                 "--sections", "metachecks", "--inject-fault", "drop-m1-entry",
                 "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    section = payload["sections"]["metachecks"]
    assert section["status"] == "fail"
    assert section["counting"]["chain_m1_hz_zero"] is False
    fault = payload["fault"]
    assert fault["kind"] == "drop-m1-entry"
    (ladder,) = ladders
    assert fault["face"] not in ladder.m1.support(fault["edge"])
    assert fault["face"] in ladder.cx.boundary[2].transpose().support(fault["edge"])
    assert {"m1", "m0+edges", "hz", "m1+faces"} <= set(ladder.ledger.fallbacks)


@pytest.mark.parametrize("seed", ["abc", "1.5", ""])
@pytest.mark.parametrize("argv", [
    ["selftest", "--inject-fault", "perturb-logical"],
    ["report", "--family", "octaplex", "--L", "2", "--sections", "lattice",
     "--inject-fault", "recolor-vertex"],
])
def test_non_integer_fault_seed_is_a_usage_error(monkeypatch, capsys, seed, argv):
    # exit 1 means a failed verification, so a bad seed must stop before the run
    monkeypatch.setenv("OCTAPLEX_SEED", seed)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: OCTAPLEX_SEED must be an integer"]
