import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import ridgeless as r
from helpers import count_calls
from ridgeless.cli import main
from ridgeless.plfun import from_json, from_knots, structurally_equal, to_json


@pytest.fixture
def data_a(tmp_path):
    path = tmp_path / "A.csv"
    path.write_text("0,0\n1,0\n2,1\n3,3\n")
    return str(path)


@pytest.fixture
def fd_file(tmp_path, data_a):
    path = tmp_path / "fd.json"
    assert main(["fd", data_a, "--out", str(path)]) == 0
    return str(path)


def run(capsys, argv):
    capsys.readouterr()  # drain anything emitted by fixtures
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCharacterizeCommand:
    def test_prints_verdicts_and_tv(self, capsys, data_a):
        code, out, _ = run(capsys, ["characterize", data_a])
        assert code == 0
        assert "interval 2 (1, 2): free (block 0)" in out
        assert "minimal TV: 2" in out
        assert "inflection set: 1 3" in out

    def test_json_output(self, capsys, data_a, tmp_path):
        dest = tmp_path / "ch.json"
        code, _, _ = run(capsys, ["characterize", data_a, "--json", str(dest)])
        assert code == 0
        blob = json.loads(dest.read_text())
        assert blob["minimal_tv"] == 2.0


class TestCheckCommand:
    def test_member_exits_zero(self, capsys, data_a, fd_file):
        code, out, _ = run(capsys, ["check", data_a, fd_file])
        assert code == 0
        assert json.loads(out.splitlines()[0])["is_member"] is True

    def test_nonmember_exits_three_with_tag(self, capsys, data_a, tmp_path):
        bad = from_knots([(0, 0), (1, 0), (1.5, 0.75), (2, 1), (3, 3)], 0.0, 2.0)
        path = tmp_path / "bad.json"
        path.write_text(to_json(bad))
        code, out, _ = run(capsys, ["check", data_a, str(path)])
        assert code == 3
        report = json.loads(out.splitlines()[0])
        assert any(v["tag"] == "block-envelope" for v in report["violations"])


class TestFileCommands:
    def test_fd_emits_connect_the_dots(self, data_a, fd_file):
        d = r.load_dataset(data_a)
        f = from_json(Path(fd_file).read_text())
        assert structurally_equal(f, r.connect_the_dots(d), rtol=0.0)

    def test_tv(self, capsys, fd_file):
        code, out, _ = run(capsys, ["tv", fd_file])
        assert code == 0 and out.strip() == "2"

    def test_network_round_trip(self, capsys, fd_file, tmp_path):
        net_path = tmp_path / "net.json"
        code, out, _ = run(capsys, ["to-network", fd_file, "--out", str(net_path)])
        assert code == 0 and out.startswith("cost: 2")
        pl_path = tmp_path / "back.json"
        code, _, _ = run(capsys, ["from-network", str(net_path), "--out", str(pl_path)])
        assert code == 0
        back = from_json(pl_path.read_text())
        assert structurally_equal(back, from_json(Path(fd_file).read_text()))

    def test_sample_writes_members(self, capsys, data_a, tmp_path):
        out_dir = tmp_path / "members"
        code, out, _ = run(capsys, ["sample", data_a, "--n", "3", "--seed", "9",
                                    "--out-dir", str(out_dir)])
        assert code == 0
        files = sorted(out_dir.iterdir())
        assert [p.name for p in files] == [
            "member-0000.json", "member-0001.json", "member-0002.json"]
        d = r.load_dataset(data_a)
        for p in files:
            assert r.check_membership(d, from_json(p.read_text())).is_member


class TestCertifyCommand:
    def test_pass(self, capsys, data_a):
        code, out, _ = run(capsys, ["certify", data_a, "--grid", "64", "--tol", "1e-3"])
        assert code == 0
        assert "target: 2 " in out
        blob = json.loads(out.splitlines()[0])
        assert blob["passed"] is True and abs(blob["achieved"] - 2.0) < 1e-3


class TestBoundCommand:
    def test_uniform_design_reports(self, capsys, data_a, tmp_path):
        fstar = from_knots([(0, 0), (0.25, 0.25), (0.75, -0.25), (1, 0)], 1.0, 1.0)
        path = tmp_path / "fstar.json"
        path.write_text(to_json(fstar))
        code, out, _ = run(capsys, ["bound", data_a, "--fstar", str(path),
                                    "--m", "10", "--members", "20"])
        assert code == 0
        blob = json.loads(out.splitlines()[0])
        assert blob["lip_domination"]["passed"] is True
        assert blob["sup_error"]["passed"] is True
        assert blob["localized"]["passed"] is True

    def test_non_uniform_design_skips_sharp_bound(self, capsys, data_a, tmp_path):
        fstar = from_knots([(0, 0), (3, 3)], 1.0, 1.0)
        path = tmp_path / "fstar.json"
        path.write_text(to_json(fstar))
        code, out, _ = run(capsys, ["bound", data_a, "--fstar", str(path), "--members", "5"])
        assert code == 0
        blob = json.loads(out.splitlines()[0])
        assert blob["sup_error"] == {"skipped": "non-uniform design"}

    def test_derives_the_slope_profile_once(self, capsys, data_a, tmp_path, monkeypatch):
        # every package module that holds either name is wrapped
        mods = [m for n, m in sorted(sys.modules.items()) if n.startswith("ridgeless.")]
        profiles = [count_calls(monkeypatch, m, "slope_profile")
                    for m in mods if hasattr(m, "slope_profile")]
        chords = [count_calls(monkeypatch, m, "connect_the_dots")
                  for m in mods if hasattr(m, "connect_the_dots")]
        path = tmp_path / "fstar.json"
        path.write_text(to_json(from_knots([(0, 0), (0.5, 1), (1, 0)], 2.0, -2.0)))
        code, _, _ = run(capsys, ["bound", data_a, "--fstar", str(path), "--m", "10",
                                  "--members", "3"])
        assert code == 0
        assert sum(map(len, profiles)) == 1 and sum(map(len, chords)) == 0


class TestPlotCommand:
    def test_valid_svg_with_tv_metadata(self, capsys, data_a, tmp_path):
        dest = tmp_path / "plot.svg"
        code, _, _ = run(capsys, ["plot", data_a, "--members", "4", "--seed", "2",
                                  "--out", str(dest)])
        assert code == 0
        root = ET.fromstring(dest.read_text())  # well-formed XML
        assert root.tag.endswith("svg")
        meta = root.find("{http://www.w3.org/2000/svg}metadata")
        assert json.loads(meta.text)["minimal_tv"] == 2.0


class TestErrorsAndDeterminism:
    def test_usage_error_exit_1(self, capsys):
        for argv in (["no-such-command"],
                     ["check", "data.csv", "f.json", "--tol", "-1"],
                     ["certify", "data.csv", "--grid", "0"],
                     ["bound", "data.csv", "--fstar", "f.json", "--m", "1"],
                     ["sample", "data.csv", "--n", "-2"],
                     ["bound", "data.csv", "--fstar", "f.json", "--members", "-1"],
                     ["plot", "data.csv", "--members", "-1"]):
            code, _, err = run(capsys, argv)
            assert code == 1 and err.startswith("error code=1 kind=usage"), argv

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, ["tv", "nope.json"])
        assert code == 2 and err.startswith("error code=2 kind=io")

    def test_bad_dataset_exit_2(self, capsys, tmp_path):
        big = "1" + "0" * 400  # an integer literal past the float range
        deep = '{"points": ' + "[" * 10**5 + "]" * 10**5 + "}"
        pl = '{"anchor": [0, %s], "left_slope": 0, "breakpoints": []}' % big
        # (file, text, expected detail, command the file path is appended to)
        for name, text, detail, *cmd in (
            ("dup.csv", "0,0\n0,1\n", "duplicate", "characterize"),
            ("bad.json", '{"points": [["a", 1], [2, 3]]}', "non-numeric", "characterize"),
            ("deep.json", deep, "invalid json", "characterize"),
            ("deep.json", deep, "bad piecewise-linear file", "to-network"),
            ("big.json", pl, "bad piecewise-linear file", "tv"),
            ("big.json", pl, "bad piecewise-linear file", "bound", "x.csv", "--m", "4", "--fstar"),
            ("big.json", '{"a": %s, "b": 0, "units": []}' % big, "bad network file",
             "from-network"),
            ("inf.json", '{"a": 0, "b": 0, "units": [[1e200, 0, 1e200]]}', "finite",
             "from-network"),
        ):
            path = tmp_path / name
            path.write_text(text)
            code, out, err = run(capsys, [*cmd, str(path)])
            assert code == 2 and err.startswith("error code=2 kind=format"), (cmd, err)
            assert detail in err and out == "", (cmd, err)

    def test_stdout_byte_identical_across_runs(self, capsys, data_a, tmp_path):
        out_dir = tmp_path / "m"
        argv = ["sample", data_a, "--n", "2", "--seed", "5", "--out-dir", str(out_dir)]
        _, first, _ = run(capsys, argv)
        contents = [(p.name, p.read_text()) for p in sorted(out_dir.iterdir())]
        _, second, _ = run(capsys, argv)
        assert first == second
        assert contents == [(p.name, p.read_text()) for p in sorted(out_dir.iterdir())]

    def test_console_entry_point(self, data_a):
        # the child imports the same package as this process, installed or not
        src = str(Path(r.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "ridgeless", "characterize", data_a],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "minimal TV: 2" in proc.stdout
