import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgeless as r
import ridgeless.oracle
from helpers import count_calls, pl_to_dict, random_dataset
from ridgeless.cli import _pixel_text, build_parser, main
from ridgeless.dataset import DatasetError
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


def run_child(argv):
    """``python -m ridgeless *argv`` in a child process."""
    # the child imports the same package as this process, installed or not
    src = str(Path(r.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "ridgeless", *argv],
                          capture_output=True, text=True, env=env)


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
        # an empty path prints the JSON after the report, as `fd --out ""` does
        report = run(capsys, ["characterize", data_a])[1]
        code, out, _ = run(capsys, ["characterize", data_a, "--json", ""])
        assert code == 0 and out == report + dest.read_text() + "\n"


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

    def test_sampled_members_pass_at_m_1000(self, capsys, tmp_path):
        data = tmp_path / "m1000.csv"
        r.save_dataset(random_dataset(np.random.default_rng(1), 1000), data)
        members = tmp_path / "members"
        assert main(["sample", str(data), "--n", "20", "--seed", "0", "--out-dir", str(members)]) == 0
        paths = sorted(members.glob("*.json"))
        assert len(paths) == 20
        codes = [run(capsys, ["check", str(data), str(p)])[0] for p in paths]
        assert codes == [0] * 20


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
        ch = r.characterize(r.load_dataset(data_a))
        for p in files:
            assert r.check_membership_against(ch, from_json(p.read_text())).is_member


class TestSampleText:
    """``sample`` writes each member's own JSON and formats each number of f_D at most once."""

    @pytest.fixture(params=["blocks", "no-blocks"])
    def data(self, request, tmp_path, dataset_zigzag):
        d = random_dataset(np.random.default_rng(26), 300) if request.param == "blocks" else dataset_zigzag
        path = tmp_path / "data.csv"
        r.save_dataset(d, path)
        return path

    @pytest.mark.parametrize("n", [0, 1, 20])
    def test_files_are_the_members_json(self, capsys, data, tmp_path, n):
        out_dir = tmp_path / "members"
        assert run(capsys, ["sample", str(data), "--n", str(n), "--seed", "5",
                            "--out-dir", str(out_dir)])[0] == 0
        ch = r.characterize(r.load_dataset(data))
        members = [r.sample_member(ch, seed=5 + k) for k in range(n)]
        assert [p.read_text() for p in sorted(out_dir.iterdir())] == \
            [json.dumps(pl_to_dict(f)) for f in members] == list(map(to_json, members))
        if not len(ch.blocks):
            assert all(f is ch.f_D for f in members)

    def test_memory_does_not_grow_with_n(self, capsys, tmp_path):
        # members are built and written a pass at a time, so 400 take no more memory than 20;
        # m = 10^4 points, random for 2000 and then on a line, so each member has 2510 kinks
        d = random_dataset(np.random.default_rng(1), 2000)
        line = np.arange(1.0, 8001.0)
        data = tmp_path / "m10000.csv"
        r.save_dataset(r.Dataset(np.append(d.xs, d.xs[-1] + line), np.append(d.ys, d.ys[-1] + 0.5 * line)), data)
        peaks = {}
        for n in (20, 400):
            out_dir = tmp_path / f"members-{n}"
            tracemalloc.start()
            try:
                code = run(capsys, ["sample", str(data), "--n", str(n), "--out-dir", str(out_dir)])[0]
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0 and len(list(out_dir.iterdir())) == n
        assert peaks[400] <= 1.5 * peaks[20], peaks

    @pytest.mark.parametrize("n", [1, 20])
    def test_formats_each_fd_number_once(self, capsys, data, tmp_path, monkeypatch, n):
        formatted = []
        text = r.plfun._text

        def recorded(a):
            formatted.extend(a.ravel().tolist())
            return text(a)

        monkeypatch.setattr(r.plfun, "_text", recorded)
        assert run(capsys, ["sample", str(data), "--n", str(n), "--out-dir", str(tmp_path)])[0] == 0
        ch = r.characterize(r.load_dataset(data))
        if n == 1:  # no text of f_D is made for a single member: its own numbers only
            f = r.sample_member(ch, seed=0)
            assert sorted(formatted) == sorted(np.concatenate((f.x, f.c)).tolist())
        else:  # each number of f_D exactly as often as f_D holds it, in its one table
            fd = Counter(np.concatenate((ch.f_D.x, ch.f_D.c)).view(np.int64).tolist())
            seen = Counter(np.array(formatted, dtype=float).view(np.int64).tolist())
            assert {bits: seen[bits] for bits in fd} == fd


class TestCertifyCommand:
    def test_pass(self, capsys, data_a):
        code, out, _ = run(capsys, ["certify", data_a, "--grid", "64", "--tol", "1e-3"])
        assert code == 0
        assert "target: 2 " in out
        blob = json.loads(out.splitlines()[0])
        assert blob["passed"] is True and abs(blob["achieved"] - 2.0) < 1e-3

    def test_solver_prints_nothing(self, capsys):
        # HiGHS writes at the C level, past redirect_stdout and capsys: only a
        # child's file descriptors see it
        argv = ["certify", str(Path(__file__).parent / "data" / "m50.csv"), "--grid", "8"]
        code, out, _ = run(capsys, argv)
        proc = run_child(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")

    def test_solver_failure_exit_4(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(ridgeless.oracle, "DEFAULT_MAX_ITERS", 1)
        path = tmp_path / "zigzag.csv"
        path.write_text("0,0\n1,1\n2,0\n3,1\n4,0\n5,1\n")
        code, out, err = run(capsys, ["certify", str(path), "--grid", "8"])
        assert code == 4 and out == "" and err.count("\n") == 1
        assert err.startswith("error code=4 kind=certification") and "Iteration limit reached" in err

    def test_slope_difference_at_the_infinite_bound_exit_4(self, capsys, tmp_path):
        d = random_dataset(np.random.default_rng(5), 30)
        path = tmp_path / "steep.csv"
        steep = zip(d.xs.tolist(), (d.ys * 2.0**64).tolist())
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in steep))
        code, out, err = run(capsys, ["certify", str(path)])
        assert code == 4 and out == "" and err.count("\n") == 1
        assert err.startswith("error code=4 kind=certification") and "infinite bound 1e+20" in err

    def test_grid_nodes_that_round_onto_each_other_exit_4(self, capsys, tmp_path):
        # at 2**52 the floats are the integers: gaps of 2, 2 and 4 hold at most 2 distinct nodes
        path = tmp_path / "narrow.csv"
        path.write_text("".join(f"{2**52 + dx},{y}\n" for dx, y in ((0, 0), (2, 1), (4, 0), (8, 3))))
        for grid in ([], ["--grid", "4"]):
            code, out, err = run(capsys, ["certify", str(path), *grid])
            assert code == 4 and out == "" and err.count("\n") == 1, (grid, err)
            assert err.startswith("error code=4 kind=certification") and "grid nodes 0 and 1" in err
            assert "use fewer points per gap (--grid)" in err
        code, out, _ = run(capsys, ["certify", str(path), "--grid", "2"])
        assert code == 0 and json.loads(out.splitlines()[0])["achieved"] == 2.25


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

    def test_data_design_reports_sup_error(self, capsys, data_a, tmp_path):
        fstar = from_knots([(0, 0), (3, 3)], 1.0, 1.0)
        path = tmp_path / "fstar.json"
        path.write_text(to_json(fstar))
        code, out, _ = run(capsys, ["bound", data_a, "--fstar", str(path), "--members", "5"])
        assert code == 0
        blob = json.loads(out.splitlines()[0])
        assert list(blob) == ["lip_domination", "localized", "sup_error"]
        # the design 0, 1, 2, 3 covers [0, 1] with its first gap: B = L w = 1
        assert blob["sup_error"]["bound"] == 1.0 and blob["sup_error"]["passed"] is True

    def test_data_is_optional_with_m(self, capsys, data_a, tmp_path):
        path = tmp_path / "fstar.json"
        path.write_text(to_json(from_knots([(0, 0), (0.5, 1), (1, 0)], 2.0, -2.0)))
        argv = ["--fstar", str(path), "--m", "10", "--members", "3"]
        with_data = run(capsys, ["bound", data_a, *argv])
        assert run(capsys, ["bound", *argv]) == with_data
        assert run(capsys, ["bound", str(tmp_path / "missing.csv"), *argv]) == with_data
        assert with_data[0] == 0
        code, out, err = run(capsys, ["bound", "--fstar", str(path)])
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error code=1 kind=usage") and "data file or --m" in err

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
        flat = tmp_path / "flat.csv"  # constant data: the y range is widened from zero
        flat.write_text("0,1\n1,1\n2,1\n")
        for data, tv in ((data_a, 2.0), (str(flat), 0.0)):
            dest = tmp_path / "plot.svg"
            code, _, _ = run(capsys, ["plot", data, "--members", "4", "--seed", "2",
                                      "--out", str(dest)])
            assert code == 0
            root = ET.fromstring(dest.read_text())  # well-formed XML
            assert root.tag.endswith("svg")
            meta = root.find("{http://www.w3.org/2000/svg}metadata")
            assert json.loads(meta.text)["minimal_tv"] == tv

    def test_overflowing_range_is_a_format_error(self, capsys, tmp_path):
        # the x span overflows, or f_D's tail and with it the y span: both once wrote nan pixels
        for rows in ("-1e308,0\n0,1\n1e308,0\n", "0,0\n1e-300,1e8\n1e300,0\n"):
            data, dest = tmp_path / "data.csv", tmp_path / "plot.svg"
            data.write_text(rows)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(capsys, ["plot", str(data), "--out", str(dest)])
            assert (code, out, caught) == (2, "", []) and not dest.exists(), rows
            assert err.startswith("error code=2 kind=format"), err


def format_reference(x, y) -> list[str]:
    return list(map("{:.3f},{:.3f}".format, x.tolist(), y.tolist()))


class TestPixelText:
    """``_pixel_text`` writes ``"{:.3f}"`` of every value in [+0.0, 1000] and rejects the rest."""

    def test_matches_str_format(self):
        rng = np.random.default_rng(3)
        ties = np.arange(1, 16000, 2) / 16  # v * 1000 = 62.5 k: half-way between thousandths
        values = np.concatenate([
            ties, np.nextafter(ties, 0), np.nextafter(ties, 1000),
            rng.uniform(0, 1000, 10**6), rng.uniform(0, 0.003, 10**5),
            [0.0, 5e-324, 1e-310, 2.0**-1022, 2.0**-11, 2.0**-10, 1000.0],
            np.nextafter(999.9995, [0, 1000]), [999.9995],
        ])
        for chunk in np.array_split(values, 10):
            other = chunk[::-1].copy()
            assert _pixel_text(chunk, other) == format_reference(chunk, other)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1000), st.floats(0, 1000)), min_size=1, max_size=40))
    def test_matches_str_format_on_drawn_values(self, points):
        x, y = np.array(points).T
        assert _pixel_text(x, y) == format_reference(x, y)

    def test_template_and_carry(self):
        assert _pixel_text(np.array([999.9996, 0.0]), np.array([40.0, 2.0**-10]),
                           '<c x="', '" y="', '"/>') == ['<c x="1000.000" y="40.000"/>',
                                                         '<c x="0.000" y="0.001"/>']
        assert _pixel_text(np.array([]), np.array([])) == []

    def test_rejects_values_outside_the_range(self):
        # -0.0 would print "-0.000"; the rest are not finite or out of [0, 1000]
        for bad in (np.nan, np.inf, -np.inf, -0.0, -1e-300, -1.0, np.nextafter(1000.0, 2000.0), 1e308):
            for x, y in ((bad, 500.0), (500.0, bad)):
                with pytest.raises(DatasetError, match="not a number in"):
                    _pixel_text(np.array([40.0, x]), np.array([40.0, y]))


class TestCachedParser:
    """One parser serves every ``main`` call in a process; the calls stay independent."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_options_do_not_carry_over(self, capsys, data_a, fd_file, tmp_path):
        f = from_json(Path(fd_file).read_text())
        off = tmp_path / "off.json"  # f_D moved up by 1e-6: a member only at --tol 1e-3
        off.write_text(to_json(r.canonical((f.anchor[0], f.anchor[1] + 1e-6), f.left_slope,
                                           f.breakpoints)))
        assert run(capsys, ["check", data_a, str(off), "--tol", "1e-3"])[0] == 0
        assert run(capsys, ["check", data_a, str(off)])[0] == 3
        seeded, default = tmp_path / "seeded", tmp_path / "default"
        run(capsys, ["sample", data_a, "--n", "1", "--out-dir", str(seeded), "--seed", "0"])
        run(capsys, ["sample", data_a, "--n", "1", "--seed", "5", "--out-dir", str(tmp_path)])
        run(capsys, ["sample", data_a, "--n", "1", "--out-dir", str(default)])
        member = "member-0000.json"
        assert (default / member).read_text() == (seeded / member).read_text()
        assert (default / member).read_text() != (tmp_path / member).read_text()

    def test_valid_call_after_usage_error(self, capsys):
        golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
        data = str(Path(__file__).parent / "data" / "A.csv")
        assert run(capsys, ["plot", data, "--members", "-1"])[0] == 1
        assert run(capsys, ["fd", data]) == (0, golden["A.csv"]["fd-print.stdout"], "")


class TestErrorsAndDeterminism:
    def test_usage_error_exit_1(self, capsys):
        for argv in (["no-such-command"],
                     ["check", "data.csv", "f.json", "--tol", "-1"],
                     ["check", "data.csv", "f.json", "--tol", "inf"],
                     ["check", "data.csv", "f.json", "--tol", "1e400"],
                     ["certify", "data.csv", "--tol", "inf"],
                     ["certify", "data.csv", "--grid", "0"],
                     ["bound", "data.csv", "--fstar", "f.json", "--m", "1"],
                     ["sample", "data.csv", "--n", "-2"],
                     ["bound", "data.csv", "--fstar", "f.json", "--members", "-1"],
                     ["bound", "data.csv", "--fstar", "f.json", "--grid", "5"],
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
            ("bool.json", '{"points": [[0, true], [1, false], [2, true]]}', "non-numeric",
             "characterize"),
            ("str.json", '{"points": [["0", "1.5"], ["1", "0"], [2, 3]]}', "non-numeric",
             "characterize"),
            ("str.json", '{"anchor": ["0", true], "left_slope": "2", "breakpoints": [[true, "1"]]}',
             "bad piecewise-linear file", "tv"),
            ("str.json", '{"a": true, "b": "1", "units": [["1", 0, true]]}', "bad network file",
             "from-network"),
            ("deep.json", deep, "invalid json", "characterize"),
            ("deep.json", deep, "bad piecewise-linear file", "to-network"),
            ("big.json", pl, "bad piecewise-linear file", "tv"),
            ("three.json", '{"anchor": [0, 0], "left_slope": 0, "breakpoints": [[1.0, 2.0, 3.0]]}',
             "bad piecewise-linear file", "tv"),
            ("four.json", '{"anchor": [0, 0], "left_slope": 0, "breakpoints": [[1.0, 2.0, 3.0, 4.0]]}',
             "bad piecewise-linear file", "tv"),
            ("anchor3.json", '{"anchor": [0, 0, 99], "left_slope": 1, "breakpoints": []}',
             "bad piecewise-linear file", "tv"),
            ("anchor1.json", '{"anchor": [0], "left_slope": 1, "breakpoints": []}',
             "bad piecewise-linear file", "tv"),
            ("big.json", pl, "bad piecewise-linear file", "bound", "x.csv", "--m", "4", "--fstar"),
            ("big.json", '{"a": %s, "b": 0, "units": []}' % big, "bad network file",
             "from-network"),
            ("inf.json", '{"a": 0, "b": 0, "units": [[1e200, 0, 1e200]]}', "finite",
             "from-network"),
            ("pairs.json", '{"a": 0, "b": 0, "units": [[1, 2], [3, 4], [5, 6]]}', "bad network file",
             "from-network"),
            ("rise.csv", "0,-1e308\n1e-300,1e308\n2,0\n", "non-finite", "characterize"),
            ("narrow.csv", "0,0\n1e-320,1\n2,0\n", "non-finite", "characterize"),
            # finite input whose slopes and values overflow: one error line, no numpy warning
            ("over.json", '{"anchor": [0, 1e308], "left_slope": 1e308, "breakpoints": [[1e308, 1e308]]}',
             "bad piecewise-linear file", "tv"),
            ("over.json", '{"a": 1e308, "b": 1e308, "units": [[1, 0, 1e308], [1, -1, 1e308]]}',
             "bad network file", "from-network"),
            # a missing or malformed field is named, with what it must be
            ("anchor1.json", '{"anchor": [0], "left_slope": 1, "breakpoints": []}',
             "bad field 'anchor': it must be [x0, v0]", "tv"),
            ("anchor5.json", '{"anchor": 5, "left_slope": 1, "breakpoints": []}',
             "bad field 'anchor': it must be a list of numbers", "tv"),
            ("no-anchor.json", '{"left_slope": 1, "breakpoints": []}', "missing field 'anchor'", "tv"),
            ("list.json", '[{"anchor": [0, 0], "left_slope": 1, "breakpoints": []}]',
             "expected a JSON object with the fields anchor, left_slope, breakpoints", "tv"),
            ("rows.json", '{"anchor": [0, 0], "left_slope": 1, "breakpoints": [1, 2]}',
             "bad field 'breakpoints'", "tv"),
            ("no-a.json", '{"b": 0, "units": []}', "missing field 'a': it must be a number",
             "from-network"),
            ("units.json", '{"a": 0, "b": 0, "units": 5}', "bad field 'units'", "from-network"),
        ):
            path = tmp_path / name
            path.write_text(text)
            code, out, err = run(capsys, [*cmd, str(path)])
            assert code == 2 and err.startswith("error code=2 kind=format"), (cmd, err)
            assert detail in err and out == "" and err.count("\n") == 1, (cmd, err)

    def test_undecodable_dataset_exit_2(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"0,0\n1,\xff\n")
        for cmd in ("characterize", "fd", "certify"):
            code, out, err = run(capsys, [cmd, str(path)])
            assert code == 2 and err.startswith("error code=2 kind=format"), (cmd, err)
            assert "byte 0xff" in err and out == "" and err.count("\n") == 1, (cmd, err)

    def test_byte_order_mark_loads_the_same_points(self, capsys, tmp_path):
        for name, text in (("data.csv", "0,0\n1,0\n2,1\n3,3\n"),
                           ("data.json", '{"points": [[0, 0], [1, 0], [2, 1], [3, 3]]}')):
            plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
            plain.write_text(text)
            marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
            outs = [run(capsys, ["fd", str(p)]) for p in (plain, marked)]  # each interior point is a kink of f_D
            assert outs[0][0] == 0 and outs[0] == outs[1], name

    def test_undecodable_function_file_exit_2(self, capsys, tmp_path, data_a):
        path = tmp_path / "f.json"
        path.write_bytes(b'{"anchor": [0, 0], "left_slope": 0, "breakpoints": []}\n\xff')
        for cmd in (["tv"], ["check", data_a], ["to-network"], ["bound", data_a, "--fstar"],
                    ["from-network"]):
            code, out, err = run(capsys, [*cmd, str(path)])
            assert code == 2 and err.startswith("error code=2 kind=format"), (cmd, err)
            assert "not UTF-8: byte 0xff at offset 55" in err, (cmd, err)
            assert out == "" and err.count("\n") == 1, (cmd, err)

    def test_byte_order_mark_loads_the_same_function(self, capsys, tmp_path, data_a, fd_file):
        net = tmp_path / "net.json"
        assert run(capsys, ["to-network", fd_file, "--out", str(net)])[0] == 0
        for path, *cmd in ((fd_file, "tv"), (fd_file, "check", data_a), (fd_file, "to-network"),
                           (fd_file, "bound", data_a, "--members", "3", "--fstar"), (net, "from-network")):
            marked = tmp_path / f"bom-{Path(path).name}"
            marked.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
            outs = [run(capsys, [*cmd, str(p)]) for p in (path, marked)]
            assert outs[0][0] == 0 and outs[0] == outs[1], cmd

    def test_json_copy_prints_what_the_csv_prints(self, capsys, tmp_path):
        csv = Path(__file__).parent / "data" / "m50.csv"
        copy = tmp_path / "m50.json"
        r.save_dataset(r.load_dataset(csv), copy)
        assert copy.read_text().startswith("{")
        first, second = (run(capsys, ["characterize", str(p)]) for p in (csv, copy))
        assert first[0] == 0 and first == second

    def test_stdout_byte_identical_across_runs(self, capsys, data_a, tmp_path):
        out_dir = tmp_path / "m"
        argv = ["sample", data_a, "--n", "2", "--seed", "5", "--out-dir", str(out_dir)]
        _, first, _ = run(capsys, argv)
        contents = [(p.name, p.read_text()) for p in sorted(out_dir.iterdir())]
        _, second, _ = run(capsys, argv)
        assert first == second
        assert contents == [(p.name, p.read_text()) for p in sorted(out_dir.iterdir())]

    def test_console_entry_point(self, data_a):
        proc = run_child(["characterize", data_a])
        assert proc.returncode == 0
        assert "minimal TV: 2" in proc.stdout
