"""Byte-exact CLI output against stored goldens.

Every subcommand runs on two inputs in ``tests/data``: fixture dataset A
and a seeded m = 50 dataset from ``helpers.random_dataset``.  Each run
also checks the chord interpolant of the other input against its data,
which pins a non-member's violation list.  Stdout, exit codes and every
written file must equal ``tests/data/cli_golden.json`` byte for byte.  For ``certify`` only ``target`` is compared, because the
LP figures depend on the HiGHS build.

Regenerate the goldens (and the m = 50 input) only for an intended output
change:

    PYTHONPATH=src:tests python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from ridgeless.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
INPUTS = ("A.csv", "m50.csv")

# (label, argv, files the command writes); argv runs inside the work directory.
STEPS = (
    ("characterize", ["characterize", "data.csv", "--json", "ch.json"], ["ch.json"]),
    ("fd-print", ["fd", "data.csv"], []),
    ("fd", ["fd", "data.csv", "--out", "fd.json"], ["fd.json"]),
    ("check-fd", ["check", "data.csv", "fd.json"], []),
    ("sample", ["sample", "data.csv", "--n", "3", "--seed", "11", "--out-dir", "members"],
     ["members/member-0000.json", "members/member-0001.json", "members/member-0002.json"]),
    ("check-member", ["check", "data.csv", "members/member-0001.json"], []),
    ("fd-other", ["fd", "other.csv", "--out", "other-fd.json"], ["other-fd.json"]),
    ("check-other", ["check", "data.csv", "other-fd.json"], []),
    ("tv-fd", ["tv", "fd.json"], []),
    ("tv-member", ["tv", "members/member-0000.json"], []),
    ("to-network", ["to-network", "members/member-0000.json", "--out", "net.json"], ["net.json"]),
    ("to-network-print", ["to-network", "fd.json"], []),
    ("from-network", ["from-network", "net.json", "--out", "back.json"], ["back.json"]),
    ("from-network-print", ["from-network", "net.json"], []),
    ("bound-uniform", ["bound", "data.csv", "--fstar", "fd.json", "--m", "12",
                       "--members", "4", "--seed", "3"], []),
    ("bound-design", ["bound", "data.csv", "--fstar", "fd.json", "--members", "4"], []),
    ("plot", ["plot", "data.csv", "--members", "3", "--seed", "2", "--out", "plot.svg"],
     ["plot.svg"]),
)


def transcript(name: str, work: Path) -> dict:
    """Run every step on input ``name`` inside ``work``; collect codes, stdout and files."""
    shutil.copyfile(DATA / name, work / "data.csv")
    other, = (n for n in INPUTS if n != name)
    shutil.copyfile(DATA / other, work / "other.csv")
    out: dict = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for label, argv, written in STEPS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                out[f"{label}.code"] = main(argv)
            out[f"{label}.stdout"] = buf.getvalue()
            for name in written:
                out[f"{label}:{name}"] = Path(name).read_text()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["certify", "data.csv", "--grid", "8"])
        out["certify.target"] = repr(json.loads(buf.getvalue().splitlines()[0])["target"])
    finally:
        os.chdir(cwd)
    return out


@pytest.mark.parametrize("name", INPUTS)
def test_cli_output_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())[name]
    actual = transcript(name, tmp_path)
    assert list(actual) == list(golden)
    for key, want in golden.items():
        assert actual[key] == want, key


def _regenerate() -> None:
    import tempfile

    import numpy as np

    import ridgeless as r
    from helpers import random_dataset

    DATA.mkdir(exist_ok=True)
    r.save_dataset(r.make_dataset([(0, 0), (1, 0), (2, 1), (3, 3)]), DATA / "A.csv")
    r.save_dataset(random_dataset(np.random.default_rng(2109), m=50), DATA / "m50.csv")
    goldens = {}
    for name in INPUTS:
        with tempfile.TemporaryDirectory() as work:
            goldens[name] = transcript(name, Path(work))
    GOLDEN.write_text(json.dumps(goldens, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
