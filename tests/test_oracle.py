import ast
import importlib
import inspect
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize._highspy import _core

import ridgeless as r
import ridgeless.oracle
from helpers import (count_calls, grid_tv_minimize_reference, kink_lp_linprog_reference,
                     kink_lp_matrix_reference, random_dataset)
from ridgeless.characterize import check_membership_against
from ridgeless.oracle import OracleError, certify, grid_tv_minimize
from ridgeless.plfun import evaluate, tv_of_derivative


class TestGridTvMinimize:
    def test_collinear_reaches_zero(self, dataset_collinear):
        min_tv, minimizer, _ = grid_tv_minimize(dataset_collinear, 16)
        assert min_tv == pytest.approx(0.0, abs=1e-8)
        assert tv_of_derivative(minimizer) <= 1e-8
        assert evaluate(minimizer, 0.5) == pytest.approx(2.0, abs=1e-7)

    def test_convex_fixture(self, dataset_a):
        min_tv, minimizer, _ = grid_tv_minimize(dataset_a, 64)
        assert abs(min_tv - 2.0) <= 1e-3
        assert np.allclose(evaluate(minimizer, dataset_a.xs), dataset_a.ys, atol=1e-7)

    def test_zigzag_fixture(self, dataset_zigzag):
        min_tv, _, _ = grid_tv_minimize(dataset_zigzag, 64)
        assert abs(min_tv - 4.0) <= 1e-3

    def test_minimizer_objective_consistent(self, dataset_a):
        min_tv, minimizer, _ = grid_tv_minimize(dataset_a, 32)
        assert tv_of_derivative(minimizer) == pytest.approx(min_tv, abs=1e-7)

    def test_two_point_dataset(self):
        d = r.make_dataset([(0, 0), (2, 1)])
        min_tv, minimizer, _ = grid_tv_minimize(d, 4)
        assert min_tv == pytest.approx(0.0, abs=1e-9)
        assert minimizer.breakpoints == ()

    def test_rejects_coarse_grid(self, dataset_a):
        with pytest.raises(ValueError):
            grid_tv_minimize(dataset_a, 0)

    def test_rejects_a_grid_that_is_not_an_integer(self, dataset_a):
        for g in (2.5, 2.0, True, "8", None):
            with pytest.raises(ValueError, match="must be an integer >= 1"):
                grid_tv_minimize(dataset_a, g)
        assert grid_tv_minimize(dataset_a, np.int64(8))[0] == grid_tv_minimize(dataset_a, 8)[0]

    def test_bracketed_by_cstar_and_fd(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            d = random_dataset(rng, m=8)
            ch = r.characterize(d)
            fd_tv = tv_of_derivative(ch.f_D)
            min_tv, _, _ = grid_tv_minimize(d, 32)
            slack = 1e-7 * max(1.0, ch.minimal_tv)
            assert ch.minimal_tv - slack <= min_tv <= fd_tv + slack

    def test_monotone_under_refinement(self):
        rng = np.random.default_rng(20)
        for _ in range(8):
            d = random_dataset(rng, m=6)
            coarse, _, _ = grid_tv_minimize(d, 16)
            fine, _, _ = grid_tv_minimize(d, 32)
            slack = 1e-7 * max(1.0, coarse)
            assert fine <= coarse + slack


class TestCertify:
    def test_fixture_passes(self, dataset_a):
        ch = r.characterize(dataset_a)
        rep = certify(dataset_a, ch, tol=1e-3)
        assert rep.passed
        assert rep.target == 2.0 and abs(rep.achieved - 2.0) <= 1e-3
        assert rep.minimizer_is_member

    def test_collinear_trivial(self, dataset_collinear):
        ch = r.characterize(dataset_collinear)
        assert certify(dataset_collinear, ch, tol=1e-3).passed

    def test_batch_m8(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            d = random_dataset(rng, m=8)
            ch = r.characterize(d)
            rep = certify(d, ch, tol=1e-2)
            assert rep.passed, (rep.achieved, rep.target)

    def test_report_serializes(self, dataset_a):
        ch = r.characterize(dataset_a)
        blob = asdict(certify(dataset_a, ch, tol=1e-3))
        assert blob["passed"] is True
        assert set(blob) >= {"achieved", "target", "residual", "iterations", "passed"}

    def test_does_not_characterize_again(self, dataset_a, monkeypatch):
        ch = r.characterize(dataset_a)
        calls = count_calls(monkeypatch, importlib.import_module("ridgeless.characterize"),
                            "characterize")
        rep = certify(dataset_a, ch, tol=1e-3, grid_points_per_gap=8)
        assert rep.minimizer_is_member and calls == []

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_rejects_a_bad_tolerance_before_the_solve(self, dataset_a, monkeypatch, tol):
        ch = r.characterize(dataset_a)
        solves = count_calls(monkeypatch, ridgeless.oracle, "grid_tv_minimize")
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            certify(dataset_a, ch, tol=tol)
        assert solves == []

    def test_nonconvergence_raises(self, dataset_a, monkeypatch):
        ch = r.characterize(dataset_a)
        monkeypatch.setattr(ridgeless.oracle, "DEFAULT_MAX_ITERS", 1)
        with pytest.raises(OracleError, match="Iteration limit reached"):
            certify(dataset_a, ch, tol=1e-3, grid_points_per_gap=64)

    def test_solution_off_its_rows_raises(self, dataset_a, monkeypatch):
        class Shifted(_core._Highs):
            def getSolution(self):
                solution = super().getSolution()
                solution.col_value = np.array(solution.col_value) + 1e-3
                return solution

        monkeypatch.setattr(_core, "_Highs", Shifted)
        with pytest.raises(OracleError, match="misses its bounds or rows.*model status Optimal"):
            grid_tv_minimize(dataset_a, 8)


MODEL_FIELDS = ("num_col", "num_row", "num_nz", "a_format", "sense", "offset", "col_cost",
                "col_lower", "col_upper", "row_lower", "row_upper", "a_start", "a_index", "a_value",
                "integrality")
_HIGHS = _core._Highs  # as imported, before any test patches it


def recorded_models(monkeypatch, d: r.Dataset, g: int) -> list[dict]:
    """The arguments each solve of ``grid_tv_minimize(d, g)`` hands to ``passModel``, by name."""
    seen = []

    class Recording(_HIGHS):
        def passModel(self, *args):
            seen.append(dict(zip(MODEL_FIELDS, args, strict=True)))
            return super().passModel(*args)

    monkeypatch.setattr(_core, "_Highs", Recording)
    grid_tv_minimize(d, g)
    return seen


def wide_range_dataset(rng: np.random.Generator, m: int) -> r.Dataset:
    """Gaps spread over 1e-3..1e2 and chord slopes of either sign over 1e-3..1e3."""
    gaps = 10.0 ** rng.uniform(-3.0, 2.0, size=m - 1)
    slopes = rng.choice([-1.0, 1.0], size=m - 1) * 10.0 ** rng.uniform(-3.0, 3.0, size=m - 1)
    xs = np.concatenate([[0.0], gaps]).cumsum()
    ys = np.concatenate([[0.0], slopes * gaps]).cumsum()
    return r.make_dataset(zip(xs.tolist(), ys.tolist()))


class TestKinkForm:
    """The kink-form LP against the grid-value LP it replaced."""

    grids = (1, 2, 3, 8, 16)

    def cases(self):
        rng = np.random.default_rng(60)
        # m cycles over 2..30 and the grid over `grids`, so every pair occurs
        cases = [(random_dataset(rng, 2 + i % 29), self.grids[i % 5]) for i in range(200)]
        return cases + [(wide_range_dataset(rng, 2 + i % 29), self.grids[i % 5])
                        for i in range(40)]

    def test_matches_the_grid_value_lp(self):
        for d, g in self.cases():
            ch = r.characterize(d)
            achieved, minimizer, _ = grid_tv_minimize(d, g)
            ref, ref_minimizer = grid_tv_minimize_reference(d, g)
            assert abs(achieved - ref) <= 1e-9 * max(1.0, achieved)
            scale = max(1.0, float(np.abs(d.ys).max()))
            for tv, f in ((achieved, minimizer), (ref, ref_minimizer)):
                assert np.abs(evaluate(f, d.xs) - d.ys).max() <= 1e-9 * scale
                assert abs(tv_of_derivative(f) - tv) <= 1e-9 * max(1.0, tv)
            # every kink sits on the grid the grid-value LP builds with linspace
            grid = np.concatenate([np.linspace(d.xs[i], d.xs[i + 1], g + 1)
                                   for i in range(d.m - 1)])
            assert np.isin(minimizer.x, grid).all()
            rep = certify(d, ch, grid_points_per_gap=g)
            ref_rep = check_membership_against(ch, ref_minimizer, tol=1e-6)
            assert rep.passed
            assert rep.minimizer_is_member == ref_rep.is_member
            assert rep.advisory_violations == len(ref_rep.violations)

    def test_same_bits_as_linprog(self):
        cases = self.cases() + [(random_dataset(np.random.default_rng(2), 200), 64)]
        for d, g in cases:
            achieved, minimizer, iters = grid_tv_minimize(d, g)
            ref, ref_minimizer, ref_iters = kink_lp_linprog_reference(d, g)
            assert achieved.hex() == ref.hex() and iters == ref_iters
            for name in ("x", "y", "c"):
                assert np.array_equal(getattr(minimizer, name), getattr(ref_minimizer, name))

    @pytest.mark.parametrize("m", [10, 40])
    def test_one_equality_row_per_gap(self, monkeypatch, m):
        d = random_dataset(np.random.default_rng(m), m)
        (model,) = recorded_models(monkeypatch, d, 64)
        assert model["num_row"] == m - 1
        assert np.array_equal(model["row_lower"], model["row_upper"])
        assert np.diff(model["a_start"]).max() <= 2
        assert np.array_equal(model["integrality"], np.zeros(model["num_col"], np.int32))

    def test_csc_arrays_match_the_coo_build(self, monkeypatch):
        cases = self.cases() + [(random_dataset(np.random.default_rng(2), 200), 64)]
        for d, g in cases:
            (model,) = recorded_models(monkeypatch, d, g)
            _, a_eq = kink_lp_matrix_reference(d, g)
            assert (model["num_row"], model["num_col"]) == a_eq.shape
            assert model["num_nz"] == a_eq.nnz
            for name, ref in (("a_start", a_eq.indptr), ("a_index", a_eq.indices)):
                assert model[name].dtype == np.int32
                assert np.array_equal(model[name], ref)
            assert model["a_value"].tobytes() == a_eq.data.tobytes()

    @pytest.mark.parametrize("shift, raises", [(1e-3, True), (1e-5, False)])
    def test_row_check_follows_columns(self, dataset_a, monkeypatch, shift, raises):
        # sigma_0, column 0, enters row 0 alone, with coefficient 1
        class ShiftedSigma0(_core._Highs):
            def getSolution(self):
                solution = super().getSolution()
                col_value = np.array(solution.col_value)
                col_value[0] += shift
                solution.col_value = col_value
                return solution

        monkeypatch.setattr(_core, "_Highs", ShiftedSigma0)
        if raises:
            with pytest.raises(OracleError, match="misses its bounds or rows"):
                grid_tv_minimize(dataset_a, 8)
        else:
            grid_tv_minimize(dataset_a, 8)

    def test_certifies_m_200(self):
        d = random_dataset(np.random.default_rng(2), 200)
        rep = certify(d, r.characterize(d), grid_points_per_gap=64)
        assert rep.passed and rep.minimizer_is_member


class TestImport:
    def test_package_import_does_not_load_scipy(self):
        # the child imports the same package as this process, installed or not
        src = str(Path(r.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, ridgeless, ridgeless.cli; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.strip() == "False"

    def test_bad_grid_rejected_before_scipy_loads(self):
        src = str(Path(r.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, ridgeless as r\n"
                "d = r.make_dataset([(0, 0), (1, 0), (2, 1)])\n"
                "for g in (0, 2.5, True):\n"
                "    try:\n"
                "        r.grid_tv_minimize(d, g)\n"
                "    except ValueError:\n"
                "        print('rejected', end=' ')\n"
                "print('scipy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.strip() == "rejected rejected rejected False"


def solve_bits(d: r.Dataset, g: int) -> tuple:
    """The grid LP's objective, iteration count and minimizer, as exact bits."""
    achieved, minimizer, iters = grid_tv_minimize(d, g)
    return (achieved.hex(), iters, *(getattr(minimizer, name).tobytes() for name in "xyc"))


def fresh_bits(d: r.Dataset, g: int) -> tuple:
    """``solve_bits`` on a new thread, which has no HiGHS instance yet and so makes one."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(solve_bits, d, g).result(timeout=120)


class TestKeptSolver:
    """Each thread keeps one HiGHS instance across solves, with the same bits as a fresh one."""

    @staticmethod
    def counting(made: list):
        class Counting(_HIGHS):
            def __init__(self):
                super().__init__()
                made.append(threading.get_ident())

        return Counting

    def test_one_instance_per_thread(self, dataset_a, monkeypatch):
        made = []
        monkeypatch.setattr(_core, "_Highs", self.counting(made))
        for _ in range(5):
            grid_tv_minimize(dataset_a, 8)
        assert len(made) == 1
        worker = threading.Thread(target=lambda: [grid_tv_minimize(dataset_a, 8) for _ in range(5)])
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        assert len(made) == 2 and made[0] != made[1]
        for _ in range(5):
            grid_tv_minimize(dataset_a, 8)
        assert len(made) == 2

    def test_remade_when_the_class_is_patched_and_restored(self, dataset_a, monkeypatch):
        grid_tv_minimize(dataset_a, 8)
        kept = ridgeless.oracle._thread.highs
        grid_tv_minimize(dataset_a, 8)
        assert ridgeless.oracle._thread.highs is kept and type(kept) is _HIGHS
        made = []
        with monkeypatch.context() as patch:
            patch.setattr(_core, "_Highs", self.counting(made))
            grid_tv_minimize(dataset_a, 8)
            grid_tv_minimize(dataset_a, 8)
            assert len(made) == 1
        grid_tv_minimize(dataset_a, 8)
        restored = ridgeless.oracle._thread.highs
        assert type(restored) is _HIGHS and restored is not kept

    def test_same_bits_as_a_fresh_instance(self, dataset_a, monkeypatch):
        cases = TestKinkForm().cases() + [(random_dataset(np.random.default_rng(2), 200), 64)]
        fresh = [fresh_bits(d, g) for d, g in cases]
        order = np.random.default_rng(70).permutation(len(cases))
        assert [solve_bits(*cases[i]) for i in order] == [fresh[i] for i in order]
        # a failed solve leaves nothing behind on the kept instance: the iteration
        # limit stops the simplex part-way, and the row check fails after an optimum
        for name, value in (("DEFAULT_MAX_ITERS", 1), ("_CHECK_TOL", -1.0)):
            kept = ridgeless.oracle._thread.highs
            with monkeypatch.context() as patch:
                patch.setattr(ridgeless.oracle, name, value)
                with pytest.raises(OracleError):
                    grid_tv_minimize(dataset_a, 64)
            assert ridgeless.oracle._thread.highs is kept
            assert [solve_bits(*cases[i]) for i in order[:30]] == [fresh[i] for i in order[:30]]

    def test_threads_give_the_serial_bits(self):
        rng = np.random.default_rng(80)
        cases = [(random_dataset(rng, 20 + i % 41), 16) for i in range(40)]
        serial = [solve_bits(d, g) for d, g in cases]
        orders = [range(40), range(39, -1, -1)] * 2  # four threads, two in each order

        def run(order):
            return {i: solve_bits(*cases[i]) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(orders)) as pool:
                results = [f.result(timeout=300) for f in [pool.submit(run, o) for o in orders]]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert [result[i] for i in range(40)] == serial

    def test_error_names_the_failing_solve(self, dataset_a, monkeypatch):
        grid_tv_minimize(dataset_a, 64)  # an optimal solve on the kept instance
        monkeypatch.setattr(ridgeless.oracle, "DEFAULT_MAX_ITERS", 1)
        with pytest.raises(OracleError, match="model status Iteration limit reached") as caught:
            grid_tv_minimize(dataset_a, 64)
        assert "Optimal" not in str(caught.value)


class TestSolverIndependence:
    """The solve path may not lean on the characterization machinery."""

    def test_no_module_level_characterize_import(self):
        tree = ast.parse(inspect.getsource(ridgeless.oracle))
        for node in tree.body:  # top-level statements only
            if isinstance(node, ast.ImportFrom):
                assert "characterize" not in (node.module or "")
            if isinstance(node, ast.Import):
                assert all("characterize" not in a.name for a in node.names)

    def test_solver_source_avoids_characterization(self):
        for fn in (ridgeless.oracle.grid_tv_minimize,):
            src = inspect.getsource(fn)
            for banned in ("characterize", "slope_profile", "minimal_tv", "inflection"):
                assert banned not in src
