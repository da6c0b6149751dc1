import ast
import importlib
import inspect
from dataclasses import asdict

import numpy as np
import pytest

import ridgeless as r
import ridgeless.oracle
from helpers import count_calls, random_dataset
from ridgeless.oracle import OracleError, certify, grid_tv_minimize
from ridgeless.plfun import evaluate, tv_of_derivative


class TestGridTvMinimize:
    def test_collinear_reaches_zero(self, dataset_collinear):
        min_tv, minimizer = grid_tv_minimize(dataset_collinear, 16, 1e-6, 200000)
        assert min_tv == pytest.approx(0.0, abs=1e-8)
        assert tv_of_derivative(minimizer) <= 1e-8
        assert evaluate(minimizer, 0.5) == pytest.approx(2.0, abs=1e-7)

    def test_convex_fixture(self, dataset_a):
        min_tv, minimizer = grid_tv_minimize(dataset_a, 64, 1e-6, 200000)
        assert abs(min_tv - 2.0) <= 1e-3
        assert np.allclose(evaluate(minimizer, dataset_a.xs), dataset_a.ys, atol=1e-7)

    def test_zigzag_fixture(self, dataset_zigzag):
        min_tv, _ = grid_tv_minimize(dataset_zigzag, 64, 1e-6, 200000)
        assert abs(min_tv - 4.0) <= 1e-3

    def test_minimizer_objective_consistent(self, dataset_a):
        min_tv, minimizer = grid_tv_minimize(dataset_a, 32, 1e-6, 200000)
        assert tv_of_derivative(minimizer) == pytest.approx(min_tv, abs=1e-7)

    def test_two_point_dataset(self):
        d = r.make_dataset([(0, 0), (2, 1)])
        min_tv, minimizer = grid_tv_minimize(d, 4, 1e-6, 1000)
        assert min_tv == pytest.approx(0.0, abs=1e-9)
        assert minimizer.breakpoints == ()

    def test_rejects_coarse_grid(self, dataset_a):
        with pytest.raises(ValueError):
            grid_tv_minimize(dataset_a, 0, 1e-6, 1000)

    def test_rejects_bad_tol(self, dataset_a):
        with pytest.raises(ValueError):
            grid_tv_minimize(dataset_a, 8, 0.0, 1000)

    def test_bracketed_by_cstar_and_fd(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            d = random_dataset(rng, m=8)
            ch = r.characterize(d)
            fd_tv = tv_of_derivative(ch.f_D)
            min_tv, _ = grid_tv_minimize(d, 32, 1e-6, 200000)
            slack = 1e-7 * max(1.0, ch.minimal_tv)
            assert ch.minimal_tv - slack <= min_tv <= fd_tv + slack

    def test_monotone_under_refinement(self):
        rng = np.random.default_rng(20)
        for _ in range(8):
            d = random_dataset(rng, m=6)
            coarse, _ = grid_tv_minimize(d, 16, 1e-6, 200000)
            fine, _ = grid_tv_minimize(d, 32, 1e-6, 200000)
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

    def test_nonconvergence_raises(self, dataset_a):
        ch = r.characterize(dataset_a)
        with pytest.raises(OracleError):
            certify(dataset_a, ch, tol=1e-3, grid_points_per_gap=64, max_iters=1)


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
        for fn in (ridgeless.oracle.grid_tv_minimize, ridgeless.oracle._solve_grid_lp):
            src = inspect.getsource(fn)
            for banned in ("characterize", "slope_profile", "minimal_tv", "inflection"):
                assert banned not in src
