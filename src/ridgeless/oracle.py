"""Independent certification of the minimal derivative-TV by convex solve.

The minimum of TV(Df) over piecewise-linear interpolants is re-derived
here from scratch: fix a grid refining every data gap, treat the grid
values as unknowns, and minimize the sum of absolute slope changes (an
exact expression for TV(Df) of the grid function) subject to equality at
the data points.  That is a linear program over slack variables, solved
densely.  The solver path deliberately knows nothing about the geometric
characterization; certification then compares the two numbers.

Because the grid contains every data point, the chord interpolant is
always feasible, so the grid minimum can never exceed its TV; and grid
functions are interpolants, so it can never undercut the true minimum.
Refining the grid only enlarges the feasible set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .dataset import Dataset
from .plfun import PiecewiseLinear, from_knots

DEFAULT_GRID_POINTS_PER_GAP = 64
DEFAULT_SOLVER_TOL = 1e-6
DEFAULT_MAX_ITERS = 200_000


class OracleError(RuntimeError):
    """Solver failed to reach optimality within its budget."""


@dataclass(frozen=True)
class CertificateReport:
    achieved: float
    target: float
    residual: float
    iterations: int
    passed: bool
    minimizer_is_member: bool  # advisory: grid minimizers may ride envelope edges
    advisory_violations: int


def grid_tv_minimize(
    d: Dataset,
    grid_points_per_gap: int = DEFAULT_GRID_POINTS_PER_GAP,
    tol: float = DEFAULT_SOLVER_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[float, PiecewiseLinear]:
    """Minimize TV(Df) over grid PL interpolants; returns (min_tv, minimizer)."""
    min_tv, minimizer, _ = _solve_grid_lp(d, grid_points_per_gap, tol, max_iters)
    return min_tv, minimizer


def _solve_grid_lp(
    d: Dataset, grid_points_per_gap: int, tol: float, max_iters: int
) -> tuple[float, PiecewiseLinear, int]:
    if grid_points_per_gap < 1:
        raise ValueError("grid too coarse: need at least one grid point per data gap")
    if tol <= 0:
        raise ValueError("tol must be positive")

    xs, ys = d.xs, d.ys
    g = int(grid_points_per_gap)
    segments = [np.linspace(xs[i], xs[i + 1], g + 1)[:-1] for i in range(d.m - 1)]
    nodes = np.concatenate(segments + [xs[-1:]])
    n = nodes.size
    data_idx = np.arange(d.m) * g
    h = np.diff(nodes)

    n_slack = n - 2
    cvec = np.concatenate([np.zeros(n), np.ones(n_slack)])

    a_eq = sparse.csr_matrix(
        (np.ones(d.m), (np.arange(d.m), data_idx)), shape=(d.m, n + n_slack)
    )

    if n_slack > 0:
        k = np.arange(1, n - 1)
        rows = np.repeat(np.arange(n_slack), 3)
        cols = np.concatenate([np.stack([k - 1, k, k + 1], axis=1).ravel()])
        inv_l, inv_r = 1.0 / h[k - 1], 1.0 / h[k]
        coef = np.stack([inv_l, -(inv_l + inv_r), inv_r], axis=1).ravel()
        second_diff = sparse.csr_matrix((coef, (rows, cols)), shape=(n_slack, n))
        eye = sparse.identity(n_slack, format="csr")
        a_ub = sparse.vstack(
            [sparse.hstack([second_diff, -eye]), sparse.hstack([-second_diff, -eye])],
            format="csr",
        )
        b_ub = np.zeros(2 * n_slack)
    else:
        a_ub, b_ub = None, None

    bounds = [(None, None)] * n + [(0, None)] * n_slack
    res = linprog(
        cvec,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=ys,
        bounds=bounds,
        method="highs",
        options={
            "maxiter": int(max_iters),
            "primal_feasibility_tolerance": tol,
            "dual_feasibility_tolerance": tol,
        },
    )
    if res.status != 0:
        raise OracleError(
            f"grid TV minimization did not converge (status {res.status}: {res.message}); "
            f"objective so far {getattr(res, 'fun', None)!r}"
        )
    u = res.x[:n]
    if n > 2:
        left = (u[1] - u[0]) / h[0]
        right = (u[-1] - u[-2]) / h[-1]
    else:
        left = right = (u[-1] - u[0]) / h[0]
    minimizer = from_knots(list(zip(nodes.tolist(), u.tolist())), left, right)
    return float(res.fun), minimizer, int(res.nit)


def certify(
    d: Dataset,
    ch,
    tol: float = 1e-3,
    grid_points_per_gap: int = DEFAULT_GRID_POINTS_PER_GAP,
    solver_tol: float = DEFAULT_SOLVER_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> CertificateReport:
    """Compare the independently solved grid minimum against ch.minimal_tv."""
    achieved, minimizer, iters = _solve_grid_lp(d, grid_points_per_gap, solver_tol, max_iters)
    target = float(ch.minimal_tv)
    residual = abs(achieved - target)
    passed = residual <= tol * max(1.0, target)

    # Advisory only: the LP vertex is expected to be a member up to grid and
    # solver resolution, but may sit exactly on an envelope boundary.  The
    # import stays local so the solve above cannot lean on the
    # characterization even by accident.
    from .characterize import check_membership_against

    member_report = check_membership_against(ch, minimizer, tol=max(solver_tol, 1e-6))
    return CertificateReport(
        achieved=achieved,
        target=target,
        residual=residual,
        iterations=iters,
        passed=passed,
        minimizer_is_member=member_report.is_member,
        advisory_violations=len(member_report.violations),
    )
