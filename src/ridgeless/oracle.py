"""Independent certification of the minimal derivative-TV by convex solve.

The minimum of TV(Df) over piecewise-linear interpolants is re-derived
here from scratch: fix a grid refining every data gap and minimize
TV(Df) over the continuous PL functions that interpolate the data and
bend only at grid nodes.  The solver path deliberately knows nothing
about the geometric characterization; certification then compares the
two numbers.

The linear program is written in kink form.  Its unknowns are the slope
sigma_0 of the first grid piece and, at each interior node t_k, the
slope jump c_k = p_k - q_k with p, q >= 0; the objective sum(p + q) is
sum |c_k| = TV(Df) at any optimum, since lowering both of a positive
pair p_k, q_k keeps c_k and lowers the objective.  This is the
grid-value LP (node values u as unknowns, u fixed at the data, sum of
|second differences| minimized) after a change of variables and row
operations, so it has the same feasible functions and the same optimum:

- sigma_0, the jumps and u_0 = y_0 give every node value, and every grid
  function with u_0 = y_0 arises this way, once;
- u(x_{i+1}) - u(x_i) = w_i * (mean slope on gap i), so the interpolation
  conditions say that the mean slope on each gap i is its chord slope s_i,
  and that mean slope is sigma_0 + sum_k c_k * clip((x_{i+1} - t_k) / w_i, 0, 1)
  (t_k >= x_{i+1} gives weight 0, t_k <= x_i weight 1);
- row 0 keeps gap 0's equation, and row i >= 1 is gap i's minus gap
  i - 1's, sum_k c_k * phi_i(t_k) = s_i - s_{i-1}, where phi_i is the hat
  function that is 1 at x_i and 0 at x_{i-1} and x_{i+1}.

That leaves m - 1 equality rows and at most two nonzeros per column, in
place of m equalities and two inequality rows per interior node.

Because the grid contains every data point, the chord interpolant is
always feasible, so the grid minimum can never exceed its TV; and grid
functions are interpolants, so it can never undercut the true minimum.
Refining the grid only enlarges the feasible set.

HiGHS is called through scipy's bundled bindings, not ``linprog``, whose
wrapper loops in Python over every column to fill bound marginals that
are never read here and cost more than the solve itself.  The model goes
in as numpy arrays in one ``passModel`` call, the matrix built column by
column, since ``HighsLp``'s attribute setters convert one float at a time
(the tests fill one that way and require the same bits).

Only the bindings' extension module is loaded, by ``_highs_core``: it finds
``_core`` in scipy's ``optimize/_highspy`` directory, runs it, and registers it in
``sys.modules`` as ``scipy.optimize._highspy._core``, without running
``scipy.optimize``'s ``__init__`` (about 320 scipy modules and 35 MB).  A later
``import scipy.optimize`` reuses the registered module, ``linprog`` included, but
leaves the package attribute ``scipy.optimize._highspy._core`` unset;
``sys.modules`` and ``from scipy.optimize._highspy import _core`` still find it.

Each thread keeps one HiGHS instance, made again whenever ``_core._Highs`` is
no longer its class, with fixed options: no presolve, no scaling, no output,
dual simplex.  Scaling has nothing to equilibrate: every matrix entry is a
dimensionless hat weight in [1/g, 1], every row's largest is exactly 1, and the
data's units enter only through the right-hand side.  Limits are set on each
call and the model is cleared after each solve, which spares a new instance's
page faults, for the same bits, and keeps HiGHS's workspace (2 MB at m = 60).
A right-hand side at or beyond HiGHS's infinite bound (1e20) is refused first,
and so are grid nodes that do not strictly increase.

The solution comes back as the m - 1 basic variables and their values, solved
against the right-hand side: every nonbasic column is at 0, so that is all of
``col_value``, with its bits, without 2n - 3 Python floats.  The check of the
solution then reads only the basic columns' matrix entries.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import numbers
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .plfun import PiecewiseLinear, allowance, from_knots

DEFAULT_GRID_POINTS_PER_GAP = 64
DEFAULT_SOLVER_TOL = 1e-6
DEFAULT_MAX_ITERS = 200_000
DEFAULT_CERTIFY_TOL = 1e-3  # certify passes when |achieved - target| <= allowance(tol, target)
# the allowance linprog gave the solution HiGHS returns: 10 * sqrt(tol) at
# linprog's own default tol of 1e-9, not at the solver tolerance
_CHECK_TOL = 10 * np.sqrt(1e-9)
_thread = threading.local()  # .highs: this thread's HiGHS instance
_CORE = "scipy.optimize._highspy._core"
_core_lock = threading.Lock()


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


def grid_tv_minimize(d: Dataset,
                     grid_points_per_gap: int = DEFAULT_GRID_POINTS_PER_GAP) -> tuple[float, PiecewiseLinear, int]:
    """Minimize TV(Df) over grid PL interpolants; returns (min_tv, minimizer, iterations).

    The LP runs at DEFAULT_SOLVER_TOL and DEFAULT_MAX_ITERS, read at call time.
    """
    g = grid_points_per_gap
    if isinstance(g, bool) or not isinstance(g, numbers.Integral) or g < 1:
        raise ValueError(f"grid_points_per_gap must be an integer >= 1, got {g!r}")
    g = int(g)
    _core = _highs_core()  # loaded here, so that importing the package does not load scipy

    xs, ys = d.xs, d.ys
    w = np.diff(xs)
    s = np.diff(ys) / w
    # the same float operations as np.linspace(xs[i], xs[i + 1], g + 1)[:-1] on each gap
    nodes = np.append(np.arange(g) * (w / g)[:, None] + xs[:-1, None], xs[-1])
    n = nodes.size
    h = np.diff(nodes)
    if not (h > 0.0).all():  # nodes that round onto each other (or a width that overflows)
        i = int(np.argmin(h > 0.0))
        raise OracleError(f"grid nodes {i} and {i + 1} of data gap {i // g} ({nodes[i].item()!r}, "
                          f"{nodes[i + 1].item()!r}) do not increase at {g} points per gap; "
                          f"use fewer points per gap (--grid)")

    # Unknowns: sigma_0, then p and q at the interior nodes 1..n-2.  Node k lies in gap
    # j = k // g; it enters row j with the falling side of the hat at x_j (for j = 0, its
    # weight in gap 0's mean slope) and row j + 1 with the rising side of the hat at x_{j+1},
    # which is 0 at a data node and has no row on the last gap (as the nodes increase, no
    # other weight is 0).  Column by column, gap by gap (T[j] holds gap j's nodes, x_j first):
    # sigma_0 in row 0, then each node's entries, row j first, as column k (p) and negated as k + n - 2 (q).
    T = nodes[:-1].reshape(-1, g)
    fall, rise = (xs[1:, None] - T) / w[:, None], (T - xs[:-1, None]) / w[:, None]
    coef = np.delete(np.stack([fall, rise], 2).reshape(d.m - 1, -1), 1, 1)  # x_j's rising 0
    row = np.delete(np.arange(d.m - 1)[:, None] + np.arange(2 * g) % 2, 1, 1)
    coef = np.concatenate([coef[:-1].ravel(), fall[-1]])[1:]  # node 0 is sigma_0's
    row = np.concatenate([row[:-1].ravel(), np.full(g, d.m - 2)])[1:]
    per_node = np.full(n - 2, 2, np.int32)
    per_node[g - 1 :: g] = per_node[n - g - 1 :] = 1  # at a data node and on the last gap
    n_vars, start = 2 * n - 3, np.concatenate([[0, 1], per_node, per_node]).cumsum(dtype=np.int32)
    index, value = np.concatenate([[0], row, row]).astype(np.int32), np.concatenate([[1.0], coef, -coef])
    b_eq = np.concatenate([s[:1], np.diff(s)])
    cost, lower, upper = np.ones(n_vars), np.zeros(n_vars), np.full(n_vars, _core.kHighsInf)
    cost[0], lower[0] = 0.0, -_core.kHighsInf

    highs = _thread_highs()
    # HiGHS reads a row bound at or beyond its infinite bound as no bound at all (row 0's is s_0)
    big, limit = np.abs(b_eq).max(), highs.getOptionValue("infinite_bound")[1]
    if not big < limit:
        raise OracleError(f"largest slope difference |s_i - s_(i-1)| {big:.3e} is at or beyond "
                          f"HiGHS's infinite bound {limit:.0e}; rescale the data")
    error = _core.HighsStatus.kError
    limits = {"simplex_iteration_limit": DEFAULT_MAX_ITERS,
              "ipm_iteration_limit": DEFAULT_MAX_ITERS,
              "primal_feasibility_tolerance": DEFAULT_SOLVER_TOL,
              "dual_feasibility_tolerance": DEFAULT_SOLVER_TOL}
    # every variable continuous: HiGHS reads n_vars integrality entries, so none may be missing
    lp = (n_vars, d.m - 1, value.size, _core.MatrixFormat.kColwise, _core.ObjSense.kMinimize,
          0.0, cost, lower, upper, b_eq, b_eq, start, index, value, np.zeros(n_vars, np.int32))
    try:
        if (any(highs.setOptionValue(*option) == error for option in limits.items())
                or highs.passModel(*lp) == error or highs.run() == error
                or highs.getModelStatus() != _core.HighsModelStatus.kOptimal):
            raise OracleError(f"grid TV minimization did not converge ({_status(highs)})")
        # every nonbasic column is at 0 (p and q at their lower bound, sigma_0 free), so the m - 1
        # basic values, solved against b_eq, give col_value's bits without a Python float per column
        (found, basic), (solved, xb) = highs.getBasicVariables(), highs.getBasisSolve(b_eq)
        if error in (found, solved):
            raise OracleError(f"HiGHS returned no basic solution ({_status(highs)})")
        col, x = basic[basic >= 0], np.zeros(n_vars)  # negative entries are row slacks
        x[col] = xb[basic >= 0]
        # linprog's check of what HiGHS returns (every upper bound is infinite), over the basic
        # columns' one or two entries each, added in column order as scipy's csc_matvec does
        at = np.sort(np.concatenate([start[col], (start[col] + 1)[start[col + 1] - start[col] > 1]]))
        products = value[at] * x[start.searchsorted(at, "right") - 1]
        if not (np.isfinite(x[col]).all() and (x[col] >= lower[col] - _CHECK_TOL).all()
                and (np.abs(b_eq - np.bincount(index[at], products, d.m - 1)) <= _CHECK_TOL).all()):
            raise OracleError(f"grid LP solution misses its bounds or rows by more than "
                              f"{_CHECK_TOL:.2e} ({_status(highs)})")
        info = highs.getInfo()
        achieved, iters = float(info.objective_function_value), int(info.simplex_iteration_count)
    finally:
        highs.clearModel()
    jumps = x[1 : n - 1] - x[n - 1 :]
    slopes = x[0] + np.concatenate([[0.0], np.cumsum(jumps)])
    u = ys[0] + np.concatenate([[0.0], np.cumsum(slopes * h)])
    left, right = (u[1] - u[0]) / h[0], (u[-1] - u[-2]) / h[-1]
    minimizer = from_knots(np.column_stack([nodes, u]), left, right)
    return achieved, minimizer, iters


def _highs_core():
    """scipy's HiGHS extension, loaded on first use without running ``scipy.optimize``'s
    ``__init__`` and registered in ``sys.modules`` under its full name."""
    with _core_lock:
        core = sys.modules.get(_CORE)
        if core is None:
            import scipy

            path = os.path.join(scipy.__path__[0], "optimize", "_highspy")
            spec = importlib.machinery.PathFinder.find_spec(_CORE, [path])
            if spec is None:
                raise ImportError(f"no {_CORE} extension in {path}", name=_CORE)
            core = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(core)
            sys.modules[_CORE] = core
    return core


def _thread_highs():
    """This thread's HiGHS instance, made with the fixed options if ``_core._Highs`` is new."""
    _core = _highs_core()
    highs = getattr(_thread, "highs", None)
    if type(highs) is not _core._Highs:
        options = _core.HighsOptions()
        # presolve solves this LP outright in 0 iterations, where maxiter cannot bind
        options.presolve = "off"
        options.output_flag = options.log_to_console = False
        options.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        options.simplex_scale_strategy = 0  # off: the matrix is equilibrated already
        highs = _core._Highs()
        if highs.passOptions(options) == _core.HighsStatus.kError:
            raise OracleError("HiGHS refused the grid LP's options")
        _thread.highs = highs
    return highs


def _status(highs) -> str:
    status = highs.modelStatusToString(highs.getModelStatus())
    primal = highs.solutionStatusToString(highs.getInfo().primal_solution_status)
    return f"model status {status}; primal status {primal}"


def certify(
    d: Dataset,
    ch,
    tol: float = DEFAULT_CERTIFY_TOL,
    grid_points_per_gap: int = DEFAULT_GRID_POINTS_PER_GAP,
) -> CertificateReport:
    """Compare the independently solved grid minimum against ch.minimal_tv."""
    if not 0 <= tol < np.inf:  # nan or inf would let every residual pass
        raise ValueError("tolerance must be nonnegative and finite")
    achieved, minimizer, iters = grid_tv_minimize(d, grid_points_per_gap)
    target = float(ch.minimal_tv)
    residual = abs(achieved - target)
    passed = bool(residual <= allowance(tol, target))

    # Advisory only: the LP vertex is expected to be a member up to grid and
    # solver resolution, but may sit exactly on an envelope boundary.  The
    # import stays local so the solve above cannot lean on the
    # characterization even by accident.
    from .characterize import check_membership_against

    member_report = check_membership_against(ch, minimizer, tol=DEFAULT_SOLVER_TOL)
    return CertificateReport(
        achieved=achieved,
        target=target,
        residual=residual,
        iterations=iters,
        passed=passed,
        minimizer_is_member=member_report.is_member,
        advisory_violations=len(member_report.violations),
    )
