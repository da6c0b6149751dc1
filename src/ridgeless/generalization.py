"""Lipschitz-domination and worst-case recovery bounds for family members.

When the data comes from a Lipschitz function, every member of the
family is at most as steep as the chord interpolant, hence at most as
steep as the source.  On a uniform design with m points in [0,1] that
pins the sup recovery error at 2L/m.  A localized variant bounds how far
member slopes may drift from each chord slope gap by gap, at the price
of constants (7L for the norm, 14L/m for the error).

Ground truths are restricted to PL functions so Lipschitz norms are
computed exactly rather than estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characterize import Characterization, localized_slope_bounds
from .dataset import Dataset
from .plfun import PiecewiseLinear, breakpoints_in, evaluate, lipschitz_norm, piece_slopes_on


class NonUniformDesignError(ValueError):
    """The sharp 2L/m bound only holds for the uniform design x_i = i/m."""


@dataclass(frozen=True)
class GroundTruth:
    f_star: PiecewiseLinear
    L: float

    def __post_init__(self) -> None:
        actual = lipschitz_norm(self.f_star)
        if abs(self.L - actual) > 1e-12 * max(1.0, actual):
            raise ValueError(f"declared L={self.L} but the function's norm is {actual}")

    @classmethod
    def of(cls, f_star: PiecewiseLinear) -> "GroundTruth":
        return cls(f_star=f_star, L=lipschitz_norm(f_star))


def make_dataset_from(gt: GroundTruth, design) -> Dataset:
    """Sample the ground truth on a design.

    An integer m means the uniform design x_i = i/m on [0, 1]; any other
    sequence is used as explicit abscissae.
    """
    if isinstance(design, (int, np.integer)):
        if design < 2:
            raise ValueError("uniform design needs m >= 2")
        xs = np.arange(1, int(design) + 1) / float(design)
    else:
        xs = np.asarray(list(design), dtype=float)
        if xs.size < 2:
            raise ValueError("need at least two abscissae")
    ys = np.atleast_1d(evaluate(gt.f_star, xs))
    return Dataset(points=tuple(zip(xs.tolist(), ys.tolist())))


def is_uniform_design(d: Dataset, rtol: float = 1e-12) -> bool:
    m = d.m
    expected = np.arange(1, m + 1) / float(m)
    return bool(np.all(np.abs(d.xs - expected) <= rtol))


@dataclass(frozen=True)
class LipDominationReport:
    fd_norm: float
    members_max_norm: float
    L: float
    max_ratio: float
    worst_member: int
    passed: bool


def verify_lip_domination(
    ch: Characterization, members: Sequence[PiecewiseLinear], L: float, tol: float = 1e-9
) -> LipDominationReport:
    """Check lip(member) <= lip(chord interpolant) <= L for every member."""
    fd_norm = lipschitz_norm(ch.f_D)
    norms = [lipschitz_norm(f) for f in members]
    worst = int(np.argmax(norms)) if norms else -1
    members_max = max(norms) if norms else 0.0
    passed = members_max <= fd_norm + tol * max(1.0, fd_norm) and fd_norm <= L + tol * max(1.0, L)
    return LipDominationReport(
        fd_norm=fd_norm,
        members_max_norm=members_max,
        L=L,
        max_ratio=members_max / L if L > 0 else math.inf if members_max > 0 else 0.0,
        worst_member=worst,
        passed=passed,
    )


@dataclass(frozen=True)
class SupErrorReport:
    bound: float
    exact_max: float
    grid_max: float
    slack: float
    worst_member: int
    passed: bool


def verify_sup_error(
    gt: GroundTruth,
    d: Dataset,
    members: Sequence[PiecewiseLinear],
    grid: int = 100,
    tol: float = 1e-9,
) -> SupErrorReport:
    """Check sup_{[0,1]} |member - f_star| <= 2L/m on the uniform design.

    The maximum is computed exactly at the union of kinks (the difference
    of two PL functions is PL, so its extrema sit at kinks or interval
    ends) and cross-checked on a dense grid of ``grid`` points per gap.
    """
    if not is_uniform_design(d):
        raise NonUniformDesignError("sup-error bound requires x_i = i/m on [0, 1]")
    m = d.m
    bound = 2.0 * gt.L / m
    dense = np.linspace(0.0, 1.0, grid * m + 1)
    star_dense = np.atleast_1d(evaluate(gt.f_star, dense))

    exact_max = 0.0
    grid_max = 0.0
    worst = -1
    for k, f in enumerate(members):
        err = sup_error(f, gt.f_star, 0.0, 1.0)
        if err > exact_max:
            exact_max, worst = err, k
        gerr = float(np.max(np.abs(np.atleast_1d(evaluate(f, dense)) - star_dense)))
        grid_max = max(grid_max, gerr)
    passed = exact_max <= bound + tol
    return SupErrorReport(
        bound=bound,
        exact_max=exact_max,
        grid_max=grid_max,
        slack=bound - exact_max,
        worst_member=worst,
        passed=passed,
    )


def sup_error(f: PiecewiseLinear, g: PiecewiseLinear, lo: float, hi: float) -> float:
    """Exact max of |f - g| on [lo, hi], taken at the union of kinks and the ends."""
    pts = np.unique([lo, hi, *(xi for fn in (f, g) for xi, _ in breakpoints_in(fn, lo, hi))])
    return float(np.max(np.abs(evaluate(f, pts) - evaluate(g, pts))))


@dataclass(frozen=True)
class LocalizedBoundReport:
    gap_bounds: tuple[float, ...]
    max_excess: float
    lip_ratio: float  # lip(member) / lip(chord), must stay <= 7
    worst_member: int
    worst_gap: int
    passed: bool


def verify_localized_bounds(
    ch: Characterization, members: Sequence[PiecewiseLinear], tol: float = 1e-9
) -> LocalizedBoundReport:
    """Per-gap slope drift |Df - s_i| <= B_i, plus the 7x aggregate norm check."""
    d = ch.dataset
    bounds = localized_slope_bounds(ch)
    fd_norm = lipschitz_norm(ch.f_D)
    xs = d.xs
    s = ch.profile.slopes

    max_excess = -math.inf
    worst_member = worst_gap = -1
    lip_ratio = 0.0
    ok = True
    for k, f in enumerate(members):
        for i in range(1, d.m):
            slopes = piece_slopes_on(f, float(xs[i - 1]), float(xs[i]))
            drift = float(np.max(np.abs(slopes - s[i - 1])))
            excess = drift - float(bounds[i - 1])
            if excess > max_excess:
                max_excess, worst_member, worst_gap = excess, k, i
            if excess > tol * max(1.0, float(bounds[i - 1])):
                ok = False
        norm = lipschitz_norm(f)
        ratio = norm / fd_norm if fd_norm > 0 else 0.0
        lip_ratio = max(lip_ratio, ratio)
        if norm > 7.0 * fd_norm + tol * max(1.0, fd_norm):
            ok = False
    return LocalizedBoundReport(
        gap_bounds=tuple(float(b) for b in bounds),
        max_excess=max_excess if members else 0.0,
        lip_ratio=lip_ratio,
        worst_member=worst_member,
        worst_gap=worst_gap,
        passed=ok,
    )


def random_design_probe(
    gt: GroundTruth, m: int, seed: int, n_members: int = 50
) -> dict:
    """Exploratory iid-design measurement; reports values, no pass/fail.

    With x_i drawn iid uniform on [0,1] the recovery error is expected to
    scale like log(m) L / m, but no explicit constant is asserted.
    """
    from .characterize import characterize
    from .sample import sample_member

    rng = np.random.default_rng(int(seed) % 2**64)
    xs = np.sort(rng.uniform(0.0, 1.0, size=m))
    while np.any(np.diff(xs) <= 0):
        xs = np.sort(rng.uniform(0.0, 1.0, size=m))
    d = make_dataset_from(gt, xs)
    ch = characterize(d)
    worst = 0.0
    for k in range(n_members):
        f = sample_member(ch, seed=int(rng.integers(2**63)))
        worst = max(worst, sup_error(f, gt.f_star, 0.0, 1.0))
    reference = math.log(m) * gt.L / m if m > 1 else math.inf
    return {
        "m": m,
        "measured_sup_error": worst,
        "log_scale_reference": reference,
        "ratio": worst / reference if reference > 0 else math.inf,
    }
