"""Dataset ingestion and the slope / discrete-curvature profile.

A dataset is two read-only arrays, the abscissae ``xs`` (strictly
increasing) and the values ``ys``.  Its chord slopes ``s_i`` and the
signs ``eps_i`` of consecutive slope differences (the discrete curvature
at each interior point) drive the whole interpolant characterization
downstream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .plfun import allowance, float_rows, json_numbers

# eps_i is declared zero when |s_i - s_{i-1}| <= allowance(CURVATURE_RTOL, s_i, s_{i-1}).
CURVATURE_RTOL = 1e-12


class DatasetError(ValueError):
    """Invalid dataset content or structure."""


class DuplicateXError(DatasetError):
    def __init__(self, x: float):
        super().__init__(f"duplicate abscissa x={x!r}")
        self.x = x


class MalformedRecordError(DatasetError):
    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


class NonFiniteValueError(DatasetError):
    pass


class TooFewPointsError(DatasetError):
    pass


@dataclass(frozen=True, eq=False)
class Dataset:
    """Points with strictly increasing ``xs``, as two read-only float arrays; ``==`` is identity."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        try:
            xy = np.array((self.xs, self.ys), dtype=float)
        except ValueError as e:  # of two lengths, or a value that does not convert
            raise DatasetError("xs and ys must be 1-D and of one length") from e
        if xy.ndim != 2:
            raise DatasetError("xs and ys must be 1-D and of one length")
        xy.flags.writeable = False
        xs, ys = xy
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.size < 2:
            raise TooFewPointsError("a dataset needs at least two points")
        if np.count_nonzero(np.isfinite(xy)) < xy.size:
            i = int(np.argmin(np.isfinite(xy).all(axis=0)))  # the first point with one
            raise NonFiniteValueError(f"non-finite coordinate in point ({xs[i].item()!r}, {ys[i].item()!r})")
        if np.count_nonzero(xs[1:] <= xs[:-1]):
            i = int(np.argmax(xs[1:] <= xs[:-1]))  # the first step that does not increase
            if xs[i + 1] == xs[i]:
                raise DuplicateXError(xs[i].item())
            raise DatasetError("points must be sorted by x; use make_dataset")

    @property
    def m(self) -> int:
        return self.xs.size


@dataclass(frozen=True, eq=False)
class SlopeProfile:
    """Chord slopes s_1..s_{m-1} and curvature signs eps_2..eps_{m-1}, as read-only arrays."""

    slopes: np.ndarray
    curvatures: np.ndarray


def make_dataset(pairs: Iterable[tuple[float, float]]) -> Dataset:
    """Sort the pairs by x (stably) and validate them into a Dataset."""
    x, y = float_rows(list(pairs), 2, "points must be (x, y) pairs").T
    order = x.argsort(kind="stable")
    return Dataset(x[order], y[order])


def slope_profile(d: Dataset) -> SlopeProfile:
    """Chord slopes and curvature signs, in one pass over the arrays.

    Raises NonFiniteValueError when a chord slope or a slope difference
    leaves the float range (a huge rise over a tiny gap), since every
    decision downstream compares those differences.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = (d.ys[1:] - d.ys[:-1]) / (d.xs[1:] - d.xs[:-1])
        delta = s[1:] - s[:-1]
    if not (np.isfinite(s).all() and np.isfinite(delta).all()):
        raise NonFiniteValueError("non-finite chord slope or slope difference")
    eps = np.sign(delta).astype(int)
    eps[np.abs(delta) <= allowance(CURVATURE_RTOL, s[1:], s[:-1])] = 0
    s.flags.writeable = eps.flags.writeable = False
    return SlopeProfile(slopes=s, curvatures=eps)


def _is_json(path: str | Path) -> bool:
    """The suffix rule of dataset files: ".json", in any case, means json; any other, csv."""
    return Path(path).suffix.lower() == ".json"


def read_text(path: str | Path) -> str:
    """The text of any input file: UTF-8 with or without a BOM, else MalformedRecordError."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise MalformedRecordError(f"not UTF-8: byte {e.object[e.start]:#04x} at offset {e.start}") from None


def load_dataset(path: str | Path) -> Dataset:
    """Read a csv or json dataset file, as its suffix says."""
    text = read_text(path)
    return _parse_json(text) if _is_json(path) else _parse_csv(text)


def _parse_csv(text: str) -> Dataset:
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split(",")
        if len(fields) != 2:
            raise MalformedRecordError(f"expected 'x,y', got {stripped!r}", line=lineno)
        try:
            x, y = float(fields[0]), float(fields[1])
        except ValueError:
            raise MalformedRecordError(f"non-numeric field in {stripped!r}", line=lineno) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFiniteValueError(f"non-finite value on line {lineno}")
        pairs.append((x, y))
    return make_dataset(pairs)


def _parse_json(text: str) -> Dataset:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedRecordError(f"invalid json: {e.msg}", line=e.lineno) from None
    except (ValueError, RecursionError) as e:  # an integer past the digit limit, deep nesting
        raise MalformedRecordError(f"invalid json: {e}") from None
    if not isinstance(obj, dict) or "points" not in obj:
        raise MalformedRecordError('expected an object with a "points" array')
    if not isinstance(obj["points"], list):
        raise MalformedRecordError('"points" must be an array')
    for rec in obj["points"]:
        if not isinstance(rec, list) or len(rec) != 2:
            raise MalformedRecordError(f"expected [x, y], got {rec!r}")
        if not json_numbers(rec):
            raise MalformedRecordError(f"non-numeric coordinate in record {rec!r}")
    try:
        return make_dataset(obj["points"])
    except OverflowError:  # an integer literal beyond the float range
        raise NonFiniteValueError("non-finite value: an integer beyond the float range") from None


def save_dataset(d: Dataset, path: str | Path) -> None:
    """Write a csv or json file, as its suffix says, that reloads bit-exactly (repr round-trips floats)."""
    if _is_json(path):
        text = json.dumps({"points": np.column_stack((d.xs, d.ys)).tolist()})
    else:
        text = "".join(f"{x!r},{y!r}\n" for x, y in zip(d.xs.tolist(), d.ys.tolist()))
    Path(path).write_text(text)
