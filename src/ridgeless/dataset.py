"""Dataset ingestion and the slope / discrete-curvature profile.

A dataset is a sorted sequence of (x, y) pairs with strictly increasing x.
Its chord slopes ``s_i`` and the signs ``eps_i`` of consecutive slope
differences (the discrete curvature at each interior point) drive the
whole interpolant characterization downstream.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Union

import numpy as np

# eps_i is declared zero when |s_i - s_{i-1}| <= tol * max(1, |s_i|, |s_{i-1}|).
CURVATURE_RTOL = 1e-12

Source = Union[str, Path, IO]


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


@dataclass(frozen=True)
class Dataset:
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise TooFewPointsError("a dataset needs at least two points")
        prev = -math.inf
        for x, y in self.points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise NonFiniteValueError(f"non-finite coordinate in point ({x!r}, {y!r})")
            if x == prev:
                raise DuplicateXError(x)
            if x < prev:
                raise DatasetError("points must be sorted by x; use make_dataset")
            prev = x

    @property
    def m(self) -> int:
        return len(self.points)

    @cached_property
    def xs(self) -> np.ndarray:
        return np.array([x for x, _ in self.points], dtype=float)

    @cached_property
    def ys(self) -> np.ndarray:
        return np.array([y for _, y in self.points], dtype=float)


@dataclass(frozen=True)
class SlopeProfile:
    """Chord slopes s_1..s_{m-1} and curvature signs eps_2..eps_{m-1}."""

    slopes: tuple[float, ...]
    curvatures: tuple[int, ...]


def make_dataset(pairs: Iterable[tuple[float, float]]) -> Dataset:
    """Sort the pairs by x and validate them into a Dataset."""
    pts = sorted((float(x), float(y)) for x, y in pairs)
    return Dataset(points=tuple(pts))


def slope_profile(d: Dataset, curvature_tol: float = CURVATURE_RTOL) -> SlopeProfile:
    xs, ys = d.xs, d.ys
    s = np.diff(ys) / np.diff(xs)
    eps = [sign_with_tol(s[i] - s[i - 1], curvature_tol * max(1.0, abs(s[i]), abs(s[i - 1])))
           for i in range(1, len(s))]
    return SlopeProfile(slopes=tuple(float(v) for v in s), curvatures=tuple(eps))


def sign_with_tol(delta: float, tol: float) -> int:
    if abs(delta) <= tol:
        return 0
    return 1 if delta > 0 else -1


def load_dataset(source: Source, format: str | None = None) -> Dataset:
    """Read a dataset from a path or stream in csv or json format.

    When ``format`` is omitted and the source is a path, the file suffix
    decides (".json" means json, anything else csv).
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        fmt = format or ("json" if path.suffix.lower() == ".json" else "csv")
        text = path.read_text()
    else:
        raw = source.read()
        text = raw.decode() if isinstance(raw, bytes) else raw
        fmt = format or "csv"
    if fmt == "csv":
        return _parse_csv(text)
    if fmt == "json":
        return _parse_json(text)
    raise ValueError(f"unknown dataset format {fmt!r}")


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
    pairs = []
    for rec in obj["points"]:
        if not isinstance(rec, (list, tuple)) or len(rec) != 2:
            raise MalformedRecordError(f"expected [x, y], got {rec!r}")
        try:
            x, y = float(rec[0]), float(rec[1])
        except (TypeError, ValueError):
            raise MalformedRecordError(f"non-numeric coordinate in record {rec!r}") from None
        except OverflowError:  # an integer literal beyond the float range
            raise NonFiniteValueError(f"non-finite value in record {rec!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFiniteValueError(f"non-finite value in record {rec!r}")
        pairs.append((x, y))
    return make_dataset(pairs)


def save_dataset(d: Dataset, target: Source, format: str = "csv") -> None:
    """Write csv or json that reloads bit-exactly (repr round-trips floats)."""
    if format == "csv":
        text = "".join(f"{x!r},{y!r}\n" for x, y in d.points)
    elif format == "json":
        text = json.dumps({"points": [[x, y] for x, y in d.points]})
    else:
        raise ValueError(f"unknown dataset format {format!r}")
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)


def loads_dataset(text: str, format: str = "csv") -> Dataset:
    return load_dataset(io.StringIO(text), format=format)
