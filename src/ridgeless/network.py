"""One-layer ReLU networks with a linear unit, and exact PL conversion.

A network is z(x) = a*x + b + sum_j w2_j * max(0, w1_j*x + b1_j).  Its
weight cost is half the sum of squared first- and second-layer weights;
biases and the linear unit are free.  Synthesis from a PL function uses
one unit per slope jump with balanced weights +-sqrt(|jump|), which makes
the cost equal the total variation of the derivative; any other split of
a unit's weights can only cost more (AM-GM), so synthesized networks
realize the minimal cost among networks computing the same function.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .plfun import PiecewiseLinear, canonical, check_json_numbers, evaluate, float_rows


@dataclass(frozen=True, eq=False)
class ReluNetwork:
    """The linear unit ``a*x + b`` and a read-only (k, 3) array of units (w1, b1, w2); ``==`` is identity."""

    a: float
    b: float
    units: np.ndarray

    def __post_init__(self) -> None:
        units = float_rows(self.units, 3, "units must be rows (w1, b1, w2)")
        units.flags.writeable = False
        object.__setattr__(self, "units", units)
        if not (math.isfinite(self.a) and math.isfinite(self.b) and np.isfinite(units).all()):
            raise ValueError("network parameters must be finite")

    def __call__(self, x):
        return evaluate_network(self, x)

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "units": self.units.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ReluNetwork":
        check_json_numbers((d["a"], d["b"]), *d["units"])
        return cls(a=float(d["a"]), b=float(d["b"]), units=d["units"])


def cost(net: ReluNetwork) -> float:
    """Half the sum of squared neuron weights (biases and linear unit free)."""
    w1, _, w2 = net.units.T
    with np.errstate(over="ignore"):  # summed in unit order: np.sum would add pairwise
        return 0.5 * float(np.add.accumulate(np.concatenate(([0.0], w1 * w1 + w2 * w2)))[-1])


def evaluate_network(net: ReluNetwork, x):
    """The network at a scalar or array of points, adding the units in unit order."""
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    step = max(1, 2**16 // max(1, flat.size))  # units per block, so a block is about 2**16 products
    with np.errstate(over="ignore", invalid="ignore"):
        out = net.a * flat + net.b
        for lo in range(0, len(net.units), step):
            w1, b1, w2 = net.units[lo:lo + step].T[:, :, None]
            out = np.add.accumulate(np.concatenate((out[None], w2 * np.maximum(0.0, w1 * flat + b1))), axis=0)[-1]
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def pl_to_network(f: PiecewiseLinear) -> ReluNetwork:
    """Synthesize a network computing ``f`` exactly, at cost TV(Df).

    One unit per breakpoint: a jump c at location xi becomes
    (sqrt|c|, -xi*sqrt|c|, sign(c)*sqrt|c|), an upward-opening kink with
    balanced weights.  The linear unit carries the left tail.
    """
    r = np.sqrt(np.abs(f.c))
    a = f.left_slope
    b = float(f.y[0] - a * f.x[0]) if f.x.size else evaluate(f, 0.0)
    return ReluNetwork(a=a, b=b, units=np.column_stack((r, -f.x * r, np.copysign(r, f.c))))


def network_to_pl(net: ReluNetwork) -> PiecewiseLinear:
    """Exact symbolic extraction of the PL function a network computes.

    Accepts arbitrary parameters: negative first-layer weights fold into
    the left-tail slope, dead units (w1 == 0) fold into the bias, and
    kinks at identical locations merge.
    """
    w1, b1, w2 = net.units[net.units[:, 0] != 0.0].T  # a dead unit is constant: the anchor value has it
    with np.errstate(over="ignore", invalid="ignore"):
        left = float(np.add.accumulate(np.concatenate(([net.a], (w2 * w1)[w1 < 0.0])))[-1])
        locs, jumps = -b1 / w1, w2 * np.abs(w1)
    return canonical((0.0, evaluate_network(net, 0.0)), left, np.column_stack((locs, jumps)))


def to_json(net: ReluNetwork) -> str:
    return json.dumps(net.to_dict())


def from_json(text: str) -> ReluNetwork:
    return ReluNetwork.from_dict(json.loads(text))
