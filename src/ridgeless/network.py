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

from .plfun import PiecewiseLinear, canonical, check_json_numbers, evaluate


@dataclass(frozen=True)
class ReluNetwork:
    a: float
    b: float
    units: tuple[tuple[float, float, float], ...]  # (w1, b1, w2) per unit

    def __post_init__(self) -> None:
        vals = [self.a, self.b, *(v for u in self.units for v in u)]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("network parameters must be finite")

    def __call__(self, x):
        return evaluate_network(self, x)

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "units": [list(u) for u in self.units]}

    @classmethod
    def from_dict(cls, d: dict) -> "ReluNetwork":
        check_json_numbers((d["a"], d["b"]), *d["units"])
        units = tuple((float(w1), float(b1), float(w2)) for w1, b1, w2 in d["units"])
        return cls(a=float(d["a"]), b=float(d["b"]), units=units)


def cost(net: ReluNetwork) -> float:
    """Half the sum of squared neuron weights (biases and linear unit free)."""
    return 0.5 * sum(w1 * w1 + w2 * w2 for w1, _, w2 in net.units)


def evaluate_network(net: ReluNetwork, x):
    xs = np.asarray(x, dtype=float)
    out = net.a * xs + net.b
    for w1, b1, w2 in net.units:
        out = out + w2 * np.maximum(0.0, w1 * xs + b1)
    return float(out) if np.isscalar(x) or xs.ndim == 0 else out


def pl_to_network(f: PiecewiseLinear) -> ReluNetwork:
    """Synthesize a network computing ``f`` exactly, at cost TV(Df).

    One unit per breakpoint: a jump c at location xi becomes
    (sqrt|c|, -xi*sqrt|c|, sign(c)*sqrt|c|), an upward-opening kink with
    balanced weights.  The linear unit carries the left tail.
    """
    r = np.sqrt(np.abs(f.c))
    # via a list: tuple(zip(...)) resizes its result while filling it, and over many
    # small calls that kept the resident memory growing
    units = tuple(list(zip(r.tolist(), (-f.x * r).tolist(), np.copysign(r, f.c).tolist())))
    a = f.left_slope
    b = float(f.y[0] - a * f.x[0]) if f.x.size else evaluate(f, 0.0)
    return ReluNetwork(a=a, b=b, units=units)


def network_to_pl(net: ReluNetwork) -> PiecewiseLinear:
    """Exact symbolic extraction of the PL function a network computes.

    Accepts arbitrary parameters: negative first-layer weights fold into
    the left-tail slope, dead units (w1 == 0) fold into the bias, and
    kinks at identical locations merge.
    """
    left = net.a
    bps = []
    for w1, b1, w2 in net.units:
        if w1 == 0.0:
            continue  # constant contribution, captured by the anchor value
        if w1 < 0.0:
            left += w2 * w1
        bps.append((-b1 / w1, w2 * abs(w1)))
    # the network at 0, summed unit by unit in evaluate_network's order
    w1, b1, w2 = np.array(net.units, dtype=float).reshape(-1, 3).T
    terms = np.concatenate(([net.a * 0.0 + net.b], w2 * np.maximum(0.0, w1 * 0.0 + b1)))
    return canonical((0.0, float(np.add.accumulate(terms)[-1])), left, bps)


def to_json(net: ReluNetwork) -> str:
    return json.dumps(net.to_dict())


def from_json(text: str) -> ReluNetwork:
    return ReluNetwork.from_dict(json.loads(text))
