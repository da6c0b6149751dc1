"""Command-line surface: characterize, check, sample, synthesize, certify, plot.

Exit codes: 0 success, 1 usage, 2 I/O or format error, 3 membership
failure, 4 certification/verification failure.  Errors go to stderr as
single-line ``error code=<n> kind=<k> message=<json string>`` records.
All randomness flows from --seed; identical invocations print identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import network as net_mod
from . import plfun
from .characterize import characterize, check_membership_against, connect_the_dots
from .dataset import DatasetError, load_dataset
from .generalization import (
    GroundTruth,
    is_uniform_design,
    make_dataset_from,
    verify_lip_domination,
    verify_localized_bounds,
    verify_sup_error,
)
from .oracle import OracleError, certify
from .plfun import evaluate, tv_of_derivative
from .sample import sample_member


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _error(code: int, kind: str, message: str) -> int:
    print(f"error code={code} kind={kind} message={json.dumps(message)}", file=sys.stderr)
    return code


def _at_least(convert, least):
    """argparse type: ``convert`` the text, then reject values below ``least``."""

    def parse(text: str):
        value = convert(text)
        if not value >= least:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in conversion errors
    return parse


def _load(path: str, parse=plfun.from_json, noun: str = "piecewise-linear"):
    """Parse a JSON file; any structural or numeric fault becomes a format error."""
    try:
        return parse(Path(path).read_text())
    except (KeyError, TypeError, IndexError, ValueError, OverflowError, RecursionError) as e:
        raise DatasetError(f"bad {noun} file {path}: {e}") from None


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        print(text)


def cmd_characterize(args) -> int:
    d = load_dataset(args.data)
    ch = characterize(d)
    xs = d.xs
    for v in ch.verdicts:
        span = f"({fmt(xs[v.index - 1])}, {fmt(xs[v.index])})"
        if v.kind == "forced":
            print(f"interval {v.index} {span}: forced ({v.reason})")
        else:
            print(f"interval {v.index} {span}: free (block {v.block_id})")
    for b in ch.blocks:
        a, bb = b.knot_range
        print(
            f"block {b.block_id}: knots {a}..{bb} sign {b.sign:+d} "
            f"support slopes {fmt(b.lower_support.slope)} {fmt(b.upper_support.slope)}"
        )
    print("inflection set:", " ".join(str(i) for i in ch.inflection_set))
    print("minimal TV:", fmt(ch.minimal_tv))
    if args.json:
        Path(args.json).write_text(json.dumps(ch.to_dict()))
        print(f"wrote {args.json}")
    return 0


def cmd_fd(args) -> int:
    d = load_dataset(args.data)
    f = connect_the_dots(d)
    _write_or_print(plfun.to_json(f), args.out)
    return 0


def cmd_check(args) -> int:
    d = load_dataset(args.data)
    f = _load(args.pl)
    report = check_membership_against(characterize(d), f, tol=args.tol)
    print(json.dumps(asdict(report)))
    return 0 if report.is_member else 3


def cmd_sample(args) -> int:
    d = load_dataset(args.data)
    ch = characterize(d)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(args.n):
        f = sample_member(ch, seed=args.seed + k)
        path = out_dir / f"member-{k:04d}.json"
        path.write_text(plfun.to_json(f))
        print(f"wrote {path}")
    return 0


def cmd_tv(args) -> int:
    f = _load(args.pl)
    print(fmt(tv_of_derivative(f)))
    return 0


def cmd_to_network(args) -> int:
    f = _load(args.pl)
    net = net_mod.pl_to_network(f)
    print("cost:", fmt(net_mod.cost(net)))
    _write_or_print(net_mod.to_json(net), args.out)
    return 0


def cmd_from_network(args) -> int:
    f = _load(args.net, lambda text: net_mod.network_to_pl(net_mod.from_json(text)), "network")
    _write_or_print(plfun.to_json(f), args.out)
    return 0


def cmd_certify(args) -> int:
    d = load_dataset(args.data)
    ch = characterize(d)
    report = certify(d, ch, tol=args.tol, grid_points_per_gap=args.grid)
    print(json.dumps(asdict(report)))
    print(f"target: {fmt(report.target)} achieved: {fmt(report.achieved)} "
          f"residual: {fmt(report.residual)}")
    return 0 if report.passed else 4


def cmd_bound(args) -> int:
    gt = GroundTruth.of(_load(args.fstar))
    if args.m is not None:
        d = make_dataset_from(gt, args.m)
    else:
        base = load_dataset(args.data)
        d = make_dataset_from(gt, base.xs)  # data file supplies the design
    ch = characterize(d)
    members = [sample_member(ch, seed=args.seed + k) for k in range(args.members)]
    lip = verify_lip_domination(ch, members, gt.L)
    localized = verify_localized_bounds(ch, members)
    out = {"lip_domination": asdict(lip), "localized": asdict(localized)}
    passed = lip.passed and localized.passed
    if is_uniform_design(d):
        sup = verify_sup_error(gt, d, members, grid=args.grid)
        out["sup_error"] = asdict(sup)
        passed = passed and sup.passed
    else:
        out["sup_error"] = {"skipped": "non-uniform design"}
    print(json.dumps(out))
    return 0 if passed else 4


def cmd_plot(args) -> int:
    d = load_dataset(args.data)
    ch = characterize(d)
    members = [sample_member(ch, seed=args.seed + k) for k in range(args.members)]
    svg = render_svg(ch, members)
    Path(args.out).write_text(svg)
    print(f"wrote {args.out}")
    return 0


def _curve_points(f, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    xs = np.unique(np.concatenate(([lo, hi], f.x[plfun._window(f, lo, hi)])))
    return xs, evaluate(f, xs)


def render_svg(ch, members) -> str:
    """Static picture of the data, chords, block envelopes and members."""
    width, height = 800, 500  # pixels
    d = ch.dataset
    xs, ys = d.xs, d.ys
    pad = 0.08 * (xs[-1] - xs[0])
    lo, hi = float(xs[0] - pad), float(xs[-1] + pad)

    curves = [_curve_points(ch.f_D, lo, hi)]
    member_curves = [_curve_points(f, lo, hi) for f in members]
    curves.extend(member_curves)
    support_curves = []
    for blk in ch.blocks:
        a, b = blk.knot_range
        xa, xb = float(xs[a - 1]), float(xs[b - 1])
        grid = np.linspace(xa, xb, 65)
        line = (np.maximum if blk.sign > 0 else np.minimum)(
            blk.lower_support(grid), blk.upper_support(grid)
        )
        support_curves.append((grid, line))
    curves.extend(support_curves)

    all_y = np.concatenate([y for _, y in curves] + [ys])
    ymin, ymax = float(all_y.min()), float(all_y.max())
    if ymax - ymin < 1e-12:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    ypad = 0.08 * (ymax - ymin)
    ymin, ymax = ymin - ypad, ymax + ypad
    margin = 40.0

    def pixels(template: str, x, y) -> map:
        """``template`` formatted with each point mapped to pixel coordinates."""
        px = margin + (x - lo) / (hi - lo) * (width - 2 * margin)
        py = height - margin - (y - ymin) / (ymax - ymin) * (height - 2 * margin)
        return map(template.format, px.tolist(), py.tolist())

    def pts(curve) -> str:
        return " ".join(pixels("{:.3f},{:.3f}", *curve))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<metadata>{json.dumps({'minimal_tv': ch.minimal_tv})}</metadata>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for blk, (sx, sy) in zip(ch.blocks, support_curves):
        a, b = blk.knot_range
        cx, cy = _curve_points(ch.f_D, float(xs[a - 1]), float(xs[b - 1]))
        ring = pts((np.concatenate((cx, sx[::-1])), np.concatenate((cy, sy[::-1]))))
        parts.append(f'<polygon points="{ring}" fill="#cfe8ff" stroke="none" opacity="0.7"/>')
    for curve in member_curves:
        parts.append(
            f'<polyline points="{pts(curve)}" fill="none" stroke="#999999" stroke-width="1"/>'
        )
    for sup in support_curves:
        parts.append(
            f'<polyline points="{pts(sup)}" fill="none" stroke="#2a7fff" '
            f'stroke-width="1" stroke-dasharray="5,4"/>'
        )
    parts.append(
        f'<polyline points="{pts(curves[0])}" fill="none" stroke="#d62728" stroke-width="2"/>'
    )
    parts.extend(pixels('<circle cx="{:.3f}" cy="{:.3f}" r="4" fill="black"/>', xs, ys))
    parts.append(
        f'<text x="{margin:.0f}" y="{margin - 12:.0f}" font-family="monospace" '
        f'font-size="14">minimal TV = {fmt(ch.minimal_tv)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def build_parser() -> _Parser:
    p = _Parser(prog="ridgeless", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("characterize", help="classify gaps, blocks and the minimal TV")
    sp.add_argument("data")
    sp.add_argument("--json", help="also write the characterization as JSON")
    sp.set_defaults(func=cmd_characterize)

    sp = sub.add_parser("fd", help="emit the connect-the-dots interpolant")
    sp.add_argument("data")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_fd)

    sp = sub.add_parser("check", help="membership test for a PL function")
    sp.add_argument("data")
    sp.add_argument("pl")
    sp.add_argument("--tol", type=_at_least(float, 0), default=1e-9)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("sample", help="emit random family members")
    sp.add_argument("data")
    sp.add_argument("--n", type=_at_least(int, 0), required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", default="members")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("tv", help="total variation of a PL function's derivative")
    sp.add_argument("pl")
    sp.set_defaults(func=cmd_tv)

    sp = sub.add_parser("to-network", help="synthesize a minimal-cost ReLU network")
    sp.add_argument("pl")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_to_network)

    sp = sub.add_parser("from-network", help="extract the PL function of a network")
    sp.add_argument("net")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_from_network)

    sp = sub.add_parser("certify", help="independent grid minimization of the TV")
    sp.add_argument("data")
    sp.add_argument("--grid", type=_at_least(int, 1), default=64)
    sp.add_argument("--tol", type=_at_least(float, 0), default=1e-3)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("bound", help="generalization bound reports")
    sp.add_argument("data")
    sp.add_argument("--fstar", required=True)
    sp.add_argument("--m", type=_at_least(int, 2))
    sp.add_argument("--members", type=_at_least(int, 0), default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid", type=_at_least(int, 1), default=100)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("plot", help="static SVG of data, chords, envelopes, members")
    sp.add_argument("data")
    sp.add_argument("--members", type=_at_least(int, 0), default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="plot.svg")
    sp.set_defaults(func=cmd_plot)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        return _error(1, "usage", str(e))
    except DatasetError as e:
        return _error(2, "format", str(e))
    except OSError as e:
        return _error(2, "io", str(e))
    except OracleError as e:
        return _error(4, "certification", str(e))


if __name__ == "__main__":
    raise SystemExit(main())
