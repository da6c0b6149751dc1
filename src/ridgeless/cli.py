"""Command-line surface: characterize, check, sample, synthesize, certify, plot.

Exit codes: 0 success, 1 usage, 2 I/O or format error, 3 membership
failure, 4 certification/verification failure.  Errors go to stderr as
single-line ``error code=<n> kind=<k> message=<json string>`` records.
All randomness flows from --seed; identical invocations print identical
bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import network as net_mod
from . import plfun
from .characterize import (DEFAULT_MEMBERSHIP_RTOL, FREE, REASONS, characterize,
                           check_membership_against, connect_the_dots, support_envelope)
from .dataset import DatasetError, load_dataset, read_text
from .generalization import (make_dataset_from, verify_lip_domination, verify_localized_bounds,
                             verify_sup_error)
from .oracle import DEFAULT_CERTIFY_TOL, DEFAULT_GRID_POINTS_PER_GAP, OracleError, certify
from .plfun import evaluate, tv_of_derivative
from . import sample


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def fmt(v: float) -> str:
    return f"{float(v):.17g}"


# the "{:.3f}" text of q / 1000 is _INT[q // 1000] + _FRAC[q % 1000]; 999.9996 prints 1000.000
_INT = np.array([str(k) for k in range(1001)], dtype=object)
_FRAC = np.array([f".{k:03d}" for k in range(1000)], dtype=object)
_BITS_1000 = int(np.float64(1000.0).view(np.int64))  # x in [+0.0, 1000] iff bits in [0, this]


def _pixel_text(x, y, head: str = "", mid: str = ",", tail: str = "") -> list[str]:
    """``f"{head}{x:.3f}{mid}{y:.3f}{tail}"`` per point, x and y in [+0.0, 1000] or DatasetError:
    x * 1000 = n / 2**shift, n < 2**63 by ``frexp``, rounded half to even as ``str.format`` does."""
    cols = []
    for v, pre, post in ((x, head, mid), (y, "", tail)):
        bits = v.view(np.int64)
        if bits.size and not 0 <= bits.min() <= bits.max() <= _BITS_1000:
            raise DatasetError("plot: a pixel is not a number in [0, 1000]; the x or y range overflows")
        mant, exp = np.frexp(v)
        shift = 53 - exp.astype(np.int64)
        n = np.where(shift > 63, 0, (mant * 2.0**53).astype(np.int64) * 1000)  # x * 1000 < 1/2 where shift > 63
        q = n >> np.minimum(shift, 63, out=shift)
        rest, half = n - (q << shift), np.int64(1) << (shift - 1)
        whole, frac = np.divmod(q + ((rest > half) | ((rest == half) & (q % 2 == 1))), 1000)
        cols += [(pre + _INT)[whole].tolist(), (_FRAC + post)[frac].tolist()]
        del mant, exp, shift, n, q, rest, half, whole, frac  # this row's arrays, before the next's
    return list(map("".join, zip(*cols)))


def _error(code: int, kind: str, message: str) -> int:
    print(f"error code={code} kind={kind} message={json.dumps(message)}", file=sys.stderr)
    return code


def _at_least(convert, least):
    """argparse type: ``convert`` the text, then reject values below ``least`` or not finite."""

    def parse(text: str):
        value = convert(text)
        if not least <= value < np.inf:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be finite and >= {least}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in conversion errors
    return parse


def _load(path: str, parse=plfun.from_json, noun: str = "piecewise-linear"):
    """Parse a JSON file; any encoding, structural or numeric fault becomes a format error."""
    try:
        return parse(read_text(path))
    except (KeyError, TypeError, IndexError, ValueError, OverflowError, RecursionError) as e:
        raise DatasetError(f"bad {noun} file {path}: {e}") from None


def _as_dict(report) -> dict:
    """``dataclasses.asdict`` of a flat report, in field order and without its deep copy."""
    out = {f.name: getattr(report, f.name) for f in fields(report)}
    if "violations" in out:
        out["violations"] = [{"tag": v.tag, "location": v.location, "magnitude": v.magnitude}
                             for v in report.violations]
    return out


def _write_or_print(text: str, out: str | Path | None) -> None:
    if out:
        Path(out).write_text(text)
    print(f"wrote {out}" if out else text)


def cmd_characterize(args) -> int:
    d = load_dataset(args.data)
    ch = characterize(d)
    x = list(map(fmt, d.xs.tolist()))
    blocks = ch.blocks
    lines = [
        f"interval {j} ({x[j - 1]}, {x[j]}): "
        + (f"free (block {k})" if c == FREE else f"forced ({REASONS[c]})")
        for j, c, k in zip(range(1, d.m), ch.gaps.code.tolist(), ch.gaps.block.tolist())
    ]
    lines += [
        f"block {k}: knots {ak}..{bk} sign {sk:+d} support slopes {fmt(sa)} {fmt(sb)}"
        for k, (ak, bk, sk, sa, sb) in enumerate(zip(
            blocks.a.tolist(), blocks.b.tolist(), blocks.sign.tolist(),
            blocks.lower_support[2].tolist(), blocks.upper_support[2].tolist()))
    ]
    lines.append("inflection set: " + " ".join(map(str, ch.inflection_set)))
    lines.append("minimal TV: " + fmt(ch.minimal_tv))
    print("\n".join(lines))
    if args.json is not None:  # an empty path prints the JSON, as --out "" does
        _write_or_print(json.dumps(ch.to_dict()), args.json)
    return 0


def cmd_fd(args) -> int:
    f = connect_the_dots(load_dataset(args.data))
    _write_or_print(plfun.to_json(f), args.out)
    return 0


def cmd_check(args) -> int:
    d = load_dataset(args.data)
    f = _load(args.pl)
    report = check_membership_against(characterize(d), f, tol=args.tol)
    print(json.dumps(_as_dict(report)))
    return 0 if report.is_member else 3


def cmd_sample(args) -> int:
    d = load_dataset(args.data)
    ch = characterize(d)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    to_json = plfun.to_json if args.n < 2 else plfun._json_like(ch.f_D)  # members are f_D off free blocks
    step = sample._rows_per_pass(d.m)  # members held at once
    for lo in range(0, args.n, step):
        seeds = range(args.seed + lo, args.seed + min(lo + step, args.n))
        for k, f in enumerate(sample.sample_members(ch, seeds), lo):
            _write_or_print(to_json(f), out_dir / f"member-{k:04d}.json")
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
    print(json.dumps(_as_dict(report)))
    print(f"target: {fmt(report.target)} achieved: {fmt(report.achieved)} "
          f"residual: {fmt(report.residual)}")
    return 0 if report.passed else 4


def cmd_bound(args) -> int:
    # --m gives the uniform design; without it the data file supplies the design
    if args.m is None and args.data is None:
        raise UsageError("bound: give a data file or --m")
    f_star = _load(args.fstar)
    d = make_dataset_from(f_star, args.m if args.m is not None else load_dataset(args.data).xs)
    ch = characterize(d)
    members = sample.sample_members(ch, range(args.seed, args.seed + args.members))
    reports = {"lip_domination": verify_lip_domination(ch, members, plfun.lipschitz_norm(f_star)),
               "localized": verify_localized_bounds(ch, members),
               "sup_error": verify_sup_error(f_star, d, members)}
    print(json.dumps({name: _as_dict(report) for name, report in reports.items()}))
    return 0 if all(report.passed for report in reports.values()) else 4


def cmd_plot(args) -> int:
    ch = characterize(load_dataset(args.data))
    members = sample.sample_members(ch, range(args.seed, args.seed + args.members))
    _write_or_print(render_svg(ch, members), args.out)
    return 0


@np.errstate(all="ignore")  # _pixel_text rejects the non-finite pixels of an overflowing range
def render_svg(ch, members) -> str:
    """Static picture of the data, chords, block envelopes and members.

    Every block's support envelope is one row of a (blocks, 65) array, and
    its chord one run of the points x_a, x_b and f_D's kinks between them;
    each point is mapped to pixels and formatted once, and a block's ring
    reuses its envelope's points, reversed.
    """
    width, height = 800, 500  # pixels
    xs, ys = ch.dataset.xs, ch.dataset.ys
    pad = 0.08 * (xs[-1] - xs[0])
    lo, hi = float(xs[0] - pad), float(xs[-1] + pad)
    curves = []
    for f in (ch.f_D, *members):
        x = np.concatenate(([lo], f.x[plfun._window(f, lo, hi)], [hi]))
        curves.append((x, evaluate(f, x)))

    a, b = ch.blocks.a, ch.blocks.b
    sx = np.linspace(ch.blocks.lower_support[0], ch.blocks.upper_support[0], 65, axis=1)
    sy = support_envelope(ch, np.arange(a.size)[:, None], sx)
    # chords: the block knots, less the interior ones that f_D drops as collinear
    knot_x = xs[ch.blocks.knots - 1]
    last = np.cumsum(b - a + 1) - 1  # of each block, in knot_x
    keep = np.isin(knot_x, ch.f_D.x)
    keep[last] = keep[last - (b - a)] = True  # x_a and x_b, kinks of f_D or not
    cx, chord_end = knot_x[keep], np.cumsum(keep)[last].tolist()

    all_y = np.concatenate([y for _, y in curves] + [sy.ravel(), ys])
    ymin, ymax = float(all_y.min()), float(all_y.max())
    if ymax - ymin < 1e-12:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    ypad = 0.08 * (ymax - ymin)
    ymin, ymax = ymin - ypad, ymax + ypad
    margin = 40.0

    def pixels(x, y, *template: str) -> list[str]:
        """``_pixel_text`` of each point mapped to pixel coordinates."""
        px = margin + (x - lo) / (hi - lo) * (width - 2 * margin)
        py = height - margin - (y - ymin) / (ymax - ymin) * (height - 2 * margin)
        return _pixel_text(px, py, *template)

    def polyline(points: list[str], style: str) -> str:
        return f'<polyline points="{" ".join(points)}" fill="none" {style}/>'

    support = pixels(sx.ravel(), sy.ravel())
    support = [support[i : i + 65] for i in range(0, len(support), 65)]
    chord = pixels(cx, evaluate(ch.f_D, cx))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<metadata>{json.dumps({'minimal_tv': ch.minimal_tv})}</metadata>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    parts += [f'<polygon points="{" ".join(chord[i:j] + sup[::-1])}" fill="#cfe8ff" '
              f'stroke="none" opacity="0.7"/>'
              for i, j, sup in zip([0, *chord_end], chord_end, support)]
    parts += [polyline(pixels(*c), 'stroke="#999999" stroke-width="1"') for c in curves[1:]]
    parts += [polyline(sup, 'stroke="#2a7fff" stroke-width="1" stroke-dasharray="5,4"')
              for sup in support]
    parts.append(polyline(pixels(*curves[0]), 'stroke="#d62728" stroke-width="2"'))
    parts += pixels(xs, ys, '<circle cx="', '" cy="', '" r="4" fill="black"/>')
    parts.append(
        f'<text x="{margin:.0f}" y="{margin - 12:.0f}" font-family="monospace" '
        f'font-size="14">minimal TV = {fmt(ch.minimal_tv)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
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
    sp.add_argument("--tol", type=_at_least(float, 0), default=DEFAULT_MEMBERSHIP_RTOL)
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
    sp.add_argument("--grid", type=_at_least(int, 1), default=DEFAULT_GRID_POINTS_PER_GAP)
    sp.add_argument("--tol", type=_at_least(float, 0), default=DEFAULT_CERTIFY_TOL)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("bound", help="generalization bound reports")
    sp.add_argument("data", nargs="?", help="the design's abscissae; not read with --m")
    sp.add_argument("--fstar", required=True)
    sp.add_argument("--m", type=_at_least(int, 2))
    sp.add_argument("--members", type=_at_least(int, 0), default=100)
    sp.add_argument("--seed", type=int, default=0)
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
