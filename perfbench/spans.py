"""Span tracing of the ridgeless package from outside it.

`Tracer.install` replaces each function in TRACED by a wrapper that
records a span (name, start, end, parent span, task id), everywhere the
function is looked up: modules that import a function by name hold their
own reference, so every ``ridgeless`` module attribute bound to the
original function is patched.  Spans are kept in memory; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (module, name) of each traced function, looked up on ridgeless.<module>.
# oracle.linprog is SciPy's solver as the oracle module sees it.
TRACED = (
    ("dataset", "make_dataset"),
    ("dataset", "load_dataset"),
    ("dataset", "slope_profile"),
    ("plfun", "evaluate"),
    ("plfun", "from_knots"),
    ("plfun", "canonical"),
    ("plfun", "restriction_mismatches"),
    ("plfun", "breakpoints_in"),
    ("characterize", "characterize"),
    ("characterize", "tv_formula_pair"),
    ("characterize", "check_membership_against"),
    ("characterize", "check_membership"),
    ("sample", "sample_member"),
    ("sample", "perturb_to_nonmember"),
    ("network", "pl_to_network"),
    ("network", "network_to_pl"),
    ("network", "evaluate_network"),
    ("network", "cost"),
    ("oracle", "certify"),
    ("oracle", "linprog"),
    ("generalization", "verify_sup_error"),
    ("generalization", "verify_localized_bounds"),
    ("generalization", "verify_lip_domination"),
    ("cli", "main"),
)


def _count_characterize(counters, args, kwargs, result):
    d = args[0] if args else kwargs["d"]
    counters["characterize.m"] += d.m
    counters["characterize.blocks"] += len(result.blocks)


def _count_member(counters, args, kwargs, result):
    counters["sample.member_breakpoints"] += len(result.breakpoints)


def _count_lp(counters, args, kwargs, result):
    counters["oracle.lp_iterations"] += int(getattr(result, "nit", 0))


def _count_minimizer(counters, args, kwargs, result):
    # The oracle builds its grid minimizer from the LP solution at every node.
    knots = args[0] if args else kwargs["knots"]
    counters["oracle.grid_nodes"] += len(knots)
    counters["oracle.minimizer_breakpoints"] += len(result.breakpoints)


# Size and work counters, keyed by (span name, module that looks the function up);
# a None module matches every lookup site.
PROBES = {
    ("characterize.characterize", None): _count_characterize,
    ("sample.sample_member", None): _count_member,
    ("oracle.linprog", None): _count_lp,
    ("plfun.from_knots", "ridgeless.oracle"): _count_minimizer,
}

COUNTERS = (
    "characterize.m",
    "characterize.blocks",
    "sample.member_breakpoints",
    "oracle.grid_nodes",
    "oracle.lp_iterations",
    "oracle.minimizer_breakpoints",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start_ns, end_ns, parent index or -1, task id]
        self.counters: Counter[str] = Counter()
        self.task = -1
        self._stack: list[int] = []
        self._patched: list = []

    def install(self) -> None:
        ours = [(name, mod) for name, mod in sys.modules.items()
                if mod is not None and (name == "ridgeless" or name.startswith("ridgeless."))]
        for module, func in TRACED:
            defining = sys.modules.get(f"ridgeless.{module}")
            if defining is None or not hasattr(defining, func):
                continue  # not imported in this process, or gone from the package
            original = getattr(defining, func)
            span = f"{module}.{func}"
            for mod_name, mod in ours:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        probe = PROBES.get((span, mod_name)) or PROBES.get((span, None))
                        setattr(mod, attr, self._wrap(span, original, probe))
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, span: str, fn, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = [span, start, end, parent, self.task]
            if probe is not None:
                probe(self.counters, args, kwargs, result)
            return result

        return traced

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Calls and self time (ns) per span name."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        return calls, self_ns

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def write_jsonl(self, path: Path) -> None:
        """One span per line: [name, start_ns, end_ns, parent line or -1, task id]."""
        with path.open("w") as out:
            out.writelines(json.dumps(span) + "\n" for span in self.spans)
