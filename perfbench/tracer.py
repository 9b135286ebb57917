"""Per-layer tracing installed from outside the program.

Wrappers replace the public functions of each `cilines` module at every
binding that holds them: the defining module and every module that did
`from .x import name`, so calls through re-exports and lazy imports are
seen too. Arithmetic methods are wrapped on their class, aliases such as
`__radd__ = __add__` included. Nothing is patched until `install` runs,
so untraced runs execute the program unchanged.

Three kinds of wrapper:
  count -- the call count only; used on the arithmetic hot paths;
  time  -- calls and self time (span time minus the time of timed
           calls made inside it), aggregated in place;
  span  -- as time, and each call is also kept as a span
           (name, start, end, parent span, report id) for the span file.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from . import fq

COUNT, TIME, SPAN = "count", "time", "span"
FAMILY = frozenset({"family"})
LINES = frozenset({"lines"})
ALL = FAMILY | LINES


@dataclass(frozen=True)
class Target:
    name: str  # metric prefix, <layer>.<what>
    module: str
    attr: str  # a function, or Class.method
    kind: str
    # workloads whose traced pass must reach it; a target that stops
    # firing there (after a refactor moved the call) fails the run
    fires_on: frozenset


TARGETS = (
    Target("fields.mul", "cilines.fields", "Field.mul", COUNT, ALL),
    Target("fields.add", "cilines.fields", "Field.add", COUNT, ALL),
    Target("fields.inv", "cilines.fields", "Field.inv", COUNT, ALL),
    Target("params.mul", "cilines.params", "ParamScalar.__mul__", COUNT, ALL),
    Target("params.add", "cilines.params", "ParamScalar.__add__", COUNT, ALL),
    Target("params.exact_div", "cilines.params", "ParamScalar.exact_div", COUNT, ALL),
    Target("params.from_terms", "cilines.params", "ParamRing.from_terms", COUNT, ALL),
    Target("polytext.parse_poly", "cilines.polytext", "parse_poly", SPAN, LINES),
    Target("multipoly.substitute", "cilines.multipoly", "MultiPoly.substitute", TIME, ALL),
    Target("multipoly.binaryform_mul", "cilines.multipoly", "BinaryForm.__mul__", TIME, LINES),
    Target("multipoly.binary_gcd", "cilines.multipoly", "binary_gcd", SPAN, LINES),
    Target("exactmatrix.rank_exact", "cilines.exactmatrix", "rank_exact", SPAN, ALL),
    Target("exactmatrix.det", "cilines.exactmatrix", "det", SPAN, ALL),
    Target("exactmatrix.kernel_basis", "cilines.exactmatrix", "kernel_basis", SPAN, LINES),
    Target("geometry.restrict_along", "cilines.geometry", "restrict_along", SPAN, LINES),
    Target("chart.membership_system", "cilines.chart", "membership_system", SPAN, ALL),
    Target("chart.nonfree_matrix", "cilines.chart", "nonfree_matrix", SPAN, ALL),
    Target(
        "chart.smooth_along_components", "cilines.chart", "smooth_along_components", SPAN, LINES
    ),
    Target("chart.enumerate_lines_fq", "cilines.chart", "enumerate_lines_fq", SPAN, LINES),
    Target("nonfree.expected_pair_report", "cilines.nonfree", "expected_pair_report", SPAN, ALL),
    Target("nonfree.jacobian_def_matrix", "cilines.nonfree", "jacobian_def_matrix", SPAN, ALL),
    Target(
        "bundles.normal_splitting_line", "cilines.bundles", "normal_splitting_line", SPAN, LINES
    ),
    Target("bundles.tangent_cohomology", "cilines.bundles", "tangent_cohomology", SPAN, LINES),
    Target("bundles.precompose", "cilines.bundles", "precompose", SPAN, LINES),
    Target("families.build_family", "cilines.families", "build_family", SPAN, FAMILY),
    Target("families.family_report", "cilines.families", "family_report", SPAN, FAMILY),
    Target("cli.load_problem", "cilines.cli", "load_problem", SPAN, LINES),
    Target("cli.main", "cilines.cli", "main", SPAN, ALL),
)

RATIOS = {"chart.census.hit_ratio", "families.attempts_per_report", "trace.overhead_ratio"}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric in RATIOS else "count"


_MATRIX_FUNCTIONS = {"exactmatrix.rank_exact", "exactmatrix.det", "exactmatrix.kernel_basis"}


class Tracer:
    """Counters, self times and spans for one traced pass."""

    def __init__(self) -> None:
        n = len(TARGETS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.entries = 0  # rows x cols summed over rank_exact, det, kernel_basis
        self.candidates = 0  # Gaussian binomial of every censused P^N(F_q)
        self.found = 0
        self.spans: list = []
        self.report = -1  # index of the report being run, set by the caller
        self._children: list[float] = []  # time of timed calls inside each open call
        self._open: list[int] = []  # ids of the open recorded spans
        self._patched: list[tuple[object, str, object]] = []
        self.started = perf_counter()

    # -- wrappers -----------------------------------------------------------

    def _counted(self, i: int, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[i] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, i: int, fn, record: bool, hook):
        calls, self_s, children, open_ids, spans = (
            self.calls,
            self.self_s,
            self._children,
            self._open,
            self.spans,
        )

        def wrapper(*args, **kwargs):
            calls[i] += 1
            children.append(0.0)
            if record:
                sid = len(spans)
                spans.append(None)
                parent = open_ids[-1] if open_ids else -1
                open_ids.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                self_s[i] += dur - children.pop()
                if children:
                    children[-1] += dur
                if record:
                    open_ids.pop()
                    spans[sid] = (i, t0, t1, parent, self.report)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _hook(self, name: str):
        if name in _MATRIX_FUNCTIONS:

            def entries(args, result):
                self.entries += args[0].rows * args[0].cols

            return entries
        if name == "chart.enumerate_lines_fq":

            def census(args, result):
                x = args[0]
                self.candidates += fq.gaussian_binomial_2(x.n + 1, x.field.p)
                self.found += len(result)

            return census
        return None

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(t.module) for t in TARGETS]
        programs = [m for name, m in sys.modules.items() if name.split(".")[0] == "cilines"]
        for i, (t, module) in enumerate(zip(TARGETS, modules)):
            owner, _, attr = t.attr.rpartition(".")
            source = getattr(module, owner) if owner else module
            original = vars(source)[attr]
            holders = [source] if owner else programs
            if t.kind == COUNT:
                wrapper = self._counted(i, original)
            else:
                wrapper = self._timed(i, original, t.kind == SPAN, self._hook(t.name))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def silent(self, workload: str) -> list[str]:
        """Targets that the workload should reach but never called."""
        return [
            t.name
            for t, calls in zip(TARGETS, self.calls)
            if workload in t.fires_on and calls == 0
        ]

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for t, calls, self_s in zip(TARGETS, self.calls, self.self_s):
            out[f"{t.name}.calls"] = calls
            if t.kind != COUNT:
                out[f"{t.name}.self_s"] = self_s
        out["exactmatrix.entries"] = self.entries
        out["chart.census.candidates"] = self.candidates
        out["chart.census.found"] = self.found
        out["chart.census.hit_ratio"] = self.found / self.candidates if self.candidates else 0.0
        reports = out["families.family_report.calls"]
        builds = out["families.build_family.calls"]
        out["families.attempts_per_report"] = builds / reports if reports else 0.0
        return out

    def write_spans(self, path: Path, meta: dict) -> None:
        """One JSON header line, then one [name, start_s, end_s, parent,
        report] line per recorded span, times relative to the tracer start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = [t.name for t in TARGETS]
        fields = ["name", "start_s", "end_s", "parent", "report"]
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({**meta, "fields": fields}) + "\n")
            for i, t0, t1, parent, report in self.spans:
                start, end = round(t0 - self.started, 7), round(t1 - self.started, 7)
                fh.write(json.dumps([names[i], start, end, parent, report]) + "\n")
