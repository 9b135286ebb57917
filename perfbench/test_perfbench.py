"""Tests of the benchmark itself: the line oracle, the workload checks and
the tracer. They run under pytest from the repository root with src/ on
the import path."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from cilines.chart import all_lines_fq, enumerate_lines_fq
from cilines.cli import load_problem
from cilines.fields import prime_field

from perfbench import fq, run, workloads
from perfbench.tracer import TARGETS, Tracer

ROOT = workloads.REPO


def _random_form_through_a_line(rng, n, d, p):
    """A random degree-d form in the ideal (Z1, Z2), so it contains the
    line Z1 = Z2 = 0 before a random change of coordinates."""
    monomials = [e for e in _exponents(n + 1, d - 1)]
    form: dict = {}
    for z in (2, 3):
        for e in rng.sample(monomials, min(4, len(monomials))):
            e = tuple(x + (1 if i == z else 0) for i, x in enumerate(e))
            form[e] = rng.randrange(1, p)
    return fq.transformed([form], n, p, rng)[0]


def _exponents(k, d):
    if k == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _exponents(k - 1, d - first):
            yield (first,) + rest


@pytest.mark.parametrize(
    "n, d, p",
    [(3, 2, 3), (3, 3, 3), (3, 2, 5), (3, 3, 2), (3, 4, 3), (4, 3, 2)],
    ids=["q>d", "q=d", "q>d-F5", "q<d", "q<d-quartic", "q<d-P4"],
)
def test_oracle_matches_enumerate_lines_fq(tmp_path, n, d, p):
    rng = random.Random(1000 * n + 10 * d + p)
    for k in range(3):
        form = _random_form_through_a_line(rng, n, d, p)
        path = tmp_path / f"x{k}.ci"
        path.write_text(fq.problem_text(p, n, [form]), encoding="utf-8")
        program = enumerate_lines_fq(load_problem(str(path)).x)
        assert [ln.rows for ln in program] == fq.lines_on([form], n, p)
        assert program  # the line Z1 = Z2 = 0, moved


@pytest.mark.parametrize(
    "variety, lines",
    [
        (workloads.CUBIC_SURFACE_F7, 27),
        (workloads.QUARTIC_THREEFOLD_F3, 40),
        (workloads.CUBIC_THREEFOLD_F5, 51),
        (workloads.QUADRIC_PAIR_F5, 16),
        (workloads.QUADRIC_SURFACE_F3, 8),
    ],
    ids=lambda v: getattr(v, "label", str(v)),
)
def test_line_counts_do_not_depend_on_the_seed(variety, lines):
    for seed in (1, 2):
        forms = variety.draw(random.Random(seed))
        assert tuple(len(f) for f in forms) == variety.terms
        assert len(fq.lines_on(forms, variety.n, variety.p)) == lines == variety.lines


@pytest.mark.parametrize("q, n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (2, 4)])
def test_gaussian_binomial_counts_the_lines(q, n):
    expected = sum(1 for _ in all_lines_fq(prime_field(q), n))
    assert fq.gaussian_binomial_2(n + 1, q) == expected


def test_chart_move_keeps_the_line_on_x():
    v = workloads.CUBIC_SURFACE_F7
    forms = v.draw(random.Random(3))
    for line in fq.lines_on(forms, v.n, v.p):
        moved, a, b = fq.to_chart(forms, line)
        for t in range(v.p):
            point = (1, t) + tuple((x + t * y) % v.p for x, y in zip(a, b))
            assert fq.evaluate(moved[0], point, v.p) == 0


def _workload(tmp_path, name):
    return run.load_program(), workloads.WORKLOADS[name](1, tmp_path)


def test_checks_reject_altered_reports(tmp_path):
    cli, wl = _workload(tmp_path, "lines")
    _, code, out = run.call(cli, wl.reports[1].argv)  # the quartic threefold census
    wl.reports, wl.group_checks = wl.reports[:2], []
    assert run.check_pass(wl, [(0, "{}"), (code, out)]) == [
        f"{' '.join(wl.reports[0].argv)}: unreadable report: KeyError('lines')"
    ]
    report = json.loads(out)
    assert wl.reports[1].check(code, out) is None
    report["lines"] = report["lines"][1:]
    assert wl.reports[1].check(code, json.dumps(report))
    assert wl.reports[1].check(1, out)

    fam = workloads.family(1, tmp_path)
    golden = fam.reports[0]
    refusal = next(
        r for r in fam.reports if r.argv[1].startswith("hyp-char-not-2") and r.argv[-1] == "2"
    )
    _, code, out = run.call(cli, golden.argv)
    assert golden.check(code, out) is None
    assert golden.check(code, out.replace("SmoothExpectedDim", "NotInJ"))
    _, code, out = run.call(cli, refusal.argv)
    assert code == 2 and refusal.check(code, out) is None
    assert refusal.check(0, out)


def test_classify_histograms_reject_a_changed_verdict(tmp_path):
    cli, wl = _workload(tmp_path, "lines")
    group, check = wl.group_checks[2]  # the quadric pair: 16 lines, fast
    members = [r for r in wl.reports if r.group == group]
    reps = [json.loads(run.call(cli, r.argv)[2]) for r in members]
    assert len(reps) == 16 and check(reps) is None
    reps[0]["verdict"] = "NotInJ"
    assert check(reps)


# -- tracer -------------------------------------------------------------------------


def traced_counts(workload: str, seed: int) -> dict:
    """Counters of one traced pass over a small slice of the workload: the
    first report of every group, with the warm-up census in place of the
    two large ones."""
    import tempfile
    from pathlib import Path

    cli = run.load_program()
    with tempfile.TemporaryDirectory() as work:
        wl = workloads.WORKLOADS[workload](seed, Path(work))
        firsts = {}
        for r in wl.reports:
            firsts.setdefault(r.group or r.argv[1], r)
        firsts.pop("census", None)
        wl.reports = list(firsts.values())[:6]
        if workload == "lines":
            wl.reports.append(workloads.Report(wl.warmup, lambda code, out: None))
        wl.group_checks = []
        with Tracer() as tracer:
            _, _, outputs = run.run_pass(cli, wl, tracer)
        assert run.check_pass(wl, outputs) == []
    metrics = tracer.layer_metrics()
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def _traced_in_subprocess(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    code = (
        "import json; from perfbench.test_perfbench import traced_counts; "
        f"print(json.dumps(traced_counts({workload!r}, 7)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_counts_repeat_and_every_target_fires():
    fired = set()
    for workload in workloads.WORKLOADS:
        first = _traced_in_subprocess(workload, "1")
        assert _traced_in_subprocess(workload, "2") == first
        for t in TARGETS:
            if workload in t.fires_on:
                assert first[f"{t.name}.calls"] > 0, (t.name, workload)
        fired |= {t.name for t in TARGETS if first[f"{t.name}.calls"]}
    assert fired == {t.name for t in TARGETS}


def test_declared_self_times_are_entered_on_every_workload():
    """A per-layer time of a layer that some workload never enters would
    read exactly 0 s on every run of it, so BENCHMARK.json lists only the
    self times of targets that fire on every workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    fires_on = {t.name: t.fires_on for t in TARGETS}
    for m in spec["per_layer"]:
        if m["name"].endswith(".self_s"):
            assert fires_on[m["name"].removesuffix(".self_s")] == set(workloads.WORKLOADS)


def test_tracer_restores_every_binding():
    import cilines.bundles
    import cilines.chart
    import cilines.cli
    import cilines.nonfree
    from cilines.params import ParamScalar

    before = (cilines.chart.membership_system, cilines.nonfree.membership_system,
              cilines.bundles.membership_system, ParamScalar.__add__, ParamScalar.__radd__)
    with Tracer():
        assert cilines.nonfree.membership_system is cilines.chart.membership_system
        assert cilines.chart.membership_system is not before[0]
        assert ParamScalar.__radd__ is ParamScalar.__add__ is not before[3]
    after = (cilines.chart.membership_system, cilines.nonfree.membership_system,
             cilines.bundles.membership_system, ParamScalar.__add__, ParamScalar.__radd__)
    assert after == before


# -- yardstick ----------------------------------------------------------------------


def test_yardstick_samples_long_and_short_reports_and_keeps_its_time_out():
    import time
    from types import SimpleNamespace

    from perfbench.reference import Yardstick

    def main(argv):
        time.sleep(float(argv[0]))
        return 0

    cli = SimpleNamespace(main=main)
    with Yardstick() as yardstick:
        t0 = time.perf_counter()
        dt, code, _ = run.call(cli, ["0.35"], yardstick)
        wall = time.perf_counter() - t0
        assert code == 0 and len(yardstick.samples) >= 3
        assert yardstick.busy > 0 and abs(wall - yardstick.busy - dt) < 0.01
        before = len(yardstick.samples)
        for _ in range(10):  # each shorter than a period: the timer carries over
            run.call(cli, ["0.04"], yardstick)
        assert len(yardstick.samples) - before >= 3
    assert yardstick.scale() > 0
