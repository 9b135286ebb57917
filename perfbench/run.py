"""Benchmark of the `cilines` command line.

    python3 perfbench/run.py --workload {family,lines,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Each report calls `cilines.cli.main(argv)`
in-process with standard output captured, and every output is checked.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
end-to-end metrics of BENCHMARK.json, with `--trace 1` the per-layer
ones. The lines before it print every metric by name with its unit and
sample count. An untraced run cycles through the reports until they
have run for `--seconds`, and at least once each; a traced run makes one
untraced and one traced pass and writes its spans to perfbench/out/.
The times of an untraced run are scaled to a nominal machine speed by
the yardstick in reference.py, sampled while the reports run.
The exit status is 0 only when every report passed its check.
`--workload all` runs the workloads one after another, each in its own
process, and prints their summaries.

The program is single-threaded and the benchmark is a closed loop with
one client: each report starts when the previous one returns, so no layer
waits on another and no wait times are reported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.reference import Yardstick  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

WORK = ROOT / "perfbench" / "work"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 15  # this process's own set-up plus fourteen fresh interpreters
TAIL_MIN_REPORTS = 100  # p90 only where a pass has at least this many reports


def load_program():
    """Import `cilines` from this checkout's src/, never from elsewhere."""
    try:
        import cilines
        import cilines.cli
    except ImportError as exc:
        sys.exit(f"cannot import cilines from {ROOT / 'src'}: {exc}")
    if Path(cilines.__file__).resolve().parent != ROOT / "src" / "cilines":
        sys.exit(f"cilines was imported from {cilines.__file__}, not from {ROOT / 'src'}")
    return cilines.cli


class _Sink(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


def call(cli, argv: list[str], yardstick: Yardstick | None = None) -> tuple[float, int, str]:
    """One report: (seconds, exit status, standard output). A yardstick
    samples while the report runs, and its own time is not counted."""
    out = io.StringIO()
    busy = yardstick.busy if yardstick else 0.0
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_Sink()), (
        yardstick.running() if yardstick else contextlib.nullcontext()
    ):
        code = cli.main(argv)
    dt = time.perf_counter() - t0 - ((yardstick.busy if yardstick else 0.0) - busy)
    return dt, code, out.getvalue()


def run_pass(cli, wl: Workload, tracer=None) -> tuple[float, list[float], list]:
    """One timed pass over the workload's reports."""
    latencies, outputs = [], []
    t0 = time.perf_counter()
    for i, report in enumerate(wl.reports):
        if tracer is not None:
            tracer.report = i
        dt, code, out = call(cli, report.argv)
        latencies.append(dt)
        outputs.append((code, out))
    return time.perf_counter() - t0, latencies, outputs


def check_pass(wl: Workload, outputs: list) -> list[str]:
    """The failure reason of every report that fails its check. `outputs`
    may be of the first reports only; a group check then runs only when
    all of the group's reports are among them."""
    reasons: dict[int, str] = {}
    for i, (report, (code, out)) in enumerate(zip(wl.reports, outputs)):
        try:
            why = report.check(code, out)
        except (ValueError, KeyError, TypeError) as exc:
            why = f"unreadable report: {exc!r}"
        if why:
            reasons[i] = why
    for group, check in wl.group_checks:
        members = [i for i, r in enumerate(wl.reports) if r.group == group]
        if members[-1] >= len(outputs):
            continue
        try:
            why = check([json.loads(outputs[i][1]) for i in members])
        except (ValueError, KeyError, TypeError) as exc:
            why = f"unreadable report: {exc!r}"
        if why:
            for i in members:
                reasons.setdefault(i, why)
    return [f"{' '.join(wl.reports[i].argv)}: {why}" for i, why in sorted(reasons.items())]


def setup(workload: str, seed: int):
    """Import the program, make the inputs from the seed, run one untimed
    warm-up report. Returns (cli module, workload, work dir, seconds of
    the import and the warm-up, seconds of making the inputs). Making the
    inputs is the benchmark's own work, with its line oracle and problem
    files, so set-up time does not count it."""
    t0 = time.perf_counter()
    cli = load_program()
    imported = time.perf_counter() - t0
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        t0 = time.perf_counter()
        wl = WORKLOADS[workload](seed, work)
        t1 = time.perf_counter()
        call(cli, wl.warmup)
        warm = time.perf_counter() - t1
    except BaseException:
        shutil.rmtree(work, ignore_errors=True)
        raise
    return cli, wl, work, imported + warm, t1 - t0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter, as that interpreter measured it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class SetupSamples:
    """Set-up times: this process's own, then fresh interpreters started
    at even intervals while the reports run, so that their median sees the
    same drift of the machine's speed as the reports do."""

    def __init__(self, workload: str, seed: int, own: float, window: float) -> None:
        self.workload, self.seed = workload, seed
        self.values = [own]
        self.interval = window / (SETUP_SAMPLES - 1)
        self.due = time.perf_counter() + self.interval

    def between(self) -> None:
        """Take a sample if one is due."""
        if len(self.values) < SETUP_SAMPLES and time.perf_counter() >= self.due:
            self._take()

    def _take(self) -> None:
        self.values.append(probe_setup(self.workload, self.seed))
        self.due += self.interval

    def finish(self) -> list[float]:
        while len(self.values) < SETUP_SAMPLES:
            self._take()
        return self.values


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<38} {value:>14.6g} {unit:<6} {note}")


def declared(kind: str, metrics: dict) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, in its JSON form."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    return {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in spec}


def measure(
    args, cli, wl: Workload, own_setup: float, inputs_s: float
) -> tuple[dict, int, list]:
    """Cycle through the reports, in order, until they have run for
    `--seconds` and each at least once. Stopping on time rather than after
    whole passes uses the same measuring time on every run, however long
    a pass takes on the machine at the moment."""
    n = len(wl.reports)
    per_report: list[list[float]] = [[] for _ in range(n)]
    latencies, outputs, failures = [], [], []
    setups = SetupSamples(wl.name, args.seed, own_setup, args.seconds)
    with Yardstick() as yardstick:
        while sum(latencies) < args.seconds or len(latencies) < n:
            i = len(latencies) % n
            dt, code, out = call(cli, wl.reports[i].argv, yardstick)
            per_report[i].append(dt)
            latencies.append(dt)
            outputs.append((code, out))
            if len(outputs) == n:
                failures += check_pass(wl, outputs)
                outputs = []
            setups.between()
    failures += check_pass(wl, outputs)
    setup_samples = setups.finish()
    attempted = len(latencies)
    # every time is scaled to the yardstick's nominal speed
    scale = yardstick.scale()
    # one pass: the sum of each report's mean latency; the reports early in
    # the order ran once more than the rest
    wall = sum(statistics.fmean(lat) for lat in per_report)
    setup = statistics.median(setup_samples)
    metrics = {
        "speed_scale": (scale, "", f"mean of {len(yardstick.samples)} yardstick samples"),
        "setup_s": (
            setup * scale,
            "s",
            f"median of {len(setup_samples)}, {setup:.4f} s unscaled; making the inputs"
            f" took {inputs_s:.3f} s more",
        ),
        "wall_s": (
            wall * scale,
            "s",
            f"{attempted / n:.2f} passes in {sum(latencies):.3f} s, {wall:.4f} s unscaled",
        ),
        "report_p50_ms": (
            1000 * statistics.median(latencies) * scale, "ms", f"of {attempted} reports"
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
    }
    if n >= TAIL_MIN_REPORTS:
        p90 = 1000 * statistics.quantiles(latencies, n=10)[8] * scale
        metrics["report_p90_ms"] = (p90, "ms", f"p90 of {attempted} reports")
    scans = [(r.candidates * len(lat), sum(lat)) for r, lat in zip(wl.reports, per_report)
             if r.candidates]
    if scans:
        rate = sum(c for c, _ in scans) / sum(t for _, t in scans) / scale
        per_pass = sum(r.candidates for r in wl.reports)
        metrics["candidates_per_s"] = (rate, "1/s", f"in enumerate-lines, {per_pass} a pass")
    metrics["failed_ratio"] = (len(failures) / attempted, "", f"{len(failures)} of {attempted}")

    print(f"workload {wl.name}, seed {args.seed}: {attempted} reports, a pass has {n}")
    for name, (value, unit, note) in metrics.items():
        show(name, value, unit, note)
    if n < TAIL_MIN_REPORTS:
        print(f"  report_p90_ms: not reported, a pass has {n} < {TAIL_MIN_REPORTS} reports")
    return declared("end_to_end", metrics), attempted, failures


def measure_traced(args, cli, wl: Workload) -> tuple[dict, int, list]:
    from perfbench.tracer import Tracer, unit

    wall, lat, outputs = run_pass(cli, wl)
    failures = check_pass(wl, outputs)
    with Tracer() as tracer:
        traced_wall, traced_lat, traced_outputs = run_pass(cli, wl, tracer)
    failures += check_pass(wl, traced_outputs)
    silent = tracer.silent(wl.name)
    if silent:
        sys.exit(f"trace self-check: {', '.join(silent)} never ran on workload {wl.name}")
    layers = tracer.layer_metrics()
    layers["trace.overhead_ratio"] = traced_wall / wall
    spans = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write_spans(spans, {"workload": wl.name, "seed": args.seed, "reports": len(wl.reports)})

    print(f"workload {wl.name}, seed {args.seed}: traced pass {traced_wall:.3f} s, "
          f"untraced pass {wall:.3f} s, {len(tracer.spans)} spans in {spans.relative_to(ROOT)}")
    print("  single-threaded closed loop: no layer waits on another, so no wait times")
    for name, value in layers.items():
        show(name, value, unit(name))
    metrics = {name: (value, unit(name)) for name, value in layers.items()}
    return declared("per_layer", metrics), len(lat) + len(traced_lat), failures


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    cli, wl, work, own_setup, inputs_s = setup(args.workload, args.seed)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            metrics, attempted, failures = measure_traced(args, cli, wl)
        else:
            metrics, attempted, failures = measure(args, cli, wl, own_setup, inputs_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in failures[:20]:
        print(f"  FAILED {line}")
    failed = len(failures)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
