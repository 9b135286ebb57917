"""The two workloads: their reports, made from a seed, and the check
each report's output must pass.

A report is one `cilines` command line. Problem files are written into a
work directory; the program reads nothing else the benchmark made.
"""

from __future__ import annotations

import functools
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import fq

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"

# check(exit_status, stdout) -> None when correct, else the reason
Check = Callable[[int, str], "str | None"]


@dataclass
class Report:
    argv: list[str]
    check: Check
    group: str = ""
    candidates: int = 0  # lines of P^N(F_q) an enumerate-lines report scans


@dataclass
class Workload:
    name: str
    reports: list[Report]
    warmup: list[str]
    # pass-level checks over the outputs of one group, as (group, check);
    # a failure marks every report of the group
    group_checks: list[tuple[str, Callable[[list[dict]], "str | None"]]] = field(
        default_factory=list
    )


# -- family ---------------------------------------------------------------------

# (spec, golden file) for the byte-compared char-0 configurations
GOLDENS = (
    ("hyp-4-6", "verify_hyp-4-6_char0.json"),
    ("ci-4-3-P9", "verify_ci-4-3-P9_char0.json"),
    ("quadrics-general:N=7,r=2", "verify_quadrics_N7_r2_char0.json"),
)

# symbolic specs from the golden sizes up to N=16; each runs over chars 0, 2, 3
FAMILY_SPECS = (
    "hyp-4-6",
    "ci-4-3-P9",
    "quadrics-general:N=7,r=2",
    "hyp-general:N=6,d=3",
    "hyp-general:N=7,d=4",
    "hyp-general:N=8,d=5",
    "hyp-general:N=9,d=4",
    "hyp-general:N=10,d=6",
    "hyp-general:N=12,d=8",
    "hyp-general:N=14,d=10",
    "hyp-general:N=16,d=14",
    "hyp-char-not-2:N=6,d=4",
    "hyp-char-not-2:N=9,d=5",
    "hyp-char-not-2:N=12,d=7",
    "mixed-general:N=8,degrees=3+2",
    "mixed-general:N=9,degrees=3+2+2",
    "mixed-general:N=11,degrees=4+3",
    "mixed-general:N=13,degrees=4+3+2",
    "mixed-general:N=16,degrees=5+4+3",
    "quadrics-general:N=8,r=3",
    "quadrics-general:N=10,r=4",
    "quadrics-general:N=12,r=5",
    "quadrics-general:N=14,r=6",
    "quadrics-general:N=16,r=7",
)

# specs run in sampled mode over Q, each SAMPLED_EACH times with seeds from
# the workload seed, so seeds change the values but not the mix of sizes;
# over F_2 and F_3 the few nonzero values often hit a certificate's zeros
SAMPLED_SPECS = (
    "hyp-general:N=8,d=5",
    "hyp-general:N=10,d=6",
    "hyp-general:N=12,d=9",
    "hyp-char-not-2:N=9,d=5",
    "mixed-general:N=9,degrees=3+2+2",
    "mixed-general:N=12,degrees=4+3+2",
)
SAMPLED_EACH = 5


def _expected_pair(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit status {code}"
    rep = json.loads(out)
    n, r = rep["N"], len(rep["degrees"])
    if rep["verdict"] != "SmoothExpectedDim":
        return f"verdict {rep['verdict']}"
    if not rep["jacobian_rank"] == rep["required_rank"] == n + r:
        return f"jacobian rank {rep['jacobian_rank']}, required {rep['required_rank']}"
    if rep["local_dimension"] != n - r - 2:
        return f"local dimension {rep['local_dimension']}"
    return None


def _golden(text: str) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit status {code}"
        return None if out == text else "differs from its golden file"

    return check


def _refusal(error: str) -> Check:
    def check(code: int, out: str) -> str | None:
        got = json.loads(out).get("error")
        return None if code == 2 and got == error else f"exit {code} with {got}, not {error}"

    return check


def family(seed: int, work: Path) -> Workload:
    goldens = {spec: (GOLDEN / name).read_text(encoding="utf-8") for spec, name in GOLDENS}
    reports = []
    for spec in FAMILY_SPECS:
        for char in (0, 2, 3):
            argv = ["verify-example", spec, "--char", str(char)]
            if char == 0 and spec in goldens:
                check = _golden(goldens[spec])
            elif char == 2 and spec.startswith("hyp-char-not-2"):
                check = _refusal("CharTwoForbidden")
            else:
                check = _expected_pair
            reports.append(Report(argv, check))
    rng = random.Random(seed)
    for spec in SAMPLED_SPECS * SAMPLED_EACH:
        seed_arg = str(rng.randrange(10**9))
        argv = ["verify-example", spec + ",c=sampled", "--char", "0", "--seed", seed_arg]
        reports.append(Report(argv, _expected_pair))
    return Workload("family", reports, warmup=reports[0].argv)


# -- lines: the varieties ---------------------------------------------------------


@dataclass(frozen=True)
class Variety:
    label: str
    n: int
    p: int
    forms: tuple
    lines: int  # F_p-lines on it, the same for every change of coordinates
    terms: tuple[int, ...]  # the number of terms each transformed form must have

    def draw(self, rng: random.Random) -> list[fq.Form]:
        """The forms after a random change of coordinates in GL_{N+1}(F_p).

        Restriction to a line costs in proportion to the number of terms,
        so the change of coordinates is redrawn until every form has the
        modal number of terms; every seed then gives an instance of one
        size.
        """
        while True:
            forms = fq.transformed(list(self.forms), self.n, self.p, rng)
            if tuple(len(f) for f in forms) == self.terms:
                return forms


CUBIC_SURFACE_F7 = Variety("cubic surface over F_7", 3, 7, (fq.fermat(3, 3, 7),), 27, (17,))
QUARTIC_THREEFOLD_F3 = Variety(
    "quartic threefold over F_3", 4, 3, (fq.fermat(4, 4, 3),), 40, (17,)
)
CUBIC_THREEFOLD_F5 = Variety("cubic threefold over F_5", 4, 5, (fq.fermat(4, 3, 5),), 51, (28,))
QUADRIC_PAIR_F5 = Variety(
    "two diagonal quadrics in P^4 over F_5",
    4,
    5,
    (fq.diagonal([1, 1, 1, 1, 1], 2, 5), fq.diagonal([0, 1, 2, 3, 4], 2, 5)),
    16,
    (12, 12),
)
# the warm-up of the lines workload
QUADRIC_SURFACE_F3 = Variety(
    "quadric surface over F_3", 3, 3, (fq.diagonal([1, 1, 1, 1], 2, 3),), 8, (7,)
)


def _write(work: Path, name: str, text: str) -> str:
    path = work / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- lines: census reports ----------------------------------------------------------


def _census_check(v: Variety, forms: list[fq.Form]) -> Check:
    """The reported line set must equal the oracle's. The oracle runs at
    the first check, not while the inputs are made."""

    @functools.cache
    def expected() -> set:
        return set(fq.lines_on(forms, v.n, v.p))

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit status {code}"
        rep = json.loads(out)
        got = [tuple(tuple(int(x) for x in row) for row in ln) for ln in rep["lines"]]
        if len(expected()) != v.lines:
            return f"oracle finds {len(expected())} lines on the {v.label}, not {v.lines}"
        if rep["count"] != v.lines or len(got) != v.lines or set(got) != expected():
            return f"{rep['count']} lines, oracle has {v.lines}"
        return None

    return check


def _census(rng: random.Random, work: Path) -> list[Report]:
    """Two line censuses: q >= d, where a point table decides containment,
    and q < d, where only restriction does."""
    reports = []
    for k, v in enumerate((CUBIC_SURFACE_F7, QUARTIC_THREEFOLD_F3)):
        forms = v.draw(rng)
        path = _write(work, f"census-{k}.ci", fq.problem_text(v.p, v.n, forms))
        candidates = fq.gaussian_binomial_2(v.n + 1, v.p)
        reports.append(
            Report(["enumerate-lines", path], _census_check(v, forms), "census", candidates)
        )
    return reports


# -- lines: per-line reports --------------------------------------------------------

# verdict and normal-splitting histograms are projective invariants
CLASSIFY_EXPECTED = {
    CUBIC_THREEFOLD_F5.label: (
        {"SmoothExpectedDim": 30, "NotSmoothOrExcess": 15, "NotInJ": 6},
        {(1, -1): 45, (0, 0): 6},
    ),
    CUBIC_SURFACE_F7.label: ({"SmoothExpectedDim": 27}, {(-1,): 27}),
    QUADRIC_PAIR_F5.label: ({"SmoothExpectedDim": 16}, {(-1,): 16}),
}

# (twist, cover) -> (h0, h1) along a line with T_X|_L = O(2) + O(-1)
CURVE_EXPECTED = {(-1, 2): (4, 2), (0, 3): (7, 2)}


def _classify_line(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit status {code}"
    rep = json.loads(out)
    if not (rep["contained"] and rep["smooth_along_line"]):
        return "line not on X or X singular along it"
    if rep["routes_agree"] is not True:
        return "freeness routes disagree"
    if rep["free"] != (rep["verdict"] == "NotInJ"):
        return f"free={rep['free']} with verdict {rep['verdict']}"
    return None


def _histograms(label: str) -> Callable[[list[dict]], "str | None"]:
    verdicts, splittings = CLASSIFY_EXPECTED[label]

    def check(reps: list[dict]) -> str | None:
        got_v = dict(Counter(r["verdict"] for r in reps))
        got_s = dict(Counter(tuple(r["normal_splitting"]) for r in reps))
        if got_v != verdicts or got_s != splittings:
            return f"{label}: verdicts {got_v}, normal splittings {got_s}"
        return None

    return check


def _curve(expected: tuple[int, int]) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit status {code}"
        rep = json.loads(out)
        got = (rep["h0"], rep["h1"])
        return None if got == expected else f"(h0, h1) = {got}, expected {expected}"

    return check


def _classify(rng: random.Random, work: Path, reports: list, group_checks: list) -> None:
    """classify-line on every F_q-line of three varieties, with lines from
    the oracle, plus curve-check covers along the cubic surface's lines."""
    for k, v in enumerate((CUBIC_THREEFOLD_F5, CUBIC_SURFACE_F7, QUADRIC_PAIR_F5)):
        forms = v.draw(rng)
        lines = fq.lines_on(forms, v.n, v.p)
        if len(lines) != v.lines:
            raise AssertionError(f"oracle finds {len(lines)} lines on the {v.label}")
        for i, line in enumerate(lines):
            moved, a, b = fq.to_chart(forms, line)
            path = _write(work, f"classify-{k}-{i}.ci", fq.problem_text(v.p, v.n, moved, (a, b)))
            reports.append(Report(["classify-line", path], _classify_line, v.label))
            if v is CUBIC_SURFACE_F7:
                for (twist, cover), hh in CURVE_EXPECTED.items():
                    argv = ["curve-check", path, "--twist", str(twist), "--cover", str(cover)]
                    reports.append(Report(argv, _curve(hh), "curve-check"))
        group_checks.append((v.label, _histograms(v.label)))


def lines(seed: int, work: Path) -> Workload:
    """The two censuses, then the per-line reports. The warm-up is a census
    of a quadric surface over F_3 (130 candidate lines)."""
    rng = random.Random(seed)
    reports = _census(rng, work)
    group_checks: list = []
    _classify(rng, work, reports, group_checks)
    v = QUADRIC_SURFACE_F3
    warm = _write(work, "warmup.ci", fq.problem_text(v.p, v.n, v.draw(rng)))
    return Workload("lines", reports, ["enumerate-lines", warm], group_checks)


WORKLOADS = {"family": family, "lines": lines}
