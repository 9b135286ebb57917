"""Whole-input fuzz of verify-example: hypothesis draws family spec text
(known and junk names, N from 0 to 20 and the budget edges 64 and 65,
degree lists, c modes, seeds) and a characteristic. Every spec must end,
within the deadline, in a JSON report (exit 0), a ParseError (exit 1) or
another named error (exit 2) other than InvariantViolated, which marks a
bug; nothing may escape main. A report names the family it built, which
must parse to the one asked for. It skips when hypothesis is not installed."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cilines import errors
from cilines.cli import main
from cilines.families import FAMILY_NAMES, parse_family_spec

NAMED_ERRORS = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.ToolkitError)
} - {"ToolkitError", "ParseError", "InvariantViolated"}

names = st.sampled_from(FAMILY_NAMES + ("", "hyp", "hyp-4-7", "HYP-4-6"))
ns = st.integers(0, 20) | st.sampled_from((64, 65))
degrees = st.integers(-1, 8)
options = st.one_of(
    ns.map("N={}".format),
    degrees.map("d={}".format),
    st.lists(degrees, min_size=1, max_size=3).map(lambda ds: "degrees=" + "+".join(map(str, ds))),
    (st.integers(0, 6) | st.sampled_from((64, 65))).map("r={}".format),
    st.sampled_from(("c=symbolic", "c=sampled")),
    st.integers(-3, 2**31).map("seed={}".format),
    st.sampled_from(("c=junk", "N=x", "d=", "degrees=2+", "r", "=")),
)
specs = st.builds(
    lambda name, opts: name + (":" + ",".join(opts) if opts else ""),
    names,
    st.lists(options, max_size=4),
)


@settings(max_examples=60, deadline=2000)
@given(specs, st.sampled_from((0, 2, 3, 5)), st.none() | st.integers(-3, 2**31))
@example("hyp-general:N=0,r=0", 0, None)  # once an IndexError in build_family
@example("hyp-general:N=9,degrees=3+2", 0, None)  # once reported as d=3
def test_verify_example_gives_a_report_or_a_named_error(spec, char, seed):
    argv = ["verify-example", spec, "--char", str(char)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    report = json.loads(out.getvalue())
    if code == 0:
        assert report["command"] == "verify-example"
        assert "verdict" in report
        asked, built = parse_family_spec(spec), parse_family_spec(report["family"])
        assert (built.name, built.n, built.degrees, built.c_mode) == (
            asked.name, asked.n, asked.degrees, asked.c_mode
        )
    elif code == 1:
        assert report["error"] == "ParseError"
    else:
        assert code == 2 and report["error"] in NAMED_ERRORS, report
