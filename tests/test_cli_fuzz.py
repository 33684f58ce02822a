"""Exit-code fuzz of the command-line interface.

Every call must end in exit 0, 2 or 3 with no escaped exception and no
warning; exit 0 prints no non-finite number, exit 2 prints nothing on
stdout and one ``error:`` line (or argparse usage) on stderr, and exit 3
prints one message line on stderr and, where stdout is JSON, valid JSON.
Arguments are drawn from a pool of edge values (NaN, infinities, signed
zeros, subnormals, values near the float limit) mixed with ordinary numbers.
The search is derandomized and keeps no example database, so runs are
repeatable; the explicit examples reproduce fixed defects and are kept as
regressions.
"""

import contextlib
import io
import json
import re
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gme_lab.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main

EDGE = ("nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e-310", "1e308", "-1e308",
        "1e200", "1e-200")
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def fuzz(examples=60):
    return settings(database=None, derandomize=True, deadline=None,
                    max_examples=examples, suppress_health_check=[HealthCheck.too_slow])


def numbers(lo=None, hi=None):
    """An edge value or a finite float, as the CLI would receive it."""
    ordinary = st.floats(lo, hi, allow_nan=False, allow_infinity=False).map(repr)
    return st.one_of(st.sampled_from(EDGE), ordinary)


def options(**strategies):
    """``--name=value`` arguments; a ``None`` draw leaves the option out."""
    return st.fixed_dictionaries(
        {k: st.none() | s for k, s in strategies.items()}).map(
        lambda d: [f"--{k.replace('_', '-')}={v}" for k, v in d.items()
                   if v is not None])


GRID = dict(p_start=numbers(), p_stop=numbers(), p_steps=st.integers(-1, 5),
            format=st.sampled_from(["csv", "json"]))


def reject_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def check(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:    # argparse rejects the argument list
            code = exc.code
            assert code == EXIT_CONFIG and err.getvalue().startswith("usage: "), argv
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), (argv, code)
    if code == EXIT_OK:
        assert not NON_FINITE.search(out), (argv, out)
    if code == EXIT_CONFIG:
        assert out == "", (argv, out)
        assert err.startswith("usage: ") or (
            err.startswith("error: ") and err.count("\n") == 1), (argv, err)
    if code == EXIT_NUMERICAL:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        if argv[0] == "locc-demo" or "--format=json" in argv:
            json.loads(out, parse_constant=reject_constant)


@fuzz()
@example(n=1100, extra=None, rest=[])
@example(n=1029, extra=3, rest=["--kmax=30"])
@given(n=st.integers(-2, 3000), extra=st.none() | st.integers(-1, 2),
       rest=options(kmax=st.integers(-1, 64), format=GRID["format"]))
def test_thresholds(n, extra, rest):
    argv = ["thresholds", f"--n={n}"] + rest
    if extra is not None:
        argv.append(f"--n-max={n + extra}")
    check(argv)


@fuzz(100)
@example(["--p-start=-1e308", "--p-stop=1e308", "--p-steps=3"])
@example(["--n=2302", "--p-start=1e-310", "--p-stop=1e308", "--p-steps=5"])
@given(options(n=st.integers(-1, 3000), **GRID))
def test_concurrence(rest):
    check(["concurrence"] + rest)


@fuzz(40)
@given(steps=st.integers(-1, 5), rest=options(
    n=st.integers(2, 4), tol=numbers(), p_start=GRID["p_start"], p_stop=GRID["p_stop"],
    format=GRID["format"]))
def test_verify_decomposition(steps, rest):
    # Always set the step count: the default grid has 61 points.
    check(["verify-decomposition", f"--p-steps={steps}"] + rest)


@fuzz()
@given(options(n=st.integers(-1, 8), **GRID))
def test_ppt_scan(rest):
    check(["ppt-scan"] + rest)


@fuzz(100)
@example(["--x=1e-320", "--p-steps=1"])
@example(["--x=1e200", "--y=1e200", "--z=1", "--p-steps=1"])
@example(["--x=1e200", "--y=1e200", "--z=1", "--p-steps=1", "--format=json"])
@example(["--x=1e200", "--y=t", "--z=1", "--p-start=1", "--p-stop=1e200", "--p-steps=3"])
@given(options(mode=st.sampled_from(["triangle", "wedge"]), x=numbers() | st.just("t"),
               y=numbers() | st.just("t"), z=numbers() | st.just("t"), tol=numbers(),
               **GRID))
def test_witness_scan(rest):
    check(["witness-scan"] + rest)


@fuzz(40)
@example(probs=None, rest=["--z=1e-310"])
@example(probs=None, rest=["--x=1e200", "--y=1e200", "--z=1e200"])
@given(probs=st.none() | st.tuples(numbers(0, 1), numbers(0, 1), numbers(0, 1)),
       rest=options(x=numbers(), y=numbers(), z=numbers(), tol=numbers()))
def test_locc_demo(probs, rest):
    # Probabilities are drawn together: one bad value among them masks the rest.
    argv = ["locc-demo"] + rest
    if probs is not None:
        argv += [f"--p{i}={v}" for i, v in enumerate(probs, 1)]
    check(argv)
