"""Fuzzed variety files: every input ends within a deadline, with a
documented exit code and at most one line on stderr."""

import contextlib
import io
import signal

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cicodes.cli import main

DEADLINE_S = 10


class DeadlineExceeded(Exception):
    """Raised by the alarm; the CLI's handlers catch none of its base classes."""


def _alarm(signum, frame):
    raise DeadlineExceeded(f"case ran past {DEADLINE_S} s")


# Header values the loader refuses: not integers, too long, not prime, or a
# q or P^m past its limit.  Some it accepts: "9" as `vars m` over F_5 gives
# a P^9 of 2,441,406 points, which the variety cut refuses by its work.
BAD_INTEGERS = st.sampled_from(
    ["-3", "-1", "0", "1", "4", "9", "abc", "", "+", "-0", "3.0", "2000000",
     "65537", "9" * 30, "9" * 5000])

# (p, e, the largest m drawn): P^m has at most 820 points, or q is large and m = 1.
GOOD_FIELDS = st.sampled_from([
    (2, 1, 3), (3, 1, 3), (5, 1, 3), (7, 1, 3), (2, 2, 3), (3, 2, 3), (2, 3, 3),
    (65521, 1, 1), (2, 16, 1), (3, 8, 1)])

EXPONENTS = st.one_of(st.integers(0, 9).map(str),
                      st.sampled_from(["-1", "2000000", "9" * 30, "x0", "", "(2)"]))

ATOMS = st.one_of(
    st.integers(0, 4).map(lambda i: f"x{i}"),
    st.sampled_from(["w", "x", "x99999999999", "y", "7", "0", "9" * 40, "3.5", "#"]),
)


def _binary(children):
    return st.tuples(children, st.sampled_from(["+", "-", "*", " ", "^"]), children) \
        .map(lambda t: f"{t[0]} {t[1]} {t[2]}")


EXPRESSIONS = st.recursive(
    ATOMS,
    lambda children: st.one_of(
        _binary(children),
        st.tuples(children, EXPONENTS).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(children, EXPONENTS).map(lambda t: f"{t[0]}^{t[1]}"),
        children.map(lambda s: f"-({s})"),
        st.tuples(st.integers(0, 300), children).map(
            lambda t: "(" * t[0] + t[1] + ")" * t[0]),
        children.map(lambda s: s + ")"),
    ),
    max_leaves=8,
)


@st.composite
def split_forms(draw, m, q):
    """For each i = 1..m a product of distinct factors x_i - c*x0: a grid of points."""
    return [" * ".join(f"(x{i} - {c}*x0)" for c in draw(
        st.lists(st.integers(0, q - 1), unique=True, min_size=1, max_size=min(q, 8))))
        for i in range(1, m + 1)]


@st.composite
def variety_files(draw):
    p, e, top = draw(GOOD_FIELDS)
    m = draw(st.integers(1, top))
    field, vars_ = f"field p={p} e={e}", f"vars m={m}"
    broken = draw(st.sampled_from(["none"] * 4 + ["p", "e", "modulus", "m", "missing"]))
    if broken == "p":
        field = f"field p={draw(BAD_INTEGERS)} e={e}"
    elif broken == "e":
        field = f"field p={p} e={draw(BAD_INTEGERS)}"
    elif broken == "modulus":
        coeffs = draw(st.lists(st.one_of(st.integers(-1, 3).map(str), BAD_INTEGERS),
                               max_size=e + 2))
        field += " modulus=" + ",".join(coeffs)
    elif broken == "m":
        vars_ = f"vars m={draw(BAD_INTEGERS)}"
    lines = [field, vars_]
    if broken == "missing":
        lines.pop(draw(st.integers(0, 1)))
    if draw(st.booleans()):
        lines += [f"poly {text}" for text in draw(split_forms(m, p ** e))]
    else:
        lines += [f"poly {text}" for text in draw(st.lists(EXPRESSIONS, max_size=3))]
    if not draw(st.integers(0, 7)):
        lines.append(draw(st.sampled_from(["bogus line", "field", "vars", "# comment",
                                           "field p=3 e=1 extra", "vars m", "poly"])))
    if not draw(st.integers(0, 7)):
        lines = draw(st.permutations(lines))
    return "\n".join(lines) + "\n"


DEGREES = st.one_of(
    st.integers(-3, 8).map(str),
    st.tuples(st.integers(-3, 8), st.integers(-3, 8)).map(lambda t: f"{t[0]}..{t[1]}"),
    st.sampled_from(["0..100000000", "..", "1..", "a..b", "9" * 30]),
)

COMMANDS = st.one_of(
    st.just(["points"]),
    st.just(["points", "--require-ci"]),
    st.tuples(st.integers(-2, 8), st.integers(0, 10 ** 4), st.booleans()).map(
        lambda t: ["analyze", f"--degree={t[0]}", f"--cap={t[1]}"]
        + (["--no-range-check"] if t[2] else [])),
    st.tuples(DEGREES, st.integers(-1, 64)).map(
        lambda t: ["cb", f"--degrees={t[0]}", f"--budget={t[1]}"]),
    st.just(["hilbert"]),
)


# no point lies on `poly 1`, so Gamma is empty, while s = 999,997
EMPTY_GAMMA = "field p=5 e=1\nvars m=2\npoly 1\npoly x1^1000000 - x0^1000000\n"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(text=variety_files(), command=COMMANDS)
# once past the deadline: a cut of P^9(F_5), and sigma's eliminations on the
# 5 x 7 x 7 grid of points in P^3(F_7)
@example(text="field p=5 e=1\nvars m=9\npoly (x1 - 0*x0)\n", command=["points"])
@example(text="field p=7 e=1\nvars m=3\n" + "".join(
    "poly " + " * ".join(f"(x{i} - {c}*x0)" for c in range(k)) + "\n"
    for i, k in ((1, 5), (2, 7), (3, 7))), command=["hilbert"])
# no point on `poly 1`: e_a lists no monomial, and a long degree range is refused
@example(text=EMPTY_GAMMA, command=["analyze", "--degree=100000", "--cap=0"])
@example(text=EMPTY_GAMMA, command=["cb", "--degrees=0.." + "9" * 30, "--budget=1"])
def test_fuzzed_variety_file_ends_cleanly(tmp_path, text, command):
    path = tmp_path / "variety.txt"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
