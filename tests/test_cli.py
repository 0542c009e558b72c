"""CLI integration: file parsing, reports, exit codes, byte stability."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cicodes
from cicodes import (
    BoundReport,
    CBReport,
    CISetup,
    CIValidation,
    CohomologyProfile,
    DistanceResult,
    EvalCode,
    EvalMatrix,
    FamilySpec,
    PointSet,
    ci_setup,
    enumerate_projective,
    field_new,
    parse,
)
from cicodes.cli import main
from cicodes.errors import WrongCountError

TWO_CONIC = """\
# two conics in P^2 over F_5
field p=5 e=1
vars m=2
poly x1^2 - x0^2
poly x2^2 - x0^2
"""

RM3 = """\
field p=3 e=1
vars m=2
poly x1^3 - x0^2*x1
poly x2^3 - x0^2*x2
"""

NON_SPLIT = """\
field p=3 e=1
vars m=2
poly x1^2
poly x2^2
"""

SINGLE_POINT = """\
field p=3 e=1
vars m=2
poly x1
poly x2
"""


# the 5 x 7 x 7 grid of affine points in P^3 over F_7: 245 points, s = 15
GRID_245 = "field p=7 e=1\nvars m=3\n" + "".join(
    "poly " + " * ".join(f"(x{i} - {c}*x0)" for c in range(k)) + "\n"
    for i, k in ((1, 5), (2, 7), (3, 7)))


def run_child(argv, timeout):
    """`python -m cicodes.cli argv` in a child process, so that a hang fails
    the test by TimeoutExpired instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(cicodes.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "cicodes.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


@pytest.fixture
def write(tmp_path):
    def _write(text, name="variety.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return _write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_points_two_conic(write, capsys):
    code, out = run(capsys, ["points", write(TWO_CONIC)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:4] == ["1 1 1", "1 1 4", "1 4 1", "1 4 4"]
    assert lines[4] == "expected=4 found=4 split=true smooth=true"


@pytest.mark.parametrize("gap", ["\t", " \t "])
def test_whitespace_after_a_directive(write, capsys, gap):
    """A tab, or a run of blanks and tabs, after `field`, `vars` or `poly`
    separates the directive as one space does: the same points and
    validation line."""
    expected = run(capsys, ["points", write(TWO_CONIC), "--require-ci"])
    text = TWO_CONIC.replace("field ", "field" + gap).replace("vars ", "vars" + gap)
    text = text.replace("poly ", "poly" + gap)
    assert run(capsys, ["points", write(text, "gaps.txt"), "--require-ci"]) == expected
    assert expected[0] == 0


def test_points_rm3(write, capsys):
    code, out = run(capsys, ["points", write(RM3)])
    assert code == 0
    assert len(out.strip().splitlines()) == 10  # 9 points + validation


def test_points_require_ci_wrong_count(write, capsys):
    path = write("field p=3 e=1\nvars m=2\npoly x1^2\n")
    code, _ = run(capsys, ["points", path, "--require-ci"])
    assert code == 1


def test_points_require_ci_non_split(write, capsys):
    code, _ = run(capsys, ["points", write(NON_SPLIT), "--require-ci"])
    assert code == 1


def test_parse_error_exit_2(write, capsys):
    code, _ = run(capsys, ["points", write("field p=3 e=1\nvars m=2\npoly x9\n")])
    assert code == 2


def test_deep_nesting_exit_2(write, capsys):
    deep = "(" * 5000 + "x0" + ")" * 5000
    code = main(["points", write(f"field p=5 e=1\nvars m=2\npoly {deep}\npoly x1\n")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_huge_monomial_exponent_parses_fast(write, capsys):
    path = write("field p=5 e=1\nvars m=1\npoly x0^2000000 - x1^2000000\n")
    start = time.perf_counter()
    code, out = run(capsys, ["points", path])
    assert code == 0
    assert time.perf_counter() - start < 5
    assert out.splitlines()[-1].startswith("expected=2000000 found=4 ")


def test_huge_power_of_sum_parses(write, capsys):
    """(x0 + x1)^2000000 over F_5 keeps 8 terms by Frobenius: 680,615 term
    pairs in all, under the bound."""
    code, out = run(capsys, ["points", write("field p=5 e=1\nvars m=1\n"
                                             "poly (x0 + x1)^2000000\n")])
    assert code == 0
    assert out.splitlines()[-1].startswith("expected=2000000 ")


def test_repeated_squaring_bounded_exit_2(write):
    """316 terms over F_2 stay 316 under every squaring, 99,856 pairs each:
    the bound on the whole polynomial stops the 14,000 squarings of
    ^2^14000 after a few."""
    base = " + ".join(f"x0^{i}" for i in range(1, 317))
    proc = run_child(["points", write(f"field p=2 e=1\nvars m=1\n"
                                      f"poly ({base})^{2 ** 14000}\npoly x1\n")],
                     timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: product of ") and proc.stderr.count("\n") == 1


def test_points_cut_work_limit_exit_2(write):
    """1,771 terms at each of the 30,784 points of P^3(F_31) are refused
    before the walk."""
    proc = run_child(["points", write("field p=31 e=1\nvars m=3\n"
                                      "poly (x0 + x1 + x2 + x3)^20\n")], timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: cutting the 30784 points of P^3(F_31) by 1771 terms "
                           "would take more than 1000000 point-term evaluations\n")


@pytest.mark.parametrize("m", ["-1", "0"])
def test_vars_below_1_exit_2(write, capsys, m):
    code = main(["points", write(f"field p=5 e=1\nvars m={m}\npoly x0\n")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: vars m must be at least 1, got {m}\n"


@pytest.mark.parametrize("header, message", [
    ("field p=1000000000000000000000007 e=1\nvars m=2",
     "q = 1000000000000000000000007^1 exceeds 65536"),
    ("field p=5 e=100000000000\nvars m=2", "q = 5^100000000000 exceeds 65536"),
    ("field p=5 e=1\nvars m=1000000000",
     "P^1000000000(F_5) has more than 10000000 points"),
    ("field p=5 e=1\nvars m=100000", "P^100000(F_5) has more than 10000000 points"),
])
def test_huge_header_exit_2(write, capsys, header, message):
    """Refused from the header alone, before a primality test, a power of p
    or a parsed term of m + 1 exponents."""
    start = time.perf_counter()
    code = main(["points", write(f"{header}\npoly x0\npoly x1 - x0\n")])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 5
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


LONG = "9" * 5000  # more digits than Python 3.11+ converts by default


@pytest.mark.parametrize("header, message", [
    pytest.param(f"field p={LONG} e=1\nvars m=2",
                 "p='99999999999999999999'... is not an integer of at most "
                 "4300 digits", id="long-p"),
    pytest.param(f"field p=5 e=1\nvars m={LONG}",
                 "m='99999999999999999999'... is not an integer of at most "
                 "4300 digits", id="long-m"),
    pytest.param("field p=abc e=1\nvars m=2",
                 "p='abc' is not an integer of at most 4300 digits", id="p-abc"),
    pytest.param("field p=3 e=2 modulus=2,x,1\nvars m=2",
                 "modulus='x' is not an integer of at most 4300 digits",
                 id="modulus-x"),
    pytest.param("field e=1\nvars m=2", "missing p=<integer>", id="no-p"),
    pytest.param("field p=5\nvars m=2", "missing e=<integer>", id="no-e"),
    pytest.param("field p=5 e=1\nvars n=1", "missing m=<integer>", id="no-m"),
    pytest.param("field p=5 e=1 modulos=2,1\nvars m=2", "'field' takes no key 'modulos'",
                 id="unknown-field-key"),
    pytest.param("field p=5 e=1\nvars m=2 n=7", "'vars' takes no key 'n'",
                 id="unknown-vars-key"),
    pytest.param("field p=5 e=1 p=7\nvars m=2", "'field' gives p= twice", id="twice-p"),
    pytest.param("field p=5 e=1\nvars m=2\nfield p=7 e=1", "more than one 'field' line",
                 id="two-field-lines"),
    pytest.param("vars m=2\nfield p=5 e=1\nvars m=2", "more than one 'vars' line",
                 id="two-vars-lines"),
    pytest.param("field p=5 e=1\nvars 1", "expected key=value, got '1'", id="vars-no-key"),
    pytest.param("field p=5 e 1\nvars m=2", "expected key=value, got 'e'", id="field-no-equals"),
])
def test_bad_header_integer_exit_2(write, capsys, header, message):
    code = main(["points", write(f"{header}\npoly x0\npoly x1 - x0\n")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("poly, key", [
    pytest.param(f"x1^{LONG} - x0^2*x1", "exponent", id="exponent"),
    pytest.param(f"{LONG}*x1 - x0", "literal", id="literal"),
    pytest.param(f"x{LONG}", "variable index", id="variable"),
])
def test_long_integer_token_exit_2(write, capsys, poly, key):
    """Exponents, literals and variable indices go through the header's
    integer rule, so no Python conversion message reaches the user."""
    code = main(["points", write(f"field p=5 e=1\nvars m=2\npoly {poly}\npoly x2 - x0\n")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: {key}='99999999999999999999'... is not an "
                            f"integer of at most 4300 digits\n")


@pytest.mark.parametrize("degrees", ["0.." + "9" * 5000, "9" * 5000 + "..0", "9" * 5000],
                         ids=["high", "low", "single"])
def test_cb_degrees_over_4300_digits_exit_2(write, capsys, degrees):
    """`--degrees` ends go through the variety file's integer reader."""
    code = main(["cb", write(TWO_CONIC), "--degrees", degrees])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error: degrees='99999999999999999999'... "
                            "is not an integer of at most 4300 digits\n")


# no point lies on `poly 1`, so Gamma is empty, while s = 999,997
EMPTY_GAMMA = "field p=5 e=1\nvars m=2\npoly 1\npoly x1^1000000 - x0^1000000\n"


def test_cb_on_empty_gamma_ends_at_once(write):
    """e_{s-a} at s - a = 999,997 has about 5 * 10^11 monomials: none are
    listed for no points."""
    proc = run_child(["cb", write(EMPTY_GAMMA), "--degrees", "0"], timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "seed=0\na=0 splits=1 exhaustive=true violations=0\n"


def test_analyze_on_empty_gamma_ends_at_once(write):
    """rank e_a on no points is 0 without listing the C(a+2, 2) monomials,
    so degree 100,000 gives the zero code as degree 1 does."""
    proc = run_child(["analyze", write(EMPTY_GAMMA), "--degree", "100000"], timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: the zero code has no nonzero codeword\n"


@pytest.mark.parametrize("text,argv,what", [
    pytest.param(EMPTY_GAMMA, ["cb", "--degrees", "0.." + "9" * 30],
                 "degrees 0.." + "9" * 30, id="cb"),
])
def test_degree_range_on_empty_gamma_exit_2(write, text, argv, what):
    """A `cb` degree range of more than 10^7 degrees is refused by its length
    alone, before any degree is read."""
    proc = run_child([argv[0], write(text), *argv[1:]], timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {what} lists more than 10000000 degrees\n"


def test_hilbert_on_empty_gamma_in_time(write):
    """s = 9,999,997 and an s of 4,000 digits (refused by a count of the
    degrees 0..s+1 before the pass bounded itself): with no points the pass
    inserts nothing, and the symmetry check reads the degrees around
    sigma + 1 and s - sigma - 1 and one between (26.6 s when it walked them all)."""
    for exponent in ("9999999", "9" * 4000):
        proc = run_child(["hilbert", write(EMPTY_GAMMA.replace("1000000", exponent))], timeout=10)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-3:] == ["sigma=-1", "symmetry=pass", "cb_scheme=true"]


# `cicodes.cli` with a sweep that reports one violation per degree
CB_VIOLATION = """\
import sys
from cicodes import cli
from cicodes.theorems import CBReport
cli.verify_cb_all = lambda setup, a, **kw: CBReport(a, 1, ((0, 1, 0),), True, 0)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("launch,code", [(["-m", "cicodes.cli"], 0), (["-c", CB_VIOLATION], 1)],
                         ids=["clean", "violations"])
def test_closed_pipe_keeps_exit_code(write, launch, code):
    """A reader that closes stdout before the report is written, as `| head`
    may, leaves stderr empty and the exit code the command returned.  With
    stdout buffered, as it is by default, the pipe breaks at the last flush."""
    env = dict(os.environ, PYTHONPATH=str(Path(cicodes.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, *launch, "cb", write(RM3), "--degrees", "0..3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    proc.stdout.close()
    try:
        assert proc.wait(timeout=20) == code
        assert proc.stderr.read() == ""
    finally:
        proc.kill()
        proc.stderr.close()


def test_closed_pipe_after_violation_exit_1(write):
    """With stdout unbuffered the pipe breaks inside the degree loop, once
    its reports pass the pipe buffer; a violation already read keeps exit 1."""
    env = dict(os.environ, PYTHONPATH=str(Path(cicodes.__file__).parents[1]),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, "-c", CB_VIOLATION, "cb", write(EMPTY_GAMMA),
                             "--degrees", "0..100000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        assert proc.stdout.readline() == "seed=0\n"
        assert proc.stdout.readline().endswith(" violations=1\n")
        proc.stdout.close()
        assert proc.wait(timeout=20) == 1
        assert proc.stderr.read() == ""
    finally:
        proc.kill()
        proc.stderr.close()


def test_huge_exponent_refused_without_digit_limit(write):
    """With Python's int-to-str digit limit lifted (or absent, before 3.11), a
    200,000-digit exponent is still refused at once, not converted and raised."""
    path = write("field p=5 e=1\nvars m=2\npoly x1^" + "9" * 200_000 + " - x0\npoly x2\n")
    script = ("import sys\n"
              "if hasattr(sys, 'set_int_max_str_digits'):\n"
              "    sys.set_int_max_str_digits(0)\n"
              "from cicodes.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cicodes.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, "points", path],
                          capture_output=True, text=True, env=env, timeout=5)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: exponent='99999999999999999999'... is not an "
                           "integer of at most 4300 digits\n")


@pytest.mark.parametrize("argv", [["points"], ["analyze", "--degree", "1"],
                                  ["cb", "--degrees", "1"], ["hilbert"]])
def test_degree_product_past_4300_digits_exit_2(write, capsys, argv):
    """Two 4,000-digit degrees parse, but their product, the expected point
    count, could not be printed: refused before any output."""
    big = "9" * 4000
    path = write(f"field p=5 e=1\nvars m=2\npoly x1^{big} - x0^{big}\n"
                 f"poly x2^{big} - x0^{big}\n")
    code = main([argv[0], path, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: the product of the degrees has more than 4300 digits\n"


def test_missing_file_exit_2(capsys):
    code, _ = run(capsys, ["points", "/nonexistent/path.txt"])
    assert code == 2


def test_analyze_rm3(write, capsys):
    code, out = run(capsys, ["analyze", write(RM3), "--degree", "3"])
    assert code == 0
    assert out.splitlines()[0] == ("n=9 k=8 d=2 bound=2 singleton=2 "
                                   "mds=true mds_sufficient=true")


def test_analyze_emit_matrix(write, capsys):
    code, out = run(capsys, ["analyze", write(TWO_CONIC), "--degree", "1",
                             "--emit-matrix"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 3  # report + k=3 generator rows
    for row in lines[1:]:
        assert len(row.split()) == 4


@pytest.mark.parametrize("degree,flags", [("1", ()), ("0", ("--no-range-check",))])
def test_analyze_builds_the_code_once(write, capsys, monkeypatch, degree, flags):
    """The report and the emitted generator come from one build, in and out of range."""
    from cicodes import cli, theorems
    calls = []

    def counted(build):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)
        return wrapper

    for module in (cli, theorems):
        monkeypatch.setattr(module, "build_code", counted(module.build_code))
    code, out = run(capsys, ["analyze", write(TWO_CONIC), "--degree", degree,
                             "--emit-matrix", *flags])
    assert code == 0
    assert len(calls) == 1
    in_range = not flags
    assert out.splitlines()[0].endswith(f"mds_sufficient={str(in_range).lower()}")


def test_analyze_range_check(write, capsys):
    code, _ = run(capsys, ["analyze", write(RM3), "--degree", "9"])
    assert code == 1
    code, out = run(capsys, ["analyze", write(RM3), "--degree", "0",
                             "--no-range-check"])
    assert code == 0
    assert "k=1" in out


@pytest.mark.parametrize("degree", [0, 4])
def test_main_theorem_out_of_range_is_analyze(write, capsys, rm3, degree):
    """Outside [1, s] (s = 3 on RM(3,2)) `verify_main_theorem` reports the
    same line as `analyze --no-range-check`, with no MDS claim."""
    from cicodes import verify_main_theorem
    report = verify_main_theorem(rm3, degree)
    code, out = run(capsys, ["analyze", write(RM3), "--degree", str(degree),
                             "--no-range-check"])
    assert code == 0
    assert out == report.line() + "\n"
    assert not report.mds_sufficient


def test_analyze_zero_code_exit_2(write, capsys):
    """Every negative degree gives the zero code, also below -m."""
    for degree in ["-1", "-3", "-5"]:
        code = main(["analyze", write(RM3), "--degree", degree, "--no-range-check"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: the zero code has no nonzero codeword\n"


@pytest.mark.parametrize("family,degree,flags", [
    (("rm", "--q", "3", "--m", "2"), "3000", ("--no-range-check",)),  # 9 x 4,504,501
    (("rm", "--q", "3", "--m", "2"), "100000", ("--no-range-check",)),
    (("rs", "--q", "4096"), "2500", ()),  # in range: 4,096 points x 2,501 columns
])
def test_analyze_work_limit_exit_2(capsys, tmp_path, family, degree, flags):
    path = str(tmp_path / "variety.txt")
    assert main(["family", *family, "--out", path]) == 0
    capsys.readouterr()
    code = main(["analyze", path, "--degree", degree, *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: degree {degree} would build more than "
                            f"10000000 evaluation-matrix entries\n")
    if flags:  # the range check still comes first
        assert main(["analyze", path, "--degree", degree]) == 1


def test_analyze_cap_exceeded(write, capsys):
    code, _ = run(capsys, ["analyze", write(RM3), "--degree", "3", "--cap", "10"])
    assert code == 3


def test_analyze_cap_0_exit_3(write, capsys):
    code = main(["analyze", write(TWO_CONIC), "--degree", "1", "--cap", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: enumeration needs 31 words, cap is 0\n"


@pytest.mark.parametrize("command", [["analyze", "--degree", "1"],
                                     ["cb", "--degrees", "0"], ["hilbert"]])
def test_non_split_message(write, capsys, command):
    code = main([command[0], write(NON_SPLIT), *command[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: not a split smooth complete intersection "
                            "(expected=4 found=1 split=false smooth=false)\n")


@pytest.mark.parametrize("command", [["points"], ["points", "--require-ci"], ["hilbert"],
                                     ["analyze", "--degree", "1"], ["cb", "--degrees", "0"]])
def test_zero_polynomial_exit_2(write, capsys, command):
    """Its degree -1 would give expected=-1: refused before any output."""
    code = main([command[0], write("field p=5 e=1\nvars m=1\npoly 0\n"), *command[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: the zero polynomial cuts out no hypersurface\n"


def test_zero_polynomial_refused_before_the_cut(write, capsys, monkeypatch):
    """`points` with fewer than m polynomials prints the cut of a zero one;
    with m, on P^2(F_997), whose 995,007 points the cut would walk first,
    `points` and `ci_setup` refuse it without calling variety_points."""
    code, out = run(capsys, ["points", write("field p=5 e=1\nvars m=2\npoly 0\n")])
    assert code == 0
    assert out.splitlines() == [" ".join(map(str, pt))
                                for pt in enumerate_projective(2, field_new(5, 1))]

    def never(*args):
        raise AssertionError("variety_points was called")

    for module in (cicodes.cli, cicodes.theorems):
        monkeypatch.setattr(module, "variety_points", never)
    text = "field p=997 e=1\nvars m=2\npoly 0\npoly 0\n"
    for argv in (["points"], ["points", "--require-ci"], ["hilbert"]):
        assert main([argv[0], write(text), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the zero polynomial cuts out no hypersurface\n"
    f997 = field_new(997, 1)
    with pytest.raises(WrongCountError, match="^the zero polynomial cuts out no hypersurface$"):
        ci_setup([parse("0", 2, f997)] * 2, 2, f997)


def test_analyze_non_split(write, capsys):
    code, _ = run(capsys, ["analyze", write(NON_SPLIT), "--degree", "1"])
    assert code == 1


def test_cb_two_conic(write, capsys):
    code, out = run(capsys, ["cb", write(TWO_CONIC), "--degrees", "0..3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "seed=0"
    assert len(lines) == 5
    for a, line in enumerate(lines[1:]):
        assert line == f"a={a} splits=16 exhaustive=true violations=0"


# three points of P^1 over F_5: their 2^3 = 8 splits are no more than 2n + 2
THREE_POINTS = "field p=5 e=1\nvars m=1\npoly x1^3 - x0^2*x1\n"


@pytest.mark.parametrize("budget", ["1", "7", "8"])
def test_cb_sample_of_every_split_is_exhaustive(write, capsys, budget):
    """Below 2^3 the budget still asks for max(budget, 2n + 2) = 8 masks, all
    of them, so each report counts 8 splits and says they are exhaustive."""
    argv = ["cb", write(THREE_POINTS), "--degrees", "0..2", "--budget", budget]
    assert run(capsys, argv) == (0, "seed=0\n" + "".join(
        f"a={a} splits=8 exhaustive=true violations=0\n" for a in range(3)))


@pytest.mark.parametrize("degrees", ["5..2", "3..2", "0..-1"])
def test_cb_empty_degree_range_exit_2(write, capsys, degrees):
    code = main(["cb", write(TWO_CONIC), "--degrees", degrees])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: empty degree range {degrees!r}\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cb_budget_below_1_exit_2(write, capsys, budget):
    code = main(["cb", write(TWO_CONIC), "--degrees", "1", "--budget", budget])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --budget must be at least 1, got {budget}\n"


def test_cb_degree_range_refused_before_the_file(capsys, tmp_path):
    """More than 10^7 degrees are refused from argv alone: the missing file is
    never opened, as a large one would never be cut."""
    code = main(["cb", str(tmp_path / "missing.txt"), "--degrees", "0..100000000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: degrees 0..100000000 lists more than 10000000 degrees\n"


@pytest.mark.parametrize("family,degrees", [
    (("rm", "--q", "3", "--m", "2"), "0..100000000"),  # 9 points, a huge range
    (("rs", "--q", "4096"), "1"),  # 4,096 points: the pass may hold 4,096^2 entries
])
def test_cb_work_limit_exit_2(capsys, tmp_path, family, degrees):
    path = str(tmp_path / "variety.txt")
    assert main(["family", *family, "--out", path]) == 0
    capsys.readouterr()
    code = main(["cb", path, "--degrees", degrees, "--budget", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: the product pass may hold 4096^2 > 10000000 entries\n"
                            if family[0] == "rs" else
                            f"error: degrees {degrees} lists more than 10000000 degrees\n")


@pytest.mark.parametrize("family,s", [(("rm", "--q", "7", "--m", "2"), 11),
                                      (("rs", "--q", "127"), 125)], ids=["rm7_2", "rs127"])
def test_cb_over_the_whole_window_in_time(capsys, tmp_path, family, s):
    """`cb --degrees 0..s` on RM(7,2) (49 points) and extended RS over F_127:
    one certificate answers every degree, from a product pass that bounds
    itself, and no degree is walked.  A child process, so that a hang fails
    by its timeout."""
    path = str(tmp_path / "variety.txt")
    assert main(["family", *family, "--out", path]) == 0
    capsys.readouterr()
    proc = run_child(["cb", path, "--degrees", f"0..{s}"], timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["seed=0", *(
        f"a={a} splits=100000 exhaustive=false violations=0" for a in range(s + 1))]


def test_cb_long_range_in_time(write):
    """100,001 degrees on RM(3,2), whose e_a past degree 3 the certificate
    never builds, so the work check counts none of them."""
    proc = run_child(["cb", write(RM3), "--degrees", "0..100000"], timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["seed=0", *(
        f"a={a} splits=512 exhaustive=true violations=0" for a in range(100001))]


@pytest.mark.parametrize("argv,lines", [(["hilbert"], 15), (["cb", "--degrees", "0..3"], 5)],
                         ids=["hilbert", "cb"])
def test_a_run_makes_the_pass_once(write, capsys, monkeypatch, argv, lines):
    """A `hilbert` or `cb` run makes `profile`'s product pass once: its profile
    hands C_sigma to `is_cb_scheme`.  The pass is counted under every name a
    `cicodes` module holds it by, so a second pass made through an imported
    name counts too."""
    from cicodes import cohomology
    passes, real = [], cohomology.profile

    def counted(gamma):
        passes.append(len(gamma))
        return real(gamma)

    for name, module in list(sys.modules.items()):
        if name.startswith("cicodes") and getattr(module, "profile", None) is real:
            monkeypatch.setattr(module, "profile", counted)
    code, out = run(capsys, [argv[0], write(RM3), *argv[1:]])
    assert (code, len(out.splitlines())) == (0, lines)
    assert passes == [9]


def test_cb_non_split_gate(write, capsys):
    code, _ = run(capsys, ["cb", write(NON_SPLIT), "--degrees", "0..2"])
    assert code == 1


def test_hilbert_rm3(write, capsys):
    code, out = run(capsys, ["hilbert", write(RM3)])
    assert code == 0
    assert "sigma=3" in out
    assert "symmetry=pass" in out
    assert "cb_scheme=true" in out


@pytest.mark.parametrize("q", ["4096", "6561"])
def test_hilbert_work_limit_exit_2(capsys, tmp_path, q):
    """The product pass on q points may hold q^2 > 10^7 entries, so it refuses
    the run before its first product and before any output.  A child process
    with a timeout keeps a hang from stalling the suite."""
    path = str(tmp_path / "variety.txt")
    assert main(["family", "rs", "--q", q, "--out", path]) == 0
    capsys.readouterr()
    proc = run_child(["hilbert", path], timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: the product pass may hold {q}^2 > 10000000 entries\n"


def test_product_pass_counts_its_work(capsys, tmp_path, monkeypatch):
    """The pass adds n * (|basis| + 1) at each insert, and refuses with one
    line at the insert that takes the count past MAX_ELIMINATION_WORK, also
    through `hilbert`, which then prints nothing; n^2 past
    MAX_MATRIX_ENTRIES is refused before the first product."""
    from cicodes import cohomology
    from cicodes.cli import load_variety_file
    from cicodes.errors import SpaceTooLargeError
    path = str(tmp_path / "rm7_2.txt")
    assert main(["family", "rm", "--q", "7", "--m", "2", "--out", path]) == 0
    vf = load_variety_file(path)
    gamma = ci_setup(vf.polys, vf.m, vf.field).gamma
    counts, insert = [], cohomology.insert

    def counted(basis, row, field):
        counts.append(len(row) * (len(basis) + 1))
        return insert(basis, row, field)

    monkeypatch.setattr(cohomology, "insert", counted)
    ranks = cohomology.profile(gamma).ranks
    monkeypatch.setattr(cohomology, "MAX_ELIMINATION_WORK", sum(counts))
    assert cohomology.profile(gamma).ranks == ranks  # at the limit, not past it
    monkeypatch.setattr(cohomology, "MAX_ELIMINATION_WORK", 10 ** 4)
    with pytest.raises(SpaceTooLargeError) as refusal:
        cohomology.profile(gamma)
    assert str(refusal.value) == ("the product pass on 49 points passed 10000 "
                                  "field operations at degree 5")
    capsys.readouterr()
    assert main(["hilbert", path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {refusal.value}\n")
    monkeypatch.setattr(cohomology, "MAX_MATRIX_ENTRIES", 48 ** 2)
    with pytest.raises(SpaceTooLargeError) as refusal:
        cohomology.profile(gamma)
    assert str(refusal.value) == "the product pass may hold 49^2 > 2304 entries"


@pytest.mark.parametrize("family,argv,what", [
    (("rs", "--q", "3125"), ["hilbert"], "degree 252"),  # 3,125^2 entries, within the limit
    (("rs", "--q", "3125"), ["cb", "--degrees", "1"], "degree 252"),
    (("rs", "--q", "4096"), ["analyze", "--degree", "2000"], "degree 2000"),  # 1.6 * 10^10
])
def test_elimination_work_limit_exit_2(capsys, tmp_path, family, argv, what):
    """Field operations past 10^8 are refused before any output: counted by
    the product pass of `hilbert` and `cb` at the insert that passes them (at
    `what`), and predicted for `analyze`'s elimination of e_a."""
    path = str(tmp_path / "variety.txt")
    assert main(["family", *family, "--out", path]) == 0
    capsys.readouterr()
    proc = run_child([argv[0], path, *argv[1:]], timeout=8)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: {what} would take more than 100000000 "
                           f"field operations to eliminate\n" if argv[0] == "analyze" else
                           f"error: the product pass on 3125 points passed 100000000 "
                           f"field operations at {what}\n")


# all of P^1(F_127): x0 = 0 at one point, so the pass restarts its basis at each degree
P1_F127 = "field p=127 e=1\nvars m=1\npoly x0^127*x1 - x0*x1^127\n"


@pytest.mark.parametrize("text,family,sigma", [
    (GRID_245, None, 15),  # 2.6 * 10^7
    (None, ("rs", "--q", "512"), 510),  # 6.7 * 10^7
    (P1_F127, None, 126),  # 4.5 * 10^7
], ids=["grid245", "rs512", "p1_f127"])
def test_hilbert_from_the_pass_in_time(capsys, write, text, family, sigma):
    """Inputs whose product pass counts less than 10^8 field operations end
    in a fresh process, though a count of per-degree eliminations refused the
    grid and RS q=512."""
    path = write(text or "")
    if family:  # in place of the empty file
        assert main(["family", *family, "--out", path]) == 0
        capsys.readouterr()
    proc = run_child(["hilbert", path], timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-3:] == [f"sigma={sigma}", "symmetry=pass", "cb_scheme=true"]


@pytest.mark.parametrize("text,hi,budget,splits", [
    (GRID_245, 16, 64, 492),  # 2 * 245 + 2 sampled splits
    (P1_F127, 126, 100000, 100000),
], ids=["grid245", "p1_f127"])
def test_cb_from_the_pass_in_time(write, text, hi, budget, splits):
    """`cb` over a window that one certificate answers, in a fresh process:
    the grid, refused while its pass was counted as per-degree eliminations,
    and P^1(F_127), the input nearest the pass's limit that ended before."""
    proc = run_child(["cb", write(text), "--degrees", f"0..{hi}", "--budget", str(budget)],
                     timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["seed=0", *(
        f"a={a} splits={splits} exhaustive=false violations=0" for a in range(hi + 1))]


def test_analyze_long_words_in_time(capsys, tmp_path):
    """Extended RS over F_6561 at degree 1 scans q + 1 words of length q: a
    few operations on one packed int each, where a word once cost q field
    adds (4.3 * 10^7 in all).  The child process's timeout turns a
    regression into a failure, not a stall."""
    path = str(tmp_path / "variety.txt")
    assert main(["family", "rs", "--q", "6561", "--out", path]) == 0
    capsys.readouterr()
    proc = run_child(["analyze", path, "--degree", "1", "--no-range-check"], timeout=20)
    assert proc.returncode == 0
    assert proc.stdout == ("n=6561 k=2 d=6560 bound=6560 singleton=6560 mds=true "
                           "mds_sufficient=true\n")


def test_analyze_dimension_2_from_columns(capsys, tmp_path):
    """Extended RS over F_65536 at degree 1 (k = 2) counts its columns on
    each point of P^1, where the scan of q + 1 words of 65,536 lanes took
    24-33 s.  The child's timeout turns a regression into a failure."""
    path = str(tmp_path / "variety.txt")
    assert main(["family", "rs", "--q", "65536", "--out", path]) == 0
    capsys.readouterr()
    proc = run_child(["analyze", path, "--degree", "1", "--no-range-check"], timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("n=65536 k=2 d=65535 bound=65535 singleton=65535 mds=true "
                           "mds_sufficient=true\n")


@pytest.mark.parametrize("degree,line", [
    (3, "n=24 k=10 d=12 bound=6 singleton=15 mds=false mds_sufficient=false"),
    (5, "n=24 k=18 d=4 bound=4 singleton=7 mds=false mds_sufficient=false"),
    (6, "n=24 k=21 d=3 bound=3 singleton=4 mds=false mds_sufficient=false"),
    (7, "n=24 k=23 d=2 bound=2 singleton=2 mds=true mds_sufficient=true"),
])
def test_analyze_hermitian_past_the_cap(capsys, tmp_path, degree, line):
    """The Hermitian curve over F_9 at a = 3 and 5..7, whose scans would
    visit 4.4 * 10^8 and 1.9 * 10^16 to 1.1 * 10^21 words: the
    Brouwer-Zimmermann search answers d = 12 at a = 3, after visiting
    2,411,094 words, and d = s - a + 2 above, which a word of that weight
    certifies.  A child process, so that a scan of every projective class
    fails by its timeout."""
    path = str(tmp_path / "variety.txt")
    assert main(["family", "hermitian", "--q", "3", "--out", path]) == 0
    capsys.readouterr()
    proc = run_child(["analyze", path, "--degree", str(degree), "--cap", str(10 ** 30)],
                     timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, line + "\n", "")


@pytest.mark.parametrize("q,degree,timeout", [(4096, 155, 10), (65536, 38, 20)])
def test_analyze_over_cap_refused_before_elimination(capsys, tmp_path, q, degree, timeout):
    """Extended RS over F_4096 at degree 155 and over F_65536 at degree 38
    pass the elimination bound, but k = degree + 1 needs more words than the
    default cap.  `analyze` refuses on the rank of e_a's point rows, which
    stops after k rows, before the RREF of the k x n transpose that builds
    the generator (28 and 63 s on a 2-vCPU host when that came first).  The
    child's timeout turns a regression into a failure, not a stall."""
    path = str(tmp_path / "variety.txt")
    assert main(["family", "rs", "--q", str(q), "--out", path]) == 0
    capsys.readouterr()
    proc = run_child(["analyze", path, "--degree", str(degree)], timeout=timeout)
    assert proc.returncode == 3
    assert proc.stdout == ""
    words = (q ** (degree + 1) - 1) // (q - 1)
    assert proc.stderr == f"error: enumeration needs {words} words, cap is 4194304\n"


def test_hilbert_two_conic(write, capsys):
    code, out = run(capsys, ["hilbert", write(TWO_CONIC)])
    assert code == 0
    assert "sigma=1" in out


def test_hilbert_single_point(write, capsys):
    code, out = run(capsys, ["hilbert", write(SINGLE_POINT)])
    assert code == 0
    assert "sigma=-1" in out


@pytest.mark.parametrize("family,degrees", [
    (("rm", "--q", "7", "--m", "2"), 13), (("rm", "--q", "5", "--m", "2"), 9),
    (("hermitian", "--q", "3"), 9)])
def test_hilbert_eliminates_each_degree_once(capsys, tmp_path, monkeypatch,
                                             family, degrees):
    """One hilbert run builds no evaluation matrix and no code: no
    `matrix_rank`, `point_rows`, `build_code` or `code.rref` call.  Its
    product pass grows C_{a+1} from the rows that entered C_a, so `profile`
    makes at most 1 + m * (n - 1) inserts on these sets, where x_0 = 1 at
    every point; the CB-scheme test reads the pass's last basis, so a run
    makes exactly the inserts of one direct `profile`, and a second run in
    the same process makes as many calls of each."""
    from cicodes import code, cohomology, theorems
    from cicodes.cli import load_variety_file
    path = str(tmp_path / "ci.txt")
    assert main(["family", *family, "--out", path]) == 0
    vf = load_variety_file(path)
    gamma = ci_setup(vf.polys, vf.m, vf.field).gamma
    bound = 1 + vf.m * (len(gamma) - 1)  # 97 on RM(7,2)
    counts = dict.fromkeys(("rank", "point_rows", "build_code", "insert", "rref"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name, key in ((cohomology, "matrix_rank", "rank"),
                              (cohomology, "point_rows", "point_rows"),
                              (code, "point_rows", "point_rows"),
                              (theorems, "build_code", "build_code"),
                              (cohomology, "insert", "insert"), (code, "rref", "rref")):
        monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    assert all(pt[0] == 1 for pt in gamma)
    assert cohomology.profile(gamma).sigma == degrees - 2
    direct = counts["insert"]
    assert 0 < direct <= bound
    counts["insert"] = 0
    capsys.readouterr()
    outputs, inserts = [], []
    for _ in range(2):
        assert main(["hilbert", path]) == 0
        outputs.append(capsys.readouterr().out)
        inserts.append(counts["insert"])
        assert counts == {"rank": 0, "point_rows": 0, "build_code": 0,
                          "insert": inserts[0], "rref": 0}
        counts["insert"] = 0
    assert outputs[0] == outputs[1]
    assert f"sigma={degrees - 2}\n" in outputs[0]
    assert inserts[0] == direct


def test_family_rm(write, capsys, tmp_path):
    out_path = str(tmp_path / "rm.txt")
    code, out = run(capsys, ["family", "rm", "--q", "3", "--m", "2",
                             "--out", out_path])
    assert code == 0
    assert "s=3" in out
    # generated file round-trips through analyze
    code, out = run(capsys, ["analyze", out_path, "--degree", "3"])
    assert code == 0
    assert "d=2" in out


def test_family_rs(capsys):
    code, out = run(capsys, ["family", "rs", "--q", "5", "--m", "2"])
    assert code == 0
    assert "s=3" in out


def test_family_hermitian(write, capsys, tmp_path):
    out_path = str(tmp_path / "herm.txt")
    code, out = run(capsys, ["family", "hermitian", "--q", "2",
                             "--out", out_path])
    assert code == 0
    assert "s=2" in out and "field=2^2" in out
    code, out = run(capsys, ["analyze", out_path, "--degree", "2"])
    assert code == 0
    assert out.splitlines()[0].startswith("n=6 k=5 d=2 bound=2 singleton=2 mds=true")


@pytest.mark.parametrize("kind", ["rm", "rs", "hermitian"])
@pytest.mark.parametrize("q", ["1", "0", "-3"])
def test_family_q_below_2_exit_2(capsys, kind, q):
    code = main(["family", kind, "--q", q, "--m", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: q must be a prime power >= 2, got {q}\n"


@pytest.mark.parametrize("args,message", [
    (("rs", "--q", "4", "--m", "-1"), "m must be at least 1, got -1"),
    (("rs", "--q", "4", "--m", "0"), "m must be at least 1, got 0"),
    (("rm", "--q", "5", "--m", "0"), "m must be at least 1, got 0"),
    (("rm", "--q", "2", "--m", "23"), "P^23(F_2) has more than 10000000 points"),
    (("rs", "--q", "2", "--m", "24"), "P^24(F_2) has more than 10000000 points"),
    (("hermitian", "--q", "3", "--m", "7"),
     "the hermitian family lies in P^2: --m must be 2, got 7"),
    (("hermitian", "--q", "59"), "P^2(F_3481) has more than 10000000 points"),
])
def test_family_m_refused_exit_2(capsys, tmp_path, args, message):
    """An m that the variety-file loader would refuse writes no file."""
    out_path = tmp_path / "variety.txt"
    code = main(["family", *args, "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("kind", ["rm", "rs", "hermitian"])
@pytest.mark.parametrize("q,message", [
    ("1000000007", "q = 1000000007 exceeds 65536"),  # refused before factoring
    ("131072", "q = 131072 exceeds 65536"),
    ("1000", "1000 is not a prime power"),
])
def test_family_q_refused_exit_2(kind, q, message):
    proc = run_child(["family", kind, "--q", q, "--m", "2"], timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_family_hermitian_m_2_is_the_default(capsys):
    outputs = []
    for extra in ([], ["--m", "2"]):
        code = main(["family", "hermitian", "--q", "3", *extra])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_family_unknown_kind(capsys):
    code, _ = run(capsys, ["family", "golay", "--q", "2"])
    assert code == 2


def test_reports_stable_across_threads(write, capsys):
    path = write(RM3)
    outputs = []
    for threads in ("1", "4"):
        code, out = run(capsys, ["analyze", path, "--degree", "2",
                                 "--threads", threads])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_reports_stable_across_runs(write, capsys):
    path = write(TWO_CONIC)
    code1, out1 = run(capsys, ["cb", path, "--degrees", "0..3", "--seed", "0"])
    code2, out2 = run(capsys, ["cb", path, "--degrees", "0..3", "--seed", "0"])
    assert (code1, out1) == (code2, out2)


REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text())


@pytest.mark.parametrize("name, family", [
    ("rm7_2", ["rm", "--q", "7", "--m", "2"]),
    ("rm5_2", ["rm", "--q", "5", "--m", "2"]),
    ("herm3", ["hermitian", "--q", "3"]),
])
def test_hilbert_golden(capsys, tmp_path, name, family):
    """`hilbert` stdout matches the benchmark's recorded bytes."""
    path = tmp_path / f"{name}.txt"
    assert main(["family", *family, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REFERENCE["corpus"][name]
    capsys.readouterr()
    code, out = run(capsys, ["hilbert", str(path)])
    expected = REFERENCE["jobs"][f"hilbert {name}"]
    assert code == expected["exit"] == 0
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        expected["sha256"], expected["bytes"])


@pytest.mark.parametrize("name, family, args", [
    ("rm3_2", ["rm", "--q", "3", "--m", "2"], ["--degrees", "0..3"]),
    ("herm3", ["hermitian", "--q", "3"],
     ["--degrees", "3", "--budget", "2000", "--seed", "{seed}"]),
    ("rm4_2", ["rm", "--q", "4", "--m", "2"], ["--degrees", "2"]),
])
def test_cb_golden(capsys, tmp_path, name, family, args):
    """`cb` stdout matches the benchmark's recorded bytes (the sampled job at
    the recorded seed)."""
    path = tmp_path / f"{name}.txt"
    assert main(["family", *family, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REFERENCE["corpus"][name]
    capsys.readouterr()
    seed = str(REFERENCE["seed"])
    code, out = run(capsys, ["cb", str(path),
                             *(arg.replace("{seed}", seed) for arg in args)])
    expected = REFERENCE["jobs"][" ".join(["cb", name, *args])]
    assert code == expected["exit"] == 0
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        expected["sha256"], expected["bytes"])


@pytest.mark.parametrize("argv", [
    ["analyze", "{f}", "--degree", "x"], ["cb", "{f}"], ["bogus", "{f}"],
    ["hilbert", "{f}", "--frobnicate"], ["points", "{f}", "--require-ci=1"],
    ["analyze", "{f}", "--deg", "1"], ["hilbert", "{f}", "{f}"], ["analyze", "{f}", "--degree"],
    []])
def test_usage_error_is_one_line_exit_2(write, capsys, argv):
    """A bad value, a missing option or positional, an unknown command or
    option, a value given to a flag and an abbreviated option each exit 2
    with one `error:` line on stderr and nothing on stdout."""
    path = write(TWO_CONIC)
    code = main([word.replace("{f}", path) for word in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_negative_degree_range_after_a_space(write, capsys):
    """`--degrees -3..-1` is read as the value of --degrees, as
    `--degrees=-3..-1` is, and reaches the same checks."""
    path = write(TWO_CONIC)
    results = []
    for args in (["--degrees", "-3..-1"], ["--degrees=-3..-1"]):
        code = main(["cb", path, *args])
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][1].startswith("seed=0\na=-3 ")
    code = main(["cb", path, "--degrees", "-1..-3"])
    assert (code, capsys.readouterr().err) == (2, "error: empty degree range '-1..-3'\n")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_exit_0(capsys, flag):
    """-h, also after a command, prints one usage line per command on stdout."""
    for argv in ([flag], ["analyze", flag]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert [line.split()[2] for line in lines] == ["points", "analyze", "cb", "hilbert",
                                                        "family"]
        assert all(line.startswith("usage: cicodes ") for line in lines)
        assert "cicodes analyze FILE --degree DEGREE [--cap CAP]" in captured.out


def test_build_parser_still_parses():
    """`build_parser().parse_args(argv)` returns the namespace the commands
    read, with each option's default."""
    from cicodes.cli import DEFAULT_CAP, build_parser
    args = build_parser().parse_args(["cb", "f.txt", "--degrees", "0..2", "--seed=7"])
    assert (args.command, args.file, args.degrees, args.budget, args.seed) == (
        "cb", "f.txt", "0..2", 10 ** 5, 7)
    args = build_parser().parse_args(["analyze", "--no-range-check", "f.txt", "--degree", "3"])
    assert (args.degree, args.cap, args.no_range_check, args.emit_matrix, args.threads) == (
        3, DEFAULT_CAP, True, False, 1)


def test_cli_import_loads_no_dataclasses():
    """`import cicodes.cli` loads neither `dataclasses` nor the `inspect`
    chain it pulls in, which would cost every CLI process most of the
    package's own import time, nor `argparse`.  `-S` keeps the host's .pth
    files out."""
    env = dict(os.environ, PYTHONPATH=str(Path(cicodes.__file__).parents[1]))
    script = ("import sys, cicodes.cli\n"
              "print(sorted({'argparse', 'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


F5 = field_new(5, 1)
POINTS = ((1, 0, 0), (1, 1, 0))
GAMMA = PointSet(POINTS, 2, F5)
RECORDS = [  # (type, its first field, values of its fields)
    (EvalMatrix, "rows", (((1,), (1,)), 0, 2, F5)),
    (EvalCode, "gamma", (GAMMA, 0, ((1, 1),))),
    (DistanceResult, "d", (2, 1)),
    (CIValidation, "degrees", ((1, 2), 2, 2, True, True)),
    (CohomologyProfile, "gamma", (GAMMA, (1,), ((0, (1, 1)),))),
    (FamilySpec, "kind", ("extended_rs", 5, 2, (1, 5), F5)),
    (CISetup, "gamma", (GAMMA, (1, 2), 0)),
    (CBReport, "degree", (0, 4, (), True, 0)),
    (BoundReport, "degree", (1, 2, 1, 2, 2, 2, True, True, ((1, 1),))),
    (PointSet, "points", (POINTS, 2, F5)),
]


@pytest.mark.parametrize("cls, first, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_result_records_frozen_and_equal_by_fields(cls, first, values):
    """Each result record refuses assignment, to a field or a new name, and
    equals (and hashes as) a second record of the same values, but not one
    whose last field differs."""
    record = cls(*values)
    assert getattr(record, first) == values[0]
    for name in (first, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    twin = cls(*values)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert cls(*values[:-1], "other") != record


def test_point_set_is_its_points():
    """A PointSet's length, iteration and membership are its points', not
    its fields'; equal point sets hash equally."""
    assert len(GAMMA) == 2 and tuple(GAMMA) == POINTS
    assert POINTS[1] in GAMMA and F5 not in GAMMA and 2 not in GAMMA
    assert GAMMA != (POINTS, 2, F5)
    assert GAMMA == GAMMA.subset([0, 1]) and hash(GAMMA) == hash(GAMMA.subset([1, 0]))
    assert GAMMA.subset([0]) != GAMMA
