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
from cicodes.cli import main

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


def test_huge_power_of_sum_exit_2(write, capsys):
    code = main(["points", write("field p=5 e=1\nvars m=1\npoly (x0 + x1)^2000000\n")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: product of ")
    assert captured.err.count("\n") == 1


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
])
def test_bad_header_integer_exit_2(write, capsys, header, message):
    code = main(["points", write(f"{header}\npoly x0\npoly x1 - x0\n")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_analyze_range_check(write, capsys):
    code, _ = run(capsys, ["analyze", write(RM3), "--degree", "9"])
    assert code == 1
    code, out = run(capsys, ["analyze", write(RM3), "--degree", "0",
                             "--no-range-check"])
    assert code == 0
    assert "k=1" in out


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
    (("rs", "--q", "4096"), "2500", ()),  # in range: 4,097 points x 2,501 columns
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


@pytest.mark.parametrize("family,degrees", [
    (("rm", "--q", "3", "--m", "2"), "0..100000000"),  # 9 points, a huge range
    (("rs", "--q", "4096"), "1"),  # 4,097 points, e_{s-1} has 4,094 columns
])
def test_cb_work_limit_exit_2(capsys, tmp_path, family, degrees):
    path = str(tmp_path / "variety.txt")
    assert main(["family", *family, "--out", path]) == 0
    capsys.readouterr()
    code = main(["cb", path, "--degrees", degrees, "--budget", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: degrees {degrees} would build more than "
                            f"10000000 evaluation-matrix entries\n")


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
    """sigma's scan over e_0 .. e_{s+1} on q + 1 points is refused before any
    output.  A child process with a timeout keeps a hang from stalling the suite."""
    path = str(tmp_path / "variety.txt")
    assert main(["family", "rs", "--q", q, "--out", path]) == 0
    capsys.readouterr()
    proc = run_child(["hilbert", path], timeout=60)
    s = int(q) - 2
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: hilbert over degrees 0..{s + 1} would build "
                           f"more than 10000000 evaluation-matrix entries\n")


@pytest.mark.parametrize("family,argv,what", [
    (None, ["hilbert"], "hilbert over degrees 0..16"),  # 2.7 * 10^8
    (None, ["cb", "--degrees", "0..16", "--budget", "64"], "degrees 0..16"),  # 2.3 * 10^11
    (("rs", "--q", "4096"), ["analyze", "--degree", "2000"], "degree 2000"),  # 1.6 * 10^10
])
def test_elimination_work_limit_exit_2(capsys, write, family, argv, what):
    """Within the entry limit, rows x cols x min(n, cols) past 10^8 is refused
    before any output."""
    path = write(GRID_245)
    if family:  # in place of the grid
        assert main(["family", *family, "--out", path]) == 0
        capsys.readouterr()
    proc = run_child([argv[0], path, *argv[1:]], timeout=8)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"error: {what} would take more than 100000000 "
                           f"field operations to eliminate\n")


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

def test_hilbert_two_conic(write, capsys):
    code, out = run(capsys, ["hilbert", write(TWO_CONIC)])
    assert code == 0
    assert "sigma=1" in out


def test_hilbert_single_point(write, capsys):
    code, out = run(capsys, ["hilbert", write(SINGLE_POINT)])
    assert code == 0
    assert "sigma=-1" in out


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
