"""Command-line interface.

Variety file grammar (line oriented, '#' starts a comment):

    field p=<int> e=<int> [modulus=<c0,c1,...,1>]
    vars m=<int>
    poly <expression>

Exit codes: 0 success, 1 validation failure, 2 parse error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import re
import sys
from math import comb

from . import families
from .code import DEFAULT_CAP, build_code, min_distance
from .cohomology import profile
from .errors import CapExceededError, CICodesError, NonSplitError
from .gf import field_new
from .geometry import check_space, validate_ci, variety_points
from .poly import parse as parse_poly, poly_text
from .theorems import (
    cb_split_count,
    ci_setup,
    is_cb_scheme,
    verify_cb_all,
    verify_main_theorem,
    verify_symmetry,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_CAP = 3

# evaluation-matrix entries one `analyze`, `cb` or `hilbert` run may build
MAX_MATRIX_ENTRIES = 10 ** 7
# field operations the eliminations of one such run may take (`_check_elimination_work`)
MAX_ELIMINATION_WORK = 10 ** 8


class VarietyFile:
    def __init__(self, field, m, polys):
        self.field = field
        self.m = m
        self.polys = polys


def _parse_kv(parts):
    out = {}
    for part in parts:
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        out[key] = value
    return out


def _header_int(key, value):
    """A header integer; a missing, non-integer or over-long value (more digits
    than Python 3.11+ converts by default) raises a one-line ValueError."""
    if value is None:
        raise ValueError(f"missing {key}=<integer>")
    if not re.fullmatch(r"[+-]?\d{1,4300}", value):
        shown = repr(value[:20]) + ("..." if len(value) > 20 else "")
        raise ValueError(f"{key}={shown} is not an integer of at most 4300 digits")
    return int(value)


def load_variety_file(path: str) -> VarietyFile:
    field = None
    m = None
    poly_lines = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rest = line.partition(" ")
            if head == "field":
                kv = _parse_kv(rest.split())
                modulus = None
                if "modulus" in kv:
                    modulus = [_header_int("modulus", c)
                               for c in kv["modulus"].split(",")]
                field = field_new(_header_int("p", kv.get("p")),
                                  _header_int("e", kv.get("e")), modulus)
            elif head == "vars":
                kv = _parse_kv(rest.split())
                m = _header_int("m", kv.get("m"))
                if m < 1:
                    raise ValueError(f"vars m must be at least 1, got {m}")
            elif head == "poly":
                poly_lines.append(rest)
            else:
                raise ValueError(f"unknown directive {head!r}")
    if field is None or m is None:
        raise ValueError("variety file needs 'field' and 'vars' headers")
    check_space(m, field.q)  # a parsed term holds m + 1 exponents
    polys = [parse_poly(text, m, field) for text in poly_lines]
    return VarietyFile(field, m, polys)


def cmd_points(args) -> int:
    vf = load_variety_file(args.file)
    gamma = variety_points(vf.polys, vf.m, vf.field)
    for pt in gamma:
        print(" ".join(str(c) for c in pt))
    if len(vf.polys) == vf.m:
        val = validate_ci(vf.polys, gamma)
        print(val.line())
        if args.require_ci and not (val.split and val.smooth):
            return EXIT_VALIDATION
    elif args.require_ci:
        print(f"error: expected {vf.m} polynomials, got {len(vf.polys)}",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_analyze(args) -> int:
    vf = load_variety_file(args.file)
    setup = ci_setup(vf.polys, vf.m, vf.field)
    a = args.degree
    if not args.no_range_check and not 1 <= a <= setup.s:
        print(f"error: degree {a} outside [1, {setup.s}] "
              f"(use --no-range-check to override)", file=sys.stderr)
        return EXIT_VALIDATION
    _check_matrix_entries(setup.n, vf.m, [a], f"degree {a}")
    _check_elimination_work(setup.n, vf.m, [(setup.n, a)], f"degree {a}")
    if 1 <= a <= setup.s:
        report = verify_main_theorem(setup, a, cap=args.cap)
        print(report.line())
        code = build_code(setup.gamma, a) if args.emit_matrix else None
    else:
        code = build_code(setup.gamma, a)
        dist = min_distance(code, cap=args.cap)
        singleton = code.n - code.k + 1
        print(f"n={code.n} k={code.k} d={dist.d} bound={setup.s - a + 2} "
              f"singleton={singleton} mds={str(dist.d == singleton).lower()} "
              f"mds_sufficient=false")
    if args.emit_matrix:
        for row in code.gen:
            print(" ".join(str(x) for x in row))
    return EXIT_OK


def _parse_degree_range(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        degrees = range(int(lo), int(hi) + 1)
        if not degrees:
            raise ValueError(f"empty degree range {text!r}")
        return degrees
    return [int(text)]


def _check_matrix_entries(n, m, degrees, what):
    """Refuse the evaluation matrices e_b on n points of P^m, b in `degrees`,
    when their entries sum past MAX_MATRIX_ENTRIES; stops at the first excess."""
    entries = 0
    for b in degrees:
        entries += n * comb(b + m, m) if b >= 0 else 0
        if entries > MAX_MATRIX_ENTRIES:
            raise ValueError(f"{what} would build more than "
                             f"{MAX_MATRIX_ENTRIES} evaluation-matrix entries")


def _check_elimination_work(n, m, jobs, what):
    """Refuse eliminating rows of the e_b on n points of P^m, for the (rows, b)
    in `jobs`, when rows x cols x min(n, cols) sums past MAX_ELIMINATION_WORK:
    a row of e_b has cols = C(b+m, m) entries and meets at most min(n, cols)
    basis rows.  Run after `_check_matrix_entries`, which bounds the degrees."""
    work = 0
    for rows, b in jobs:
        cols = comb(b + m, m) if b >= 0 else 0
        work += rows * cols * min(n, cols)
        if work > MAX_ELIMINATION_WORK:
            raise ValueError(f"{what} would take more than {MAX_ELIMINATION_WORK} "
                             f"field operations to eliminate")


def cmd_cb(args) -> int:
    degrees = _parse_degree_range(args.degrees)
    if args.budget < 1:
        raise ValueError(f"--budget must be at least 1, got {args.budget}")
    vf = load_variety_file(args.file)
    setup = ci_setup(vf.polys, vf.m, vf.field)
    # each degree a builds e_a and e_{s-a} on all n points
    _check_matrix_entries(setup.n, vf.m, (b for a in degrees for b in (a, setup.s - a)),
                          f"degrees {args.degrees}")
    # the walk inserts 2^(n+1) rows over all 2^n splits, else at most n per
    # split, each into the basis of the wider of e_a and e_{s-a}
    n, splits = setup.n, cb_split_count(setup.n, args.budget)
    inserts = 2 * splits if splits == 1 << n else n * splits
    _check_elimination_work(n, vf.m, ((inserts, max(a, setup.s - a)) for a in degrees),
                            f"degrees {args.degrees}")
    print(f"seed={args.seed}")
    bad = False
    for a in degrees:
        report = verify_cb_all(setup, a, budget=args.budget, seed=args.seed)
        for line in report.lines():
            print(line)
        if report.violations:
            bad = True
    return EXIT_VALIDATION if bad else EXIT_OK


def cmd_hilbert(args) -> int:
    vf = load_variety_file(args.file)
    setup = ci_setup(vf.polys, vf.m, vf.field)
    # sigma's scan builds e_0 .. e_{s+1} on a complete intersection
    what = f"hilbert over degrees 0..{setup.s + 1}"
    _check_matrix_entries(setup.n, vf.m, range(0, setup.s + 2), what)
    _check_elimination_work(setup.n, vf.m, ((setup.n, b) for b in range(0, setup.s + 2)),
                            what)
    prof = profile(setup.gamma, len(setup.gamma))
    for line in prof.lines():
        print(line)
    print(f"symmetry={'pass' if verify_symmetry(setup) else 'fail'}")
    print(f"cb_scheme={str(is_cb_scheme(setup.gamma)).lower()}")
    return EXIT_OK


def cmd_family(args) -> int:
    if args.kind in ("rs", "extended_rs"):
        polys, spec = families.extended_rs(args.q, args.m)
    elif args.kind in ("rm", "reed_muller"):
        polys, spec = families.reed_muller_ci(args.q, args.m)
    elif args.kind == "hermitian":
        polys, spec = families.hermitian_ci(args.q)
    else:
        print(f"error: unknown family kind {args.kind!r}", file=sys.stderr)
        return EXIT_PARSE
    field = spec.field
    lines = [f"field p={field.p} e={field.e} "
             f"modulus={','.join(str(c) for c in field.modulus)}",
             f"vars m={spec.m}"]
    lines += [f"poly {poly_text(p)}" for p in polys]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"kind={spec.kind} q={spec.q_base} m={spec.m} "
          f"degrees={','.join(str(d) for d in spec.degrees)} s={spec.s} "
          f"field={field.p}^{field.e}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cicodes",
        description="Evaluation codes on complete intersections: points, "
                    "parameters, Cayley-Bacharach checks, Hilbert tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("points", help="enumerate the point set and validate the CI")
    p.add_argument("file")
    p.add_argument("--require-ci", action="store_true")
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("analyze", help="code parameters and distance bound at one degree")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--emit-matrix", action="store_true")
    p.add_argument("--no-range-check", action="store_true")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility and ignored; the search "
                        "is single-threaded")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cb", help="verify the Cayley-Bacharach identity over subset splits")
    p.add_argument("file")
    p.add_argument("--degrees", required=True, help="single degree or a1..a2")
    p.add_argument("--budget", type=int, default=10 ** 5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cb)

    p = sub.add_parser("hilbert", help="cohomology table, symmetry and CB-scheme flags")
    p.add_argument("file")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("family", help="emit a variety file for a named family")
    p.add_argument("kind", help="rs | rm | hermitian")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_family)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NonSplitError as exc:
        print(f"error: not a split smooth complete intersection ({exc})",
              file=sys.stderr)
        return EXIT_VALIDATION
    except (CICodesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
