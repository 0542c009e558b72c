"""Command-line interface.

Variety file grammar (line oriented, blanks or tabs after a directive, '#' starts a comment):

    field p=<int> e=<int> [modulus=<c0,c1,...,1>]
    vars m=<int>
    poly <expression>

One `field` and one `vars` line, each key once and no other key.

Exit codes: 0 success, 1 validation failure, 2 parse error, 3 cap exceeded.
A reader that closes stdout early (`cicodes cb ... | head -1`) leaves stderr
empty; the exit is the command's own, or if it had not ended, 1 when `cb`
had already found a violation and 0 otherwise.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import families
from .code import DEFAULT_CAP
from .code import build_code, min_distance  # noqa: F401 (perfbench/replay.py wraps both)
from .cohomology import profile
from .errors import CapExceededError, CICodesError, NonSplitError
from .gf import field_new
from .geometry import check_space, ci_degrees, validate_ci, variety_points
from .poly import parse as parse_poly, poly_text, read_int
from .theorems import (
    cb_certificate,
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
MAX_DEGREES = 10 ** 7  # degrees in one `cb` range


VarietyFile = namedtuple("VarietyFile", "field m polys")


def _header(head, parts, needed, optional=()):
    """A header line's key=value words: the integers of the keys it needs,
    then the texts of its optional keys (None if absent).  Refuses a word
    without '=', a missing or bad integer, then a key the directive does not
    take and a key given twice."""
    bad = [part for part in parts if "=" not in part]
    if bad:
        raise ValueError(f"expected key=value, got {bad[0]!r}")
    pairs = [part.split("=", 1) for part in parts]
    kv = dict(pairs)
    values = [read_int(key, kv.get(key)) for key in needed]
    keys = [key for key, _ in pairs]
    for i, key in enumerate(keys):
        if key not in needed + optional:
            raise ValueError(f"'{head}' takes no key {key!r}")
        if key in keys[:i]:
            raise ValueError(f"'{head}' gives {key}= twice")
    return values + [kv.get(key) for key in optional]


def load_variety_file(path: str) -> VarietyFile:
    field = m = None
    poly_lines = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, rest = (*line.split(None, 1), "")[:2]  # split at the first whitespace run
            if head == "field" and field is None:
                p, e, modulus = _header(head, rest.split(), ("p", "e"), ("modulus",))
                if modulus is not None:
                    modulus = [read_int("modulus", c) for c in modulus.split(",")]
                field = field_new(p, e, modulus)
            elif head == "vars" and m is None:
                (m,) = _header(head, rest.split(), ("m",))
                if m < 1:
                    raise ValueError(f"vars m must be at least 1, got {m}")
            elif head == "poly":
                poly_lines.append(rest)
            elif head in ("field", "vars"):
                raise ValueError(f"more than one {head!r} line")
            else:
                raise ValueError(f"unknown directive {head!r}")
    if field is None or m is None:
        raise ValueError("variety file needs 'field' and 'vars' headers")
    check_space(m, field.q)  # a parsed term holds m + 1 exponents
    polys = [parse_poly(text, m, field) for text in poly_lines]
    return VarietyFile(field, m, polys)


def cmd_points(args) -> int:
    vf = load_variety_file(args.file)
    if len(vf.polys) == vf.m:  # before the cut: a zero polynomial's is all of P^m
        ci_degrees(vf.polys, vf.m)
    gamma = variety_points(vf.polys, vf.m, vf.field)
    # validated before any output, so a refusal leaves stdout empty
    val = validate_ci(vf.polys, gamma) if len(vf.polys) == vf.m else None
    sys.stdout.writelines(" ".join(map(str, pt)) + "\n" for pt in gamma)
    if val is not None:
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
    report = verify_main_theorem(setup, a, cap=args.cap)
    print(report.line())
    if args.emit_matrix:
        for row in report.gen:
            print(" ".join(str(x) for x in row))
    return EXIT_OK


def _parse_degree_range(text: str):
    lo, dots, hi = text.partition("..")
    degrees = range(read_int("degrees", lo), read_int("degrees", hi if dots else lo) + 1)
    if not degrees:
        raise ValueError(f"empty degree range {text!r}")
    return degrees


def cmd_cb(args) -> int:
    degrees = _parse_degree_range(args.degrees)
    if args.budget < 1:
        raise ValueError(f"--budget must be at least 1, got {args.budget}")
    if degrees[MAX_DEGREES:]:  # a slice, as len() overflows
        raise ValueError(f"degrees {args.degrees} lists more than {MAX_DEGREES} degrees")
    vf = load_variety_file(args.file)
    setup = ci_setup(vf.polys, vf.m, vf.field)
    certificate = cb_certificate(setup)
    print(f"seed={args.seed}")
    for a in degrees:
        report = verify_cb_all(setup, a, budget=args.budget, seed=args.seed,
                               certificate=certificate)
        if report.violations:  # set first: `main` returns it if the pipe breaks
            args.code = EXIT_VALIDATION
        print(*report.lines(), sep="\n")
    return args.code


def cmd_hilbert(args) -> int:
    vf = load_variety_file(args.file)
    setup = ci_setup(vf.polys, vf.m, vf.field)
    prof = profile(setup.gamma)
    for line in prof.lines():
        print(line)
    print(f"symmetry={'pass' if verify_symmetry(setup, prof) else 'fail'}")
    print(f"cb_scheme={str(is_cb_scheme(prof)).lower()}")
    return EXIT_OK


def cmd_family(args) -> int:
    m = 1 if args.m is None else args.m
    if args.kind in ("rs", "extended_rs"):
        polys, spec = families.extended_rs(args.q, m)
    elif args.kind in ("rm", "reed_muller"):
        polys, spec = families.reed_muller_ci(args.q, m)
    elif args.kind == "hermitian":
        polys, spec = families.hermitian_ci(args.q)
    else:
        raise ValueError(f"unknown family kind {args.kind!r}")
    if args.m not in (None, spec.m):  # hermitian lies in P^2 whatever --m says
        raise ValueError(f"the {args.kind} family lies in P^{spec.m}: "
                         f"--m must be {spec.m}, got {args.m}")
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


REQUIRED = object()
COMMANDS = {  # command: (handler, positional, {option: (type, default)}); bool: a flag
    "points": (cmd_points, "file", {"--require-ci": (bool, False)}),
    "analyze": (cmd_analyze, "file", {
        "--degree": (int, REQUIRED), "--cap": (int, DEFAULT_CAP), "--emit-matrix": (bool, False),
        "--no-range-check": (bool, False), "--threads": (int, 1)}),  # --threads is ignored
    "cb": (cmd_cb, "file", {
        "--degrees": (str, REQUIRED), "--budget": (int, 10 ** 5), "--seed": (int, 0)}),
    "hilbert": (cmd_hilbert, "file", {}),
    "family": (cmd_family, "kind", {  # kind: rs | rm | hermitian
        "--q": (int, REQUIRED), "--m": (int, None), "--out": (str, None)}),
}


def cmd_help(args) -> int:
    for command, (_, positional, options) in COMMANDS.items():
        words = [command, positional.upper()]
        for name, (kind, default) in options.items():
            word = name if kind is bool else f"{name} {name[2:].upper()}"
            words.append(word if default is REQUIRED else f"[{word}]")
        print("usage: cicodes", *words)
    return EXIT_OK


def parse_args(argv):
    """argv as `command`, its handler `func`, its positional and its options
    (dashes as underscores); a value is the text after `=` or the next word,
    read by `read_int` if an int.  Misuse raises a one-line ValueError."""
    if {"-h", "--help"} & set(argv):
        return SimpleNamespace(command=None, func=cmd_help)
    command, words = (argv or [None])[0], iter(argv[1:])
    if command not in COMMANDS:
        raise ValueError(f"expected a command ({', '.join(COMMANDS)}), got {command!r}")
    func, positional, options = COMMANDS[command]
    values = {positional: REQUIRED, **{name: default for name, (_, default) in options.items()}}
    for word in words:
        name, eq, text = word.partition("=")
        kind = options.get(name, (None,))[0]
        if values[positional] is REQUIRED and not word.startswith("-"):
            values[positional] = word
        elif kind is None or eq and kind is bool:
            raise ValueError(f"{command}: unrecognized argument {word!r}")
        elif kind is bool:
            values[name] = True
        else:
            text = text if eq else next(words, None)
            if text is None:
                raise ValueError(f"{name} needs a value")
            values[name] = read_int(name, text) if kind is int else text
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing:
        raise ValueError(f"{command}: missing {missing[0]}")
    return SimpleNamespace(command=command, func=func, **{
        name.lstrip("-").replace("-", "_"): value for name, value in values.items()})


def build_parser():
    """For callers that parse without running: `.parse_args(argv)`."""
    return SimpleNamespace(parse_args=parse_args)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        args.code = EXIT_OK  # the exit so far, if the reader leaves before the command ends
        args.code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at shutdown
    except BrokenPipeError:  # the reader left early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
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
    return args.code


if __name__ == "__main__":
    sys.exit(main())
