"""Time the layers the CLI reaches only through other layers, on a workload's
own operands: its fields, the evaluation matrices of its Gamma at the degrees
its jobs use, and seeded subsets of the kind its CB sweeps build.

    python3 perfbench/layers.py SPEC_JSON

SPEC_JSON holds {"seed": n, "corpus_dir": path, "jobs": [[cmd, file, args], ...]}.
Prints one JSON object: metric name -> [value, unit]. A kernel that helps one field
kind or one matrix shape shows up under that kind or shape alone.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from cicodes import code as code_mod
from cicodes import linalg
from cicodes.cli import _parse_degree_range, build_parser, load_variety_file
from cicodes.geometry import enumerate_projective, variety_points
from cicodes.theorems import ci_setup

KINDS = ("prime", "char2", "oddext")
OPS = ("add", "sub", "mul", "pow")
PAIRS = 20000   # operand pairs per field and op
REPEATS = 5     # timings per measurement; the median is kept
SUBSETS = 12    # seeded CB subsets per cb degree
EVAL_POINTS = 300  # ambient points per polynomial for poly.evaluate


def kind_of(field):
    if field.e == 1:
        return "prime"
    return "char2" if field.p == 2 else "oddext"


def median_time(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cold_matrix(gamma, a):
    """evaluation_matrix as a fresh process first builds it (point rows uncached)."""
    cache_clear = getattr(code_mod._point_row, "cache_clear", None)
    if cache_clear is not None:
        cache_clear()
    return code_mod.evaluation_matrix(gamma, a)


def job_degrees(args, setup):
    """Degrees at which the job evaluates Gamma (or its subsets)."""
    if args.command == "analyze":
        return [args.degree]
    if args.command == "cb":
        return sorted({d for a in _parse_degree_range(args.degrees)
                       for d in (a, setup.s - a) if d >= 0})
    if args.command == "hilbert":
        return list(range(0, len(setup.gamma) + 1))
    return []


def time_gf(fields_ops, rng):
    """ns per op of each field kind, from (field, operand pool, exponents)."""
    totals = {(op, kind): [0.0, 0] for op in OPS for kind in KINDS}
    for field, pool, exponents in fields_ops:
        kind = kind_of(field)
        pool, exponents = sorted(pool), sorted(exponents)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(PAIRS)]
        pow_pairs = [(rng.choice(pool), rng.choice(exponents)) for _ in range(PAIRS)]
        for op in OPS:
            fn = getattr(field, op)
            operands = pow_pairs if op == "pow" else pairs

            def loop(fn=fn, operands=operands):
                for x, y in operands:
                    fn(x, y)

            totals[op, kind][0] += median_time(loop)
            totals[op, kind][1] += len(operands)
    return {f"gf.{op}_ns.{kind}": (t / n * 1e9 if n else 0.0, "ns")
            for (op, kind), (t, n) in totals.items()}


def measure(spec):
    rng = random.Random(spec["seed"])
    parser = build_parser()
    setups = {}
    fields = {}     # file -> (field, operand pool, exponents)
    eval_s = 0.0
    rank_cb, rank_hilbert, rref_distance, poly_eval = [], [], [], []
    for cmd, name, args in spec["jobs"]:
        path = f"{spec['corpus_dir']}/{name}.txt"
        parsed = parser.parse_args([cmd, path, *args])
        if name not in setups:
            vf = load_variety_file(path)
            if cmd == "points":
                setups[name] = None
                gamma = variety_points(vf.polys, vf.m, vf.field)
            else:
                setups[name] = ci_setup(vf.polys, vf.m, vf.field)
                gamma = setups[name].gamma
            pool = {c for pt in gamma for c in pt}
            exponents = {k for p in vf.polys for expo in p.terms for k in expo if k}
            fields[name] = (vf.field, pool, exponents)
            ambient = enumerate_projective(vf.m, vf.field).points
            sample = [rng.choice(ambient) for _ in range(EVAL_POINTS)]
            for poly in vf.polys:
                t = median_time(lambda: [poly.evaluate(pt) for pt in sample], 3)
                poly_eval.append(t / len(sample))
        setup = setups[name]
        if setup is None:
            continue
        degrees = job_degrees(parsed, setup)
        field, pool, exponents = fields[name]
        for a in degrees:
            start = time.perf_counter()
            matrix = cold_matrix(setup.gamma, a)
            eval_s += time.perf_counter() - start
            if len(pool) < 4096:
                pool.update(x for row in matrix.rows[:8] for x in row)
            exponents.update(range(1, a + 1))
        if cmd == "analyze":
            matrix = code_mod.evaluation_matrix(setup.gamma, parsed.degree)
            spanning = [list(col) for col in zip(*matrix.rows)]
            rref_distance.append(median_time(lambda: linalg.rref(spanning, field)))
        elif cmd == "cb":
            n = len(setup.gamma)
            for a in _parse_degree_range(parsed.degrees):
                for _ in range(SUBSETS):
                    mask = rng.randrange(1 << n)
                    sub = setup.gamma.subset_mask(mask)
                    rest = setup.gamma.complement(sub)
                    for part, deg in ((sub, a), (rest, setup.s - a)):
                        if deg < 0 or not part.points:
                            continue
                        rows = code_mod.evaluation_matrix(part, deg).rows
                        rank_cb.append(median_time(lambda: linalg.rank(rows, field)))
        elif cmd == "hilbert":
            n = len(setup.gamma)
            wide = sorted({d for d in (setup.s, setup.s + 1, (setup.s + n) // 2, n - 2)
                           if 0 <= d <= n})
            for a in wide:
                rows = code_mod.evaluation_matrix(setup.gamma, a).rows
                rank_hilbert.append(median_time(lambda: linalg.rank(rows, field), 3))
    metrics = time_gf(fields.values(), rng)
    metrics.update({
        "code.evaluation_matrix_s": (eval_s, "s"),
        "linalg.rank_us.cb": (_mean_us(rank_cb), "us"),
        "linalg.rank_us.hilbert": (_mean_us(rank_hilbert), "us"),
        "linalg.rref_us.distance": (_mean_us(rref_distance), "us"),
        "poly.evaluate_us": (_mean_us(poly_eval), "us"),
    })
    return metrics


def _mean_us(seconds):
    return statistics.fmean(seconds) * 1e6 if seconds else 0.0


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        metrics = measure(json.load(fh))
    print(json.dumps(metrics))
