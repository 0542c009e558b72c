"""Run one benchmark workload of `cicodes` and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of CLI jobs (perfbench/workloads.py), run one
at a time as fresh processes: a closed loop with one client. With --trace 0
it times the job list for about S seconds and prints the end-to-end metrics,
with every job's wall time scaled to a reference host speed that a thread
samples while the jobs run (see HostSampler in harness.py).
With --trace 1 it runs the list once untraced, replays every job once through
the traced layer calls of perfbench/replay.py, times the inner layers on the
workload's own operands (perfbench/layers.py), and prints the per-layer
metrics. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from harness import (
    ROOT, SRC, HostSampler, Tally, check_job, cli_argv, quiet_compile, run_process, sha256,
)
from workloads import CORPUS, TWO_CONIC, WORKLOADS, setup_job

BENCH = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH / "reference.json"
CORPUS_CACHE = BUILD / "corpus"
PROBE_REF_S = 0.0023  # median HostSampler probe on the 2-vCPU host the benchmark was tuned on
RUN_LIMIT_S = 165.0   # a run must exit within 180 s even when every job hangs
SETUP_REPS = 11       # set-up samples per file and run; setup_s sums their medians
FAMILY_LIMIT_S = 60.0
LAYERS_LIMIT_S = 60.0


class Run:
    """One invocation: its deadline, scratch directory and failure tally."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.corpus_dir = workdir / "corpus"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.tally = Tally()
        self.reference = json.loads(REFERENCE.read_text())
        self.outputs = {}  # job id -> (exit code, stdout) of the untraced CLI

    def remaining(self):
        return self.deadline - time.monotonic()

    def launch(self, label, argv, limit_s):
        """Run a process if the deadline allows; None (and a failure) if not."""
        budget = min(limit_s, self.remaining())
        if budget <= 1.0:
            self.tally.record(label, ["not started: run deadline reached"])
            return None
        return run_process(argv, budget, self.workdir)

    def run_job(self, job):
        result = self.launch(job.id, cli_argv(job, self.corpus_dir, self.seed), job.limit_s)
        if result is not None:
            self.tally.record(job.id, check_job(job, result, self.seed, self.reference["jobs"]))
            self.outputs[job.id] = (result.exit_code, result.stdout)
        return result

    def make_corpus(self, names):
        """Write the workload's variety files with `cicodes family`; return their hashes.

        `family` runs once per source tree and corpus definition: its files
        are kept under CORPUS_CACHE/<digest of both> and later runs copy them
        from there. Writing RS q=2^16 builds its field, about 5 s of every
        run otherwise. Every run checks every file against the reference.
        """
        self.corpus_dir.mkdir(parents=True)
        cache = CORPUS_CACHE / sha256((src_digest() + repr(sorted(CORPUS.items()))).encode())[:16]
        hashes = {}
        for name in names:
            path = self.corpus_dir / f"{name}.txt"
            cached = cache / f"{name}.txt"
            if name == "two_conic":
                path.write_text(TWO_CONIC)
            elif cached.is_file():
                shutil.copyfile(cached, path)
            else:
                argv = [sys.executable, "-m", "cicodes.cli", "family", *CORPUS[name],
                        "--out", str(path)]
                result = self.launch(f"family {name}", argv, FAMILY_LIMIT_S)
                if result is None:
                    continue
                if result.exit_code != 0 or not path.is_file():
                    self.tally.record(f"family {name}", [f"exit {result.exit_code}"])
                    continue
                cache.mkdir(parents=True, exist_ok=True)
                partial = cache / f"{name}.txt.{os.getpid()}"
                shutil.copyfile(path, partial)
                os.replace(partial, cached)
            hashes[name] = sha256(path.read_bytes())
            expected = self.reference["corpus"].get(name)
            self.tally.record(f"family {name}", [] if hashes[name] == expected else
                              ["file differs from the reference corpus"])
        return hashes


def sum_of_medians(samples, value):
    """Sum over jobs of the median of value(result) over that job's results."""
    return sum(statistics.median(value(r) for r in results) for results in samples.values())


def measure(run, seconds):
    """Run the set-up samples, then passes of the job list for about `seconds`."""
    workload = run.workload
    rng = random.Random(run.seed)
    samples = defaultdict(list)  # job id -> its results in this run
    setup_samples = samples
    if not workload.jobs_are_setup:
        setup_samples = defaultdict(list)
        for _ in range(SETUP_REPS):
            for name in workload.files:
                result = run.run_job(setup_job(name))
                if result is not None:
                    setup_samples[name].append(result)
    pass_walls, rss = [], []
    start = time.monotonic()
    while True:
        order = list(workload.jobs)
        rng.shuffle(order)
        results = [run.run_job(job) for job in order]
        done = [(job, r) for job, r in zip(order, results) if r is not None]
        for job, r in done:
            samples[job.id].append(r)
            rss.append(r.maxrss_mb)
        if len(done) < len(order):
            break
        pass_walls.append(sum(r.wall_s for r in results))
        elapsed = time.monotonic() - start
        typical = statistics.median(pass_walls)
        if len(pass_walls) >= workload.min_passes and (
                elapsed + typical > seconds or run.remaining() < 2 * typical + 5):
            break
    return samples, setup_samples, pass_walls, rss


def at_reference_speed(result):
    """The job's wall time scaled to the host speed at which PROBE_REF_S was taken."""
    return result.wall_s * PROBE_REF_S / result.probe_s


def timed(run, seconds):
    """End-to-end metrics of the job list, measured for about `seconds`."""
    with HostSampler() as sampler:
        samples, setup_samples, pass_walls, rss = measure(run, seconds)
    for group in (samples, setup_samples):
        for r in (r for results in group.values() for r in results):
            r.probe_s = sampler.median_between(r.start_s, r.start_s + r.wall_s)

    def per_job(group, kind):
        return {key: [getattr(r, kind) for r in results] for key, results in group.items()}

    summary = {
        "passes": len(pass_walls),
        "job_walls_s": per_job(samples, "wall_s"), "job_probes_s": per_job(samples, "probe_s"),
        "setup_walls_s": per_job(setup_samples, "wall_s"),
        "setup_probes_s": per_job(setup_samples, "probe_s"),
        "unscaled_wall_s": sum_of_medians(samples, lambda r: r.wall_s),
        "unscaled_setup_s": sum_of_medians(setup_samples, lambda r: r.wall_s),
        "probe_median_s": statistics.median(probe for _, probe in sampler.probes)
        if sampler.probes else None,
    }
    metrics = {
        # Sums of each job's median: a slow sample of one job does not move them.
        "wall_s": (sum_of_medians(samples, at_reference_speed), "s"),
        "setup_s": (sum_of_medians(setup_samples, at_reference_speed), "s"),
        "peak_rss_mb": (max(rss, default=0.0), "MB"),
        "ok_frac": (1.0 - run.tally.failed / run.tally.attempted, "fraction"),
    }
    return metrics, summary


def traced(run):
    """Per-layer metrics: one untraced pass, one traced replay pass, layer timings."""
    workload = run.workload
    order = list(workload.jobs)
    random.Random(run.seed).shuffle(order)
    untraced = {job.id: run.run_job(job) for job in order}
    traces = []
    traced_wall = 0.0
    for job in order:
        cli = untraced[job.id]
        spans_path = run.workdir / "spans.json"
        argv = [sys.executable, str(BENCH / "replay.py"), str(spans_path),
                *job.argv(run.corpus_dir, run.seed)]
        result = run.launch(f"replay {job.id}", argv, 3 * job.limit_s)
        if result is None:
            continue
        traced_wall += result.wall_s
        problems = []
        if result.timed_out:
            problems.append("replay killed at its time limit")
        elif cli is None or (result.exit_code, result.stdout) != run.outputs.get(job.id):
            problems.append(f"replay output differs from the CLI's: {result.stderr[-300:]!r}")
        run.tally.record(f"replay {job.id}", problems)
        if spans_path.is_file():
            traces.append((job, json.loads(spans_path.read_text())))
            spans_path.unlink()
    spec_path = run.workdir / "layers.json"
    spec_path.write_text(json.dumps({
        "seed": run.seed, "corpus_dir": str(run.corpus_dir),
        "jobs": [[job.cmd, job.file, job.argv(run.corpus_dir, run.seed)[2:]]
                 for job in workload.jobs]}))
    result = run.launch("layers", [sys.executable, str(BENCH / "layers.py"), str(spec_path)],
                        LAYERS_LIMIT_S)
    layer_metrics = {}
    if result is not None:
        ok = result.exit_code == 0
        run.tally.record("layers", [] if ok else [f"layers.py failed: {result.stderr[-300:]!r}"])
        if ok:
            layer_metrics = json.loads(result.stdout.decode().splitlines()[-1])
    untraced_wall = sum(r.wall_s for r in untraced.values() if r is not None)
    cpu = sum(r.cpu_s for r in untraced.values() if r is not None)
    metrics, table = layer_report(traces)
    metrics.update({name: tuple(pair) for name, pair in layer_metrics.items()})
    metrics["cli.cpu_s"] = (cpu, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics, {"self_times": table, "untraced_wall_s": untraced_wall,
                     "spans": [{"job": job.id, **trace} for job, trace in traces]}


SPAN_METRICS = (
    "cli.startup", "cli.load_variety_file", "gf.field_new", "poly.parse",
    "geometry.variety_points", "geometry.validate_ci", "code.build_code",
    "code.min_distance", "theorems.verify_cb_all", "cohomology.profile",
    "cohomology.sigma", "theorems.verify_symmetry", "theorems.is_cb_scheme",
)


def self_times(spans):
    """Each span's duration minus the part covered by its child spans."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_report(traces):
    """Per-layer metrics and a (name -> calls, total, self) table from replay spans."""
    table = defaultdict(lambda: [0, 0.0, 0.0])
    counts = defaultdict(float)
    per_kind = defaultdict(lambda: [0.0, 0])   # kind -> [min_distance s, codewords]
    per_mode = defaultdict(lambda: [0.0, 0])   # exhaustive|sampled -> [s, splits]
    for _, trace in traces:
        spans, counters = trace["spans"], trace["counters"]
        own = self_times(spans)
        dist_s = cb_s = 0.0
        for (name, _, start, end), own_s in zip(spans, own):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += own_s
            if name == "code.min_distance":
                dist_s += own_s
            elif name == "theorems.verify_cb_all":
                cb_s += own_s
            elif name == "geometry.variety_points":
                counts["ambient_points"] += counters["ambient_points"]
        kind = counters["field_kind"]
        per_kind[kind][0] += dist_s
        per_kind[kind][1] += counters["codewords_scanned"]
        # A cb job's degrees share one n and one budget, hence one mode.
        mode = "sampled" if counters["splits_sampled"] else "exhaustive"
        per_mode[mode][0] += cb_s
        per_mode[mode][1] += counters["splits_exhaustive"] + counters["splits_sampled"]
        for key in ("codewords_scanned", "rank_e_hits", "rank_e_misses"):
            counts[key] += counters.get(key, 0)
        counts["splits"] += counters["splits_exhaustive"] + counters["splits_sampled"]
    metrics = {f"{name}_s": (table[name][2] if name in table else 0.0, "s")
               for name in SPAN_METRICS}
    vp_s = table["geometry.variety_points"][2] if "geometry.variety_points" in table else 0.0
    lookups = counts["rank_e_hits"] + counts["rank_e_misses"]
    metrics.update({
        "geometry.points_scanned_per_s": (counts["ambient_points"] / vp_s if vp_s else 0.0,
                                          "1/s"),
        "code.codewords_scanned": (int(counts["codewords_scanned"]), "count"),
        "theorems.splits_checked": (int(counts["splits"]), "count"),
        "cohomology.rank_e_misses": (int(counts["rank_e_misses"]), "count"),
        "cohomology.rank_e_hit_ratio": (counts["rank_e_hits"] / lookups if lookups else 0.0,
                                        "ratio"),
    })
    for kind in ("prime", "char2", "oddext"):
        s, words = per_kind[kind]
        metrics[f"code.us_per_codeword.{kind}"] = (s / words * 1e6 if words else 0.0, "us")
    for mode in ("exhaustive", "sampled"):
        s, splits = per_mode[mode]
        metrics[f"theorems.ms_per_split.{mode}"] = (s / splits * 1e3 if splits else 0.0, "ms")
    return metrics, {name: row for name, row in sorted(table.items())}


def src_digest():
    return sha256(b"".join(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes()
                           for p in sorted(SRC.rglob("*.py"))))


def environment(corpus_hashes):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "src_sha256": src_digest(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "corpus_sha256": corpus_hashes}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "cicodes" / "cli.py").is_file():
        print(f"error: no cicodes sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        quiet_compile()
        run = Run(workload, args.seed, workdir)
        corpus = run.make_corpus(workload.files)
        if args.trace:
            metrics, detail = traced(run)
        else:
            metrics, detail = timed(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = run.tally
    failed_frac = tally.failed / tally.attempted
    env = environment(corpus)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (BUILD / f"spans-{tag}.json").write_text(json.dumps(detail.pop("spans")))
    (BUILD / f"result-{tag}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "env": env, "detail": detail,
         "failures": tally.failures, "metrics": metrics}, indent=1))

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"jobs_attempted={tally.attempted} failed={tally.failed} failed_frac={failed_frac:g}")
    print("env " + json.dumps(env, sort_keys=True))
    for failure in tally.failures:
        print(f"FAILED {failure}")
    if not args.trace:
        print(f"unscaled wall_s = {detail['unscaled_wall_s']} s, "
              f"unscaled setup_s = {detail['unscaled_setup_s']} s, "
              f"median host probe = {detail['probe_median_s']} s "
              f"(reference {PROBE_REF_S} s)")
    if args.trace:
        print(f"{'span':28s} {'calls':>6s} {'total_s':>10s} {'self_s':>10s}")
        for name, (calls, total, own) in detail["self_times"].items():
            print(f"{name:28s} {calls:6d} {total:10.4f} {own:10.4f}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
