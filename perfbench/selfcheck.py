"""Self-check of the benchmark harness; exits 1 if any check fails.

    python3 perfbench/selfcheck.py

Takes a few seconds, on the README's two-conic file. It checks that the
reference outputs pass, that a corrupted reference digest or exit code is
counted as a failure, that a job running past its limit is killed together
with the process it started and counted as failed, that every timed job
gets a host speed probe, that the traced replay prints what the CLI prints, and that run.py refuses to run without sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from harness import ROOT, SRC, check_job, run_process
from run import BENCH, BUILD, Run, timed, traced
from workloads import DEFAULT_SEED, SELFCHECK_JOBS, Job, Workload

SELFCHECK = Workload("selfcheck", "harness self-check", SELFCHECK_JOBS)


def fresh_run(workdir, corrupt=None):
    """A Run over the self-check jobs; `corrupt` edits one job's reference."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(SELFCHECK, DEFAULT_SEED, workdir)
    if corrupt is not None:
        corrupt(run.reference["jobs"][SELFCHECK_JOBS[1].id])
    run.make_corpus(["two_conic"])
    for job in SELFCHECK_JOBS:
        run.run_job(job)
    return run


def is_gone(pid):
    """True when pid has exited (a zombie waiting for its reaper counts)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def check_timeout(workdir):
    """A job past its limit is killed, with its child, and counted as failed."""
    sleeper = ("import subprocess, sys, time\n"
               "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
               "print(child.pid, flush=True)\n"
               "time.sleep(60)\n")
    start = time.monotonic()
    result = run_process([sys.executable, "-c", sleeper], 1.5, workdir)
    elapsed = time.monotonic() - start
    child = int(result.stdout.split()[0])
    for _ in range(50):
        if is_gone(child):
            break
        time.sleep(0.1)
    job = Job("sleep", "none", (), 1.5, "self-check", ("points",))
    problems = check_job(job, result, DEFAULT_SEED, {})
    return [
        ("sleeper was killed at its limit", result.timed_out and elapsed < 5),
        ("sleeper's own child was killed too", is_gone(child)),
        ("a killed job counts as failed", bool(problems) and "killed" in problems[0]),
    ]


def check_without_sources(workdir):
    """run.py exits non-zero, printing no result, without the program's sources."""
    bare = workdir / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "distance",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    return [("run.py without sources exits non-zero and prints no result",
             proc.returncode != 0 and '"correct"' not in proc.stdout)]


def main():
    workdir = BUILD / f"selfcheck-{os.getpid()}"
    try:
        good = fresh_run(workdir / "good")
        bad_digest = fresh_run(workdir / "digest", lambda ref: ref.update(sha256="0" * 64))
        bad_exit = fresh_run(workdir / "exit", lambda ref: ref.update(exit=1))
        replay = fresh_run(workdir / "replay")
        layer_metrics, detail = traced(replay)
        e2e_metrics, e2e_detail = timed(fresh_run(workdir / "timed"), 0)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        spans = {name for trace in detail["spans"] for name, *_ in trace["spans"]}
        checks = [
            ("reference outputs pass", good.tally.failed == 0 and good.tally.attempted == 4),
            ("a corrupted reference digest raises failed_frac", bad_digest.tally.failed == 1),
            ("a wrong exit code raises failed_frac", bad_exit.tally.failed == 1),
            ("the traced replay prints what the CLI prints", replay.tally.failed == 0),
            ("the replay records a span per layer call",
             {"cli.load_variety_file", "geometry.variety_points", "code.min_distance",
              "cohomology.profile", "geometry.validate_ci"} <= spans),
        ]
        probes = [p for ps in e2e_detail["job_probes_s"].values() for p in ps]
        checks.append(("every timed job has a host speed probe",
                       probes and all(0 < p < 1 for p in probes)))
        for key, metrics in (("end_to_end", e2e_metrics), ("per_layer", layer_metrics)):
            units = {name: unit for name, (_, unit) in metrics.items()}
            checks.append((f"the run prints exactly the {key} metrics of BENCHMARK.json",
                           units == {m["name"]: m["unit"] for m in declared[key]}))
        checks += check_timeout(workdir)
        checks += check_without_sources(workdir)
        failures = good.tally.failures + replay.tally.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    for failure in failures:
        print(f"     {failure}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
