"""Run `cicodes` jobs as fresh processes and check their outputs.

Each job runs in its own session, so a job that runs past its limit is killed
with its whole process group and leaves nothing behind. Its resource usage is
read with `os.wait4`, one child at a time.
"""

from __future__ import annotations

import hashlib
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def program_env():
    """Environment of every child: the checkout's sources, nothing else."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class ProcResult:
    wall_s: float
    exit_code: int | None  # None when killed at the time limit
    stdout: bytes
    stderr: bytes
    maxrss_mb: float
    cpu_s: float
    start_s: float  # time.perf_counter() at launch
    # Median HostSampler probe while the process ran, when the caller
    # samples the host: the host's speed at the time.
    probe_s: float = float("nan")

    @property
    def timed_out(self):
        return self.exit_code is None


def run_process(argv, limit_s, workdir):
    """Run argv to completion or until limit_s, whichever comes first.

    Wall time runs from launch to exit. On timeout the process group gets
    SIGKILL. Any process the child left in its group is killed too.
    """
    out_path = Path(workdir) / "job.out"
    err_path = Path(workdir) / "job.err"
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill_group(pid):
        with lock:
            if not state["exited"]:
                state["killed"] = True
                _killpg(pid)

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=program_env(), start_new_session=True)
        timer = threading.Timer(max(limit_s, 0.0), kill_group, (proc.pid,))
        timer.start()
        try:
            # Wait without reaping, so the pid cannot be reused before the
            # timer is disarmed and the group is cleaned up.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                state["exited"] = True
            timer.cancel()
            _killpg(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    exit_code = None if state["killed"] else proc.returncode
    result = ProcResult(wall, exit_code, out_path.read_bytes(), err_path.read_bytes(),
                        usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, start)
    out_path.unlink()
    err_path.unlink()
    return result


def host_probe():
    """Seconds this process takes for a fixed piece of pure-Python work."""
    table = list(range(256))
    acc = 0
    start = time.perf_counter()
    for i in range(20_000):
        acc = table[(acc ^ i) & 255] + i % 7
    return time.perf_counter() - start


class HostSampler:
    """Times host_probe() every PERIOD_S seconds in a background thread.

    A shared host's speed drifts on its own, by up to 1.6x within a minute,
    and a long job can run through several phases. The probes run beside the
    jobs (on the other CPU of a 2-CPU host, about 1% of its time) and depend
    on nothing under src/, so they follow the host, not the program. A probe
    holds the GIL, so the harness may see a job's exit up to one probe (about
    2 ms) late, on about 1% of jobs.
    """

    PERIOD_S = 0.2
    MIN_PROBES = 5

    def __init__(self):
        self.probes = []  # (midpoint, seconds), in time order
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(self.PERIOD_S):
            start = time.perf_counter()
            probe = host_probe()
            self.probes.append((start + probe / 2, probe))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def median_between(self, start, end):
        """Median probe in [start, end], widened to the MIN_PROBES nearest its middle."""
        inside = [probe for at, probe in self.probes if start <= at <= end]
        if len(inside) < self.MIN_PROBES:
            middle = (start + end) / 2
            nearest = sorted(self.probes, key=lambda item: abs(item[0] - middle))
            inside = [probe for _, probe in nearest[:self.MIN_PROBES]]
        return statistics.median(inside)


def _killpg(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def cli_argv(job, corpus_dir, seed):
    return [sys.executable, "-m", "cicodes.cli", *job.argv(corpus_dir, seed)]


@dataclass
class Tally:
    """Jobs attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed(self):
        return len(self.failures)


def check_job(job, result, seed, reference):
    """Problems with one job's result; an empty list means it passed.

    `reference` maps job ids to the stdout digest and exit code captured at
    the seed commit. A seeded job is byte-checked only at DEFAULT_SEED,
    since its sample depends on the seed; every other job on every seed.
    """
    if result.timed_out:
        return [f"killed after {result.wall_s:.1f} s (limit {job.limit_s:g} s)"]
    problems = []
    ref = reference.get(job.id)
    if ref is None:
        problems.append("no reference output")
    else:
        if result.exit_code != ref["exit"]:
            problems.append(f"exit {result.exit_code}, expected {ref['exit']}")
        if (not job.seeded or seed == DEFAULT_SEED) and sha256(result.stdout) != ref["sha256"]:
            problems.append("stdout differs from the reference")
    try:
        text = result.stdout.decode()
    except UnicodeDecodeError:
        return problems + ["stdout is not UTF-8"]
    problems += semantic_problems(job, text, seed)
    return problems


def _fields(line):
    return dict(kv.split("=", 1) for kv in line.split() if "=" in kv)


def semantic_problems(job, text, seed):
    """Seed-independent facts the output must show, whatever the seed."""
    kind = job.expect[0]
    lines = text.splitlines()
    if not lines:
        return ["empty stdout"]
    if kind in ("rm", "singleton", "analyze"):
        f = _fields(lines[0])
        try:
            n, k, d, bound = (int(f[key]) for key in ("n", "k", "d", "bound"))
        except (KeyError, ValueError):
            return [f"unparsable report {lines[0]!r}"]
        problems = []
        if not bound <= d <= n - k + 1:
            problems.append(f"d={d} outside [bound={bound}, n-k+1={n - k + 1}]")
        if kind == "rm":
            from cicodes.families import rm_exact_distance
            _, q, m, a = job.expect
            if d != rm_exact_distance(q, m, a):
                problems.append(f"d={d}, RM formula gives {rm_exact_distance(q, m, a)}")
        if kind == "singleton" and d != n - k + 1:
            problems.append(f"d={d} is not the Singleton bound {n - k + 1}")
        return problems
    if kind == "cb":
        if lines[0] != f"seed={seed if job.seeded else DEFAULT_SEED}":
            return [f"first line {lines[0]!r}"]
        reports = [_fields(line) for line in lines if line.startswith("a=")]
        if not reports:
            return ["no a= lines"]
        problems = [f"a={r.get('a')} violations={r.get('violations')}"
                    for r in reports if r.get("violations") != "0"]
        if len(job.expect) > 1:
            budget = str(job.expect[1])
            problems += [f"a={r.get('a')} splits={r.get('splits')}, budget {budget}"
                         for r in reports if r.get("splits") != budget]
        return problems
    if kind == "hilbert":
        return [] if "symmetry=pass" in lines else ["no symmetry=pass line"]
    if kind == "points":
        f = _fields(lines[-1])
        if f.get("split") != "true" or f.get("smooth") != "true":
            return [f"not a split smooth CI: {lines[-1]!r}"]
        if f.get("found") != str(len(lines) - 1):
            return [f"found={f.get('found')} but {len(lines) - 1} points printed"]
        return []
    raise ValueError(f"unknown check {kind!r}")


def quiet_compile():
    """Byte-compile the sources once, as an installed package would be."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL, env=program_env())

