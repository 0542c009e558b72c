"""Capture the reference outputs that the benchmark's checks compare against.

    python3 perfbench/capture.py

Writes perfbench/reference.json: the sha256 of every corpus file and, for
every job of every workload, every set-up job and every self-check job, the
exit code and stdout digest at DEFAULT_SEED. Run it only on a commit whose
outputs are known to be right; the checked-in file was captured at the
commit before the benchmark was added.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from harness import ROOT, SRC, cli_argv, quiet_compile, run_process, sha256
from workloads import CORPUS, DEFAULT_SEED, SELFCHECK_JOBS, TWO_CONIC, WORKLOADS, setup_job

BENCH = Path(__file__).resolve().parent


def main():
    workdir = ROOT / ".bench_build" / "perfbench" / "capture"
    shutil.rmtree(workdir, ignore_errors=True)
    corpus_dir = workdir / "corpus"
    corpus_dir.mkdir(parents=True)
    quiet_compile()
    corpus = {}
    for name, family_args in CORPUS.items():
        path = corpus_dir / f"{name}.txt"
        result = run_process([sys.executable, "-m", "cicodes.cli", "family", *family_args,
                              "--out", str(path)], 120, workdir)
        if result.exit_code != 0:
            raise SystemExit(f"family {name} exited {result.exit_code}")
        corpus[name] = sha256(path.read_bytes())
    (corpus_dir / "two_conic.txt").write_text(TWO_CONIC)
    corpus["two_conic"] = sha256(TWO_CONIC.encode())

    jobs = [job for w in WORKLOADS.values() for job in w.jobs]
    jobs += [setup_job(name) for w in WORKLOADS.values() for name in w.files]
    jobs += list(SELFCHECK_JOBS)
    reference = {}
    for job in jobs:
        if job.id in reference:
            continue
        result = run_process(cli_argv(job, corpus_dir, DEFAULT_SEED), 600, workdir)
        if result.exit_code != 0:
            raise SystemExit(f"{job.id} exited {result.exit_code}: {result.stderr!r}")
        reference[job.id] = {"exit": result.exit_code, "sha256": sha256(result.stdout),
                             "bytes": len(result.stdout), "wall_s": round(result.wall_s, 3)}
        print(f"{job.id}: {result.wall_s:.2f} s, {len(result.stdout)} bytes", flush=True)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True).stdout.strip()
    out = {"captured_at": sha, "seed": DEFAULT_SEED, "corpus": corpus, "jobs": reference}
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    main()
