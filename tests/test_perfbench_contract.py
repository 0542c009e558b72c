"""The benchmark under perfbench/ wraps and imports names of this package;
each must still exist, or `--trace 1` runs and the layer timings break."""

import importlib.util
from pathlib import Path

from cicodes import cli, cohomology, families, theorems

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TWO_CONIC = "field p=5 e=1\nvars m=2\npoly x1^2 - x0^2\npoly x2^2 - x0^2\n"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_wraps_existing_names():
    replay = load("replay")
    modules = (cli, cohomology, theorems)
    saved = [dict(vars(module)) for module in modules]
    try:
        tracer = replay.Tracer()
        replay.instrument(tracer, {"codewords_scanned": 0})
        assert cli.validate_ci is not saved[0]["validate_ci"]
        assert theorems.sigma is not saved[2]["sigma"]
    finally:
        for module, attrs in zip(modules, saved):
            vars(module).update(attrs)
    assert cli.validate_ci is saved[0]["validate_ci"]
    assert not hasattr(cohomology.rank_e, "cache_info")


def test_layers_run_on_every_command(tmp_path):
    layers = load("layers")  # its imports name cli._parse_degree_range, theorems.ci_setup, ...
    for name in ("two_conic", "points_file"):  # a file's first job sets how it is cut
        (tmp_path / f"{name}.txt").write_text(TWO_CONIC)
    jobs = [["points", "points_file", ["--require-ci"]],
            ["analyze", "two_conic", ["--degree", "1"]],
            ["cb", "two_conic", ["--degrees", "0..2"]],
            ["hilbert", "two_conic", []]]
    metrics = layers.measure({"seed": 0, "corpus_dir": str(tmp_path), "jobs": jobs})
    for name in ("linalg.rank_us.cb", "linalg.rank_us.hilbert", "linalg.rref_us.distance"):
        assert metrics[name][0] > 0
    assert callable(families.rm_exact_distance)  # the harness's RM distance check
