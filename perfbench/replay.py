"""Run one `cicodes` job in this fresh process with a span per layer call.

    python3 perfbench/replay.py SPANS_JSON <cicodes arguments...>

It wraps the names the CLI (and the layers under it) look up, then runs
`cicodes.cli.main` itself, so the spans time the path the CLI takes and the
stdout and exit code are the CLI's own. When the job ends, the spans and
counters are written to SPANS_JSON. A span is (name, parent index, start,
end); spans stay in memory until then. The benchmark compares this stdout
and exit code with an untraced run of the CLI.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end]
        self._stack = []

    @contextmanager
    def span(self, name):
        record = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, name, on_result=None):
        """Trace every call made through `module.attr`, the name a caller looks up."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, traced)


def field_kind(field):
    if field.e == 1:
        return "prime"
    return "char2" if field.p == 2 else "oddext"


def instrument(tracer, counters):
    """Import the CLI under a span and wrap the layer calls it makes."""
    with tracer.span("cli.startup"):
        from cicodes import cli, cohomology, theorems

    def loaded(vf):
        counters["field_kind"] = field_kind(vf.field)
        counters["ambient_points"] = (vf.field.q ** (vf.m + 1) - 1) // (vf.field.q - 1)

    def scanned(dist):
        counters["codewords_scanned"] += dist.codewords_scanned

    def swept(report):
        mode = "exhaustive" if report.exhaustive else "sampled"
        counters[f"splits_{mode}"] += report.splits_checked

    tracer.wrap(cli, "load_variety_file", "cli.load_variety_file", loaded)
    tracer.wrap(cli, "field_new", "gf.field_new")
    tracer.wrap(cli, "parse_poly", "poly.parse")
    tracer.wrap(cli, "variety_points", "geometry.variety_points")
    tracer.wrap(cli, "validate_ci", "geometry.validate_ci")
    tracer.wrap(cli, "verify_main_theorem", "theorems.verify_main_theorem")
    for module in (cli, theorems):
        tracer.wrap(module, "build_code", "code.build_code")
        tracer.wrap(module, "min_distance", "code.min_distance", scanned)
    tracer.wrap(cli, "verify_cb_all", "theorems.verify_cb_all", swept)
    tracer.wrap(cli, "profile", "cohomology.profile")
    tracer.wrap(cli, "verify_symmetry", "theorems.verify_symmetry")
    tracer.wrap(cli, "is_cb_scheme", "theorems.is_cb_scheme")
    tracer.wrap(cohomology, "sigma", "cohomology.sigma")
    tracer.wrap(theorems, "sigma", "cohomology.sigma")
    return cli, cohomology


def main():
    spans_path = Path(sys.argv[1])
    tracer = Tracer()
    counters = {"codewords_scanned": 0, "splits_exhaustive": 0, "splits_sampled": 0,
                "ambient_points": 0, "field_kind": None}
    cli, cohomology = instrument(tracer, counters)
    code = cli.main(sys.argv[2:])
    sys.stdout.flush()
    info = getattr(cohomology.rank_e, "cache_info", None)
    if info is not None:
        counters["rank_e_hits"] = info().hits
        counters["rank_e_misses"] = info().misses
    spans_path.write_text(json.dumps({"spans": tracer.spans, "counters": counters}))
    return code


if __name__ == "__main__":
    sys.exit(main())
