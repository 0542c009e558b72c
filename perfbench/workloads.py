"""The benchmark's corpus and workloads: fixed lists of `cicodes` CLI jobs.

Every job runs as a fresh `cicodes` process, because `rank_e` and
`_point_row` are process-global caches: a long-lived process would time warm
caches that no CLI user sees. The workload seed reaches the program only as
the `--seed` of sampled `cb` jobs; it also shuffles the job order.

Jobs that exit 3 (distance cap exceeded) at the seed commit are left out on
purpose, e.g. Hermitian q=3 at a >= 3 and RS q=16 at a >= 5: a faster
distance search would turn them into answers, and a changed output would
count as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass

# The two-conic example from the README (P^2 over F_5, Gamma = 4 points).
# It is the self-check's corpus; every other file comes from `cicodes family`.
TWO_CONIC = """\
# two conics in P^2 over F_5
field p=5 e=1
vars m=2
poly x1^2 - x0^2
poly x2^2 - x0^2
"""

# name -> arguments of `cicodes family` that write it
CORPUS = {
    "rm3_2": ("rm", "--q", "3", "--m", "2"),
    "rm4_2": ("rm", "--q", "4", "--m", "2"),
    "rm5_2": ("rm", "--q", "5", "--m", "2"),
    "rm7_2": ("rm", "--q", "7", "--m", "2"),
    "rm31_3": ("rm", "--q", "31", "--m", "3"),
    "rs11": ("rs", "--q", "11"),
    "rs16": ("rs", "--q", "16"),
    "rs3_8": ("rs", "--q", "6561"),
    "rs2_16": ("rs", "--q", "65536"),
    "herm3": ("hermitian", "--q", "3"),
}

SEED_ARG = "{seed}"
DEFAULT_SEED = 0  # the CLI's default; sampled outputs are byte-checked at this seed


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `cicodes <cmd> <corpus file> <args...>`.

    `expect` names the semantic check run on its stdout on every seed:
    ("rm", q, m, a) for RM distance, ("singleton",) for RS, ("analyze",)
    for the bound s-a+2 <= d <= n-k+1 alone, ("cb",) or ("cb", budget)
    for a sampled sweep, ("hilbert",) and ("points",).
    """

    cmd: str
    file: str
    args: tuple
    limit_s: float
    why: str
    expect: tuple

    @property
    def id(self):
        return " ".join((self.cmd, self.file) + self.args)

    @property
    def seeded(self):
        return SEED_ARG in self.args

    def argv(self, corpus_dir, seed):
        args = tuple(str(seed) if a == SEED_ARG else a for a in self.args)
        return (self.cmd, f"{corpus_dir}/{self.file}.txt") + args


def setup_job(name):
    """The set-up every subcommand pays: file -> certified CI, in a fresh process."""
    return Job("points", name, ("--require-ci",), 60.0,
               "set-up: parse, field tables, variety cut, Jacobian check",
               ("points",))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple
    # Passes of the whole job list in one run, however long they take.
    # cb_sweep and hilbert keep one: a pass takes about 24 s and 18 s there,
    # a second one doubles the length of a run, and over ten seeds it did
    # not narrow the spread of wall_s (between-run drift of the host
    # dominates it).
    min_passes: int = 1

    @property
    def files(self):
        return sorted({job.file for job in self.jobs})

    @property
    def jobs_are_setup(self):
        return sorted(job.id for job in self.jobs) == \
            sorted(setup_job(f).id for f in self.files)


DISTANCE = Workload(
    "distance",
    "analyze: time goes to the min_distance odometer (one gf.add per "
    "coordinate) over prime, char-2 and odd extension fields",
    (
        Job("analyze", "rm4_2", ("--degree", "3", "--threads", "1"), 20.0,
            "largest exhaustive search that fits the cap: 349,525 words over F_4",
            ("rm", 4, 2, 3)),
        Job("analyze", "rm4_2", ("--degree", "3", "--threads", "2"), 20.0,
            "same search with the thread pool, so a fix of --threads shows",
            ("rm", 4, 2, 3)),
        Job("analyze", "rs11", ("--degree", "5"), 15.0,
            "prime field F_11, MDS code, 177,156 words", ("singleton",)),
        Job("analyze", "rs16", ("--degree", "4"), 15.0,
            "char-2 extension F_16 with a longer word", ("singleton",)),
        Job("analyze", "herm3", ("--degree", "2"), 15.0,
            "odd extension F_9 (Hermitian curve, n=24)", ("analyze",)),
        Job("analyze", "rm7_2", ("--degree", "2"), 15.0,
            "prime field F_7, long words (n=49)", ("rm", 7, 2, 2)),
    ),
)

CB_SWEEP = Workload(
    "cb_sweep",
    "cb: many small eliminations over subset splits, matrix rebuilt per "
    "split, global rank_e cache growth; min_distance idle",
    (
        Job("cb", "rm3_2", ("--degrees", "0..3"), 15.0,
            "exhaustive over four degrees with tiny matrices (n=9)", ("cb",)),
        Job("cb", "rm4_2", ("--degrees", "2"), 90.0,
            "exhaustive 65,536 splits: the sweep's cost and its cache's 58 MB peak RSS",
            ("cb",)),
        Job("cb", "herm3", ("--degrees", "3", "--budget", "2000", "--seed", SEED_ARG), 30.0,
            "sorted-sample order over the odd extension F_9", ("cb", 2000)),
    ),
)

HILBERT = Workload(
    "hilbert",
    "hilbert: few wide eliminations (up to 49 x 1,176), high-degree point "
    "rows through gf.pow, and sigma's top-down scan",
    (
        Job("hilbert", "rm7_2", (), 90.0,
            "n=49: sigma scans the widest matrices of the corpus", ("hilbert",)),
        Job("hilbert", "rm5_2", (), 20.0,
            "a smaller prime-field grid (n=25)", ("hilbert",)),
        Job("hilbert", "herm3", (), 20.0,
            "odd extension F_9, not a grid (n=24)", ("hilbert",)),
    ),
)

SETUP_LARGE = Workload(
    "setup_large",
    "points --require-ci on large fields: gf table building and the "
    "geometry cut, which take milliseconds on the other corpora",
    (
        Job("points", "rs2_16", ("--require-ci",), 60.0,
            "field_new(2,16) builds its tables with slow multiplication",
            ("points",)),
        Job("points", "rs3_8", ("--require-ci",), 30.0,
            "odd extension F_3^8 with digit-wise addition", ("points",)),
        Job("points", "rm31_3", ("--require-ci",), 30.0,
            "30,784 points of P^3(F_31) scanned by the cut", ("points",)),
    ),
    # setup_s takes its per-file medians over these passes. Three, not two:
    # the median of three drops a pass taken in a slow phase of the host,
    # which the mean of two kept (wall_s spread 24% over ten seeds).
    min_passes=3,
)

WORKLOADS = {w.name: w for w in (DISTANCE, CB_SWEEP, HILBERT, SETUP_LARGE)}

# The self-check's jobs: fast, on the README's two-conic file.
SELFCHECK_JOBS = (
    Job("points", "two_conic", ("--require-ci",), 15.0, "self-check", ("points",)),
    Job("analyze", "two_conic", ("--degree", "1"), 15.0, "self-check", ("analyze",)),
    Job("hilbert", "two_conic", (), 15.0, "self-check", ("hilbert",)),
)
