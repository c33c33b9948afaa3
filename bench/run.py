#!/usr/bin/env python3
"""lagrel benchmark: four seeded workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program under test is the checkout's
own `src/lagrel`; CLI jobs run it as `python -m lagrel.cli` subprocesses,
one at a time, and the `session` workload imports it.  `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced replay.
The benchmark pins itself and its jobs to one CPU and reports op times
scaled by how slowly that core ran a fixed reference (see "Host speed"
below).  The last line of standard output is one JSON object; lines before
it are a human-readable summary.  See bench/README.md for the workloads and
metrics.

`python3 bench/run.py --record-digests` rewrites bench/digests.json from the
current program; do that only when a report format is meant to change.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPS = 9
JOB_TIMEOUT_S = 150
MONOID_PAIRS = 1000  # fixed by `lagrel verify monoid`
TRACED_SESSION_BATCHES = 20  # 120 queries in a traced session replay
HOST_NOTE = (
    "wall and CPU time moved together on the 2-core VM where this benchmark was "
    "written: the spread between runs came from host speed, not scheduling; "
    "timings are scaled by the slowness of a reference timed on the pinned core"
)

clock = time.perf_counter


# ---------------------------------------------------------------------------
# Host speed.  On the 2-core VM this benchmark was written on, each core
# switches every few seconds between two speeds about 1.7x apart, whatever
# runs on it.  So the benchmark pins itself and its jobs to one core and times
# a fixed piece of exact arithmetic, written here and not in lagrel, on that
# core before, during and after every op.  Each op's time is divided by how
# much slower than REF_NOMINAL_S those samples ran.
# ---------------------------------------------------------------------------

REF_NOMINAL_S = 0.010  # CPU seconds of one reference burst on the fast state of that VM
REF_CALLS = 10  # reference_work() calls in one burst
REF_EVERY_S = 0.5  # sampling period while a CLI job runs
REF_FRESH_S = 0.05  # a sample this recent serves as the next op's "before" sample


def reference_work() -> int:
    """Exact elimination on fixed Fraction and integer matrices, plus set and dict traffic."""
    n = 6
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    rows = [[(i * 13 + j * 7) % 17 - 8 for j in range(10)] for i in range(8)]
    for c in range(8):
        if rows[c][c]:
            rows = [r if k == c else [rows[c][c] * x - r[c] * y for x, y in zip(r, rows[c])]
                    for k, r in enumerate(rows)]
    seen = {tuple(r[:4]) for r in rows}
    counts: dict[int, int] = {}
    for v in range(400):
        counts[v % 37] = counts.get(v % 37, 0) + (v * v) % 11
    return len(seen) + sum(counts.values()) + sum(x.numerator for x in m[0])


def pin_to_one_cpu() -> int:
    """Pin this process, and so every job it starts, to its lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Reference bursts timed in CPU seconds, so a job sharing the core does not inflate them."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = -float("inf")

    def sample(self) -> None:
        start = time.thread_time()
        for _ in range(REF_CALLS):
            reference_work()
        self.samples.append(time.thread_time() - start)
        self.last = clock()

    def timed(self, fn: Callable[[], object]) -> tuple[float, object, float]:
        """Run fn(); return its wall time, its result, and the host's slowness around it.

        Slowness is the mean of the samples from just before fn starts to just
        after it ends, including any fn takes itself, over REF_NOMINAL_S.
        """
        if clock() - self.last > REF_FRESH_S:
            self.sample()
        first = len(self.samples) - 1
        start = clock()
        result = fn()
        wall = clock() - start
        self.sample()
        return wall, result, statistics.fmean(self.samples[first:]) / REF_NOMINAL_S


# ---------------------------------------------------------------------------
# Seeded inputs for gl(m|n).  The form is diag(1^m, -1^n); W = S_m x S_n acts
# by permuting the two blocks, and x ~ y iff y = w(x + t*a) for an isotropic
# root a = e_i - e_{m+j} orthogonal to x (x_i = -x_{m+j}).
# ---------------------------------------------------------------------------


def power_sum(v, m: int, k: int) -> Fraction:
    """Supersymmetric power sum, an invariant of the gl(m|n) relation."""
    return sum(Fraction(x) ** k for x in v[:m]) - sum(Fraction(-x) ** k for x in v[m:])


def typical_point(rng: random.Random, m: int, n: int) -> list[int]:
    """Distinct coordinates in each block, orthogonal to no isotropic root."""
    even = rng.sample(range(-9, 10), m)
    return even + rng.sample([v for v in range(-9, 10) if -v not in even], n)


def permuted(rng: random.Random, v: list[int], m: int) -> list[int]:
    """A random element of S_m x S_n applied to v."""
    pe, po = list(range(m)), list(range(m, len(v)))
    rng.shuffle(pe)
    rng.shuffle(po)
    return [v[k] for k in pe + po]


def related_pair(rng: random.Random, m: int, n: int) -> tuple[list[int], list[int]]:
    """(x, y) related by construction, with exactly one atypical pair when m, n > 0."""
    x = typical_point(rng, m, n)
    y = list(x)
    if m and n:
        i, j = rng.randrange(m), rng.randrange(n)
        x[m + j] = y[m + j] = -x[i]
        t = rng.choice((-3, -2, -1, 1, 2, 3))
        y[i] += t
        y[m + j] -= t
    return x, permuted(rng, y, m)


def unrelated_pair(rng: random.Random, m: int, n: int) -> tuple[list[int], list[int]]:
    """(x, y) with equal p_1 and different p_2, hence not related."""
    while True:
        x = typical_point(rng, m, n)
        y = permuted(rng, x, m)
        a, b = rng.sample(range(m + n), 2)
        y[a] += 1
        y[b] -= 1
        if power_sum(x, m, 2) != power_sum(y, m, 2):
            return x, y


def vec_arg(v) -> str:
    return ",".join(str(x) for x in v)


def evaluate_payload(poly: dict, point) -> Fraction:
    """Evaluate a `{"e0,e1,...": "p/q"}` polynomial payload at a point."""
    total = Fraction(0)
    for exps, coeff in poly.items():
        term = Fraction(coeff)
        for x, e in zip(point, (int(e) for e in exps.split(","))):
            term *= Fraction(x) ** e
        total += term
    return total


def check_separation(sep: dict, x, y, related: bool) -> str | None:
    """None when a `separation` payload is right for a pair built (un)related."""
    if related:
        return None if sep.get("status") == "equivalent" else f"related pair came back {sep.get('status')}"
    if sep.get("status") != "separated":
        return f"unrelated pair came back {sep.get('status')}"
    fx, fy = evaluate_payload(sep["polynomial"], x), evaluate_payload(sep["polynomial"], y)
    if fx == fy or [str(fx), str(fy)] != sep["values"]:
        return "separating polynomial does not separate"
    return None


# ---------------------------------------------------------------------------
# Jobs and their checks.
# ---------------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def canonical_report(report: dict) -> bytes:
    """The CLI's own serialization (sorted keys, indent 2, trailing newline)."""
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")


@dataclass
class Job:
    """One CLI invocation, the work units it completes, and its output check."""

    label: str
    argv: list[str]
    units: int
    check: Callable[[bytes], str | None]


def entry_key(entry) -> str:
    return "-".join(str(p) for p in entry)


def digest_check(key: str, digests: dict) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        if key not in digests:
            return f"no recorded digest for {key}"
        return None if sha256(out) == digests[key] else f"{key}: report differs from recorded digest"

    return check


def analyze_pair_check(key: str, digests: dict, x, y, related: bool) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        report = json.loads(out)
        sep = report.pop("separation", None)
        if sep is None:
            return "report has no separation"
        problem = digest_check(key, digests)(canonical_report(report))
        return problem or check_separation(sep, x, y, related)

    return check


MONOID_LINE = re.compile(r"^(PASS|FAIL) (\w+): (\d+) ok, (\d+) failed \(seed=(-?\d+)\)$")
MONOID_CHECKS = {
    "atypicality_bounds", "canonical_data_round_trip", "composition_lagrangian",
    "image_is_kernel_complement", "inverse_composition_idempotent", "kernel_dims_equal",
}


def monoid_check(seed: int) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        seen = set()
        for line in out.decode("utf-8").splitlines():
            match = MONOID_LINE.match(line)
            if not match:
                return f"unexpected line: {line!r}"
            status, name, ok, bad, line_seed = match.groups()
            if status != "PASS" or int(ok) != MONOID_PAIRS or int(bad) or int(line_seed) != seed:
                return f"not a clean pass: {line!r}"
            seen.add(name)
        return None if seen == MONOID_CHECKS else f"suite lines {sorted(seen)}"

    return check


def run_subprocess(argv: list[str], cwd: Path, speed: HostSpeed | None = None) -> tuple[int, bytes, bytes]:
    """Run the interpreter on argv; with `speed`, sample it every REF_EVERY_S while the job runs."""
    proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=job_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = clock() + JOB_TIMEOUT_S
    try:
        while True:
            try:
                out, err = proc.communicate(timeout=REF_EVERY_S if speed else JOB_TIMEOUT_S)
                return proc.returncode, out, err
            except subprocess.TimeoutExpired:
                if speed is None or clock() > deadline:
                    raise
                speed.sample()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def job_env() -> dict[str, str]:
    """The fixed environment of every CLI job."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONIOENCODING": "utf-8",
        "LC_ALL": "C.UTF-8",
    }


def startup_probe(cwd: Path) -> float:
    """Seconds for a fresh interpreter to import lagrel.cli (fails loudly without it)."""
    start = clock()
    rc, _, err = run_subprocess(["-c", "import lagrel.cli"], cwd)
    elapsed = clock() - start
    if rc != 0:
        raise SystemExit(f"cannot import lagrel.cli from {SRC}: {err.decode(errors='replace')}")
    return elapsed


def checked(job: Job, out: bytes) -> str | None:
    try:
        return job.check(out)
    except (ValueError, KeyError, TypeError) as exc:  # unparsable output is a failed op
        return f"{job.label}: {type(exc).__name__}: {exc}"


def run_job_subprocess(job: Job, cwd: Path, speed: HostSpeed) -> tuple[float, float, str | None]:
    """Wall time, host slowness and problem (None when the output checks out) of one job."""

    def call():
        try:
            return run_subprocess(["-m", "lagrel.cli", *job.argv], cwd, speed)
        except subprocess.TimeoutExpired:
            return None

    elapsed, result, slowness = speed.timed(call)
    if result is None:
        return elapsed, slowness, f"{job.label}: timed out after {JOB_TIMEOUT_S} s"
    rc, out, err = result
    if rc != 0:
        return elapsed, slowness, f"{job.label}: exit code {rc}: {err.decode(errors='replace').strip()[-200:]}"
    return elapsed, slowness, checked(job, out)


def run_job_inprocess(job: Job) -> tuple[float, str | None]:
    from lagrel import cli

    buf = io.StringIO()
    start = clock()
    try:
        with redirect_stdout(buf):
            rc = cli.main(list(job.argv))
    except Exception as exc:  # an escaping error is a failed op, not a failed run
        return clock() - start, f"{job.label}: {type(exc).__name__}: {exc}"
    elapsed = clock() - start
    if rc != 0:
        return elapsed, f"{job.label}: exit code {rc}"
    return elapsed, checked(job, buf.getvalue().encode("utf-8"))


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Measured ops of one phase of a run."""

    latencies: list[float] = field(default_factory=list)  # wall seconds
    scaled: list[float] = field(default_factory=list)  # wall seconds / host slowness
    units: int = 0
    wall: float = 0.0
    failures: list[str] = field(default_factory=list)

    def record(self, latency: float, units: int, problem: str | None, slowness: float = 1.0) -> None:
        self.latencies.append(latency)
        self.scaled.append(latency / slowness)
        self.units += units
        if problem:
            self.failures.append(problem)


class CliWorkload:
    """Rounds of CLI subprocess jobs over catalog files written during set-up."""

    unit = "reports"

    def __init__(self, seed: int, entries: list[tuple], digests: dict):
        self.seed = seed
        self.entries = entries
        self.digests = digests
        self.inputs: Path | None = None

    def setup_once(self, workdir: Path) -> list[str]:
        """Probe the interpreter and import, then write and check the catalog files."""
        problems = []
        startup_probe(workdir)
        for entry in self.entries:
            path = workdir / f"{entry_key(entry)}.json"
            rc, _, err = run_subprocess(
                ["-m", "lagrel.cli", "wgrs", "build", *map(str, entry), "--out", str(path)], workdir
            )
            if rc != 0:
                problems.append(f"catalog {entry}: exit code {rc}")
                continue
            problem = digest_check(f"catalog {entry_key(entry)}", self.digests)(path.read_bytes())
            if problem:
                problems.append(problem)
        self.inputs = workdir
        return problems

    def path(self, entry) -> str:
        return str(self.inputs / f"{entry_key(entry)}.json")

    def round(self, k: int) -> list[Job]:
        raise NotImplementedError

    def run_round(self, k: int, outcome: Outcome, speed: HostSpeed | None = None) -> None:
        """Subprocess jobs, timed against `speed`; without it, in-process calls of cli.main."""
        for job in self.round(k):
            if speed is None:
                latency, problem = run_job_inprocess(job)
                outcome.record(latency, job.units, problem)
            else:
                latency, slowness, problem = run_job_subprocess(job, self.inputs, speed)
                outcome.record(latency, job.units, problem, slowness)


class AnalyzeWorkload(CliWorkload):
    """`lagrel analyze` on one catalog entry with seeded --x/--y pairs.

    A round is four jobs: related, unrelated, related, unrelated.  The report
    minus its `separation` is the same for every pair, so every job does the
    same structural work and op_s.p50 is the median of one population.
    """

    PAIRS = (True, False, True, False)  # related?

    def __init__(self, seed: int, digests: dict, entry=("gl", 2, 2), degree=6):
        super().__init__(seed, [entry], digests)
        self.entry, self.degree = entry, degree

    def round(self, k: int) -> list[Job]:
        rng = random.Random(f"analyze-{self.seed}-{k}")
        _, m, n = self.entry
        key = f"analyze {entry_key(self.entry)} d{self.degree}"
        jobs = []
        for related in self.PAIRS:
            x, y = (related_pair if related else unrelated_pair)(rng, m, n)
            jobs.append(Job(
                f"{key} x={vec_arg(x)} y={vec_arg(y)}",
                ["analyze", self.path(self.entry), "--degree", str(self.degree),
                 f"--x={vec_arg(x)}", f"--y={vec_arg(y)}"], 1,
                analyze_pair_check(key, self.digests, x, y, related),
            ))
        return jobs


class WeylWorkload(CliWorkload):
    """`lagrel wgrs relation` on one catalog entry; the input does not depend on the seed.

    A round is one job, so every op does the same work and a run holds many.
    """

    def __init__(self, seed: int, digests: dict, entry=("gl", 4, 1)):
        super().__init__(seed, [entry], digests)
        self.entry = entry

    def round(self, k: int) -> list[Job]:
        key = f"relation {entry_key(self.entry)}"
        return [Job(f"wgrs {key}", ["wgrs", "relation", self.path(self.entry)], 1,
                    digest_check(key, self.digests))]


class MonoidWorkload(CliWorkload):
    """`lagrel verify monoid --seed <seed>`: random Lagrangian pairs."""

    unit = "pairs"

    def __init__(self, seed: int, digests: dict):
        super().__init__(seed, [], digests)

    def round(self, k: int) -> list[Job]:
        s = self.seed + k
        return [Job(f"verify monoid --seed {s}", ["verify", "monoid", "--seed", str(s)],
                    MONOID_PAIRS, monoid_check(s))]


@dataclass
class Query:
    kind: str
    x: tuple
    y: tuple
    related: bool


class SessionWorkload:
    """One in-process library session answering seeded batches of queries on built objects.

    An op is one batch of six queries, all on the objects built in set-up:
    `class_membership` on the large entry, then `separate(rel, x, y, 6)` and
    `membership` on the small entry, each for a related and an unrelated pair.
    Every batch asks the same kinds of question, so batch latencies form one
    population and their median is steady.
    """

    unit = "queries"
    KINDS = (
        ("class_membership", True), ("class_membership", False),
        ("separate", True), ("separate", False),
        ("membership", True), ("membership", False),
    )

    def __init__(self, seed: int, big=("gl", 3, 2), small=("gl", 2, 1), batches=500):
        self.seed = seed
        self.big, self.small, self.n_batches = big, small, batches
        self.import_s: float | None = None

    def setup_once(self, workdir: Path | None) -> list[str]:
        if self.import_s is None:
            start = clock()
            import lagrel  # noqa: F401  (timed: the session pays for the import once)

            self.import_s = clock() - start
        from lagrel import catalog

        self.rs_big = catalog(*self.big)
        self.rel_big = self.rs_big.build_relation()  # built as a user's session would; queries use rs_big
        self.rs_small = catalog(*self.small)
        self.rel_small = self.rs_small.build_relation()
        self.warmup = self.make_batch(random.Random(f"session-warm-up-{self.seed}"))
        rng = random.Random(f"session-{self.seed}")
        self.batches = [self.make_batch(rng) for _ in range(self.n_batches)]
        return []

    def make_batch(self, rng: random.Random) -> list[Query]:
        out = []
        for kind, related in self.KINDS:
            _, m, n = self.big if kind == "class_membership" else self.small
            x, y = (related_pair if related else unrelated_pair)(rng, m, n)
            out.append(Query(kind, tuple(x), tuple(y), related))
        return out

    def answer(self, q: Query) -> str | None:
        from lagrel import separate

        if q.kind == "class_membership":
            related, witness = self.rs_big.class_membership(q.x, q.y)
            if related != q.related:
                return f"class_membership{q.x, q.y} = {related}"
            return check_witness(witness, q.x, q.y, self.big[1]) if related else None
        if q.kind == "separate":
            from lagrel.invariants import polynomial_to_payload

            res = separate(self.rel_small, q.x, q.y, 6)
            sep = {"status": res.status}
            if res.status == "separated":
                sep["polynomial"] = polynomial_to_payload(res.polynomial)
                sep["values"] = [str(v) for v in res.values]
            problem = check_separation(sep, q.x, q.y, q.related)
            return f"separate{q.x, q.y}: {problem}" if problem else None
        related = self.rel_small.membership(q.x, q.y)
        return None if related == q.related else f"membership{q.x, q.y} = {related}"

    def run_batch(self, batch: list[Query], outcome: Outcome, speed: HostSpeed | None = None) -> None:
        """Answer one batch; its latency is one op, its queries the work units."""
        problems = []

        def answer_all():
            for q in batch:
                try:
                    problem = self.answer(q)
                except Exception as exc:  # an escaping error is a wrong answer, not a failed run
                    problem = f"{q.kind}{q.x, q.y}: {type(exc).__name__}: {exc}"
                if problem:
                    problems.append(problem)

        if speed is None:
            start = clock()
            answer_all()
            latency, slowness = clock() - start, 1.0
        else:
            latency, _, slowness = speed.timed(answer_all)
        outcome.record(latency, len(batch), "; ".join(problems) or None, slowness)


def check_witness(witness, v, vp, m: int) -> str | None:
    """v' = w(v + t*a): w permutes each block, a isotropic and orthogonal to v."""
    w, _ = witness
    rows = [[Fraction(x) for x in r] for r in w.matrix.entries]
    dim = len(rows)
    perm = []
    for r in rows:
        ones = [j for j, x in enumerate(r) if x]
        if len(ones) != 1 or r[ones[0]] != 1 or (ones[0] < m) != (len(perm) < m):
            return "witness is not a block permutation"
        perm.append(ones[0])
    u = [Fraction(0)] * dim
    for i, j in enumerate(perm):  # u = w^{-1} v'
        u[j] = Fraction(vp[i])
    diff = [a - b for a, b in zip(u, v)]
    nz = [i for i, x in enumerate(diff) if x]
    if not nz:
        return None
    if len(nz) == 2 and nz[0] < m <= nz[1] and diff[nz[0]] == -diff[nz[1]] and v[nz[0]] == -v[nz[1]]:
        return None
    return "witness translation is not along an isotropic root orthogonal to v"


def make_workload(name: str, seed: int, digests: dict, tiny: bool = False):
    """The workload named `name`; `tiny` swaps in small catalog entries for self-tests."""
    if name == "analyze":
        return AnalyzeWorkload(seed, digests, ("gl", 1, 1), 3) if tiny else AnalyzeWorkload(seed, digests)
    if name == "weyl":
        return WeylWorkload(seed, digests, ("gl", 2, 1)) if tiny else WeylWorkload(seed, digests)
    if name == "monoid":
        return MonoidWorkload(seed, digests)
    if name == "session":
        return SessionWorkload(seed, ("gl", 2, 1), ("gl", 1, 1), 4) if tiny else SessionWorkload(seed)
    raise ValueError(f"unknown workload {name}")


WORKLOADS = ("analyze", "monoid", "weyl", "session")


# ---------------------------------------------------------------------------
# Phases: set-up, the untraced measured loop, the traced replay.
# ---------------------------------------------------------------------------


def setup(workload, workdir: Path, speed: HostSpeed) -> tuple[float, float, list[str]]:
    """Set up SETUP_REPS times in fresh directories.

    Returns the median time scaled by host slowness, the median wall time, and
    the problems found.  `session` adds its one-time import to both.
    """
    walls, scaled, problems = [], [], []
    for rep in range(SETUP_REPS):
        rep_dir = workdir / f"setup{rep}"
        rep_dir.mkdir()
        wall, found, slowness = speed.timed(lambda: workload.setup_once(rep_dir))
        problems += found
        walls.append(wall)
        scaled.append(wall / slowness)
        if rep == 0:
            first_slowness = slowness
    if isinstance(workload, SessionWorkload):
        return (workload.import_s / first_slowness + statistics.median(scaled),
                workload.import_s + statistics.median(walls), problems)
    return statistics.median(scaled), statistics.median(walls), problems


def measure(workload, seconds: float, speed: HostSpeed) -> Outcome:
    """Whole rounds (CLI) or batches (session) until the run is as close to --seconds as they allow.

    Another step starts while at least half of a median step still fits; at
    least one always runs.
    """
    outcome = Outcome()
    if isinstance(workload, SessionWorkload):
        workload.run_batch(workload.warmup, Outcome())  # untimed: let lazy state fill first
        limit = len(workload.batches)

        def step(k: int) -> None:
            workload.run_batch(workload.batches[k], outcome, speed)
    else:
        limit = None

        def step(k: int) -> None:
            workload.run_round(k, outcome, speed)

    start = clock()
    step_times = []
    k = 0
    while True:
        s0 = clock()
        step(k)
        step_times.append(clock() - s0)
        k += 1
        if k == limit or clock() - start + statistics.median(step_times) / 2 > seconds:
            break
    outcome.wall = clock() - start
    return outcome


def replay(workload) -> Outcome:
    """A fixed amount of work in-process, identical in every traced run."""
    outcome = Outcome()
    start = clock()
    if isinstance(workload, SessionWorkload):
        workload.setup_once(None)
        for batch in workload.batches[:TRACED_SESSION_BATCHES]:
            workload.run_batch(batch, outcome)
    else:
        workload.run_round(0, outcome)
    outcome.wall = clock() - start
    return outcome


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lagrel").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, setup_s: float, outcome: Outcome) -> dict:
    """The end-to-end metrics, from op times scaled by host slowness."""
    if isinstance(workload, SessionWorkload):
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(outcome.units / sum(outcome.scaled), "1/s"),
        "op_s.p50": metric(statistics.median(outcome.scaled), "s"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }


DOMINANT_PREDICTION = {
    "analyze": ("invariants",),
    "monoid": ("linear_relations", "exact_linalg"),
}


def dominance(workload_name: str, spans) -> dict:
    """Check the predicted dominant layer against the trace."""
    from tracing import inclusive_times, self_times

    module_self: dict[str, float] = {}
    for span, s in zip(spans, self_times(spans)):
        module = span[0].split(".", 1)[0]
        module_self[module] = module_self.get(module, 0.0) + s
    top = max(module_self, key=module_self.get) if module_self else None
    out = {"module_self_s": module_self, "dominant_module": top}
    if workload_name in DOMINANT_PREDICTION:
        out["predicted"] = list(DOMINANT_PREDICTION[workload_name])
        out["holds"] = top in DOMINANT_PREDICTION[workload_name]
    elif workload_name == "weyl":
        incl = inclusive_times(spans)
        total = incl.get("cli.main", 0.0)
        weyl = incl.get("wgrs.weyl_group", 0.0) + incl.get("relation_monoid.weyl_group", 0.0)
        out["predicted"] = ["wgrs.weyl_group", "relation_monoid.weyl_group"]
        out["weyl_group_share"] = weyl / total if total else 0.0
        out["holds"] = out["weyl_group_share"] > 0.5
    return out


def traced_metrics(workload, workload_name: str, seed: int, workdir: Path) -> tuple[dict, Outcome, dict]:
    from tracing import Tracer, layer_metrics

    # The first lagrel call in a process runs slower; warm the process first so
    # that the overhead ratio compares a warm untraced replay with a warm traced one.
    run_job_inprocess(Job("warm-up", ["verify", "product"], 0, lambda out: None))
    plain = replay(workload)
    run_id = f"{workload_name}-seed{seed}-{os.getpid()}-{int(time.time())}"
    with Tracer(run_id) as tracer:
        traced = replay(workload)
    layers = layer_metrics(tracer.spans, tracer.counters)
    layers["cli.startup_s"] = statistics.median(startup_probe(workdir) for _ in range(SETUP_REPS))
    layers["trace.overhead_ratio"] = traced.wall / plain.wall
    dom = dominance(workload_name, tracer.spans)
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{workload_name}-seed{seed}.json"  # the latest traced run only
    tracer.write(path, {"workload": workload_name, "seed": seed, "machine": machine(),
                        "dominance": dom, "untraced_wall_s": plain.wall, "traced_wall_s": traced.wall})
    both = Outcome(latencies=plain.latencies + traced.latencies, units=plain.units + traced.units,
                   wall=plain.wall + traced.wall, failures=plain.failures + traced.failures)
    return layers, both, {"trace_file": str(path.relative_to(ROOT)), **dom}


def per_layer_units() -> dict[str, str]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (SRC / "lagrel" / "cli.py").is_file():
        raise SystemExit(f"no program to measure: {SRC / 'lagrel'} is missing")
    digests = load_digests()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    try:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        workload = make_workload(workload_name, seed, digests, tiny)
        cpu = pin_to_one_cpu()
        start = clock()
        speed = HostSpeed()
        setup_s, setup_wall, problems = setup(workload, workdir, speed)
        summary = {"workload": workload_name, "seed": seed, "machine": machine(), "pinned_cpu": cpu,
                   "work_unit": workload.unit, "note": HOST_NOTE}
        if trace:
            layers, outcome, dom = traced_metrics(workload, workload_name, seed, workdir)
            units = per_layer_units()
            metrics = {name: metric(layers[name], unit) for name, unit in units.items()}
            summary["dominance"] = dom
        else:
            outcome = measure(workload, seconds, speed)
            metrics = end_to_end(workload, setup_s, outcome)
            summary["wall_clock"] = {
                "setup_s": setup_wall, "ops_per_s": outcome.units / outcome.wall,
                "op_s.p50": statistics.median(outcome.latencies),
            }
            summary["host_slowness"] = {
                "samples": len(speed.samples),
                "median": statistics.median(speed.samples) / REF_NOMINAL_S,
            }
        cpu = resource.getrusage(resource.RUSAGE_CHILDREN)
        summary["children_cpu_s"] = cpu.ru_utime + cpu.ru_stime
        summary["samples"] = len(outcome.latencies)
        summary["failed_ratio"] = len(outcome.failures) / len(outcome.latencies)
        summary["wall_s"] = clock() - start
        failures = problems + outcome.failures
        summary["failures"] = failures[:10]
        for line in json.dumps(summary, indent=1, sort_keys=True).splitlines():
            print("# " + line)
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")
        return {
            "correct": not failures,
            "attempted": len(outcome.latencies),
            "failed": len(outcome.failures),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Recording digests.
# ---------------------------------------------------------------------------


def record_digests() -> None:
    """Write bench/digests.json from the current program's reports."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="digests-", dir=WORK))
    out: dict[str, str] = {}
    try:
        jobs = []
        for e, degree in ((("gl", 2, 2), 6), (("gl", 1, 1), 3)):
            jobs.append((f"analyze {entry_key(e)} d{degree}", e, ["analyze", "{}", "--degree", str(degree)]))
        for e in (("gl", 4, 1), ("gl", 2, 1)):
            jobs.append((f"relation {entry_key(e)}", e, ["wgrs", "relation", "{}"]))
        for key, entry, argv in jobs:
            path = workdir / f"{entry_key(entry)}.json"
            if not path.exists():
                rc, _, err = run_subprocess(
                    ["-m", "lagrel.cli", "wgrs", "build", *map(str, entry), "--out", str(path)], workdir
                )
                if rc:
                    raise SystemExit(err.decode())
                out[f"catalog {entry_key(entry)}"] = sha256(path.read_bytes())
            rc, stdout, err = run_subprocess(
                ["-m", "lagrel.cli", *[str(path) if a == "{}" else a for a in argv]], workdir
            )
            if rc:
                raise SystemExit(err.decode())
            out[key] = sha256(stdout)
            print(f"{key}: {out[key]}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(out.items())), fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fix string hashing so set iteration, and so call counts, repeat exactly
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
