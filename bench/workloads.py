"""The benchmark workloads: seeded inputs, one batch of jobs, checks.

Each workload is a class.  Its constructor is the set-up (input
construction from the seed); run_batch() is the timed part and returns
one Unit per checked piece of work; check() verifies a unit's output
after the timing ends and returns (digest, problems).  All library calls
go through module attributes (toriso.<module>.<name>) so that the
tracer's wrappers see them.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import toriso
import toriso.cli  # the package does not import its command line
from speed import det
from toriso import triplet

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())
PAIRS = ((1, 2), (1, 3), (2, 3))
clock = time.perf_counter


@dataclass
class Unit:
    """One checked job of a batch, with the clock() interval it ran in."""

    start: float
    end: float
    output: object


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(obj) -> str:
    return sha256(repr(obj))


# --- exact integer helpers for re-checking witnesses --------------------


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def random_unimodular(rng: random.Random, n: int, limit: int = 2):
    """Product of random elementary column operations with entries kept
    within the limit, retried until it is not diagonal."""
    while True:
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(rng.randrange(4, 14)):
            a, b = rng.sample(range(n), 2)
            s = rng.choice((-1, 1))
            cand = [row[:] for row in m]
            for row in cand:
                row[a] += s * row[b]
            if all(abs(x) <= limit for row in cand for x in row):
                m = cand
        if any(m[i][j] for i in range(n) for j in range(n) if i != j):
            return m


def _rows(mat):
    return [list(mat.row(i)) for i in range(mat.rows)]


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = toriso.cli.main(argv)
    return code, buf.getvalue()


# --- triplet --------------------------------------------------------------


class Triplet:
    """Full re-verification of the bundled triplet, many small exact calls."""

    JOBS = 4
    CONJUGATES = 20
    REFERENCE_SHARE = 1.0  # all exact Python arithmetic, like speed.reference()
    LAMBDA = Fraction(263, 400)
    CAPS_12 = tuple(Fraction(c, 263) for c in (5600, 2800, 1200, 10000, 10000, 10000))

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"triplet:{seed}")
        self.forms = {i: triplet.gram_form(i) for i in (1, 2, 3)}
        self.doubled = {i: toriso.lattices.double_form(f) for i, f in self.forms.items()}
        self.lattice1 = triplet.lattice(1)
        q1 = _rows(self.forms[1].matrix)
        self.conjugates = []
        for _ in range(self.JOBS):
            job = []
            for _ in range(self.CONJUGATES):
                u = random_unimodular(rng, 6)
                rows = _matmul(_matmul(_transpose(u), q1), u)
                job.append((rows, toriso.lattices.GramForm(toriso.linalg.Mat.from_rows(rows))))
            self.conjugates.append(job)

    def run_batch(self) -> list[Unit]:
        units = []
        for job in self.conjugates:
            t0 = clock()
            code, stdout = run_cli(["paper-triplet", "--json"])
            spectra = [toriso.enumeration.rep_spectrum(self.doubled[i], 92) for i in (1, 2, 3)]
            noniso = [
                toriso.isometry.integral_equivalence(self.forms[i], self.forms[j], lambda_bound=self.LAMBDA)
                for i, j in PAIRS
            ]
            ladder = toriso.enumeration.independent_ladder(self.lattice1, 6)
            recovered = [toriso.isometry.integral_equivalence(form, self.forms[1]) for _, form in job]
            units.append(Unit(t0, clock(), (code, stdout, spectra, noniso, ladder, job, recovered)))
        return units

    def check(self, output) -> tuple[str, list[str]]:
        code, stdout, spectra, noniso, ladder, job, recovered = output
        problems = []
        if code != 0 or sha256(stdout) != GOLDEN["triplet"]["paper_triplet_stdout"]:
            problems.append(f"paper-triplet exit {code} or output differs from the golden run")
        elif set(json.loads(stdout)["stages"].values()) != {"PASS"}:
            problems.append("paper-triplet stage not PASS")
        for i, spec in zip((1, 2, 3), spectra):
            if spec.bound != 92 or spec.step != 2 or dict(spec.entries) != triplet.REP_TABLE_DOUBLED:
                problems.append(f"doubled spectrum of Q{i} differs from the paper's table")
        for (i, j), w in zip(PAIRS, noniso):
            if w.found or any("budget" in note for note in w.stats.notes) or w.stats.lambda_bound != self.LAMBDA:
                problems.append(f"Q{i}, Q{j} not proved non-isometric under lambda = 263/400")
        if noniso[0].stats.caps != self.CAPS_12:
            problems.append("norm caps of Q1, Q2 differ from the paper's")
        if tuple(stage.norm for stage in ladder) != triplet.LADDER_NORMS:
            problems.append("independent ladder norms differ from the paper's")
        q1 = _rows(self.forms[1].matrix)
        for k, ((conj, _), w) in enumerate(zip(job, recovered)):
            # M with M^T conj M = Q1 and |det M| = 1 is exactly U = M^-1
            # integral with U^T Q1 U = conj and |det U| = 1
            if not w.found:
                problems.append(f"conjugate {k}: no witness found")
                continue
            m = _rows(w.matrix)
            if any(x.denominator != 1 for row in m for x in row):
                problems.append(f"conjugate {k}: witness not integral")
            elif _matmul(_matmul(_transpose(m), conj), m) != q1 or abs(det(m)) != 1:
                problems.append(f"conjugate {k}: witness does not map the conjugate back to Q1")
        out = (
            stdout,
            [spec.entries for spec in spectra],
            [(w.found, w.stats.nodes) for w in noniso],
            [(stage.norm, stage.vectors) for stage in ladder],
            [(w.stats.nodes, w.matrix.entries if w.found else None) for w in recovered],
        )
        return digest(out), problems


# --- checkpointed code search ------------------------------------------------


class Interrupted(Exception):
    pass


def results_digests(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


RESUME_CLI = ["codesearch", "--q", "7", "--n", "5", "--k", "2", "--family", "systematic", "--json"]


class CodeSearchResume:
    """Checkpointed (7, 5, 2) systematic search, interrupted after a seeded
    number of its 8 partitions, then finished by the command line."""

    PARTITIONS = 8
    # The memory-bound numpy scan follows the CPU's speed changes less than
    # verification, checkpoint compression and Python overhead do.  0.7 gave
    # the smallest worst-case spread over three ten-run sets (NOTES.md).
    REFERENCE_SHARE = 0.7

    def __init__(self, seed: int, workdir: Path):
        self.stop_after = random.Random(f"codesearch-resume:{seed}").randrange(1, self.PARTITIONS)
        self.workdir = workdir
        self.jobs = 0

    def _interrupt(self, done: int, total: int) -> None:
        if done == self.stop_after:
            raise Interrupted

    def run_batch(self) -> list[Unit]:
        self.jobs += 1
        jobdir = self.workdir / f"job{self.jobs}"
        jobdir.mkdir(parents=True)
        checkpoint, out = jobdir / "search.json.gz", jobdir / "results"
        t0 = clock()
        try:
            toriso.search.run_search(
                7, 5, 2, family="systematic", min_tuple=2, checkpoint_path=str(checkpoint), progress=self._interrupt
            )
            interrupted = False
        except Interrupted:
            interrupted = True
        code, stdout = run_cli(RESUME_CLI + ["--checkpoint", str(checkpoint), "--out", str(out)])
        return [Unit(t0, clock(), (jobdir, interrupted, code, stdout))]

    def check(self, output) -> tuple[str, list[str]]:
        jobdir, interrupted, code, stdout = output
        files = results_digests(jobdir / "results")
        shutil.rmtree(jobdir)
        golden = GOLDEN["codesearch-resume"]
        problems = []
        if not interrupted:
            problems.append(f"search was not interrupted after {self.stop_after} partitions")
        if code != 0 or sha256(stdout) != golden["stdout"]:
            problems.append(f"resumed command exit {code} or stdout differs from the uninterrupted run")
        if files != golden["files"]:
            problems.append("results directory differs from the uninterrupted run")
        return digest((stdout, files)), problems


WORKLOADS = {
    "triplet": Triplet,
    "codesearch-resume": CodeSearchResume,
}
