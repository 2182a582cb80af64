"""toriso benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from src/.  With
--trace 0 the run measures set-up in fresh interpreters, then runs
batches of the workload until the next batch would end past S seconds
(at least one), checks every output, and prints the end-to-end metrics.
Their times are seconds at reference speed (speed.py): set-up and every
batch and job are timed while a fixed reference routine is sampled, and
scaled by how fast it ran; the measured times are printed on a line of
their own.  peak_rss_mb is the peak of set-up plus the first batch.
With --trace 1 it runs one untraced and one traced batch and prints the
per-layer metrics, a trace report and whether the outputs matched.  The
last line of stdout is the JSON result; the line before it records the
environment.  Exit code 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "toriso").glob("*.py")))


def _environment(args, loadavg) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(loadavg),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "src_toriso_lines": _src_lines(),
    }


def _probe_setup(args) -> int:
    """Time import plus input construction in this fresh interpreter; print
    the raw and the reference-speed seconds."""
    from speed import Sampler, clock

    with Sampler() as sampler:
        t0 = clock()
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, ROOT / ".bench_work" / "probe")
        t1 = clock()
    print(json.dumps([t1 - t0, sampler.normalize(t0, t1)]))
    return 0


def _setup_seconds(args) -> tuple[float, float]:
    """Medians of SETUP_PROBES fresh-interpreter set-ups: raw, normalized."""
    cmd = [
        sys.executable, "-B", str(Path(__file__)), "--probe-setup",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return statistics.median(raw for raw, _ in probes), statistics.median(norm for _, norm in probes)


class Batches:
    """Runs batches of one workload and checks every job they return.

    With a speed Sampler, walls and jobs hold reference-speed seconds
    (speed.py) and raw_walls and raw_jobs the measured ones."""

    def __init__(self, workload):
        self.workload = workload
        self.walls: list[float] = []
        self.jobs: list[float] = []
        self.raw_walls: list[float] = []
        self.raw_jobs: list[float] = []
        self.digests: list[list[str]] = []
        self.attempted = 0
        self.failed = 0

    def run(self, tracer=None, sampler=None) -> float:
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            units = self.workload.run_batch()
            t1 = time.perf_counter()
        share = self.workload.REFERENCE_SHARE
        self.raw_walls.append(t1 - t0)
        self.walls.append(sampler.normalize(t0, t1, share) if sampler else t1 - t0)
        digests = []
        for unit in units:
            digest, problems = self.workload.check(unit.output)
            digests.append(digest)
            self.attempted += 1
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"check failed: {problem}", file=sys.stderr)
            self.raw_jobs.append(unit.end - unit.start)
            self.jobs.append(sampler.normalize(unit.start, unit.end, share) if sampler else unit.end - unit.start)
        self.digests.append(digests)
        return t1 - t0


def _measure(args, workload) -> tuple[Batches, dict]:
    from speed import Sampler

    setup_raw, setup = _setup_seconds(args)
    batches = Batches(workload)
    with Sampler() as sampler:
        start = time.perf_counter()
        while True:
            wall = batches.run(sampler=sampler)
            if len(batches.walls) == 1:
                # the peak of set-up plus one batch, whatever the batch count
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if time.perf_counter() - start + wall > args.seconds:
                break
    metrics = {
        "wall_s": (statistics.median(batches.walls), "s"),
        "job_p50_s": (statistics.median(batches.jobs), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    ref = statistics.median(d for _, d in sampler.samples)
    print(f"batches: {len(batches.walls)}, jobs: {len(batches.jobs)}, "
          f"failed_ops: {batches.failed}/{batches.attempted}")
    print(f"measured (not at reference speed): wall_s {statistics.median(batches.raw_walls):.4f}, "
          f"job_p50_s {statistics.median(batches.raw_jobs):.4f}, setup_s {setup_raw:.4f}; "
          f"reference {1e3 * ref:.4f} ms median of {len(sampler.samples)} samples")
    return batches, metrics


def _measure_traced(args, workload) -> tuple[Batches, dict]:
    from spans import Tracer, coverage, layer_metrics, layer_self_times, write_spans

    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    batches = Batches(workload)
    tracer = Tracer()
    untraced = batches.run()
    traced = batches.run(tracer)
    identical = batches.digests[0] == batches.digests[1]
    if not identical:
        batches.failed += 1
        print("check failed: outputs differ with tracing on and off", file=sys.stderr)
    values = layer_metrics(tracer.spans, traced - untraced)
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in units}
    print(f"trace report: {args.workload}, untraced batch {untraced:.3f} s, traced batch {traced:.3f} s")
    print(f"  layer spans cover {100 * coverage(tracer.spans, traced):.1f} % of the traced wall_s")
    print(f"  stdout and results byte-identical with tracing on and off: {'yes' if identical else 'NO'}")
    partitions = sum(len(s.marks) for s in tracer.spans if s.name == "search.run_search")
    print(f"  scan partitions run (the unit a --jobs 2 scan would share out): {partitions}")
    for layer, t in sorted(layer_self_times(tracer.spans).items(), key=lambda kv: -kv[1]):
        print(f"  self {layer:<14} {t:10.4f} s")
    path = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    write_spans(tracer.spans, path)
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return batches, metrics


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = _parse(argv)
    if not (SRC / "toriso" / "__init__.py").is_file():
        print(f"error: no toriso package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.probe_setup:
        return _probe_setup(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        measure = _measure_traced if args.trace else _measure
        batches, metrics = measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"env": _environment(args, loadavg)}))
    result = {
        "correct": batches.failed == 0,
        "attempted": batches.attempted,
        "failed": batches.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
