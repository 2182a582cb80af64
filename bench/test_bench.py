"""Tests of the benchmark itself:  python3 -m pytest bench

The run tests execute the triplet workload for real (about 20 s).
"""

import io
import json
import signal
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import toriso  # noqa: E402
from workloads import WORKLOADS, Triplet  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in DECLARED[kind]}


def _run(trace):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "triplet", "--seed", "7", "--seconds", "1", "--trace", str(trace)])
    assert code == 0
    return json.loads(buf.getvalue().splitlines()[-1])


def test_untraced_run_reports_exactly_the_end_to_end_metrics():
    result = _run(0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _names("end_to_end")
    units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert all(m["unit"] == units[name] and m["value"] > 0 for name, m in result["metrics"].items())


def test_traced_run_reports_exactly_the_per_layer_metrics():
    result = _run(1)
    assert result["correct"]
    assert set(result["metrics"]) == _names("per_layer")
    assert set(spans.layer_metrics([], 0.0)) == _names("per_layer")


def test_tracer_restores_every_module_attribute():
    modules = [sys.modules[name] for name in spans.NAMESPACES]
    before = [dict(vars(m)) for m in modules]
    original = toriso.isometry.enumerate_up_to
    with spans.Tracer() as tracer:
        assert toriso.isometry.enumerate_up_to is not original
        assert toriso.enumeration.enumerate_up_to is not original
        toriso.certify(toriso.triplet.gram_form(1), toriso.triplet.gram_form(2))
    assert {s.name for s in tracer.spans} >= {"spectra.certify", "enumeration.rep_spectrum"}
    for module, saved in zip(modules, before):
        now = vars(module)
        assert all(now[name] is value for name, value in saved.items())


def test_sampler_restores_the_alarm_and_normalizes_by_the_reference():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0 = speed.clock()
        while speed.clock() - t0 < 0.5:
            pass
        t1 = speed.clock()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5 and sampler.normalize(t0, t1) > 0
    fake = speed.Sampler()
    fake.samples = [(0.1 * k, 0.002) for k in range(10)]
    # 1 s of which 20 ms in the handler, on a host where reference() takes 2 ms
    slowdown = 0.002 / speed.REF_SECONDS
    assert abs(fake.normalize(0.0, 1.0) - 0.98 / slowdown) < 1e-12
    # with half the work at the reference's speed, half the slowdown counts
    assert abs(fake.normalize(0.0, 1.0, share=0.5) - 0.98 / (0.5 * slowdown + 0.5)) < 1e-12


def _inputs(workload):
    if isinstance(workload, Triplet):
        return [[rows for rows, _ in job] for job in workload.conjugates]
    return workload.stop_after


def test_generators_are_deterministic_per_seed(tmp_path):
    for cls in WORKLOADS.values():
        first = [_inputs(cls(seed, tmp_path)) for seed in range(4)]
        again = [_inputs(cls(seed, tmp_path)) for seed in range(4)]
        assert first == again
        assert len({repr(x) for x in first}) > 1, f"{cls.__name__} ignores its seed"
