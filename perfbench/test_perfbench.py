"""Tests of the benchmark's own arithmetic and correctness gates.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qcloak as qc  # noqa: E402
from qcloak.spectral import ResonanceReport, SpectralPoint  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from stats import tail_latency  # noqa: E402


# --- self time ------------------------------------------------------------------

def test_self_time_of_a_synthetic_span_tree():
    # 0 [0, 10] -> children 1 [1, 5] and 2 [6, 9]; 1 -> child 3 [2, 3]
    parents = [-1, 0, 0, 1]
    durations = [10.0, 4.0, 3.0, 1.0]
    own = spans.self_times(parents, durations)
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0]
    assert own.sum() == pytest.approx(durations[0])


def test_wrapped_calls_nest_and_self_times_add_up():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(1000))

    wrapped_leaf = tracer._wrap("special", "leaf", leaf)

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_middle = tracer._wrap("propagate", "middle", middle)
    root = tracer._wrap("observables", "root", lambda: wrapped_middle())
    tracer.start_job(7)
    root()
    parents = list(tracer.parent)
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["root", "middle", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1]
    assert set(tracer.job) == {7}
    dur = tracer.durations()
    own = spans.self_times(parents, dur)
    assert np.all(own >= 0.0)
    assert own.sum() == pytest.approx(dur[0])


def test_install_traces_every_layer_and_restores_the_originals():
    original = qc.phase_shifts
    medium = qc.LayeredMedium((qc.Shell(0.0, 3.0, 1.0, 1.0),))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.start_job(0)
        shifts = qc.phase_shifts(medium, 0.5, l_max=3)
        qc.dirichlet_eigenvalues(medium, 0, (0.5, 1.5), n_scan=41)
    finally:
        tracer.uninstall()
    assert qc.phase_shifts is original
    assert max(abs(d) for d in shifts.delta) < 1e-10
    metrics = tracer.layer_metrics(1)
    assert metrics["observables.calls"][0] == 1
    assert metrics["propagate.solves"][0] == metrics["kernel.calls"][0]
    assert metrics["special.calls"][0] == 4
    assert metrics["spectral.roots"][0] == 1
    assert metrics["spectral.root_evals_per_root"][0] > 0
    assert metrics["kernel.shells"][0] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(metrics) | {"trace.overhead_ratio"}


def test_repeated_kernel_inputs_count_as_repeats():
    medium = qc.LayeredMedium((qc.Shell(0.0, 3.0, 1.0, 1.0),))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.start_job(0)
        for _ in range(3):
            qc.propagate_acoustic(medium, 1, 0.5)
        tracer.start_job(1)
        qc.propagate_acoustic(medium, 1, 0.5)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(2)
    assert metrics["propagate.repeat_ratio"][0] == pytest.approx(2 / 4)


# --- tail percentile --------------------------------------------------------------

def test_tail_has_ten_jobs_beyond_it():
    value, pct, beyond = tail_latency(range(100))
    assert (value, pct, beyond) == (89, 90.0, 10)


@pytest.mark.parametrize("n", [1, 2, 5, 11, 16, 20, 21])
def test_short_runs_report_the_median_as_the_tail(n):
    xs = list(range(n))
    value, pct, beyond = tail_latency(xs)
    assert value == xs[n // 2]
    assert value >= statistics.median(xs)
    assert beyond == n - 1 - n // 2
    assert pct == pytest.approx(100.0 * (n // 2 + 1) / n)


def test_tail_moves_above_the_median_once_there_are_enough_jobs():
    value, pct, beyond = tail_latency(range(22))
    assert (value, beyond) == (11, 10)
    with pytest.raises(ValueError):
        tail_latency([])


# --- correctness gates ---------------------------------------------------------

NEUMANN_JOB = {"system": "neumann-trap", "l": 0, "window": [0.4, 0.55]}


def _neumann_output(E_pole):
    pole = SpectralPoint(E_pole, 0, "interior", 0.96, "dirichlet-b3")
    report = ResonanceReport(0, E_pole, 9.2e5, pole, -0.99988, (), ())
    return {"report": report, "levels": [pole],
            "traps": [workloads.TRAP_ENERGIES["neumann-trap"][0]],
            "exponent": -0.99988}


@pytest.fixture(scope="module")
def trap_scan():
    return workloads.TrapScan()


def test_trap_scan_gate_accepts_the_reference_result(trap_scan):
    E = workloads.DIRICHLET_LEVELS[("neumann-trap", 0)][0][0]
    assert trap_scan.check(NEUMANN_JOB, _neumann_output(E)) == []


def test_trap_scan_gate_rejects_a_shifted_pole(trap_scan):
    E = workloads.DIRICHLET_LEVELS[("neumann-trap", 0)][0][0] + 1e-3
    problems = trap_scan.check(NEUMANN_JOB, _neumann_output(E))
    assert any("not at E = 0.44738" in p for p in problems)
    assert any("levels" in p for p in problems)


def test_trap_scan_gate_rejects_a_flat_exponent(trap_scan):
    E = workloads.DIRICHLET_LEVELS[("neumann-trap", 0)][0][0]
    out = _neumann_output(E)
    out["exponent"] = -0.98
    assert trap_scan.check(NEUMANN_JOB, out) == [
        "fit exponent -0.98 not -1 +- 0.01"]


def test_trap_scan_job_passes_its_gate(trap_scan):
    job = {"system": "dirichlet-trap", "l": 0, "window": [0.3, 0.42]}
    assert trap_scan.check(job, trap_scan.run(job)) == []


def test_config_sweep_gate_rejects_a_broken_gauge():
    sweep = workloads.ConfigSweep()
    job = sweep.warmup_job()
    out = sweep.run(job)
    assert sweep.check(job, out) == []
    out["potential"]["delta"] = tuple(d + 1e-6 for d in
                                      out["potential"]["delta"])
    out["acoustic"]["optical_defect"] = math.nan
    problems = sweep.check(job, out)
    assert any("gauge equivalence of delta" in p for p in problems)
    assert any("optical-theorem" in p for p in problems)


def test_cli_replay_gate(tmp_path):
    replay = workloads.CliReplay(tmp_path)
    job = replay.warmup_job()
    out = replay.run(job)
    assert replay.check(job, out) == []
    name = "phase_shifts.tsv"
    out["files"]["replay"][name] = out["files"]["replay"][name] + b"0"
    assert replay.check(job, out) == [f"{name} differs on replay"]
    assert replay.check(dict(job, expect=2), out) == [
        "exit code 0, expected 2"]
    replay.close()
    assert not replay.scratch.exists()


class _RaisingCheck(workloads.Workload):
    def run(self, job):
        return {"delta": ()}

    def check(self, job, out):
        return [max(out["delta"])]     # max() of an empty tuple raises


def test_a_check_that_raises_counts_the_job_as_failed():
    latency, problems, job = run.run_one(_RaisingCheck(), {"n": 1})
    assert latency >= 0.0 and job == {"n": 1}
    assert len(problems) == 1 and "ValueError" in problems[0]


# --- comparison ----------------------------------------------------------------

def _summary(backend, **medians):
    """A one-workload summary; each metric is (q1, median, q3)."""
    metrics = {}
    for name, (q1, q2, q3) in medians.items():
        metrics[name] = {"median": q2, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / q2, "unit": "s"}
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        metrics.setdefault(m["name"], {"median": 1.0, "q1": 1.0, "q3": 1.0,
                                       "spread": 0.0, "unit": m["unit"]})
    return {"stamp": {"backend": backend},
            "workloads": {"trap-scan": {"metrics": metrics}}}


@pytest.mark.parametrize("base, new, code", [
    ((0.98, 1.0, 1.02), (1.05, 1.1, 1.15), 0),     # steady, within bound
    ((0.98, 1.0, 1.02), (1.3, 1.4, 1.5), 1),       # steady, past bound
    ((0.7, 1.0, 1.3), (1.0, 1.1, 1.2), 3),         # wide base: unresolved
    ((0.7, 1.0, 1.3), (1.9, 2.0, 2.1), 1),         # beyond its worse quartile
])
def test_compare_never_passes_a_slowdown_silently(base, new, code, capsys):
    assert compare.compare(_summary("python", job_p50_s=base),
                           _summary("python", job_p50_s=new)) == code


def test_compare_refuses_different_backends():
    assert compare.compare(_summary("python"), _summary("cython")) == 2


def test_speed_factor_is_reference_over_the_median_probe():
    sp = speed.Speed()
    sp.sample(force=True)
    sp.sample()                        # within EVERY_S of the last: skipped
    assert len(sp.samples) == 1 and sp.spent > 0.0
    sp.samples = [speed.REF_S / 2, speed.REF_S * 2, speed.REF_S * 4]
    assert sp.factor() == pytest.approx(0.5)
