"""Self-tests of the benchmark harness, references and tracer.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import harness  # noqa: E402
import references as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from harness import Case, run_case, run_passes  # noqa: E402

import latticeframes as lf  # noqa: E402
from latticeframes.errors import TailNotAchievable  # noqa: E402


def fake_classification(verdict, lower, upper, zero_fraction=0.0):
    return SimpleNamespace(verdict=SimpleNamespace(value=verdict), lower=lower,
                           upper=upper, evidence={"zero_fraction": zero_fraction})


def riesz_check(result):
    return workloads.check_classification(result, "RieszSequence", 1 / 3, 1.0)


def test_right_verdict_accepted():
    case = Case("ok", lambda: fake_classification("RieszSequence", 1 / 3, 1.0), riesz_check)
    assert run_case(case, 5.0).status == "ok"


@pytest.mark.parametrize("verdict, lower", [("FrameSequence", 1 / 3), ("RieszSequence", 0.3)])
def test_wrong_verdict_or_bound_rejected(verdict, lower):
    case = Case("wrong", lambda: fake_classification(verdict, lower, 1.0), riesz_check)
    out = run_case(case, 5.0)
    assert out.status == "wrong" and out.failed
    summary = harness.end_to_end([[out]])
    assert summary["failed"] == 1 and summary["ok_frac"] == 0.0


def test_package_error_is_a_failure_not_a_crash():
    def run():
        raise TailNotAchievable("tail above target at the radius cap")

    out = run_case(Case("raises", run, riesz_check), 5.0)
    assert out.status == "error"
    assert "TailNotAchievable" in out.detail


def test_sleeping_case_times_out():
    start = time.perf_counter()
    out = run_case(Case("sleeps", lambda: time.sleep(30), lambda r: None), 0.3)
    assert out.status == "timeout"
    assert time.perf_counter() - start < 5.0


def test_sleeping_child_process_is_stopped():
    # the CLI cases call subprocess.run, which kills and reaps its child when
    # the alarm interrupts it; returning early shows the child did not finish
    def run():
        subprocess.run([sys.executable, "-c", "import time; time.sleep(30)"])

    start = time.perf_counter()
    out = run_case(Case("child sleeps", run, lambda r: None), 0.5)
    assert out.status == "timeout"
    assert time.perf_counter() - start < 10.0


def test_cases_after_the_deadline_are_timeouts():
    cases = [Case("fast", lambda: None, lambda r: None)] * 2
    passes = run_passes(cases, seconds=0.0, min_passes=1,
                        deadline=time.perf_counter() - 1.0, case_budget=5.0)
    assert [o.status for o in passes[0]] == ["timeout", "timeout"]


def test_passes_repeat_until_min_passes():
    calls = []
    cases = [Case("count", lambda: calls.append(1), lambda r: None)]
    passes = run_passes(cases, seconds=0.0, min_passes=3,
                        deadline=time.perf_counter() + 60, case_budget=5.0)
    assert len(passes) == 3 and len(calls) == 3


def test_bspline_references_match_closed_forms():
    for degree, lower in ref.BSPLINE_LOWER.items():
        phi = ref.bspline_phi(degree, [[1.0]], 64)
        assert phi.min() == pytest.approx(lower, rel=1e-12)
        assert phi.max() == pytest.approx(1.0, rel=1e-12)
    phi2 = ref.bspline_phi(1, np.eye(2), 16)
    assert phi2.min() == pytest.approx(1 / 9, rel=1e-12)


def test_gauss_hat_inner_is_symmetric_and_sums_to_integral():
    vals = [ref.gauss_hat_inner(k) for k in range(-10, 11)]
    assert vals == pytest.approx(vals[::-1], abs=1e-15)
    # sum_k hat(x - k) = 1, so the inner products add up to integral exp(-pi x^2) = 1
    assert sum(vals) == pytest.approx(1.0, abs=1e-12)


def test_sampled_phi_stays_riesz_for_every_seed():
    # the workload must not fail for any seed: the sampled table keeps a
    # positive floor well above the classifier's frame floor
    for seed in range(50):
        samples = workloads.sampled_values(np.random.default_rng(seed), 17, 0.25)
        phi = ref.sampled_phi(samples, -2.0, 0.25, 2.5, 1.0, 256)
        assert phi.min() > 1e-3 * phi.max()


def test_same_seed_same_inputs():
    a = [c.name for c in workloads.phi_grid(lf, 7)]
    b = [c.name for c in workloads.phi_grid(lf, 7)]
    assert a == b


def test_tracer_records_nested_spans_and_restores_originals():
    original = lf.compute_phi
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.in_case("tiny"):
            table = lf.compute_phi(lf.BSpline(1), lf.new_lattice([[1.0]]), 8)
    assert lf.compute_phi is original
    spans = tracer.take()
    names = [s[0] for s in spans]
    assert "periodization.compute_phi" in names and "generators.tail_bound" in names
    counted = tracing.span_table(spans)["cases"]["tiny"]
    fourier_points = sum(s[6]["points"] for s in spans if s[0] == "generators.fourier")
    radius = table.trunc_radius
    assert counted["lattice_sum_terms_points"] == fourier_points
    assert fourier_points >= (2 * radius + 1) * 8  # at least the summed lattice
    assert counted["tail_bound_calls_in_truncation"] >= 1
    metrics = tracing.layer_metrics(spans)
    assert metrics["periodization.trunc_radius_max"] == radius
    assert 0.0 <= metrics["periodization.pilot_share"] < 1.0
