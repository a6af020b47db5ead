"""Tests of the benchmark itself: span arithmetic, patching, controls, layout.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from spans import TARGETS, Span, Tracer, bindings, layer_metrics, layer_unit, self_times
import workloads
from workloads import WORKLOADS, report_sha256

ROOT = Path(__file__).resolve().parents[2]
SEED = 3

# same code paths as the benchmark's workloads at a fraction of the work
SMALL = {
    "battery": replace(WORKLOADS["battery"], trials=1),
    "hemisphere": replace(
        WORKLOADS["hemisphere"], draws=100, cholesky_draws=200, empirical_draws=20
    ),
    "wide-net": replace(WORKLOADS["wide-net"], net_size=300),
}

ALL_SPANS = {t.name for t in TARGETS}
HEMISPHERE_ONLY = {
    "processes.estimate_hemisphere_width_empirical",
    "processes.hemisphere_empirical_samples",
}
# spans each workload must record at least once; together they cover every target
EXPECTED_SPANS = {
    "battery": ALL_SPANS - HEMISPHERE_ONLY,
    "hemisphere": HEMISPHERE_ONLY | {
        "processes.estimate_hemisphere_width_cholesky",
        "processes.covariance_matrix",
        "sphere.pairwise_geodesic",
        "sphere.uniform_sphere_rows",
        "rng.substream",
    },
    "wide-net": ALL_SPANS - HEMISPHERE_ONLY - {
        "sphere.transversal_mask",
        "sphere.wedge_mask",
        "verify.linear_l1_rip",
        "nets.shatter_check",
    },
}


def snapshot():
    return {(id(owner), attr): raw for t in TARGETS for owner, attr, raw in bindings(t)}


@pytest.fixture(scope="module", params=sorted(SMALL))
def passes(request):
    workload = SMALL[request.param]
    untraced = workload.run(SEED)
    before = snapshot()
    tracer = Tracer()
    with tracer.installed():
        traced = workload.run(SEED, span=tracer.span)
    return request.param, untraced, traced, tracer, before


def test_self_times_of_nested_synthetic_spans():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.5, 1),
        Span("a", 5.0, 7.0, 0),
        Span("b", 11.0, 12.0, None),
    ]
    out = self_times(spans)
    assert out["root"] == (1, 10.0 - 3.0 - 2.0)
    assert out["a"] == (2, (3.0 - 1.5) + 2.0)
    assert out["b"] == (2, 1.5 + 1.0)
    assert sum(s for _, s in out.values()) == pytest.approx(10.0 + 1.0)


def test_tracer_nests_spans_by_call_order():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("mid"):
            with tracer.span("inner"):
                pass
        with tracer.span("mid"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None), ("mid", 0), ("inner", 1), ("mid", 0),
    ]
    out = self_times(tracer.spans)
    assert out == {"outer": (1, 10.0 - 4.0 - 1.0), "mid": (2, (4.0 - 2.0) + 1.0), "inner": (1, 2.0)}


def test_installed_patches_callers_and_restores_after_an_error():
    import onebit.harness
    import onebit.verify

    before = snapshot()
    original = onebit.verify.sign_matrix
    with pytest.raises(KeyError):
        with Tracer().installed():
            assert onebit.verify.sign_matrix is not original
            assert onebit.harness.linear_l1_rip.__wrapped__ is onebit.verify.linear_l1_rip.__wrapped__
            raise KeyError("boom")
    assert snapshot() == before


def test_traced_pass_restores_originals_and_reproduces_output(passes):
    _, untraced, traced, _, before = passes
    assert snapshot() == before
    assert report_sha256(traced.report) == report_sha256(untraced.report)
    assert traced.checks == untraced.checks


def test_every_expected_span_records_a_call(passes):
    name, _, _, tracer, _ = passes
    calls = {key: n for key, (n, _) in self_times(tracer.spans).items()}
    missing = sorted(s for s in EXPECTED_SPANS[name] if calls.get(s, 0) < 1)
    assert not missing, f"{name}: no calls recorded for {missing}"


def test_expected_spans_cover_every_target():
    assert set().union(*EXPECTED_SPANS.values()) == ALL_SPANS


def test_layer_metrics_account_for_run_time(passes):
    _, _, _, tracer, _ = passes
    spans = tracer.spans
    run_s = max(s.end for s in spans) - min(s.start for s in spans) + 0.25
    layers = layer_metrics(tracer, run_s, SMALL["battery"].experiments)
    attributed = sum(layers[f"{t.name}.self_s"] for t in TARGETS)
    total = attributed + layers["harness.self_s"] + layers["trace.unattributed_s"]
    assert total == pytest.approx(run_s, abs=1e-9)
    assert layers["trace.unattributed_s"] >= 0.25


def test_counters_are_exact():
    tracer = Tracer()
    with tracer.installed():
        battery = SMALL["battery"].run(SEED, span=tracer.span)
        SMALL["hemisphere"].run(SEED)
    layers = layer_metrics(tracer, 1.0, SMALL["battery"].experiments)
    realized = [
        r["value"] for r in battery.report
        if r["statistic"].startswith("shatter_n") or r["statistic"] == "dichotomies_8pts"
    ]
    assert layers["nets.shatter_check.dichotomies"] == sum(realized)
    assert layers["nets.shatter_check.budget"] == len(realized) * 20_000
    k, m = 210, 2773  # default rip net (200 points plus 10 companions) and budget
    assert layers["verify.linear_l1_rip.computed_gb"] == pytest.approx(
        8 * (k * m + 2 * k * k * m) / 1e9
    )
    hemi = SMALL["hemisphere"]
    ambient = workloads.HEMI_N + 1
    expected = sum(
        draws * workloads.HEMI_M_INNER * (8 * ambient + 9 * k)
        for draws, k in (
            (hemi.draws, workloads.HEMI_POINTS),
            (hemi.empirical_draws, workloads.HEMI_SET_POINTS),
        )
    )
    assert layers["processes.hemisphere_empirical_samples.computed_gb"] == pytest.approx(
        expected / 1e9
    )


@pytest.mark.parametrize("name", sorted(SMALL))
def test_negative_control_fails_a_check(name):
    workload = SMALL[name]
    assert all(c.passed for c in workload.run(SEED).checks)
    assert not all(c.passed for c in workload.run(SEED, control=True).checks)


def test_hemisphere_limit_is_a_bonferroni_share():
    tail = math.erfc(workloads.Z_LIMIT / math.sqrt(2.0))
    assert tail * workloads.NUM_CHECKS == pytest.approx(workloads.FALSE_ALARM)
    checks = SMALL["hemisphere"].run(SEED).checks
    assert len(checks) == workloads.NUM_CHECKS


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = list(layer_metrics(Tracer(), 1.0, WORKLOADS["battery"].experiments))
    keys.append("trace.overhead_s")
    assert [m["name"] for m in spec["per_layer"]] == keys
    assert all(m["unit"] == layer_unit(m["name"]) for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS) == sorted(WORKLOADS)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("seconds", ["0", str(run.MAX_SECONDS + 1)])
def test_run_refuses_seconds_it_cannot_fit(seconds):
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "battery", "--seed", "0", "--seconds", seconds])
    assert exc.value.code == 2
