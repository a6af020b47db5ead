"""Harness and CLI: config resolution, reports, determinism, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from onebit import (
    EXPERIMENTS, ExperimentConfig, ReportRow, blas, harness, nets, pairwise_geodesic, resolve_m,
    run, run_experiment, substream, summarize, uniform_sphere_rows, verify,
)
from onebit.cli import main, parse_config
from onebit.harness import (
    EXPERIMENT_ORDER, MAX_DIRECTION_BYTES, MAX_TRIALS, REGISTRY, default_out_path,
)
from onebit.sphere import CLOSE_PAIRS

# --- measurement budget resolution -----------------------------------------------


def _cfg(**kw):
    return ExperimentConfig(**{"experiment": "rip", "delta": 0.2, **kw})


def test_resolve_m_rip_family():
    cfg = _cfg()
    assert resolve_m("rip", cfg, 64, 4) == 2773
    assert resolve_m("sign-product", cfg, 64, 4) == 2773
    assert resolve_m("linear-rip", cfg, 64, 4) == 2773
    expected = math.ceil(10.0 * 0.2**-2 * 4 * math.log(64 / 4))
    assert resolve_m("rip", cfg, 64, 4) == expected


def test_resolve_m_small_cells():
    cfg = ExperimentConfig(experiment="small-cells", delta=0.3, safety=20.0, net_size=300)
    assert resolve_m("small-cells", cfg, 16, None) == 381


def test_resolve_m_fixed_families():
    cfg = ExperimentConfig(experiment="crofton")
    assert resolve_m("crofton", cfg, 3, None) == 100_000
    assert resolve_m("transversal", cfg, 3, None) == 100_000
    assert resolve_m("widths", cfg, 64, 4) == 2000
    assert resolve_m("sudakov", cfg, 64, 4) == 2000
    # vc and nets draw no directions, so they resolve to 0 even when given an m
    for name in ("vc", "nets"):
        assert resolve_m(name, dataclasses.replace(cfg, delta=0.2, m=5), 64, None) == 0


def test_resolve_m_integer_passthrough():
    cfg = _cfg(m=777)
    assert resolve_m("rip", cfg, 64, 4) == 777


def test_resolve_m_needs_delta():
    with pytest.raises(ValueError, match="--delta is required for rip"):
        resolve_m("rip", ExperimentConfig(experiment="rip"), 64, 4)
    # all runs rip at delta 0.2, and resolve_m reads out what it runs
    assert resolve_m("rip", ExperimentConfig(experiment="all"), 64, 4) == 2773


def test_resolve_m_embed():
    # ceil(safety * delta^-2 * log k) for a finite set of k = net_size points
    cfg = ExperimentConfig(experiment="embed", delta=0.1, net_size=2)
    assert resolve_m("embed", cfg, 64, None) == 694
    cfg = ExperimentConfig(experiment="embed", delta=0.2, net_size=100)
    assert resolve_m("embed", cfg, 64, None) == 1152


@pytest.mark.parametrize("m", ["auto", 37])
@pytest.mark.parametrize(
    "experiment", ["small-cells", "rip", "sign-product", "linear-rip", "metric-ratio", "embed"]
)
def test_resolved_m_is_the_drawn_m(experiment, m):
    cfg = ExperimentConfig(experiment=experiment, delta=0.3, m=m, trials=1, net_size=12)
    eff = harness._effective(experiment, cfg)
    drawn = [r.value for r in run_experiment(experiment, cfg)[0] if r.statistic == "m"]
    assert drawn == [resolve_m(experiment, cfg, eff.n, eff.s)]


# --- config validation -----------------------------------------------------------


def test_config_rejects_unknown_experiment():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="banana").validate()


@pytest.mark.parametrize(
    "kw",
    [
        {"n": 0},
        {"s": 65},
        {"m": 0},
        {"m": "bogus"},
        {"delta": 0.0},
        {"delta": 1.0},
        {"trials": 0},
        {"safety": 0.0},
        {"net_size": 0},
        {"format": "xml"},
        {"safety": math.inf},
        {"safety": math.nan},
        {"safety": 1e308},  # auto m overflows to inf
        {"experiment": "small-cells", "safety": 1e308},
        {"seed": -1},
        {"seed": 2**64},
        {"trials": 2.5},
        {"net_size": 20.0},
        {"trials": np.int64(2)},
        {"n": True},
        {"m": 3.0},
        {"seed": 1.5},
        {"delta": "0.2"},
        {"out_path": 5},
        {"s": 2.5},
        {"safety": 10**400},  # past the float range
        {"format": None},
        {"delta": 1e-300},  # delta**-2 overflows the auto budget
        {"trials": MAX_TRIALS + 1},
        {"experiment": "transversal", "n": 5},  # the quarter-density law needs S^3
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        _cfg(**kw).validate()


def test_trial_limit_is_inclusive():
    _cfg(trials=MAX_TRIALS).validate()
    with pytest.raises(ValueError, match=f"trials must be at most {MAX_TRIALS}, got 10"):
        ExperimentConfig(experiment="crofton", trials=10**12).validate()


def test_transversal_runs_only_on_the_3_sphere():
    ExperimentConfig(experiment="transversal").validate()
    ExperimentConfig(experiment="transversal", n=3).validate()
    ExperimentConfig(experiment="crofton", n=5).validate()  # the wedge law holds on any sphere
    for n in (2, 5):
        with pytest.raises(ValueError, match=f"transversal needs n = 3, got n={n}"):
            ExperimentConfig(experiment="transversal", n=n).validate()


def test_config_delta_requirements():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="rip").validate()
    ExperimentConfig(experiment="crofton").validate()  # no delta needed
    ExperimentConfig(experiment="all").validate()  # fills a default later
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nets", delta=0.5).validate()
    ExperimentConfig(experiment="nets", delta=0.49).validate()


def test_default_out_path():
    assert default_out_path(ExperimentConfig(experiment="rip", delta=0.2)) == "onebit-rip.csv"
    cfg = ExperimentConfig(experiment="nets", delta=0.2, format="json")
    assert default_out_path(cfg) == "onebit-nets.json"


# --- verdict and summary logic ---------------------------------------------------


def test_verdict_crossing_allows_rare_misses():
    crofton, transversal = REGISTRY["crofton"].verdict, REGISTRY["transversal"].verdict
    assert crofton([True] * 19 + [False])
    assert not crofton([True] * 18 + [False] * 2)
    assert transversal([True] * 95 + [False] * 5)
    assert not transversal([True] * 94 + [False] * 6)


def test_verdict_strict_families():
    for name in ("widths", "sudakov", "vc", "nets"):
        assert REGISTRY[name].verdict([True, True])
        assert not REGISTRY[name].verdict([True, False])


def test_verdict_rate_families():
    rip = REGISTRY["rip"].verdict
    assert rip([True] * 9 + [False])
    assert not rip([True] * 8 + [False] * 2)
    assert rip([])


def test_summarize_scored_rows_only():
    rows = [
        ReportRow("rip", 0, 0, "m", 2773.0, True),
        ReportRow("rip", 0, 0, "sup_discrepancy", 0.15, True),
        ReportRow("rip", 0, 1, "sup_discrepancy", 0.25, False),
    ]
    summary = summarize(rows)
    # the huge unscored m value must not leak into either field
    assert summary["pass_rate"] == 0.5
    assert summary["max_discrepancy"] == 0.25
    assert summarize([]) == {"pass_rate": 1.0, "max_discrepancy": 0.0}


# --- report files ----------------------------------------------------------------


def test_csv_report_format(tmp_path):
    out = tmp_path / "crofton.csv"
    cfg = ExperimentConfig(
        experiment="crofton", m=500, trials=2, seed=1, out_path=str(out)
    )
    assert run(cfg) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "experiment,seed,trial,statistic,value,pass"
    body = [line.split(",") for line in lines[1:]]
    assert len(body) == 2 * 4  # four statistics per trial
    keys = [(r[0], int(r[1]), int(r[2]), r[3]) for r in body]
    assert keys == sorted(keys)
    for r in body:
        float(r[4])  # value column parses
        assert r[5] in ("0", "1")


def test_json_report_schema(tmp_path):
    out = tmp_path / "nets.json"
    cfg = ExperimentConfig(
        experiment="nets", delta=0.2, net_size=40, trials=2, seed=3,
        out_path=str(out), format="json",
    )
    status = run(cfg)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"config", "rows", "summary"}
    assert doc["config"]["experiment"] == "nets"
    assert doc["config"]["out_path"] == str(out)
    assert set(doc["summary"]) == {"pass_rate", "max_discrepancy"}
    for row in doc["rows"]:
        assert set(row) == {"experiment", "seed", "trial", "statistic", "value", "passed"}
    assert status in (0, 1)
    sandwich = [r for r in doc["rows"] if r["statistic"] == "sandwich_ok"]
    assert len(sandwich) == 2 and all(r["passed"] for r in sandwich)


def test_reports_are_deterministic_across_runs_and_workers(tmp_path):
    out = tmp_path / "report.csv"
    cfg = ExperimentConfig(
        experiment="crofton", n=2, m=2000, trials=6, seed=7, out_path=str(out)
    )
    run(cfg)
    first = out.read_bytes()
    run(cfg)
    assert out.read_bytes() == first
    run(cfg, workers=3)
    assert out.read_bytes() == first


def test_json_rerun_to_same_path_identical(tmp_path):
    out = tmp_path / "report.json"
    cfg = ExperimentConfig(
        experiment="nets", delta=0.25, net_size=30, trials=2, seed=5,
        out_path=str(out), format="json",
    )
    run(cfg)
    first = out.read_bytes()
    run(cfg, workers=4)
    assert out.read_bytes() == first


def test_run_reports_failure_status(tmp_path):
    # three one-bit measurements cannot resolve distances to 0.05
    out = tmp_path / "fail.csv"
    cfg = ExperimentConfig(
        experiment="rip", n=8, s=2, m=3, delta=0.05, trials=3,
        net_size=30, seed=2, out_path=str(out),
    )
    assert run(cfg) == 1
    assert out.exists()


def test_run_experiment_row_structure():
    cfg = ExperimentConfig(experiment="vc", trials=1, seed=4)
    rows, verdict = run_experiment("vc", cfg)
    stats = [r.statistic for r in rows]
    assert stats == [
        "shatter_n2", "shatter_n3", "shatter_n4", "shatter_n5",
        "dichotomies_8pts", "cover_count_ok",
    ]
    assert verdict


@pytest.mark.parametrize("experiment", ["crofton", "transversal"])
def test_crossing_trial_draws_its_pair_as_the_first_two_rows(experiment):
    # the pair is the first uniform_sphere_rows draw of the trial's stream, and
    # the distance row is pairwise_geodesic's entry for it, bit for bit
    cfg = ExperimentConfig(experiment=experiment, m=300, trials=20, seed=9)
    rows, _ = run_experiment(experiment, cfg)
    distances = {r.trial: r.value for r in rows if r.statistic == "distance"}
    assert sorted(distances) == list(range(20))
    for trial, value in distances.items():
        pair = uniform_sphere_rows(3, 2, substream(9, experiment, trial))
        assert value == float(pairwise_geodesic(pair)[0, 1])


def test_every_scored_statistic_occurs_in_rows():
    # a scored name that no row carries would leave its verdict vacuously true
    cfg = ExperimentConfig(experiment="all", delta=0.3, m=200, trials=1, net_size=20, seed=1)
    for name, spec in REGISTRY.items():
        rows, _ = run_experiment(name, cfg)
        missing = set(spec.scored) - {r.statistic for r in rows}
        assert not missing, (name, missing)


def test_metric_ratio_without_a_pair_fails(monkeypatch):
    # a packing left with one center measures no pair: that trial must not pass
    real_packing = harness.greedy_packing

    def one_center(points, delta, rng):
        report = real_packing(points, delta, rng)
        return dataclasses.replace(
            report, packing_size=1,
            centers=report.centers.subset([0]), center_indices=report.center_indices[:1],
        )

    monkeypatch.setattr(harness, "greedy_packing", one_center)
    cfg = ExperimentConfig(experiment="metric-ratio", delta=0.2, m=200, trials=2, net_size=20)
    rows, verdict = run_experiment("metric-ratio", cfg)
    assert [r.value for r in rows if r.statistic == "net_points"] == [1.0, 1.0]
    assert [r.passed for r in rows if r.statistic == "sup_ratio"] == [False, False]
    assert not verdict


def test_metric_ratio_fails_on_a_constant_sign_map(monkeypatch):
    # every pair agrees on all m signs, so every Hamming distance collapses to
    # 0 and every ratio |0 - d| / d is exactly 1: the flag must fail from below
    cfg = ExperimentConfig(experiment="metric-ratio", delta=0.2, trials=5, seed=3)
    rows, verdict = run_experiment("metric-ratio", cfg)
    assert verdict and all(r.value < 0.2 for r in rows if r.statistic == "sup_ratio")
    monkeypatch.setattr(
        verify,
        "_agreement_tile",
        lambda bits, lo, hi, buf: np.full((hi - lo, len(bits) - lo), float(bits.shape[1])),
    )
    rows, verdict = run_experiment("metric-ratio", cfg)
    assert [(r.value, r.passed) for r in rows if r.statistic == "sup_ratio"] == [(1.0, False)] * 5
    assert not verdict


def test_nets_fails_when_the_coarse_packing_outgrows_the_fine(monkeypatch):
    # sandwich_ok scores |packing(2 delta)| <= |packing(delta)|, the one inequality that can fail
    real_packing = nets._greedy_packing

    def inflated_coarse(points, dist, delta, rng):
        report = real_packing(points, dist, delta, rng)
        if delta == 0.4:  # the 2 delta scale: more centers than any packing of the points
            return dataclasses.replace(report, packing_size=len(points) + 1)
        return report

    monkeypatch.setattr(nets, "_greedy_packing", inflated_coarse)
    cfg = ExperimentConfig(experiment="nets", delta=0.2, trials=2, net_size=20)
    rows, verdict = run_experiment("nets", cfg)
    assert [r.value for r in rows if r.statistic == "packing_2delta"] == [21.0, 21.0]
    assert [r.passed for r in rows if r.statistic == "sandwich_ok"] == [False, False]
    assert not verdict


def test_vc_fails_on_coplanar_points(monkeypatch):
    # 8 points on the small circle z = 0.3 lift into a 3-dimensional span, where
    # Cover's count is 2 * (1 + 7 + 21) = 58 instead of 128
    angles = 2.0 * math.pi * np.arange(8) / 8
    radius = math.sqrt(1.0 - 0.3**2)
    ring = np.column_stack([radius * np.cos(angles), radius * np.sin(angles), np.full(8, 0.3)])
    monkeypatch.setattr(harness.PointSet, "uniform", classmethod(lambda cls, n, k, rng: cls(ring)))
    cfg = ExperimentConfig(experiment="vc", trials=2)
    rows, verdict = run_experiment("vc", cfg)
    assert [r.value for r in rows if r.statistic == "dichotomies_8pts"] == [58.0, 58.0]
    assert [r.passed for r in rows if r.statistic == "cover_count_ok"] == [False, False]
    assert all(r.passed for r in rows if r.statistic.startswith("shatter_n"))
    assert not verdict


# --- CLI -------------------------------------------------------------------------


def test_parse_config_precedence(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"trials": 5, "seed": 9, "delta": 0.25, "workers": 3}),
        encoding="utf-8",
    )
    cfg, workers = parse_config(
        ["rip", "--config", str(config), "--trials", "7"]
    )
    assert cfg.trials == 7  # flag beats file
    assert cfg.seed == 9
    assert cfg.delta == 0.25
    assert workers == 3


def test_parse_config_defaults():
    cfg, workers = parse_config(["crofton"])
    assert cfg.experiment == "crofton"
    assert cfg.trials == 20 and cfg.m == "auto" and cfg.seed == 0
    assert workers == 1
    assert cfg.out_path is None


def test_parse_config_out_flag():
    cfg, _ = parse_config(["nets", "--delta", "0.2", "--out", "x.csv"])
    assert cfg.out_path == "x.csv"


def test_parse_config_rejects_unknown_config_key(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        parse_config(["crofton", "--config", str(config)])
    assert exc.value.code == 2


def test_parse_config_rejects_bad_config_types(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"delta": True}), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        parse_config(["crofton", "--config", str(config)])
    assert exc.value.code == 2
    config.write_text(json.dumps({"m": "sometimes"}), encoding="utf-8")
    with pytest.raises(SystemExit):
        parse_config(["crofton", "--config", str(config)])
    config.write_text(json.dumps({"seed": -1}), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        parse_config(["crofton", "--config", str(config)])
    assert exc.value.code == 2


def test_parse_config_accepts_auto_m_from_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"m": "auto", "net_size": 50}), encoding="utf-8")
    cfg, _ = parse_config(["crofton", "--config", str(config)])
    assert cfg.m == "auto" and cfg.net_size == 50


def test_seed_environment_fallback(monkeypatch):
    monkeypatch.setenv("ONEBIT_SEED", "42")
    cfg, _ = parse_config(["crofton"])
    assert cfg.seed == 42
    cfg, _ = parse_config(["crofton", "--seed", "7"])
    assert cfg.seed == 7
    for bad in ("abc", "-1"):
        monkeypatch.setenv("ONEBIT_SEED", bad)
        with pytest.raises(SystemExit) as exc:
            parse_config(["crofton"])
        assert exc.value.code == 2
    monkeypatch.delenv("ONEBIT_SEED")
    cfg, _ = parse_config(["crofton"])
    assert cfg.seed == 0


def test_main_pass_and_print(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ONEBIT_SEED", raising=False)
    out = tmp_path / "r.csv"
    code = main(["crofton", "--m", "2000", "--trials", "2", "--out", str(out)])
    assert code == 0
    assert f"onebit crofton: pass (report: {out})" in capsys.readouterr().out


def test_main_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(
        ["rip", "--n", "8", "--s", "2", "--m", "3", "--delta", "0.05",
         "--trials", "3", "--net-size", "30", "--out", str(out)]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_main_usage_errors(capsys):
    assert main(["rip"]) == 2  # missing --delta
    assert main(["banana"]) == 2  # unknown experiment
    assert main(["crofton", "--m", "maybe"]) == 2
    capsys.readouterr()


def test_main_io_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "r.csv"
    code = main(["crofton", "--m", "500", "--trials", "1", "--out", str(missing)])
    assert code == 3
    assert "report write failed" in capsys.readouterr().err


def test_parse_config_rejects_bool_m(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"m": True}), encoding="utf-8")
    out = tmp_path / "r.csv"
    assert main(["crofton", "--config", str(config), "--out", str(out)]) == 2
    assert 'm must be an integer or "auto", got True' in capsys.readouterr().err
    assert not out.exists()


# delta / 4 underflows to 0: validation must reject it, not greedy_packing inside a trial
_SUBNORMAL_DELTA = [
    "metric-ratio", "--delta", "5e-324", "--m", "1", "--net-size", "2", "--trials", "1",
    "--seed", "0",
]


@pytest.fixture
def no_runs(monkeypatch):
    """Fail the test if a trial starts: each trial first draws its stream."""

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before validation finished")

    monkeypatch.setattr("onebit.harness.substream", no_trials)


@pytest.mark.parametrize(
    "argv",
    [
        ["all", "--n", "4", "--s", "4", "--delta", "0.2"],  # auto m = 0 at log(n/s) = 0
        ["rip", "--n", "4", "--s", "4", "--delta", "0.2"],
        ["all", "--delta", "0.6"],  # nets needs 2 * delta < 1
        ["rip", "--delta", "0.2", "--safety", "inf"],
        ["rip", "--delta", "0.2", "--safety", "nan"],
        ["small-cells", "--delta", "0.2", "--safety", "1e308"],  # auto m overflows
        ["crofton", "--seed", "-1"],
        ["crofton", "--m", "40000000"],  # explicit m over the direction limit
        ["embed", "--delta", "0.2", "--safety", "1e308"],  # auto m overflows
        ["embed", "--delta", "0.2", "--net-size", "1"],  # no pair to measure
        ["all", "--delta", "0.2", "--net-size", "1", "--m", "100", "--trials", "1"],
        ["nets", "--delta", "0.2", "--net-size", "1"],  # one point packs and covers trivially
        ["small-cells", "--delta", "0.2", "--net-size", "1", "--m", "50", "--trials", "3"],
        ["metric-ratio", "--delta", "0.2", "--net-size", "1", "--trials", "3"],
        ["widths", "--net-size", "1", "--trials", "2"],  # a single point has width 0
        ["sudakov", "--net-size", "1", "--trials", "2"],
        ["rip", "--delta", "1e-300", "--trials", "1"],  # delta**-2 overflows a float
        ["embed", "--delta", "1e-200", "--trials", "1"],
        ["crofton", "--workers", "0"],
        ["all", "--delta", "0.2", "--workers", "-2", "--trials", "1"],
        ["crofton", "--n", "0"],
        ["rip", "--delta", "0.2", "--s", "0"],
        ["transversal", "--n", "5", "--trials", "3", "--m", "2000"],  # exited 1 after its trials
        ["crofton", "--trials", str(10**12)],
        ["sign-product", "--delta", "0.2", "--m", "2000000"],  # (k, m) projections past 1 GiB
        ["widths", "--m", "2000000"],
        ["rip", "--delta", "0.2", "--n", "100000000", "--m", "1"],  # (k, n + 1) net points
        ["nets", "--delta", "0.2", "--n", "10000000000"],
        _SUBNORMAL_DELTA,  # the packing radius delta / 4 underflows to 0
        ["metric-ratio", "--delta", "1e-323", "--m", "1", "--net-size", "2", "--trials", "1"],
        ["vc", "--n", "9", "--m", "5", "--trials", "1"],  # flags that no trial reads
        ["nets", "--m", "5", "--delta", "0.2", "--trials", "1"],
        ["vc", "--s", "3", "--trials", "1"],
        ["crofton", "--s", "2", "--m", "1000", "--trials", "1"],
    ],
)
def test_main_rejects_unrunnable_experiments_before_any_work(argv, tmp_path, capsys, no_runs):
    out = tmp_path / "r.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rip", "--n", "0"], "n must be >= 1"),
        (["transversal", "--n", "5"], "transversal needs n = 3"),
        (["nets", "--config", "missing.json"], "[Errno 2] No such file"),
    ],
)
def test_config_errors_show_the_subcommand_usage(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: onebit {argv[0]} [-h] [--config CONFIG]")
    assert f"\nonebit: error: {message}" in err


@pytest.mark.parametrize("workers", [0, -1, True, 2.0, "2", None])
def test_workers_in_a_config_file_is_checked_like_the_flag(workers, tmp_path, capsys, no_runs):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"workers": workers}), encoding="utf-8")
    out = tmp_path / "r.csv"
    assert main(["crofton", "--config", str(config), "--out", str(out)]) == 2
    assert f"workers must be a positive integer, got {workers!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, True, 2.0, np.int64(2)])
def test_run_and_run_experiment_reject_bad_workers(workers, tmp_path, no_runs):
    cfg = ExperimentConfig(experiment="crofton", trials=1, out_path=str(tmp_path / "r.csv"))
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        run_experiment("crofton", cfg, workers=workers)
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        run(cfg, workers=workers)
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("kw", [{"trials": 0}, {"trials": -3}, {"delta": 1.5}, {"m": "banana"}])
def test_run_experiment_rejects_what_validate_rejects(kw, no_runs):
    # run_experiment is public: a config validate() rejects must not run, or pass vacuously
    cfg = ExperimentConfig(**{"experiment": "rip", "delta": 0.2, **kw})
    with pytest.raises(ValueError) as rejected:
        cfg.validate()
    with pytest.raises(ValueError, match=re.escape(str(rejected.value))):
        run_experiment("rip", cfg)


@pytest.mark.parametrize(
    "argv, label",
    [
        (["rip", "--delta", "1e-300"], "rip: m = inf"),
        (["embed", "--delta", "1e-200"], "embed: m = inf"),
    ],
)
def test_overflowing_budgets_name_the_direction_limit(argv, label, tmp_path, capsys, no_runs):
    out = tmp_path / "r.csv"
    assert main(argv + ["--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{label} directions of dimension" in err and "1 GiB direction limit" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, first_rejected",
    [("rip", "rip: m = 277258872223979"), ("all", "small-cells: m = 26491586832741")],
)
def test_oversized_m_names_the_direction_limit(
    experiment, first_rejected, tmp_path, capsys, no_runs
):
    out = tmp_path / "r.csv"
    argv = [experiment, "--delta", "0.2", "--safety", "1e12", "--trials", "1"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{first_rejected} directions of dimension 65" in err
    assert "1 GiB direction limit" in err
    assert not out.exists()


def test_direction_limit_is_inclusive():
    # crofton draws m x 4 float64 directions: 2**30 / 32 of them fill 1 GiB exactly
    most = MAX_DIRECTION_BYTES // 32
    ExperimentConfig(experiment="crofton", m=most).validate()
    with pytest.raises(ValueError, match="direction limit"):
        ExperimentConfig(experiment="crofton", m=most + 1).validate()


def test_projection_limit_is_inclusive():
    # sign-product projects k = 200 + CLOSE_PAIRS net points on m directions;
    # at n = 64 the (k, m) float64 projections bind before the (m, 65) directions
    k = 200 + CLOSE_PAIRS
    most = MAX_DIRECTION_BYTES // (8 * k)
    assert most == 639_132 and most * 65 * 8 < MAX_DIRECTION_BYTES
    ExperimentConfig(experiment="sign-product", delta=0.2, m=most).validate()
    with pytest.raises(ValueError, match=r"\(k, m\) float64 projections at m = 639133"):
        ExperimentConfig(experiment="sign-product", delta=0.2, m=most + 1).validate()


@pytest.mark.parametrize(
    "argv, remedy",
    [
        (["rip", "--delta", "1e-300"], "raise --delta, lower --safety or pass an explicit --m"),
        (["rip", "--delta", "0.2", "--m", str(10**12)], "lower --m"),
        (["crofton", "--n", "2000"], "lower --n or pass an explicit --m"),  # a fixed auto m
        (["embed", "--delta", "1e-200"], "raise --delta, lower --safety or pass an explicit --m"),
    ],
)
def test_direction_limit_names_its_cause(argv, remedy, tmp_path, capsys, no_runs):
    out = tmp_path / "r.csv"
    assert main(argv + ["--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "1 GiB direction limit" in err and err.rstrip().endswith(remedy)
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment",
    ["rip", "sign-product", "linear-rip", "small-cells", "nets", "metric-ratio", "embed"],
)
def test_oversized_net_names_net_size(experiment, tmp_path, capsys, no_runs):
    out = tmp_path / "r.csv"
    argv = [experiment, "--delta", "0.2", "--net-size", str(10**8), "--trials", "1"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{experiment}: --net-size {10**8} builds a net of" in err
    assert "lower --net-size" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, companions", [("small-cells", 0), ("rip", CLOSE_PAIRS)])
def test_net_limit_is_inclusive(experiment, companions):
    # (k, k) float64 matrices fill 1 GiB at k = isqrt(2**27) = 11585 points; a
    # sparse net adds CLOSE_PAIRS companions to net_size
    most = math.isqrt(MAX_DIRECTION_BYTES // 8) - companions
    ExperimentConfig(experiment=experiment, delta=0.2, net_size=most).validate()
    with pytest.raises(ValueError, match="--net-size"):
        ExperimentConfig(experiment=experiment, delta=0.2, net_size=most + 1).validate()


_FIELDS = tuple(field.name for field in dataclasses.fields(ExperimentConfig))
_FIELD_VALUES = st.one_of(
    st.integers(-3, 300),
    st.booleans(),
    st.floats(),  # inf and nan included
    st.sampled_from([1e-300, 0.2, 2.5, 20.0, 1e308]),
    st.integers(-3, 300).map(np.int64),
    st.sampled_from(["auto", "csv", "json", "0.2", "7", "rip", ""]),
    st.none(),
    st.sampled_from([2**64, 10**30, 10**400, -(10**400)]),
)


def _has_declared_type(name, value) -> bool:
    """The field types ExperimentConfig documents, written out independently of validate."""
    if value is None:
        return name in ("n", "s", "delta", "out_path")
    if isinstance(value, bool):
        return False
    if name in ("delta", "safety"):
        return isinstance(value, (int, float))
    if name == "m":
        return value == "auto" or isinstance(value, int)
    if name in ("experiment", "out_path", "format"):
        return isinstance(value, str)
    return isinstance(value, int)


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(experiment=st.sampled_from(EXPERIMENTS), name=st.sampled_from(_FIELDS), value=_FIELD_VALUES)
def test_config_fields_are_rejected_or_of_their_declared_type(
    experiment, name, value, tmp_path, monkeypatch, capsys, no_runs
):
    # one set of rules: a library config either raises ValueError from validate()
    # or holds declared types, and the same value in a --config file parses or exits 2
    monkeypatch.delenv("ONEBIT_SEED", raising=False)
    cfg = ExperimentConfig(**{"experiment": experiment, "delta": 0.2, name: value})
    try:
        cfg.validate()
        accepted = True
    except ValueError:
        accepted = False
    if accepted:
        assert all(_has_declared_type(field, getattr(cfg, field)) for field in _FIELDS)
    if name == "experiment":  # the subcommand, not a file key
        return
    config = tmp_path / "cfg.json"
    key = "out" if name == "out_path" else name
    config.write_text(json.dumps({"delta": 0.2, key: value}, default=int), encoding="utf-8")
    try:
        parsed, _ = parse_config([experiment, "--config", str(config)])
    except SystemExit as exc:
        assert exc.code == 2
        assert not accepted
    else:
        assert all(_has_declared_type(field, getattr(parsed, field)) for field in _FIELDS)
    capsys.readouterr()


@st.composite
def _small_argvs(draw):
    """Small argvs of every experiment: explicit m, as auto m draws 1e5 crossing directions."""
    argv = [draw(st.sampled_from(EXPERIMENTS))]
    n = draw(st.none() | st.integers(1, 8))
    s = draw(st.none() | st.integers(1, (n or 8) + 1))
    delta = draw(st.none() | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    for flag, value in (("--n", n), ("--s", s), ("--delta", delta)):
        if value is not None:
            argv += [flag, repr(value)]
    argv += ["--m", str(draw(st.integers(1, 300)))]
    argv += ["--net-size", str(draw(st.integers(1, 30)))]
    argv += ["--trials", str(draw(st.integers(1, 2)))]
    return argv + ["--seed", str(draw(st.integers(0, 3)))]


@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_small_argvs())
@example(argv=_SUBNORMAL_DELTA)
def test_cli_exits_0_1_or_2_and_rejects_before_any_trial(argv, tmp_path, monkeypatch, capsys):
    # an exception escaping main fails the property; exit 2 must come before the first stream
    monkeypatch.delenv("ONEBIT_SEED", raising=False)
    streams = []
    real_substream = harness.substream

    def spy(*labels):
        streams.append(labels)
        return real_substream(*labels)

    monkeypatch.setattr(harness, "substream", spy)
    out = tmp_path / "r.csv"
    out.unlink(missing_ok=True)
    code = main(argv + ["--out", str(out)])
    capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert streams == [] and not out.exists(), argv
    else:
        assert streams and out.exists(), argv


# (experiment, net_size, threads): k = net_size plus the net's companions, and
# an experiment without a net runs on one thread
_PINS = [
    ("crofton", 200, 1),
    ("vc", 2000, 1),
    ("rip", blas.PARALLEL_POINTS - CLOSE_PAIRS - 1, 1),
    ("rip", blas.PARALLEL_POINTS - CLOSE_PAIRS, 2),
    ("widths", blas.PARALLEL_POINTS - 1, 1),
    ("widths", blas.PARALLEL_POINTS, 2),
]


@pytest.mark.skipif(blas.openblas() is None, reason="numpy does not run on scipy-openblas")
@pytest.mark.parametrize("experiment, net_size, threads", _PINS)
@pytest.mark.parametrize("workers", [1, 2])
def test_trials_run_on_one_blas_thread_below_parallel_points_and_two_from_it(
    experiment, net_size, threads, workers, monkeypatch
):
    seen = []

    def probe(eff, rng):
        seen.append(blas.blas_threads())
        return []

    spec = dataclasses.replace(REGISTRY[experiment], trial=probe)
    monkeypatch.setitem(REGISTRY, experiment, spec)
    cfg = ExperimentConfig(experiment="all", delta=0.2, trials=3, net_size=net_size)
    caller = blas.blas_threads()
    for outer in (1, 3):
        with blas.pinned_threads(outer):
            run_experiment(experiment, cfg, workers=workers)
            assert blas.blas_threads() == outer
    assert seen == [threads] * 6
    assert blas.blas_threads() == caller


@pytest.mark.skipif(blas.openblas() is None, reason="numpy does not run on scipy-openblas")
def test_a_failing_trial_gives_the_caller_its_blas_thread_count_back(monkeypatch):
    def failing(eff, rng):
        raise RuntimeError("a failing trial")

    monkeypatch.setitem(REGISTRY, "rip", dataclasses.replace(REGISTRY["rip"], trial=failing))
    with blas.pinned_threads(3):
        with pytest.raises(RuntimeError):
            run_experiment("rip", _cfg(trials=2))
        assert blas.blas_threads() == 3


def test_reports_are_byte_identical_at_1_2_and_4_blas_threads(tmp_path):
    # unpinned, sign-product trials 2-4 and widths trial 4 of this run round
    # differently at 1 and 2 threads
    repo = pathlib.Path(__file__).resolve().parents[1]
    reports = []
    for threads in ("1", "2", "4"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": str(repo / "src"), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "onebit", "all", "--delta", "0.2", "--seed", "11",
             "--trials", "5", "--format", "json", "--out", "report.json"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((cwd / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_python_dash_m_runs_the_cli():
    repo = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}

    def onebit(*argv):
        return subprocess.run(
            [sys.executable, "-m", "onebit", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    bad = onebit("crofton", "--trials", "0")
    assert bad.returncode == 2, bad.stderr
    assert "error" in bad.stderr
    helped = onebit("--help")
    assert helped.returncode == 0, helped.stderr
    assert "usage" in helped.stdout


# fails some experiments' verdicts (rip's among them) and passes the others'
_MIXED_FLAGS = ["--delta", "0.1", "--m", "200", "--trials", "2", "--net-size", "20", "--seed", "3"]


@pytest.fixture(scope="module")
def mixed_battery(tmp_path_factory):
    """`onebit all` at _MIXED_FLAGS: its exit code, stdout, stderr and CSV report lines."""
    out = tmp_path_factory.mktemp("battery") / "all.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["all", *_MIXED_FLAGS, "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()
    return code, stdout.getvalue(), stderr.getvalue().splitlines(), lines


def test_all_writes_one_verdict_line_per_experiment_to_stderr(mixed_battery):
    code, stdout, stderr, _ = mixed_battery
    lines = [re.fullmatch(r"onebit ([a-z-]+): (pass|FAIL) \(\d+\.\d\d s\)", x) for x in stderr]
    assert all(lines), stderr
    assert [line[1] for line in lines] == list(EXPERIMENT_ORDER)
    # the FAIL lines name exactly the experiments whose verdict failed
    cfg, _ = parse_config(["all", *_MIXED_FLAGS])
    failed = [n for n in EXPERIMENT_ORDER if not run_experiment(n, cfg)[1]]
    assert "rip" in failed and len(failed) < len(EXPERIMENT_ORDER)
    assert [line[1] for line in lines if line[2] == "FAIL"] == failed
    assert code == 1
    assert stdout.splitlines()[-1].startswith("onebit all: FAIL (report: ")


@pytest.mark.parametrize("experiment", EXPERIMENT_ORDER)
def test_each_subcommand_report_is_its_lines_of_the_all_report(
    experiment, mixed_battery, tmp_path, capsys
):
    # trial t of experiment e draws only from the stream (seed, e, t), so an
    # experiment run alone writes exactly its rows of the battery's report
    _, _, battery_stderr, (header, *rows) = mixed_battery
    out = tmp_path / f"{experiment}.csv"
    flags = _MIXED_FLAGS
    if harness.REGISTRY[experiment].auto_m is None:  # run alone, vc and nets reject an m
        at = flags.index("--m")
        flags = flags[:at] + flags[at + 2 :]
    code = main([experiment, *flags, "--out", str(out)])
    own = [row for row in rows if row.startswith(f"{experiment},")]
    assert own and out.read_text(encoding="utf-8").splitlines() == [header, *own]
    verdict = "pass" if code == 0 else "FAIL"
    assert f"onebit {experiment}: {verdict} (" in battery_stderr[EXPERIMENT_ORDER.index(experiment)]
    assert capsys.readouterr().err.startswith(f"onebit {experiment}: {verdict} (")


def test_peak_rss_script_prints_a_row_per_experiment_alone_and_in_sequence():
    repo = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "peak_rss.py"), "--net-size", "30",
         "--seed", "1", "--passes", "1", "rip", "nets"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    alone = lines.index("alone")
    sequence = next(i for i, line in enumerate(lines) if line.startswith("in sequence"))
    for block in (lines[alone + 1 : sequence], lines[sequence + 1 :]):
        assert [row.split()[0] for row in block] == ["rip", "nets"]
        assert all(float(row.split()[1]) > 0 for row in block)
