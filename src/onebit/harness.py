"""Experiment harness: seeded Monte Carlo runs with CSV/JSON reports.

Every experiment executes ``trials`` independent trials; trial t of
experiment e under master seed s draws all of its randomness from the
stream (s, e, t), so results do not depend on scheduling.  Rows are merged
and canonically sorted before writing, which makes report files
byte-identical for any worker count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .measurements import EnsembleKind, MeasurementEnsemble
from .nets import canonical_witness, greedy_packing, sandwich_check, shatter_check
from .processes import (
    ProcessMetric,
    estimate_gaussian_width,
    estimate_hemisphere_width_cholesky,
    sudakov_check,
)
from .rng import substream
from .sphere import (
    PointSet,
    SparseSpec,
    geodesic_distance,
    sample_uniform_sphere,
    sparse_net,
    transversal_mask,
    uniform_sphere_rows,
    wedge_mask,
)
from .verify import (
    finite_embedding,
    linear_l1_rip,
    metric_ratio_check,
    one_bit_rip,
    sign_product_rip,
    small_cells_check,
)

EXPERIMENT_ORDER = (
    "crofton",
    "transversal",
    "small-cells",
    "rip",
    "sign-product",
    "linear-rip",
    "widths",
    "sudakov",
    "vc",
    "nets",
    "metric-ratio",
    "embed",
)
EXPERIMENTS = EXPERIMENT_ORDER + ("all",)

# experiments whose target tolerance has no sensible default
DELTA_REQUIRED = frozenset(
    {"rip", "sign-product", "linear-rip", "small-cells", "metric-ratio", "embed", "nets"}
)

# experiments that size their own draws; resolve_m gives them 0
_SELF_SIZED = frozenset({"vc", "nets", "embed"})

# the quarter-density crossing law is exact on the 3-sphere, so the sampling
# experiments default there; sparse-set experiments default to a desk-scale
# regime instead
_DEFAULT_N = {"crofton": 3, "transversal": 3}
_FALLBACK_N = 64
_DEFAULT_SPARSITY = 4
_SUDAKOV_GRID = tuple(round(0.05 * i, 2) for i in range(1, 11))
_WIDTH_BOX = (0.2, 5.0)
_SUDAKOV_CONST = 3.0
_VC_WITNESS_RANGE = (2, 3, 4, 5)
_VC_RANDOM_POINTS = 8
_VC_BUDGET = 20_000

ENV_SEED = "ONEBIT_SEED"


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration surface for every experiment.

    ``m`` is either an explicit count or the string "auto"; the resolution
    rule depends on the experiment (see :func:`resolve_m`).  ``s`` may be
    None for experiments that operate on plain sphere samples.
    """

    experiment: str
    n: int | None = None
    s: int | None = None
    m: int | str = "auto"
    delta: float | None = None
    trials: int = 20
    seed: int = 0
    safety: float = 10.0
    net_size: int = 200
    out_path: str | None = None
    format: str = "csv"

    def validate(self):
        """Reject bad fields, then resolve every selected experiment.

        Resolving surfaces every per-experiment error (a missing delta, an
        out-of-range s, an auto m of 0) before any trial runs.
        """
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be >= 1")
        if isinstance(self.m, str):
            if self.m != "auto":
                raise ValueError(f'm must be an integer or "auto", got {self.m!r}')
        elif self.m < 1:
            raise ValueError("m must be >= 1")
        if self.delta is not None and not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.safety <= 0.0:
            raise ValueError("safety must be positive")
        if self.net_size < 1:
            raise ValueError("net_size must be >= 1")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        for name in _selected_experiments(self):
            _effective(name, self)


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    seed: int
    trial: int
    statistic: str
    value: float
    passed: bool


def _sort_key(row: ReportRow):
    return (row.experiment, row.seed, row.trial, row.statistic)


def _selected_experiments(cfg: ExperimentConfig) -> tuple[str, ...]:
    """The experiments a config runs, in report order."""
    return EXPERIMENT_ORDER if cfg.experiment == "all" else (cfg.experiment,)


@dataclass(frozen=True)
class _Effective:
    """Per-experiment resolved parameters for one run."""

    name: str
    n: int
    s: int | None
    m: int
    delta: float | None
    net_size: int
    safety: float


def resolve_m(experiment: str, cfg: ExperimentConfig, n: int, s: int | None) -> int:
    """Resolve the measurement budget for one experiment.

    Auto rules: ceil(safety * delta^-2 * s * log(n/s)) for the distortion
    experiments, ceil(safety * delta^-1 * log(net_size)) for the
    tessellation experiment, 1e5 direction draws for the crossing-frequency
    experiments, and 2000 Monte Carlo draws for the width estimators.
    """
    if isinstance(cfg.m, int):
        return cfg.m
    if experiment in ("crofton", "transversal"):
        return 100_000
    if experiment in ("rip", "sign-product", "linear-rip", "metric-ratio"):
        if cfg.delta is None:
            raise ValueError(f"--delta is required for {experiment}")
        return int(math.ceil(cfg.safety * cfg.delta**-2 * s * math.log(n / s)))
    if experiment == "small-cells":
        if cfg.delta is None:
            raise ValueError("--delta is required for small-cells")
        return int(math.ceil(cfg.safety * cfg.delta**-1 * math.log(cfg.net_size)))
    if experiment in ("widths", "sudakov"):
        return 2000
    return 0  # vc, nets, embed size their own draws


def _effective(experiment: str, cfg: ExperimentConfig) -> _Effective:
    n = cfg.n if cfg.n is not None else _DEFAULT_N.get(experiment, _FALLBACK_N)
    needs_s = experiment in (
        "rip", "sign-product", "linear-rip", "metric-ratio", "widths", "sudakov"
    )
    s = cfg.s if cfg.s is not None else (_DEFAULT_SPARSITY if needs_s else None)
    if s is not None and not (0 < s < n + 1):
        raise ValueError(f"need 0 < s < n + 1, got s={s}, n={n}")
    delta = cfg.delta
    if delta is None and experiment in DELTA_REQUIRED:
        if cfg.experiment == "all":
            delta = 0.2
        else:
            raise ValueError(f"--delta is required for {experiment}")
    m = resolve_m(experiment, cfg if delta == cfg.delta else _with_delta(cfg, delta), n, s)
    if m < 1 and experiment not in _SELF_SIZED:
        raise ValueError(
            f"{experiment}: m resolves to {m} at n={n}, s={s}, "
            f"net_size={cfg.net_size}; pass an explicit --m or change these"
        )
    if experiment == "nets" and delta >= 0.5:
        raise ValueError("nets needs delta < 0.5 so the 2*delta packing is meaningful")
    if experiment in ("widths", "sudakov"):
        if m < 100:
            raise ValueError("width estimation needs at least 100 Monte Carlo draws")
        if cfg.net_size > 2000:
            raise ValueError("width experiments support nets of at most 2000 points")
        if s is not None and s >= n:
            raise ValueError("width scaling needs s < n")
    return _Effective(
        name=experiment, n=n, s=s, m=m, delta=delta,
        net_size=cfg.net_size, safety=cfg.safety,
    )


def _with_delta(cfg: ExperimentConfig, delta) -> ExperimentConfig:
    d = asdict(cfg)
    d["delta"] = delta
    return ExperimentConfig(**d)


# --- per-trial experiment bodies ---------------------------------------------


def _row(eff, seed, trial, statistic, value, passed=True) -> ReportRow:
    return ReportRow(
        experiment=eff.name, seed=seed, trial=trial,
        statistic=statistic, value=float(value), passed=bool(passed),
    )


def _trial_crossing(eff: _Effective, seed: int, trial: int, rng, kind: str):
    x = sample_uniform_sphere(eff.n, rng)
    y = sample_uniform_sphere(eff.n, rng)
    d = geodesic_distance(x, y)
    thetas = uniform_sphere_rows(eff.n, eff.m, rng)
    if kind == "crofton":
        freq = float(wedge_mask(thetas, x.coords, y.coords).mean())
        target = d
    else:
        freq = float(transversal_mask(thetas, x, y).mean())
        target = d / 4.0
    bound = 3.0 * math.sqrt(max(target * (1.0 - target), 0.0) / eff.m)
    err = abs(freq - target)
    stat = "wedge_freq" if kind == "crofton" else "transversal_freq"
    return [
        _row(eff, seed, trial, "distance", d),
        _row(eff, seed, trial, stat, freq),
        _row(eff, seed, trial, "abs_error", err, err <= bound),
        _row(eff, seed, trial, "error_bound", bound),
    ]


def _trial_crofton(eff, seed, trial, rng):
    return _trial_crossing(eff, seed, trial, rng, "crofton")


def _trial_transversal(eff, seed, trial, rng):
    return _trial_crossing(eff, seed, trial, rng, "transversal")


def _trial_small_cells(eff: _Effective, seed, trial, rng):
    if eff.s is not None:
        points = PointSet.sparse(SparseSpec(eff.n, eff.s), eff.net_size, rng)
    else:
        points = PointSet.uniform(eff.n, eff.net_size, rng)
    ens = MeasurementEnsemble(
        uniform_sphere_rows(eff.n, eff.m, rng), EnsembleKind.UNIFORM_SPHERE
    )
    report = small_cells_check(points, ens, eff.delta)
    return [
        _row(eff, seed, trial, "m", eff.m),
        _row(eff, seed, trial, "num_cells", report.num_cells),
        _row(
            eff, seed, trial, "max_cell_diameter",
            report.max_cell_diameter, report.max_cell_diameter < eff.delta,
        ),
    ]


def _trial_rip(eff: _Effective, seed, trial, rng):
    net = sparse_net(SparseSpec(eff.n, eff.s), eff.net_size, rng)
    ens = MeasurementEnsemble(
        uniform_sphere_rows(eff.n, eff.m, rng), EnsembleKind.UNIFORM_SPHERE
    )
    report = one_bit_rip(net, ens, eff.delta)
    return [
        _row(eff, seed, trial, "m", eff.m),
        _row(eff, seed, trial, "net_points", len(net)),
        _row(eff, seed, trial, "sup_discrepancy", report.sup_discrepancy, report.passed),
    ]


def _trial_sign_product(eff: _Effective, seed, trial, rng):
    net = sparse_net(SparseSpec(eff.n, eff.s), eff.net_size, rng)
    ens = MeasurementEnsemble(
        rng.standard_normal((eff.m, eff.n + 1)), EnsembleKind.GAUSSIAN
    )
    report = sign_product_rip(net, ens, eff.delta)
    return [
        _row(eff, seed, trial, "m", eff.m),
        _row(eff, seed, trial, "net_points", len(net)),
        _row(eff, seed, trial, "sup_discrepancy", report.sup_discrepancy, report.passed),
    ]


def _trial_linear_rip(eff: _Effective, seed, trial, rng):
    net = sparse_net(SparseSpec(eff.n, eff.s), eff.net_size, rng)
    ens = MeasurementEnsemble(
        rng.standard_normal((eff.m, eff.n + 1)), EnsembleKind.GAUSSIAN
    )
    report = linear_l1_rip(net, ens, eff.delta)
    return [
        _row(eff, seed, trial, "m", eff.m),
        _row(eff, seed, trial, "net_points", len(net)),
        _row(eff, seed, trial, "sup_discrepancy", report.sup_discrepancy, report.passed),
    ]


def _trial_metric_ratio(eff: _Effective, seed, trial, rng):
    sample = PointSet.sparse(SparseSpec(eff.n, eff.s), eff.net_size, rng)
    min_sep = eff.delta / 4.0
    packed = greedy_packing(sample, min_sep, rng).centers
    rows = [
        _row(eff, seed, trial, "m", eff.m),
        _row(eff, seed, trial, "net_points", len(packed)),
    ]
    if len(packed) < 2:
        rows.append(_row(eff, seed, trial, "sup_ratio", 0.0, True))
        return rows
    ens = MeasurementEnsemble(
        uniform_sphere_rows(eff.n, eff.m, rng), EnsembleKind.UNIFORM_SPHERE
    )
    report = metric_ratio_check(packed, ens, min_sep)
    rows.append(_row(eff, seed, trial, "sup_ratio", report.sup_ratio, report.passed))
    return rows


def _trial_embed(eff: _Effective, seed, trial, rng):
    points = PointSet.uniform(eff.n, eff.net_size, rng)
    ens, report = finite_embedding(points, eff.delta, eff.safety, rng)
    return [
        _row(eff, seed, trial, "m", ens.m),
        _row(eff, seed, trial, "net_points", len(points)),
        _row(eff, seed, trial, "sup_discrepancy", report.sup_discrepancy, report.passed),
    ]


def _width_denominators(n: int, s: int) -> tuple[float, float]:
    ratio = n / s
    return s * math.log2(ratio), s * math.log(ratio)


def _trial_widths(eff: _Effective, seed, trial, rng):
    net = PointSet.sparse(SparseSpec(eff.n, eff.s), eff.net_size, rng)
    gw = estimate_gaussian_width(net, eff.m, rng)
    hw = estimate_hemisphere_width_cholesky(net, eff.m, rng)
    denom_log2, denom_ln = _width_denominators(eff.n, eff.s)
    ratio2 = gw.value**2 / denom_log2 if denom_log2 > 0 else math.inf
    ratio_e = gw.value**2 / denom_ln if denom_ln > 0 else math.inf
    lo, hi = _WIDTH_BOX
    return [
        _row(eff, seed, trial, "gaussian_width", gw.value),
        _row(eff, seed, trial, "gaussian_width_stderr", gw.std_error),
        _row(eff, seed, trial, "hemisphere_width", hw.value),
        _row(eff, seed, trial, "hemisphere_width_stderr", hw.std_error),
        _row(eff, seed, trial, "width_ratio_log2", ratio2, lo <= ratio2 <= hi),
        _row(eff, seed, trial, "width_ratio_ln", ratio_e),
    ]


def _trial_sudakov(eff: _Effective, seed, trial, rng):
    net = PointSet.sparse(SparseSpec(eff.n, eff.s), eff.net_size, rng)
    gw = estimate_gaussian_width(net, eff.m, rng)
    hw = estimate_hemisphere_width_cholesky(net, eff.m, rng)
    gauss = sudakov_check(net, ProcessMetric.GAUSSIAN, _SUDAKOV_GRID, gw)
    hemi_radii = tuple(math.sqrt(d) for d in _SUDAKOV_GRID)
    hemi = sudakov_check(net, ProcessMetric.HEMISPHERE, hemi_radii, hw)
    rows = [
        _row(eff, seed, trial, "gaussian_width", gw.value),
        _row(eff, seed, trial, "hemisphere_width", hw.value),
    ]
    for i, delta in enumerate(_SUDAKOV_GRID):
        tag = f"{delta:.2f}"
        rows.append(
            _row(
                eff, seed, trial, f"gauss_ratio_d{tag}",
                gauss.ratios[i], gauss.ratios[i] <= _SUDAKOV_CONST,
            )
        )
        rows.append(
            _row(
                eff, seed, trial, f"hemi_ratio_d{tag}",
                hemi.ratios[i], hemi.ratios[i] <= _SUDAKOV_CONST,
            )
        )
        # entropy comparison: sqrt(log N(delta)) vs the better of the two
        # width-based envelopes at the same geodesic scale
        n_geo = hemi.covering_numbers[i]
        root_log = math.sqrt(math.log(n_geo)) if n_geo > 1 else 0.0
        envelope = min(gw.value / delta, hw.value / math.sqrt(delta))
        chain = root_log / envelope if envelope > 0 else math.inf
        rows.append(
            _row(eff, seed, trial, f"chain_d{tag}", chain, chain <= _SUDAKOV_CONST)
        )
    return rows


def _trial_vc(eff: _Effective, seed, trial, rng):
    rows = []
    for n in _VC_WITNESS_RANGE:
        witness = canonical_witness(n)
        rep = shatter_check(witness, rng, budget=_VC_BUDGET)
        rows.append(
            _row(eff, seed, trial, f"shatter_n{n}", rep.dichotomies_realized, rep.shattered)
        )
    pts = PointSet.uniform(2, _VC_RANDOM_POINTS, rng)
    rep = shatter_check(pts, rng, budget=_VC_BUDGET)
    rows.append(_row(eff, seed, trial, "dichotomies_8pts", rep.dichotomies_realized))
    rows.append(_row(eff, seed, trial, "sauer_bound_8pts", rep.sauer_bound))
    rows.append(
        _row(
            eff, seed, trial, "sauer_ok",
            float(rep.dichotomies_realized <= rep.sauer_bound),
            rep.dichotomies_realized <= rep.sauer_bound,
        )
    )
    return rows


def _trial_nets(eff: _Effective, seed, trial, rng):
    points = PointSet.uniform(eff.n, eff.net_size, rng)
    result = sandwich_check(points, eff.delta, rng)
    return [
        _row(eff, seed, trial, "packing_2delta", result["packing_2delta"]),
        _row(eff, seed, trial, "covering_delta", result["covering_delta"]),
        _row(eff, seed, trial, "packing_delta", result["packing_delta"]),
        _row(eff, seed, trial, "sandwich_ok", float(result["ok"]), result["ok"]),
    ]


_TRIAL_FNS: dict[str, Callable] = {
    "crofton": _trial_crofton,
    "transversal": _trial_transversal,
    "small-cells": _trial_small_cells,
    "rip": _trial_rip,
    "sign-product": _trial_sign_product,
    "linear-rip": _trial_linear_rip,
    "widths": _trial_widths,
    "sudakov": _trial_sudakov,
    "vc": _trial_vc,
    "nets": _trial_nets,
    "metric-ratio": _trial_metric_ratio,
    "embed": _trial_embed,
}

# statistics whose pass flag feeds the experiment verdict
SCORED_STATISTICS: dict[str, tuple[str, ...]] = {
    "crofton": ("abs_error",),
    "transversal": ("abs_error",),
    "small-cells": ("max_cell_diameter",),
    "rip": ("sup_discrepancy",),
    "sign-product": ("sup_discrepancy",),
    "linear-rip": ("sup_discrepancy",),
    "widths": ("width_ratio_log2",),
    "sudakov": tuple(
        f"{kind}_d{d:.2f}"
        for d in _SUDAKOV_GRID
        for kind in ("gauss_ratio", "hemi_ratio", "chain")
    ),
    "vc": tuple(f"shatter_n{n}" for n in _VC_WITNESS_RANGE) + ("sauer_ok",),
    "nets": ("sandwich_ok",),
    "metric-ratio": ("sup_ratio",),
    "embed": ("sup_discrepancy",),
}

_DISCREPANCY_STATISTICS = frozenset(
    {"abs_error", "sup_discrepancy", "sup_ratio", "max_cell_diameter"}
)

# fraction of trials allowed to miss a three-sigma bound before the verdict flips
_RATE_THRESHOLD = 0.9


def _verdict(experiment: str, scored: list[bool]) -> bool:
    if not scored:
        return True
    if experiment in ("crofton", "transversal"):
        allowed = max(1, int(0.05 * len(scored)))
        return scored.count(False) <= allowed
    if experiment in ("widths", "sudakov", "vc", "nets"):
        return all(scored)
    return sum(scored) / len(scored) >= _RATE_THRESHOLD


def run_experiment(experiment: str, cfg: ExperimentConfig, workers: int = 1):
    """Rows and verdict for a single experiment under cfg's master seed."""
    eff = _effective(experiment, cfg)
    fn = _TRIAL_FNS[experiment]

    def one(trial: int):
        rng = substream(cfg.seed, experiment, trial)
        return fn(eff, cfg.seed, trial, rng)

    if workers <= 1:
        batches = [one(t) for t in range(cfg.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(one, range(cfg.trials)))
    rows = [row for batch in batches for row in batch]
    scored_names = set(SCORED_STATISTICS[experiment])
    scored = [r.passed for r in rows if r.statistic in scored_names]
    return rows, _verdict(experiment, scored)


def summarize(rows: list[ReportRow]) -> dict:
    scored_names = {s for names in SCORED_STATISTICS.values() for s in names}
    scored = [r.passed for r in rows if r.statistic in scored_names]
    discrepancies = [
        abs(r.value) for r in rows if r.statistic in _DISCREPANCY_STATISTICS
    ]
    return {
        "pass_rate": (sum(scored) / len(scored)) if scored else 1.0,
        "max_discrepancy": max(discrepancies) if discrepancies else 0.0,
    }


def default_out_path(cfg: ExperimentConfig) -> str:
    return f"onebit-{cfg.experiment}.{cfg.format}"


def write_csv(path: str, rows: list[ReportRow]):
    lines = ["experiment,seed,trial,statistic,value,pass"]
    for r in rows:
        lines.append(
            f"{r.experiment},{r.seed},{r.trial},{r.statistic},{r.value:.17g},{int(r.passed)}"
        )
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, cfg: ExperimentConfig, rows: list[ReportRow], summary: dict):
    doc = {
        "config": asdict(cfg),
        "rows": [asdict(r) for r in rows],
        "summary": summary,
    }
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report(cfg: ExperimentConfig, rows: list[ReportRow]) -> str:
    """Write rows in canonical order to cfg's path and format; return the path."""
    rows = sorted(rows, key=_sort_key)
    out_path = cfg.out_path or default_out_path(cfg)
    if cfg.format == "csv":
        write_csv(out_path, rows)
    else:
        write_json(out_path, cfg, rows, summarize(rows))
    return out_path


def run(cfg: ExperimentConfig, workers: int = 1) -> int:
    """Execute the configured experiment(s), write the report, return exit status.

    0: every experiment verdict passed.  1: at least one verdict failed.
    I/O failures propagate as OSError for the CLI to translate.
    """
    cfg.validate()
    rows: list[ReportRow] = []
    verdicts: list[bool] = []
    for name in _selected_experiments(cfg):
        batch, verdict = run_experiment(name, cfg, workers=workers)
        rows.extend(batch)
        verdicts.append(verdict)
    write_report(cfg, rows)
    return 0 if all(verdicts) else 1
