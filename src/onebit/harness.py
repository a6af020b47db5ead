"""Experiment harness: seeded Monte Carlo runs with CSV/JSON reports.

Every experiment executes ``trials`` independent trials; trial t of
experiment e under master seed s draws all of its randomness from the
stream (s, e, t), so results do not depend on scheduling.  Rows are merged
and canonically sorted before writing, which makes report files
byte-identical for any worker count.

Each experiment is one :class:`Experiment` entry of :data:`REGISTRY`, which
holds everything the harness and the CLI know about it.
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .measurements import MeasurementEnsemble
from .nets import canonical_witness, greedy_packing, sandwich_check, shatter_check
from .processes import (
    CHOLESKY_MAX_POINTS,
    MIN_WIDTH_TRIALS,
    estimate_gaussian_width,
    estimate_hemisphere_width_cholesky,
    sudakov_check,
)
from .rng import substream
from .sphere import (
    CLOSE_PAIRS,
    PointSet,
    SparseSpec,
    pairwise_geodesic,
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

# sparse-set experiments default to a desk-scale regime
_FALLBACK_N = 64
_DEFAULT_SPARSITY = 4
_SUDAKOV_GRID = tuple(round(0.05 * i, 2) for i in range(1, 11))
# the three scored rows of a sudakov scale, in report order
_SUDAKOV_KINDS = ("gauss_ratio", "hemi_ratio", "chain")
_WIDTH_BOX = (0.2, 5.0)
_SUDAKOV_CONST = 3.0
_VC_WITNESS_RANGE = (2, 3, 4, 5)
_VC_RANDOM_POINTS = 8
_VC_BUDGET = 20_000  # candidate hyperplanes per shatter_check; 448 suffice for 8 points on S^2

ENV_SEED = "ONEBIT_SEED"

# the most trials one experiment may run; a million crofton trials already take hours
MAX_TRIALS = 10**6

# the most bytes of any float64 array a trial may build: the (m, n+1)
# directions and, over a net of k points, the (k, n+1) points, the (k, k)
# pair matrices and the (k, m) projections
MAX_DIRECTION_BYTES = 2**30


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
        """Reject a field of the wrong type or range, then resolve every selected experiment.

        The one home of the config rules: the CLI only parses.  Resolving
        surfaces every per-experiment error (a missing delta, an out-of-range
        s, an auto m below 1, a net without a pair, an array of directions,
        net points, pair matrices or projections past the 1 GiB limit)
        before any trial runs.
        """
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name, types, what in _FIELD_TYPES:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        for name in ("n", "trials", "net_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}, got {self.trials}")
        if isinstance(self.m, str):
            if self.m != "auto":
                raise ValueError(f'm must be an integer or "auto", got {self.m!r}')
        elif self.m < 1:
            raise ValueError("m must be >= 1")
        if self.delta is not None and not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not (0.0 < self.safety <= sys.float_info.max):
            raise ValueError("safety must be positive and finite")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        for name in _selected_experiments(self):
            _effective(name, self)


# the types each config field takes: a bool or a numpy integer is never an
# int here, and None means "unset" where a field allows it
_FIELD_TYPES = (
    ("n", (int, type(None)), "an integer"),
    ("s", (int, type(None)), "an integer"),
    ("m", (int, str), 'an integer or "auto"'),
    ("delta", (int, float, type(None)), "a number"),
    ("trials", int, "an integer"),
    ("seed", int, "an integer"),
    ("safety", (int, float), "a number"),
    ("net_size", int, "an integer"),
    ("out_path", (str, type(None)), "a string"),
    ("format", str, "a string"),
)


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

    n: int
    s: int | None
    m: int
    delta: float | None
    net_size: int


class _Stat(NamedTuple):
    """One statistic of one trial; run_experiment turns it into a ReportRow."""

    statistic: str
    value: float
    passed: bool = True


# --- parameter resolution ----------------------------------------------------


def _sparse_budget(safety, delta, n, s, net_size) -> float:
    """safety * delta^-2 * s * log(n/s), the distortion experiments' budget."""
    return safety * delta**-2 * s * math.log(n / s)


def _cells_budget(safety, delta, n, s, net_size) -> float:
    """safety * delta^-1 * log(net_size), the tessellation budget."""
    return safety * delta**-1 * math.log(net_size)


def _embed_budget(safety, delta, n, s, net_size) -> float:
    """safety * delta^-2 * log(net_size), the finite embedding budget."""
    return safety * delta**-2 * math.log(net_size)


def _fixed_budget(m: int) -> Callable[..., float]:
    return lambda safety, delta, n, s, net_size: m


def resolve_m(experiment: str, cfg: ExperimentConfig, n: int, s: int | None) -> int:
    """The m that one experiment's trials draw under cfg at dimension n and sparsity s.

    A read-out of the run's own resolution, so it raises whatever the run
    would reject.  Auto rules: ceil(safety * delta^-2 * s * log(n/s)) for
    the distortion experiments, ceil(safety * delta^-2 * log(net_size)) for
    the finite embedding, ceil(safety * delta^-1 * log(net_size)) for the
    tessellation experiment, 1e5 direction draws for the crossing-frequency
    experiments, and 2000 Monte Carlo draws for the width estimators.  An
    explicit m is taken as it is, and experiments that draw no directions
    resolve to 0.
    """
    return _effective(experiment, replace(cfg, n=n, s=s)).m


def _effective(experiment: str, cfg: ExperimentConfig) -> _Effective:
    """The n, s, delta and m one experiment's trials use under cfg.

    Rejects what the trials cannot run: an s out of range, a missing delta
    (``all`` defaults it to 0.2), an auto m that is not positive, a net
    without a pair, any array past MAX_DIRECTION_BYTES, and the
    experiment's own limits.
    """
    spec = REGISTRY[experiment]
    n = cfg.n if cfg.n is not None else spec.default_n
    s = cfg.s if cfg.s is not None else (_DEFAULT_SPARSITY if spec.needs_s else None)
    if s is not None and not (0 < s < n + 1):
        raise ValueError(f"need 0 < s < n + 1, got s={s}, n={n}")
    k = None if spec.net_companions is None else cfg.net_size + spec.net_companions
    if k is not None and k < 2:
        raise ValueError(
            f"{experiment}: --net-size {cfg.net_size} builds a net of {k} point; "
            "it needs at least 2 points to make a pair"
        )
    delta = cfg.delta
    if delta is None and spec.needs_delta:
        if cfg.experiment != "all":
            raise ValueError(f"--delta is required for {experiment}")
        delta = 0.2
    if spec.auto_m is None:
        m, remedy = 0, ""
    elif cfg.m != "auto":
        m, remedy = cfg.m, "lower --m"
    else:
        try:
            budget = spec.auto_m(cfg.safety, delta, n, s, cfg.net_size)
        except OverflowError:  # delta**-2 or n / s past the float range
            budget = math.inf
        if not budget > 0:  # 0 at log(n/s) = 0, or nan
            raise ValueError(
                f"{experiment}: m resolves to {budget} at n={n}, s={s}, "
                f"net_size={cfg.net_size}; pass an explicit --m or change these"
            )
        m = math.ceil(budget) if math.isfinite(budget) else budget
        levers = "raise --delta, lower --safety" if spec.needs_delta else "lower --n"
        remedy = f"{levers} or pass an explicit --m"
    eff = _Effective(n=n, s=s, m=m, delta=delta, net_size=cfg.net_size)
    _check_arrays(experiment, eff, k, remedy)
    if spec.limits is not None:
        spec.limits(eff)
    return eff


def _check_arrays(experiment: str, eff: _Effective, k: int | None, remedy: str):
    """Reject a float64 array of a trial that would pass MAX_DIRECTION_BYTES.

    The arrays are the (m, n + 1) directions and, over a net of k points,
    its (k, k) pair matrices, its (k, n + 1) points and its (k, m)
    projections.  ``remedy`` names the levers that lower m.
    """
    limit, gib, dim = MAX_DIRECTION_BYTES // 8, MAX_DIRECTION_BYTES // 2**30, eff.n + 1
    if eff.m > limit // dim:
        raise ValueError(
            f"{experiment}: m = {eff.m} directions of dimension {dim} exceed the "
            f"{gib} GiB direction limit (at most {limit // dim}); {remedy}"
        )
    if k is None:
        return
    net = f"{experiment}: --net-size {eff.net_size} builds a net of {k} points"
    if k > math.isqrt(limit):
        raise ValueError(
            f"{net}, past the {gib} GiB limit on its (k, k) float64 matrices "
            f"(at most {math.isqrt(limit)} points); lower --net-size"
        )
    if k > limit // dim:
        raise ValueError(
            f"{net} of dimension {dim}, past the {gib} GiB limit on its (k, n + 1) "
            f"float64 points (at most {limit // dim} points); lower --net-size or --n"
        )
    if eff.m > limit // k:
        raise ValueError(
            f"{net}, whose (k, m) float64 projections at m = {eff.m} pass the {gib} GiB "
            f"limit (at most m = {limit // k}); lower --net-size, or {remedy}"
        )


def _transversal_limits(eff: _Effective):
    if eff.n != 3:
        raise ValueError(
            f"transversal needs n = 3, got n={eff.n}: the quarter-density law holds only on S^3"
        )


def _nets_limits(eff: _Effective):
    if eff.delta >= 0.5:
        raise ValueError("nets needs delta < 0.5 so the 2*delta packing is meaningful")


def _packing_radius(eff: _Effective) -> float:
    """metric-ratio's minimum center separation, a quarter of delta."""
    return eff.delta / 4.0


def _metric_ratio_limits(eff: _Effective):
    if not _packing_radius(eff) > 0.0:
        raise ValueError(
            f"metric-ratio packs at radius delta / 4, which is 0 at delta={eff.delta}"
        )


def _width_limits(eff: _Effective):
    if eff.m < MIN_WIDTH_TRIALS:
        raise ValueError(f"width estimation needs at least {MIN_WIDTH_TRIALS} Monte Carlo draws")
    if eff.net_size > CHOLESKY_MAX_POINTS:
        raise ValueError(f"width experiments support nets of at most {CHOLESKY_MAX_POINTS} points")
    if eff.s >= eff.n:
        raise ValueError("width scaling needs s < n")


# --- per-trial experiment bodies ---------------------------------------------
#
# Library functions are looked up by name at call time, never stored in the
# registry, so a caller that rebinds a name in this module (a tracer, a test
# double) reaches every trial.


def _trial_crossing(eff: _Effective, rng, mask, statistic: str, scale: float):
    """Frequency of directions whose crossing mask holds, against scale * d."""
    pair = uniform_sphere_rows(eff.n, 2, rng)
    d = float(pairwise_geodesic(pair)[0, 1])
    thetas = uniform_sphere_rows(eff.n, eff.m, rng)
    freq = float(mask(thetas, pair[0], pair[1]).mean())
    target = d * scale
    bound = 3.0 * math.sqrt(max(target * (1.0 - target), 0.0) / eff.m)
    err = abs(freq - target)
    return [
        _Stat("distance", d),
        _Stat(statistic, freq),
        _Stat("abs_error", err, err <= bound),
        _Stat("error_bound", bound),
    ]


def _trial_crofton(eff, rng):
    return _trial_crossing(eff, rng, wedge_mask, "wedge_freq", 1.0)


def _trial_transversal(eff, rng):
    return _trial_crossing(eff, rng, transversal_mask, "transversal_freq", 0.25)


def _ensemble(eff: _Effective, rng) -> MeasurementEnsemble:
    """A fresh ensemble of eff.m iid standard gaussian directions."""
    return MeasurementEnsemble(rng.standard_normal((eff.m, eff.n + 1)))


def _trial_small_cells(eff: _Effective, rng):
    if eff.s is not None:
        points = PointSet.sparse(SparseSpec(eff.n, eff.s), eff.net_size, rng)
    else:
        points = PointSet.uniform(eff.n, eff.net_size, rng)
    num_cells, audit = small_cells_check(points, _ensemble(eff, rng), eff.delta)
    return [
        _Stat("m", eff.m),
        _Stat("num_cells", num_cells),
        _Stat("max_cell_diameter", audit.sup, audit.passed),
    ]


def _distortion_stats(m: int, points: PointSet, report):
    return [
        _Stat("m", m),
        _Stat("net_points", len(points)),
        _Stat("sup_discrepancy", report.sup, report.passed),
    ]


def _trial_distortion(eff: _Effective, rng, check):
    """One RIP check of a fresh ensemble over a sparse net."""
    net = sparse_net(SparseSpec(eff.n, eff.s), eff.net_size, rng)
    report = check(net, _ensemble(eff, rng), eff.delta)
    return _distortion_stats(eff.m, net, report)


def _trial_rip(eff, rng):
    return _trial_distortion(eff, rng, one_bit_rip)


def _trial_sign_product(eff, rng):
    return _trial_distortion(eff, rng, sign_product_rip)


def _trial_linear_rip(eff, rng):
    return _trial_distortion(eff, rng, linear_l1_rip)


def _trial_metric_ratio(eff: _Effective, rng):
    sample = PointSet.sparse(SparseSpec(eff.n, eff.s), eff.net_size, rng)
    min_sep = _packing_radius(eff)
    packed = greedy_packing(sample, min_sep, rng).centers
    stats = [_Stat("m", eff.m), _Stat("net_points", len(packed))]
    if len(packed) < 2:  # no pair was measured, so nothing passed
        stats.append(_Stat("sup_ratio", 0.0, False))
        return stats
    report = metric_ratio_check(packed, _ensemble(eff, rng), min_sep)
    stats.append(_Stat("sup_ratio", report.sup, report.passed))
    return stats


def _trial_embed(eff: _Effective, rng):
    points = PointSet.uniform(eff.n, eff.net_size, rng)
    report = finite_embedding(points, eff.m, eff.delta, rng)
    return _distortion_stats(eff.m, points, report)


def _sparse_widths(eff: _Effective, rng):
    """A sparse net, then its gaussian and Cholesky hemisphere widths, all from ``rng``."""
    net = PointSet.sparse(SparseSpec(eff.n, eff.s), eff.net_size, rng)
    gw = estimate_gaussian_width(net, eff.m, rng)
    return net, gw, estimate_hemisphere_width_cholesky(net, eff.m, rng)


def _trial_widths(eff: _Effective, rng):
    _, gw, hw = _sparse_widths(eff, rng)
    # _width_limits keeps s < n, so both logs are positive
    ratio2 = gw.value**2 / (eff.s * math.log2(eff.n / eff.s))
    ratio_e = gw.value**2 / (eff.s * math.log(eff.n / eff.s))
    lo, hi = _WIDTH_BOX
    return [
        _Stat("gaussian_width", gw.value),
        _Stat("gaussian_width_stderr", gw.std_error),
        _Stat("hemisphere_width", hw.value),
        _Stat("hemisphere_width_stderr", hw.std_error),
        _Stat("width_ratio_log2", ratio2, lo <= ratio2 <= hi),
        _Stat("width_ratio_ln", ratio_e),
    ]


def _trial_sudakov(eff: _Effective, rng):
    net, gw, hw = _sparse_widths(eff, rng)
    report = sudakov_check(net, _SUDAKOV_GRID, gw.value, hw.value)
    stats = [_Stat("gaussian_width", gw.value), _Stat("hemisphere_width", hw.value)]
    for delta, *ratios in zip(
        _SUDAKOV_GRID, report.gaussian_ratios, report.hemisphere_ratios, report.chains
    ):
        for kind, ratio in zip(_SUDAKOV_KINDS, ratios):
            stats.append(_Stat(f"{kind}_d{delta:.2f}", ratio, ratio <= _SUDAKOV_CONST))
    return stats


def _trial_vc(eff: _Effective, rng):
    stats = []
    for n in _VC_WITNESS_RANGE:
        rep = shatter_check(canonical_witness(n), budget=_VC_BUDGET)
        stats.append(_Stat(f"shatter_n{n}", rep.dichotomies_realized, rep.shattered))
    pts = PointSet.uniform(2, _VC_RANDOM_POINTS, rng)
    rep = shatter_check(pts, budget=_VC_BUDGET)
    # Cover (1965): k points in general position in R^d, here the lift (x, 1)
    # of S^2 into R^4, have 2 * sum_{i<d} C(k-1, i) linearly separable dichotomies
    cover = 2 * sum(math.comb(_VC_RANDOM_POINTS - 1, i) for i in range(pts.ambient + 1))
    cover_ok = rep.dichotomies_realized == cover
    return stats + [
        _Stat("dichotomies_8pts", rep.dichotomies_realized),
        _Stat("cover_count_ok", float(cover_ok), cover_ok),
    ]


def _trial_nets(eff: _Effective, rng):
    points = PointSet.uniform(eff.n, eff.net_size, rng)
    result = sandwich_check(points, eff.delta, rng)
    return [
        _Stat("packing_2delta", result["packing_2delta"]),
        _Stat("covering_delta", result["covering_delta"]),
        _Stat("packing_delta", result["packing_delta"]),
        _Stat("sandwich_ok", float(result["ok"]), result["ok"]),
    ]


# --- verdicts ----------------------------------------------------------------

# fraction of trials allowed to miss a three-sigma bound before the verdict flips
_RATE_THRESHOLD = 0.9


def _crossing_verdict(scored: list[bool]) -> bool:
    return scored.count(False) <= max(1, int(0.05 * len(scored)))


def _rate_verdict(scored: list[bool]) -> bool:
    return not scored or sum(scored) / len(scored) >= _RATE_THRESHOLD


# --- the registry ------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """Everything the harness and the CLI know about one experiment.

    ``trial`` maps the resolved parameters and the trial's generator to its
    statistics; the pass flags of the ``scored`` statistics feed ``verdict``.
    ``auto_m(safety, delta, n, s, net_size)`` is the unrounded auto budget,
    or None when the trial draws no directions, so m resolves to 0 even
    when one is given.  ``net_companions`` counts the points a trial's net
    adds to net_size (a sparse net's CLOSE_PAIRS close companions), or is
    None when no trial reads net_size.  ``limits`` rejects resolved
    parameters the trial cannot use.
    """

    name: str
    help: str
    trial: Callable[[_Effective, np.random.Generator], list[_Stat]]
    scored: tuple[str, ...]
    verdict: Callable[[list[bool]], bool]
    auto_m: Callable[..., float] | None
    needs_delta: bool = False
    needs_s: bool = False
    default_n: int = _FALLBACK_N
    net_companions: int | None = None
    limits: Callable[[_Effective], None] | None = None


_SUDAKOV_SCORED = tuple(f"{kind}_d{d:.2f}" for d in _SUDAKOV_GRID for kind in _SUDAKOV_KINDS)

# in report order; the quarter-density crossing law is exact on the 3-sphere,
# so the sampling experiments default there
REGISTRY: dict[str, Experiment] = {
    e.name: e
    for e in (
        Experiment(
            "crofton", "wedge frequency vs geodesic distance for random pairs",
            _trial_crofton, ("abs_error",), _crossing_verdict, _fixed_budget(100_000),
            default_n=3,
        ),
        Experiment(
            "transversal", "well-separated crossing frequency vs a quarter of the distance",
            _trial_transversal, ("abs_error",), _crossing_verdict, _fixed_budget(100_000),
            default_n=3, limits=_transversal_limits,
        ),
        Experiment(
            "small-cells", "sign-pattern cell diameters under a random tessellation",
            _trial_small_cells, ("max_cell_diameter",), _rate_verdict, _cells_budget,
            needs_delta=True, net_companions=0,
        ),
        Experiment(
            "rip", "sup |hamming - geodesic| over a sparse net",
            _trial_rip, ("sup_discrepancy",), _rate_verdict, _sparse_budget,
            needs_delta=True, needs_s=True, net_companions=CLOSE_PAIRS,
        ),
        Experiment(
            "sign-product", "centered one-bit correlation statistic over a sparse net",
            _trial_sign_product, ("sup_discrepancy",), _rate_verdict, _sparse_budget,
            needs_delta=True, needs_s=True, net_companions=CLOSE_PAIRS,
        ),
        Experiment(
            "linear-rip", "normalized linear l1 distortion over a sparse net",
            _trial_linear_rip, ("sup_discrepancy",), _rate_verdict, _sparse_budget,
            needs_delta=True, needs_s=True, net_companions=CLOSE_PAIRS,
        ),
        Experiment(
            "widths", "gaussian vs hemisphere mean width of a sparse net",
            _trial_widths, ("width_ratio_log2",), all, _fixed_budget(2000),
            needs_s=True, net_companions=0, limits=_width_limits,
        ),
        Experiment(
            "sudakov", "entropy lower bounds against both width estimates",
            _trial_sudakov, _SUDAKOV_SCORED, all, _fixed_budget(2000),
            needs_s=True, net_companions=0, limits=_width_limits,
        ),
        Experiment(
            "vc", "cap shattering on canonical witnesses plus Cover's count on 8 random points",
            _trial_vc, tuple(f"shatter_n{n}" for n in _VC_WITNESS_RANGE) + ("cover_count_ok",),
            all, None,
        ),
        Experiment(
            "nets", "greedy packing/covering sandwich on a random net",
            _trial_nets, ("sandwich_ok",), all, None,
            needs_delta=True, net_companions=0, limits=_nets_limits,
        ),
        Experiment(
            "metric-ratio", "relative hamming/geodesic error on a separated net",
            _trial_metric_ratio, ("sup_ratio",), _rate_verdict, _sparse_budget,
            needs_delta=True, needs_s=True, net_companions=0, limits=_metric_ratio_limits,
        ),
        Experiment(
            "embed", "one-bit embedding of a finite set at computed budget",
            _trial_embed, ("sup_discrepancy",), _rate_verdict, _embed_budget,
            needs_delta=True, net_companions=0,
        ),
    )
}
EXPERIMENT_ORDER = tuple(REGISTRY)
EXPERIMENTS = EXPERIMENT_ORDER + ("all",)

_DISCREPANCY_STATISTICS = frozenset(
    {"abs_error", "sup_discrepancy", "sup_ratio", "max_cell_diameter"}
)


def run_experiment(experiment: str, cfg: ExperimentConfig, workers: int = 1):
    """Rows and verdict for a single experiment under cfg's master seed."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    spec = REGISTRY[experiment]
    eff = _effective(experiment, cfg)

    def one(trial: int):
        stats = spec.trial(eff, substream(cfg.seed, experiment, trial))
        return [
            ReportRow(experiment, cfg.seed, trial, st.statistic, float(st.value), bool(st.passed))
            for st in stats
        ]

    if workers <= 1:
        batches = [one(t) for t in range(cfg.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(one, range(cfg.trials)))
    rows = [row for batch in batches for row in batch]
    scored = [r.passed for r in rows if r.statistic in spec.scored]
    return rows, spec.verdict(scored)


def summarize(rows: list[ReportRow]) -> dict:
    scored_names = {s for spec in REGISTRY.values() for s in spec.scored}
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
