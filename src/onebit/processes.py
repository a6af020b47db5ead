"""Gaussian and hemisphere processes indexed by sphere points.

Two processes drive the estimates here.  The linear process G_x = <x, gamma>
with gamma standard normal has E sup taken over pairs as the gaussian mean
width.  The hemisphere process attaches to each point x the centered
indicator of its hemisphere; its variance is exactly 1/4 and its increment
metric is the square root of the normalized geodesic distance, so the
covariance of a pair is 1/4 - d(x, y)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EnsembleKindError, FeasibilityError, NumericalError
from .measurements import EnsembleKind, MeasurementEnsemble
from .sphere import PointSet, UnitVector, geodesic_distance, pairwise_geodesic

CHOLESKY_MAX_POINTS = 2000
_JITTERS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
MIN_WIDTH_TRIALS = 100
MIN_EMPIRICAL_INNER = 10_000
# working memory of one chunk of hemisphere_empirical_samples
HEMISPHERE_CHUNK_BYTES = 16 * 2**20


class WidthMethod(str, Enum):
    GAUSSIAN = "gaussian-width"
    HEMISPHERE_CHOLESKY = "hemisphere-cholesky"
    HEMISPHERE_EMPIRICAL = "hemisphere-empirical"


@dataclass(frozen=True)
class WidthEstimate:
    value: float
    std_error: float
    trials: int
    method: WidthMethod


def hemisphere_covariance(x: UnitVector, y: UnitVector) -> float:
    """Covariance 1/4 - d(x, y)/2 of the centered hemisphere indicators."""
    return 0.25 - 0.5 * geodesic_distance(x, y)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hemisphere process covariance over a point set.

    The diagonal equals 1/4 exactly and the matrix is positive semidefinite
    up to roundoff (smallest eigenvalue >= -1e-8 before jitter); both are
    checked at construction.
    """

    entries: np.ndarray

    def __post_init__(self):
        ent = self.entries
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError("covariance must be square")
        if np.abs(np.diag(ent) - 0.25).max() > 1e-12:
            raise ValueError("hemisphere covariance diagonal must equal 1/4")
        smallest = float(np.linalg.eigvalsh(ent)[0])
        if smallest < -1e-8:
            raise ValueError(f"covariance is not PSD within tolerance: lambda_min = {smallest:.3e}")


def covariance_matrix(points: PointSet) -> CovarianceMatrix:
    ent = 0.25 - 0.5 * points.pairwise_geodesic()
    ent.flags.writeable = False
    return CovarianceMatrix(entries=ent)


def estimate_gaussian_width(
    points: PointSet, trials: int, rng: np.random.Generator
) -> WidthEstimate:
    """Monte Carlo E sup_{x,y} <x - y, gamma> over the finite point set.

    Each trial draws one standard gaussian and takes the range of the linear
    process over the set; the estimate is the trial mean with its standard
    error.  A singleton set has width 0.
    """
    if trials < MIN_WIDTH_TRIALS:
        raise ValueError(f"need at least {MIN_WIDTH_TRIALS} trials, got {trials}")
    gammas = rng.standard_normal((trials, points.ambient))
    proj = gammas @ points.points.T
    sups = proj.max(axis=1) - proj.min(axis=1)
    return WidthEstimate(
        value=float(sups.mean()),
        std_error=float(sups.std(ddof=1) / math.sqrt(trials)),
        trials=int(trials),
        method=WidthMethod.GAUSSIAN,
    )


def _chol_with_jitter(entries: np.ndarray) -> np.ndarray:
    eye = np.eye(entries.shape[0])
    for jitter in _JITTERS:
        try:
            return np.linalg.cholesky(entries + jitter * eye)
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"cholesky failed for every jitter up to {_JITTERS[-1]:g}; covariance is badly conditioned"
    )


def estimate_hemisphere_width_cholesky(
    points: PointSet, trials: int, rng: np.random.Generator
) -> WidthEstimate:
    """E sup of hemisphere process increments, sampled from the exact covariance.

    Factorizes 1/4 - d/2 (plus a small diagonal jitter, escalated tenfold on
    failure) and averages the range of the resulting gaussian vector.  The
    exact factorization limits the set to ``CHOLESKY_MAX_POINTS`` points.
    """
    if len(points) > CHOLESKY_MAX_POINTS:
        raise FeasibilityError(
            f"cholesky width estimation supports at most {CHOLESKY_MAX_POINTS} points"
        )
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    cov = covariance_matrix(points)
    chol = _chol_with_jitter(cov.entries)
    z = rng.standard_normal((trials, len(points))) @ chol.T
    sups = z.max(axis=1) - z.min(axis=1)
    return WidthEstimate(
        value=float(sups.mean()),
        std_error=float(sups.std(ddof=1) / math.sqrt(trials)),
        trials=int(trials),
        method=WidthMethod.HEMISPHERE_CHOLESKY,
    )


def hemisphere_empirical_samples(
    points: PointSet, m_inner: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """(trials, k) matrix of normalized hemisphere counts.

    Entry (t, i) is (1/sqrt(m)) * sum_j (1{theta_j in H_i} - 1/2) for the
    t-th batch of m_inner uniform directions, the CLT-scaled empirical
    version of the hemisphere process.  A direction is a standard gaussian
    row left unnormalized, since the sign of <x, g> does not depend on |g|.

    Memory: each direction costs 8 * ambient bytes of float64 draws plus
    9 * k bytes of float64 projection and bool hit, and one chunk holds at
    most ``HEMISPHERE_CHUNK_BYTES`` of them: whole trials when one fits,
    else a trial's directions in several pieces.  The draws come in the
    same order at any chunk size, so the output does not depend on it.
    """
    if m_inner < MIN_EMPIRICAL_INNER:
        raise ValueError(f"need m_inner >= {MIN_EMPIRICAL_INNER}, got {m_inner}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k = len(points)
    out = np.empty((trials, k))
    root_m = math.sqrt(m_inner)
    rows_cap = max(1, HEMISPHERE_CHUNK_BYTES // (8 * points.ambient + 9 * k))
    batch_cap = max(1, rows_cap // m_inner)
    for done in range(0, trials, batch_cap):
        batch = min(batch_cap, trials - done)
        counts = np.zeros((k, batch), dtype=np.intp)
        # one piece of batch * m_inner rows, or (batch = 1) pieces of rows_cap
        for start in range(0, m_inner, rows_cap):
            span = min(rows_cap, m_inner - start)
            g = rng.standard_normal((batch * span, points.ambient))
            hits = points.points @ g.T >= 0  # (k, batch * span)
            counts += np.count_nonzero(hits.reshape(k, batch, span), axis=2)
        out[done : done + batch] = (counts.T - m_inner / 2.0) / root_m
    return out


def estimate_hemisphere_width_empirical(
    points: PointSet, m_inner: int, trials: int, rng: np.random.Generator
) -> WidthEstimate:
    """E sup of hemisphere increments via finite batches of uniform directions."""
    samples = hemisphere_empirical_samples(points, m_inner, trials, rng)
    sups = samples.max(axis=1) - samples.min(axis=1)
    se = float(sups.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("nan")
    return WidthEstimate(
        value=float(sups.mean()),
        std_error=se,
        trials=int(trials),
        method=WidthMethod.HEMISPHERE_EMPIRICAL,
    )


def symmetrized_process_sup(
    points: PointSet, ens: MeasurementEnsemble, rng: np.random.Generator
) -> float:
    """Sup over pairs of the Rademacher-symmetrized wedge process.

    Z_{x,y} = (1/sqrt(m)) sum_j eps_j 1{theta_j in W_{x,y}} for one draw of
    signs eps.  Wedge indicators decompose through hemisphere bits b as
    b_x + b_y - 2 b_x b_y, which turns the pair sup into two matrix products.
    """
    if ens.kind is not EnsembleKind.UNIFORM_SPHERE:
        raise EnsembleKindError("the symmetrized process is defined for uniform ensembles")
    if points.ambient != ens.ambient:
        raise ValueError("points and ensemble dimensions differ")
    if ens.m == 0:
        raise ValueError("need at least one direction")
    bits = (ens.directions @ points.points.T >= 0).astype(float).T  # (k, m)
    eps = np.where(rng.random(ens.m) < 0.5, -1.0, 1.0)
    u = bits @ eps
    cross = (bits * eps) @ bits.T
    z = (u[:, None] + u[None, :] - 2.0 * cross) / math.sqrt(ens.m)
    return float(np.abs(z).max())


class ProcessMetric(str, Enum):
    GAUSSIAN = "gaussian"
    HEMISPHERE = "hemisphere"


@dataclass(frozen=True)
class SudakovReport:
    """Covering-number lower bounds against a width estimate, per scale."""

    metric: ProcessMetric
    width: WidthEstimate
    deltas: tuple[float, ...]
    covering_numbers: tuple[int, ...]
    lower_bounds: tuple[float, ...]  # delta * sqrt(log N(delta))
    ratios: tuple[float, ...]

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)


def metric_distances(points: PointSet, metric: ProcessMetric) -> np.ndarray:
    """Pairwise distances in the process metric.

    Gaussian process: Euclidean chord |x - y|_2.  Hemisphere process:
    sqrt(d(x, y)), the exact increment metric of the indicator process.
    """
    metric = ProcessMetric(metric)
    if metric is ProcessMetric.GAUSSIAN:
        gram = np.clip(points.points @ points.points.T, -1.0, 1.0)
        sq = np.maximum(2.0 - 2.0 * gram, 0.0)
        np.fill_diagonal(sq, 0.0)
        return np.sqrt(sq)
    return np.sqrt(pairwise_geodesic(points.points))


def sudakov_check(
    points: PointSet,
    metric: ProcessMetric,
    deltas,
    width: WidthEstimate,
) -> SudakovReport:
    """delta * sqrt(log N(T, delta)) against the width, for each scale.

    Covering numbers come from deterministic first-uncovered greedy passes
    in the chosen process metric; ratios near or below a small constant are
    the expected outcome of the minoration.
    """
    from .nets import first_uncovered_cover

    deltas = tuple(float(d) for d in deltas)
    if not deltas or any(d <= 0.0 for d in deltas):
        raise ValueError("deltas must be positive")
    dist = metric_distances(points, metric)
    ns, lows, ratios = [], [], []
    for delta in deltas:
        n_cover = len(first_uncovered_cover(dist, delta))
        low = delta * math.sqrt(math.log(n_cover)) if n_cover > 1 else 0.0
        ns.append(n_cover)
        lows.append(low)
        ratios.append(low / width.value if low > 0.0 else 0.0)
    return SudakovReport(
        metric=ProcessMetric(metric),
        width=width,
        deltas=deltas,
        covering_numbers=tuple(ns),
        lower_bounds=tuple(lows),
        ratios=tuple(ratios),
    )
