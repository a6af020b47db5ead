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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field
from enum import Enum

import numpy as np

from .errors import FeasibilityError, NumericalError
from .sphere import PointSet, pairwise_chord, pairwise_geodesic

CHOLESKY_MAX_POINTS = 2000
# output columns per product with the Cholesky factor's lower triangle
CHOLESKY_BLOCK_COLUMNS = 256
_JITTERS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
# a factorization at this jitter or below proves the covariance PSD
CERTIFIED_JITTER = 1e-9
MIN_WIDTH_TRIALS = 100
MIN_EMPIRICAL_INNER = 10_000
# working memory of one thread of hemisphere_empirical_samples
HEMISPHERE_CHUNK_BYTES = 16 * 2**20
# threads that split the trials of hemisphere_empirical_samples
_SAMPLER_THREADS = 2
# OpenBLAS runs a GEMM of m * n * k multiply-adds below 65536 * 4 on one thread
_GEMM_ONE_THREAD = 2**18 - 1


@dataclass(frozen=True)
class WidthEstimate:
    value: float
    std_error: float
    trials: int


def _width_estimate(sups: np.ndarray) -> WidthEstimate:
    """Mean of the per-trial sups with its standard error, NaN at one trial."""
    trials = len(sups)
    se = float(sups.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("nan")
    return WidthEstimate(value=float(sups.mean()), std_error=se, trials=trials)


def _jitter_ladder(entries: np.ndarray) -> tuple[np.ndarray | None, float | None]:
    """Cholesky factor of entries + jitter * I at the smallest rung that factors.

    Writes each rung onto the diagonal of ``entries`` and restores the saved
    diagonal exactly before it returns, so ``entries`` ends bitwise as it
    came and no (k, k) copy is made.  Returns (factor, jitter), or
    (None, None) when every rung fails.
    """
    diag = np.diagonal(entries).copy()
    try:
        for jitter in _JITTERS:
            np.fill_diagonal(entries, diag + jitter)
            try:
                return np.linalg.cholesky(entries), jitter
            except np.linalg.LinAlgError:
                continue
        return None, None
    finally:
        np.fill_diagonal(entries, diag)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hemisphere process covariance over a point set, with its Cholesky factor.

    The diagonal equals 1/4 exactly and the matrix is positive semidefinite
    up to roundoff (smallest eigenvalue >= -1e-8 before jitter); both are
    checked at construction.  Construction also factors entries + jitter * I
    at the first rung of ``_JITTERS`` that succeeds and keeps the factor in
    ``factor`` (None when every rung fails).  A caller's array is factored
    from a copy and never written; the array :func:`covariance_matrix`
    builds itself (``_owned``) takes the ladder's rungs on its own
    diagonal, restored exactly, so no (k, k) copy is made.

    A factorization at jitter <= ``CERTIFIED_JITTER`` of at most
    ``CHOLESKY_MAX_POINTS`` points proves PSD: its backward error bounds
    lambda_min from below by -1e-9 - O(k eps |A|), inside the -1e-8
    tolerance.  Any other outcome falls back to ``eigvalsh``.
    """

    entries: np.ndarray
    factor: np.ndarray | None = field(init=False, repr=False, compare=False)
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned: bool):
        ent = self.entries
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError("covariance must be square")
        if not np.all(np.isfinite(ent)):
            raise ValueError("covariance entries must be finite")
        if np.abs(np.diag(ent) - 0.25).max() > 1e-12:
            raise ValueError("hemisphere covariance diagonal must equal 1/4")
        factor, jitter = _jitter_ladder(ent if _owned else ent.copy())
        certified = (
            jitter is not None
            and jitter <= CERTIFIED_JITTER
            and ent.shape[0] <= CHOLESKY_MAX_POINTS
        )
        if not certified:
            smallest = float(np.linalg.eigvalsh(ent)[0])
            if smallest < -1e-8:
                raise ValueError(
                    f"covariance is not PSD within tolerance: lambda_min = {smallest:.3e}"
                )
        if factor is not None:
            factor.flags.writeable = False
        object.__setattr__(self, "factor", factor)


def covariance_matrix(points: PointSet) -> CovarianceMatrix:
    # 0.25 + (-0.5 d) in place is bitwise 0.25 - 0.5 d
    ent = points.pairwise_geodesic()
    ent *= -0.5
    ent += 0.25
    cov = CovarianceMatrix(entries=ent, _owned=True)
    ent.flags.writeable = False
    return cov


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
    return _width_estimate(proj.max(axis=1) - proj.min(axis=1))


def estimate_hemisphere_width_cholesky(
    points: PointSet, trials: int, rng: np.random.Generator
) -> WidthEstimate:
    """E sup of hemisphere process increments, sampled from the exact covariance.

    Samples through the Cholesky factor of 1/4 - d/2 (plus a small diagonal
    jitter, escalated tenfold on failure) that :class:`CovarianceMatrix`
    keeps, and averages the range of the resulting gaussian vector.  The
    exact factorization limits the set to ``CHOLESKY_MAX_POINTS`` points.

    The product with the factor runs in blocks of ``CHOLESKY_BLOCK_COLUMNS``
    output columns and skips the factor's upper triangle, which is zero.  A
    set of at most that many points takes one product of the full operands,
    so its estimate is bitwise that of ``y @ factor.T``; a larger set sums
    each entry in different pieces, and its estimate can move in the last
    bits.  The generator draws the same normals either way.

    Working memory while sampling: the factor, the (trials, k) normals and
    one (trials, ``CHOLESKY_BLOCK_COLUMNS``) block, which is reduced into
    running row maxima and minima before the next block overwrites it.
    Max and min are exact, so no (trials, k) product is needed for the
    same bits.
    """
    if len(points) > CHOLESKY_MAX_POINTS:
        raise FeasibilityError(
            f"cholesky width estimation supports at most {CHOLESKY_MAX_POINTS} points"
        )
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    # only the factor outlives this line: the (k, k) entries are freed before sampling
    factor = covariance_matrix(points).factor
    if factor is None:
        raise NumericalError(
            f"cholesky failed for every jitter up to {_JITTERS[-1]:g}; "
            "covariance is badly conditioned"
        )
    k = len(points)
    y = rng.standard_normal((trials, k))
    block = np.empty((trials, min(k, CHOLESKY_BLOCK_COLUMNS)))
    hi = np.full(trials, -np.inf)
    lo = np.full(trials, np.inf)
    # column block [a, b) of y @ factor^T reads only factor[a:b, :b]: the
    # factor is lower-triangular, so the columns of y past b meet zeros
    for a in range(0, k, CHOLESKY_BLOCK_COLUMNS):
        b = min(a + CHOLESKY_BLOCK_COLUMNS, k)
        z = block[:, : b - a]
        np.matmul(y[:, :b], factor[a:b, :b].T, out=z)
        np.maximum(hi, z.max(axis=1), out=hi)
        np.minimum(lo, z.min(axis=1), out=lo)
    return _width_estimate(hi - lo)


def hemisphere_empirical_samples(
    points: PointSet, m_inner: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """(trials, k) matrix of normalized hemisphere counts.

    Entry (t, i) is (1/sqrt(m)) * sum_j (1{theta_j in H_i} - 1/2) for the
    t-th batch of m_inner uniform directions, the CLT-scaled empirical
    version of the hemisphere process.  A direction is a standard gaussian
    row left unnormalized, since the sign of <x, g> does not depend on |g|.

    Streams, work and memory: trial t draws its directions from child t of
    ``rng.spawn(trials)``, so row t depends only on the caller's generator
    and t.  A pool of ``_SAMPLER_THREADS`` threads splits the trials.  Each
    thread draws a trial in pieces into its own float64 buffer (8 * ambient
    bytes per direction) and bool hit array (k bytes per direction), which
    together hold at most ``HEMISPHERE_CHUNK_BYTES``.  Projections go through
    one block of at most ``_GEMM_ONE_THREAD`` multiply-adds, small enough
    that BLAS runs them on the sampler thread alone.  Hits are exact counts,
    so the output depends on neither the thread count nor the piece size.
    """
    if m_inner < MIN_EMPIRICAL_INNER:
        raise ValueError(f"need m_inner >= {MIN_EMPIRICAL_INNER}, got {m_inner}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k, ambient = len(points), points.ambient
    out = np.empty((trials, k))
    streams = rng.spawn(trials)
    rows_cap = max(1, min(m_inner, HEMISPHERE_CHUNK_BYTES // (8 * ambient + k)))
    cols = max(1, min(rows_cap, _GEMM_ONE_THREAD // (k * ambient)))
    threads = min(_SAMPLER_THREADS, trials)

    def count_trials(first: int):
        g = np.empty((rows_cap, ambient))
        hits = np.empty((k, rows_cap), dtype=bool)
        block = np.empty(k * cols)
        counts = np.empty(k, dtype=np.intp)
        for t in range(first, trials, threads):
            counts[:] = 0
            for start in range(0, m_inner, rows_cap):
                span = min(rows_cap, m_inner - start)
                piece = g[:span]
                streams[t].standard_normal(out=piece)
                for a in range(0, span, cols):
                    b = min(a + cols, span)
                    proj = block[: k * (b - a)].reshape(k, b - a)
                    np.matmul(points.points, piece[a:b].T, out=proj)
                    np.greater_equal(proj, 0.0, out=hits[:, a:b])
                # count_nonzero on a contiguous row is far faster than along an axis
                for i, row in enumerate(hits[:, :span]):
                    counts[i] += np.count_nonzero(row)
            out[t] = (counts - m_inner / 2.0) / math.sqrt(m_inner)

    with ThreadPoolExecutor(threads) as pool:
        for future in [pool.submit(count_trials, first) for first in range(threads)]:
            future.result()
    return out


def estimate_hemisphere_width_empirical(
    points: PointSet, m_inner: int, trials: int, rng: np.random.Generator
) -> WidthEstimate:
    """E sup of hemisphere increments via finite batches of uniform directions."""
    samples = hemisphere_empirical_samples(points, m_inner, trials, rng)
    return _width_estimate(samples.max(axis=1) - samples.min(axis=1))


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
        return pairwise_chord(points.points)
    return np.sqrt(pairwise_geodesic(points.points))


def sudakov_check(
    points: PointSet,
    metric: ProcessMetric,
    deltas,
    width: WidthEstimate,
) -> SudakovReport:
    """delta * sqrt(log N(T, delta)) against the width, for each scale.

    Covering numbers come from deterministic first-uncovered greedy covers
    in the chosen process metric, every scale from one distance matrix;
    ratios near or below a small constant are the expected outcome of the
    minoration.
    """
    from .nets import first_uncovered_cover

    deltas = tuple(float(d) for d in deltas)
    if not deltas or any(d <= 0.0 for d in deltas):
        raise ValueError("deltas must be positive")
    covers = first_uncovered_cover(metric_distances(points, metric), deltas)
    ns, lows, ratios = [], [], []
    for delta, centers in zip(deltas, covers):
        n_cover = len(centers)
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
