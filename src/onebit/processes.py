"""Gaussian and hemisphere processes indexed by sphere points.

Two processes drive the estimates here.  The linear process G_x = <x, gamma>
with gamma standard normal has E sup taken over pairs as the gaussian mean
width.  The hemisphere process attaches to each point x the centered
indicator of its hemisphere; its variance is exactly 1/4 and its increment
metric is the square root of the normalized geodesic distance, so the
covariance of a pair is 1/4 - d(x, y)/2.

:func:`covariance_matrix` builds that covariance and ``_cholesky_factor``
checks and factors it for the Cholesky width.  :func:`sudakov_check` holds
both widths against Sudakov's entropy bound over one point set, each in its
own increment metric.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import FeasibilityError, NumericalError
from .nets import first_uncovered_cover
from .sphere import PointSet, mirror_upper, pairwise_chord, pairwise_geodesic

CHOLESKY_MAX_POINTS = 2000
# float64 normals that one row block of the Cholesky width draws
CHOLESKY_ROW_BYTES = 4 * 2**20
_JITTERS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
# a factorization at this jitter or below proves the covariance PSD
CERTIFIED_JITTER = 1e-9
MIN_WIDTH_TRIALS = 100
MIN_EMPIRICAL_INNER = 10_000
# working memory of one thread of hemisphere_empirical_samples
HEMISPHERE_CHUNK_BYTES = 16 * 2**20
# threads that split the trials of hemisphere_empirical_samples
_SAMPLER_THREADS = 2
# generators that hemisphere_empirical_samples spawns at a time, about 0.9 KB each
_SPAWN_BLOCK = 1024
# OpenBLAS runs a GEMM of m * n * k multiply-adds below 65536 * 4 on one thread
_GEMM_ONE_THREAD = 2**18 - 1


@dataclass(frozen=True)
class WidthEstimate:
    value: float
    std_error: float


def _width_estimate(sups: np.ndarray) -> WidthEstimate:
    """Mean of the per-trial sups with its standard error, NaN at one trial."""
    trials = len(sups)
    se = float(sups.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("nan")
    return WidthEstimate(value=float(sups.mean()), std_error=se)


def _mirror_lower(entries: np.ndarray, diag: np.ndarray) -> None:
    """Rebuild a symmetric matrix from its strict lower triangle and a saved diagonal."""
    mirror_upper(entries.T)
    np.fill_diagonal(entries, diag)


def _cholesky_factor(entries: np.ndarray) -> np.ndarray:
    """Read-only Cholesky factor of a hemisphere covariance, checked first, in its storage.

    ``entries`` must be a C-contiguous float64 array, square and finite
    with a diagonal of exactly 1/4, and positive semidefinite up to
    roundoff (smallest eigenvalue >= -1e-8); a matrix that fails raises
    ValueError.  The factor is that of entries + jitter * I at the first
    rung of ``_JITTERS`` that factors, bitwise ``numpy.linalg.cholesky``'s.
    When every rung fails, NumericalError is raised.

    No (k, k) copy is made.  Each rung is written onto the diagonal and
    factored in place as entries = U^T U, into the upper triangle, while
    the strict lower triangle keeps the covariance.  A rung that fails is
    undone by mirroring that triangle back and rewriting the saved
    diagonal, so on every failure path ``entries`` comes back bitwise as
    built.  On success the strict lower triangle is zeroed and the factor
    returned is the lower-triangular view ``entries.T``.

    A factorization at jitter <= ``CERTIFIED_JITTER`` of at most
    ``CHOLESKY_MAX_POINTS`` points proves PSD: its backward error bounds
    lambda_min from below by -1e-9 - O(k eps |A|), inside the -1e-8
    tolerance.  Any other outcome rebuilds the covariance for ``eigvalsh``
    and, when it passes, factors it again at the same rung.
    """
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("covariance must be square")
    if not np.all(np.isfinite(entries)):
        raise ValueError("covariance entries must be finite")
    diag = np.diagonal(entries).copy()
    if np.abs(diag - 0.25).max() > 1e-12:
        raise ValueError("hemisphere covariance diagonal must equal 1/4")
    factored = False
    for jitter in _JITTERS:
        np.fill_diagonal(entries, diag + jitter)
        factored = blas.potrf_upper(entries)
        if factored:
            break
        _mirror_lower(entries, diag)
    certified = factored and jitter <= CERTIFIED_JITTER and len(entries) <= CHOLESKY_MAX_POINTS
    if not certified:
        if factored:
            _mirror_lower(entries, diag)
        smallest = float(np.linalg.eigvalsh(entries)[0])
        if smallest < -1e-8:
            raise ValueError(
                f"covariance is not PSD within tolerance: lambda_min = {smallest:.3e}"
            )
        if not factored:
            raise NumericalError(
                f"cholesky failed for every jitter up to {_JITTERS[-1]:g}; "
                "covariance is badly conditioned"
            )
        np.fill_diagonal(entries, diag + jitter)
        if not blas.potrf_upper(entries):
            _mirror_lower(entries, diag)
            raise NumericalError(f"cholesky at jitter {jitter:g} failed on a second try")
    for row in range(1, len(entries)):
        entries[row, :row] = 0.0
    factor = entries.T
    factor.flags.writeable = False
    return factor


def covariance_matrix(points: PointSet) -> np.ndarray:
    """(k, k) hemisphere process covariance 1/4 - d/2, a new array the caller owns."""
    # 0.25 + (-0.5 d) in place is bitwise 0.25 - 0.5 d
    ent = points.pairwise_geodesic()
    ent *= -0.5
    ent += 0.25
    return ent


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
    jitter, escalated tenfold on failure) that ``_cholesky_factor`` checks
    and returns, and averages the range of the resulting gaussian vector.  The
    exact factorization limits the set to ``CHOLESKY_MAX_POINTS`` points.

    Working memory while sampling: the factor, which reuses the storage of
    the covariance it was factored from, and one block of
    ``CHOLESKY_ROW_BYTES`` of the (trials, k) normals, drawn row block by
    row block into one reused buffer in the generator's order.  Each block
    y is overwritten with its product y @ factor^T by one in-place
    ``blas.trmm_upper``, which reads only the factor's nonzero triangle, and
    reduced into its rows' maxima and minima, so no (trials, k) array is
    needed.  The triangular product sums each entry in another order than a
    full matrix product, so its estimate can differ from that of
    ``y @ factor.T`` in the last bits.  Without numpy's bundled OpenBLAS
    ``blas.trmm_upper`` forms that full product.
    """
    if len(points) > CHOLESKY_MAX_POINTS:
        raise FeasibilityError(
            f"cholesky width estimation supports at most {CHOLESKY_MAX_POINTS} points"
        )
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    upper = _cholesky_factor(covariance_matrix(points)).T  # y @ factor^T = y @ upper
    k = len(points)
    rows = max(1, min(trials, CHOLESKY_ROW_BYTES // (8 * k)))
    normals = np.empty((rows, k))
    hi = np.empty(trials)
    lo = np.empty(trials)
    for r0 in range(0, trials, rows):
        r1 = min(r0 + rows, trials)
        z = normals[: r1 - r0]
        rng.standard_normal(out=z)
        blas.trmm_upper(z, upper)
        z.max(axis=1, out=hi[r0:r1])
        z.min(axis=1, out=lo[r0:r1])
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
    and t.  The children are spawned in order from the calling thread,
    ``_SPAWN_BLOCK`` at a time, and the next block is spawned while the
    current one is counted, so at most two blocks of generators are alive.
    A pool of ``_SAMPLER_THREADS`` threads splits each block's trials.  Each
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
    rows_cap = max(1, min(m_inner, HEMISPHERE_CHUNK_BYTES // (8 * ambient + k)))
    cols = max(1, min(rows_cap, _GEMM_ONE_THREAD // (k * ambient)))
    threads = min(_SAMPLER_THREADS, trials)

    def count_trials(start: int, streams, first: int):
        g = np.empty((rows_cap, ambient))
        hits = np.empty((k, rows_cap), dtype=bool)
        block = np.empty(k * cols)
        counts = np.empty(k, dtype=np.intp)
        for t in range(first, len(streams), threads):
            counts[:] = 0
            for piece_start in range(0, m_inner, rows_cap):
                span = min(rows_cap, m_inner - piece_start)
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
            out[start + t] = (counts - m_inner / 2.0) / math.sqrt(m_inner)

    with ThreadPoolExecutor(threads) as pool:
        streams = rng.spawn(min(_SPAWN_BLOCK, trials))
        for start in range(0, trials, _SPAWN_BLOCK):
            futures = [pool.submit(count_trials, start, streams, first) for first in range(threads)]
            following = min(_SPAWN_BLOCK, trials - start - _SPAWN_BLOCK)
            if following > 0:
                streams = rng.spawn(following)
            for future in futures:
                future.result()
    return out


def estimate_hemisphere_width_empirical(
    points: PointSet, m_inner: int, trials: int, rng: np.random.Generator
) -> WidthEstimate:
    """E sup of hemisphere increments via finite batches of uniform directions."""
    samples = hemisphere_empirical_samples(points, m_inner, trials, rng)
    return _width_estimate(samples.max(axis=1) - samples.min(axis=1))


@dataclass(frozen=True)
class SudakovReport:
    """Sudakov minoration of both processes, one entry per scale delta.

    ``gaussian_ratios``: delta sqrt(log N) over the gaussian width, with N
    the size of a delta-cover in the chord metric.  ``hemisphere_ratios``:
    sqrt(delta) sqrt(log N') over the hemisphere width, with N' the size of
    a sqrt(delta)-cover in the sqrt(d) metric.  ``chains``: sqrt(log N')
    over the better of the two width envelopes at that scale,
    min(gaussian / delta, hemisphere / sqrt(delta)).
    """

    gaussian_ratios: tuple[float, ...]
    hemisphere_ratios: tuple[float, ...]
    chains: tuple[float, ...]


def _root_log(cover_size: int) -> float:
    return math.sqrt(math.log(cover_size)) if cover_size > 1 else 0.0


def _ratio(low: float, width: float) -> float:
    """A lower bound over a width: 0 for a zero bound, inf for a positive bound over zero."""
    if not low > 0.0:
        return 0.0
    return low / width if width > 0.0 else math.inf


def sudakov_check(points: PointSet, deltas, gaussian: float, hemisphere: float) -> SudakovReport:
    """Entropy lower bounds of both processes against their widths, per scale.

    ``gaussian`` and ``hemisphere`` are the two width estimates of the set.
    Covering numbers come from deterministic first-uncovered greedy covers,
    every scale of a metric from one distance matrix: the chord metric at
    radius delta, then sqrt(d), the geodesic matrix square-rooted in place,
    at radius sqrt(delta).  The chord matrix is freed before the geodesic
    one is built, so one (k, k) matrix is alive at a time.  Ratios near or
    below a small constant are the expected outcome of the minoration.  A
    bound of 0 (a cover of one center) gives a ratio of 0, and a zero
    envelope an infinite chain; a positive bound over a zero width gives an
    infinite ratio.  Rejects an empty, non-finite or non-positive delta and
    a width that is not finite and non-negative.
    """
    deltas = tuple(float(d) for d in deltas)
    if not deltas or not all(math.isfinite(d) and d > 0.0 for d in deltas):
        raise ValueError(f"deltas must be finite and positive, got {deltas}")
    for name, width in (("gaussian", gaussian), ("hemisphere", hemisphere)):
        if not (math.isfinite(width) and width >= 0.0):
            raise ValueError(f"the {name} width must be finite and >= 0, got {width}")
    roots = tuple(math.sqrt(d) for d in deltas)
    chord_covers = first_uncovered_cover(pairwise_chord(points.points), deltas)
    dist = pairwise_geodesic(points.points)
    np.sqrt(dist, out=dist)
    root_covers = first_uncovered_cover(dist, roots)
    gauss, hemi, chains = [], [], []
    for delta, root, chord_cover, root_cover in zip(deltas, roots, chord_covers, root_covers):
        gauss.append(_ratio(delta * _root_log(len(chord_cover)), gaussian))
        root_log = _root_log(len(root_cover))
        hemi.append(_ratio(root * root_log, hemisphere))
        envelope = min(gaussian / delta, hemisphere / root)
        chains.append(root_log / envelope if envelope > 0 else math.inf)
    return SudakovReport(tuple(gauss), tuple(hemi), tuple(chains))
