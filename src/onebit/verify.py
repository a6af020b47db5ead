"""Tessellation, distortion, and embedding checks at theorem level.

Everything here compares an empirical quantity computed from one-bit
measurements against its geometric target and reports the worst case over a
finite point set: cell diameters against a scale delta, Hamming distances
against geodesic distances, sign-product statistics against the expected
inner-product multiple, and the conditional metric against its mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .measurements import HALF_NORMAL_MEAN, MeasurementEnsemble, sign_matrix
from .sphere import PointSet, pairwise_chord

# working memory of linear_l1_rip's pair tile: 4 x 8 pairs at the battery's m = 2773,
# well inside one core's L2
L1_TILE_BYTES = 768 * 2**10
# float32 counts +-1 agreements exactly in blocks of fewer than 2^24 columns
HAMMING_BLOCK_COLUMNS = 2**24 - 1


@dataclass(frozen=True)
class CellReport:
    """Diameter audit of the sign-pattern tessellation of a point set.

    ``violating_pair`` holds indices of a widest same-cell pair when the
    maximal cell diameter reaches ``delta``, else None.
    """

    delta: float
    num_cells: int
    max_cell_diameter: float
    violating_pair: tuple[int, int] | None


@dataclass(frozen=True)
class RipReport:
    """Worst additive distortion over a point set, with its witness pair."""

    sup_discrepancy: float
    argmax_pair: tuple[int, int]
    m: int
    delta_target: float
    passed: bool


@dataclass(frozen=True)
class MetricRatioReport:
    """Worst relative gap between the conditional metric squared and distance."""

    sup_ratio: float
    argmax_pair: tuple[int, int]
    min_sep: float
    passed: bool


def _argmax_pair(values: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest entry of a matrix and its index; ties go to the first in row-major order."""
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    return float(values[i, j]), (int(i), int(j))


def _rip_report(
    sup: float, pair: tuple[int, int], ens: MeasurementEnsemble, delta_target: float
) -> RipReport:
    return RipReport(
        sup_discrepancy=sup,
        argmax_pair=pair,
        m=ens.m,
        delta_target=float(delta_target),
        passed=sup <= delta_target,
    )


def _check_dims(points: PointSet, ens: MeasurementEnsemble):
    if points.ambient != ens.ambient:
        raise DimensionMismatchError(
            f"points ambient dimension {points.ambient} != ensemble {ens.ambient}"
        )


def small_cells_check(points: PointSet, ens: MeasurementEnsemble, delta: float) -> CellReport:
    """Group points by sign pattern and measure the widest cell.

    The hyperplanes normal to the directions tessellate the sphere; an empty
    ensemble leaves a single cell covering everything.
    """
    _check_dims(points, ens)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    bits = sign_matrix(ens, points)
    _, inverse = np.unique(bits, axis=0, return_inverse=True)
    dist = points.pairwise_geodesic()
    num_cells = int(inverse.max()) + 1
    worst = 0.0
    worst_pair: tuple[int, int] | None = None
    for cell in range(num_cells):
        members = np.flatnonzero(inverse == cell)
        if members.size < 2:
            continue
        diameter, (i, j) = _argmax_pair(dist[np.ix_(members, members)])
        if diameter > worst or worst_pair is None:
            worst = diameter
            worst_pair = (int(members[i]), int(members[j]))
    return CellReport(
        delta=float(delta),
        num_cells=num_cells,
        max_cell_diameter=worst,
        violating_pair=worst_pair if worst >= delta else None,
    )


def _hamming_matrix(points: PointSet, ens: MeasurementEnsemble) -> np.ndarray:
    """Pairwise Hamming distances, bitwise equal to the float64 product of the bits.

    Each block of fewer than 2^24 columns is multiplied in float32: every
    partial sum of its +-1 products is an integer below 2^24 in magnitude,
    so float32 holds it exactly, and the block sums add up exactly in float64.
    """
    bits = sign_matrix(ens, points)
    # m - agreements stays an exact integer, so the in-place steps keep the bits
    dist = np.full((len(points), len(points)), float(ens.m))
    for lo in range(0, ens.m, HAMMING_BLOCK_COLUMNS):
        block = bits[:, lo : lo + HAMMING_BLOCK_COLUMNS].astype(np.float32)
        dist -= block @ block.T
    dist /= 2.0 * ens.m
    return dist


def one_bit_rip(points: PointSet, ens: MeasurementEnsemble, delta_target: float) -> RipReport:
    """Sup over pairs of |hamming - geodesic| against an additive target."""
    _check_dims(points, ens)
    if ens.m < 1:
        raise ValueError("need at least one measurement")
    if len(points) < 2:
        raise ValueError("need at least two points")
    gap = _hamming_matrix(points, ens)
    gap -= points.pairwise_geodesic()
    np.abs(gap, out=gap)
    np.fill_diagonal(gap, 0.0)
    return _rip_report(*_argmax_pair(gap), ens, delta_target)


def sign_product_rip(
    points: PointSet, ens: MeasurementEnsemble, delta_target: float
) -> RipReport:
    """Sup over ordered pairs (diagonal included) of the centered sign product.

    The product sgn(P) P^T / m with P = X G^T (points X, directions G) is
    summed through the ambient dimension as (sgn(P) G) X^T / m: it skips the
    k^2 m multiply-adds of the (k, k) product over the m measurements for
    k m (n + 1) + k^2 (n + 1).  The signs overwrite P, so one (k, m) array
    is alive at a time.  The reassociated sums round differently, so
    ``sup_discrepancy`` can move in its last bits, and ``argmax_pair`` only
    between pairs that tie to within that rounding.
    """
    _check_dims(points, ens)
    if ens.m < 1:
        raise ValueError("need at least one measurement")
    sgn = points.points @ ens.directions.T  # (k, m)
    # 1.0 where the projection is >= 0, else 0.0, then +-1: sign(0) = +1
    np.greater_equal(sgn, 0.0, out=sgn)
    sgn *= 2.0
    sgn -= 1.0
    summed = sgn @ ens.directions  # (k, n + 1)
    del sgn
    stats = summed @ points.points.T
    stats /= ens.m
    gram = points.points @ points.points.T
    gram *= HALF_NORMAL_MEAN
    stats -= gram
    np.abs(stats, out=stats)
    return _rip_report(*_argmax_pair(stats), ens, delta_target)


def _l1_tile(k: int, m: int) -> tuple[int, int]:
    """(rows i, rows j) of the pair tiles that fit L1_TILE_BYTES; 1 x 1 if one pair does not."""
    pairs = max(1, L1_TILE_BYTES // (8 * m))
    rows = max(1, math.isqrt(pairs // 2))
    return min(rows, k - 1), min(pairs // rows, k - 1)


def linear_l1_rip(
    points: PointSet, ens: MeasurementEnsemble, delta_target: float
) -> RipReport:
    """Sup over pairs of |normalized l1 statistic - Euclidean distance|.

    The k(k-1)/2 pairs i < j are scanned in tiles of T rows i by B rows j,
    whose |p_i - p_j| rows (p = projections) share one (T, B, m) float64
    buffer of at most L1_TILE_BYTES, or one pair's m values when a single
    row is larger.  Each pair still sums its own contiguous m-row, so every
    statistic is bitwise that of a row-by-row scan.  Besides the buffer the
    audit holds the (k, m) projections and one (k, k) array, which the gaps
    overwrite.  Ties go to the first pair in row-major order.
    """
    _check_dims(points, ens)
    if ens.m < 1:
        raise ValueError("need at least one measurement")
    if len(points) < 2:
        raise ValueError("need at least two points")
    proj = points.points @ ens.directions.T  # (k, m)
    k = len(points)
    chord = pairwise_chord(points.points)
    rows, cols = _l1_tile(k, ens.m)
    buf = np.empty((rows, cols, ens.m))
    for i0 in range(0, k - 1, rows):
        i1 = min(i0 + rows, k - 1)
        for j0 in range(i0 + 1, k, cols):
            j1 = min(j0 + cols, k)
            tile = buf[: i1 - i0, : j1 - j0]
            # |p_j - p_i| is bitwise |p_i - p_j|; subtracting in place is the cheaper pass
            tile[...] = proj[None, j0:j1]
            tile -= proj[i0:i1, None]
            np.abs(tile, out=tile)
            gap = tile.sum(axis=2)
            gap /= ens.m
            gap /= HALF_NORMAL_MEAN
            gap -= chord[i0:i1, j0:j1]
            # tiles that cross the diagonal also fill pairs j <= i, zeroed below
            np.abs(gap, out=chord[i0:i1, j0:j1])
    chord[np.tri(k, dtype=bool)] = 0.0
    return _rip_report(*_argmax_pair(chord), ens, delta_target)


def metric_ratio_check(
    points: PointSet, ens: MeasurementEnsemble, min_sep: float
) -> MetricRatioReport:
    """Sup over pairs of |D^2 - d| / d for the conditional metric D.

    Requires every pairwise distance to be at least ``min_sep`` (run the
    points through a packing first); the relative gap is then bounded by 1
    in expectation-scale, which is what ``passed`` records.
    """
    _check_dims(points, ens)
    if ens.m < 1:
        raise ValueError("need at least one measurement")
    if len(points) < 2:
        raise ValueError("need at least two points")
    if min_sep <= 0.0:
        raise ValueError("min_sep must be positive")
    dist = points.pairwise_geodesic()
    np.fill_diagonal(dist, np.inf)
    if dist.min() < min_sep:
        raise PreconditionError(
            f"pairs closer than min_sep={min_sep}: run a packing before this check"
        )
    np.fill_diagonal(dist, 1.0)
    ratio = _hamming_matrix(points, ens)
    ratio -= dist
    np.abs(ratio, out=ratio)
    ratio /= dist
    np.fill_diagonal(ratio, 0.0)
    sup, pair = _argmax_pair(ratio)
    return MetricRatioReport(
        sup_ratio=sup, argmax_pair=pair, min_sep=float(min_sep), passed=sup <= 1.0
    )


def embedding_size(num_points: int, delta: float, safety: float) -> int:
    """Measurement budget ceil(safety * delta^-2 * log k) for k points."""
    if num_points < 2:
        raise ValueError("need at least two points")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if safety <= 0.0:
        raise ValueError("safety must be positive")
    try:
        budget = safety * delta**-2 * math.log(num_points)
    except OverflowError:  # delta**-2 past the float range
        budget = math.inf
    if not math.isfinite(budget):
        raise ValueError(f"the embedding budget safety * delta^-2 * log k = {budget} is not finite")
    return int(math.ceil(budget))


def finite_embedding(
    points: PointSet, delta: float, safety: float, rng: np.random.Generator
) -> tuple[MeasurementEnsemble, RipReport]:
    """Draw a gaussian ensemble sized for the point set and audit distortion.

    The ensemble has m = ceil(safety * delta^-2 * log k) directions; the
    report records whether every pair's Hamming distance is delta-close to
    its geodesic distance.
    """
    m = embedding_size(len(points), delta, safety)
    ens = MeasurementEnsemble(rng.standard_normal((m, points.ambient)))
    return ens, one_bit_rip(points, ens, delta)
