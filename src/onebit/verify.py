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

from .errors import DimensionMismatchError, EnsembleKindError, PreconditionError
from .measurements import (
    HALF_NORMAL_MEAN,
    EnsembleKind,
    MeasurementEnsemble,
    sign_matrix,
)
from .sphere import PointSet, UnitVector, uniform_sphere_rows

# working memory of linear_l1_rip's row buffer
L1_SCAN_BYTES = 16 * 2**20


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

    Defined for uniform-sphere ensembles, whose hyperplanes tessellate the
    sphere; an empty ensemble leaves a single cell covering everything.
    """
    if ens.kind is not EnsembleKind.UNIFORM_SPHERE:
        raise EnsembleKindError("cell tessellation is defined for uniform-sphere ensembles")
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


def margin_separation_count(
    x: UnitVector, y: UnitVector, ens: MeasurementEnsemble, margin: float
) -> int:
    """Directions that separate x from y with a two-sided margin.

    Counts j with <x, theta_j> < -t and <y, theta_j> > t in either
    orientation.  For gaussian ensembles the margin is scaled by sqrt(n) to
    match the magnitude of unnormalized measurements.
    """
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    if x.ambient != ens.ambient or y.ambient != ens.ambient:
        raise DimensionMismatchError("point and ensemble dimensions differ")
    t = margin * math.sqrt(ens.ambient - 1) if ens.kind is EnsembleKind.GAUSSIAN else margin
    px = ens.directions @ x.coords
    py = ens.directions @ y.coords
    one_way = (px < -t) & (py > t)
    other = (py < -t) & (px > t)
    return int(one_way.sum() + other.sum())


def _hamming_matrix(points: PointSet, ens: MeasurementEnsemble) -> np.ndarray:
    bits = sign_matrix(ens, points).astype(float)
    agree = bits @ bits.T
    return (ens.m - agree) / (2.0 * ens.m)


def one_bit_rip(points: PointSet, ens: MeasurementEnsemble, delta_target: float) -> RipReport:
    """Sup over pairs of |hamming - geodesic| against an additive target.

    Works for either ensemble kind: signs only depend on directions, so a
    gaussian ensemble measures exactly like its normalization.
    """
    _check_dims(points, ens)
    if ens.m < 1:
        raise ValueError("need at least one measurement")
    if len(points) < 2:
        raise ValueError("need at least two points")
    gap = np.abs(_hamming_matrix(points, ens) - points.pairwise_geodesic())
    np.fill_diagonal(gap, 0.0)
    return _rip_report(*_argmax_pair(gap), ens, delta_target)


def sign_product_rip(
    points: PointSet, ens: MeasurementEnsemble, delta_target: float
) -> RipReport:
    """Sup over ordered pairs (diagonal included) of the centered sign product."""
    if ens.kind is not EnsembleKind.GAUSSIAN:
        raise EnsembleKindError("the sign-product statistic requires a gaussian ensemble")
    _check_dims(points, ens)
    if ens.m < 1:
        raise ValueError("need at least one measurement")
    proj = points.points @ ens.directions.T  # (k, m)
    signs_x = np.where(proj >= 0, 1.0, -1.0)
    stats = (signs_x @ proj.T) / ens.m - HALF_NORMAL_MEAN * (points.points @ points.points.T)
    return _rip_report(*_argmax_pair(np.abs(stats)), ens, delta_target)


def linear_l1_rip(
    points: PointSet, ens: MeasurementEnsemble, delta_target: float
) -> RipReport:
    """Sup over pairs of |normalized l1 statistic - Euclidean distance|."""
    if ens.kind is not EnsembleKind.GAUSSIAN:
        raise EnsembleKindError("the linear l1 statistic requires a gaussian ensemble")
    _check_dims(points, ens)
    if ens.m < 1:
        raise ValueError("need at least one measurement")
    if len(points) < 2:
        raise ValueError("need at least two points")
    proj = points.points @ ens.directions.T  # (k, m)
    k = len(points)
    # chord = sqrt(max(2 - 2 gram, 0)) in place, one (k, k) array; scaling by
    # -2 is exact, so the bits equal those of the out-of-place formula
    chord = points.points @ points.points.T
    chord *= -2.0
    chord += 2.0
    np.maximum(chord, 0.0, out=chord)
    np.sqrt(chord, out=chord)
    # the statistic is symmetric, so row i only scans j > i, in blocks of at
    # most L1_SCAN_BYTES; one buffer serves every block, and a pair wins only
    # by strictly beating the first maximum
    block = max(1, min(k - 1, L1_SCAN_BYTES // (8 * ens.m)))
    buf = np.empty((block, ens.m))
    worst = 0.0
    pair = (0, 0)
    for i in range(k - 1):
        for lo in range(i + 1, k, block):
            rows = buf[: min(block, k - lo)]
            np.subtract(proj[i], proj[lo : lo + block], out=rows)
            np.abs(rows, out=rows)
            stat = rows.sum(axis=1) / ens.m / HALF_NORMAL_MEAN
            gap = np.abs(stat - chord[i, lo : lo + block])
            j = int(np.argmax(gap))
            if gap[j] > worst:
                worst = float(gap[j])
                pair = (i, lo + j)
    return _rip_report(worst, pair, ens, delta_target)


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
    off = ~np.eye(len(points), dtype=bool)
    if dist[off].min() < min_sep:
        raise PreconditionError(
            f"pairs closer than min_sep={min_sep}: run a packing before this check"
        )
    ratio = np.abs(_hamming_matrix(points, ens) - dist) / np.where(off, dist, 1.0)
    ratio[~off] = 0.0
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
    return int(math.ceil(safety * delta**-2 * math.log(num_points)))


def finite_embedding(
    points: PointSet, delta: float, safety: float, rng: np.random.Generator
) -> tuple[MeasurementEnsemble, RipReport]:
    """Draw a uniform ensemble sized for the point set and audit distortion.

    The ensemble has m = ceil(safety * delta^-2 * log k) directions; the
    report records whether every pair's Hamming distance is delta-close to
    its geodesic distance.
    """
    m = embedding_size(len(points), delta, safety)
    dirs = uniform_sphere_rows(points.n, m, rng)
    ens = MeasurementEnsemble(dirs, EnsembleKind.UNIFORM_SPHERE, seed=None)
    return ens, one_bit_rip(points, ens, delta)
