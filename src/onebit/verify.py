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
# float64 Hamming rows that one_bit_rip and metric_ratio_check form at a time
HAMMING_ROW_BYTES = 2**20


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


def _agreements(points: PointSet, ens: MeasurementEnsemble) -> np.ndarray:
    """(k, k) sums over the measurements of s_i s_l, the agreeing minus disagreeing signs.

    Every entry is an exact integer.  Each block of fewer than 2^24 columns is
    multiplied in float32: every partial sum of its +-1 products is an
    integer below 2^24 in magnitude, so float32 holds it exactly, and
    several blocks add up exactly in float64.  A block's float32 signs are
    freed as soon as its product is formed.
    """
    bits = sign_matrix(ens, points)
    total = None
    for lo in range(0, ens.m, HAMMING_BLOCK_COLUMNS):
        block = bits[:, lo : lo + HAMMING_BLOCK_COLUMNS].astype(np.float32)
        agree = block @ block.T
        del block
        total = agree if total is None else np.add(total, agree, dtype=np.float64)
    return total


def _hamming_rows(agree: np.ndarray, m: int):
    """Yield (rows, float64 Hamming distances of those rows) in blocks of HAMMING_ROW_BYTES.

    (m - agreements) / 2m is computed from exact integers, so the rows are
    bitwise those of the whole (k, k) float64 Hamming matrix, which is never
    formed: a caller folds each block into its own (k, k) array.
    """
    step = max(1, HAMMING_ROW_BYTES // (8 * len(agree)))
    for lo in range(0, len(agree), step):
        rows = slice(lo, lo + step)
        ham = np.subtract(float(m), agree[rows], dtype=np.float64)
        ham /= 2.0 * m
        yield rows, ham


def one_bit_rip(points: PointSet, ens: MeasurementEnsemble, delta_target: float) -> RipReport:
    """Sup over pairs of |hamming - geodesic| against an additive target."""
    _check_dims(points, ens)
    if ens.m < 1:
        raise ValueError("need at least one measurement")
    if len(points) < 2:
        raise ValueError("need at least two points")
    # the float32 signs are freed before the geodesic matrix is built, and the
    # float64 Hamming rows are folded into it a block at a time
    agree = _agreements(points, ens)
    gap = points.pairwise_geodesic()
    for rows, ham in _hamming_rows(agree, ens.m):
        ham -= gap[rows]
        np.abs(ham, out=gap[rows])
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


def _l1_screen(proj: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(k, k) float64 array whose entries i < j hold sum |p_i - p_j| summed in float32.

    The pairs are scanned in the tiles of linear_l1_rip.  Each band of i rows
    and each block of j rows is cast into a small reused float32 buffer, so
    no (k, m) float32 copy of the projections is formed.  Tiles that cross
    the diagonal also fill entries j <= i, which callers ignore.
    """
    k, m = proj.shape
    sums = np.empty((k, k))
    buf = np.empty((rows, cols, m), dtype=np.float32)
    band = np.empty((rows, m), dtype=np.float32)
    block = np.empty((cols, m), dtype=np.float32)
    for i0 in range(0, k - 1, rows):
        i1 = min(i0 + rows, k - 1)
        p_i = band[: i1 - i0]
        p_i[...] = proj[i0:i1]
        for j0 in range(i0 + 1, k, cols):
            j1 = min(j0 + cols, k)
            p_j = block[: j1 - j0]
            p_j[...] = proj[j0:j1]
            tile = buf[: i1 - i0, : j1 - j0]
            tile[...] = p_j
            tile -= p_i[:, None]
            np.abs(tile, out=tile)
            # einsum's float32 sum runs at about a third of the cost of tile.sum(axis=2)
            sums[i0:i1, j0:j1] = np.einsum("abt->ab", tile)
    return sums


def _l1_gaps(
    proj: np.ndarray, chord: np.ndarray, i: int, js: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    """|normalized l1 statistic - chord| of the pairs (i, j) for j in js, in float64.

    Each pair sums its own contiguous m-row of |p_j - p_i| (bitwise |p_i - p_j|)
    in ``buf[:len(js)]``, as a row-by-row scan does.
    """
    diff = buf[: len(js)]
    np.take(proj, js, axis=0, out=diff)
    diff -= proj[i]
    np.abs(diff, out=diff)
    gap = diff.sum(axis=1)
    gap /= proj.shape[1]
    gap /= HALF_NORMAL_MEAN
    gap -= chord[i, js]
    np.abs(gap, out=gap)
    return gap


def linear_l1_rip(
    points: PointSet, ens: MeasurementEnsemble, delta_target: float
) -> RipReport:
    """Sup over pairs of |normalized l1 statistic - Euclidean distance|.

    Two passes over the k(k-1)/2 pairs i < j, both in tiles of at most
    L1_TILE_BYTES (``_l1_tile``).  The screen sums every pair's |p_i - p_j|
    (p = projections) in float32; with S its exact sum and S~ the float32
    one, |S~ - S| <= 2 (m + 3) 2^-24 (|p_i|_1 + |p_j|_1) for any summation
    order (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4),
    which bounds each gap to within a slack.  The confirm pass recomputes in
    float64 only the pairs whose upper bound reaches the largest lower bound,
    each summing its own contiguous m-row, so the sup and its witness are
    bitwise those of a row-by-row float64 scan; ties go to the first pair in
    row-major order.  Where the bound does not hold (m > 2^23, or a row's l1
    mass that float32 cannot carry) every pair is confirmed.  Besides the
    tiles the audit holds the (k, m) projections and two (k, k) arrays.
    """
    _check_dims(points, ens)
    if ens.m < 1:
        raise ValueError("need at least one measurement")
    if len(points) < 2:
        raise ValueError("need at least two points")
    proj = points.points @ ens.directions.T  # (k, m)
    k, m = proj.shape
    chord = pairwise_chord(points.points)
    rows, cols = _l1_tile(k, m)
    mass = np.empty(k)
    for lo in range(0, k, rows):
        mass[lo : lo + rows] = np.abs(proj[lo : lo + rows]).sum(axis=1)
    # (m - 1) 2^-24 <= 1/2 keeps the bound valid; masses below 2^120 keep
    # every float32 value and partial sum finite (NaN fails too)
    screened = m <= 2**23 and mass.max() < 2.0**120
    if screened:
        approx = _l1_screen(proj, rows, cols)
        approx /= m
        approx /= HALF_NORMAL_MEAN
        approx -= chord
        np.abs(approx, out=approx)
        # |approx - gap| <= slack_i + slack_j, whose 1e-12 covers the float64 steps
        slack = mass * (2 * (m + 3) * 2.0**-24 / (m * HALF_NORMAL_MEAN)) + 0.5e-12
        best = max(
            float((approx[i, i + 1 :] - slack[i + 1 :]).max()) - slack[i] for i in range(k - 1)
        )
    buf = np.empty((rows * cols, m))
    sup, pair = 0.0, (0, 0)  # when every gap is 0, the first entry of the gap matrix
    for i in range(k - 1):
        js = np.arange(i + 1, k)
        if screened:
            upper = approx[i, i + 1 :] + slack[i + 1 :]
            upper += slack[i]
            js = js[upper >= best]
        for lo in range(0, len(js), rows * cols):
            gap = _l1_gaps(proj, chord, i, js[lo : lo + rows * cols], buf)
            a = int(np.argmax(gap))
            if gap[a] > sup:
                sup, pair = float(gap[a]), (i, int(js[lo + a]))
    return _rip_report(sup, pair, ens, delta_target)


def metric_ratio_check(
    points: PointSet, ens: MeasurementEnsemble, min_sep: float
) -> MetricRatioReport:
    """Sup over pairs of |D^2 - d| / d for the conditional metric D.

    Requires every pairwise distance to be at least ``min_sep`` (run the
    points through a packing first); the relative gap is then below 1 in
    expectation-scale, which is what ``passed`` records.  The bound is
    strict because a pair whose Hamming distance collapses to 0 scores
    exactly 1.
    """
    _check_dims(points, ens)
    if ens.m < 1:
        raise ValueError("need at least one measurement")
    if len(points) < 2:
        raise ValueError("need at least two points")
    if min_sep <= 0.0:
        raise ValueError("min_sep must be positive")
    # as in one_bit_rip: the agreements first, then the geodesic matrix, which
    # the ratio rows overwrite
    agree = _agreements(points, ens)
    dist = points.pairwise_geodesic()
    np.fill_diagonal(dist, np.inf)
    if dist.min() < min_sep:
        raise PreconditionError(
            f"pairs closer than min_sep={min_sep}: run a packing before this check"
        )
    np.fill_diagonal(dist, 1.0)
    for rows, ratio in _hamming_rows(agree, ens.m):
        ratio -= dist[rows]
        np.abs(ratio, out=ratio)
        ratio /= dist[rows]
        dist[rows] = ratio
    np.fill_diagonal(dist, 0.0)
    sup, pair = _argmax_pair(dist)
    return MetricRatioReport(
        sup_ratio=sup, argmax_pair=pair, min_sep=float(min_sep), passed=sup < 1.0
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
