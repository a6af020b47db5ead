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
# rows of the (k, k) matrices that _hamming_audit folds at a time: 1 MiB of float64 per block
HAMMING_ROW_BYTES = 2**20


@dataclass(frozen=True)
class PairAudit:
    """Worst pair of a point set under one check, against the bound it is held to.

    ``sup`` is the largest statistic over the pairs and ``pair`` its first
    witness in row-major order; ``passed`` records whether ``sup`` kept
    within ``bound``.
    """

    sup: float
    pair: tuple[int, int]
    bound: float
    passed: bool


def _argmax_pair(values: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest entry of a matrix and its index; ties go to the first in row-major order."""
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    return float(values[i, j]), (int(i), int(j))


def _check_dims(points: PointSet, ens: MeasurementEnsemble):
    if points.ambient != ens.ambient:
        raise DimensionMismatchError(
            f"points ambient dimension {points.ambient} != ensemble {ens.ambient}"
        )


def _check_audit(
    points: PointSet, ens: MeasurementEnsemble, name: str, bound: float, min_points: int = 2
):
    """Reject what a pair audit cannot measure, and a bound that is not finite and positive."""
    _check_dims(points, ens)
    if ens.m < 1:
        raise ValueError("need at least one measurement")
    if len(points) < min_points:
        raise ValueError(f"need at least {min_points} points")
    if not (math.isfinite(bound) and bound > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {bound}")


def _agreements(points: PointSet, ens: MeasurementEnsemble) -> np.ndarray:
    """(k, k) sums over the measurements of s_i s_l, the agreeing minus disagreeing signs.

    Every entry is an exact integer.  Each block of fewer than 2^24 columns is
    multiplied in float32: every partial sum of its +-1 products is an
    integer below 2^24 in magnitude, so float32 holds it exactly, and
    several blocks add up exactly in float64.  A block's float32 signs are
    freed as soon as its product is formed.  An empty ensemble is one empty
    block, whose product is the (k, k) zero matrix.
    """
    bits = sign_matrix(ens, points)
    total = None
    for lo in range(0, max(ens.m, 1), HAMMING_BLOCK_COLUMNS):
        block = bits[:, lo : lo + HAMMING_BLOCK_COLUMNS].astype(np.float32)
        agree = block @ block.T
        del block
        total = agree if total is None else np.add(total, agree, dtype=np.float64)
    return total


def _hamming(agree: np.ndarray, m: int) -> np.ndarray:
    """Float64 Hamming distances (m - agreements) / 2m of exact agreement counts.

    The counts are exact integers, so any block of rows is bitwise those
    rows of the whole (k, k) Hamming matrix.
    """
    ham = np.subtract(float(m), agree, dtype=np.float64)
    ham /= 2.0 * m
    return ham


def _hamming_audit(
    points: PointSet, ens: MeasurementEnsemble, fold
) -> tuple[float, tuple[int, int]]:
    """Fold the sign agreements into the geodesic matrix; return its largest off-diagonal entry.

    The agreements are counted first, so the float32 signs are freed before
    the (k, k) geodesic matrix is built.  Its diagonal is set to 1.0, so a
    fold may divide by it.  ``fold(lo, agree, dist)`` gets HAMMING_ROW_BYTES
    of rows at a time, from row ``lo`` on: the exact agreement counts
    ``agree``, of which ``_hamming`` forms those rows' Hamming distances, and
    the geodesic rows ``dist``, which it overwrites with the statistic of
    those pairs.  So no (k, k) float64 Hamming matrix is formed.  The
    diagonal is then zeroed, and ties go to the first pair in row-major
    order.
    """
    agree = _agreements(points, ens)
    dist = points.pairwise_geodesic()
    np.fill_diagonal(dist, 1.0)
    step = max(1, HAMMING_ROW_BYTES // (8 * len(dist)))
    for lo in range(0, len(dist), step):
        fold(lo, agree[lo : lo + step], dist[lo : lo + step])
    np.fill_diagonal(dist, 0.0)
    return _argmax_pair(dist)


def small_cells_check(
    points: PointSet, ens: MeasurementEnsemble, delta: float
) -> tuple[int, PairAudit]:
    """Count the sign-pattern cells of a point set and audit the widest one.

    The hyperplanes normal to the directions tessellate the sphere; an empty
    ensemble leaves a single cell covering everything.  Two points share a
    cell exactly when their signs agree on all m directions, so the widest
    cell's diameter is the largest geodesic distance over such pairs (0 when
    every cell is a singleton), and a point opens a cell unless an earlier
    point shares its pattern.  Returns the number of cells and the audit,
    which passes when the diameter stays below ``delta``.
    """
    _check_dims(points, ens)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    num_cells = 0

    def fold(lo, agree, dist):
        nonlocal num_cells
        same = agree == ens.m
        # the first point sharing row i's pattern is i itself when i opens a cell
        first = np.argmax(same, axis=1)
        num_cells += int(np.count_nonzero(first == np.arange(lo, lo + len(same))))
        dist *= same

    sup, pair = _hamming_audit(points, ens, fold)
    return num_cells, PairAudit(sup, pair, float(delta), sup < delta)


def one_bit_rip(points: PointSet, ens: MeasurementEnsemble, delta_target: float) -> PairAudit:
    """Sup over pairs of |hamming - geodesic| against an additive target."""
    _check_audit(points, ens, "delta_target", delta_target)

    def fold(lo, agree, dist):
        ham = _hamming(agree, ens.m)
        ham -= dist
        np.abs(ham, out=dist)

    sup, pair = _hamming_audit(points, ens, fold)
    return PairAudit(sup, pair, float(delta_target), sup <= delta_target)


def sign_product_rip(
    points: PointSet, ens: MeasurementEnsemble, delta_target: float
) -> PairAudit:
    """Sup over ordered pairs (diagonal included) of the centered sign product.

    The product sgn(P) P^T / m with P = X G^T (points X, directions G) is
    summed through the ambient dimension as (sgn(P) G) X^T / m: it skips the
    k^2 m multiply-adds of the (k, k) product over the m measurements for
    k m (n + 1) + k^2 (n + 1).  The signs overwrite P, so one (k, m) array
    is alive at a time.  The reassociated sums round differently, so
    ``sup`` can move in its last bits, and ``pair`` only between pairs that
    tie to within that rounding.
    """
    _check_audit(points, ens, "delta_target", delta_target, min_points=1)
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
    sup, pair = _argmax_pair(stats)
    return PairAudit(sup, pair, float(delta_target), sup <= delta_target)


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
) -> PairAudit:
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
    _check_audit(points, ens, "delta_target", delta_target)
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
    return PairAudit(sup, pair, float(delta_target), sup <= delta_target)


def metric_ratio_check(
    points: PointSet, ens: MeasurementEnsemble, min_sep: float
) -> PairAudit:
    """Sup over pairs of |D^2 - d| / d for the conditional metric D.

    Requires every pairwise distance to be at least ``min_sep`` (run the
    points through a packing first); the relative gap is then below 1 in
    expectation-scale, which is what ``passed`` records against the bound
    1.  The bound is strict because a pair whose Hamming distance collapses
    to 0 scores exactly 1.
    """
    _check_audit(points, ens, "min_sep", min_sep)

    def fold(lo, agree, dist):
        # the diagonal holds 1.0, the largest distance, so it trips only where every pair does
        if dist.min() < min_sep:
            raise PreconditionError(
                f"pairs closer than min_sep={min_sep}: run a packing before this check"
            )
        ham = _hamming(agree, ens.m)
        ham -= dist
        np.abs(ham, out=ham)
        np.divide(ham, dist, out=dist)

    sup, pair = _hamming_audit(points, ens, fold)
    return PairAudit(sup, pair, 1.0, sup < 1.0)


def finite_embedding(
    points: PointSet, m: int, delta: float, rng: np.random.Generator
) -> PairAudit:
    """Draw m gaussian directions and audit the one-bit embedding of a point set.

    The audit passes when every pair's Hamming distance is delta-close to
    its geodesic distance, which m of order delta^-2 log k ensures for k
    points with high probability.
    """
    ens = MeasurementEnsemble(rng.standard_normal((m, points.ambient)))
    return one_bit_rip(points, ens, delta)
