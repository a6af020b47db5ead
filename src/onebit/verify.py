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

from . import blas
from .errors import DimensionMismatchError, PreconditionError
from .measurements import HALF_NORMAL_MEAN, MeasurementEnsemble, sign_matrix
from .sphere import PointSet, geodesic_tile, pairwise_chord

# working memory of linear_l1_rip's pair tile: 4 x 8 pairs at the battery's m = 2773,
# well inside one core's L2
L1_TILE_BYTES = 768 * 2**10
# sign columns cast to float32 at a time for the agreement products
HAMMING_TILE_COLUMNS = 512
# sign columns whose agreement counts a float32 tile sums before it flushes them into
# float64: float32 holds every integer of magnitude up to 2^24 exactly
FLOAT32_EXACT_COUNTS = 2**24
# rows of the pairs that the pair audits visit at a time: 2 MiB of float64 per block
HAMMING_ROW_BYTES = 2 * 2**20


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


def _check_distance_bound(name: str, bound: float):
    """Reject a bound outside (0, 1) on a distance or a gap of two distances in [0, 1].

    Such a value never exceeds 1, so a bound of 1 or more could not fail.
    """
    if not (0.0 < bound < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {bound}")


def _agreement_tile(bits: np.ndarray, lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
    """(hi - lo, k - lo) float64 sums of s_i s_j, i in [lo, hi), j in [lo, k).

    Each entry is the number of agreeing minus disagreeing signs, an exact
    integer.  Columns of the int8 signs are cast into ``buf`` (float32, of
    (k, c) elements) at most c = ``buf.shape[1]`` at a time, and each
    chunk's products are added in place into one float32 tile of counts by
    ``blas.sgemm_nt``.  Every partial sum is an integer no larger in
    magnitude than the columns summed so far, which float32 holds exactly
    up to ``FLOAT32_EXACT_COUNTS``; before that many, the counts are added
    into the float64 tile, where the sums stay exact.  An empty ensemble
    gives the zero tile.
    """
    k, m = bits.shape
    agree = np.zeros((hi - lo, k - lo))
    counts = np.empty(agree.shape, dtype=np.float32)
    summed = 0
    for c0 in range(0, m, buf.shape[1]):
        c1 = min(c0 + buf.shape[1], m)
        if summed and summed + (c1 - c0) > FLOAT32_EXACT_COUNTS:
            agree += counts
            summed = 0
        cols = buf.reshape(-1)[: (k - lo) * (c1 - c0)].reshape(k - lo, c1 - c0)
        cols[...] = bits[lo:, c0:c1]
        blas.sgemm_nt(cols[: hi - lo], cols, counts, 1.0 if summed else 0.0)
        summed += c1 - c0
    if summed:
        agree += counts
    return agree


def _hamming(agree: np.ndarray, m: int) -> np.ndarray:
    """Hamming distances (m - agreements) / 2m of exact agreement counts, in their place.

    The counts are exact integers, so any tile is bitwise those entries of
    the whole (k, k) Hamming matrix.
    """
    np.subtract(float(m), agree, out=agree)
    agree /= 2.0 * m
    return agree


def _hamming_audit(
    points: PointSet, ens: MeasurementEnsemble, fold
) -> tuple[float, tuple[int, int]]:
    """Fold the sign agreements into geodesic tiles; return the largest statistic of a pair i < j.

    Only the upper block triangle of the pairs is visited, and no (k, k)
    array is formed: ``fold(lo, agree, dist)`` gets rows [lo, lo + r)
    against columns [lo, k), with r the rows of HAMMING_ROW_BYTES of
    float64.  ``agree`` holds their exact agreement counts from
    ``_agreement_tile``, of which ``_hamming`` forms the Hamming distances,
    and ``dist`` their geodesic distances from ``geodesic_tile``, built in
    one reused float64 buffer; the fold overwrites ``dist`` with the
    statistic of those pairs.  The tile's diagonal square holds 1.0 on and
    below its diagonal, so a fold may divide by it and sees each pair of the
    square once; those entries count as 0 after the fold.  Besides the
    (k, m) int8 signs the audit holds the geodesic tile, the float64 tile of
    counts, the float32 tile that sums them and one float32 column buffer.
    A running strict maximum over the tiles in row order returns the first
    maximum of the pairs i < j in row-major order, the witness a whole
    (k, k) argmax of the symmetric statistic finds; when every statistic is
    0 that is (0, 0).
    """
    bits = sign_matrix(ens, points)
    k = len(points)
    step = min(k, max(1, HAMMING_ROW_BYTES // (8 * k)))
    geo = np.empty(step * k)
    buf = np.empty((k, min(max(ens.m, 1), HAMMING_TILE_COLUMNS)), dtype=np.float32)
    # the square's pairs j <= i: the diagonal and the twins of pairs the tile holds above it
    lower = np.tri(step, dtype=bool)
    sup, pair = 0.0, (0, 0)
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        tile = geodesic_tile(points.points, lo, hi, geo)
        square = tile[:, : hi - lo]
        mask = lower[: hi - lo, : hi - lo]
        np.copyto(square, 1.0, where=mask)
        fold(lo, _agreement_tile(bits, lo, hi, buf), tile)
        np.copyto(square, 0.0, where=mask)
        value, (i, j) = _argmax_pair(tile)
        if value > sup:
            sup, pair = value, (lo + i, lo + j)
    return sup, pair


def small_cells_check(
    points: PointSet, ens: MeasurementEnsemble, delta: float
) -> tuple[int, PairAudit]:
    """Count the sign-pattern cells of a point set and audit the widest one.

    The hyperplanes normal to the directions tessellate the sphere; an empty
    ensemble leaves a single cell covering everything.  Two points share a
    cell exactly when their signs agree on all m directions, so the widest
    cell's diameter is the largest geodesic distance over such pairs (0 when
    every cell is a singleton), and a point j opens a cell unless some
    i < j shares its pattern.  Returns the number of cells and the audit,
    which passes when the diameter stays below ``delta``.
    """
    _check_dims(points, ens)
    _check_distance_bound("delta", delta)
    shared = np.zeros(len(points), dtype=bool)

    def fold(lo, agree, dist):
        same = agree == ens.m
        dist *= same
        # every pair i < j lies in the tile of row i: keep only those of the diagonal block
        square = same[:, : len(same)]
        square[...] = np.triu(square, 1)
        np.logical_or(shared[lo:], same.any(axis=0), out=shared[lo:])

    sup, pair = _hamming_audit(points, ens, fold)
    num_cells = len(points) - int(np.count_nonzero(shared))
    return num_cells, PairAudit(sup, pair, float(delta), sup < delta)


def one_bit_rip(points: PointSet, ens: MeasurementEnsemble, delta_target: float) -> PairAudit:
    """Sup over pairs of |hamming - geodesic| against an additive target in (0, 1)."""
    _check_audit(points, ens, "delta_target", delta_target)
    _check_distance_bound("delta_target", delta_target)

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
    k m (n + 1) + k^2 (n + 1).  The signs come from ``sign_matrix``, and
    the statistic is formed for HAMMING_ROW_BYTES of rows at a time, less
    HALF_NORMAL_MEAN times those rows of the Gram matrix X X^T; a running
    strict maximum over the blocks in row order keeps the first witness in
    row-major order.  So besides the (k, m) int8 signs the audit holds one
    block of float64 signs and two (rows, k) blocks, and no (k, m) float64
    or (k, k) array.  The reassociated sums and the row-blocked Gram round
    differently from the product over the measurements, so ``sup`` can move
    in its last bits, and ``pair`` only between pairs that tie to within
    that rounding.
    """
    _check_audit(points, ens, "delta_target", delta_target, min_points=1)
    bits = sign_matrix(ens, points)
    x = points.points
    k = len(x)
    step = max(1, HAMMING_ROW_BYTES // (8 * max(k, ens.m)))
    sup, pair = -math.inf, (0, 0)
    for lo in range(0, k, step):
        summed = bits[lo : lo + step].astype(np.float64) @ ens.directions  # (rows, n + 1)
        stats = summed @ x.T
        stats /= ens.m
        gram = x[lo : lo + step] @ x.T
        gram *= HALF_NORMAL_MEAN
        stats -= gram
        np.abs(stats, out=stats)
        value, (i, j) = _argmax_pair(stats)
        if value > sup:
            sup, pair = value, (lo + i, j)
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
    points with high probability.  A delta outside (0, 1) is rejected
    before any direction is drawn.
    """
    _check_distance_bound("delta", delta)
    ens = MeasurementEnsemble(rng.standard_normal((m, points.ambient)))
    return one_bit_rip(points, ens, delta)
