"""Sphere geometry on point rows: distances, samplers, nets, and hyperplane crossings.

Conventions used throughout the package:

* a point of S^n is a unit vector in R^(n+1), held as a row of a (k, n+1)
  array, so ``n`` always denotes the sphere dimension and ``n + 1`` the
  ambient dimension;
* distances are normalized geodesic distances, arccos of the inner product
  divided by pi, so antipodal points sit at distance exactly 1;
* the sign of 0 is +1 everywhere a sign is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import DimensionMismatchError, InvalidDimensionError

UNIT_NORM_TOL = 1e-9
ANTIPODAL_TOL = 1e-12
# sparse_net appends one companion per nearest pair, this many of them, each the
# pair's lower-index endpoint moved along a gaussian tangent scaled by CLOSE_SCALE
CLOSE_PAIRS = 10
CLOSE_SCALE = 0.05
# rows of a pair matrix that mirror_upper visits at a time: few enough bands that a
# 210-point matrix costs no more than numpy's mirrored x @ x.T, and narrow enough that
# a transform skips most of the lower triangle
MIRROR_ROWS = 128
_STRICT_LOWER = np.tri(MIRROR_ROWS, k=-1, dtype=bool)
_STRICT_LOWER.flags.writeable = False


@dataclass(frozen=True)
class SparseSpec:
    """Sparsity regime: s-sparse unit vectors in R^(n+1).

    ``n`` is the sphere dimension, ``s`` the sparsity level; 0 < s < n + 1.
    """

    n: int
    s: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not isinstance(self.s, (int, np.integer)):
            raise ValueError("SparseSpec fields must be integers")
        if self.n < 1:
            raise InvalidDimensionError(f"sphere dimension must be >= 1, got {self.n}")
        if not (0 < self.s < self.n + 1):
            raise ValueError(f"need 0 < s < n + 1, got s={self.s}, n={self.n}")

    @property
    def ambient(self) -> int:
        return self.n + 1


def _check_same_ambient(*arrs):
    sizes = {a.shape[-1] for a in arrs}
    if len(sizes) != 1:
        raise DimensionMismatchError(f"mixed ambient dimensions: {sorted(sizes)}")


def mirror_upper(a: np.ndarray, transform=None) -> None:
    """Copy the strict upper triangle of a square array onto its strict lower triangle.

    Runs in row blocks of ``MIRROR_ROWS``.  Each block's diagonal square is
    mirrored through one mask; then ``transform``, if given, maps the
    block's entries from its diagonal rightwards elementwise and in place;
    then the block right of its square is copied, transposed, below it.  So
    a transform reaches only the upper block triangle, and every mirrored
    entry is its transformed twin.  A matrix of at most ``MIRROR_ROWS`` rows
    takes one block.
    """
    k = len(a)
    for lo in range(0, k, MIRROR_ROWS):
        hi = min(lo + MIRROR_ROWS, k)
        square = a[lo:hi, lo:hi]
        np.copyto(square, square.T, where=_STRICT_LOWER[: hi - lo, : hi - lo])
        if transform is not None:
            transform(a[lo:hi, lo:])
        a[hi:, lo:hi] = a[lo:hi, hi:].T


def _pairwise(points, transform) -> np.ndarray:
    """(k, k) symmetric matrix of transform(<x_i, x_j>) over the rows of points, diagonal 0.

    ``transform`` maps Gram entries elementwise, in place.
    ``blas.syrk_upper`` writes the Gram's upper triangle by the dsyrk call
    numpy's ``x @ x.T`` makes, and :func:`mirror_upper` transforms only the
    upper block triangle and mirrors it.  The transforms act entry by
    entry, so every bit equals that of transforming the whole of
    ``x @ x.T``.  Input that is not C-ordered float64 is copied first.
    """
    points = np.ascontiguousarray(points, dtype=float)
    out = np.empty((len(points), len(points)))
    blas.syrk_upper(points, out)
    mirror_upper(out, transform)
    np.fill_diagonal(out, 0.0)
    return out


def _geodesic_of_gram(gram: np.ndarray) -> None:
    np.clip(gram, -1.0, 1.0, out=gram)
    np.arccos(gram, out=gram)
    gram /= np.pi


def _chord_of_gram(gram: np.ndarray) -> None:
    # scaling by -2 is exact, so the bits equal those of sqrt(2 - 2 <x, y>)
    np.clip(gram, -1.0, 1.0, out=gram)
    gram *= -2.0
    gram += 2.0
    np.sqrt(gram, out=gram)


def pairwise_geodesic(points: np.ndarray) -> np.ndarray:
    """Normalized geodesic distance matrix for rows of a (k, n+1) array.

    arccos of the inner product clipped to [-1, 1], over pi.  The diagonal
    is set to exactly 0 so downstream covariance constructions see the
    identity d(x, x) = 0 without arccos roundoff.
    """
    return _pairwise(points, _geodesic_of_gram)


def pairwise_chord(points: np.ndarray) -> np.ndarray:
    """Euclidean chord |x - y|_2 matrix for rows of a (k, n+1) array of unit rows.

    Computed in place as sqrt(2 - 2 <x, y>) with the inner product clipped
    to [-1, 1].  The diagonal is set to exactly 0.
    """
    return _pairwise(points, _chord_of_gram)


# --- samplers ---------------------------------------------------------------


def uniform_sphere_rows(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n+1) array of independent uniform points of S^n."""
    if n < 1:
        raise InvalidDimensionError(f"sphere dimension must be >= 1, got {n}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    g = rng.standard_normal((count, n + 1))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # resample any zero-norm rows; probability zero but keeps the map total
    bad = np.flatnonzero(norms[:, 0] == 0.0)
    for i in bad:
        g[i] = rng.standard_normal(n + 1)
        norms[i, 0] = np.linalg.norm(g[i])
    return g / norms


# --- point sets --------------------------------------------------------------


class PointSet:
    """A finite collection of sphere points stored as rows."""

    __slots__ = ("points",)

    def __init__(self, points: np.ndarray):
        arr = np.array(points, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
            raise ValueError(f"need a nonempty (k, n+1) array with n >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("sphere point coordinates must be finite")
        norms = np.linalg.norm(arr, axis=1)
        worst = float(np.abs(norms - 1.0).max())
        if worst > UNIT_NORM_TOL:
            raise ValueError(f"rows must be unit vectors: worst |norm - 1| = {worst:.3e}")
        arr.flags.writeable = False
        self.points = arr

    def __len__(self):
        return self.points.shape[0]

    @property
    def ambient(self) -> int:
        return self.points.shape[1]

    @property
    def n(self) -> int:
        return self.points.shape[1] - 1

    def subset(self, indices) -> "PointSet":
        return PointSet(self.points[np.asarray(indices, dtype=int)])

    def pairwise_geodesic(self) -> np.ndarray:
        return pairwise_geodesic(self.points)

    @classmethod
    def uniform(cls, n: int, count: int, rng: np.random.Generator) -> "PointSet":
        if count < 1:
            raise ValueError("count must be >= 1")
        return cls(uniform_sphere_rows(n, count, rng))

    @classmethod
    def sparse(cls, spec: SparseSpec, count: int, rng: np.random.Generator) -> "PointSet":
        """``count`` independent uniform s-sparse points: uniform support, uniform direction.

        Draws one (count, n+1) block of uniform keys; a row's support is the
        ``spec.s`` coordinates with the smallest keys, in index order.  Then
        draws one (count, s) standard normal block and redraws, in row order,
        the rows with a zero coordinate until none is left, so every point has
        exactly s nonzero coordinates.  Each row is normalized and scattered
        onto its support.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        s = spec.s
        keys = rng.random((count, spec.ambient))
        # argpartition leaves its first s indices in no stated order; sorting
        # them ties each normal to a coordinate by the keys alone
        support = np.sort(np.argpartition(keys, s - 1, axis=1)[:, :s], axis=1)
        g = rng.standard_normal((count, s))
        redraw = np.flatnonzero(~g.all(axis=1))
        while redraw.size:
            g[redraw] = rng.standard_normal((redraw.size, s))
            redraw = redraw[~g[redraw].all(axis=1)]
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        rows = np.zeros((count, spec.ambient))
        np.put_along_axis(rows, support, g, axis=1)
        return cls(rows)


def _close_pair_rows(dist: np.ndarray, count: int) -> list[int]:
    """Lower endpoint of each of the ``count`` closest pairs, closest first.

    ``dist`` holds symmetric distances with +inf on the diagonal.  Pairs come
    in the order in which a stable sort of all k^2 entries meets each pair
    first: by (distance, i, j) with i < j, and the row i is chosen.  Nets
    with fewer than ``count`` pairs continue with the self-pairs (i, i) in
    index order, as that sort reaches the diagonal last.

    Each pair is the row minimum of at most two rows, so the 2 * count
    smallest row minima, all at or below the largest of them, t, come from at
    least ``count`` distinct pairs.  Every pair at or below t lies in rows
    whose minimum is at most t, so only those rows' entries <= t are sorted.
    """
    k = dist.shape[0]
    row_min = dist.min(axis=1)
    # with fewer than 2 * count rows every pair is a candidate (distances <= 1)
    t = np.partition(row_min, 2 * count - 1)[2 * count - 1] if k >= 2 * count else 1.0
    rows = np.flatnonzero(row_min <= t)
    ii, jj = np.nonzero(dist[rows] <= t)
    ii = rows[ii]
    upper = ii < jj
    ii, jj = ii[upper], jj[upper]
    chosen = ii[np.lexsort((jj, ii, dist[ii, jj]))[:count]].tolist()
    return chosen + list(range(min(k, count - len(chosen))))


def sparse_net(spec: SparseSpec, size: int, rng: np.random.Generator) -> PointSet:
    """Finite stand-in for the s-sparse sphere used by sup-over-pairs checks.

    Draws ``size`` independent s-sparse points, then appends one companion
    per nearest pair (``CLOSE_PAIRS`` of them): a small in-support tangent
    perturbation (scaled by ``CLOSE_SCALE``) of the pair's lower-index
    endpoint, so the net does not depend on how a sort breaks ties.
    Companions stay inside the s-sparse set and guarantee the net exercises
    small geodesic distances, where relative distortion checks are hardest.
    """
    base = PointSet.sparse(spec, size, rng)
    dist = base.pairwise_geodesic()
    np.fill_diagonal(dist, np.inf)  # a point is not its own close pair
    chosen = _close_pair_rows(dist, CLOSE_PAIRS)
    extras = []
    for idx in chosen:
        x = base.points[idx]
        support = np.flatnonzero(x)
        t = rng.standard_normal(support.size)
        local = x[support]
        t -= (t @ local) * local  # tangent within the support subsphere
        perturbed = local + CLOSE_SCALE * t
        perturbed /= np.linalg.norm(perturbed)
        row = np.zeros_like(x)
        row[support] = perturbed
        extras.append(row)
    rows = np.vstack([base.points, np.stack(extras)])
    return PointSet(rows)


# --- wedges and arc crossings -----------------------------------------------


def signs(values: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) = +1, as int8."""
    out = np.greater_equal(values, 0, out=np.empty(np.shape(values), dtype=bool)).view(np.int8)
    out *= 2
    out -= 1
    return out


def wedge_mask(thetas: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized wedge membership for direction rows; ``x`` and ``y`` are unit rows."""
    thetas = np.asarray(thetas, dtype=float)
    _check_same_ambient(thetas, np.asarray(x), np.asarray(y))
    return (thetas @ np.asarray(x) >= 0) != (thetas @ np.asarray(y) >= 0)


def _crossing_fraction(fa, fb, angle: float):
    """Arc fraction in [0, 1] where the hyperplane with these endpoint values cuts the arc.

    The normal's inner product along the constant-speed arc is proportional
    to sin((1-t)a) fa + sin(ta) fb.  Orienting the normal so that
    pa = sgn fa >= 0 (and hence pb = sgn fb <= 0 inside the wedge), the zero
    solves tan(ta) = sin(a) pa / (cos(a) pa - pb), whose atan2 branch lies
    in [0, a].  Works elementwise on arrays and on scalars.
    """
    sgn = np.where(fa >= 0, 1.0, -1.0)
    pa = sgn * fa
    pb = sgn * fb
    t = np.arctan2(math.sin(angle) * pa, math.cos(angle) * pa - pb) / angle
    return np.clip(t, 0.0, 1.0)


def transversal_mask(thetas: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Does the hyperplane normal to each direction row cut the arc x..y transversally?

    ``x`` and ``y`` are unit rows, as for :func:`wedge_mask`; equal or
    antipodal endpoints raise ValueError, since the arc between them is not
    unique.  The crossing must make an angle of at least pi/4 with the arc
    and sit at geodesic distance at least d(x, y) / 4 from both endpoints.
    Directions outside the wedge, and crossings at an endpoint, are reported
    False, which is the convention Monte Carlo frequency estimates need.  The
    crossing point comes from the closed form of :func:`_crossing_fraction`,
    evaluated on all wedge members at once.
    """
    thetas = np.asarray(thetas, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_same_ambient(thetas, x, y)
    dot = float(np.clip(x @ y, -1.0, 1.0))
    if abs(dot) >= 1.0 - ANTIPODAL_TOL:
        raise ValueError("endpoints are equal or antipodal; the arc is not unique")
    a = math.acos(dot)
    length = a / math.pi
    fa = thetas @ x
    fb = thetas @ y
    mask = (fa >= 0) != (fb >= 0)
    out = np.zeros(thetas.shape[0], dtype=bool)
    if not mask.any():
        return out
    fa = fa[mask]
    fb = fb[mask]
    sin_a = math.sin(a)
    endpoint = (fa == 0.0) | (fb == 0.0)

    t_star = _crossing_fraction(fa, fb, a)

    # distance condition: constant-speed parametrization puts the crossing at
    # arc fraction t_star, so both endpoint distances are fractions of d(x,y)
    span = np.minimum(t_star, 1.0 - t_star) * length
    far_enough = span >= length / 4.0

    tangent = (-np.cos((1.0 - t_star) * a) * fa + np.cos(t_star * a) * fb) / sin_a
    steep_enough = np.arcsin(np.minimum(1.0, np.abs(tangent))) >= math.pi / 4.0

    out[np.flatnonzero(mask)] = far_enough & steep_enough & ~endpoint
    return out
