"""Scalar reference twins and seeded ensembles shared by several test modules.

The library computes these statistics only in vectorized form, on points
held as rows; the one-point and one-pair versions here, on single rows, are
the oracles those kernels and the acceptance criteria are checked against.
"""

import math
from dataclasses import dataclass

import numpy as np

from onebit import (
    HALF_NORMAL_MEAN,
    DimensionMismatchError,
    MeasurementEnsemble,
    PointSet,
    sign_matrix,
    substream,
    uniform_sphere_rows,
)
from onebit.sphere import _crossing_fraction


def unit(*coords) -> np.ndarray:
    """The unit row along a nonzero vector of coordinates."""
    row = np.array(coords, dtype=float)
    return row / np.linalg.norm(row)


# --- one pair's arc ------------------------------------------------------------


def arc_angle(x: np.ndarray, y: np.ndarray) -> float:
    """Angle in radians between unit rows: math.acos of the clipped inner product."""
    return math.acos(float(np.clip(x @ y, -1.0, 1.0)))


def geodesic_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Scalar twin of ``pairwise_geodesic``: normalized distance in [0, 1], antipodes at 1."""
    return arc_angle(x, y) / math.pi


def geodesic_point(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """Constant-speed parametrization of the arc x..y at fraction t in [0, 1]."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    a = arc_angle(x, y)
    return unit(*((math.sin((1.0 - t) * a) * x + math.sin(t * a) * y) / math.sin(a)))


def _tangent_component(x: np.ndarray, y: np.ndarray, theta: np.ndarray, t) -> np.ndarray:
    """theta . gamma'(t) / |gamma'(t)| for the constant-speed parametrization of x..y.

    gamma'(t) = (-a cos((1-t)a) x + a cos(ta) y) / sin(a) has norm a, so the
    normalized tangent component is the bracket divided by sin(a).
    """
    a = arc_angle(x, y)
    return (-np.cos((1.0 - t) * a) * (theta @ x) + np.cos(t * a) * (theta @ y)) / math.sin(a)


def in_wedge(theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> bool:
    """Scalar twin of ``wedge_mask``: does the hyperplane normal to theta separate x from y?

    Membership is a sign disagreement of the two inner products, with the
    sign of 0 taken as +1, so tangent hyperplanes count as non-separating.
    """
    return (float(theta @ x) >= 0) != (float(theta @ y) >= 0)


def transversal_separation(theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> bool:
    """Scalar twin of ``transversal_mask`` on one direction.

    Places the crossing on the arc with :func:`geodesic_point` and measures
    its endpoint distances with :func:`geodesic_distance`, where the kernel
    uses arc fractions.  Raises ValueError when theta is not in the wedge of
    the pair.
    """
    if not in_wedge(theta, x, y):
        raise ValueError("direction does not separate the pair")
    fa = float(theta @ x)
    fb = float(theta @ y)
    if fa == 0.0 or fb == 0.0:
        # crossing at an endpoint: the distance condition cannot hold
        return False
    t_star = float(_crossing_fraction(fa, fb, arc_angle(x, y)))
    z = geodesic_point(x, y, t_star)
    if min(geodesic_distance(z, x), geodesic_distance(z, y)) < geodesic_distance(x, y) / 4.0:
        return False
    sin_angle = abs(float(_tangent_component(x, y, theta, t_star)))
    return math.asin(min(1.0, sin_angle)) >= math.pi / 4.0


# --- measurements --------------------------------------------------------------


def gaussian_ensemble(n: int, m: int, seed: int) -> MeasurementEnsemble:
    """m iid standard gaussian directions in R^(n+1), drawn from seed's "gaussian" stream."""
    rng = substream(seed, "ensemble", "gaussian")
    return MeasurementEnsemble(rng.standard_normal((m, n + 1)))


def unit_ensemble(n: int, m: int, seed: int) -> MeasurementEnsemble:
    """m uniform unit directions of S^n, drawn from seed's "uniform-sphere" stream."""
    rng = substream(seed, "ensemble", "uniform-sphere")
    return MeasurementEnsemble(uniform_sphere_rows(n, m, rng))


def check_point(ens: MeasurementEnsemble, *points: np.ndarray):
    for p in points:
        if p.shape[-1] != ens.ambient:
            raise DimensionMismatchError(
                f"point ambient dimension {p.shape[-1]} != ensemble {ens.ambient}"
            )


@dataclass(frozen=True)
class SignProductReport:
    """Centered sign-product statistic for one pair.

    ``statistic`` is (1/m) sum_j sign(x . g_j) (y . g_j) minus lam * (x . y),
    where ``lam`` = sqrt(2/pi) is the exact expectation factor, so the report
    value fluctuates around zero.
    """

    lam: float
    statistic: float
    m: int
    x: np.ndarray
    y: np.ndarray


def sign_product_statistic(
    ens: MeasurementEnsemble, x: np.ndarray, y: np.ndarray
) -> SignProductReport:
    """Centered estimator of lam * (x . y) from signed first measurements.

    The one-pair twin of ``sign_product_rip``, which takes the sup of its
    absolute value over all ordered pairs of a point set.
    """
    check_point(ens, x, y)
    if ens.m == 0:
        raise ValueError("need at least one measurement")
    px = ens.directions @ x
    py = ens.directions @ y
    raw = float(np.mean(np.where(px >= 0, 1.0, -1.0) * py))
    centered = raw - HALF_NORMAL_MEAN * float(x @ y)
    return SignProductReport(lam=HALF_NORMAL_MEAN, statistic=centered, m=ens.m, x=x, y=y)


def cell_audit(points: PointSet, ens: MeasurementEnsemble) -> tuple[int, float]:
    """(number of sign-pattern cells, widest cell's geodesic diameter), cell by cell.

    The twin of ``small_cells_check``: it groups the points by their sign
    rows and takes each cell's diameter over its own submatrix of the
    geodesic distances.
    """
    _, inverse = np.unique(sign_matrix(ens, points), axis=0, return_inverse=True)
    inverse = inverse.ravel()
    dist = points.pairwise_geodesic()
    num_cells = int(inverse.max()) + 1
    widest = 0.0
    for cell in range(num_cells):
        members = np.flatnonzero(inverse == cell)
        widest = max(widest, float(dist[np.ix_(members, members)].max()))
    return num_cells, widest


# --- pair audits over whole (k, k) matrices --------------------------------------


def _first_max(values: np.ndarray) -> tuple[float, tuple[int, int]]:
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    return float(values[i, j]), (int(i), int(j))


def agreements(points: PointSet, ens: MeasurementEnsemble) -> np.ndarray:
    """(k, k) agreeing minus disagreeing signs, in one float32 product of the (k, m) signs.

    The single-product form the Hamming audits' tiles replace: every partial
    sum of +-1 products is an integer, exact in float32 while m < 2^24.
    """
    bits = sign_matrix(ens, points).astype(np.float32)
    return (bits @ bits.T).astype(np.float64)


def exact_agreements(bits: np.ndarray) -> np.ndarray:
    """(k, k) agreeing minus disagreeing signs of (k, m) +-1 rows, summed in int64, as float64."""
    wide = bits.astype(np.int64)
    return (wide @ wide.T).astype(np.float64)


def gram_geodesic(points) -> np.ndarray:
    """pairwise_geodesic's formula over the whole of numpy's x @ x.T, diagonal 0."""
    x = np.asarray(points, dtype=float)
    dist = np.arccos(np.clip(x @ x.T, -1.0, 1.0)) / np.pi
    np.fill_diagonal(dist, 0.0)
    return dist


def gram_chord(points) -> np.ndarray:
    """pairwise_chord's formula sqrt(2 - 2 <x, y>) over the whole of numpy's x @ x.T, diagonal 0."""
    x = np.asarray(points, dtype=float)
    chord = 2.0 - 2.0 * np.clip(x @ x.T, -1.0, 1.0)
    np.fill_diagonal(chord, 0.0)
    return np.sqrt(chord)


def hamming_audits(points: PointSet, ens: MeasurementEnsemble) -> dict:
    """(sup, pair) of each Hamming audit's statistic over whole (k, k) matrices.

    ``rip`` is one_bit_rip's |hamming - geodesic|, ``ratio``
    metric_ratio_check's |hamming - geodesic| / geodesic (meaningful on a
    packed set) and ``cells`` small_cells_check's same-cell diameter, with
    the diagonal at 0 and ties to the first pair in row-major order.
    ``num_cells`` counts the points whose first equal pattern is their own.
    """
    agree = agreements(points, ens)
    ham = (ens.m - agree) / (2.0 * ens.m)
    dist = points.pairwise_geodesic()
    np.fill_diagonal(dist, 1.0)
    same = agree == ens.m
    out = {}
    for name, stat in (
        ("rip", np.abs(ham - dist)),
        ("ratio", np.abs(ham - dist) / dist),
        ("cells", dist * same),
    ):
        np.fill_diagonal(stat, 0.0)
        out[name] = _first_max(stat)
    out["num_cells"] = int(np.count_nonzero(np.argmax(same, axis=1) == np.arange(len(same))))
    return out


def sign_product_whole(points: PointSet, ens: MeasurementEnsemble) -> tuple[float, tuple[int, int]]:
    """sign_product_rip's (sup, pair) from whole arrays: the (k, m) float64 signs of
    one product X G^T, then (sgn G) X^T / m less sqrt(2/pi) X X^T, all (k, k)."""
    sgn = np.where(points.points @ ens.directions.T >= 0.0, 1.0, -1.0)
    stats = (sgn @ ens.directions) @ points.points.T
    stats /= ens.m
    gram = points.points @ points.points.T
    gram *= HALF_NORMAL_MEAN
    stats -= gram
    return _first_max(np.abs(stats))
