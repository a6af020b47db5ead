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
