"""Scalar reference twins and seeded ensembles shared by several test modules.

The library computes these statistics only in vectorized form; the one-pair
versions here are the oracles those kernels and the acceptance criteria are
checked against.
"""

from dataclasses import dataclass

import numpy as np

from onebit import (
    HALF_NORMAL_MEAN,
    DimensionMismatchError,
    MeasurementEnsemble,
    PointSet,
    UnitVector,
    sign_matrix,
    substream,
    uniform_sphere_rows,
)


def gaussian_ensemble(n: int, m: int, seed: int) -> MeasurementEnsemble:
    """m iid standard gaussian directions in R^(n+1), drawn from seed's "gaussian" stream."""
    rng = substream(seed, "ensemble", "gaussian")
    return MeasurementEnsemble(rng.standard_normal((m, n + 1)))


def unit_ensemble(n: int, m: int, seed: int) -> MeasurementEnsemble:
    """m uniform unit directions of S^n, drawn from seed's "uniform-sphere" stream."""
    rng = substream(seed, "ensemble", "uniform-sphere")
    return MeasurementEnsemble(uniform_sphere_rows(n, m, rng))


def check_point(ens: MeasurementEnsemble, *points: UnitVector):
    for p in points:
        if p.ambient != ens.ambient:
            raise DimensionMismatchError(
                f"point ambient dimension {p.ambient} != ensemble {ens.ambient}"
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
    x: UnitVector
    y: UnitVector


def sign_product_statistic(
    ens: MeasurementEnsemble, x: UnitVector, y: UnitVector
) -> SignProductReport:
    """Centered estimator of lam * (x . y) from signed first measurements.

    The one-pair twin of ``sign_product_rip``, which takes the sup of its
    absolute value over all ordered pairs of a point set.
    """
    check_point(ens, x, y)
    if ens.m == 0:
        raise ValueError("need at least one measurement")
    px = ens.directions @ x.coords
    py = ens.directions @ y.coords
    raw = float(np.mean(np.where(px >= 0, 1.0, -1.0) * py))
    centered = raw - HALF_NORMAL_MEAN * float(x.coords @ y.coords)
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
