"""Scalar reference twins shared by several test modules.

The library computes these statistics only in vectorized form; the one-pair
versions here are the oracles those kernels and the acceptance criteria are
checked against.
"""

from dataclasses import dataclass

import numpy as np

from onebit import (
    HALF_NORMAL_MEAN,
    DimensionMismatchError,
    EnsembleKind,
    EnsembleKindError,
    MeasurementEnsemble,
    UnitVector,
)


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
    if ens.kind is not EnsembleKind.GAUSSIAN:
        raise EnsembleKindError("sign-product statistic requires a gaussian ensemble")
    check_point(ens, x, y)
    if ens.m == 0:
        raise ValueError("need at least one measurement")
    px = ens.directions @ x.coords
    py = ens.directions @ y.coords
    raw = float(np.mean(np.where(px >= 0, 1.0, -1.0) * py))
    centered = raw - HALF_NORMAL_MEAN * float(x.coords @ y.coords)
    return SignProductReport(lam=HALF_NORMAL_MEAN, statistic=centered, m=ens.m, x=x, y=y)
