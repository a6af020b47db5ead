"""One-bit measurement maps and the distances built from them.

A measurement ensemble is a fixed batch of directions g_1, ..., g_m; the
one-bit map of a point x records the signs sgn<x, g_j>, that is, which side
of each normal hyperplane the point falls on.  Hamming distance between two
such sign patterns is the empirical frequency of separating directions,
which for iid gaussian directions estimates the normalized geodesic distance
of the pair.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, InvalidDimensionError
from .sphere import PointSet, signs

HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


class MeasurementEnsemble:
    """Immutable batch of m finite measurement directions in R^(n+1).

    Attributes
    ----------
    directions : (m, n+1) ndarray, read-only

    The paper's directions are iid standard gaussian rows.  The one-bit
    checks read only the signs <x, g_j>, which no positive row scale
    changes, so unit rows measure exactly like the gaussian rows they
    normalize; the sign-product and linear l1 statistics read magnitudes and
    assume iid standard gaussian rows.

    An empty ensemble (m = 0) is allowed so that tessellation edge cases can
    be expressed; operations that need at least one direction validate this
    themselves.
    """

    __slots__ = ("directions",)

    def __init__(self, directions: np.ndarray):
        arr = np.array(directions, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise InvalidDimensionError(
                f"directions must form an (m, n+1) array with n >= 1, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("directions must be finite")
        arr.flags.writeable = False
        self.directions = arr

    @property
    def m(self) -> int:
        return self.directions.shape[0]

    @property
    def ambient(self) -> int:
        return self.directions.shape[1]


def sign_matrix(ens: MeasurementEnsemble, points: PointSet) -> np.ndarray:
    """(k, m) int8 matrix of one-bit measurements for every point row."""
    if points.ambient != ens.ambient:
        raise DimensionMismatchError(
            f"points ambient dimension {points.ambient} != ensemble {ens.ambient}"
        )
    return signs(points.points @ ens.directions.T)
