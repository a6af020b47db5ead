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
# float64 projections that one row block of sign_matrix holds
SIGN_BLOCK_BYTES = 4 * 2**20


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
    """(k, m) int8 matrix of one-bit measurements for every point row.

    Points are projected in row blocks of at most ``SIGN_BLOCK_BYTES`` of
    float64 (at least one row), so no (k, m) float64 array is formed.  A
    block's projections can differ from the full product's in the last bit,
    which changes a sign only for a projection within rounding of 0, whose
    sign neither product determines.
    """
    if points.ambient != ens.ambient:
        raise DimensionMismatchError(
            f"points ambient dimension {points.ambient} != ensemble {ens.ambient}"
        )
    out = np.empty((len(points), ens.m), dtype=np.int8)
    rows = max(1, SIGN_BLOCK_BYTES // (8 * max(ens.m, 1)))
    for lo in range(0, len(points), rows):
        out[lo : lo + rows] = signs(points.points[lo : lo + rows] @ ens.directions.T)
    return out
