"""One-bit measurement maps and the distances built from them.

A measurement ensemble is a fixed batch of directions; the one-bit map of a
point records, per direction, which side of the normal hyperplane the point
falls on.  Hamming distance between two such sign patterns is the empirical
frequency of separating directions, which for uniform directions estimates
the normalized geodesic distance of the pair.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, InvalidDimensionError
from .rng import substream
from .sphere import UNIT_NORM_TOL, PointSet, signs, uniform_sphere_rows

HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


class EnsembleKind(str, Enum):
    UNIFORM_SPHERE = "uniform-sphere"
    GAUSSIAN = "gaussian"


class MeasurementEnsemble:
    """Immutable batch of measurement directions with provenance.

    Attributes
    ----------
    directions : (m, n+1) ndarray, read-only
    kind : EnsembleKind
        Uniform-sphere rows are unit vectors; gaussian rows are standard
        normal draws.
    seed : int or None
        Seed the directions were derived from, or None for explicit arrays.

    An empty ensemble (m = 0) is allowed so that tessellation edge cases can
    be expressed; operations that need at least one direction validate this
    themselves.
    """

    __slots__ = ("directions", "kind", "seed")

    def __init__(self, directions: np.ndarray, kind: EnsembleKind, seed: int | None = None):
        arr = np.array(directions, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise InvalidDimensionError(
                f"directions must form an (m, n+1) array with n >= 1, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("directions must be finite")
        kind = EnsembleKind(kind)
        if kind is EnsembleKind.UNIFORM_SPHERE and arr.shape[0] > 0:
            norms = np.linalg.norm(arr, axis=1)
            worst = float(np.abs(norms - 1.0).max())
            if worst > UNIT_NORM_TOL:
                raise ValueError(
                    f"uniform-sphere directions must be unit rows: worst |norm - 1| = {worst:.3e}"
                )
        arr.flags.writeable = False
        self.directions = arr
        self.kind = kind
        self.seed = None if seed is None else int(seed)

    @classmethod
    def uniform(cls, n: int, m: int, seed: int) -> "MeasurementEnsemble":
        rng = substream(seed, "ensemble", EnsembleKind.UNIFORM_SPHERE.value)
        return cls(uniform_sphere_rows(n, m, rng), EnsembleKind.UNIFORM_SPHERE, seed)

    @classmethod
    def gaussian(cls, n: int, m: int, seed: int) -> "MeasurementEnsemble":
        if n < 1:
            raise InvalidDimensionError(f"sphere dimension must be >= 1, got {n}")
        if m < 0:
            raise ValueError("m must be nonnegative")
        rng = substream(seed, "ensemble", EnsembleKind.GAUSSIAN.value)
        return cls(rng.standard_normal((m, n + 1)), EnsembleKind.GAUSSIAN, seed)

    @property
    def m(self) -> int:
        return self.directions.shape[0]

    @property
    def ambient(self) -> int:
        return self.directions.shape[1]

    def prefix(self, m: int) -> "MeasurementEnsemble":
        """The sub-ensemble of the first m directions (nested ensembles)."""
        if not (0 <= m <= self.m):
            raise ValueError(f"prefix length must lie in [0, {self.m}], got {m}")
        return MeasurementEnsemble(self.directions[:m], self.kind, self.seed)

    def __len__(self):
        return self.m


def sign_matrix(ens: MeasurementEnsemble, points: PointSet) -> np.ndarray:
    """(k, m) int8 matrix of one-bit measurements for every point row."""
    if points.ambient != ens.ambient:
        raise DimensionMismatchError(
            f"points ambient dimension {points.ambient} != ensemble {ens.ambient}"
        )
    return signs(points.points @ ens.directions.T)
