"""Packing and covering nets and cap shattering.

The central construction is randomized greedy packing: scan the points in a
seeded random order and keep every point further than delta from everything
kept so far.  The kept set is delta-separated by construction and, being
maximal, also covers the input at radius delta, so one run yields both a
packing lower estimate and a covering upper estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError
from .sphere import PointSet

SHATTER_MAX_POINTS = 22
_ON_PLANE_TOL = 1e-9  # a lifted point this close to a hyperplane lies on it
_COVER_BLOCK = 256  # columns per block of the nearest-earlier-index pass


@dataclass(frozen=True)
class NetReport:
    """Result of one greedy net construction at scale delta.

    ``packing_size`` lower-bounds the maximal delta-separated cardinality
    and, since a maximal packing's centers also cover the input at radius
    delta, upper-bounds the delta-covering number.
    """

    packing_size: int
    centers: PointSet
    center_indices: tuple[int, ...]


def greedy_packing(points: PointSet, delta: float, rng: np.random.Generator) -> NetReport:
    """Maximal delta-separated subset in a seeded random scan order.

    Separation is strict (pairwise distance > delta), so every rejected
    point is within delta of some center and the centers form a covering.
    Both properties are re-verified exhaustively before returning.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return _greedy_packing(points, points.pairwise_geodesic(), delta, rng)


def _greedy_packing(
    points: PointSet, dist: np.ndarray, delta: float, rng: np.random.Generator
) -> NetReport:
    """greedy_packing on the points' geodesic matrix ``dist``, which it only reads."""
    k = len(points)
    order = rng.permutation(k)
    available = np.ones(k, dtype=bool)
    kept: list[int] = []
    for idx in order:
        i = int(idx)
        if available[i]:
            kept.append(i)
            available &= dist[i] > delta
    kept_arr = np.array(kept, dtype=int)

    # one boolean pass counts, for each point i, the centers c with dist[i, c] <= delta
    is_center = np.zeros(k, dtype=bool)
    is_center[kept_arr] = True
    near = dist <= delta
    near &= is_center
    near_centers = np.count_nonzero(near, axis=1)
    # a center counts itself when its diagonal entry, which need not be zero, is <= delta
    counts_itself = dist.diagonal()[kept_arr] <= delta
    if (near_centers[kept_arr] > counts_itself).any():
        raise RuntimeError("greedy packing produced a non-separated set")
    if not near_centers.all():
        raise RuntimeError("greedy packing centers fail to cover the input")

    return NetReport(
        packing_size=len(kept),
        centers=points.subset(kept_arr),
        center_indices=tuple(int(i) for i in kept),
    )


def _nearest_earlier(dist: np.ndarray) -> np.ndarray:
    """min(dist[:j, j]) for every index j (inf at j = 0), one column block at a time.

    Each block reduces the rows above it straight into the output and masks
    its own diagonal square, so no temporary is larger than a block square.
    """
    k = dist.shape[0]
    nearest = np.full(k, np.inf)
    for j0 in range(0, k, _COVER_BLOCK):
        j1 = min(j0 + _COVER_BLOCK, k)
        if j0:
            np.min(dist[:j0, j0:j1], axis=0, out=nearest[j0:j1])
        square = np.where(np.tri(j1 - j0, dtype=bool), np.inf, dist[j0:j1, j0:j1])
        np.minimum(nearest[j0:j1], square.min(axis=0), out=nearest[j0:j1])
    return nearest


def first_uncovered_cover(dist: np.ndarray, radii) -> list[list[int]]:
    """Greedy coverings of a finite metric space given its distance matrix.

    For each radius: scan indices in order, open a center at the first
    uncovered index, and mark everything within the radius covered, reading
    row c for center c.  Returns one center list per radius, in the order of
    ``radii``.  Deterministic given the matrix, which keeps covering-number
    curves reproducible.

    Index j is a center iff no earlier center lies within the radius.  One
    pass finds each index's nearest earlier index; an index whose nearest
    earlier index lies beyond the radius is a center outright.  When fewer
    than half the indices are contested, only those are decided, in index
    order, against the earlier centers.  Otherwise the centers open in index
    order, each marking and searching only the indices after it.

    Rejects a matrix that is not square and a radius that is negative or
    NaN.
    """
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"need a square distance matrix, got shape {dist.shape}")
    radii = [float(r) for r in radii]
    if not all(r >= 0.0 for r in radii):
        raise ValueError(f"radii must be >= 0, got {radii}")
    k = dist.shape[0]
    nearest = _nearest_earlier(dist)
    covers = []
    for radius in radii:
        is_center = nearest > radius
        contested = np.flatnonzero(~is_center)
        if 2 * len(contested) < k:
            for j in contested:
                is_center[j] = np.all(dist[:j, j][is_center[:j]] > radius)
            covers.append(np.flatnonzero(is_center).tolist())
            continue
        uncovered = np.ones(k + 1, dtype=bool)  # index k stays True and ends the scan
        centers: list[int] = []
        c = 0
        while c < k:
            centers.append(c)
            uncovered[c + 1 : k] &= dist[c, c + 1 :] > radius
            c += 1 + int(uncovered[c + 1 :].argmax())  # the first uncovered index after c
        covers.append(centers)
    return covers


def sandwich_check(points: PointSet, delta: float, rng: np.random.Generator) -> dict:
    """Packing/covering sandwich at scales delta and 2*delta.

    The sandwich is |packing(2 delta)| <= |covering(delta)| <= |packing(delta)|
    with greedy constructions.  The delta-covering is the one the maximal
    delta-packing induces, so its size equals |packing(delta)| and only the
    outer inequality can fail; ``ok`` scores that one.
    """
    if not (0.0 < 2.0 * delta < 1.0):
        raise ValueError(f"need 0 < 2*delta < 1 for the sandwich, got delta={delta}")
    # both scales pack the same points, so they share one geodesic matrix
    dist = points.pairwise_geodesic()
    fine = _greedy_packing(points, dist, delta, rng)
    coarse = _greedy_packing(points, dist, 2.0 * delta, rng)
    ok = coarse.packing_size <= fine.packing_size
    return {
        "packing_2delta": coarse.packing_size,
        "covering_delta": fine.packing_size,
        "packing_delta": fine.packing_size,
        "ok": bool(ok),
    }


@dataclass(frozen=True)
class VcReport:
    """Cap dichotomies of one point set, counted by :func:`shatter_check`.

    ``dichotomies_realized`` is exact for points in general position within
    their span and never exceeds the true count, so ``shattered`` False means
    that some dichotomy is impossible.
    """

    shattered: bool
    dichotomies_realized: int


def _span_coordinates(rows: np.ndarray) -> np.ndarray:
    """The rows' coordinates in an orthonormal basis of their span.

    Gram-Schmidt with one reorthogonalization pass: a row within
    ``_ON_PLANE_TOL`` of the rows before it adds no basis vector.  It avoids
    LAPACK's SVD, whose code a process would page in for this call alone
    (about 1 MB of resident memory with numpy 2.4's OpenBLAS).
    """
    basis = np.empty((0, rows.shape[1]))
    for row in rows:
        for _ in range(2):
            row = row - (basis @ row) @ basis
        norm = np.linalg.norm(row)
        if norm > _ON_PLANE_TOL:
            basis = np.vstack([basis, row / norm])
    return rows @ basis.T


def shatter_check(points: PointSet, budget: int = 100_000) -> VcReport:
    """Count the subsets that spherical caps {x : <c, x> > t} cut from the points.

    Lifting x to (x, 1) makes each cap a homogeneous halfspace, so the count
    is Cover's (1965) count of linearly separable dichotomies in the span of
    the lifted points, of rank r.  Independent lifted points (k <= r) admit
    all 2^k.  Otherwise, in general position, every dichotomy or its
    complement is cut by a hyperplane through some r - 1 of the lifted
    points, tilted to put each of them on a chosen side; all such tilts are
    enumerated.  A point within ``_ON_PLANE_TOL`` of the hyperplane takes the
    side of the tilt, and a point on both stays outside, so every counted
    dichotomy is cut by a real cap and the count never exceeds the truth.

    ``budget`` caps the candidate hyperplanes, C(k, r-1) * 2^(r-1); a larger
    enumeration raises FeasibilityError before any of it runs.  It remains
    an argument because perfbench's tracer counts it (ROADMAP item 4).
    """
    k = len(points)
    if k > SHATTER_MAX_POINTS:
        raise FeasibilityError(
            f"exact dichotomy counting supports at most {SHATTER_MAX_POINTS} points, got {k}"
        )
    if budget < 1:
        raise ValueError("budget must be >= 1")
    coords = _span_coordinates(np.hstack([points.points, np.ones((k, 1))]))
    r = coords.shape[1]
    if k <= r:
        count = 2**k
    else:
        candidates = math.comb(k, r - 1) * 2 ** (r - 1)
        if candidates > budget:
            raise FeasibilityError(f"{candidates} candidate hyperplanes exceed the budget {budget}")
        through = coords[np.array(list(itertools.combinations(range(k), r - 1)), dtype=int)]
        # each hyperplane's normal by cofactors: (-1)^i times the minor without column i
        minors = through[:, :, [[j for j in range(r) if j != i] for i in range(r)]]
        normal = np.linalg.det(minors.transpose(0, 2, 1, 3)) * (-1.0) ** np.arange(r)
        volume = np.linalg.norm(normal, axis=1)
        spans = volume > _ON_PLANE_TOL  # the r - 1 points are independent
        unit = normal[spans] / volume[spans, None]
        # each point's coefficients on the hyperplane's points and its unit normal
        frame = np.concatenate([through[spans], unit[:, None]], axis=1).transpose(0, 2, 1)
        coef = np.linalg.solve(frame, np.broadcast_to(coords.T, (len(frame), r, k)))
        at_plane = coef[:, -1:]  # (planes, 1, k): offsets from the hyperplane
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=r - 1)))
        at_tilt = signs @ coef[:, :-1]  # (planes, 2^(r-1), k): <p, tilt> = sign on the plane
        inside = np.where(
            np.abs(at_plane) <= _ON_PLANE_TOL, at_tilt > _ON_PLANE_TOL, at_plane > 0
        )
        codes = inside @ (1 << np.arange(k))
        realized = np.zeros(2**k, dtype=bool)
        realized[codes] = True
        realized[(2**k - 1) ^ codes] = True
        count = int(np.count_nonzero(realized))
    return VcReport(shattered=count == 2**k, dichotomies_realized=count)


def canonical_witness(n: int) -> PointSet:
    """The n+1 point set {e_1, ..., e_n, ones/sqrt(n)} on the unit sphere of R^n."""
    if n < 2:
        raise ValueError("need n >= 2 for the canonical witness set")
    rows = np.eye(n)
    diag = np.ones((1, n)) / math.sqrt(n)
    return PointSet(np.vstack([rows, diag]))
