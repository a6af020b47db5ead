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
_CONSTRUCTIVE_ENUM_LIMIT = 12  # constructive per-dichotomy candidates up to 2^12 splits
_DIRECTION_BLOCK = 256  # candidate directions projected and registered together
_COVER_BLOCK = 256  # columns per block of the nearest-earlier-index pass


@dataclass(frozen=True)
class NetReport:
    """Result of one greedy net construction at scale delta.

    ``packing_size`` lower-bounds the maximal delta-separated cardinality
    and, since a maximal packing's centers also cover the input at radius
    delta, upper-bounds the delta-covering number.
    """

    delta: float
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
    k = len(points)
    order = rng.permutation(k)
    dist = points.pairwise_geodesic()
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
        delta=float(delta),
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
    """
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
    fine = greedy_packing(points, delta, rng)
    coarse = greedy_packing(points, 2.0 * delta, rng)
    ok = coarse.packing_size <= fine.packing_size
    return {
        "delta": float(delta),
        "packing_2delta": coarse.packing_size,
        "covering_delta": fine.packing_size,
        "packing_delta": fine.packing_size,
        "ok": bool(ok),
    }


def sauer_bound(num_points: int, vc_dim: int) -> float:
    """Growth-function bound (num_points * e / vc_dim) ** vc_dim."""
    if num_points <= 1:
        raise ValueError("the bound needs num_points > 1")
    if vc_dim < 1:
        raise ValueError("vc_dim must be >= 1")
    return float((num_points * math.e / vc_dim) ** vc_dim)


@dataclass(frozen=True)
class VcReport:
    """Cap-shattering search outcome for one witness point set.

    ``shattered`` False means the search budget was exhausted before every
    dichotomy was realized, never that a dichotomy is impossible.
    """

    n: int
    witness_points: PointSet
    shattered: bool
    dichotomies_realized: int
    sauer_bound: float | None


def _register_cuts(proj: np.ndarray, realized: np.ndarray, weights: np.ndarray):
    """Record every dichotomy realized by caps along each row's projections.

    Caps along a direction c are threshold sets {i : proj_i > t}; sweeping t
    through a row's sorted distinct projections enumerates all of them as
    suffixes of the sorted order, and the reversed direction contributes the
    complementary prefixes.  ``proj`` is a (directions, points) block.
    """
    order = np.argsort(proj, axis=1, kind="stable")
    sorted_proj = np.take_along_axis(proj, order, axis=1)
    suffix = np.cumsum(weights[order][:, ::-1], axis=1)[:, ::-1]  # mask of {order[i:]}
    distinct = np.ones(proj.shape, dtype=bool)
    distinct[:, 1:] = sorted_proj[:, 1:] != sorted_proj[:, :-1]
    cuts = suffix[distinct]
    realized[cuts] = True
    realized[suffix[0, 0] ^ cuts] = True  # suffix[:, 0] is the full set


def _constructive_directions(points: np.ndarray):
    """Deterministic candidate directions tried before random search.

    Per-dichotomy candidates separate the two groups when the witness set is
    coordinate-like (standard basis vectors plus a diagonal direction): the
    indicator of one side, optionally with a heavily negative weight on the
    other side, followed by group-mean differences as a generic fallback.
    """
    k = points.shape[0]
    yield from points
    yield from -points
    for i in range(k):
        for j in range(i + 1, k):
            diff = points[i] - points[j]
            if np.linalg.norm(diff) > 0:
                yield diff
            s = points[i] + points[j]
            if np.linalg.norm(s) > 0:
                yield s
    if k > _CONSTRUCTIVE_ENUM_LIMIT:
        return
    penalty = 4.0 * k
    for mask in range(1, 2**k - 1):
        inside = np.array([(mask >> i) & 1 for i in range(k)], dtype=bool)
        mean_in = points[inside].mean(axis=0)
        mean_out = points[~inside].mean(axis=0)
        yield mean_in - mean_out
        yield points[inside].sum(axis=0) - penalty * points[~inside].sum(axis=0)


def _projection_blocks(P: np.ndarray, rng: np.random.Generator, budget: int):
    """Candidate projections in blocks of ``_DIRECTION_BLOCK`` rows, ``budget`` rows in all.

    The constructive family comes first; random gaussian directions follow
    once it is exhausted.  Blocks are produced lazily, so a caller that stops
    early draws nothing more from ``rng``.
    """
    constructive = _constructive_directions(P)
    spent = 0
    while spent < budget:
        size = min(_DIRECTION_BLOCK, budget - spent)
        chunk = list(itertools.islice(constructive, size))
        if chunk:
            block = np.stack([P @ cand for cand in chunk])
        else:
            block = rng.standard_normal((size, P.shape[1])) @ P.T
        yield block
        spent += block.shape[0]


def shatter_check(
    points: PointSet, rng: np.random.Generator, budget: int = 100_000
) -> VcReport:
    """Search for spherical caps realizing every dichotomy of the points.

    Tries a deterministic constructive family first, then random directions,
    counting each candidate direction against ``budget``.  All threshold
    cuts of a candidate are registered at once, so a single direction can
    realize many dichotomies.
    """
    k = len(points)
    if k > SHATTER_MAX_POINTS:
        raise FeasibilityError(
            f"exhaustive dichotomy tracking supports at most {SHATTER_MAX_POINTS} points, got {k}"
        )
    if budget < 1:
        raise ValueError("budget must be >= 1")
    weights = (1 << np.arange(k)).astype(np.int64)
    realized = np.zeros(2**k, dtype=bool)
    for block in _projection_blocks(points.points, rng, budget):
        _register_cuts(block, realized, weights)
        if realized.all():
            break
    count = int(realized.sum())
    bound = sauer_bound(k, points.n + 1) if k > 1 else None
    return VcReport(
        n=points.n,
        witness_points=points,
        shattered=bool(realized.all()),
        dichotomies_realized=count,
        sauer_bound=bound,
    )


def canonical_witness(n: int) -> PointSet:
    """The n+1 point set {e_1, ..., e_n, ones/sqrt(n)} on the unit sphere of R^n."""
    if n < 2:
        raise ValueError("need n >= 2 for the canonical witness set")
    rows = np.eye(n)
    diag = np.ones((1, n)) / math.sqrt(n)
    return PointSet(np.vstack([rows, diag]))
