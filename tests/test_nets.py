"""Nets layer: greedy packings, covers, cap shattering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit import (
    FeasibilityError,
    PointSet,
    ProcessMetric,
    SparseSpec,
    VcReport,
    canonical_witness,
    estimate_gaussian_width,
    first_uncovered_cover,
    greedy_packing,
    metric_distances,
    sandwich_check,
    sauer_bound,
    shatter_check,
    substream,
    sudakov_check,
)
from onebit.nets import _constructive_directions

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def circle_points(k: int) -> PointSet:
    angles = 2.0 * math.pi * np.arange(k) / k
    return PointSet(np.column_stack([np.cos(angles), np.sin(angles)]))


# --- greedy packing --------------------------------------------------------------


def test_greedy_packing_rejects_bad_delta():
    rng = substream(0, "test-pack-delta")
    pts = PointSet.uniform(2, 10, rng)
    for delta in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            greedy_packing(pts, delta, rng)


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_greedy_packing_invariants(seed):
    rng = substream(seed, "test-pack-inv")
    pts = PointSet.uniform(2, 60, rng)
    report = greedy_packing(pts, 0.2, rng)
    assert report.packing_size == len(report.centers)
    # separation, recomputed from scratch
    dist = report.centers.pairwise_geodesic()
    if len(report.centers) > 1:
        off = dist[~np.eye(len(report.centers), dtype=bool)]
        assert off.min() > 0.2
    # covering of the full input at the same radius
    full = pts.pairwise_geodesic()
    gaps = full[:, list(report.center_indices)].min(axis=1)
    assert gaps.max() <= 0.2


def test_greedy_packing_deterministic_given_stream():
    pts = PointSet.uniform(3, 80, substream(7, "test-pack-pts"))
    a = greedy_packing(pts, 0.25, substream(7, "test-pack-order"))
    b = greedy_packing(pts, 0.25, substream(7, "test-pack-order"))
    assert a.center_indices == b.center_indices
    assert np.array_equal(a.centers.points, b.centers.points)


def test_greedy_packing_idempotent_on_separated_set():
    rng = substream(11, "test-pack-idem")
    pts = PointSet.uniform(2, 60, rng)
    first = greedy_packing(pts, 0.3, rng)
    again = greedy_packing(first.centers, 0.3, rng)
    # an already separated set is kept in full regardless of scan order
    assert again.packing_size == first.packing_size
    assert sorted(again.center_indices) == list(range(first.packing_size))


def _greedy_packing_reference(points, delta, rng):
    """The fancy-index audit as first written: center indices, or the audit's error."""
    k = len(points)
    order = rng.permutation(k)
    dist = points.pairwise_geodesic()
    available = np.ones(k, dtype=bool)
    kept = []
    for idx in order:
        i = int(idx)
        if available[i]:
            kept.append(i)
            available &= dist[i] > delta
    kept_arr = np.array(kept, dtype=int)
    sub = dist[np.ix_(kept_arr, kept_arr)]
    off = sub[~np.eye(len(kept_arr), dtype=bool)]
    if off.size and off.min() <= delta:
        raise RuntimeError("greedy packing produced a non-separated set")
    cover_gap = dist[:, kept_arr].min(axis=1)
    if cover_gap.max() > delta:
        raise RuntimeError("greedy packing centers fail to cover the input")
    return tuple(kept)


def _packing_outcome(packing, points, delta, seed):
    try:
        return packing(points, delta, substream(seed, "test-pack-audit"))
    except RuntimeError as err:
        return str(err)


@pytest.mark.parametrize("seed", range(6))
def test_greedy_packing_matches_fancy_index_reference(seed):
    rng = substream(seed, "test-pack-ref")
    k = int(rng.integers(2, 301))
    sets = (PointSet.uniform(3, k, rng), PointSet.sparse(SparseSpec(40, 3), k, rng))
    for points in sets:
        for delta in (0.05, 0.2, 0.4):
            report = greedy_packing(points, delta, substream(seed, "test-pack-order"))
            reference = _greedy_packing_reference(points, delta, substream(seed, "test-pack-order"))
            assert report.center_indices == reference


def _crafted(order, off=0.9, diagonal=0.0, first_to_second=None, second_to_first=None):
    """Distances 'off' apart, with the first two points of the scan order set apart."""
    k = len(order)
    dist = np.full((k, k), off)
    np.fill_diagonal(dist, diagonal)
    a, b = order[0], order[1]
    if first_to_second is not None:
        dist[a, b] = first_to_second
    if second_to_first is not None:
        dist[b, a] = second_to_first
    return dist


@pytest.mark.parametrize("seed", range(4))
def test_greedy_packing_audit_raises_as_the_reference(seed, monkeypatch):
    points = PointSet.uniform(2, 6, substream(seed, "test-pack-points"))
    order = substream(seed, "test-pack-audit").permutation(len(points))
    not_separated = "greedy packing produced a non-separated set"
    not_covering = "greedy packing centers fail to cover the input"
    cases = [
        # the second point stays available but lies within delta of the first
        (_crafted(order, first_to_second=0.9, second_to_first=0.1), not_separated),
        # the first point rules out the second, which lies beyond delta of every center
        (_crafted(order, first_to_second=0.1, second_to_first=0.9), not_covering),
        # every point kept, none within delta of itself
        (_crafted(order, diagonal=0.5), not_covering),
        (_crafted(order, diagonal=0.5, second_to_first=0.1), not_separated),
        # a center within delta of itself alone is still separated
        (_crafted(order, diagonal=0.1), tuple(int(i) for i in order)),
    ]
    rng = substream(seed, "test-pack-asym")
    cases += [(rng.random((6, 6)), None) for _ in range(20)]  # any outcome, as the reference's
    for matrix, expected in cases:
        monkeypatch.setattr(PointSet, "pairwise_geodesic", lambda self, d=matrix: d.copy())
        reference = _packing_outcome(_greedy_packing_reference, points, 0.3, seed)
        outcome = _packing_outcome(greedy_packing, points, 0.3, seed)
        if not isinstance(outcome, str):
            outcome = outcome.center_indices
        assert expected is None or reference == expected
        assert outcome == reference


# --- covers and projections ------------------------------------------------------


def test_first_uncovered_cover_known_matrix():
    dist = np.array(
        [
            [0.0, 0.1, 0.9],
            [0.1, 0.0, 0.8],
            [0.9, 0.8, 0.0],
        ]
    )
    assert first_uncovered_cover(dist, [0.2, 0.95, 0.05]) == [[0, 2], [0], [0, 1, 2]]
    assert first_uncovered_cover(dist, []) == []


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_first_uncovered_cover_covers(seed):
    rng = substream(seed, "test-cover")
    pts = PointSet.uniform(2, 40, rng)
    dist = pts.pairwise_geodesic()
    [centers] = first_uncovered_cover(dist, [0.3])
    assert dist[:, centers].min(axis=1).max() <= 0.3
    # deterministic in the matrix
    assert [centers] == first_uncovered_cover(dist, [0.3])


def _first_uncovered_cover_reference(dist, radius):
    """Each center marks its whole row over the whole mask, as first written."""
    uncovered = np.ones(dist.shape[0], dtype=bool)
    centers = []
    while uncovered.any():
        c = int(np.flatnonzero(uncovered)[0])
        centers.append(c)
        uncovered &= dist[c] > radius
    return centers


@pytest.mark.parametrize("seed", range(6))
def test_first_uncovered_cover_matches_full_mask_reference(seed):
    rng = substream(seed, "test-cover-ref")
    k = int(rng.integers(2, 300))
    geodesic = PointSet.uniform(3, k, rng).pairwise_geodesic()
    # an asymmetric matrix too: only its zero diagonal is assumed
    asymmetric = rng.random((k, k))
    np.fill_diagonal(asymmetric, 0.0)
    for dist in (geodesic, asymmetric):
        # index j is contested at radius r when some earlier index lies within r;
        # radii at quantiles of the nearest earlier distances (ties included) put
        # fewer than k/2 contested indices on one side and at least k/2 on the other
        nearest = np.array([dist[:j, j].min() for j in range(1, k)])
        quantiles = np.quantile(nearest, (0.1, 0.3, 0.45, 0.55, 0.7, 0.9), method="lower")
        radii = sorted({0.0, 0.05, 0.2, 0.5, 1.0, *quantiles.tolist()})
        contested = [int(np.count_nonzero(nearest <= r)) for r in radii]
        assert any(0 < c < k / 2 for c in contested)
        assert any(c >= k / 2 for c in contested)
        expected = [_first_uncovered_cover_reference(dist, r) for r in radii]
        assert first_uncovered_cover(dist, radii) == expected


def test_first_uncovered_cover_edge_cases():
    dist = PointSet.uniform(2, 25, substream(7, "test-cover-edges")).pairwise_geodesic()
    cases = [
        (np.zeros((0, 0)), 0.1, []),
        (np.zeros((1, 1)), 0.1, [0]),
        (dist, 1.0, [0]),  # every point covered by the first
        (dist, float(dist[0].max()), [0]),  # the farthest exactly at the radius
        (dist, 0.0, list(range(25))),  # no point covering another
    ]
    for matrix, radius, centers in cases:
        assert first_uncovered_cover(matrix, [radius]) == [centers]
        assert _first_uncovered_cover_reference(matrix, radius) == centers


def test_sudakov_covering_numbers_match_the_reference():
    rng = substream(21, "test-sudakov-ref")
    points = PointSet.sparse(SparseSpec(40, 3), 300, rng)
    width = estimate_gaussian_width(points, 200, rng)
    grid = tuple(round(0.05 * i, 2) for i in range(1, 11))
    for metric, radii in (
        (ProcessMetric.GAUSSIAN, grid),
        (ProcessMetric.HEMISPHERE, tuple(math.sqrt(d) for d in grid)),
    ):
        dist = metric_distances(points, metric)
        expected = tuple(len(_first_uncovered_cover_reference(dist, r)) for r in radii)
        assert sudakov_check(points, metric, radii, width).covering_numbers == expected


# --- sandwich --------------------------------------------------------------------


def test_sandwich_rejects_large_delta():
    rng = substream(0, "test-sandwich-delta")
    pts = PointSet.uniform(2, 10, rng)
    with pytest.raises(ValueError):
        sandwich_check(pts, 0.5, rng)


@given(seed=seeds, delta=st.floats(min_value=0.05, max_value=0.45, exclude_max=True))
@settings(max_examples=20, deadline=None)
def test_sandwich_holds(seed, delta):
    rng = substream(seed, "test-sandwich")
    pts = PointSet.uniform(2, 50, rng)
    result = sandwich_check(pts, delta, rng)
    assert result["ok"]
    assert result["packing_2delta"] <= result["covering_delta"] <= result["packing_delta"]


# --- Sauer bound -----------------------------------------------------------------


def test_sauer_bound_oracles():
    assert math.isclose(sauer_bound(3, 1), 3.0 * math.e, rel_tol=1e-15)
    assert sauer_bound(3, 1) == 8.154845485377136
    assert math.isclose(sauer_bound(8, 3), (8.0 * math.e / 3.0) ** 3, rel_tol=1e-15)


def test_sauer_bound_validation():
    with pytest.raises(ValueError):
        sauer_bound(1, 2)
    with pytest.raises(ValueError):
        sauer_bound(5, 0)


# --- cap shattering --------------------------------------------------------------


def test_shatter_single_point():
    rng = substream(0, "test-shatter-1")
    report = shatter_check(PointSet(np.array([[1.0, 0.0]])), rng, budget=10)
    assert report.shattered
    assert report.dichotomies_realized == 2
    assert report.sauer_bound is None


def test_shatter_canonical_witness_plane():
    rng = substream(1, "test-shatter-w2")
    report = shatter_check(canonical_witness(2), rng, budget=5_000)
    assert report.shattered
    assert report.dichotomies_realized == 8


@pytest.mark.parametrize("n", [3, 4])
def test_shatter_canonical_witness_higher(n):
    rng = substream(n, "test-shatter-wn")
    report = shatter_check(canonical_witness(n), rng, budget=20_000)
    assert report.shattered
    assert report.dichotomies_realized == 2 ** (n + 1)


def test_canonical_witness_validation():
    with pytest.raises(ValueError):
        canonical_witness(1)


def test_four_equally_spaced_circle_points_not_shatterable():
    # arcs realize exactly k(k-1)+2 dichotomies; opposite pairs are impossible
    rng = substream(2, "test-shatter-c4")
    report = shatter_check(circle_points(4), rng, budget=3_000)
    assert not report.shattered
    assert report.dichotomies_realized == 14


def test_eight_circle_points_realize_arc_count():
    rng = substream(3, "test-shatter-c8")
    report = shatter_check(circle_points(8), rng, budget=3_000)
    assert not report.shattered
    assert report.dichotomies_realized == 8 * 7 + 2
    # tighter binomial-sum growth bound for arcs (vc dim 3) still holds
    binom_sum = sum(math.comb(8, i) for i in range(4))
    assert report.dichotomies_realized <= binom_sum
    assert report.dichotomies_realized <= report.sauer_bound


def test_equatorial_square_not_shatterable():
    # the z coordinate contributes nothing, so this reduces to the planar case
    square = PointSet(
        np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [-1.0, 0.0, 0.0],
                [0.0, -1.0, 0.0],
            ]
        )
    )
    rng = substream(4, "test-shatter-eq")
    report = shatter_check(square, rng, budget=3_000)
    assert not report.shattered
    assert report.dichotomies_realized == 14


def test_shatter_point_cap_and_budget_validation():
    rng = substream(5, "test-shatter-val")
    with pytest.raises(FeasibilityError):
        shatter_check(PointSet.uniform(2, 23, rng), rng)
    with pytest.raises(ValueError):
        shatter_check(circle_points(3), rng, budget=0)


def test_shatter_report_sauer_field():
    rng = substream(6, "test-shatter-field")
    pts = PointSet.uniform(2, 6, rng)
    report = shatter_check(pts, rng, budget=2_000)
    assert isinstance(report, VcReport)
    assert report.n == 2
    assert report.sauer_bound == sauer_bound(6, 3)
    assert report.witness_points is pts


# --- batched cut registration against the per-direction reference ---------------


def _register_direction_reference(proj, realized, weights):
    """One direction at a time: sweep the threshold through the sorted projections."""
    order = np.argsort(proj, kind="stable")
    sorted_proj = proj[order]
    suffix = np.cumsum(weights[order][::-1])[::-1]
    realized[0] = True
    for i in range(proj.size):
        if i == 0 or sorted_proj[i] != sorted_proj[i - 1]:
            realized[int(suffix[i])] = True
            realized[int(suffix[0]) ^ int(suffix[i])] = True


def _shatter_reference(points, rng, budget):
    """(dichotomies realized, shattered) by the per-direction search loop."""
    P = points.points
    weights = (1 << np.arange(len(points))).astype(np.int64)
    realized = np.zeros(2 ** len(points), dtype=bool)
    spent = 0
    for cand in _constructive_directions(P):
        if spent >= budget or realized.all():
            break
        _register_direction_reference(P @ cand, realized, weights)
        spent += 1
    while spent < budget and not realized.all():
        batch = min(256, budget - spent)
        for row in rng.standard_normal((batch, P.shape[1])) @ P.T:
            _register_direction_reference(row, realized, weights)
        spent += batch
    return int(realized.sum()), bool(realized.all())


def _assert_shatter_matches_reference(points, seed, budget):
    rng = substream(seed, "test-shatter-ref", budget)
    ref_rng = substream(seed, "test-shatter-ref", budget)
    report = shatter_check(points, rng, budget=budget)
    expected = _shatter_reference(points, ref_rng, budget)
    assert (report.dichotomies_realized, report.shattered) == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shatter_canonical_witness_matches_reference(n):
    _assert_shatter_matches_reference(canonical_witness(n), n, 20_000)


@pytest.mark.parametrize("seed", [0, 1])
def test_shatter_random_points_match_reference(seed):
    # 8 generic points on S^2 are never shattered, so the whole budget is
    # spent and the random phase draws from rng
    pts = PointSet.uniform(2, 8, substream(seed, "test-shatter-ref-pts"))
    _assert_shatter_matches_reference(pts, seed, 20_000)


@pytest.mark.parametrize("budget", [1, 7, 300, 600])
def test_shatter_small_budgets_match_reference(budget):
    # budgets cut the constructive family short (8 points have
    # 16 + 56 + 2 * 254 = 580 candidates, the 6-point witness 166) or end
    # in a partial random batch just past it
    pts = PointSet.uniform(2, 8, substream(2, "test-shatter-ref-pts"))
    _assert_shatter_matches_reference(pts, 2, budget)
    _assert_shatter_matches_reference(canonical_witness(5), 3, budget)
