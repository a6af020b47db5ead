"""Nets layer: greedy packings, covers, cap shattering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from onebit import (
    FeasibilityError,
    PointSet,
    SparseSpec,
    VcReport,
    canonical_witness,
    estimate_gaussian_width,
    estimate_hemisphere_width_cholesky,
    first_uncovered_cover,
    greedy_packing,
    pairwise_chord,
    pairwise_geodesic,
    sandwich_check,
    shatter_check,
    substream,
    sudakov_check,
)

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


def test_first_uncovered_cover_rejects_a_non_square_matrix_and_a_negative_or_nan_radius():
    dist = PointSet.uniform(2, 20, substream(8, "test-cover-reject")).pairwise_geodesic()
    for bad in (dist[:5], dist[:, :5], dist[0]):
        with pytest.raises(ValueError, match="square"):
            first_uncovered_cover(bad, [0.3])
    for radius in (-1.0, -1e-300, math.nan):
        with pytest.raises(ValueError, match="radii"):
            first_uncovered_cover(dist, [0.3, radius])


def _sudakov_reference(points, deltas, gaussian, hemisphere):
    """sudakov_check's three tuples, one scale and one metric at a time."""

    def root_log(dist, radius):
        n = len(_first_uncovered_cover_reference(dist, radius))
        return math.sqrt(math.log(n)) if n > 1 else 0.0

    chord = pairwise_chord(points.points)
    root = np.sqrt(pairwise_geodesic(points.points))
    gauss, hemi, chains = [], [], []
    for delta in deltas:
        low = delta * root_log(chord, delta)
        gauss.append(low / gaussian if low > 0.0 else 0.0)
        entropy = root_log(root, math.sqrt(delta))
        low = math.sqrt(delta) * entropy
        hemi.append(low / hemisphere if low > 0.0 else 0.0)
        chains.append(entropy / min(gaussian / delta, hemisphere / math.sqrt(delta)))
    return tuple(gauss), tuple(hemi), tuple(chains)


def test_sudakov_covering_numbers_match_the_reference():
    rng = substream(21, "test-sudakov-ref")
    points = PointSet.sparse(SparseSpec(40, 3), 300, rng)
    gw = estimate_gaussian_width(points, 200, rng).value
    hw = estimate_hemisphere_width_cholesky(points, 200, rng).value
    grid = tuple(round(0.05 * i, 2) for i in range(1, 11))
    report = sudakov_check(points, grid, gw, hw)
    expected = _sudakov_reference(points, grid, gw, hw)
    assert (report.gaussian_ratios, report.hemisphere_ratios, report.chains) == expected
    # every scale is scored: some covers hold more than one center
    assert 0.0 < min(report.gaussian_ratios[0], report.hemisphere_ratios[0], report.chains[0])


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


def test_sandwich_packs_both_scales_from_one_geodesic_matrix(monkeypatch):
    # the same packings as two greedy_packing calls drawing from the stream in turn
    pts = PointSet.uniform(3, 80, substream(3, "test-sandwich-once"))
    fine = greedy_packing(pts, 0.2, substream(4, "test-sandwich-once"))
    coarse_rng = substream(4, "test-sandwich-once")
    greedy_packing(pts, 0.2, coarse_rng)
    coarse = greedy_packing(pts, 0.4, coarse_rng)
    calls = []
    real = PointSet.pairwise_geodesic
    monkeypatch.setattr(PointSet, "pairwise_geodesic", lambda self: calls.append(1) or real(self))
    result = sandwich_check(pts, 0.2, substream(4, "test-sandwich-once"))
    assert len(calls) == 1
    assert result["packing_delta"] == fine.packing_size
    assert result["packing_2delta"] == coarse.packing_size
    assert coarse.packing_size < fine.packing_size


# --- cap shattering --------------------------------------------------------------


def cover_count(k: int, dim: int) -> int:
    """Cover (1965): dichotomies of k points in general position cut by halfspaces of R^dim."""
    return 2 * sum(math.comb(k - 1, i) for i in range(dim))


def test_shatter_single_point():
    report = shatter_check(PointSet(np.array([[1.0, 0.0]])), budget=10)
    assert report.shattered
    assert report.dichotomies_realized == 2


def test_shatter_canonical_witness_plane():
    report = shatter_check(canonical_witness(2))
    assert report.shattered
    assert report.dichotomies_realized == 8


@pytest.mark.parametrize("n", [3, 4])
def test_shatter_canonical_witness_higher(n):
    report = shatter_check(canonical_witness(n))
    assert report.shattered
    assert report.dichotomies_realized == 2 ** (n + 1)


def test_canonical_witness_validation():
    with pytest.raises(ValueError):
        canonical_witness(1)


def test_four_equally_spaced_circle_points_not_shatterable():
    # arcs realize exactly k(k-1)+2 dichotomies; opposite pairs are impossible
    report = shatter_check(circle_points(4))
    assert not report.shattered
    assert report.dichotomies_realized == 14


def test_eight_circle_points_realize_arc_count():
    report = shatter_check(circle_points(8))
    assert not report.shattered
    assert report.dichotomies_realized == 8 * 7 + 2 == cover_count(8, 3)
    # tighter binomial-sum growth bound for arcs (vc dim 3) still holds
    assert report.dichotomies_realized <= sum(math.comb(8, i) for i in range(4))


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
    report = shatter_check(square)
    assert not report.shattered
    assert report.dichotomies_realized == 14


def test_shatter_point_cap_and_budget_validation():
    rng = substream(5, "test-shatter-val")
    with pytest.raises(FeasibilityError):
        shatter_check(PointSet.uniform(2, 23, rng))
    with pytest.raises(ValueError):
        shatter_check(circle_points(3), budget=0)


def test_shatter_enumeration_over_budget_raises():
    # 8 points on S^2 lift to rank 4: C(8, 3) * 2^3 = 448 candidate hyperplanes
    pts = PointSet.uniform(2, 8, substream(5, "test-shatter-budget"))
    with pytest.raises(FeasibilityError, match="448 candidate hyperplanes"):
        shatter_check(pts, budget=447)
    assert shatter_check(pts, budget=448).dichotomies_realized == 128
    # independent lifted points need no candidates at all
    assert shatter_check(canonical_witness(5), budget=1).dichotomies_realized == 64


def test_shatter_report_fields():
    pts = PointSet.uniform(2, 6, substream(6, "test-shatter-field"))
    report = shatter_check(pts)
    assert isinstance(report, VcReport)
    assert report.dichotomies_realized == cover_count(6, 4)


@pytest.mark.parametrize("n, k", [(1, 3), (1, 7), (2, 5), (2, 12), (3, 9), (4, 10), (5, 7)])
def test_random_points_realize_cover_count(n, k):
    # generic points on S^n lift to general position in R^(n+2)
    for seed in range(3):
        pts = PointSet.uniform(n, k, substream(seed, "test-shatter-cover", n, k))
        report = shatter_check(pts)
        assert report.dichotomies_realized == cover_count(k, min(k, n + 2))
        assert report.shattered == (k <= n + 2)


# --- the exact count against linear programs and the budgeted search -------------


def _separable_count(points):
    """Dichotomies S with some w: <(x, 1), w> >= 1 on S and <= -1 off it, one LP each."""
    lifted = np.hstack([points.points, np.ones((len(points), 1))])
    count = 0
    for mask in range(2 ** len(points)):
        side = np.where((mask >> np.arange(len(points))) & 1, 1.0, -1.0)
        result = linprog(
            np.zeros(lifted.shape[1]), A_ub=-side[:, None] * lifted, b_ub=-np.ones(len(points)),
            bounds=(None, None), method="highs",
        )
        count += result.status == 0
    return count


def _small_circle(k, z):
    angles = 2.0 * math.pi * np.arange(k) / k
    radius = math.sqrt(1.0 - z * z)
    return np.column_stack([radius * np.cos(angles), radius * np.sin(angles), np.full(k, z)])


def _linear_program_sets():
    square = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    generic = PointSet.uniform(2, 7, substream(1, "test-shatter-lp")).points
    return {
        "generic": generic,  # Cover's count, 2 * (1 + 6 + 15 + 20) = 84
        # exactness is promised for general position; the sets below are not in it
        "small circle": _small_circle(6, 0.3),  # 6 coplanar points
        "square and a pole": np.vstack([square, poles[:1]]),  # 4 coplanar of 5
        "square and both poles": np.vstack([square, poles]),
        "repeated points": np.vstack([generic[:5], generic[:2]]),
        "antipodal pairs": np.vstack([generic[:3], -generic[:3]]),
    }


@pytest.mark.parametrize("name", sorted(_linear_program_sets()))
def test_shatter_counts_match_linear_programs(name):
    points = PointSet(_linear_program_sets()[name])
    assert shatter_check(points).dichotomies_realized == _separable_count(points)


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
    if k > 12:
        return
    penalty = 4.0 * k
    for mask in range(1, 2**k - 1):
        inside = np.array([(mask >> i) & 1 for i in range(k)], dtype=bool)
        mean_in = points[inside].mean(axis=0)
        mean_out = points[~inside].mean(axis=0)
        yield mean_in - mean_out
        yield points[inside].sum(axis=0) - penalty * points[~inside].sum(axis=0)


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
    """(dichotomies realized, shattered) by a search over ``budget`` cap directions.

    The constructive family comes first, then gaussian directions; the search
    stops once every dichotomy is realized.  Each dichotomy it counts is cut
    by a real cap, so it can only undercount.
    """
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shatter_canonical_witness_matches_reference(n):
    report = shatter_check(canonical_witness(n))
    found = _shatter_reference(canonical_witness(n), substream(n, "test-shatter-ref"), 20_000)
    assert found == (report.dichotomies_realized, report.shattered) == (2 ** (n + 1), True)


@pytest.mark.parametrize("seed", [0, 1])
def test_shatter_random_points_match_reference(seed):
    # the search misses dichotomies of 8 generic points on S^2 (124 at seed 0,
    # set 1) but never adds one
    for i in range(2):
        pts = PointSet.uniform(2, 8, substream(seed, "test-shatter-ref-pts", i))
        found, shattered = _shatter_reference(pts, substream(seed, "test-shatter-ref", i), 20_000)
        assert found <= shatter_check(pts).dichotomies_realized == 128
        assert not shattered


@pytest.mark.parametrize("budget", [1, 7, 300, 600])
def test_shatter_small_budgets_match_reference(budget):
    # budgets cut the constructive family short (8 points have
    # 16 + 56 + 2 * 254 = 580 candidates, the 6-point witness 166) or end
    # in a partial random batch just past it
    pts = PointSet.uniform(2, 8, substream(2, "test-shatter-ref-pts"))
    found, _ = _shatter_reference(pts, substream(2, "test-shatter-ref", budget), budget)
    assert found <= shatter_check(pts).dichotomies_realized
    witness = canonical_witness(5)
    found, _ = _shatter_reference(witness, substream(3, "test-shatter-ref", budget), budget)
    if budget >= 166:
        assert found == shatter_check(witness).dichotomies_realized
    else:
        assert found < shatter_check(witness).dichotomies_realized
