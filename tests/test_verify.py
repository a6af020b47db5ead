"""Verification layer: tessellation cells, distortion audits, embeddings."""

import math
import tracemalloc

import numpy as np
import pytest

from onebit import (
    HALF_NORMAL_MEAN,
    DimensionMismatchError,
    MeasurementEnsemble,
    PairAudit,
    PointSet,
    PreconditionError,
    SparseSpec,
    finite_embedding,
    greedy_packing,
    linear_l1_rip,
    metric_ratio_check,
    one_bit_rip,
    sign_product_rip,
    sign_matrix,
    small_cells_check,
    sparse_net,
    substream,
    verify,
)
from oracles import cell_audit, gaussian_ensemble, sign_product_statistic, unit, unit_ensemble


# --- small cells -----------------------------------------------------------------


def test_small_cells_validation():
    rng = substream(1, "test-cells-val")
    pts = PointSet.uniform(2, 5, rng)
    ens = unit_ensemble(2, 8, seed=1)
    for delta in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            small_cells_check(pts, ens, delta)
    other = unit_ensemble(3, 8, seed=1)
    with pytest.raises(DimensionMismatchError):
        small_cells_check(pts, other, 0.2)


def test_small_cells_empty_ensemble_single_cell():
    rng = substream(2, "test-cells-empty")
    pts = PointSet.uniform(2, 6, rng)
    empty = MeasurementEnsemble(np.empty((0, 3)))
    num_cells, report = small_cells_check(pts, empty, 0.1)
    assert num_cells == 1
    dist = pts.pairwise_geodesic()
    assert math.isclose(report.sup, float(dist.max()), rel_tol=1e-12)
    assert not report.passed


def test_small_cells_explicit_pair():
    angle = 0.1 * math.pi
    pts = PointSet(np.array([[1.0, 0.0], [math.cos(angle), math.sin(angle)]]))
    axes = MeasurementEnsemble(np.eye(2))
    num_cells, report = small_cells_check(pts, axes, 0.05)
    assert isinstance(report, PairAudit)
    assert num_cells == 1
    assert math.isclose(report.sup, 0.1, rel_tol=1e-9)
    assert report.pair == (0, 1)
    assert not report.passed
    _, relaxed = small_cells_check(pts, axes, 0.5)
    assert relaxed.passed
    assert math.isclose(relaxed.sup, 0.1, rel_tol=1e-9)


def test_small_cells_all_singletons():
    # antipodal pair with a direction separating them: two singleton cells
    pts = PointSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    ens = MeasurementEnsemble(np.array([[1.0, 0.0]]))
    num_cells, report = small_cells_check(pts, ens, 0.3)
    assert num_cells == 2
    assert report.sup == 0.0
    assert report.passed


@pytest.mark.parametrize("seed", range(10))
def test_small_cells_prefix_monotone(seed):
    # more hyperplanes refine the tessellation: diameters shrink, cells split
    pts = PointSet.uniform(4, 100, substream(seed, "test-cells-pts"))
    rows = unit_ensemble(4, 80, seed=seed).directions
    half_cells, half = small_cells_check(pts, MeasurementEnsemble(rows[:40]), 0.3)
    full_cells, full = small_cells_check(pts, MeasurementEnsemble(rows), 0.3)
    assert full.sup <= half.sup
    assert full_cells >= half_cells


def _cell_case(name):
    """(points, ensemble) of a small-cells oracle case."""
    rng = substream(3, "test-cells-oracle", name)
    if name == "duplicates":  # exact repeats of points that share cells
        pts = PointSet.uniform(3, 12, rng).points
        return PointSet(pts[[0, 1, 2, 0, 3, 1, 4, 5, 0, 6, 7, 8]]), gaussian_ensemble(3, 4, seed=3)
    if name == "battery":  # the small-cells experiment at delta 0.2: n = 64, 200 points
        return PointSet.uniform(64, 200, rng), gaussian_ensemble(64, 265, seed=3)
    m = int(name.removeprefix("m="))
    return PointSet.uniform(3, 60, rng), gaussian_ensemble(3, m, seed=3)


@pytest.mark.parametrize("case", ["m=0", "m=1", "m=8", "m=20", "duplicates", "battery"])
def test_small_cells_matches_the_cell_by_cell_audit(case):
    pts, ens = _cell_case(case)
    num_cells, report = small_cells_check(pts, ens, 0.2)
    assert (num_cells, report.sup) == cell_audit(pts, ens)  # bitwise


# --- one-bit distortion ----------------------------------------------------------


def test_one_bit_rip_single_measurement_orthogonal_pair():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    one = MeasurementEnsemble(np.array([[1.0, 1.0]]) / math.sqrt(2.0))
    report = one_bit_rip(pts, one, 0.3)
    # both points read +, hamming 0, true distance exactly 1/2
    assert report.sup == 0.5
    assert report.pair == (0, 1)
    assert not report.passed
    assert one_bit_rip(pts, one, 0.5).passed


def test_one_bit_rip_validation():
    rng = substream(6, "test-rip-val")
    pts = PointSet.uniform(2, 5, rng)
    empty = MeasurementEnsemble(np.empty((0, 3)))
    with pytest.raises(ValueError):
        one_bit_rip(pts, empty, 0.2)
    lone = PointSet(np.array([[1.0, 0.0, 0.0]]))
    ens = unit_ensemble(2, 8, seed=6)
    with pytest.raises(ValueError):
        one_bit_rip(lone, ens, 0.2)
    with pytest.raises(DimensionMismatchError):
        one_bit_rip(pts, unit_ensemble(3, 8, seed=6), 0.2)


# --- one-bit checks read only signs ----------------------------------------------


@pytest.mark.parametrize(
    "check, arg",
    [(one_bit_rip, 0.2), (small_cells_check, 0.3), (metric_ratio_check, 0.1)],
    ids=["one_bit_rip", "small_cells_check", "metric_ratio_check"],
)
@pytest.mark.parametrize("seed", range(3))
def test_one_bit_reports_ignore_row_scale(check, arg, seed):
    # a positive row scale flips no sign, so unit rows, the gaussian rows they
    # normalize, and those rows rescaled by factors in [0.5, 2] report alike
    rng = substream(seed, "test-row-scale")
    pts = greedy_packing(PointSet.uniform(3, 40, rng), 0.1, rng).centers
    gauss = rng.standard_normal((64, 4))
    unit_rows = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
    scaled = unit_rows * rng.uniform(0.5, 2.0, size=(64, 1))
    report = check(pts, MeasurementEnsemble(unit_rows), arg)
    assert check(pts, MeasurementEnsemble(gauss), arg) == report
    assert check(pts, MeasurementEnsemble(scaled), arg) == report


# --- sign-product distortion -----------------------------------------------------


def test_sign_product_rip_matches_scalar_statistic():
    rng = substream(9, "test-sprip-pts")
    pts = PointSet.uniform(2, 4, rng)
    ens = gaussian_ensemble(2, 64, seed=9)
    report = sign_product_rip(pts, ens, 10.0)
    worst = 0.0
    for i in range(4):
        for j in range(4):
            s = abs(sign_product_statistic(ens, pts.points[i], pts.points[j]).statistic)
            worst = max(worst, s)
    assert math.isclose(report.sup, worst, rel_tol=1e-10)
    assert report.passed


def test_sign_product_rip_concentrates():
    rng = substream(10, "test-sprip-conc")
    pts = PointSet.uniform(4, 10, rng)
    ens = gaussian_ensemble(4, 20_000, seed=10)
    report = sign_product_rip(pts, ens, 0.05)
    assert report.sup < 0.05
    assert report.passed


# --- linear l1 distortion --------------------------------------------------------


def test_linear_l1_rip_validation():
    rng = substream(12, "test-l1rip-val")
    lone = PointSet(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        linear_l1_rip(lone, gaussian_ensemble(2, 8, seed=12), 0.2)
    pts = PointSet.uniform(2, 4, rng)
    with pytest.raises(ValueError):
        linear_l1_rip(pts, gaussian_ensemble(2, 0, seed=12), 0.2)


def linear_l1_distance(ens, x, y):
    """Scalar twin of the audit's statistic: sum_j |g_j . (x - y)| / (m sqrt(2/pi))."""
    return float(np.abs(ens.directions @ (x - y)).sum() / (ens.m * HALF_NORMAL_MEAN))


def test_linear_l1_identical_points_is_zero():
    ens = gaussian_ensemble(3, 64, seed=4)
    x = unit(0, 1, 0, 0)
    assert linear_l1_distance(ens, x, x) == 0.0


def test_linear_l1_estimates_euclidean_distance():
    ens = gaussian_ensemble(5, 100_000, seed=21)
    rng = substream(21, "test-l1-pair")
    x = unit(*rng.standard_normal(6))
    y = unit(*rng.standard_normal(6))
    chord = float(np.linalg.norm(x - y))
    assert math.isclose(linear_l1_distance(ens, x, y), chord, abs_tol=0.02)


def test_linear_l1_rip_matches_scalar_statistic():
    rng = substream(13, "test-l1rip-pts")
    pts = PointSet.uniform(3, 5, rng)
    ens = gaussian_ensemble(3, 128, seed=13)
    report = linear_l1_rip(pts, ens, 10.0)
    worst = 0.0
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            x, y = pts.points[i], pts.points[j]
            est = linear_l1_distance(ens, x, y)
            chord = float(np.linalg.norm(x - y))
            worst = max(worst, abs(est - chord))
    assert math.isclose(report.sup, worst, rel_tol=1e-10)


def test_linear_l1_rip_concentrates():
    rng = substream(14, "test-l1rip-conc")
    pts = PointSet.uniform(4, 5, rng)
    ens = gaussian_ensemble(4, 20_000, seed=14)
    report = linear_l1_rip(pts, ens, 0.1)
    assert report.passed


# --- relative metric ratio -------------------------------------------------------


def test_metric_ratio_requires_separation():
    angle = 0.02 * math.pi
    pts = PointSet(np.array([[1.0, 0.0], [math.cos(angle), math.sin(angle)]]))
    ens = unit_ensemble(1, 64, seed=15)
    with pytest.raises(PreconditionError):
        metric_ratio_check(pts, ens, 0.2)


def test_metric_ratio_validation():
    rng = substream(16, "test-ratio-val")
    pts = PointSet.uniform(2, 5, rng)
    ens = unit_ensemble(2, 8, seed=16)
    with pytest.raises(ValueError):
        metric_ratio_check(pts, ens, 0.0)
    lone = PointSet(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        metric_ratio_check(lone, ens, 0.2)
    empty = MeasurementEnsemble(np.empty((0, 3)))
    with pytest.raises(ValueError):
        metric_ratio_check(pts, empty, 0.2)


def test_metric_ratio_on_packed_points():
    rng = substream(17, "test-ratio-run")
    raw = PointSet.uniform(3, 150, rng)
    packed = greedy_packing(raw, 0.2, rng).centers
    ens = unit_ensemble(3, 2_000, seed=17)
    report = metric_ratio_check(packed, ens, 0.2)
    assert isinstance(report, PairAudit)
    assert report.bound == 1.0
    assert 0.0 <= report.sup <= 1.0
    assert report.passed
    i, j = report.pair
    assert i != j


# --- bounds ----------------------------------------------------------------------


@pytest.mark.parametrize("bound", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "check", [one_bit_rip, sign_product_rip, linear_l1_rip, metric_ratio_check]
)
def test_pair_audits_reject_bounds_that_are_not_finite_and_positive(check, bound):
    # a NaN bound would pass every net and skip metric_ratio_check's precondition
    pts = PointSet.uniform(2, 20, substream(20, "test-bounds"))
    with pytest.raises(ValueError, match="finite and positive"):
        check(pts, unit_ensemble(2, 16, seed=20), bound)


# --- finite embedding ----------------------------------------------------------


def test_finite_embedding_round_trip():
    # m = 749 = ceil(10 * 0.2^-2 * log 20), the embed budget for 20 points
    rng, twin = substream(18, "test-embed"), substream(18, "test-embed")
    pts = PointSet.uniform(3, 20, rng)
    PointSet.uniform(3, 20, twin)
    report = finite_embedding(pts, 749, 0.2, rng)
    ens = MeasurementEnsemble(twin.standard_normal((749, 4)))
    assert report == one_bit_rip(pts, ens, 0.2)
    assert report.bound == 0.2
    assert report.passed


# --- linear l1 audit against the full-row reference --------------------------------


def _linear_l1_rip_reference(points, ens):
    """Every row i against all k rows, as the audit was first written: (sup, pair)."""
    proj = points.points @ ens.directions.T
    k = len(points)
    gram = points.points @ points.points.T
    chord = np.sqrt(np.maximum(2.0 - 2.0 * gram, 0.0))
    worst = -1.0
    pair = (0, 0)
    for i in range(k):
        stat = np.abs(proj[i] - proj).mean(axis=1) / HALF_NORMAL_MEAN
        gap = np.abs(stat - chord[i])
        gap[i] = 0.0
        j = int(np.argmax(gap))
        if gap[j] > worst:
            worst = float(gap[j])
            pair = (i, j)
    return worst, pair


def _assert_matches_reference(points, ens):
    report = linear_l1_rip(points, ens, 0.2)
    worst, pair = _linear_l1_rip_reference(points, ens)
    assert report.sup == worst  # bitwise, not approximately
    assert report.pair == pair


def test_linear_l1_rip_two_points_matches_reference():
    rng = substream(15, "test-l1rip-ref2")
    pair = PointSet.uniform(5, 2, rng)
    assert verify._l1_tile(2, 300) == (1, 1)
    _assert_matches_reference(pair, gaussian_ensemble(5, 300, seed=15))
    same = PointSet(np.array([[0.6, 0.8, 0.0], [0.6, 0.8, 0.0]]))
    _assert_matches_reference(same, gaussian_ensemble(2, 40, seed=15))


@pytest.mark.parametrize("seed", [1, 2])
def test_linear_l1_rip_rip_shape_matches_reference(seed):
    # the linear-rip experiment's default shape: 210 sparse-net points, m = 2773
    rng = substream(seed, "test-l1rip-ref")
    net = sparse_net(SparseSpec(64, 4), 200, rng)
    ens = MeasurementEnsemble(rng.standard_normal((2773, 65)))
    assert len(net) == 210
    _assert_matches_reference(net, ens)


def _tied_set():
    """Three copies of 6 points: every pair distance, statistic and gap repeats nine times."""
    rng = substream(16, "test-l1rip-ties")
    base = PointSet.uniform(3, 6, rng).points
    return PointSet(np.vstack([base, base, base])), gaussian_ensemble(3, 64, seed=16)


def test_linear_l1_rip_tied_pairs_match_reference():
    # the first maximum decides the witness
    pts, ens = _tied_set()
    worst, _ = _linear_l1_rip_reference(pts, ens)
    proj = pts.points @ ens.directions.T
    stat = np.abs(proj[:, None, :] - proj[None, :, :]).mean(axis=2) / HALF_NORMAL_MEAN
    chord = np.sqrt(np.maximum(2.0 - 2.0 * (pts.points @ pts.points.T), 0.0))
    assert np.count_nonzero(np.abs(stat - chord) == worst) > 2
    _assert_matches_reference(pts, ens)


@pytest.mark.parametrize("pairs_per_tile", [1, 2, 7, 64])
def test_linear_l1_rip_blocks_match_reference(pairs_per_tile, monkeypatch):
    # a budget of a few pairs splits the scan into many tiles; 64 pairs make 5 x 12
    rng = substream(17, "test-l1rip-blocks")
    net = sparse_net(SparseSpec(16, 3), 60, rng)
    ens = MeasurementEnsemble(rng.standard_normal((500, 17)))
    monkeypatch.setattr(verify, "L1_TILE_BYTES", pairs_per_tile * 8 * ens.m)
    assert len(net) > 64
    rows, cols = verify._l1_tile(len(net), ens.m)
    assert rows * cols <= pairs_per_tile
    _assert_matches_reference(net, ens)


@pytest.mark.parametrize("pairs_per_tile", [1, 4])
def test_linear_l1_rip_blocked_ties_match_reference(pairs_per_tile, monkeypatch):
    pts, ens = _tied_set()
    monkeypatch.setattr(verify, "L1_TILE_BYTES", pairs_per_tile * 8 * ens.m)
    _assert_matches_reference(pts, ens)


# rows i x rows j per tile, None for the default; in 5 x 3 a diagonal tile
# fills pairs j < i whose entries a later tile of the same rows must not read
TILES = pytest.mark.parametrize(
    "tile", [(1, 1), (1, 7), (3, 5), (5, 3), None], ids=["1x1", "1x7", "3x5", "5x3", "default"]
)


def _fix_tile(monkeypatch, tile):
    if tile is not None:
        monkeypatch.setattr(verify, "_l1_tile", lambda k, m: tile)


@TILES
def test_linear_l1_rip_tiles_match_reference(tile, monkeypatch):
    # k - 1 = 61 is a multiple of no tile side above 1, so every row and
    # column sweep ends in a partial tile
    rng = substream(18, "test-l1rip-tiles")
    pts = PointSet.uniform(4, 62, rng)
    ens = gaussian_ensemble(4, 300, seed=18)
    _fix_tile(monkeypatch, tile)
    _assert_matches_reference(pts, ens)


@TILES
def test_linear_l1_rip_tiled_ties_match_reference(tile, monkeypatch):
    # k - 1 = 17: tied pairs fall in different tiles
    _fix_tile(monkeypatch, tile)
    _assert_matches_reference(*_tied_set())


def test_linear_l1_rip_row_above_budget_is_one_pair_tiles():
    m = verify.L1_TILE_BYTES // 8 + 1
    rng = substream(19, "test-l1rip-wide")
    pts = PointSet.uniform(2, 6, rng)
    ens = gaussian_ensemble(2, m, seed=19)
    assert verify._l1_tile(len(pts), m) == (1, 1)
    _assert_matches_reference(pts, ens)


def test_linear_l1_rip_rip_shape_memory_stays_in_budget():
    # the battery's linear-rip shape: beyond the tile buffer the audit holds
    # the (k, m) projections and (k, k) arrays, never a (k - 1, m) row block
    k, m = 210, 2773
    rng = substream(20, "test-l1rip-mem")
    pts = PointSet.uniform(64, k, rng)
    ens = gaussian_ensemble(64, m, seed=20)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        linear_l1_rip(pts, ens, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verify._l1_tile(k, m) == (4, 8)
    assert peak - base <= verify.L1_TILE_BYTES + 2 * 8 * k * k + 8 * k * m


# --- linear l1 audit: float32 screen, float64 confirm -----------------------------


def _count_confirmed(monkeypatch):
    """Spy on the float64 confirm step; the list holds the pairs it recomputed."""
    confirmed = []
    real = verify._l1_gaps

    def spy(proj, chord, i, js, buf):
        confirmed.extend((i, int(j)) for j in js)
        return real(proj, chord, i, js, buf)

    monkeypatch.setattr(verify, "_l1_gaps", spy)
    return confirmed


def _battery_shape(seed):
    rng = substream(seed, "test-l1rip-ref")
    net = sparse_net(SparseSpec(64, 4), 200, rng)
    return net, MeasurementEnsemble(rng.standard_normal((2773, 65)))


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_linear_l1_rip_battery_shape_confirms_few_pairs(seed, monkeypatch):
    # the screen must leave a handful of the 21,945 pairs to the float64 pass,
    # or the audit costs more than the plain float64 scan
    confirmed = _count_confirmed(monkeypatch)
    net, ens = _battery_shape(seed)
    _assert_matches_reference(net, ens)
    assert 1 <= len(confirmed) <= 36
    assert len(set(confirmed)) == len(confirmed)


def test_linear_l1_rip_repeated_points_tie_for_the_max(monkeypatch):
    # two copies of a sparse net: the worst pair's value recurs in four pairs,
    # and the first of them in row-major order is the witness
    rng = substream(25, "test-l1rip-repeats")
    net = sparse_net(SparseSpec(16, 3), 60, rng)
    ens = MeasurementEnsemble(rng.standard_normal((2773, 17)))
    pts = PointSet(np.vstack([net.points, net.points]))
    k = len(net)
    _, (i, j) = _linear_l1_rip_reference(pts, ens)
    assert j < k
    confirmed = _count_confirmed(monkeypatch)
    _assert_matches_reference(pts, ens)
    assert {(i, j), (i, j + k), (j, i + k), (i + k, j + k)} <= set(confirmed)


def test_linear_l1_rip_wide_slack_confirms_many_pairs(monkeypatch):
    # at m = 50,000 the float32 slack, about 1.2e-7 m per row, dwarfs the
    # spread of the gaps, so most pairs go to the float64 pass
    rng = substream(22, "test-l1rip-slack")
    pts = PointSet.uniform(4, 30, rng)
    ens = gaussian_ensemble(4, 50_000, seed=22)
    confirmed = _count_confirmed(monkeypatch)
    _assert_matches_reference(pts, ens)
    assert len(confirmed) > 30 * 29 // 4


def test_linear_l1_rip_unscreenable_mass_confirms_every_pair(monkeypatch):
    # rows whose l1 mass passes 2^120 could overflow float32: no screen runs
    rng = substream(23, "test-l1rip-huge")
    pts = PointSet.uniform(3, 9, rng)
    ens = MeasurementEnsemble(gaussian_ensemble(3, 40, seed=23).directions * 1e37)

    def no_screen(*args):
        raise AssertionError("the float32 screen ran on rows it cannot bound")

    monkeypatch.setattr(verify, "_l1_screen", no_screen)
    confirmed = _count_confirmed(monkeypatch)
    _assert_matches_reference(pts, ens)
    assert len(confirmed) == 9 * 8 // 2


@pytest.mark.parametrize("tile", [(1, 1), (4, 8), (5, 3)])
def test_l1_screen_stays_within_its_bound(tile):
    # |S~ - S| <= 2 (m + 3) 2^-24 (|p_i|_1 + |p_j|_1), here on projections whose
    # rows and columns span 2^-40 to 2^40, so float32 rounds at every scale
    rng = substream(24, "test-l1-screen")
    k, m = 23, 1001
    proj = rng.standard_normal((k, m))
    proj *= 2.0 ** rng.integers(-20, 21, size=(k, 1))
    proj *= 2.0 ** rng.integers(-20, 21, size=(1, m))
    sums = verify._l1_screen(proj, *tile)
    mass = np.abs(proj).sum(axis=1)
    for i in range(k - 1):
        exact = np.abs(proj[i] - proj[i + 1 :]).sum(axis=1)
        err = np.abs(sums[i, i + 1 :] - exact)
        assert (err <= 2 * (m + 3) * 2.0**-24 * (mass[i] + mass[i + 1 :])).all()
        assert err.max() > 0.0  # float32 did round


# --- Hamming matrix against the float64 product ---------------------------------


@pytest.mark.parametrize("m", [1, 50, 2773])
@pytest.mark.parametrize("block_columns", [None, 7])
def test_hamming_matrix_matches_float64_product(m, block_columns, monkeypatch):
    # block_columns = 7 sums several float32 blocks, the last one partial
    if block_columns is not None:
        monkeypatch.setattr(verify, "HAMMING_BLOCK_COLUMNS", block_columns)
    rng = substream(18, "test-hamming-blocks", m)
    net = sparse_net(SparseSpec(64, 4), 200, rng)
    ens = unit_ensemble(64, m, seed=18)
    bits = sign_matrix(ens, net).astype(float)
    expected = (ens.m - bits @ bits.T) / (2.0 * ens.m)
    hamming = verify._hamming(verify._agreements(net, ens), ens.m)
    assert np.array_equal(hamming, expected)


def test_agreements_of_an_empty_ensemble_are_zero():
    pts = PointSet.uniform(2, 5, substream(19, "test-agree-empty"))
    agree = verify._agreements(pts, MeasurementEnsemble(np.empty((0, 3))))
    assert agree.shape == (5, 5)
    assert not agree.any()


def _hamming_reference(points, ens):
    """The whole (k, k) float64 Hamming matrix from the float64 product of the bits."""
    bits = sign_matrix(ens, points).astype(float)
    return (ens.m - bits @ bits.T) / (2.0 * ens.m)


def _argmax_reference(values):
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    return float(values[i, j]), (int(i), int(j))


@pytest.mark.parametrize("row_bytes", [None, 8 * 217 * 7, 1])  # one block, 7 rows, 1 row
def test_hamming_audits_in_row_blocks_match_the_whole_matrix(row_bytes, monkeypatch):
    if row_bytes is not None:
        monkeypatch.setattr(verify, "HAMMING_ROW_BYTES", row_bytes)
    rng = substream(21, "test-hamming-rows")
    net = sparse_net(SparseSpec(64, 4), 207, rng)
    ens = gaussian_ensemble(64, 300, seed=21)
    gap = np.abs(_hamming_reference(net, ens) - net.pairwise_geodesic())
    np.fill_diagonal(gap, 0.0)
    report = one_bit_rip(net, ens, 0.2)
    assert (report.sup, report.pair) == _argmax_reference(gap)
    # 8 hyperplanes leave cells of several points, whose rows straddle the blocks
    coarse = MeasurementEnsemble(ens.directions[:8])
    num_cells, cells = small_cells_check(net, coarse, 0.2)
    assert num_cells < len(net)
    assert (num_cells, cells.sup) == cell_audit(net, coarse)

    packed = greedy_packing(PointSet.sparse(SparseSpec(64, 4), 300, rng), 0.05, rng).centers
    dist = packed.pairwise_geodesic()
    np.fill_diagonal(dist, 1.0)
    ratio = np.abs(_hamming_reference(packed, ens) - dist) / dist
    np.fill_diagonal(ratio, 0.0)
    report = metric_ratio_check(packed, ens, 0.05)
    assert len(packed) > 7
    assert (report.sup, report.pair) == _argmax_reference(ratio)


def test_hamming_blocks_count_exactly_in_float32():
    # every partial sum of a block's +-1 products must be a float32 integer
    assert verify.HAMMING_BLOCK_COLUMNS < 2**24


# --- sign-product audit against the product over the measurements ------------------


def _sign_product_rip_reference(points, ens):
    """sgn(P) P^T / m with P = X G^T, a (k, m) by (m, k) product: (sup, pair)."""
    proj = points.points @ ens.directions.T
    stats = np.where(proj >= 0, 1.0, -1.0) @ proj.T / ens.m
    gap = np.abs(stats - HALF_NORMAL_MEAN * (points.points @ points.points.T))
    i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return float(gap[i, j]), (int(i), int(j))


@pytest.mark.parametrize("seed, net_size", [(1, 200), (2, 200), (3, 200), (4, 200), (5, 600)])
def test_sign_product_rip_matches_measurement_space_product(seed, net_size):
    # the sign-product experiment's shape (m = 2773 in R^65), and a wider net
    rng = substream(seed, "test-sprip-ref")
    net = sparse_net(SparseSpec(64, 4), net_size, rng)
    ens = MeasurementEnsemble(rng.standard_normal((2773, 65)))
    assert len(net) >= net_size
    report = sign_product_rip(net, ens, 0.2)
    worst, pair = _sign_product_rip_reference(net, ens)
    assert abs(report.sup - worst) <= 1e-12
    assert report.pair == pair
