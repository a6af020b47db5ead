"""Verification layer: tessellation cells, distortion audits, embeddings."""

import math
import tracemalloc

import numpy as np
import pytest

from onebit import (
    HALF_NORMAL_MEAN,
    CellReport,
    DimensionMismatchError,
    MeasurementEnsemble,
    MetricRatioReport,
    PointSet,
    PreconditionError,
    RipReport,
    SparseSpec,
    UnitVector,
    embedding_size,
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
from oracles import gaussian_ensemble, sign_product_statistic, unit_ensemble


def unit(*coords):
    return UnitVector.normalized(np.array(coords, dtype=float))


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
    report = small_cells_check(pts, empty, 0.1)
    assert report.num_cells == 1
    dist = pts.pairwise_geodesic()
    assert math.isclose(report.max_cell_diameter, float(dist.max()), rel_tol=1e-12)
    assert report.violating_pair is not None


def test_small_cells_explicit_pair():
    angle = 0.1 * math.pi
    pts = PointSet(np.array([[1.0, 0.0], [math.cos(angle), math.sin(angle)]]))
    axes = MeasurementEnsemble(np.eye(2))
    report = small_cells_check(pts, axes, 0.05)
    assert isinstance(report, CellReport)
    assert report.num_cells == 1
    assert math.isclose(report.max_cell_diameter, 0.1, rel_tol=1e-9)
    assert report.violating_pair == (0, 1)
    relaxed = small_cells_check(pts, axes, 0.5)
    assert relaxed.violating_pair is None
    assert math.isclose(relaxed.max_cell_diameter, 0.1, rel_tol=1e-9)


def test_small_cells_all_singletons():
    # antipodal pair with a direction separating them: two singleton cells
    pts = PointSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    ens = MeasurementEnsemble(np.array([[1.0, 0.0]]))
    report = small_cells_check(pts, ens, 0.3)
    assert report.num_cells == 2
    assert report.max_cell_diameter == 0.0
    assert report.violating_pair is None


@pytest.mark.parametrize("seed", range(10))
def test_small_cells_prefix_monotone(seed):
    # more hyperplanes refine the tessellation: diameters shrink, cells split
    pts = PointSet.uniform(4, 100, substream(seed, "test-cells-pts"))
    rows = unit_ensemble(4, 80, seed=seed).directions
    half = small_cells_check(pts, MeasurementEnsemble(rows[:40]), 0.3)
    full = small_cells_check(pts, MeasurementEnsemble(rows), 0.3)
    assert full.max_cell_diameter <= half.max_cell_diameter
    assert full.num_cells >= half.num_cells


# --- one-bit distortion ----------------------------------------------------------


def test_one_bit_rip_single_measurement_orthogonal_pair():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    one = MeasurementEnsemble(np.array([[1.0, 1.0]]) / math.sqrt(2.0))
    report = one_bit_rip(pts, one, 0.3)
    # both points read +, hamming 0, true distance exactly 1/2
    assert report.sup_discrepancy == 0.5
    assert report.m == 1
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
            s = abs(sign_product_statistic(ens, pts.unit(i), pts.unit(j)).statistic)
            worst = max(worst, s)
    assert math.isclose(report.sup_discrepancy, worst, rel_tol=1e-10)
    assert report.passed


def test_sign_product_rip_concentrates():
    rng = substream(10, "test-sprip-conc")
    pts = PointSet.uniform(4, 10, rng)
    ens = gaussian_ensemble(4, 20_000, seed=10)
    report = sign_product_rip(pts, ens, 0.05)
    assert report.sup_discrepancy < 0.05
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
    return float(np.abs(ens.directions @ (x.coords - y.coords)).sum() / (ens.m * HALF_NORMAL_MEAN))


def test_linear_l1_identical_points_is_zero():
    ens = gaussian_ensemble(3, 64, seed=4)
    x = unit(0, 1, 0, 0)
    assert linear_l1_distance(ens, x, x) == 0.0


def test_linear_l1_estimates_euclidean_distance():
    ens = gaussian_ensemble(5, 100_000, seed=21)
    rng = substream(21, "test-l1-pair")
    x = UnitVector.normalized(rng.standard_normal(6))
    y = UnitVector.normalized(rng.standard_normal(6))
    chord = float(np.linalg.norm(x.coords - y.coords))
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
            est = linear_l1_distance(ens, pts.unit(i), pts.unit(j))
            chord = float(np.linalg.norm(pts.unit(i).coords - pts.unit(j).coords))
            worst = max(worst, abs(est - chord))
    assert math.isclose(report.sup_discrepancy, worst, rel_tol=1e-10)


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
    assert isinstance(report, MetricRatioReport)
    assert report.min_sep == 0.2
    assert 0.0 <= report.sup_ratio <= 1.0
    assert report.passed
    i, j = report.argmax_pair
    assert i != j


# --- embedding sizes -------------------------------------------------------------


def test_embedding_size_oracles():
    assert embedding_size(2, 0.1, 10.0) == 694
    assert embedding_size(100, 0.2, 10.0) == 1152


def test_embedding_size_validation():
    with pytest.raises(ValueError):
        embedding_size(1, 0.1, 10.0)
    with pytest.raises(ValueError):
        embedding_size(10, 1.0, 10.0)
    with pytest.raises(ValueError):
        embedding_size(10, 0.1, 0.0)
    # budgets past the float range: delta**-2 overflows, or the product does
    for delta, safety in ((1e-200, 10.0), (1e-100, 1e300), (0.1, math.inf), (0.1, math.nan)):
        with pytest.raises(ValueError, match="not finite"):
            embedding_size(10, delta, safety)


def test_finite_embedding_round_trip():
    rng = substream(18, "test-embed")
    pts = PointSet.uniform(3, 20, rng)
    ens, report = finite_embedding(pts, 0.2, 10.0, rng)
    expected_m = embedding_size(20, 0.2, 10.0)
    assert ens.m == expected_m == report.m
    assert ens.ambient == 4
    assert report.delta_target == 0.2
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
    assert report.sup_discrepancy == worst  # bitwise, not approximately
    assert report.argmax_pair == pair


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
    assert np.array_equal(verify._hamming_matrix(net, ens), expected)


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
    assert abs(report.sup_discrepancy - worst) <= 1e-12
    assert report.argmax_pair == pair
