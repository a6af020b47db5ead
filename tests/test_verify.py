"""Verification layer: tessellation cells, distortion audits, embeddings."""

import math

import numpy as np
import pytest

from onebit import (
    HALF_NORMAL_MEAN,
    CellReport,
    DimensionMismatchError,
    EnsembleKind,
    EnsembleKindError,
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
    linear_l1_distance,
    linear_l1_rip,
    margin_separation_count,
    metric_ratio_check,
    one_bit_rip,
    sign_product_rip,
    sign_product_statistic,
    small_cells_check,
    sparse_net,
    substream,
    verify,
    wedge_mask,
)


def unit(*coords):
    return UnitVector.normalized(np.array(coords, dtype=float))


# --- small cells -----------------------------------------------------------------


def test_small_cells_requires_uniform_kind():
    rng = substream(0, "test-cells-kind")
    pts = PointSet.uniform(2, 5, rng)
    gauss = MeasurementEnsemble.gaussian(2, 8, seed=0)
    with pytest.raises(EnsembleKindError):
        small_cells_check(pts, gauss, 0.2)


def test_small_cells_validation():
    rng = substream(1, "test-cells-val")
    pts = PointSet.uniform(2, 5, rng)
    ens = MeasurementEnsemble.uniform(2, 8, seed=1)
    for delta in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            small_cells_check(pts, ens, delta)
    other = MeasurementEnsemble.uniform(3, 8, seed=1)
    with pytest.raises(DimensionMismatchError):
        small_cells_check(pts, other, 0.2)


def test_small_cells_empty_ensemble_single_cell():
    rng = substream(2, "test-cells-empty")
    pts = PointSet.uniform(2, 6, rng)
    empty = MeasurementEnsemble(np.empty((0, 3)), EnsembleKind.UNIFORM_SPHERE)
    report = small_cells_check(pts, empty, 0.1)
    assert report.num_cells == 1
    dist = pts.pairwise_geodesic()
    assert math.isclose(report.max_cell_diameter, float(dist.max()), rel_tol=1e-12)
    assert report.violating_pair is not None


def test_small_cells_explicit_pair():
    angle = 0.1 * math.pi
    pts = PointSet(np.array([[1.0, 0.0], [math.cos(angle), math.sin(angle)]]))
    axes = MeasurementEnsemble(np.eye(2), EnsembleKind.UNIFORM_SPHERE)
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
    ens = MeasurementEnsemble(np.array([[1.0, 0.0]]), EnsembleKind.UNIFORM_SPHERE)
    report = small_cells_check(pts, ens, 0.3)
    assert report.num_cells == 2
    assert report.max_cell_diameter == 0.0
    assert report.violating_pair is None


@pytest.mark.parametrize("seed", range(10))
def test_small_cells_prefix_monotone(seed):
    # more hyperplanes refine the tessellation: diameters shrink, cells split
    pts = PointSet.uniform(4, 100, substream(seed, "test-cells-pts"))
    ens = MeasurementEnsemble.uniform(4, 80, seed=seed)
    half = small_cells_check(pts, ens.prefix(40), 0.3)
    full = small_cells_check(pts, ens, 0.3)
    assert full.max_cell_diameter <= half.max_cell_diameter
    assert full.num_cells >= half.num_cells


# --- margin separation -----------------------------------------------------------


def test_margin_zero_matches_strict_wedge_count():
    seed = 3
    ens = MeasurementEnsemble.uniform(3, 500, seed=seed)
    rng = substream(seed, "test-margin-pts")
    pts = PointSet.uniform(3, 2, rng)
    x, y = pts.unit(0), pts.unit(1)
    count = margin_separation_count(x, y, ens, 0.0)
    wedge = int(wedge_mask(ens.directions, x.coords, y.coords).sum())
    assert count == wedge


def test_margin_count_monotone_in_margin():
    ens = MeasurementEnsemble.uniform(3, 400, seed=4)
    rng = substream(4, "test-margin-mono")
    pts = PointSet.uniform(3, 2, rng)
    x, y = pts.unit(0), pts.unit(1)
    counts = [margin_separation_count(x, y, ens, t) for t in (0.0, 0.1, 0.2, 0.4)]
    assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))


def test_margin_gaussian_scaling():
    # gaussian margins are scaled by sqrt(ambient - 1) = 2 here
    ens = MeasurementEnsemble(
        np.array([[4.0, 0.0, 0.0, 0.0, 0.0]]), EnsembleKind.GAUSSIAN
    )
    x = unit(1, 0, 0, 0, 0)
    y = unit(-1, 0, 0, 0, 0)
    assert margin_separation_count(x, y, ens, 1.0) == 1  # threshold 2 < 4
    assert margin_separation_count(x, y, ens, 2.5) == 0  # threshold 5 > 4


def test_margin_validation():
    ens = MeasurementEnsemble.uniform(2, 8, seed=5)
    x = unit(1, 0, 0)
    with pytest.raises(ValueError):
        margin_separation_count(x, x, ens, -0.1)
    with pytest.raises(DimensionMismatchError):
        margin_separation_count(unit(1, 0), unit(0, 1), ens, 0.1)


# --- one-bit distortion ----------------------------------------------------------


def test_one_bit_rip_single_measurement_orthogonal_pair():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    one = MeasurementEnsemble(
        np.array([[1.0, 1.0]]) / math.sqrt(2.0), EnsembleKind.UNIFORM_SPHERE
    )
    report = one_bit_rip(pts, one, 0.3)
    # both points read +, hamming 0, true distance exactly 1/2
    assert report.sup_discrepancy == 0.5
    assert report.m == 1
    assert not report.passed
    assert one_bit_rip(pts, one, 0.5).passed


def test_one_bit_rip_validation():
    rng = substream(6, "test-rip-val")
    pts = PointSet.uniform(2, 5, rng)
    empty = MeasurementEnsemble(np.empty((0, 3)), EnsembleKind.UNIFORM_SPHERE)
    with pytest.raises(ValueError):
        one_bit_rip(pts, empty, 0.2)
    lone = PointSet(np.array([[1.0, 0.0, 0.0]]))
    ens = MeasurementEnsemble.uniform(2, 8, seed=6)
    with pytest.raises(ValueError):
        one_bit_rip(lone, ens, 0.2)
    with pytest.raises(DimensionMismatchError):
        one_bit_rip(pts, MeasurementEnsemble.uniform(3, 8, seed=6), 0.2)


def test_one_bit_rip_gaussian_matches_normalized_uniform():
    # signs ignore magnitudes, so the two ensemble kinds agree exactly
    rng = substream(7, "test-rip-kinds")
    pts = PointSet.uniform(3, 10, rng)
    gauss = MeasurementEnsemble.gaussian(3, 64, seed=7)
    rows = gauss.directions / np.linalg.norm(gauss.directions, axis=1, keepdims=True)
    uni = MeasurementEnsemble(rows, EnsembleKind.UNIFORM_SPHERE)
    a = one_bit_rip(pts, gauss, 0.2)
    b = one_bit_rip(pts, uni, 0.2)
    assert a.sup_discrepancy == b.sup_discrepancy
    assert a.argmax_pair == b.argmax_pair


# --- sign-product distortion -----------------------------------------------------


def test_sign_product_rip_requires_gaussian():
    rng = substream(8, "test-sprip-kind")
    pts = PointSet.uniform(2, 4, rng)
    with pytest.raises(EnsembleKindError):
        sign_product_rip(pts, MeasurementEnsemble.uniform(2, 8, seed=8), 0.2)


def test_sign_product_rip_matches_scalar_statistic():
    rng = substream(9, "test-sprip-pts")
    pts = PointSet.uniform(2, 4, rng)
    ens = MeasurementEnsemble.gaussian(2, 64, seed=9)
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
    ens = MeasurementEnsemble.gaussian(4, 20_000, seed=10)
    report = sign_product_rip(pts, ens, 0.05)
    assert report.sup_discrepancy < 0.05
    assert report.passed


# --- linear l1 distortion --------------------------------------------------------


def test_linear_l1_rip_requires_gaussian():
    rng = substream(11, "test-l1rip-kind")
    pts = PointSet.uniform(2, 4, rng)
    with pytest.raises(EnsembleKindError):
        linear_l1_rip(pts, MeasurementEnsemble.uniform(2, 8, seed=11), 0.2)


def test_linear_l1_rip_validation():
    rng = substream(12, "test-l1rip-val")
    lone = PointSet(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        linear_l1_rip(lone, MeasurementEnsemble.gaussian(2, 8, seed=12), 0.2)
    pts = PointSet.uniform(2, 4, rng)
    with pytest.raises(ValueError):
        linear_l1_rip(pts, MeasurementEnsemble.gaussian(2, 0, seed=12), 0.2)


def test_linear_l1_rip_matches_scalar_statistic():
    rng = substream(13, "test-l1rip-pts")
    pts = PointSet.uniform(3, 5, rng)
    ens = MeasurementEnsemble.gaussian(3, 128, seed=13)
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
    ens = MeasurementEnsemble.gaussian(4, 20_000, seed=14)
    report = linear_l1_rip(pts, ens, 0.1)
    assert report.passed


# --- relative metric ratio -------------------------------------------------------


def test_metric_ratio_requires_separation():
    angle = 0.02 * math.pi
    pts = PointSet(np.array([[1.0, 0.0], [math.cos(angle), math.sin(angle)]]))
    ens = MeasurementEnsemble.uniform(1, 64, seed=15)
    with pytest.raises(PreconditionError):
        metric_ratio_check(pts, ens, 0.2)


def test_metric_ratio_validation():
    rng = substream(16, "test-ratio-val")
    pts = PointSet.uniform(2, 5, rng)
    ens = MeasurementEnsemble.uniform(2, 8, seed=16)
    with pytest.raises(ValueError):
        metric_ratio_check(pts, ens, 0.0)
    lone = PointSet(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        metric_ratio_check(lone, ens, 0.2)
    empty = MeasurementEnsemble(np.empty((0, 3)), EnsembleKind.UNIFORM_SPHERE)
    with pytest.raises(ValueError):
        metric_ratio_check(pts, empty, 0.2)


def test_metric_ratio_on_packed_points():
    rng = substream(17, "test-ratio-run")
    raw = PointSet.uniform(3, 150, rng)
    packed = greedy_packing(raw, 0.2, rng).centers
    ens = MeasurementEnsemble.uniform(3, 2_000, seed=17)
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


def test_finite_embedding_round_trip():
    rng = substream(18, "test-embed")
    pts = PointSet.uniform(3, 20, rng)
    ens, report = finite_embedding(pts, 0.2, 10.0, rng)
    expected_m = embedding_size(20, 0.2, 10.0)
    assert ens.m == expected_m == report.m
    assert ens.kind is EnsembleKind.UNIFORM_SPHERE
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
    _assert_matches_reference(pair, MeasurementEnsemble.gaussian(5, 300, seed=15))
    same = PointSet(np.array([[0.6, 0.8, 0.0], [0.6, 0.8, 0.0]]))
    _assert_matches_reference(same, MeasurementEnsemble.gaussian(2, 40, seed=15))


@pytest.mark.parametrize("seed", [1, 2])
def test_linear_l1_rip_rip_shape_matches_reference(seed):
    # the linear-rip experiment's default shape: 210 sparse-net points, m = 2773
    rng = substream(seed, "test-l1rip-ref")
    net = sparse_net(SparseSpec(64, 4), 200, rng)
    ens = MeasurementEnsemble(rng.standard_normal((2773, 65)), EnsembleKind.GAUSSIAN)
    assert len(net) == 210
    _assert_matches_reference(net, ens)


def test_linear_l1_rip_tied_pairs_match_reference():
    # three copies of each point: every pair distance, statistic and gap
    # repeats nine times, so the first maximum decides the witness
    rng = substream(16, "test-l1rip-ties")
    base = PointSet.uniform(3, 6, rng).points
    pts = PointSet(np.vstack([base, base, base]))
    ens = MeasurementEnsemble.gaussian(3, 64, seed=16)
    worst, _ = _linear_l1_rip_reference(pts, ens)
    proj = pts.points @ ens.directions.T
    stat = np.abs(proj[:, None, :] - proj[None, :, :]).mean(axis=2) / HALF_NORMAL_MEAN
    chord = np.sqrt(np.maximum(2.0 - 2.0 * (pts.points @ pts.points.T), 0.0))
    assert np.count_nonzero(np.abs(stat - chord) == worst) > 2
    _assert_matches_reference(pts, ens)


@pytest.mark.parametrize("rows_per_block", [1, 2, 7, 64])
def test_linear_l1_rip_blocks_match_reference(rows_per_block, monkeypatch):
    # a budget of a few rows splits every scan of j > i into several blocks
    rng = substream(17, "test-l1rip-blocks")
    net = sparse_net(SparseSpec(16, 3), 60, rng)
    ens = MeasurementEnsemble(rng.standard_normal((500, 17)), EnsembleKind.GAUSSIAN)
    monkeypatch.setattr(verify, "L1_SCAN_BYTES", rows_per_block * 8 * ens.m)
    assert len(net) > 64
    _assert_matches_reference(net, ens)


@pytest.mark.parametrize("rows_per_block", [1, 4])
def test_linear_l1_rip_blocked_ties_match_reference(rows_per_block, monkeypatch):
    rng = substream(16, "test-l1rip-ties")
    base = PointSet.uniform(3, 6, rng).points
    pts = PointSet(np.vstack([base, base, base]))
    ens = MeasurementEnsemble.gaussian(3, 64, seed=16)
    monkeypatch.setattr(verify, "L1_SCAN_BYTES", rows_per_block * 8 * ens.m)
    _assert_matches_reference(pts, ens)


def test_linear_l1_rip_rip_shape_is_one_block():
    # the battery's linear-rip shape (210 points, m = 2773) scans each row in one block
    assert verify.L1_SCAN_BYTES // (8 * 2773) >= 209

