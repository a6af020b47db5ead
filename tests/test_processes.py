"""Process layer: widths, hemisphere covariance, symmetrization, minoration."""

import math
import tracemalloc

import numpy as np
import pytest

from onebit import (
    CovarianceMatrix,
    EnsembleKind,
    EnsembleKindError,
    FeasibilityError,
    MeasurementEnsemble,
    PointSet,
    ProcessMetric,
    UnitVector,
    WidthMethod,
    conditional_metric_sq,
    covariance_matrix,
    estimate_gaussian_width,
    estimate_hemisphere_width_cholesky,
    estimate_hemisphere_width_empirical,
    hemisphere_covariance,
    hemisphere_empirical_samples,
    metric_distances,
    processes,
    substream,
    sudakov_check,
    symmetrized_process_sup,
)


def unit(*coords):
    return UnitVector.normalized(np.array(coords, dtype=float))


def circle_points(k: int) -> PointSet:
    angles = 2.0 * math.pi * np.arange(k) / k
    return PointSet(np.column_stack([np.cos(angles), np.sin(angles)]))


# --- covariance ------------------------------------------------------------------


def test_hemisphere_covariance_oracles():
    x = unit(1, 0, 0)
    assert hemisphere_covariance(x, x) == 0.25
    assert math.isclose(hemisphere_covariance(x, unit(-1, 0, 0)), -0.25, abs_tol=1e-12)
    assert math.isclose(hemisphere_covariance(x, unit(0, 1, 0)), 0.0, abs_tol=1e-12)


def test_covariance_matrix_matches_pairwise_formula():
    rng = substream(0, "test-cov")
    pts = PointSet.uniform(3, 12, rng)
    cov = covariance_matrix(pts)
    assert np.allclose(np.diag(cov.entries), 0.25)
    assert np.allclose(cov.entries, cov.entries.T)
    for i in range(4):
        for j in range(4):
            if i == j:
                continue  # diagonal is exact above; the scalar oracle has arccos roundoff
            expected = hemisphere_covariance(pts.unit(i), pts.unit(j))
            assert math.isclose(cov.entries[i, j], expected, abs_tol=1e-12)


def test_covariance_matrix_validation():
    with pytest.raises(ValueError):
        CovarianceMatrix(np.array([[0.3, 0.0], [0.0, 0.3]]))  # bad diagonal
    with pytest.raises(ValueError):
        CovarianceMatrix(np.zeros((2, 3)))  # not square
    with pytest.raises(ValueError):
        CovarianceMatrix(np.array([[0.25, 0.30], [0.30, 0.25]]))  # not PSD


# --- gaussian width --------------------------------------------------------------


def test_gaussian_width_requires_trials():
    rng = substream(1, "test-gw-val")
    pts = PointSet.uniform(2, 5, rng)
    with pytest.raises(ValueError):
        estimate_gaussian_width(pts, 99, rng)


def test_gaussian_width_singleton_is_zero():
    rng = substream(2, "test-gw-single")
    est = estimate_gaussian_width(PointSet(np.array([[0.0, 1.0]])), 200, rng)
    assert est.value == 0.0 and est.std_error == 0.0
    assert est.method is WidthMethod.GAUSSIAN


def test_gaussian_width_of_dense_circle():
    # full circle: E sup - inf = 2 E |gamma|_2 = 2 sqrt(pi / 2)
    rng = substream(3, "test-gw-circle")
    est = estimate_gaussian_width(circle_points(400), 4_000, rng)
    target = 2.0 * math.sqrt(math.pi / 2.0)
    assert est.trials == 4_000
    assert abs(est.value - target) <= max(0.09, 4.5 * est.std_error)


# --- hemisphere width ------------------------------------------------------------


def test_hemisphere_cholesky_validation():
    rng = substream(4, "test-hw-val")
    pts = PointSet.uniform(2, 5, rng)
    with pytest.raises(ValueError):
        estimate_hemisphere_width_cholesky(pts, 1, rng)
    big = PointSet(np.tile([[1.0, 0.0]], (2001, 1)))
    with pytest.raises(FeasibilityError):
        estimate_hemisphere_width_cholesky(big, 10, rng)


def test_hemisphere_width_of_antipodal_pair():
    # perfectly anticorrelated pair: range is 2|Z| with Z ~ N(0, 1/4)
    rng = substream(5, "test-hw-pair")
    pair = PointSet(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    est = estimate_hemisphere_width_cholesky(pair, 40_000, rng)
    target = math.sqrt(2.0 / math.pi)
    assert est.method is WidthMethod.HEMISPHERE_CHOLESKY
    assert abs(est.value - target) <= 0.015


def test_empirical_samples_validation():
    rng = substream(6, "test-emp-val")
    pts = PointSet.uniform(2, 4, rng)
    with pytest.raises(ValueError):
        hemisphere_empirical_samples(pts, 9_999, 5, rng)
    with pytest.raises(ValueError):
        hemisphere_empirical_samples(pts, 10_000, 0, rng)


def test_empirical_samples_have_quarter_variance():
    rng = substream(7, "test-emp-var")
    pts = PointSet.uniform(3, 6, rng)
    samples = hemisphere_empirical_samples(pts, 10_000, 2_000, rng)
    assert samples.shape == (2_000, 6)
    variances = samples.var(axis=0, ddof=1)
    assert np.all(np.abs(variances - 0.25) <= 0.04)
    assert np.all(np.abs(samples.mean(axis=0)) <= 0.05)


def _hemisphere_samples_reference(points, m_inner, trials, rng):
    """The sampler as first written: normalized rows, chunks that ignore k."""
    k = len(points)
    out = np.empty((trials, k))
    root_m = math.sqrt(m_inner)
    chunk = max(1, int(8_000_000 // (m_inner * points.ambient)))
    done = 0
    while done < trials:
        batch = min(chunk, trials - done)
        g = rng.standard_normal((batch * m_inner, points.ambient))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        counts = (g @ points.points.T >= 0).reshape(batch, m_inner, k).sum(axis=1)
        out[done : done + batch] = (counts - m_inner / 2.0) / root_m
        done += batch
    return out


def _assert_samples_match_reference(k: int, trials: int, seed: int):
    pts = PointSet.uniform(3, k, substream(seed, "test-emp-ref-pts", k))
    rng = substream(seed, "test-emp-ref-draws", k)
    samples = hemisphere_empirical_samples(pts, 10_000, trials, rng)
    ref_rng = substream(seed, "test-emp-ref-draws", k)
    expected = _hemisphere_samples_reference(pts, 10_000, trials, ref_rng)
    assert samples.tobytes() == expected.tobytes()  # bitwise, not approximately
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# trials per chunk at the default budget: 40 (k = 1), 17 (k = 7), 4 (k = 40), 1 (k = 100)
@pytest.mark.parametrize("k, trials", [(1, 41), (7, 18), (40, 10), (100, 3)])
def test_empirical_samples_match_reference(k, trials):
    _assert_samples_match_reference(k, trials, seed=17)


@pytest.mark.parametrize("k", [1, 7, 40])
def test_empirical_samples_match_reference_in_pieces(k, monkeypatch):
    # a budget of 3000 directions splits every trial into pieces of 3000, 3000, 3000, 1000
    monkeypatch.setattr(processes, "HEMISPHERE_CHUNK_BYTES", 3_000 * (8 * 4 + 9 * k))
    _assert_samples_match_reference(k, 2, seed=18)


def test_empirical_samples_memory_follows_budget():
    # the old chunk rule held 2 trials of 10^4 directions against 2000 points
    # at once: a (20000, 2000) float64 projection plus its mask, about 360 MB
    pts = PointSet.uniform(3, 2_000, substream(19, "test-emp-mem"))
    rng = substream(19, "test-emp-mem-draws")
    tracemalloc.start()
    try:
        samples = hemisphere_empirical_samples(pts, 10_000, 2, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert samples.shape == (2, 2_000)
    assert peak < 64 * 2**20


def test_cholesky_and_empirical_widths_agree():
    rng = substream(8, "test-hw-agree")
    pts = PointSet.uniform(3, 30, rng)
    chol = estimate_hemisphere_width_cholesky(pts, 20_000, rng)
    emp = estimate_hemisphere_width_empirical(pts, 10_000, 300, rng)
    assert emp.method is WidthMethod.HEMISPHERE_EMPIRICAL
    joint = math.hypot(chol.std_error, emp.std_error)
    assert abs(chol.value - emp.value) <= 4.0 * joint


# --- symmetrized process ---------------------------------------------------------


def test_symmetrized_requires_uniform_kind():
    rng = substream(9, "test-symm-kind")
    pts = PointSet.uniform(2, 4, rng)
    gauss = MeasurementEnsemble.gaussian(2, 16, seed=9)
    with pytest.raises(EnsembleKindError):
        symmetrized_process_sup(pts, gauss, rng)


def test_symmetrized_validation():
    rng = substream(10, "test-symm-val")
    pts = PointSet.uniform(2, 4, rng)
    with pytest.raises(ValueError):
        symmetrized_process_sup(pts, MeasurementEnsemble.uniform(3, 8, seed=1), rng)
    empty = MeasurementEnsemble(np.empty((0, 3)), EnsembleKind.UNIFORM_SPHERE)
    with pytest.raises(ValueError):
        symmetrized_process_sup(pts, empty, rng)


def test_symmetrized_second_moment_matches_wedge_frequency():
    # for a two point set, E_eps sup^2 equals the empirical wedge frequency
    ens = MeasurementEnsemble.uniform(3, 500, seed=11)
    pts = PointSet.uniform(3, 2, substream(11, "test-symm-pts"))
    wedge_freq = conditional_metric_sq(ens, pts.unit(0), pts.unit(1))
    rng = substream(11, "test-symm-eps")
    draws = np.array([symmetrized_process_sup(pts, ens, rng) for _ in range(4_000)])
    second_moment = float(np.mean(draws**2))
    w = wedge_freq * ens.m
    se = math.sqrt(2.0 * w * (w - 1.0)) / ens.m / math.sqrt(4_000)
    assert abs(second_moment - wedge_freq) <= 4.0 * se


# --- process metrics and minoration ----------------------------------------------


def test_metric_distances_oracles():
    pts = PointSet(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]))
    chord = metric_distances(pts, ProcessMetric.GAUSSIAN)
    assert math.isclose(chord[0, 1], math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(chord[0, 2], 2.0, rel_tol=1e-12)
    assert np.all(np.diag(chord) == 0.0)
    hemi = metric_distances(pts, ProcessMetric.HEMISPHERE)
    assert math.isclose(hemi[0, 1], math.sqrt(0.5), rel_tol=1e-9)
    assert math.isclose(hemi[0, 2], 1.0, rel_tol=1e-12)


def test_metric_distances_accepts_string():
    pts = PointSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(
        metric_distances(pts, "gaussian"), metric_distances(pts, ProcessMetric.GAUSSIAN)
    )


def test_sudakov_singleton_bounds_are_zero():
    rng = substream(12, "test-sud-single")
    single = PointSet(np.array([[1.0, 0.0]]))
    width = estimate_gaussian_width(single, 100, rng)
    report = sudakov_check(single, ProcessMetric.GAUSSIAN, [0.1, 0.2], width)
    assert report.covering_numbers == (1, 1)
    assert report.lower_bounds == (0.0, 0.0)
    assert report.ratios == (0.0, 0.0)
    assert report.max_ratio == 0.0


def test_sudakov_validation():
    rng = substream(13, "test-sud-val")
    pts = PointSet.uniform(2, 10, rng)
    width = estimate_gaussian_width(pts, 100, rng)
    with pytest.raises(ValueError):
        sudakov_check(pts, ProcessMetric.GAUSSIAN, [], width)
    with pytest.raises(ValueError):
        sudakov_check(pts, ProcessMetric.GAUSSIAN, [0.1, 0.0], width)


def test_sudakov_covering_numbers_monotone():
    rng = substream(14, "test-sud-mono")
    pts = PointSet.uniform(2, 120, rng)
    width = estimate_gaussian_width(pts, 2_000, rng)
    deltas = (0.05, 0.1, 0.2, 0.4, 0.8)
    report = sudakov_check(pts, ProcessMetric.GAUSSIAN, deltas, width)
    covers = report.covering_numbers
    assert all(covers[i] >= covers[i + 1] for i in range(len(covers) - 1))
    for i, d in enumerate(deltas):
        n = covers[i]
        expected = d * math.sqrt(math.log(n)) if n > 1 else 0.0
        assert math.isclose(report.lower_bounds[i], expected, rel_tol=1e-12)
        assert math.isclose(report.ratios[i], expected / width.value, rel_tol=1e-12)
    assert report.max_ratio == max(report.ratios)
