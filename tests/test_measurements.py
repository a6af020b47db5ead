"""Measurement layer: ensembles, one-bit maps and sign-product statistics."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from onebit import (
    HALF_NORMAL_MEAN,
    DimensionMismatchError,
    InvalidDimensionError,
    MeasurementEnsemble,
    PointSet,
    SparseSpec,
    measurements,
    sign_matrix,
    signs,
    sparse_net,
    substream,
)
from oracles import gaussian_ensemble, sign_product_statistic, unit, unit_ensemble


# --- MeasurementEnsemble validation ---------------------------------------------


def test_gaussian_ensemble_accepts_unnormalized_rows():
    ens = MeasurementEnsemble([[3.0, 4.0]])
    assert ens.m == 1 and ens.ambient == 2


def test_ensemble_rejects_bad_shapes():
    with pytest.raises(InvalidDimensionError):
        MeasurementEnsemble([1.0, 0.0])
    # ambient dimension 1 means the sphere is two points; not supported
    with pytest.raises(InvalidDimensionError):
        MeasurementEnsemble([[1.0]])


def test_ensemble_rejects_non_finite():
    with pytest.raises(ValueError):
        MeasurementEnsemble([[np.nan, 0.0]])


def test_empty_ensemble_allowed():
    ens = MeasurementEnsemble(np.empty((0, 3)))
    assert ens.m == 0
    assert sign_matrix(ens, PointSet([[1.0, 0.0, 0.0]])).shape == (1, 0)


def test_ensemble_directions_are_read_only():
    ens = gaussian_ensemble(2, 4, seed=7)
    with pytest.raises(ValueError):
        ens.directions[0, 0] = 99.0


# --- one_bit_map and sign conventions --------------------------------------------


def one_bit_map(ens: MeasurementEnsemble, x: np.ndarray) -> np.ndarray:
    """Scalar oracle for ``sign_matrix``: the signs of one point's measurements."""
    return signs(ens.directions @ x)


def test_one_bit_map_zero_dot_counts_positive():
    directions = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) / np.array(
        [1.0, 1.0, math.sqrt(2.0)]
    ).reshape(3, 1)
    ens = MeasurementEnsemble(directions)
    assert one_bit_map(ens, unit(1, 0)).tolist() == [1, 1, 1]
    # first direction is orthogonal to -e2: the zero dot still reads +
    assert one_bit_map(ens, unit(0, -1)).tolist() == [1, -1, -1]


def test_sign_matrix_rows_match_one_bit_map():
    rng = substream(5, "test-sign-matrix")
    pts = PointSet.uniform(3, 6, rng)
    ens = unit_ensemble(3, 32, seed=5)
    matrix = sign_matrix(ens, pts)
    assert matrix.shape == (6, 32)
    for i in range(6):
        assert np.array_equal(matrix[i], one_bit_map(ens, pts.points[i]))


@pytest.mark.parametrize(
    "k, m, block_bytes",
    [
        (600, 2773, None),  # the default budget: 189 rows a block, the last one partial
        (20, 50, 3 * 8 * 50),  # 3 rows a block
        (5, 50, 8),  # less than one row: a row a block
    ],
)
def test_sign_matrix_in_row_blocks_matches_the_full_projection(k, m, block_bytes, monkeypatch):
    if block_bytes is not None:
        monkeypatch.setattr(measurements, "SIGN_BLOCK_BYTES", block_bytes)
    rows = max(1, measurements.SIGN_BLOCK_BYTES // (8 * m))
    assert -(-k // rows) >= 3
    net = sparse_net(SparseSpec(64, 4), k, substream(k, "test-sign-blocks"))
    ens = gaussian_ensemble(64, m, seed=k)
    assert sign_matrix(ens, net).tobytes() == signs(net.points @ ens.directions.T).tobytes()


def test_sign_matrix_dimension_mismatch():
    rng = substream(5, "test-sign-matrix-bad")
    pts = PointSet.uniform(2, 3, rng)
    ens = unit_ensemble(3, 8, seed=5)
    with pytest.raises(DimensionMismatchError):
        sign_matrix(ens, pts)


def test_positive_row_scaling_never_flips_signs():
    ens = gaussian_ensemble(4, 64, seed=9)
    rng = substream(9, "test-scaling")
    scales = rng.uniform(0.1, 10.0, size=64)
    scaled = MeasurementEnsemble(ens.directions * scales[:, None])
    x = unit(*rng.standard_normal(5))
    assert np.array_equal(one_bit_map(ens, x), one_bit_map(scaled, x))


# --- half-normal mean oracle -----------------------------------------------------


def test_half_normal_mean_matches_quadrature():
    integrand = lambda t: abs(t) * stats.norm.pdf(t)
    # split at the kink; quad's reported error is conservative on [0, inf)
    value, err = integrate.quad(integrand, 0.0, np.inf)
    assert err < 1e-6
    assert math.isclose(HALF_NORMAL_MEAN, 2.0 * value, rel_tol=1e-10)


# --- sign-product statistic ------------------------------------------------------


def test_sign_product_requires_measurements():
    ens = gaussian_ensemble(3, 0, seed=2)
    x = unit(1, 0, 0, 0)
    with pytest.raises(ValueError):
        sign_product_statistic(ens, x, x)


def test_sign_product_report_fields():
    ens = gaussian_ensemble(2, 128, seed=6)
    x = unit(1, 0, 0)
    report = sign_product_statistic(ens, x, x)
    assert report.lam == HALF_NORMAL_MEAN
    assert report.m == 128
    assert report.x is x and report.y is x


def test_sign_product_centers_on_diagonal():
    # on x = y the raw mean of sign(g.x) (g.x) concentrates at lam
    ens = gaussian_ensemble(8, 20_000, seed=13)
    rng = substream(13, "test-signprod-diag")
    x = unit(*rng.standard_normal(9))
    report = sign_product_statistic(ens, x, x)
    assert abs(report.statistic) <= 0.02


def test_sign_product_tracks_inner_product():
    # E sign(g.x)(g.y) = lam (x.y); check at a 60 degree pair and at right angles
    ens = gaussian_ensemble(2, 20_000, seed=14)
    x = unit(1, 0, 0)
    y = unit(1, math.sqrt(3), 0)  # x.y = 1/2
    assert math.isclose(float(x @ y), 0.5, abs_tol=1e-12)
    assert abs(sign_product_statistic(ens, x, y).statistic) <= 0.02
    z = unit(0, 0, 1)
    assert abs(sign_product_statistic(ens, x, z).statistic) <= 0.02
