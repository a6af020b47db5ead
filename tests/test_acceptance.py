"""Acceptance battery: one test per shipped claim, at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Every test draws from a fixed master seed through named
substreams, so the whole battery is reproducible bit for bit.
"""

import math

import numpy as np

from onebit import (
    ExperimentConfig,
    MeasurementEnsemble,
    PointSet,
    SparseSpec,
    canonical_witness,
    estimate_gaussian_width,
    estimate_hemisphere_width_cholesky,
    estimate_hemisphere_width_empirical,
    hemisphere_empirical_samples,
    one_bit_rip,
    run,
    sandwich_check,
    shatter_check,
    sign_product_rip,
    small_cells_check,
    substream,
    sudakov_check,
    transversal_mask,
    uniform_sphere_rows,
    wedge_mask,
)
from oracles import geodesic_distance, sign_product_statistic

ACCEPT_SEED = 20260817

_WIDTH_CONFIGS = ((64, 2), (64, 4), (256, 4), (256, 8))
_width_cache: dict = {}


def _width_setup(n: int, s: int):
    """2000-point sparse net with both width estimates, computed once."""
    key = (n, s)
    if key not in _width_cache:
        rng = substream(ACCEPT_SEED, "acceptance-widths", n, s)
        net = PointSet.sparse(SparseSpec(n, s), 2000, rng)
        gw = estimate_gaussian_width(net, 2000, rng)
        hw = estimate_hemisphere_width_cholesky(net, 2000, rng)
        _width_cache[key] = (net, gw, hw)
    return _width_cache[key]


# -----------------------------------------------------------------------------


def test_criterion_01_crofton_identity():
    m = 100_000
    hits = 0
    for i in range(20):
        rng = substream(ACCEPT_SEED, "acceptance-crofton", i)
        x, y = uniform_sphere_rows(3, 2, rng)
        d = geodesic_distance(x, y)
        thetas = uniform_sphere_rows(3, m, rng)
        freq = float(wedge_mask(thetas, x, y).mean())
        bound = 3.0 * math.sqrt(d * (1.0 - d) / m)
        hits += abs(freq - d) <= bound
    print(f"criterion 1: {hits}/20 pairs within 3 sigma")
    assert hits >= 19


def test_criterion_02_transversal_quarter_density():
    m = 100_000
    hits = 0
    for i in range(20):
        rng = substream(ACCEPT_SEED, "acceptance-transversal", i)
        x, y = uniform_sphere_rows(3, 2, rng)
        target = geodesic_distance(x, y) / 4.0
        thetas = uniform_sphere_rows(3, m, rng)
        freq = float(transversal_mask(thetas, x, y).mean())
        bound = 3.0 * math.sqrt(target * (1.0 - target) / m)
        hits += abs(freq - target) <= bound
    print(f"criterion 2: {hits}/20 pairs within 3 sigma of d/4")
    assert hits >= 19


def test_criterion_03_sign_product_constant():
    rng = substream(ACCEPT_SEED, "acceptance-signconst")
    x = uniform_sphere_rows(64, 1, rng)[0]
    ens = MeasurementEnsemble(rng.standard_normal((100_000, 65)))
    # with x = y the centered statistic is (1/m) sum |<x, g_j>| minus sqrt(2/pi)
    gap = abs(sign_product_statistic(ens, x, x).statistic)
    print(f"criterion 3: |mean - 0.7978845608| = {gap:.6f} (tol 0.01)")
    assert gap <= 0.01


def test_criterion_04_one_bit_rip_rate_and_negative_control():
    spec = SparseSpec(64, 4)
    passes = 0
    for i in range(50):
        rng = substream(ACCEPT_SEED, "acceptance-rip", i)
        net = PointSet.sparse(spec, 200, rng)
        ens = MeasurementEnsemble(uniform_sphere_rows(64, 2773, rng))
        passes += one_bit_rip(net, ens, 0.2).passed
    # the control runs at m/32, where the rip verdict fails (2-4% of
    # runs pass); at m = 100 about half of them pass
    neg_m = math.ceil(2773 / 32)
    neg_passes = 0
    for i in range(50):
        rng = substream(ACCEPT_SEED, "acceptance-rip-neg", i)
        net = PointSet.sparse(spec, 200, rng)
        ens = MeasurementEnsemble(uniform_sphere_rows(64, neg_m, rng))
        neg_passes += one_bit_rip(net, ens, 0.2).passed
    print(f"criterion 4: m=2773 rate {passes}/50, m={neg_m} control rate {neg_passes}/50")
    assert passes >= 45
    assert neg_passes <= 10


def test_criterion_05_sign_product_rip_rate():
    spec = SparseSpec(64, 4)
    passes = 0
    for i in range(50):
        rng = substream(ACCEPT_SEED, "acceptance-signprod", i)
        net = PointSet.sparse(spec, 200, rng)
        ens = MeasurementEnsemble(rng.standard_normal((2773, 65)))
        passes += sign_product_rip(net, ens, 0.2).passed
    print(f"criterion 5: sup statistic <= 0.2 in {passes}/50 seeds")
    assert passes >= 45


def test_criterion_06_small_cells_rate_and_monotonicity():
    small = 0
    monotone = 0
    for i in range(50):
        rng = substream(ACCEPT_SEED, "acceptance-cells", i)
        points = PointSet.uniform(16, 300, rng)
        dirs = uniform_sphere_rows(16, 762, rng)
        _, base = small_cells_check(points, MeasurementEnsemble(dirs[:381]), 0.3)
        _, doubled = small_cells_check(points, MeasurementEnsemble(dirs), 0.3)
        small += base.sup < 0.3
        monotone += doubled.sup <= base.sup
    print(f"criterion 6: all-cells-small {small}/50, doubling monotone {monotone}/50")
    assert small >= 45
    assert monotone == 50


def test_criterion_07_hemisphere_process_fingerprint():
    rng = substream(ACCEPT_SEED, "acceptance-hemi-pairs")
    points = PointSet.uniform(3, 40, rng)
    n_draws = 20_000
    samples = hemisphere_empirical_samples(points, 10_000, n_draws, rng)
    variances = samples.var(axis=0, ddof=1)
    var_ok = np.abs(variances - 0.25) <= 0.05 * 0.25
    dist = points.pairwise_geodesic()
    worst_z = 0.0
    cov_ok = 0
    for j in range(20):
        a, b = samples[:, 2 * j], samples[:, 2 * j + 1]
        target = 0.25 - 0.5 * dist[2 * j, 2 * j + 1]
        cov = float(np.cov(a, b, ddof=1)[0, 1])
        se = math.sqrt((variances[2 * j] * variances[2 * j + 1] + cov**2) / (n_draws - 1))
        z = abs(cov - target) / se
        worst_z = max(worst_z, z)
        cov_ok += z <= 3.0
    print(
        f"criterion 7: variances in band {int(var_ok.sum())}/40, "
        f"covariances within 3 sigma {cov_ok}/20 (worst z = {worst_z:.2f})"
    )
    assert bool(var_ok.all())
    assert cov_ok == 20

    worst_gap = 0.0
    for k in range(20):
        rng_k = substream(ACCEPT_SEED, "acceptance-hemi-sets", k)
        pts = PointSet.uniform(3, 100, rng_k)
        chol = estimate_hemisphere_width_cholesky(pts, 4_000, rng_k)
        emp = estimate_hemisphere_width_empirical(pts, 10_000, 250, rng_k)
        joint = math.hypot(chol.std_error, emp.std_error)
        gap = abs(chol.value - emp.value) / joint
        worst_gap = max(worst_gap, gap)
        assert gap <= 3.0
    print(f"criterion 7: cholesky vs empirical worst |z| = {worst_gap:.2f} over 20 sets")


def test_criterion_08_width_scaling_box():
    for n, s in _WIDTH_CONFIGS:
        _, gw, _ = _width_setup(n, s)
        ratio2 = gw.value**2 / (s * math.log2(n / s))
        ratio_e = gw.value**2 / (s * math.log(n / s))
        print(
            f"criterion 8: (n={n}, s={s}) width^2 / (s log2(n/s)) = {ratio2:.3f} "
            f"(natural-log ratio {ratio_e:.3f})"
        )
        assert 0.2 <= ratio2 <= 5.0


def test_criterion_09_sudakov_and_entropy_chain():
    grid = tuple(round(0.05 * i, 2) for i in range(1, 11))
    worst = 0.0
    for n, s in _WIDTH_CONFIGS:
        net, gw, hw = _width_setup(n, s)
        report = sudakov_check(net, grid, gw.value, hw.value)
        assert all(r <= 3.0 for r in report.gaussian_ratios)
        assert all(r <= 3.0 for r in report.hemisphere_ratios)
        # entropy chain: sqrt(log N) at radius sqrt(delta) in the sqrt(d) metric
        # against the better of the two width envelopes at scale delta
        assert all(c <= 3.0 for c in report.chains)
        worst = max(worst, *report.gaussian_ratios, *report.hemisphere_ratios, *report.chains)
    print(f"criterion 9: worst ratio across all configs and scales = {worst:.3f} (cap 3)")


def test_criterion_10_vc_dimension_of_caps():
    for n in (2, 3, 4, 5):
        report = shatter_check(canonical_witness(n), budget=20_000)
        assert report.shattered, f"witness for n={n} not shattered"
    # Cover (1965): 8 points in general position on S^2, lifted into R^4
    cover = 2 * sum(math.comb(7, i) for i in range(4))
    assert cover == 128
    for i in range(10):
        rng = substream(ACCEPT_SEED, "acceptance-vc-random", i)
        pts = PointSet.uniform(2, 8, rng)
        report = shatter_check(pts, budget=20_000)
        assert report.dichotomies_realized == cover
        assert not report.shattered
    print(f"criterion 10: witnesses shattered; 10 random 8-point sets realize {cover}")


def test_criterion_11_packing_covering_sandwich():
    checks = 0
    violations = 0
    for n in (3, 16):
        for delta in (0.1, 0.2):
            for size in (100, 300):
                for i in range(3):
                    rng = substream(ACCEPT_SEED, "acceptance-sandwich", n, str(delta), size, i)
                    pts = PointSet.uniform(n, size, rng)
                    result = sandwich_check(pts, delta, rng)
                    checks += 1
                    violations += not result["ok"]
    print(f"criterion 11: {checks} sandwich checks, {violations} violations")
    assert violations == 0


def test_criterion_12_determinism_across_workers(tmp_path):
    out = tmp_path / "all.csv"
    cfg = ExperimentConfig(
        experiment="all", m=300, delta=0.25, trials=2, net_size=25,
        seed=ACCEPT_SEED, out_path=str(out),
    )
    run(cfg, workers=1)
    baseline = out.read_bytes()
    for workers in (2, 4, 8):
        run(cfg, workers=workers)
        assert out.read_bytes() == baseline, f"report differs with {workers} workers"
    print(f"criterion 12: byte-identical reports at 1/2/4/8 workers ({len(baseline)} bytes)")
