"""Process layer: widths, hemisphere covariance, minoration."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from onebit import (
    FeasibilityError,
    NumericalError,
    PointSet,
    SparseSpec,
    blas,
    covariance_matrix,
    estimate_gaussian_width,
    estimate_hemisphere_width_cholesky,
    estimate_hemisphere_width_empirical,
    first_uncovered_cover,
    hemisphere_empirical_samples,
    pairwise_chord,
    processes,
    sparse_net,
    substream,
    sudakov_check,
)
from onebit.processes import _cholesky_factor
from oracles import geodesic_distance, unit


def circle_points(k: int) -> PointSet:
    angles = 2.0 * math.pi * np.arange(k) / k
    return PointSet(np.column_stack([np.cos(angles), np.sin(angles)]))


# --- covariance ------------------------------------------------------------------


def hemisphere_covariance(x: np.ndarray, y: np.ndarray) -> float:
    """Scalar oracle for ``covariance_matrix``: 1/4 - d(x, y)/2 for one pair."""
    return 0.25 - 0.5 * geodesic_distance(x, y)


def test_hemisphere_covariance_oracles():
    x = unit(1, 0, 0)
    assert hemisphere_covariance(x, x) == 0.25
    assert math.isclose(hemisphere_covariance(x, unit(-1, 0, 0)), -0.25, abs_tol=1e-12)
    assert math.isclose(hemisphere_covariance(x, unit(0, 1, 0)), 0.0, abs_tol=1e-12)


def test_covariance_matrix_matches_pairwise_formula():
    rng = substream(0, "test-cov")
    pts = PointSet.uniform(3, 12, rng)
    cov = covariance_matrix(pts)
    assert np.allclose(np.diag(cov), 0.25)
    assert np.allclose(cov, cov.T)
    for i in range(4):
        for j in range(4):
            if i == j:
                continue  # diagonal is exact above; the scalar oracle has arccos roundoff
            expected = hemisphere_covariance(pts.points[i], pts.points[j])
            assert math.isclose(cov[i, j], expected, abs_tol=1e-12)


def test_covariance_matrix_validation():
    with pytest.raises(ValueError):
        _cholesky_factor(np.array([[0.3, 0.0], [0.0, 0.3]]))  # bad diagonal
    with pytest.raises(ValueError):
        _cholesky_factor(np.zeros((2, 3)))  # not square
    with pytest.raises(ValueError):
        _cholesky_factor(np.array([[0.25, 0.30], [0.30, 0.25]]))  # not PSD
    with pytest.raises(ValueError, match="finite"):
        _cholesky_factor(np.array([[0.25, np.nan], [np.nan, 0.25]]))


def _chol_with_jitter_reference(entries):
    """The estimator's former ladder, whose factor _cholesky_factor must return."""
    eye = np.eye(entries.shape[0])
    for jitter in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        try:
            return np.linalg.cholesky(entries + jitter * eye)
        except np.linalg.LinAlgError:
            continue
    return None


def _twin_covariance(gap):
    """[[1/4, 1/4 + gap], [1/4 + gap, 1/4]]: lambda_min = -gap, first factored at jitter > gap."""
    return np.array([[0.25, 0.25 + gap], [0.25 + gap, 0.25]])


_FACTOR_SETS = [
    lambda rng: PointSet.uniform(3, 50, rng),
    lambda rng: PointSet.uniform(63, 400, rng),
    # repeated points make the covariance singular
    lambda rng: PointSet(np.vstack([PointSet.uniform(3, 20, rng).points] * 3)),
    lambda rng: sparse_net(SparseSpec(64, 4), 300, rng),
]


@pytest.mark.parametrize("make", _FACTOR_SETS)
def test_covariance_factor_matches_jitter_ladder(make):
    cov = covariance_matrix(make(substream(6, "test-cov-factor")))
    expected = _chol_with_jitter_reference(cov)
    factor = _cholesky_factor(cov)
    assert np.array_equal(factor, expected)  # bitwise, zeros above the diagonal included
    assert np.shares_memory(factor, cov)
    assert not factor.flags.writeable


def test_covariance_factor_from_a_higher_rung_is_kept():
    # factors at jitter 1e-8 only; lambda_min = -5e-9 passes the eigvalsh fallback
    entries = _twin_covariance(5e-9)
    expected = _chol_with_jitter_reference(entries)
    assert np.array_equal(_cholesky_factor(entries), expected)


def test_covariance_factored_only_at_a_high_rung_is_rejected():
    # factors at jitter 1e-7, above the certified rungs, and lambda_min = -5e-8
    entries = _twin_covariance(5e-8)
    assert _chol_with_jitter_reference(entries) is not None
    with pytest.raises(ValueError, match="not PSD within tolerance: lambda_min = -5.000e-08"):
        _cholesky_factor(entries)


def _assert_ladder_factors_in_place_and_restores_failures(monkeypatch):
    # success reuses the input's storage; every failure path hands it back bitwise as built
    built = _twin_covariance(5e-9)  # climbs three rungs
    expected = _chol_with_jitter_reference(built)
    factor = _cholesky_factor(built)
    assert np.shares_memory(factor, built)
    assert np.array_equal(factor, expected)
    assert not factor.flags.writeable
    # factored at jitter 1e-7, then rebuilt for eigvalsh, which rejects it
    rejected = _twin_covariance(5e-8)
    with pytest.raises(ValueError, match="not PSD"):
        _cholesky_factor(rejected)
    assert rejected.tobytes() == _twin_covariance(5e-8).tobytes()
    # a rung that leaves cov + jitter * I just short of PSD fails at the last
    # pivot of 310, over a partial factor of every earlier one
    cov = covariance_matrix(sparse_net(SparseSpec(64, 4), 300, substream(4, "test-ladder")))
    as_built = cov.copy()
    jitter = -float(np.linalg.eigvalsh(cov)[0]) - 1e-7
    with monkeypatch.context() as patch:
        patch.setattr(processes, "_JITTERS", (jitter,))
        with pytest.raises(NumericalError):
            _cholesky_factor(cov)
        assert cov.tobytes() == as_built.tobytes()
        # a failed rung is undone before the next one factors
        patch.setattr(processes, "_JITTERS", (jitter, 1e-10))
        factor = _cholesky_factor(cov)
    assert np.array_equal(factor, np.linalg.cholesky(as_built + 1e-10 * np.eye(len(cov))))
    assert np.shares_memory(factor, cov)


def test_ladder_factors_in_place_and_restores_the_input_on_failure(monkeypatch):
    if blas.openblas() is None:
        pytest.skip("numpy does not run on scipy-openblas")
    _assert_ladder_factors_in_place_and_restores_failures(monkeypatch)


def test_ladder_without_openblas_falls_back_to_numpy(monkeypatch):
    # the same contract and the same bits through numpy.linalg.cholesky
    monkeypatch.setattr(blas, "openblas", lambda: None)
    for make in _FACTOR_SETS:
        cov = covariance_matrix(make(substream(6, "test-cov-factor")))
        expected = _chol_with_jitter_reference(cov)
        factor = _cholesky_factor(cov)
        assert np.array_equal(factor, expected)
        assert np.shares_memory(factor, cov)
    _assert_ladder_factors_in_place_and_restores_failures(monkeypatch)


def test_eigvalsh_runs_only_when_the_ladder_cannot_certify(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape[0])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    _cholesky_factor(_twin_covariance(-0.1))  # factors at jitter 1e-10
    assert calls == []
    _cholesky_factor(_twin_covariance(5e-9))  # needs jitter 1e-8
    assert calls == [2]
    monkeypatch.setattr(processes, "CHOLESKY_MAX_POINTS", 1)
    _cholesky_factor(_twin_covariance(-0.1))  # too many points for the roundoff bound
    assert calls == [2, 2]


def test_cholesky_width_raises_when_every_rung_fails(monkeypatch):
    # a ladder that cannot factor a covariance eigvalsh accepts
    monkeypatch.setattr(processes, "_JITTERS", (-1.0,))
    rng = substream(4, "test-hw-ladder")
    pts = PointSet.uniform(2, 5, rng)
    with pytest.raises(NumericalError, match="cholesky failed for every jitter up to -1"):
        estimate_hemisphere_width_cholesky(pts, 10, rng)


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


def test_gaussian_width_of_dense_circle():
    # full circle: E sup - inf = 2 E |gamma|_2 = 2 sqrt(pi / 2)
    rng = substream(3, "test-gw-circle")
    est = estimate_gaussian_width(circle_points(400), 4_000, rng)
    target = 2.0 * math.sqrt(math.pi / 2.0)
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
    assert abs(est.value - target) <= 0.015


def _cholesky_width_reference(points, trials, rng):
    """The range of y @ factor^T, one product of the full operands: (value, std_error)."""
    z = rng.standard_normal((trials, len(points))) @ _cholesky_factor(covariance_matrix(points)).T
    sups = z.max(axis=1) - z.min(axis=1)
    return float(sups.mean()), float(sups.std(ddof=1) / math.sqrt(trials))


def _cholesky_width_whole(points, trials, rng):
    """One ``blas.trmm_upper`` over the whole (trials, k) normals at once: (value, std_error)."""
    upper = _cholesky_factor(covariance_matrix(points)).T
    z = rng.standard_normal((trials, len(points)))
    blas.trmm_upper(z, upper)
    sups = z.max(axis=1) - z.min(axis=1)
    return float(sups.mean()), float(sups.std(ddof=1) / math.sqrt(trials))


def _cholesky_width_pair(k: int):
    """The estimate at k points and 500 trials, and its full-product reference."""
    points = PointSet.uniform(7, k, substream(k, "test-hw-blocks"))
    rng, ref_rng = substream(k, "test-hw-draws"), substream(k, "test-hw-draws")
    est = estimate_hemisphere_width_cholesky(points, 500, rng)
    ref = _cholesky_width_reference(points, 500, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return (est.value, est.std_error), ref


@pytest.mark.parametrize("k", [1, 100, 256])
def test_cholesky_width_in_one_block_is_the_full_product(k):
    # 500 trials of normals fit one row block, and on these draws the
    # triangular product's row maxima and minima keep the bits of
    # y @ factor^T, though at k = 100 single entries differ in the last bit
    assert 500 <= processes.CHOLESKY_ROW_BYTES // (8 * k)
    est, ref = _cholesky_width_pair(k)
    assert est == ref  # bitwise, not approximately


@pytest.mark.parametrize("k", [257, 600])
def test_cholesky_width_in_blocks_matches_the_full_product(k, monkeypatch):
    # 64 rows of normals per block, so 500 trials take 8 row blocks.  Each row
    # of the triangular product comes from that row alone; at a k that is a
    # multiple of 8 its bits are also the same in any split of the rows, so
    # the blocks keep the bits of one product over all the normals.  At other
    # k OpenBLAS's dtrmm kernels round a row by its place among the rows of
    # one call, so only the full-product bound holds there
    monkeypatch.setattr(processes, "CHOLESKY_ROW_BYTES", 8 * k * 64)
    est, ref = _cholesky_width_pair(k)
    if k % 8 == 0:
        points = PointSet.uniform(7, k, substream(k, "test-hw-blocks"))
        assert est == _cholesky_width_whole(points, 500, substream(k, "test-hw-draws"))
    assert est == pytest.approx(ref, rel=0, abs=1e-12)


def test_cholesky_width_memory_holds_one_k_by_k_array():
    # the covariance, factored in its own storage, plus one row block of the
    # normals, multiplied in place; a second k^2 array (a copy of the entries,
    # a whole (trials, k) normals or product) would pass the budget
    k = 1000
    pts = PointSet.uniform(7, k, substream(20, "test-hw-mem"))
    rng = substream(20, "test-hw-mem-draws")
    rows = processes.CHOLESKY_ROW_BYTES // (8 * k)
    budget = 8 * k * k + 8 * rows * k + 2**20
    assert budget < 2 * 8 * k * k
    tracemalloc.start()
    try:
        estimate_hemisphere_width_cholesky(pts, k, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget


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
    """The sampler as first written, on per-trial streams: row t from child t
    of ``rng.spawn(trials)``, normalized rows, one product per trial."""
    out = np.empty((trials, len(points)))
    for t, child in enumerate(rng.spawn(trials)):
        g = child.standard_normal((m_inner, points.ambient))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        counts = (g @ points.points.T >= 0).sum(axis=0)
        out[t] = (counts - m_inner / 2.0) / math.sqrt(m_inner)
    return out


class _DrawSpy:
    """A generator stand-in that records the rows of every draw of each child it spawns."""

    def __init__(self, rng):
        self.rng = rng
        self.rows = []
        self.children = []

    def spawn(self, n):
        self.children += [_DrawSpy(child) for child in self.rng.spawn(n)]
        return self.children[-n:]

    def standard_normal(self, *args, **kwargs):
        g = self.rng.standard_normal(*args, **kwargs)
        self.rows.append(len(g))
        return g


def _assert_samples_match_reference(k: int, trials: int, seed: int) -> list[list[int]]:
    """Compare bitwise with the reference sampler; return each trial's draw rows."""
    pts = PointSet.uniform(3, k, substream(seed, "test-emp-ref-pts", k))
    spy = _DrawSpy(substream(seed, "test-emp-ref-draws", k))
    samples = hemisphere_empirical_samples(pts, 10_000, trials, spy)
    ref_rng = substream(seed, "test-emp-ref-draws", k)
    expected = _hemisphere_samples_reference(pts, 10_000, trials, ref_rng)
    assert samples.tobytes() == expected.tobytes()  # bitwise, not approximately
    # the caller's generator spawned as many children and drew nothing itself
    assert spy.rows == []
    assert spy.rng.spawn(1)[0].random() == ref_rng.spawn(1)[0].random()
    return [child.rows for child in spy.children]


@pytest.mark.parametrize("k, trials", [(1, 41), (7, 18), (40, 10), (100, 3)])
def test_empirical_samples_match_reference(k, trials):
    # at the default budget a whole trial of 10^4 directions is one piece
    rows = _assert_samples_match_reference(k, trials, seed=17)
    assert rows == [[10_000]] * trials


def test_empirical_samples_spawn_their_streams_in_blocks(monkeypatch):
    # 18 trials in blocks of 4 over 2 threads: the same children, spawned 4, 4, 4, 4, 2
    monkeypatch.setattr(processes, "_SPAWN_BLOCK", 4)
    sizes = []
    spawn = _DrawSpy.spawn
    monkeypatch.setattr(_DrawSpy, "spawn", lambda spy, n: sizes.append(n) or spawn(spy, n))
    rows = _assert_samples_match_reference(7, 18, seed=17)
    assert rows == [[10_000]] * 18
    assert sizes == [4, 4, 4, 4, 2]


@pytest.mark.parametrize("k", [1, 7, 40])
def test_empirical_samples_match_reference_in_pieces(k, monkeypatch):
    # a float64 draw buffer of 4 coordinates and a bool hit per point, per direction
    monkeypatch.setattr(processes, "HEMISPHERE_CHUNK_BYTES", 3_000 * (8 * 4 + k))
    rows = _assert_samples_match_reference(k, 3, seed=18)
    assert rows == [[3_000, 3_000, 3_000, 1_000]] * 3


def _sampler_args(seed: int, k: int = 40, trials: int = 40):
    pts = PointSet.uniform(3, k, substream(seed, "test-emp-thread-pts"))
    return pts, 10_000, trials, substream(seed, "test-emp-thread-draws")


def test_empirical_samples_raise_helper_errors():
    threads = []

    class Broken:
        def standard_normal(self, *args, **kwargs):
            threads.append(threading.current_thread())
            raise RuntimeError("draw failed")

    class Parent:
        def spawn(self, n):
            return [Broken() for _ in range(n)]

    pts = PointSet.uniform(3, 5, substream(20, "test-emp-broken"))
    with pytest.raises(RuntimeError, match="draw failed"):
        hemisphere_empirical_samples(pts, 10_000, 4, Parent())
    assert threads and threading.current_thread() not in threads


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("piece_rows", [None, 7])
def test_empirical_samples_do_not_depend_on_threads_or_pieces(threads, piece_rows, monkeypatch):
    # 5 trials split unevenly over 2 or 3 threads; 7-row pieces leave a 4-row tail
    args = _sampler_args(23, k=6, trials=5)
    expected = _hemisphere_samples_reference(*args[:3], substream(23, "test-emp-thread-draws"))
    monkeypatch.setattr(processes, "_SAMPLER_THREADS", threads)
    if piece_rows is not None:
        monkeypatch.setattr(processes, "HEMISPHERE_CHUNK_BYTES", piece_rows * (8 * 4 + 6))
    assert hemisphere_empirical_samples(*args).tobytes() == expected.tobytes()


def test_empirical_samples_leave_no_thread_behind():
    before = threading.active_count()
    hemisphere_empirical_samples(*_sampler_args(21))
    assert threading.active_count() == before


def test_empirical_samples_are_unchanged_inside_worker_threads(monkeypatch):
    # four samplers at once on two cores, each with its own sampler threads
    # and 160 pieces of at most 3000 directions, with frequent thread
    # switches: a buffer or stream shared between threads would change the counts
    expected = hemisphere_empirical_samples(*_sampler_args(22))
    monkeypatch.setattr(processes, "HEMISPHERE_CHUNK_BYTES", 3_000 * (8 * 4 + 40))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [
                pool.submit(hemisphere_empirical_samples, *_sampler_args(22)) for _ in range(4)
            ]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r.tobytes() == expected.tobytes() for r in results)


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


@pytest.mark.parametrize("trials", [1, 3])
def test_empirical_width_is_the_mean_sup_with_its_stderr(trials):
    pts = PointSet.uniform(3, 6, substream(9, "test-emp-width-pts"))
    est = estimate_hemisphere_width_empirical(pts, 10_000, trials, substream(9, "test-emp-width"))
    samples = hemisphere_empirical_samples(pts, 10_000, trials, substream(9, "test-emp-width"))
    sups = samples.max(axis=1) - samples.min(axis=1)
    assert est.value == float(sups.mean())
    if trials == 1:  # one trial has no spread to estimate
        assert math.isnan(est.std_error)
    else:
        assert est.std_error == float(sups.std(ddof=1) / math.sqrt(trials))


def test_cholesky_and_empirical_widths_agree():
    rng = substream(8, "test-hw-agree")
    pts = PointSet.uniform(3, 30, rng)
    chol = estimate_hemisphere_width_cholesky(pts, 20_000, rng)
    emp = estimate_hemisphere_width_empirical(pts, 10_000, 300, rng)
    joint = math.hypot(chol.std_error, emp.std_error)
    assert abs(chol.value - emp.value) <= 4.0 * joint


# --- minoration -----------------------------------------------------------------


def test_sudakov_singleton_bounds_are_zero():
    rng = substream(12, "test-sud-single")
    single = PointSet(np.array([[1.0, 0.0]]))
    gw = estimate_gaussian_width(single, 100, rng)
    hw = estimate_hemisphere_width_cholesky(single, 100, rng)
    report = sudakov_check(single, [0.1, 0.2], gw.value, hw.value)
    assert report.gaussian_ratios == (0.0, 0.0)
    assert report.hemisphere_ratios == (0.0, 0.0)
    assert report.chains == (math.inf, math.inf)  # both widths are 0


def test_sudakov_validation():
    rng = substream(13, "test-sud-val")
    pts = PointSet.uniform(2, 10, rng)
    width = estimate_gaussian_width(pts, 100, rng).value
    with pytest.raises(ValueError):
        sudakov_check(pts, [], width, width)
    with pytest.raises(ValueError):
        sudakov_check(pts, [0.1, 0.0], width, width)
    # NaN compares False with 0, so a d <= 0 check alone would let it through
    for deltas in ([math.nan], [0.1, math.nan], [math.inf], [-0.1]):
        with pytest.raises(ValueError, match="finite and positive"):
            sudakov_check(pts, deltas, width, width)
    for widths in ((math.nan, width), (width, math.nan), (math.inf, width), (width, -0.5)):
        with pytest.raises(ValueError, match="finite and >= 0"):
            sudakov_check(pts, [0.1], *widths)


def test_sudakov_zero_widths_give_infinite_ratios_and_chains():
    pts = PointSet.uniform(2, 10, substream(13, "test-sud-zero"))
    report = sudakov_check(pts, [0.1], 0.0, 0.0)
    assert report.gaussian_ratios == (math.inf,)
    assert report.hemisphere_ratios == (math.inf,)
    assert report.chains == (math.inf,)
    width = sudakov_check(pts, [0.1], 1.0, 1.0)
    mixed = sudakov_check(pts, [0.1], 0.0, 1.0)
    assert mixed.gaussian_ratios == (math.inf,)
    assert mixed.hemisphere_ratios == width.hemisphere_ratios


def test_sudakov_covering_numbers_monotone():
    rng = substream(14, "test-sud-mono")
    pts = PointSet.uniform(2, 120, rng)
    width = estimate_gaussian_width(pts, 2_000, rng).value
    deltas = (0.05, 0.1, 0.2, 0.4, 0.8)
    report = sudakov_check(pts, deltas, width, width)
    covers = [len(c) for c in first_uncovered_cover(pairwise_chord(pts.points), deltas)]
    assert all(covers[i] >= covers[i + 1] for i in range(len(covers) - 1))
    for i, d in enumerate(deltas):
        n = covers[i]
        expected = d * math.sqrt(math.log(n)) if n > 1 else 0.0
        assert math.isclose(report.gaussian_ratios[i], expected / width, rel_tol=1e-12)
