"""numpy's bundled OpenBLAS through ctypes: its wrappers and the kernels' numpy fallbacks."""

import os
import subprocess
import sys

import numpy as np
import pytest

from onebit import (
    PointSet,
    SparseSpec,
    blas,
    estimate_hemisphere_width_cholesky,
    metric_ratio_check,
    one_bit_rip,
    pairwise_chord,
    pairwise_geodesic,
    small_cells_check,
    sparse_net,
    substream,
)
from oracles import gaussian_ensemble

pytestmark = pytest.mark.skipif(
    blas.openblas() is None, reason="numpy does not run on scipy-openblas"
)


def test_blas_threads_are_the_count_openblas_started_with():
    code = "from onebit.blas import blas_threads; print(blas_threads())"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "1"
    assert 1 <= blas.blas_threads() <= max(1, os.cpu_count() or 1)


def test_pinned_threads_set_the_count_and_restore_the_callers_also_when_the_block_raises():
    caller = blas.blas_threads()
    with blas.pinned_threads(3):
        assert blas.blas_threads() == 3
        with blas.pinned_threads(1):  # pins nest
            assert blas.blas_threads() == 1
        assert blas.blas_threads() == 3
        with pytest.raises(RuntimeError), blas.pinned_threads(2):
            assert blas.blas_threads() == 2
            raise RuntimeError("a failing trial")
        assert blas.blas_threads() == 3
    assert blas.blas_threads() == caller


def test_pinned_threads_call_the_setter_only_on_a_change(monkeypatch):
    lib = blas.openblas()
    calls = []
    setter = lib.scipy_openblas_set_num_threads64_
    monkeypatch.setattr(
        lib, "scipy_openblas_set_num_threads64_", lambda n: (calls.append(n), setter(n))
    )
    caller = blas.blas_threads()
    with blas.pinned_threads(caller):
        pass
    assert calls == []
    other = 1 if caller != 1 else 2
    with blas.pinned_threads(other):
        pass
    assert calls == [other, caller]


def test_pinned_threads_without_openblas_do_nothing(monkeypatch):
    lib = blas.openblas()
    caller = blas.blas_threads()
    monkeypatch.setattr(blas, "openblas", lambda: None)
    with blas.pinned_threads(3 if caller != 3 else 1):
        assert blas.blas_threads() is None
        assert lib.scipy_openblas_get_num_threads64_() == caller
    assert lib.scipy_openblas_get_num_threads64_() == caller


def test_threads_for_takes_two_threads_from_parallel_points_on():
    k = blas.PARALLEL_POINTS
    assert [blas.threads_for(p) for p in (None, 2, k - 1, k, 10 * k)] == [1, 1, 1, 2, 2]
    assert f"1 thread below {k} net points and to 2 at or above" in blas.kernel_route()


def test_potrf_upper_takes_only_a_writeable_c_ordered_square_float64_matrix():
    spd = np.eye(3) + 0.5
    for bad in (spd.astype(np.float32), spd[:, :2].copy(), np.asfortranarray(spd[:, ::-1])):
        with pytest.raises(ValueError):
            blas.potrf_upper(bad)
    frozen = spd.copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError):
        blas.potrf_upper(frozen)
    lower = np.tril(spd, -1)
    assert blas.potrf_upper(spd)
    assert np.array_equal(np.triu(spd), np.linalg.cholesky(np.eye(3) + 0.5).T)
    assert np.array_equal(np.tril(spd, -1), lower)  # the strict lower triangle is not touched
    assert not blas.potrf_upper(-np.eye(2))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


def _bad_arrays(good: np.ndarray, writeable: bool) -> list[np.ndarray]:
    """Arrays one flaw away from good: dtype, order, stride, rank, and writeability if asked."""
    other = np.float32 if good.dtype == np.float64 else np.float64
    bad = [
        good.astype(other),
        np.asfortranarray(np.concatenate([good, good], axis=1)[:, ::2]),
        np.concatenate([good, good], axis=1)[:, ::2],
        good.reshape(-1),
    ]
    return bad + [_frozen(good)] if writeable else bad


def test_syrk_upper_takes_only_c_ordered_float64_arrays_of_matching_shapes():
    a = np.arange(12.0).reshape(4, 3)
    c = np.full((4, 4), -1.0)
    for bad in _bad_arrays(a, writeable=False):
        with pytest.raises(ValueError):
            blas.syrk_upper(bad, c)
    for bad in _bad_arrays(c, writeable=True) + [np.empty((4, 3)), np.empty((3, 3))]:
        with pytest.raises(ValueError):
            blas.syrk_upper(a, bad)
    with pytest.raises(ValueError):  # an output that overlaps the input
        blas.syrk_upper(c, c)
    assert (c == -1.0).all()  # no rejected call wrote
    blas.syrk_upper(a, c)
    assert np.array_equal(np.triu(c), np.triu(a @ a.T))
    assert (c[np.tril_indices(4, -1)] == -1.0).all()  # the lower triangle is not touched


def test_trmm_upper_takes_only_c_ordered_float64_arrays_of_matching_shapes():
    u = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
    b = np.arange(6.0).reshape(2, 3)
    for bad in _bad_arrays(b, writeable=True) + [np.zeros((2, 4))]:
        with pytest.raises(ValueError):
            blas.trmm_upper(bad, u)
    for bad in _bad_arrays(u, writeable=False) + [np.eye(4), np.eye(3, 4)]:
        with pytest.raises(ValueError):
            blas.trmm_upper(b, bad)
    square = np.eye(3)
    with pytest.raises(ValueError):  # in place over its own factor
        blas.trmm_upper(square, square)
    assert np.array_equal(b, np.arange(6.0).reshape(2, 3))
    expected = b @ u
    u[np.tril_indices(3, -1)] = np.nan  # the strict lower triangle is not read
    blas.trmm_upper(b, u)
    assert np.array_equal(b, expected)


def test_sgemm_nt_takes_only_c_ordered_float32_arrays_of_matching_shapes():
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    b = np.arange(12, dtype=np.float32).reshape(4, 3)
    c = np.ones((2, 4), dtype=np.float32)
    for bad in _bad_arrays(a, writeable=False) + [np.ones((2, 2), dtype=np.float32)]:
        with pytest.raises(ValueError):
            blas.sgemm_nt(bad, b, c, 1.0)
    for bad in _bad_arrays(b, writeable=False) + [np.ones((4, 2), dtype=np.float32)]:
        with pytest.raises(ValueError):
            blas.sgemm_nt(a, bad, c, 1.0)
    for bad in _bad_arrays(c, writeable=True) + [np.ones((4, 2), dtype=np.float32)]:
        with pytest.raises(ValueError):
            blas.sgemm_nt(a, b, bad, 1.0)
    shared = np.zeros(10, dtype=np.float32)
    with pytest.raises(ValueError):  # an output that overlaps an input
        blas.sgemm_nt(shared[:6].reshape(2, 3), b, shared[2:10].reshape(2, 4), 1.0)
    assert (c == 1.0).all()
    blas.sgemm_nt(a, b, c, 1.0)
    assert np.array_equal(c, a @ b.T + 1.0)
    out = np.full((2, 2), np.nan, dtype=np.float32)  # at beta 0 the old contents are not read
    blas.sgemm_nt(a, a, out, 0.0)
    assert np.array_equal(out, a @ a.T)


def test_kernels_without_openblas_fall_back_to_numpy(monkeypatch):
    # the pair matrices and the agreement counts keep their bits; the width
    # takes the full product, so it keeps them only to within rounding
    net = sparse_net(SparseSpec(64, 4), 290, substream(27, "test-fallback"))
    ens = gaussian_ensemble(64, 1100, seed=27)

    def kernels():
        return (
            pairwise_geodesic(net.points),
            pairwise_chord(net.points),
            one_bit_rip(net, ens, 0.2),
            small_cells_check(net, ens, 0.2),
            metric_ratio_check(PointSet(net.points[:20]), ens, 1e-3),
            estimate_hemisphere_width_cholesky(net, 500, substream(27, "test-fallback-w")),
        )

    *exact, width = kernels()
    monkeypatch.setattr(blas, "openblas", lambda: None)
    assert blas.kernel_route().startswith("numpy fallback")
    *fallback_exact, fallback_width = kernels()
    for ours, theirs in zip(exact, fallback_exact):
        if isinstance(ours, np.ndarray):
            assert np.array_equal(ours, theirs)
        else:
            assert ours == theirs
    assert fallback_width.value == pytest.approx(width.value, rel=0, abs=1e-12)
    assert fallback_width.std_error == pytest.approx(width.std_error, rel=0, abs=1e-12)


def test_wrappers_without_openblas_check_the_same_arrays_and_form_numpy_products(monkeypatch):
    monkeypatch.setattr(blas, "openblas", lambda: None)
    a = np.arange(12.0).reshape(4, 3)
    c = np.empty((4, 4))
    blas.syrk_upper(a, c)
    assert np.array_equal(c, a @ a.T)
    u = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
    b = a.copy()
    blas.trmm_upper(b, u)
    assert np.array_equal(b, a @ u)
    f = a.astype(np.float32)
    acc = np.ones((4, 4), dtype=np.float32)
    blas.sgemm_nt(f, f, acc, 1.0)
    assert np.array_equal(acc, f @ f.T + 1.0)
    blas.sgemm_nt(f, f, acc, 0.0)
    assert np.array_equal(acc, f @ f.T)
    spd = np.eye(3) + 0.5
    assert blas.potrf_upper(spd)
    assert np.array_equal(np.triu(spd), np.linalg.cholesky(np.eye(3) + 0.5).T)
    assert not blas.potrf_upper(-np.eye(2))
    with pytest.raises(ValueError):
        blas.syrk_upper(f, c)
    with pytest.raises(ValueError):
        blas.trmm_upper(np.asfortranarray(b), u)
    with pytest.raises(ValueError):
        blas.sgemm_nt(f, f, acc[:, :3], 1.0)
    with pytest.raises(ValueError):
        blas.potrf_upper(np.eye(3)[:, :2])
