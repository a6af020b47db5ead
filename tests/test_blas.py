"""numpy's bundled OpenBLAS through ctypes: the thread count and the in-place factor."""

import os
import subprocess
import sys

import numpy as np
import pytest

from onebit import blas

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
