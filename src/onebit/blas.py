"""numpy's bundled OpenBLAS, called through ctypes.

numpy's wheels link a scipy-openblas build, whose symbols carry a
``scipy_`` prefix and a ``64_`` suffix for its 64-bit integers.  The
library is already loaded by numpy's core extension, so its symbols are
looked up through that extension's handle: this finds the very library
numpy's own linear algebra runs on, whatever its file is called.  Under a
numpy that links another BLAS, :func:`openblas` returns None and callers
take their numpy fallback.
"""

from __future__ import annotations

import ctypes
import functools
import importlib

import numpy as np

_INT = ctypes.c_int64


@functools.cache
def openblas() -> ctypes.CDLL | None:
    """The scipy-openblas library numpy runs on, or None when numpy links another BLAS."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            core = importlib.import_module(name)
            break
        except ImportError:
            continue
    else:
        return None
    try:
        lib = ctypes.CDLL(core.__file__)
        potrf = lib.scipy_dpotrf_64_
        threads = lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    potrf.argtypes = [
        ctypes.c_char_p, ctypes.POINTER(_INT), ctypes.c_void_p,
        ctypes.POINTER(_INT), ctypes.POINTER(_INT),
    ]
    potrf.restype = None
    threads.argtypes = []
    threads.restype = ctypes.c_int
    return lib


def blas_threads() -> int | None:
    """The thread count OpenBLAS runs with, as it reports it; None without OpenBLAS."""
    lib = openblas()
    return None if lib is None else int(lib.scipy_openblas_get_num_threads64_())


def potrf_upper(a: np.ndarray) -> bool:
    """Cholesky factor a = U^T U of a symmetric matrix, in a's own storage.

    ``a`` must be a writeable, C-contiguous, square float64 array.  LAPACK's
    dpotrf runs with uplo 'L' on its column-major view, which is a's upper
    triangle, so that triangle is overwritten with U (bitwise the transpose
    of ``numpy.linalg.cholesky``'s factor) and the strict lower triangle is
    neither read nor written.  Returns False when a leading minor is not
    positive definite; the upper triangle then holds a partial factor.
    Needs :func:`openblas`.
    """
    lib = openblas()
    if lib is None:
        raise RuntimeError("numpy does not run on scipy-openblas")
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square float64 matrix")
    if not (a.flags.c_contiguous and a.flags.writeable):
        raise ValueError("need a writeable C-contiguous matrix")
    n = _INT(a.shape[0])
    info = _INT(0)
    lib.scipy_dpotrf_64_(b"L", ctypes.byref(n), a.ctypes.data, ctypes.byref(n), ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"dpotrf rejected argument {-info.value}")
    return info.value == 0
