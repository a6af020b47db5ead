"""numpy's bundled OpenBLAS, called through ctypes.

numpy's wheels link a scipy-openblas build, whose symbols carry a
``scipy_`` prefix and a ``64_`` suffix for its 64-bit integers.  The
library is already loaded by numpy's core extension, so its symbols are
looked up through that extension's handle: this finds the very library
numpy's own linear algebra runs on, whatever its file is called.  Under a
numpy that links another BLAS, :func:`openblas` returns None and each
wrapper takes its numpy fallback, so callers have one code path.

Fortran reads a C-ordered matrix as its transpose, so each wrapper states
its product on the C-ordered arrays it takes and makes the transposed
column-major call.  A wrong dtype, stride or shape handed to Fortran
corrupts memory or kills the interpreter, so every wrapper checks its
arrays first, on either route, and raises ValueError.

The module also owns OpenBLAS's process-wide thread count:
:func:`pinned_threads` sets it for a block and gives the caller's count
back, and :func:`threads_for` is the count an experiment's net size gets.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib

import numpy as np

_INT = ctypes.c_int64
_P_INT = ctypes.POINTER(_INT)
_CHAR = ctypes.c_char_p
_PTR = ctypes.c_void_p
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_FLOAT = ctypes.POINTER(ctypes.c_float)
# argument types of each routine, in Fortran order, the hidden string lengths left out
_SIGNATURES = (
    ("scipy_dpotrf_64_", (_CHAR, _P_INT, _PTR, _P_INT, _P_INT)),
    (
        "scipy_dsyrk_64_",
        (_CHAR, _CHAR, _P_INT, _P_INT, _DOUBLE, _PTR, _P_INT, _DOUBLE, _PTR, _P_INT),
    ),
    (
        "scipy_dtrmm_64_",
        (_CHAR, _CHAR, _CHAR, _CHAR, _P_INT, _P_INT, _DOUBLE, _PTR, _P_INT, _PTR, _P_INT),
    ),
    (
        "scipy_sgemm_64_",
        (
            _CHAR, _CHAR, _P_INT, _P_INT, _P_INT, _FLOAT, _PTR, _P_INT, _PTR, _P_INT, _FLOAT,
            _PTR, _P_INT,
        ),
    ),
)


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
        routines = [(getattr(lib, name), argtypes) for name, argtypes in _SIGNATURES]
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    for routine, argtypes in routines:
        routine.argtypes = argtypes
        routine.restype = None
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    return lib


def blas_threads() -> int | None:
    """The thread count OpenBLAS runs with, as it reports it; None without OpenBLAS."""
    lib = openblas()
    return None if lib is None else int(lib.scipy_openblas_get_num_threads64_())


# Nets of at least this many points run on two BLAS threads, smaller ones on
# one: a second thread is kept where it cuts wall time by about a fifth.
# Wall seconds of the 8 wide-net experiments (1 trial, medians of 4
# alternations of best-of-3) at 1 -> 2 threads on a 2-core VM:
#   points   200: 0.055 -> 0.050    500: 0.145 -> 0.133    750: 0.248 -> 0.226
#   points  1000: 0.366 -> 0.288   1500: 0.751 -> 0.617   2000: 1.30  -> 0.96
# and the CPU seconds about double at 2 threads at every size.
PARALLEL_POINTS = 1000


def threads_for(points: int | None) -> int:
    """The BLAS thread count of a run over a net of ``points`` points (None: no net)."""
    return 2 if points is not None and points >= PARALLEL_POINTS else 1


@contextlib.contextmanager
def pinned_threads(count: int):
    """Run the block with OpenBLAS at ``count`` threads, then restore the caller's count.

    The count is process-wide, so pin outside any pool of threads that
    call BLAS.  The setter runs only when the count differs from the
    current one, on entry and on exit, and the caller's count comes back
    also when the block raises; pins nest.  Without :func:`openblas` this
    does nothing.
    """
    lib = openblas()
    if lib is None:
        yield
        return
    caller = blas_threads()
    if caller != count:
        lib.scipy_openblas_set_num_threads64_(count)
    try:
        yield
    finally:
        if blas_threads() != caller:
            lib.scipy_openblas_set_num_threads64_(caller)


def kernel_route() -> str:
    """Where the Gram, Cholesky and agreement kernels run, and on how many BLAS threads.

    The Cholesky width's product sums in another order in numpy's
    fallback, so its bits depend on this route.
    """
    threads = blas_threads()
    if threads is None:
        return "numpy fallback (numpy does not run on scipy-openblas)"
    return (
        f"scipy-openblas through ctypes; experiments pinned to 1 thread below "
        f"{PARALLEL_POINTS} net points and to 2 at or above; {threads} outside them"
    )


def _check(name: str, a, dtype, writeable: bool = False) -> tuple[int, int]:
    """Shape of a 2-d, C-contiguous, aligned array of dtype (writeable if asked); else ValueError."""
    if not isinstance(a, np.ndarray) or a.dtype != dtype or a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d {np.dtype(dtype).name} array")
    if not (a.flags.c_contiguous and a.flags.aligned):
        raise ValueError(f"{name} must be C-contiguous and aligned")
    if writeable and not a.flags.writeable:
        raise ValueError(f"{name} must be writeable")
    return a.shape


def _check_apart(out: np.ndarray, *inputs: np.ndarray):
    if any(np.may_share_memory(out, a) for a in inputs):
        raise ValueError("the output must not overlap an input")


def _ints(*values: int):
    return [ctypes.byref(_INT(v)) for v in values]


def potrf_upper(a: np.ndarray) -> bool:
    """Cholesky factor a = U^T U of a symmetric matrix, in a's own storage.

    ``a`` must be a writeable, C-contiguous, square float64 array.  LAPACK's
    dpotrf runs with uplo 'L' on its column-major view, which is a's upper
    triangle, so that triangle is overwritten with U (bitwise the transpose
    of ``numpy.linalg.cholesky``'s factor) and the strict lower triangle is
    neither read nor written.  Returns False when a leading minor is not
    positive definite; the upper triangle then holds a partial factor.
    Without :func:`openblas`, ``numpy.linalg.cholesky`` factors a from its
    lower triangle and the transpose of its factor is written into the
    upper triangle; a is left as it was when that fails.
    """
    n, cols = _check("a", a, np.float64, writeable=True)
    if n != cols:
        raise ValueError("need a square matrix")
    lib = openblas()
    if lib is None:
        try:
            lower = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return False
        for row in range(n):
            a[row, row:] = lower[row:, row]
        return True
    info = _INT(0)
    lib.scipy_dpotrf_64_(b"L", *_ints(n), a.ctypes.data, *_ints(max(1, n)), ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"dpotrf rejected argument {-info.value}")
    return info.value == 0


def syrk_upper(a: np.ndarray, c: np.ndarray) -> None:
    """Write the Gram a a^T of the rows of a into the upper triangle of c, diagonal included.

    ``a`` is a C-contiguous (k, n) float64 array and ``c`` a writeable,
    C-contiguous (k, k) float64 array apart from it.  This is the dsyrk call
    numpy's ``a @ a.T`` makes (row-major, upper, no transpose), so the
    triangle is bitwise numpy's, and c's strict lower triangle is neither
    read nor written.  Without :func:`openblas`, numpy's ``a @ a.T`` fills
    the whole of c.
    """
    k, n = _check("a", a, np.float64)
    if _check("c", c, np.float64, writeable=True) != (k, k):
        raise ValueError(f"c must have shape {(k, k)}, got {c.shape}")
    _check_apart(c, a)
    lib = openblas()
    if lib is None:
        np.matmul(a, a.T, out=c)
        return
    one, zero = ctypes.c_double(1.0), ctypes.c_double(0.0)
    lib.scipy_dsyrk_64_(
        b"L", b"T", *_ints(k, n), ctypes.byref(one), a.ctypes.data, *_ints(max(1, n)),
        ctypes.byref(zero), c.ctypes.data, *_ints(max(1, k)),
    )


def trmm_upper(b: np.ndarray, u: np.ndarray) -> None:
    """Overwrite b with b @ u for an upper-triangular u.

    ``b`` is a writeable, C-contiguous (r, k) float64 array and ``u`` a
    C-contiguous (k, k) float64 array apart from it.  dtrmm reads only u's
    upper triangle, diagonal included, and forms each row of the product
    from that row of b alone.  Without :func:`openblas`, numpy's full
    ``b @ u`` reads all of u and sums in another order.
    """
    r, k = _check("b", b, np.float64, writeable=True)
    if _check("u", u, np.float64) != (k, k):
        raise ValueError(f"u must have shape {(k, k)}, got {u.shape}")
    _check_apart(b, u)
    lib = openblas()
    if lib is None:
        b[...] = b @ u
        return
    one = ctypes.c_double(1.0)
    lib.scipy_dtrmm_64_(
        b"L", b"L", b"N", b"N", *_ints(k, r), ctypes.byref(one), u.ctypes.data,
        *_ints(max(1, k)), b.ctypes.data, *_ints(max(1, k)),
    )


def sgemm_nt(a: np.ndarray, b: np.ndarray, c: np.ndarray, beta: float) -> None:
    """Overwrite c with a @ b.T + beta * c, in float32.

    ``a`` (r, p) and ``b`` (q, p) are C-contiguous float32 arrays, which may
    share memory, and ``c`` a writeable, C-contiguous (r, q) float32 array
    apart from both.  At beta 0 the old contents of c are not read.  Without
    :func:`openblas`, numpy forms the product and adds it.
    """
    r, p = _check("a", a, np.float32)
    q, p_b = _check("b", b, np.float32)
    if p_b != p:
        raise ValueError(f"a and b need the same number of columns, got {p} and {p_b}")
    if _check("c", c, np.float32, writeable=True) != (r, q):
        raise ValueError(f"c must have shape {(r, q)}, got {c.shape}")
    _check_apart(c, a, b)
    lib = openblas()
    if lib is None:
        if beta == 0:
            np.matmul(a, b.T, out=c)
        else:
            c *= np.float32(beta)
            c += a @ b.T
        return
    one, scale = ctypes.c_float(1.0), ctypes.c_float(beta)
    lib.scipy_sgemm_64_(
        b"T", b"N", *_ints(q, r, p), ctypes.byref(one), b.ctypes.data, *_ints(max(1, p)),
        a.ctypes.data, *_ints(max(1, p)), ctypes.byref(scale), c.ctypes.data,
        *_ints(max(1, q)),
    )
