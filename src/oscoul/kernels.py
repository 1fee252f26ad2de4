"""Lowest eigenvalues of a symmetric tridiagonal matrix by LAPACK ``dstebz``.

``dstebz`` is Sturm-count bisection (Barth, Martin & Wilkinson 1967), with
the floating-point safeguards that make the count reliable (Demmel, Dhillon
& Ren 1995).  The routine comes from the OpenBLAS that every NumPy 2 wheel
bundles and loads (``libscipy_openblas64_``, 64-bit integers, symbols
prefixed ``scipy_``), bound here with ``ctypes``: no SciPy import and no
build step.  The library is located and bound on the first eigensolve and
cached, so importing this module, or running anything that needs no
eigenvalue, never touches it.

ABSTOL is a tiny positive number, so each eigenvalue is bracketed to about
2 ulp of itself.  ABSTOL <= 0 would make LAPACK stop at ulp * ||T||, which on
the oracle's matrices moves the lowest eigenvalues by up to about 1e-9
relative.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

_LIBRARY = "libscipy_openblas64_"
_SYMBOL = "scipy_dstebz_64_"
_ABSTOL = 1e-300

__all__ = ["LapackNotFound", "lowest_eigenvalues_tridiag"]


class LapackNotFound(OSError):
    """NumPy's bundled OpenBLAS, which provides ``dstebz``, cannot be loaded."""


def _library_dirs() -> list:
    """Where NumPy wheels keep their bundled libraries (Linux and Windows, macOS)."""
    root = Path(np.__file__).resolve().parent
    return [root.parent / "numpy.libs", root / ".dylibs"]


@functools.cache
def _dstebz():
    """The bound ``dstebz``; NumPy has already mapped the library, so this
    only takes another handle on it."""
    dirs = _library_dirs()
    for path in sorted(p for d in dirs for p in d.glob(_LIBRARY + "*")):
        try:
            fn = getattr(ctypes.CDLL(str(path)), _SYMBOL)
        except (OSError, AttributeError):
            continue
        int_ref, dbl_ref = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
        ints, dbls = (np.ctypeslib.ndpointer(t, ndim=1, flags="C") for t in (np.int64, np.float64))
        fn.argtypes = [
            ctypes.c_char_p, ctypes.c_char_p,  # RANGE, ORDER
            int_ref, dbl_ref, dbl_ref, int_ref, int_ref, dbl_ref,  # N, VL, VU, IL, IU, ABSTOL
            dbls, dbls,  # D, E
            int_ref, int_ref, dbls, ints, ints,  # M, NSPLIT, W, IBLOCK, ISPLIT
            dbls, ints, int_ref,  # WORK, IWORK, INFO
            ctypes.c_size_t, ctypes.c_size_t,  # hidden lengths of RANGE and ORDER
        ]
        fn.restype = None
        return fn
    searched = ", ".join(str(d) for d in dirs)
    raise LapackNotFound(
        f"LAPACK {_SYMBOL} not found: no {_LIBRARY}* library exporting it in {searched}"
    )


def _prepare(diag, off, k):
    k = int(k)
    diag = np.ascontiguousarray(diag, dtype=float)
    off = np.ascontiguousarray(off, dtype=float)
    if diag.ndim != 1 or off.ndim != 1 or off.size != diag.size - 1:
        raise ValueError("need a length-N diagonal and a length-(N-1) off-diagonal")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise ValueError("matrix entries must be finite")
    if not 1 <= k <= diag.size:
        raise ValueError(f"k must lie in [1, {diag.size}], got {k}")
    return diag, off, k


def lowest_eigenvalues_tridiag(diag, off, k: int) -> np.ndarray:
    """The k smallest eigenvalues, ascending, each to about 2 ulp."""
    diag, off, k = _prepare(diag, off, k)
    stebz = _dstebz()
    n = diag.size
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = np.empty(n, np.int64), np.empty(n, np.int64), np.empty(3 * n, np.int64)
    m, nsplit, info = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_int64()
    i64, dbl, ref = ctypes.c_int64, ctypes.c_double, ctypes.byref
    stebz(
        b"I", b"E", ref(i64(n)), ref(dbl(0.0)), ref(dbl(0.0)), ref(i64(1)), ref(i64(k)),
        ref(dbl(_ABSTOL)), diag, off, ref(m), ref(nsplit), w, iblock, isplit, work, iwork,
        ref(info), 1, 1,
    )
    if info.value != 0 or m.value != k:
        raise RuntimeError(f"dstebz failed: INFO={info.value}, found {m.value} of {k} eigenvalues")
    return w[:k].copy()

