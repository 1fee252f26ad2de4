"""Eigenvalues of a symmetric tridiagonal matrix by LAPACK ``dstebz`` and ``dlarrk``.

Both routines are Sturm-count bisection (Barth, Martin & Wilkinson 1967),
with the floating-point safeguards that make the count reliable (Demmel,
Dhillon & Ren 1995).  They come from the OpenBLAS that every NumPy 2 wheel
bundles and loads (``libscipy_openblas64_``, 64-bit integers, symbols
prefixed ``scipy_``), bound here with ``ctypes``: no SciPy import and no
build step.  The library is located and both routines bound on the first
eigensolve and cached, so importing this module, or running anything that
needs no eigenvalue, never touches it.

``dstebz`` (RANGE='I') finds a run of eigenvalues by index from the
Gershgorin interval.  Its ABSTOL is a tiny positive number, so each
eigenvalue is bracketed to about 2 ulp of itself; ABSTOL <= 0 would make
LAPACK stop at ulp * ||T||, which on the oracle's matrices moves the lowest
eigenvalues by up to about 1e-9 relative.

``dlarrk`` refines one index inside an interval the caller supplies, which
saves most of the bisection when a good guess is at hand (a coarser grid's
eigenvalue).  It first widens that interval by about 2N ulp and never counts
at its ends, so its answer is certified only when the final interval
[W - WERR, W + WERR] lies strictly inside the caller's one: then both ends
were evaluated shifts, and their counts enclose the index.  Any other
outcome (the eigenvalue outside the guess, a neighbour's index, an empty or
zero-width guess) is redone by ``dstebz`` for that one index.  RELTOL is
2 eps, the relative stopping rule ``dstebz`` itself applies, so the two
routines agree to about 2 ulp.
"""

from __future__ import annotations

import ctypes
import functools
import math
from pathlib import Path

import numpy as np

_LIBRARY = "libscipy_openblas64_"
_SYMBOLS = ("scipy_dstebz_64_", "scipy_dlarrk_64_")
_ABSTOL = 1e-300
_RELTOL = 2.0 * np.finfo(float).eps
_SAFMIN = np.finfo(float).tiny

__all__ = ["LapackNotFound", "lowest_eigenvalues_tridiag"]


class LapackNotFound(OSError):
    """NumPy's bundled OpenBLAS, which provides ``dstebz`` and ``dlarrk``, cannot be loaded."""


def _library_dirs() -> list:
    """Where NumPy wheels keep their bundled libraries (Linux and Windows, macOS)."""
    root = Path(np.__file__).resolve().parent
    return [root.parent / "numpy.libs", root / ".dylibs"]


@functools.cache
def _lapack():
    """The bound ``(dstebz, dlarrk)``; NumPy has already mapped the library,
    so this only takes another handle on it."""
    dirs = _library_dirs()
    missing = _SYMBOLS
    for path in sorted(p for d in dirs for p in d.glob(_LIBRARY + "*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        missing = tuple(s for s in _SYMBOLS if not hasattr(lib, s))
        if missing:
            continue
        stebz, larrk = (getattr(lib, s) for s in _SYMBOLS)
        int_ref, dbl_ref = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
        ints, dbls = (np.ctypeslib.ndpointer(t, ndim=1, flags="C") for t in (np.int64, np.float64))
        stebz.argtypes = [
            ctypes.c_char_p, ctypes.c_char_p,  # RANGE, ORDER
            int_ref, dbl_ref, dbl_ref, int_ref, int_ref, dbl_ref,  # N, VL, VU, IL, IU, ABSTOL
            dbls, dbls,  # D, E
            int_ref, int_ref, dbls, ints, ints,  # M, NSPLIT, W, IBLOCK, ISPLIT
            dbls, ints, int_ref,  # WORK, IWORK, INFO
            ctypes.c_size_t, ctypes.c_size_t,  # hidden lengths of RANGE and ORDER
        ]
        larrk.argtypes = [
            int_ref, int_ref, dbl_ref, dbl_ref,  # N, IW, GL, GU
            dbls, dbls, dbl_ref, dbl_ref,  # D, E2, PIVMIN, RELTOL
            dbl_ref, dbl_ref, int_ref,  # W, WERR, INFO
        ]
        stebz.restype = larrk.restype = None
        return stebz, larrk
    searched = ", ".join(str(d) for d in dirs)
    raise LapackNotFound(
        f"LAPACK {' and '.join(missing)} not found: "
        f"no {_LIBRARY}* library in {searched} exports {'it' if len(missing) == 1 else 'them'}"
    )


def _prepare(diag, off, k, first):
    k, first = int(k), int(first)
    diag = np.ascontiguousarray(diag, dtype=float)
    off = np.ascontiguousarray(off, dtype=float)
    if diag.ndim != 1 or off.ndim != 1 or off.size != diag.size - 1:
        raise ValueError("need a length-N diagonal and a length-(N-1) off-diagonal")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise ValueError("matrix entries must be finite")
    if not 1 <= k <= diag.size:
        raise ValueError(f"k must lie in [1, {diag.size}], got {k}")
    if not 0 <= first < k:
        raise ValueError(f"first must lie in [0, {k - 1}], got {first}")
    return diag, off, k, first


def _stebz(stebz, diag, off, il, iu):
    """Eigenvalues il..iu (1-based) by ``dstebz`` RANGE='I'."""
    n = diag.size
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = np.empty(n, np.int64), np.empty(n, np.int64), np.empty(3 * n, np.int64)
    m, nsplit, info = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_int64()
    i64, dbl, ref = ctypes.c_int64, ctypes.c_double, ctypes.byref
    stebz(
        b"I", b"E", ref(i64(n)), ref(dbl(0.0)), ref(dbl(0.0)), ref(i64(il)), ref(i64(iu)),
        ref(dbl(_ABSTOL)), diag, off, ref(m), ref(nsplit), w, iblock, isplit, work, iwork,
        ref(info), 1, 1,
    )
    count = iu - il + 1
    if info.value != 0 or m.value != count:
        raise RuntimeError(
            f"dstebz failed: INFO={info.value}, found {m.value} of {count} eigenvalues"
        )
    return w[:count].copy()


def lowest_eigenvalues_tridiag(diag, off, k: int, first: int = 0, brackets=None) -> np.ndarray:
    """Eigenvalues first .. k-1 (0-based, so the k smallest when first = 0),
    ascending, each to about 2 ulp.

    ``brackets``, if given, holds one (lo, hi) guess per returned index; each
    index is then refined by ``dlarrk`` inside its guess and redone by
    ``dstebz`` when that answer cannot be certified.
    """
    diag, off, k, first = _prepare(diag, off, k, first)
    stebz, larrk = _lapack()
    if brackets is None:
        return _stebz(stebz, diag, off, first + 1, k)
    brackets = np.asarray(brackets, dtype=float).tolist()
    if len(brackets) != k - first:
        raise ValueError(f"need {k - first} brackets, got {len(brackets)}")
    e2 = off * off
    # dstebz's own pivot floor, so the two routines count alike
    pivmin = _SAFMIN * max(1.0, float(e2.max(initial=0.0)))
    i64, dbl, ref = ctypes.c_int64, ctypes.c_double, ctypes.byref
    w, werr, info = dbl(), dbl(), i64()
    n, piv, rtol = ref(i64(diag.size)), ref(dbl(pivmin)), ref(dbl(_RELTOL))
    out = np.empty(k - first)
    for j, (lo, hi) in enumerate(brackets):
        index = first + j + 1
        if math.isfinite(lo) and math.isfinite(hi) and lo < hi:
            larrk(n, ref(i64(index)), ref(dbl(lo)), ref(dbl(hi)), diag, e2, piv, rtol,
                  ref(w), ref(werr), ref(info))
            if info.value == 0 and lo < w.value - werr.value and w.value + werr.value < hi:
                out[j] = w.value
                continue
        out[j] = _stebz(stebz, diag, off, index, index)[0]
    return out
