"""Eigenvalues of a symmetric tridiagonal matrix by LAPACK ``dlarrk``.

``dlarrk`` finds one eigenvalue, by its index, with Sturm-count bisection
(Barth, Martin & Wilkinson 1967) inside an interval the caller supplies, with
the floating-point safeguards that make the count reliable (Demmel, Dhillon &
Ren 1995).  It comes from the OpenBLAS that every NumPy 2 wheel bundles and
loads (``libscipy_openblas64_``, 64-bit integers, symbols prefixed
``scipy_``), bound here with ``ctypes``: no build step.  The library is
located and the routine bound on the first eigensolve and cached, so
importing this module, or running anything that needs no eigenvalue, never
touches it.  SciPy is not used: it exposes no ``dlarrk``, and importing
``scipy.linalg.lapack`` alone takes about 0.3 s and doubles the memory of a
small process.

Each index is bisected inside the caller's guesses when they are given,
as brackets of shape (k - first, g, 2), g (lo, hi) guesses per index,
tried in order (intervals around a predicted eigenvalue, such as the
oracle's closed form or its h^2 extrapolations, narrowest first: each
halving the guess saves is one Sturm count of N rows), and otherwise, or
when none certifies it, inside the Gershgorin interval, widened as
``dstebz`` widens it, by
2.1 (N eps ||T|| + 2 pivmin), so that rounding cannot put an eigenvalue
outside it.  ``dlarrk`` widens the interval it is given by about 2N ulp more
and never counts at its ends, so an answer is certified only when its final
interval [W - WERR, W + WERR] lies strictly inside the interval given: then
both ends were evaluated shifts, and their counts enclose the index.  An
index not certified inside a guess (the eigenvalue outside it, a
neighbour's index, an empty or zero-width guess) is bisected again from the
next guess and then from the Gershgorin interval, so a guess can cost time
but never the answer; one not certified there either raises RuntimeError.
That interval is formed at most once a call: PIVMIN and a bound on it come
from two reductions, max |d| and max e^2, and the interval itself only when
an index needs it or when that bound comes within a factor 2 of the range
limit, ±2^1022, so that the interval decides the range check.
PIVMIN is the pivot floor of ``dstebz``.  RELTOL, the relative width at
which bisection stops, is 2 eps by default, so each eigenvalue is resolved
to about 2 ulp of itself; a caller may ask for a coarser one (the oracle
passes N eps on N rows, below the round-off spread of its eigenvalues), and
each halving it skips saves one Sturm count.  LAPACK's default absolute
tolerance, ulp * ||T||, would move the oracle's lowest eigenvalues by up to
about 1e-9 relative.
"""

from __future__ import annotations

import ctypes
import functools
import math
from pathlib import Path

import numpy as np

_LIBRARY = "libscipy_openblas64_"
_SYMBOL = "scipy_dlarrk_64_"
_EPS = float(np.finfo(float).eps)  # Python floats: their arithmetic never warns
_SAFMIN = float(np.finfo(float).tiny)
_LIMIT = 2.0**1022  # dlarrk bisects at (left + right) / 2, which must not overflow
_RELTOL = 2.0 * _EPS  # the default relative width of a bisected eigenvalue

__all__ = ["LapackNotFound", "lowest_eigenvalues_tridiag"]


class LapackNotFound(OSError):
    """NumPy's bundled OpenBLAS, which provides ``dlarrk``, cannot be loaded."""


def _library_dirs() -> list:
    """Where NumPy wheels keep their bundled libraries (Linux and Windows, macOS)."""
    root = Path(np.__file__).resolve().parent
    return [root.parent / "numpy.libs", root / ".dylibs"]


@functools.cache
def _lapack():
    """The bound ``dlarrk``; NumPy has already mapped the library, so this
    only takes another handle on it."""
    dirs = _library_dirs()
    for path in sorted(p for d in dirs for p in d.glob(_LIBRARY + "*")):
        try:
            larrk = getattr(ctypes.CDLL(str(path)), _SYMBOL)
        except (OSError, AttributeError):
            continue
        int_ref, dbl_ref = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
        data = ctypes.c_void_p  # the raw data pointer of a contiguous float64 array
        larrk.argtypes = [
            int_ref, int_ref, dbl_ref, dbl_ref,  # N, IW, GL, GU
            data, data, dbl_ref, dbl_ref,  # D, E2, PIVMIN, RELTOL
            dbl_ref, dbl_ref, int_ref,  # W, WERR, INFO
        ]
        larrk.restype = None
        return larrk
    searched = ", ".join(str(d) for d in dirs)
    raise LapackNotFound(
        f"LAPACK {_SYMBOL} not found: no {_LIBRARY}* library in {searched} exports it"
    )


def _prepare(diag, off, k, first):
    """The contiguous float (diag, off), off^2, max |diag|, max off^2 and
    (k, first) of one call, or ValueError."""
    k, first = int(k), int(first)
    diag = np.ascontiguousarray(diag, dtype=float)
    off = np.ascontiguousarray(off, dtype=float)
    if diag.ndim != 1 or off.ndim != 1 or off.size != diag.size - 1:
        raise ValueError("need a length-N diagonal and a length-(N-1) off-diagonal")
    with np.errstate(over="ignore"):
        e2 = off * off
    dmax, e2max = float(np.abs(diag).max()), float(e2.max(initial=0.0))
    # a NaN or an infinity makes its reduction non-finite, but so does the
    # square of a finite entry above about 1.3e154: that one is checked in full
    if not (math.isfinite(dmax) and (e2max < math.inf or np.isfinite(off).all())):
        raise ValueError("matrix entries must be finite")
    if not 1 <= k <= diag.size:
        raise ValueError(f"k must lie in [1, {diag.size}], got {k}")
    if not 0 <= first < k:
        raise ValueError(f"first must lie in [0, {k - 1}], got {first}")
    return diag, off, e2, dmax, e2max, k, first


def _widened_gershgorin(diag, off, pivmin):
    """dstebz's Gershgorin interval, widened by 2.1 (N eps ||T|| + 2 pivmin);
    an off-diagonal square that overflows makes pivmin, and so the interval,
    infinite."""
    with np.errstate(over="ignore"):
        radius = np.zeros(diag.size)
        radius[:-1] = np.abs(off)
        radius[1:] += np.abs(off)
        gl, gu = float(np.min(diag - radius)), float(np.max(diag + radius))
        pad = 2.1 * (diag.size * _EPS * max(abs(gl), abs(gu)) + 2.0 * pivmin)
        return gl - pad, gu + pad


def _guesses(brackets, count) -> list:
    """``brackets`` as ``count`` lists of (lo, hi) float pairs, or ValueError
    unless its shape is (count, g, 2)."""
    guesses = np.asarray(brackets, dtype=float)
    if guesses.ndim != 3 or len(guesses) != count or guesses.shape[-1] != 2:
        raise ValueError(f"need {count} brackets of (lo, hi) guesses, got shape {guesses.shape}")
    return guesses.tolist()


def lowest_eigenvalues_tridiag(
    diag, off, k: int, first: int = 0, brackets=None, reltol: float = _RELTOL
) -> np.ndarray:
    """Eigenvalues first .. k-1 (0-based, so the k smallest when first = 0),
    ascending, each bisected to a relative width ``reltol`` (default 2 eps,
    about 2 ulp).

    ``brackets``, if given, holds g (lo, hi) guesses for each returned index,
    shape (k - first, g, 2).  An index's guesses are tried in order,
    narrowest first as the oracle grades them, and an index certified inside
    none of them is bisected from the Gershgorin interval.  A ``reltol``
    that is not finite or lies below 2 eps (below eps ``dlarrk`` runs out of
    steps), and a matrix whose widened Gershgorin interval does not fit
    inside ±2^1022 (|off| above about 1.3e154 among them), raise ValueError
    before any LAPACK call.

    pivmin and a bound on the interval come from two reductions, max |diag|
    and max off^2: the interval lies inside max |diag| + 2 max |off|, widened.
    The interval itself is formed at most once a call: when that bound, with
    a factor 2 to spare for rounding, does not clear ±2^1022 (the interval
    then decides, as it always has), and when an index needs it, which is
    every index without brackets and only a missed guess with them.
    """
    diag, off, e2, dmax, e2max, k, first = _prepare(diag, off, k, first)
    reltol = float(reltol)
    if not _RELTOL <= reltol < math.inf:
        raise ValueError(f"reltol must be finite and >= 2 eps ({_RELTOL:.3e}), got {reltol}")
    pivmin = _SAFMIN * max(1.0, e2max)  # dstebz's pivot floor
    reach = dmax + 2.0 * math.sqrt(e2max)  # bounds |gl| and |gu| of the interval
    gershgorin = None
    if not 2.0 * (reach + 2.1 * (diag.size * _EPS * reach + 2.0 * pivmin)) < _LIMIT:
        gershgorin = _widened_gershgorin(diag, off, pivmin)
        if not -_LIMIT < gershgorin[0] < gershgorin[1] < _LIMIT:
            raise ValueError(
                "matrix entries out of range: the widened Gershgorin interval "
                f"[{gershgorin[0]:.3e}, {gershgorin[1]:.3e}] must lie inside ±{_LIMIT:.3e}"
            )
    larrk = _lapack()
    rows = [()] * (k - first) if brackets is None else _guesses(brackets, k - first)
    i64, dbl, ref = ctypes.c_int64, ctypes.c_double, ctypes.byref
    index, lo, hi, w, werr, info = i64(), dbl(), dbl(), dbl(), dbl(), i64()
    args = (
        ref(i64(diag.size)), ref(index), ref(lo), ref(hi), diag.ctypes.data, e2.ctypes.data,
        ref(dbl(pivmin)), ref(dbl(reltol)), ref(w), ref(werr), ref(info),
    )

    def certified(a, b) -> bool:
        """Whether ``dlarrk`` certifies the index strictly inside (a, b)."""
        if not -math.inf < a < b < math.inf:  # dlarrk needs a finite, non-empty interval
            return False
        lo.value, hi.value = a, b
        larrk(*args)
        return info.value == 0 and a < w.value - werr.value and w.value + werr.value < b

    out = np.empty(k - first)
    for j, row in enumerate(rows):
        index.value = first + j + 1
        if not any(certified(a, b) for a, b in row):
            if gershgorin is None:
                gershgorin = _widened_gershgorin(diag, off, pivmin)
            if not certified(*gershgorin):
                raise RuntimeError(
                    f"dlarrk could not certify eigenvalue {index.value} of {diag.size}"
                )
        out[j] = w.value
    return out
