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
_EPS = np.finfo(float).eps
_SAFMIN = np.finfo(float).tiny
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
        dbls = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C")
        larrk.argtypes = [
            int_ref, int_ref, dbl_ref, dbl_ref,  # N, IW, GL, GU
            dbls, dbls, dbl_ref, dbl_ref,  # D, E2, PIVMIN, RELTOL
            dbl_ref, dbl_ref, int_ref,  # W, WERR, INFO
        ]
        larrk.restype = None
        return larrk
    searched = ", ".join(str(d) for d in dirs)
    raise LapackNotFound(
        f"LAPACK {_SYMBOL} not found: no {_LIBRARY}* library in {searched} exports it"
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
    """
    diag, off, k, first = _prepare(diag, off, k, first)
    reltol = float(reltol)
    if not _RELTOL <= reltol < math.inf:
        raise ValueError(f"reltol must be finite and >= 2 eps ({_RELTOL:.3e}), got {reltol}")
    with np.errstate(over="ignore"):
        e2 = off * off
        # dstebz's pivot floor and widened Gershgorin interval
        pivmin = _SAFMIN * max(1.0, float(e2.max(initial=0.0)))
        radius = np.zeros(diag.size)
        radius[:-1] = np.abs(off)
        radius[1:] += np.abs(off)
        gl, gu = float(np.min(diag - radius)), float(np.max(diag + radius))
        pad = 2.1 * (diag.size * _EPS * max(abs(gl), abs(gu)) + 2.0 * pivmin)
        gershgorin = (gl - pad, gu + pad)
    # an off-diagonal square that overflows makes pivmin, and so the interval, infinite
    if not -_LIMIT < gershgorin[0] < gershgorin[1] < _LIMIT:
        raise ValueError(
            "matrix entries out of range: the widened Gershgorin interval "
            f"[{gershgorin[0]:.3e}, {gershgorin[1]:.3e}] must lie inside ±{_LIMIT:.3e}"
        )
    larrk = _lapack()
    if brackets is None:
        tries = [[gershgorin]] * (k - first)
    else:
        guesses = np.asarray(brackets, dtype=float)
        if guesses.ndim != 3 or len(guesses) != k - first or guesses.shape[-1] != 2:
            raise ValueError(
                f"need {k - first} brackets of (lo, hi) guesses, got shape {guesses.shape}"
            )
        tries = [[*g, gershgorin] for g in guesses.tolist()]
    i64, dbl, ref = ctypes.c_int64, ctypes.c_double, ctypes.byref
    w, werr, info = dbl(), dbl(), i64()
    n, piv, rtol = ref(i64(diag.size)), ref(dbl(pivmin)), ref(dbl(reltol))
    out = np.empty(k - first)
    for j, intervals in enumerate(tries):
        index = first + j + 1
        for lo, hi in intervals:
            if not -math.inf < lo < hi < math.inf:  # dlarrk needs a finite, non-empty interval
                continue
            larrk(n, ref(i64(index)), ref(dbl(lo)), ref(dbl(hi)), diag, e2, piv, rtol,
                  ref(w), ref(werr), ref(info))
            if info.value == 0 and lo < w.value - werr.value and w.value + werr.value < hi:
                out[j] = w.value
                break
        else:
            raise RuntimeError(f"dlarrk could not certify eigenvalue {index} of {diag.size}")
    return out
