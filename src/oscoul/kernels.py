"""Symmetric-tridiagonal eigenvalue extraction by Sturm-count multisection.

The negative-pivot count of the shifted LDL^T factorization equals the number
of eigenvalues below the shift.  Each sweep places ``_SPLIT`` evenly spaced
shifts inside every distinct active bracket and counts them all in one pass
over the N rows (Lo, Philippe & Sameh, SIAM J. Sci. Stat. Comput. 8, 1987).
A pass costs about the same for one shift as for a few hundred, since the
per-row Python overhead dominates, so a sweep narrows each bracket 64-fold
where bisection halves it.  This count sweep is the hot loop of the oracle.
"""

from __future__ import annotations

import numpy as np

_MAX_SWEEPS = 256
_SPLIT = 63  # shifts per bracket per sweep
_FRACTIONS = np.arange(1, _SPLIT + 1) / (_SPLIT + 1)

__all__ = ["lowest_eigenvalues_tridiag"]


def _count_numpy(diag, off2, shifts, pivmin):
    q = diag[0] - shifts
    cnt = (q < 0.0).astype(np.int64)
    for i in range(1, diag.shape[0]):
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        q = diag[i] - shifts - off2[i - 1] / q
        cnt += q < 0.0
    return cnt


def _multisect_numpy(diag, off2, k, rel_tol, pivmin, lo0, hi0):
    lo = np.full(k, lo0)
    hi = np.full(k, hi0)
    targets = np.arange(1, k + 1)
    for _ in range(_MAX_SWEEPS):
        mid = 0.5 * (lo + hi)
        active = (mid > lo) & (mid < hi)
        active &= (hi - lo) > rel_tol * np.maximum(np.abs(lo), np.abs(hi))
        if not np.any(active):
            break
        act = np.flatnonzero(active)
        # targets sharing a bracket share its shifts; brackets are equal or disjoint
        brackets, owner = np.unique(
            np.stack((lo[act], hi[act])), axis=1, return_inverse=True
        )
        b_lo, b_hi = brackets
        shifts = b_lo[:, None] + _FRACTIONS * (b_hi - b_lo)[:, None]
        cnt = _count_numpy(diag, off2, shifts.ravel(), pivmin).reshape(shifts.shape)
        s, c = shifts[owner], cnt[owner]
        a_lo, a_hi = lo[act, None], hi[act, None]
        inside = (s > a_lo) & (s < a_hi)
        above = inside & (c >= targets[act, None])
        new_hi = np.min(np.where(above, s, a_hi), axis=1)
        # lo comes from below the new hi, so lo < hi holds even if the count
        # is not monotone in floating point
        below = inside & ~above & (s < new_hi[:, None])
        lo[act] = np.max(np.where(below, s, a_lo), axis=1)
        hi[act] = new_hi
    return 0.5 * (lo + hi)


def _prepare(diag, off):
    diag = np.ascontiguousarray(diag, dtype=float)
    off = np.ascontiguousarray(off, dtype=float)
    if diag.ndim != 1 or off.ndim != 1 or off.size != diag.size - 1:
        raise ValueError("need a length-N diagonal and a length-(N-1) off-diagonal")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise ValueError("matrix entries must be finite")
    off2 = off * off
    pivmin = 2.3e-308 * max(1.0, float(np.max(off2, initial=0.0)))
    radius = np.zeros_like(diag)
    absoff = np.abs(off)
    radius[:-1] += absoff
    radius[1:] += absoff
    lo0 = float(np.min(diag - radius))
    hi0 = float(np.max(diag + radius))
    pad = 1e-12 * max(1.0, abs(lo0), abs(hi0))
    return diag, off2, pivmin, lo0 - pad, hi0 + pad


def lowest_eigenvalues_tridiag(diag, off, k: int, rel_tol: float = 1e-12) -> np.ndarray:
    """The k smallest eigenvalues, ascending, each bracketed to rel_tol (or ulp)."""
    diag, off2, pivmin, lo0, hi0 = _prepare(diag, off)
    if not 1 <= k <= diag.size:
        raise ValueError(f"k must lie in [1, {diag.size}], got {k}")
    return _multisect_numpy(diag, off2, k, float(rel_tol), pivmin, lo0, hi0)
