"""Symmetric-tridiagonal eigenvalues by lockstep Sturm-count multisection.

The negative-pivot count of the shifted LDL^T factorization equals the number
of eigenvalues below the shift.  ``lowest_eigenvalues_batch`` finds the k
lowest eigenvalues of a whole batch of matrices at once.  Each target keeps
its own bracket, started from its matrix's Gershgorin interval, its matrix's
pivmin and the stopping rule of a matrix solved alone.  Each sweep places
``_SPLIT`` evenly spaced shifts inside every distinct active bracket (distinct
per matrix; targets of one matrix that share a bracket share its shifts) and
counts the shifts of every matrix in one pass over the rows (Lo, Philippe &
Sameh, SIAM J. Sci. Stat. Comput. 8, 1987).  The per-row Python overhead
dominates a pass, so a sweep over a few hundred shifts costs little more than
one bisection step, and it narrows each bracket 64-fold instead of 2-fold.

Matrices are padded to the longest N.  A padded row has a diagonal above every
matrix's Gershgorin bound and a zero coupling, so its pivot is positive for
every shift and never changes a count.  The shifts are ordered by matrix size,
so a block of rows that lies past the end of some matrices skips their shifts.

The row loop walks blocks of rows through preallocated buffers, sized to about
``_SCRATCH_BYTES`` whatever N is.  ``diag - shift`` and the couplings of a
block are gathered in one vectorized operation each, a row then costs one
division and one subtraction, and the negative pivots of a block are summed
once.  The pivmin guard (a pivot smaller than pivmin in magnitude becomes
-pivmin) is checked once per block; a block that needs it is recomputed with
the guard applied row by row.  The floating-point operations and their order
are those of the row-by-row recurrence, so each matrix's eigenvalues do not
depend on what else is in the batch.  This count is the hot loop of the oracle.
"""

from __future__ import annotations

import numpy as np

_MAX_SWEEPS = 256
_SPLIT = 63  # shifts per bracket per sweep
_FRACTIONS = np.arange(1, _SPLIT + 1) / (_SPLIT + 1)
_SCRATCH_BYTES = 1 << 20  # block buffers of one count pass
_MAX_BLOCK = 64  # rows per block

__all__ = ["lowest_eigenvalues_batch", "lowest_eigenvalues_tridiag"]


def _count(diag, coupling, shifts, col, col_sizes, pivmin):
    """Negative pivots of every shift column against its matrix ``col``.

    ``diag`` and ``coupling`` are (N, M) padded arrays; ``coupling[i]`` is the
    squared off-diagonal into row i (zero in row 0).  ``col_sizes`` and
    ``pivmin`` are those of each column's matrix; columns must be ordered by
    matrix size, largest first.
    """
    n_cols = shifts.size
    # four float buffers and one bool buffer: 33 bytes a cell
    block = max(1, min(_MAX_BLOCK, _SCRATCH_BYTES // (33 * n_cols)))
    t, c, q, a = (np.empty(block * n_cols) for _ in range(4))
    neg = np.empty(block * n_cols, dtype=bool)
    tmp = np.empty(n_cols)
    # row 0 has no predecessor: t - 0 / inf is t exactly
    carry = np.full(n_cols, np.inf)
    cnt = np.zeros(n_cols, dtype=np.int64)
    n = int(col_sizes[0])  # rows of the largest matrix with a shift
    for r0 in range(0, n, block):
        w = int(np.count_nonzero(col_sizes > r0))  # columns still inside their matrix
        b = min(block, n - r0)
        tb, cb, qb, ab = (buf[: b * w].reshape(b, w) for buf in (t, c, q, a))
        nb = neg[: b * w].reshape(b, w)
        # mode="clip" writes straight into out=; "raise" would buffer a copy
        np.take(diag[r0 : r0 + b], col[:w], axis=1, out=tb, mode="clip")
        np.subtract(tb, shifts[:w], out=tb)
        np.take(coupling[r0 : r0 + b], col[:w], axis=1, out=cb, mode="clip")
        piv, prev0, div = pivmin[:w], carry[:w], tmp[:w]
        guard = bool((np.abs(prev0) < piv).any())
        while True:
            prev = prev0
            for cj, tj, qj in zip(cb, tb, qb):  # the hot loop: positional out
                if guard:
                    prev = np.where(np.abs(prev) < piv, -piv, prev)
                np.divide(cj, prev, div)
                np.subtract(tj, div, qj)
                prev = qj
            if guard:
                break
            np.abs(qb[:-1], out=ab[:-1])
            np.less(ab[:-1], piv, out=nb[:-1])
            if not nb[:-1].any():
                break
            guard = True
        np.less(qb, 0.0, out=nb)
        cnt[:w] += nb.sum(axis=0)
        carry[:w] = qb[-1]
    return cnt


def _multisect(diag, coupling, sizes, ks, rel_tol, pivmin, lo0, hi0):
    """Lockstep multisection; targets of matrix m are 1..ks[m], in order."""
    mat = np.repeat(np.arange(ks.size), ks)
    targets = np.concatenate([np.arange(1, k + 1) for k in ks])
    lo, hi = lo0[mat], hi0[mat]
    for _ in range(_MAX_SWEEPS):
        mid = 0.5 * (lo + hi)
        active = (mid > lo) & (mid < hi)
        active &= (hi - lo) > rel_tol * np.maximum(np.abs(lo), np.abs(hi))
        if not np.any(active):
            break
        act = np.flatnonzero(active)
        # targets of one matrix sharing a bracket share its shifts; brackets of
        # one matrix are equal or disjoint; sorting by matrix keeps sizes descending
        brackets, owner = np.unique(
            np.stack((mat[act], lo[act], hi[act])), axis=1, return_inverse=True
        )
        b_mat, b_lo, b_hi = brackets
        shifts = b_lo[:, None] + _FRACTIONS * (b_hi - b_lo)[:, None]
        col = np.repeat(b_mat.astype(np.intp), _SPLIT)
        # an unguarded block may divide by a zero pivot before it is redone
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cnt = _count(diag, coupling, shifts.ravel(), col, sizes[col], pivmin[col])
        cnt = cnt.reshape(shifts.shape)
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
    return np.split(0.5 * (lo + hi), np.cumsum(ks)[:-1])


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
    off2 = off * off
    pivmin = 2.3e-308 * max(1.0, float(np.max(off2, initial=0.0)))
    radius = np.zeros_like(diag)
    absoff = np.abs(off)
    radius[:-1] += absoff
    radius[1:] += absoff
    lo0 = float(np.min(diag - radius))
    hi0 = float(np.max(diag + radius))
    pad = 1e-12 * max(1.0, abs(lo0), abs(hi0))
    return diag, off2, pivmin, lo0 - pad, hi0 + pad, k


def lowest_eigenvalues_batch(matrices, rel_tol: float = 1e-12) -> list:
    """The k smallest eigenvalues of each (diag, off, k), ascending, each
    bracketed to rel_tol (or ulp).  All matrices are solved in one lockstep
    multisection, and each result equals that of the matrix solved alone."""
    prepared = [_prepare(d, o, k) for d, o, k in matrices]
    if not prepared:
        return []
    # largest first, so the shifts of every sweep come ordered by matrix size
    order = sorted(range(len(prepared)), key=lambda i: -prepared[i][0].size)
    diags, off2s, pivmin, lo0, hi0, ks = zip(*(prepared[i] for i in order))
    sizes = np.array([d.size for d in diags])
    top = max(hi0)
    diag = np.full((sizes[0], len(order)), top + max(1.0, abs(top)))
    coupling = np.zeros_like(diag)
    for m, (d, off2) in enumerate(zip(diags, off2s)):
        diag[: d.size, m] = d
        coupling[1 : d.size, m] = off2
    vals = _multisect(
        diag, coupling, sizes, np.array(ks), float(rel_tol),
        np.array(pivmin), np.array(lo0), np.array(hi0),
    )
    out = [None] * len(order)
    for i, v in zip(order, vals):
        out[i] = v
    return out


def lowest_eigenvalues_tridiag(diag, off, k: int, rel_tol: float = 1e-12) -> np.ndarray:
    """The k smallest eigenvalues, ascending, each bracketed to rel_tol (or ulp)."""
    return lowest_eigenvalues_batch([(diag, off, k)], rel_tol)[0]
