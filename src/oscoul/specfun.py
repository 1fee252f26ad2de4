"""Jacobi and generalized-Laguerre polynomial kernels.

Everything is evaluated by the forward three-term recurrence in the degree.
The models' Jacobi parameters include b of order 1/|lambda|; the recurrence in
the degree is stable there, and an explicit series would cancel
catastrophically.  What does lose digits is the argument: x = 1 + 2 lam r^2
rounds away the lam r^2 that carries the state, and the x-form recurrence
subtracts terms of size b^2 to leave one of size b, for a relative error of
about eps/|lambda|.  So the Jacobi kernels take u = (x-1)/2, which the models
have exactly (lam r^2 or lam R), and recur in u with the constant term written
as 2(2k(k+c-1) + c(a-1)), c = a + b, where no O(c^2) terms cancel.

Parameters are unrestricted finite reals and no orthogonality-measure
restriction (b > -1) is enforced here.  No normalization constants are
applied.  The derivative triples check their argument once and return the
value with its first two derivatives.
"""

from __future__ import annotations

import numbers

from ._lazy import load

np = load("numpy")

__all__ = ["jacobi", "jacobi_derivatives", "laguerre", "laguerre_derivatives"]


def _check_degree(n) -> int:
    # int first: the numbers.Integral check alone costs about 0.5 us a call
    if not isinstance(n, (int, numbers.Integral)):
        raise ValueError(f"polynomial degree must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {n}")
    return int(n)


def _check_param(name: str, value) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"parameter {name} must be finite, got {value}")
    return value


def _check_argument(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("polynomial argument must be finite")
    return arr


def _like_input(value: np.ndarray, x):
    return value if np.ndim(x) else float(value)


def _jacobi_u(n: int, a: float, b: float, u, scale: float = 1.0):
    """scale * P_n^(a,b)(1 + 2u) by the recurrence in u; arguments unchecked.

    Step k is (alpha_k + beta_k u) p_{k-1} - gamma_k p_{k-2}, the standard
    recurrence divided by 2k(k+c)(2k+c-2) with x = 1 + 2u substituted.
    """
    if n == 0:
        return np.full_like(u, scale)
    c = a + b
    p_prev, p = scale, (scale * (c + 2.0)) * u + scale * (a + 1.0)
    for k in range(2, n + 1):
        s = 2.0 * k + c
        den = k * (k + c) * (s - 2.0)
        if den == 0:
            raise ValueError(f"Jacobi recurrence is singular at degree {k} for a + b = {c}")
        nxt = ((s - 1.0) * s * (s - 2.0) / den) * u
        nxt += (s - 1.0) * (2.0 * k * (k + c - 1.0) + c * (a - 1.0)) / den
        nxt *= p
        nxt -= ((k + a - 1.0) * (k + b - 1.0) * s / den) * p_prev
        p_prev, p = p, nxt
    return p


def jacobi(n: int, a: float, b: float, u):
    """Jacobi polynomial P_n^(a,b)(1 + 2u) for scalar or array u, any finite real."""
    n = _check_degree(n)
    a = _check_param("a", a)
    b = _check_param("b", b)
    ua = _check_argument(u)
    return _like_input(_jacobi_u(n, a, b, ua), u)


def jacobi_derivatives(n: int, a: float, b: float, u):
    """(P, dP/du, d^2P/du^2) of P = P_n^(a,b)(1 + 2u).

    The derivatives use the identity that lowers the degree and raises both
    parameters: d^m/du^m P_n^(a,b) = (n+c+1)_m P_{n-m}^(a+m,b+m), with c = a+b
    and (.)_m the rising factorial, so each is exact up to round-off.
    """
    n = _check_degree(n)
    a = _check_param("a", a)
    b = _check_param("b", b)
    ua = _check_argument(u)
    s = n + a + b + 1.0
    p0 = _jacobi_u(n, a, b, ua)
    p1 = _jacobi_u(n - 1, a + 1.0, b + 1.0, ua, s) if n >= 1 else np.zeros_like(ua)
    p2 = _jacobi_u(n - 2, a + 2.0, b + 2.0, ua, s * (s + 1.0)) if n >= 2 else np.zeros_like(ua)
    return tuple(_like_input(p, u) for p in (p0, p1, p2))


def _laguerre_terms(n: int, alpha: float, x):
    """L_0^(alpha)(x), ..., L_n^(alpha)(x) by the recurrence in the degree; x unchecked."""
    l_prev, l_cur = None, np.ones_like(x)
    yield l_cur
    for k in range(1, n + 1):
        if k == 1:
            l_next = 1.0 + alpha - x
        else:
            l_next = np.subtract(2.0 * k - 1.0 + alpha, x)
            l_next *= l_cur
            l_next -= (k - 1.0 + alpha) * l_prev
            l_next /= k
        l_prev, l_cur = l_cur, l_next
        yield l_cur


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x)."""
    n = _check_degree(n)
    alpha = _check_param("alpha", alpha)
    xa = _check_argument(x)
    for value in _laguerre_terms(n, alpha, xa):
        pass
    return _like_input(value, x)


def laguerre_derivatives(n: int, alpha: float, x):
    """(L, L', L'') of L = L_n^(alpha)(x), from one recurrence.

    L_n^(alpha+1) = sum_{i<=n} L_i^(alpha), so L_n' = -L_{n-1}^(alpha+1) is
    minus the sum of the lower degrees and L_n'' = L_{n-2}^(alpha+2) the sum of
    their partial sums up to degree n-2; both are kept as running sums.
    """
    n = _check_degree(n)
    alpha = _check_param("alpha", alpha)
    xa = _check_argument(x)
    partial = np.zeros_like(xa)  # sum_{i<k} L_i at degree k
    nested = np.zeros_like(xa)  # sum_{j<k-1} sum_{i<=j} L_i at degree k
    for k, value in enumerate(_laguerre_terms(n, alpha, xa)):
        if k < n:
            nested += partial
            partial += value
    return tuple(_like_input(v, x) for v in (value, -partial, nested))
