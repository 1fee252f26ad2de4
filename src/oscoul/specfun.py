"""Jacobi and generalized-Laguerre polynomial kernels.

Everything is evaluated by the forward three-term recurrence in the degree,
which stays stable for the large second parameters these wavefunctions produce
(b of order 1/|lambda|); an explicit series would cancel catastrophically
there.  Parameters are unrestricted finite reals and no orthogonality-measure
restriction (b > -1) is enforced here.  No normalization constants are
applied.
"""

from __future__ import annotations

import numbers

from ._lazy import load

np = load("numpy")

__all__ = ["jacobi", "jacobi_derivative", "laguerre", "laguerre_derivative"]


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


def jacobi(n: int, a: float, b: float, x):
    """Jacobi polynomial P_n^(a,b)(x) for scalar or array x, any finite real."""
    n = _check_degree(n)
    a = _check_param("a", a)
    b = _check_param("b", b)
    xa = _check_argument(x)
    p_prev = np.ones_like(xa)
    if n == 0:
        return _like_input(p_prev, x)
    p = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * xa
    for k in range(2, n + 1):
        s = 2.0 * k + a + b
        c1 = 2.0 * k * (k + a + b) * (s - 2.0)
        c2 = (s - 1.0) * (s * (s - 2.0) * xa + a * a - b * b)
        c3 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        p, p_prev = (c2 * p - c3 * p_prev) / c1, p
    return _like_input(p, x)


def jacobi_derivative(n: int, a: float, b: float, x, order: int = 1):
    """Derivative d^order/dx^order P_n^(a,b)(x), order 1 or 2.

    Uses the identity that lowers the degree and raises both parameters by the
    order, so the result is exact up to round-off.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    n = _check_degree(n)
    a = _check_param("a", a)
    b = _check_param("b", b)
    if n < order:
        return _like_input(np.zeros_like(_check_argument(x)), x)
    s = n + a + b + 1.0
    if order == 1:
        return _like_input(0.5 * s * np.asarray(jacobi(n - 1, a + 1.0, b + 1.0, x)), x)
    return _like_input(
        0.25 * s * (s + 1.0) * np.asarray(jacobi(n - 2, a + 2.0, b + 2.0, x)), x
    )


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x)."""
    n = _check_degree(n)
    alpha = _check_param("alpha", alpha)
    xa = _check_argument(x)
    l_prev = np.ones_like(xa)
    if n == 0:
        return _like_input(l_prev, x)
    l_cur = 1.0 + alpha - xa
    for k in range(2, n + 1):
        l_cur, l_prev = (
            ((2.0 * k - 1.0 + alpha - xa) * l_cur - (k - 1.0 + alpha) * l_prev) / k,
            l_cur,
        )
    return _like_input(l_cur, x)


def laguerre_derivative(n: int, alpha: float, x, order: int = 1):
    """Derivative of L_n^(alpha): equals (-1)^order L_{n-order}^(alpha+order)."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    n = _check_degree(n)
    alpha = _check_param("alpha", alpha)
    if n < order:
        return _like_input(np.zeros_like(_check_argument(x)), x)
    sign = -1.0 if order == 1 else 1.0
    return _like_input(sign * np.asarray(laguerre(n - order, alpha + order, x)), x)
