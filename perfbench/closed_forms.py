"""Closed forms written out again, apart from the package, to check its answers.

Nothing here imports ``oscoul``: energies, bound-state rules, polynomials and
wavefunctions are re-typed from the paper's formulas (units hbar = m = 1) so
that a wrong answer in the package cannot also be the reference.  Only the
standard library is used, so importing this module adds nothing to the import
cost a workload measures.

A "spec" is a dict naming one radial problem, as built by ``cases.py``:
``model`` is one of osc, coulomb, nlo, clike, pdm-osc, pdm-coulomb, with
``d``/``D``, ``lam``, ``beta``/``omega``/``Q`` as that model needs.
"""

from __future__ import annotations

import math

OSC_SIDE = ("osc", "nlo", "pdm-osc")


def is_osc_side(spec) -> bool:
    return spec["model"] in OSC_SIDE


def energy(spec, n_r: int, ang: float) -> float:
    """Bound-state energy of the weighted (curved) problem."""
    m = spec["model"]
    if m == "osc":
        return spec["omega"] * (2 * n_r + ang + spec["d"] / 2.0)
    if m in ("nlo", "pdm-osc"):
        n = 2 * n_r + ang
        d, lam, beta = spec["d"], spec["lam"], spec["beta"]
        return beta * (n + d / 2.0) - 0.5 * lam * n * (n + d - 1.0)
    nu = n_r + ang
    D, Q = spec["D"], spec["Q"]
    if m == "coulomb":
        return -Q * Q / (2.0 * (2.0 * nu + D - 1.0) ** 2)
    lam = spec["lam"]
    ll = ang * (ang + D - 2.0)
    f1 = Q + lam * (ll - nu * (nu + 0.5))
    f2 = Q + lam * (ll - (nu + D - 1.0) * (nu + D - 1.5))
    return -f1 * f2 / (2.0 * (2.0 * nu + D - 1.0) ** 2)


def pdm_energy(spec, ordering: str, n_r: int, ang: float) -> float:
    """PDM energy for the BD or MM ordering (``vonroos:-0.25,-0.5,-0.25`` is MM)."""
    base = energy(spec, n_r, ang)
    lam = spec["lam"]
    if is_osc_side(spec):
        d = spec["d"]
        return base - d * (d - 2.0) * lam / 8.0
    D = spec["D"]
    if ordering == "bd":
        return base - (2.0 * D - 1.0) * (2.0 * D - 5.0) * lam * lam / 32.0
    return base - (2.0 * D - 3.0) ** 2 * lam * lam / 32.0


def bound_margin(spec, n_r: int, ang: float) -> float:
    """Relative margin by which (n_r, ang) meets its normalizability inequality.

    Positive means bound.  The Euclidean models are always bound (margin 1).
    nlo, lam > 0: n = 2 n_r + l must satisfy n < beta/lam - (d-1)/2.
    clike: the quadratic in n_r must stay below Q/|lam|.
    """
    m = spec["model"]
    if m in ("osc", "coulomb"):
        return 1.0
    lam = spec["lam"]
    if m in ("nlo", "pdm-osc"):
        if lam < 0:
            return 1.0
        limit = spec["beta"] / lam - (spec["d"] - 1.0) / 2.0
        return (limit - (2 * n_r + ang)) / limit
    D, L = spec["D"], ang
    if lam < 0:
        lhs = n_r**2 + (2 * L + D - 1) * n_r + 2 * L**2 + (2 * D - 3) * L + (D - 1) / 4.0
    else:
        lhs = n_r**2 + (2 * L + D - 1) * n_r + L + (D - 1) * (2 * D - 3) / 4.0
    limit = spec["Q"] / abs(lam)
    return (limit - lhs) / limit


def is_bound(spec, n_r: int, ang: float) -> bool:
    return bound_margin(spec, n_r, ang) > 0


def clike_bound_set(spec) -> list[tuple[int, int]]:
    """All bound (n_r, L) with integer L, ordered by (L, n_r).

    For D >= 1.5 both inequalities grow in n_r and in L, so each scan stops at
    the first unbound state.
    """
    out = []
    L = 0
    while is_bound(spec, 0, L):
        n_r = 0
        while is_bound(spec, n_r, L):
            out.append((n_r, L))
            n_r += 1
        L += 1
    return out


def nlo_n_max(spec):
    """Largest bound n = 2 n_r + l for lam > 0; None when every n is bound."""
    if spec["lam"] < 0:
        return None
    limit = spec["beta"] / spec["lam"] - (spec["d"] - 1.0) / 2.0
    return math.ceil(limit) - 1


def _binom(z: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= (z - i) / (i + 1)
    return out


def jacobi(n: int, a: float, b: float, x: float) -> tuple[float, float]:
    """P_n^(a,b)(x) by its explicit sum, and the sum of the terms' magnitudes."""
    u, v = (x - 1.0) / 2.0, (x + 1.0) / 2.0
    terms = [_binom(n + a, n - s) * _binom(n + b, s) * u**s * v ** (n - s) for s in range(n + 1)]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def laguerre(n: int, alpha: float, x: float) -> tuple[float, float]:
    """L_n^(alpha)(x) by its explicit sum, and the sum of the terms' magnitudes."""
    terms = [(-1) ** i * _binom(n + alpha, n - i) * x**i / math.factorial(i) for i in range(n + 1)]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def wavefunction(spec, n_r: int, ang: float, x: float) -> tuple[float, float]:
    """Unnormalized radial function at x, and a magnitude scale for its rounding.

    Same normalization convention as the package: the bare closed form with
    no constant factor.
    """
    m = spec["model"]
    if m == "osc":
        u = spec["omega"] * x * x
        pre = x**ang * math.exp(-0.5 * u)
        p, s = laguerre(n_r, ang + (spec["d"] - 2.0) / 2.0, u)
    elif m == "coulomb":
        kappa = math.sqrt(2.0 * abs(energy(spec, n_r, ang)))
        pre = x**ang * math.exp(-kappa * x)
        p, s = laguerre(n_r, 2.0 * ang + spec["D"] - 2.0, 2.0 * kappa * x)
    elif m in ("nlo", "pdm-osc"):
        lam, beta = spec["lam"], spec["beta"]
        pre = x**ang * (1.0 + lam * x * x) ** (-beta / (2.0 * lam))
        p, s = jacobi(
            n_r, ang + (spec["d"] - 2.0) / 2.0, -beta / lam - 0.5, 1.0 + 2.0 * lam * x * x
        )
    else:
        D, lam, Q, L = spec["D"], spec["lam"], spec["Q"], ang
        nu = n_r + L
        ll = L * (L + D - 2.0)
        rho = 2.0 * L + D - 2.0
        sigma = -(Q + lam * (nu * nu + (D - 1.0) * nu + 0.25 * (D - 1.0) + ll)) / (
            lam * (nu + 0.5 * (D - 1.0))
        )
        tau = -(Q + lam * (nu * (nu + D - 1.5) + ll)) / (lam * (2.0 * nu + D - 1.0))
        pre = x**L * (1.0 + lam * x) ** tau
        p, s = jacobi(n_r, rho, sigma, 1.0 + 2.0 * lam * x)
    return pre * p, abs(pre) * s


def flat_factor(spec, x: float) -> float:
    """Factor taking a weighted-measure function to the flat (w = 1) picture."""
    lam = spec.get("lam", 0.0)
    if is_osc_side(spec):
        return x ** ((spec["d"] - 1.0) / 2.0) * (1.0 + lam * x * x) ** -0.25
    return x ** ((spec["D"] - 1.0) / 2.0) * (1.0 + lam * x) ** -0.75


def dual_image(d: int, l: int, lam: float, beta: float, n_r: int) -> dict:
    """Coulomb-like image of a nonlinear-oscillator state under r = sqrt(R)."""
    osc = {"model": "nlo", "d": d, "lam": lam, "beta": beta}
    e_osc = energy(osc, n_r, l)
    D, L = (d + 2) / 2.0, l / 2.0
    Q = 0.5 * (e_osc - 2.0 * lam * L * (L + D - 2.0))
    return {
        "D": D,
        "L": L,
        "Q": Q,
        "energy": -beta * (beta + lam) / 8.0 + 0.25 * lam * e_osc,
        "spec": {"model": "clike", "D": D, "lam": lam, "Q": Q},
    }


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
