"""Polynomial kernel tests against an independent extended-precision series oracle."""

import math

import mpmath as mp
import numpy as np
import pytest

from oscoul import specfun
from oscoul.models import CoulombLike, QuantumNumbers

mp.mp.dps = 50


def _binom(z, k):
    out = mp.mpf(1)
    for i in range(k):
        out *= z - i
    return out / mp.factorial(k)


def jacobi_series(n, a, b, u):
    """Oracle: P_n^(a,b)(1 + 2u) as the explicit hypergeometric-type sum, at 50 digits."""
    a, b, u = mp.mpf(a), mp.mpf(b), mp.mpf(u)
    return mp.fsum(
        _binom(n + a, n - s) * _binom(n + b, s) * u**s * (1 + u) ** (n - s) for s in range(n + 1)
    )


def jacobi_series3(n, a, b, u):
    """Oracle triple (P, dP/du, d^2P/du^2): d/du lowers n and raises a and b by one
    and multiplies by n + a + b + 1."""
    s = n + mp.mpf(a) + mp.mpf(b) + 1
    return [
        jacobi_series(n, a, b, u),
        s * jacobi_series(n - 1, a + 1, b + 1, u) if n >= 1 else mp.mpf(0),
        s * (s + 1) * jacobi_series(n - 2, a + 2, b + 2, u) if n >= 2 else mp.mpf(0),
    ]


def laguerre_series(n, alpha, x):
    alpha, x = mp.mpf(alpha), mp.mpf(x)
    return mp.fsum(
        (-1) ** k * _binom(n + alpha, n - k) * x**k / mp.factorial(k) for k in range(n + 1)
    )


def test_jacobi_degree_zero_is_one():
    assert specfun.jacobi(0, 2.3, -7.1, 0.4) == 1.0


def test_jacobi_degree_one_antisymmetric_point():
    # x = 0 is u = -1/2
    assert specfun.jacobi(1, 1.0, 1.0, -0.5) == 0.0


def test_jacobi_frozen_series_value():
    # series oracle gives exactly -0.2090625 for (n=2, a=1, b=0.5, x=0.3), u = -0.35
    got = specfun.jacobi(2, 1.0, 0.5, -0.35)
    assert abs(got - (-0.2090625)) < 1e-14
    assert abs(got - float(jacobi_series(2, 1.0, 0.5, -0.35))) < 1e-14


def test_jacobi_recurrence_vs_series_sweep():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(0, 9))
        a, b = rng.uniform(-0.9, 20.0, size=2)
        u = rng.uniform(-1.0, 1.0)
        got = specfun.jacobi(n, a, b, u)
        ref = float(jacobi_series(n, a, b, u))
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_jacobi_symmetry():
    # P_n^(a,b)(-x) = (-1)^n P_n^(b,a)(x); x -> -x is u -> -1 - u
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(0, 9))
        a, b = rng.uniform(-0.9, 20.0, size=2)
        u = rng.uniform(-1.0, 0.0)
        lhs = specfun.jacobi(n, a, b, -1.0 - u)
        rhs = (-1.0) ** n * specfun.jacobi(n, b, a, u)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_jacobi_laguerre_limit():
    # P_n^(alpha,b)(1 - 2x/b) -> L_n^(alpha)(x), error shrinking like 1/b
    n, alpha, x = 3, 1.5, 2.0
    target = specfun.laguerre(n, alpha, x)
    errors = [
        abs(specfun.jacobi(n, alpha, b, -x / b) - target)
        for b in (1e2, 1e3, 1e4)
    ]
    assert errors[2] < errors[1] < errors[0]
    for e1, e2 in zip(errors, errors[1:]):
        assert 4.0 < e1 / e2 < 25.0  # ~10x per decade in b
    assert errors[2] < 1e-2 * abs(target)


def test_jacobi_derivative_trivials():
    assert specfun.jacobi_derivatives(0, 3.0, -2.0, -0.05)[1] == 0.0
    # slope of P_1^(a,b) is (a+b+2)/2 in x, so a+b+2 in u
    assert specfun.jacobi_derivatives(1, 1.0, 1.0, -0.15)[1] == 4.0


def test_jacobi_second_derivative_frozen():
    # FD oracle on the 50-digit series gives exactly -19.5 in x at x = -0.2,
    # so -78 in u = -0.6
    got = specfun.jacobi_derivatives(3, 0.5, 2.0, -0.6)[2]
    assert abs(got - (-78.0)) < 4e-12


def test_jacobi_derivative_matches_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        a, b = rng.uniform(-0.5, 8.0, size=2)
        u = rng.uniform(-0.9, -0.1)
        h = 5e-7  # 1e-6 in x
        fd = (specfun.jacobi(n, a, b, u + h) - specfun.jacobi(n, a, b, u - h)) / (2 * h)
        got = specfun.jacobi_derivatives(n, a, b, u)[1]
        # the x-derivative's 1e-8 * max(1, |fd|), in u: d/du = 2 d/dx
        assert abs(got - fd) <= 2e-8 * max(1.0, abs(fd) / 2)


@pytest.mark.parametrize("lam", [1e-2, 1e-6, 1e-10, 1e-14])
def test_jacobi_triple_near_the_flat_limit(lam):
    """b of order 1/lam, as the curved wavefunctions have: the nonlinear
    oscillator's b = -1/lam - 1/2 and the Coulomb-like (rho, sigma), sampled
    at u = lam y over the states' bulk y in [0, 40].  Forming x = 1 + 2u first
    lost about eps/lam: 0.59 of max|P| at n=3, a=1.5, lam=1e-14."""
    u = lam * np.linspace(0.0, 40.0, 21)
    for n in range(6):
        params = [(a, -1.0 / lam - 0.5) for a in (0.5, 1.5)]
        for L in (0.0, 1.0):
            model = CoulombLike(D=3.0, lam=lam, Q=1.0)
            rho, sigma, _ = model.wavefunction_params(QuantumNumbers(n, L))
            params.append((rho, sigma))
        for a, b in params:
            got = specfun.jacobi_derivatives(n, a, b, u)
            ref = np.array([[float(v) for v in jacobi_series3(n, a, b, x)] for x in u]).T
            for k in range(3):
                top = np.max(np.abs(ref[k]))
                assert np.max(np.abs(got[k] - ref[k])) <= 1e-13 * top, (n, a, b, k)


def test_laguerre_values():
    assert specfun.laguerre(0, 3.0, 5.0) == 1.0
    assert specfun.laguerre(1, 2.0, 1.0) == 2.0
    got = specfun.laguerre(2, 0.0, 2.0)
    assert abs(got - (-1.0)) < 1e-14
    assert abs(got - float(laguerre_series(2, 0.0, 2.0))) < 1e-14


def test_laguerre_recurrence_vs_series_sweep():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(0, 9))
        alpha = rng.uniform(-0.9, 20.0)
        x = rng.uniform(0.0, 10.0)
        got = specfun.laguerre(n, alpha, x)
        ref = float(laguerre_series(n, alpha, x))
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_laguerre_derivative_identity():
    # the running sums are L' = -L_{n-1}^(alpha+1) and L'' = L_{n-2}^(alpha+2),
    # summed in another order
    x = np.linspace(0.1, 4.0, 7)
    value, first, second = specfun.laguerre_derivatives(4, 1.5, x)
    assert value.tobytes() == np.asarray(specfun.laguerre(4, 1.5, x)).tobytes()
    for got, ref in ((first, -np.asarray(specfun.laguerre(3, 2.5, x))),
                     (second, np.asarray(specfun.laguerre(2, 3.5, x)))):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15 * np.max(np.abs(ref)))


def test_laguerre_derivatives_vs_series():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(0, 9))
        alpha = rng.uniform(-0.9, 20.0)
        x = rng.uniform(0.0, 10.0)
        got = specfun.laguerre_derivatives(n, alpha, x)
        ref = [
            float(laguerre_series(n - k, alpha + k, x)) * (-1) ** k if n >= k else 0.0
            for k in range(3)
        ]
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-12 * max(1.0, abs(r))


def test_array_evaluation_matches_scalar():
    x = np.array([-0.75, -0.45, 0.85])
    arr = specfun.jacobi(3, 0.7, -4.0, x)
    scal = [specfun.jacobi(3, 0.7, -4.0, float(v)) for v in x]
    np.testing.assert_allclose(arr, scal, rtol=0, atol=0)


def test_singular_recurrence_is_refused():
    # a + b = -3 zeroes the k + a + b factor of step 3: nlo d=3 l=0 at beta/lam = 3
    assert math.isfinite(specfun.jacobi(2, 0.5, -3.5, 0.1))
    with pytest.raises(ValueError, match="singular at degree 3"):
        specfun.jacobi(3, 0.5, -3.5, 0.1)
    with pytest.raises(ValueError, match="singular at degree 3"):
        specfun.jacobi_derivatives(4, -0.5, -4.5, 0.1)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        specfun.jacobi(-1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        specfun.jacobi(2, math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        specfun.jacobi(2, 0.0, 0.0, math.inf)
    with pytest.raises(ValueError):
        specfun.jacobi_derivatives(2, 0.0, 0.0, np.array([0.0, math.inf]))
    with pytest.raises(ValueError):
        specfun.laguerre(2, 0.0, math.nan)
    with pytest.raises(ValueError):
        specfun.laguerre_derivatives(2, math.nan, 0.0)
