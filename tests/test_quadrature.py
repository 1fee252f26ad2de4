"""Quadrature tests: Gauss-Legendre exactness, weighted inner products,
orthogonality, and the norm-divergence classifier."""

import numpy as np
import pytest

from oscoul.models import (
    CoulombLike,
    EuclideanOscillator,
    NonlinearOscillator,
    QuantumNumbers,
    RadialState,
)
from oscoul.quadrature import (
    DivergentIntegralError,
    Measure,
    Verdict,
    _base_edges,
    _probe_grid,
    _refine,
    gauss_legendre,
    inner_product,
    measure_for,
    norm,
    norm_divergence_scan,
    normalized,
)


class TestGaussLegendre:
    def test_single_point_is_midpoint(self):
        x, w = gauss_legendre(1, 2.0, 5.0)
        assert x.tolist() == [3.5]
        assert w.tolist() == [3.0]

    def test_two_point_classical(self):
        x, w = gauss_legendre(2, -1.0, 1.0)
        np.testing.assert_allclose(x, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-15)

    def test_degree_exactness(self):
        x, w = gauss_legendre(3, 0.0, 1.0)
        assert abs(np.sum(w * x**5) - 1.0 / 6.0) < 1e-15

    @pytest.mark.parametrize("n", [4, 7, 16, 33, 64])
    def test_weights_sum_and_polynomials(self, n):
        x, w = gauss_legendre(n, -1.0, 1.0)
        assert abs(np.sum(w) - 2.0) < 1e-13
        for deg in (2 * n - 2, 2 * n - 1):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            assert abs(np.sum(w * x**deg) - exact) < 1e-12

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            gauss_legendre(4, 1.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(4, 0.0, np.inf)
        with pytest.raises(ValueError):
            gauss_legendre(0, 0.0, 1.0)


class TestInnerProduct:
    def test_normalized_self_product_is_one(self):
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        mu = measure_for(m)
        s = normalized(RadialState(m, QuantumNumbers(1, 0)), mu)
        assert abs(inner_product(s, s, mu) - 1.0) <= 1e-10

    def test_nlo_orthogonality(self):
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        mu = measure_for(m)
        s0 = normalized(RadialState(m, QuantumNumbers(0, 0)), mu)
        s1 = normalized(RadialState(m, QuantumNumbers(1, 0)), mu)
        assert abs(inner_product(s0, s1, mu)) <= 1e-10

    def test_clike_orthogonality(self):
        m = CoulombLike(D=3, lam=0.2, Q=1.0)
        mu = measure_for(m)
        s0 = normalized(RadialState(m, QuantumNumbers(0, 0)), mu)
        s1 = normalized(RadialState(m, QuantumNumbers(1, 0)), mu)
        assert abs(inner_product(s0, s1, mu)) <= 1e-10

    def test_divergent_integrand_raises(self):
        # n = 6 > n_max = 4 is non-normalizable: no decaying tail exists
        m = NonlinearOscillator(d=2, lam=0.2, beta=1.0)
        mu = measure_for(m)
        s = RadialState(m, QuantumNumbers(3, 0))
        with pytest.raises(DivergentIntegralError):
            norm(s, mu)

    def test_measure_positivity(self):
        for model in [
            EuclideanOscillator(d=3, omega=1.0),
            NonlinearOscillator(d=2, lam=-0.1, beta=1.0),
            CoulombLike(D=3, lam=0.2, Q=1.0),
        ]:
            mu = measure_for(model)
            hi = mu.domain[1]
            hi = hi if np.isfinite(hi) else 50.0
            x, _ = gauss_legendre(32, 1e-6, hi * (1 - 1e-9))
            assert np.all(np.asarray(mu.weight(x)) > 0)

    def test_truncation_validation(self):
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        mu = measure_for(m)
        s = RadialState(m, QuantumNumbers(0, 0))
        with pytest.raises(ValueError):
            inner_product(s, s, mu, truncation=50.0)  # beyond 1/sqrt(0.1)


class TestGramMatrices:
    @pytest.mark.parametrize(
        "model,ang,k",
        [
            (EuclideanOscillator(d=3, omega=1.0), 0.0, 4),
            (NonlinearOscillator(d=2, lam=-0.1, beta=1.0), 0.0, 4),
            (NonlinearOscillator(d=2, lam=0.2, beta=2.0), 0.0, 4),
            (CoulombLike(D=3, lam=-0.1, Q=2.0), 0.0, 4),
        ],
    )
    def test_identity_to_1e8(self, model, ang, k):
        mu = measure_for(model)
        states = [
            normalized(RadialState(model, QuantumNumbers(j, ang)), mu) for j in range(k)
        ]
        gram = np.array([[inner_product(a, b, mu) for b in states] for a in states])
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-8


class TestDivergenceScan:
    def test_nlo_boundary_cases(self):
        m = NonlinearOscillator(d=2, lam=0.2, beta=1.0)  # n_max = 4
        mu = measure_for(m)
        assert norm_divergence_scan(RadialState(m, QuantumNumbers(2, 0)), mu) is Verdict.CONVERGES
        assert norm_divergence_scan(RadialState(m, QuantumNumbers(3, 0)), mu) is Verdict.DIVERGES

    def test_clike_lam_positive(self):
        m = CoulombLike(D=3, lam=0.2, Q=1.0)
        mu = measure_for(m)
        assert norm_divergence_scan(RadialState(m, QuantumNumbers(1, 1)), mu) is Verdict.DIVERGES
        assert norm_divergence_scan(RadialState(m, QuantumNumbers(0, 2)), mu) is Verdict.CONVERGES

    def test_clike_lam_negative(self):
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        mu = measure_for(m)
        assert norm_divergence_scan(RadialState(m, QuantumNumbers(2, 0)), mu) is Verdict.CONVERGES
        assert norm_divergence_scan(RadialState(m, QuantumNumbers(3, 0)), mu) is Verdict.DIVERGES

    def test_slow_power_law_tail_converges(self):
        # bound with a 10 % margin (4.5 < Q/lam = 5): the norm's last log-slope
        # over the default truncations is 0.079, but each increment is smaller
        # than the one before
        m = CoulombLike(D=3, lam=0.2, Q=1.0)
        state = RadialState(m, QuantumNumbers(1, 0))
        assert m.is_bound(state.q)
        assert norm_divergence_scan(state, measure_for(m)) is Verdict.CONVERGES

    def test_requires_enough_truncations(self):
        m = NonlinearOscillator(d=2, lam=0.2, beta=1.0)
        mu = measure_for(m)
        with pytest.raises(ValueError):
            norm_divergence_scan(RadialState(m, QuantumNumbers(0, 0)), mu, truncations=[5.0, 10.0])


class TestInternals:
    @staticmethod
    def refine_per_panel(edges, level):
        # the reference: one arange per panel, in the same floating-point order
        parts = 2**level
        out = [edges[0]]
        for left, right in zip(edges[:-1], edges[1:]):
            out.extend(left + (right - left) * np.arange(1, parts + 1) / parts)
        return np.asarray(out)

    @pytest.mark.parametrize(
        "edges",
        [_base_edges(0.0, 64.0, False), _base_edges(0.0, 1.0 / np.sqrt(0.1), True)],
        ids=["log-spaced", "graded"],
    )
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_refine_matches_per_panel_formula(self, edges, level):
        got = _refine(edges, level)
        want = self.refine_per_panel(edges, level)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def counting(fn, counts, key):
        def spy(x):
            counts[key] += 1
            return fn(x)

        return spy

    def test_each_factor_evaluated_once_per_integrand_call(self):
        m = NonlinearOscillator(d=2, lam=0.2, beta=1.0)
        counts = {"f": 0, "g": 0, "weight": 0}
        mu = Measure(self.counting(m.weight, counts, "weight"), m.domain)
        f = self.counting(RadialState(m, QuantumNumbers(0, 0)), counts, "f")
        g = self.counting(RadialState(m, QuantumNumbers(1, 0)), counts, "g")
        norm(f, mu)
        assert counts["weight"] > 0
        assert counts["f"] == counts["weight"] and counts["g"] == 0
        counts.update(f=0, weight=0)
        inner_product(f, g, mu)
        assert counts["weight"] > 0
        assert counts["f"] == counts["g"] == counts["weight"]

    def test_probe_grid_is_shared_and_read_only(self):
        grid = _probe_grid(0.0, 64.0)
        assert _probe_grid(0.0, 64.0) is grid
        assert grid.size == 1024
        with pytest.raises(ValueError):
            grid[0] = 1.0
