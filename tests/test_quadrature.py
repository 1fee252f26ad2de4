"""Quadrature tests: Gauss-Legendre exactness, weighted inner products,
orthogonality, the norm-divergence classifier, and the per-model memo."""

import collections
import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from oscoul.models import (
    CoulombLike,
    EuclideanCoulomb,
    EuclideanOscillator,
    NonlinearOscillator,
    QuantumNumbers,
    RadialState,
    _Side,
)
from oscoul.quadrature import (
    DivergentIntegralError,
    Measure,
    Verdict,
    _MEMO,
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

    def test_zero_integrand_stops_at_the_first_window(self):
        m = EuclideanCoulomb(D=3, Q=1.0)
        mu = measure_for(m)
        zero = RadialState(m, QuantumNumbers(0, 0)).scaled(0.0)
        assert norm(zero, mu) == 0.0
        assert inner_product(zero, RadialState(m, QuantumNumbers(1, 0)), mu) == 0.0
        calls = []
        assert norm(lambda x: calls.append(x.size) or np.zeros_like(x), mu) == 0.0
        # one probe window, then levels 0 and 1 of the rule
        assert calls[0] == 1024 and len(calls) == 3
        for model in (m, NonlinearOscillator(d=2, lam=-0.1, beta=1.0)):
            state = RadialState(model, QuantumNumbers(0, 0)).scaled(0.0)
            with pytest.raises(ValueError, match="n_r=0 ang=0.0 has zero norm"):
                normalized(state, measure_for(model))

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

    @pytest.mark.parametrize(
        "truncations", [[1.0, 2.0, 2.0], [2.0, 2.0, 5.0], [5.0, 2.0, 5.0, 9.0]]
    )
    def test_rejects_repeated_truncations_before_any_integral(self, truncations):
        m = NonlinearOscillator(d=2, lam=0.2, beta=1.0)
        calls = []
        state = lambda x: calls.append(x) or np.exp(-x)  # noqa: E731
        with pytest.raises(ValueError, match="distinct"):
            norm_divergence_scan(state, measure_for(m), truncations=truncations)
        assert not calls


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


def gram(model, ang, k=4):
    mu = measure_for(model)
    states = [normalized(RadialState(model, QuantumNumbers(j, ang)), mu) for j in range(k)]
    return [[inner_product(a, b, mu) for b in states] for a in states]


def hex_matrix(matrix):
    return [[value.hex() for value in row] for row in matrix]


class TestModelMemo:
    """Auto-truncated integrals keep each state's values, the model's weight
    and the rules in a memo that lives as long as the model.  The models here
    have strengths no other test uses, so that each starts cold."""

    CHANNELS = [
        (CoulombLike(D=2.5, lam=0.0201, Q=1.0), 0.5),  # each state ends in its own window
        (NonlinearOscillator(d=3, lam=-0.1003, beta=1.0), 1.0),  # finite, graded domain
        (EuclideanOscillator(d=3, omega=1.07), 1.0),
    ]

    @pytest.mark.parametrize("model,ang", CHANNELS, ids=["clike", "nlo", "osc"])
    def test_gram_bits_equal_cold_warm_and_in_a_fresh_process(self, model, ang):
        assert model not in _MEMO
        cold = hex_matrix(gram(model, ang))
        assert model in _MEMO
        warm = hex_matrix(gram(model, ang))
        code = (
            "from oscoul.models import *\n"
            "from oscoul.quadrature import inner_product, measure_for, normalized\n"
            f"m = {model!r}\n"
            "mu = measure_for(m)\n"
            f"s = [normalized(RadialState(m, QuantumNumbers(j, {ang!r})), mu) for j in range(4)]\n"
            "print(' '.join(inner_product(a, b, mu).hex() for a in s for b in s))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        fresh = [out[4 * i : 4 * i + 4] for i in range(4)]
        assert cold == warm == fresh

    @pytest.mark.parametrize("model,ang", CHANNELS, ids=["clike", "nlo", "osc"])
    def test_each_state_and_the_weight_evaluated_once_per_node_set(
        self, model, ang, monkeypatch
    ):
        seen = collections.Counter()
        wavefunction, weight = _Side.wavefunction, _Side.weight

        def wavefunction_spy(self, q, x):
            seen[q, x.tobytes()] += 1
            return wavefunction(self, q, x)

        def weight_spy(self, x):
            seen["weight", x.tobytes()] += 1
            return weight(self, x)

        monkeypatch.setattr(_Side, "wavefunction", wavefunction_spy)
        monkeypatch.setattr(_Side, "weight", weight_spy)
        _MEMO.pop(model, None)  # start cold
        gram(model, ang)
        assert max(seen.values()) == 1
        node_sets = {x for _, x in seen}
        assert {x for what, x in seen if what == "weight"} == node_sets

    def test_entry_dies_with_its_model(self):
        model = CoulombLike(D=2.5, lam=0.0202, Q=1.0)
        gram(model, 0.5)
        assert model in _MEMO
        entries = len(_MEMO)
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None
        assert len(_MEMO) == entries - 1

    def test_explicit_truncations_and_other_integrands_add_no_entries(self):
        model = NonlinearOscillator(d=2, lam=0.2003, beta=1.0)
        mu = measure_for(model)
        state = RadialState(model, QuantumNumbers(1, 0))
        norm(state, mu, truncation=30.0)
        inner_product(state, state.scaled(2.0), mu, truncation=30.0)
        norm_divergence_scan(state, mu)
        norm(lambda x: state(x), mu)
        inner_product(lambda x: state(x), state, mu)
        assert model not in _MEMO
        # a weight other than the model's own is evaluated afresh every time
        norm(state, Measure(lambda x: model.weight(x), mu.domain))
        assert model in _MEMO
        assert not any(key[0] == "weight" for key in _MEMO[model])


class TestGramMemory:
    """One 4x4 Gram matrix of clike D=2.5 lam=0.02 L=1/2, the channel with
    the most node sets (each state decays at its own power-law rate), holds
    its memo only while its model lives.  tracemalloc counts NumPy's buffers,
    so the peak is deterministic, unlike the process RSS: 1.70 MiB with the
    memo, 0.38 MiB without it."""

    def test_peak_and_release(self):
        def channel():
            return CoulombLike(D=2.5, lam=0.02, Q=1.02)

        gram(channel(), 0.5)  # fills the shared reference rule and probe grids
        gc.collect()
        assert channel() not in _MEMO
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            gram(channel(), 0.5)
            gc.collect()
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2 * 2**20, peak / 2**20
        assert held <= 64 * 2**10, held / 2**10
