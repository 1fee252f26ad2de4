"""Quadrature tests: Gauss-Legendre exactness, weighted inner products,
orthogonality, the norm-divergence classifier, and the measure's memo."""

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

from oscoul import quadrature
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
    _base_edges,
    _default_truncations,
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

    @pytest.mark.parametrize(
        "domain",
        [(1.0 / np.sqrt(0.1), 0.0), (0.5, 0.5), (np.nan, 1.0), (0.0, np.nan),
         (-np.inf, 1.0), (0.0, -np.inf), (np.inf, np.inf)],
        ids=["reversed", "empty", "nan-lo", "nan-hi", "lo-minus-inf", "hi-minus-inf", "lo-inf"],
    )
    def test_measure_rejects_a_bad_domain(self, domain):
        m = NonlinearOscillator(d=3, lam=-0.1, beta=1.0)
        with pytest.raises(ValueError, match="finite lo < hi"):
            Measure(m.weight, domain)

    @pytest.mark.parametrize(
        "model,q",
        [
            (NonlinearOscillator(d=2, lam=-0.3, beta=0.5), QuantumNumbers(0, 0)),
            (NonlinearOscillator(d=2, lam=-0.3, beta=0.5), QuantumNumbers(1, 0)),
            (CoulombLike(D=3, lam=-0.1, Q=1.0), QuantumNumbers(1, 0.5)),
        ],
        ids=["nlo-n0", "nlo-n1", "clike-n1"],
    )
    def test_a_hand_built_measure_grades_its_finite_end(self, model, q):
        # the grading into a finite upper end comes from the domain alone, so
        # a measure built by hand integrates as measure_for's does, bit for bit
        state = RadialState(model, q)
        assert norm(state, Measure(model.weight, model.domain)) == norm(state, measure_for(model))


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


# a finite domain, an infinite one with a power-law tail, and a Euclidean one
SCAN_MODELS = [
    NonlinearOscillator(d=3, lam=-0.1, beta=1.0),
    CoulombLike(D=3, lam=0.2, Q=1.0),
    EuclideanOscillator(d=3, omega=1.0),
]
SCAN_IDS = ["nlo-finite", "clike-infinite", "osc"]


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

    def test_growing_norms_diverge_where_the_last_one_cannot_be_integrated(self):
        # unbound at lam < 0: the norms read 5.1e35 and 1.3e44 at the first two
        # truncations, where the third's refinement does not settle; with
        # L = 3/2 not even the first settles, so the scan has nothing to read
        m = CoulombLike(D=2, lam=-0.3, Q=0.5)
        mu = measure_for(m)
        state = RadialState(m, QuantumNumbers(7, 1))
        assert not m.is_bound(state.q)
        assert norm_divergence_scan(state, mu) is Verdict.DIVERGES
        with pytest.raises(DivergentIntegralError, match="did not converge"):
            norm_divergence_scan(RadialState(m, QuantumNumbers(7, 1.5)), mu)

    @pytest.mark.parametrize("model", SCAN_MODELS[:2], ids=SCAN_IDS[:2])
    def test_each_scan_integrates_three_truncated_norms(self, model, monkeypatch):
        cuts = []
        real_norm = quadrature.norm

        def spy(f, mu, truncation=None):
            cuts.append(truncation)
            return real_norm(f, mu, truncation=truncation)

        monkeypatch.setattr(quadrature, "norm", spy)
        mu = measure_for(model)
        for q in (QuantumNumbers(0, 0), QuantumNumbers(1, 1)):
            state = RadialState(model, q)
            cuts.clear()
            norm_divergence_scan(state, mu)
            assert cuts == _default_truncations(state, mu)

    @pytest.mark.parametrize("model", SCAN_MODELS, ids=SCAN_IDS)
    def test_default_truncations_rise_strictly_inside_the_domain(self, model):
        lo, hi = model.domain
        mu = measure_for(model)
        for n_r, ang in [(0, 0), (1, 1), (3, 2)]:
            cuts = _default_truncations(RadialState(model, QuantumNumbers(n_r, ang)), mu)
            assert len(cuts) == 3
            assert lo < cuts[0] < cuts[1] < cuts[2] < hi


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
        inner_product(f, g, Measure(mu.weight, m.domain))  # a fresh, cold memo
        assert counts["weight"] > 0
        assert counts["f"] == counts["g"] == counts["weight"]

    def test_probe_grid_is_shared_and_read_only(self):
        grid = _probe_grid(0.0, 64.0)
        assert _probe_grid(0.0, 64.0) is grid
        assert grid.size == 1024
        with pytest.raises(ValueError):
            grid[0] = 1.0


def gram(model, ang, mu=None):
    # through the module, so that a test can wrap quadrature.inner_product
    mu = measure_for(model) if mu is None else mu
    states = [
        quadrature.normalized(RadialState(model, QuantumNumbers(j, ang)), mu) for j in range(4)
    ]
    return [[quadrature.inner_product(a, b, mu) for b in states] for a in states]


def hex_matrix(matrix):
    return [[value.hex() for value in row] for row in matrix]


class Wrapped:
    """Stands in for an operand, as a tracer's point counter does."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x):
        return self.fn(x)


@pytest.fixture
def evaluations(monkeypatch):
    """Counts each model's wavefunction and weight evaluations by node set."""
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
    return seen


class TestModelMemo:
    """Auto-truncated integrals keep the rules, the measure's weight and, per
    model, each state's values in a memo that lives as long as the measure."""

    CHANNELS = [
        (CoulombLike(D=2.5, lam=0.02, Q=1.0), 0.5),  # each state ends in its own window
        (NonlinearOscillator(d=3, lam=-0.1, beta=1.0), 1.0),  # finite, graded domain
        (EuclideanOscillator(d=3, omega=1.0), 1.0),
    ]

    @pytest.mark.parametrize("model,ang", CHANNELS, ids=["clike", "nlo", "osc"])
    def test_gram_bits_equal_cold_warm_and_in_a_fresh_process(self, model, ang):
        mu = measure_for(model)
        assert not mu._memo
        cold = hex_matrix(gram(model, ang, mu))
        assert model in mu._memo
        warm = hex_matrix(gram(model, ang, mu))
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
        self, model, ang, evaluations
    ):
        gram(model, ang)
        assert max(evaluations.values()) == 1
        node_sets = {x for _, x in evaluations}
        assert {x for what, x in evaluations if what == "weight"} == node_sets

    def test_two_measures_of_one_model_share_nothing(self, evaluations):
        model, ang = self.CHANNELS[1]
        first, second = measure_for(model), measure_for(model)
        assert first == second and hash(first) == hash(second)
        gram(model, ang, first)
        cold = evaluations.copy()
        assert first._memo and not second._memo
        gram(model, ang, first)
        assert evaluations == cold
        gram(model, ang, second)
        assert evaluations == cold + cold

    def test_memo_dies_with_its_measure(self):
        model, ang = self.CHANNELS[0]
        mu = measure_for(model)
        gram(model, ang, mu)
        assert mu._memo
        ref = weakref.ref(mu)
        del mu
        gc.collect()
        assert ref() is None

    def test_explicit_truncations_and_other_integrands_add_no_entries(self):
        model = NonlinearOscillator(d=2, lam=0.2, beta=1.0)
        mu = measure_for(model)
        state = RadialState(model, QuantumNumbers(1, 0))
        norm(state, mu, truncation=30.0)
        inner_product(state, state.scaled(2.0), mu, truncation=30.0)
        norm_divergence_scan(state, mu)
        assert not mu._memo
        # an arbitrary callable is evaluated afresh; the rules and weights stay
        norm(lambda x: state(x), mu)
        assert mu._memo and model not in mu._memo

    @pytest.mark.parametrize("model,ang", CHANNELS, ids=["clike", "nlo", "osc"])
    def test_a_wrapped_first_operand_adds_no_weight_calls(
        self, model, ang, evaluations, monkeypatch
    ):
        def weight_calls():
            return sum(n for (what, _), n in evaluations.items() if what == "weight")

        plain = hex_matrix(gram(model, ang))
        unwrapped = weight_calls()
        inner = quadrature.inner_product
        monkeypatch.setattr(
            quadrature, "inner_product", lambda f, *args, **kw: inner(Wrapped(f), *args, **kw)
        )
        evaluations.clear()
        assert hex_matrix(gram(model, ang)) == plain
        assert weight_calls() == unwrapped > 0


class TestGramMemory:
    """One 4x4 Gram matrix of clike D=2.5 lam=0.02 L=1/2, the channel with
    the most node sets (each state decays at its own power-law rate), holds
    its memo only while its measure lives.  tracemalloc counts NumPy's
    buffers, so the peak is deterministic, unlike the process RSS: 1.66 MiB,
    with 4.4 KiB held afterwards."""

    def test_peak_and_release(self):
        model = CoulombLike(D=2.5, lam=0.02, Q=1.0)
        gram(model, 0.5)  # fills the shared reference rule and probe grids
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            gram(model, 0.5)
            gc.collect()
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2 * 2**20, peak / 2**20
        assert held <= 64 * 2**10, held / 2**10
