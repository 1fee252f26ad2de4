"""Closed-form model tests: energies, wavefunctions, bound sets, PDM forms."""

import dataclasses
import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from oscoul import specfun
from oscoul.models import (
    BD,
    MAX_STATES,
    MM,
    CoulombLike,
    EuclideanCoulomb,
    EuclideanOscillator,
    NonlinearOscillator,
    PdmOrdering,
    QuantumNumbers,
    RadialState,
    _BLOCK,
    _check_coordinate,
    clike_bound_states,
    wavefunction,
    wavefunction_derivatives,
)


def q(n_r, ang=0):
    return QuantumNumbers(n_r, ang)


class TestOscillatorEnergy:
    def test_ground_state_d3(self):
        assert EuclideanOscillator(d=3, omega=1.0).energy(q(0, 0)) == 1.5

    def test_excited_d2(self):
        assert EuclideanOscillator(d=2, omega=2.0).energy(q(1, 1)) == 8.0

    def test_degeneracy_same_n(self):
        for d, omega in [(2, 1.0), (3, 0.7), (5, 2.5)]:
            m = EuclideanOscillator(d=d, omega=omega)
            assert m.energy(q(1, 0)) == m.energy(q(0, 2))


class TestCoulombEnergy:
    def test_values(self):
        assert EuclideanCoulomb(D=3, Q=1.0).energy(q(0, 0)) == -0.125
        assert EuclideanCoulomb(D=3, Q=1.0).energy(q(1, 0)) == -0.03125
        assert EuclideanCoulomb(D=5, Q=2.0).energy(q(0, 0)) == -0.125

    def test_accidental_degeneracy_exact(self):
        # energy depends on (n_r, L) only through nu = n_r + L
        m = EuclideanCoulomb(D=3.5, Q=1.3)
        for nu in range(6):
            vals = {m.energy(q(n_r, nu - n_r)) for n_r in range(nu + 1)}
            assert len(vals) == 1


class TestEuclideanIsTheLamZeroCase:
    """Each side's domain, measure, coefficients and energy are written once,
    for the curved model; at lam = 0 they must give the textbook forms."""

    x = np.linspace(0.05, 9.0, 37)

    @staticmethod
    def close(got, terms):
        # relative to the size of the terms, so a cancelling sum is judged fairly
        ref = sum(terms)
        scale = sum(np.abs(t) for t in terms)
        assert np.all(np.abs(np.asarray(got) - ref) <= 1e-15 * scale)

    @pytest.mark.parametrize("d,omega,l", [(2, 1.0, 0), (3, 0.7, 1), (4, 2.3, 2), (5, 1.37, 3)])
    def test_oscillator(self, d, omega, l):
        m = EuclideanOscillator(d=d, omega=omega)
        r = self.x
        p, w, V, c1 = m.coefficients(float(l), None, r, m.stretch(r))
        self.close(p, [np.ones_like(r)])
        self.close(w, [r ** (d - 1)])
        self.close(m.weight(r), [r ** (d - 1)])
        self.close(V, [l * (l + d - 2) / r**2, omega**2 * r**2])
        self.close(c1, [(d - 1) / r])
        assert m.domain == (0.0, math.inf)
        assert m.beta == omega
        for n_r in range(4):
            assert m.energy(q(n_r, l)) == omega * (2 * n_r + l + d / 2)

    @pytest.mark.parametrize(
        "D,Q,L", [(2.0, 1.0, 0.0), (2.5, 0.7, 0.5), (3.0, 1.3, 1.0), (4.0, 2.9, 1.5)]
    )
    def test_coulomb(self, D, Q, L):
        m = EuclideanCoulomb(D=D, Q=Q)
        R = self.x
        p, w, V, c1 = m.coefficients(L, None, R, m.stretch(R))
        self.close(p, [np.ones_like(R)])
        self.close(w, [R ** (D - 1)])
        self.close(m.weight(R), [R ** (D - 1)])
        self.close(V, [L * (L + D - 2) / R**2, -Q / R])
        self.close(c1, [(D - 1) / R])
        assert m.domain == (0.0, math.inf)
        for n_r in range(4):
            nu = n_r + L
            self.close(m.energy(q(n_r, L)), [-(Q**2) / (2 * (2 * nu + D - 1) ** 2)])


    def test_euclidean_constructors_build_the_lam_zero_member(self):
        osc, coulomb = EuclideanOscillator(d=3, omega=1.3), EuclideanCoulomb(D=2.5, Q=1.3)
        assert osc == NonlinearOscillator(3, 0.0, 1.3) and type(osc) is NonlinearOscillator
        assert coulomb == CoulombLike(2.5, 0.0, 1.3) and type(coulomb) is CoulombLike
        assert osc.n_max is None
        assert all(osc.is_bound(q(n_r, 2)) and coulomb.is_bound(q(n_r, 1.5)) for n_r in range(9))

    @pytest.mark.parametrize("lam", [0.0, -0.0])
    def test_refuses_what_lam_zero_leaves_undefined(self, lam):
        # the Jacobi parameters divide by lam, and every state is bound
        m = CoulombLike(D=3, lam=lam, Q=1.0)
        with pytest.raises(ValueError, match=re.escape("(rho, sigma, tau) need lam != 0")):
            m.wavefunction_params(q(0, 0))
        with pytest.raises(ValueError, match="every state is bound: the bound set is infinite"):
            clike_bound_states(m)


class TestNonlinearOscillator:
    def test_energy_values(self):
        assert math.isclose(
            NonlinearOscillator(d=2, lam=-0.1, beta=1.0).energy(q(1, 0)), 3.3
        )
        assert math.isclose(
            NonlinearOscillator(d=2, lam=0.2, beta=1.0).energy(q(2, 0)), 3.0
        )

    def test_lam_to_zero_recovers_oscillator(self):
        osc = EuclideanOscillator(d=3, omega=1.0)
        for lam in (1e-7, -1e-7):
            m = NonlinearOscillator(d=3, lam=lam, beta=1.0)
            for n_r, l in [(0, 0), (1, 0), (0, 2), (3, 0), (1, 4)]:
                qq = q(n_r, l)
                shift = 0.5 * abs(lam) * qq.n * (qq.n + 2)
                assert abs(m.energy(qq) - osc.energy(qq)) <= shift + 1e-15

    def test_n_max(self):
        assert NonlinearOscillator(d=2, lam=-0.1, beta=1.0).n_max is None
        assert NonlinearOscillator(d=2, lam=0.2, beta=1.0).n_max == 4
        assert NonlinearOscillator(d=2, lam=0.25, beta=1.0).n_max == 3

    def test_no_bound_states_marker(self):
        m = NonlinearOscillator(d=4, lam=2.0, beta=1.0)
        assert m.n_max < 0
        assert not m.is_bound(q(0, 0))

    def test_ground_wavefunction_shape(self):
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        r = np.linspace(0.2, 2.5, 9)
        got = m.wavefunction(q(0, 0), r)
        np.testing.assert_allclose(got, (1.0 - 0.1 * r * r) ** 5.0, rtol=1e-14)

    def test_small_lam_matches_euclidean_wavefunction(self):
        r = np.linspace(0.1, 2.0, 7)
        osc = EuclideanOscillator(d=2, omega=1.0).wavefunction(q(1, 1), r)
        for lam in (1e-6, -1e-6):
            m = NonlinearOscillator(d=2, lam=lam, beta=1.0)
            got = m.wavefunction(q(1, 1), r)
            np.testing.assert_allclose(got, osc, rtol=1e-4)

    def test_domain_enforced(self):
        m = NonlinearOscillator(d=2, lam=-0.25, beta=1.0)
        with pytest.raises(ValueError):
            m.wavefunction(q(0, 0), 2.5)  # beyond 1/sqrt(0.25) = 2


class TestEuclideanWavefunctions:
    def test_oscillator_ground(self):
        m = EuclideanOscillator(d=3, omega=1.3)
        r = np.linspace(0.05, 3.0, 11)
        np.testing.assert_allclose(
            m.wavefunction(q(0, 0), r), np.exp(-0.65 * r * r), rtol=1e-15
        )
        assert m.wavefunction(q(0, 0), 1e-300) == 1.0

    def test_coulomb_ground_value(self):
        # E_0 = -1/8, kappa = 1/2
        m = EuclideanCoulomb(D=3, Q=1.0)
        got = m.wavefunction(q(0, 0), 1.0)
        assert abs(got - math.exp(-0.5)) < 1e-15


class TestCoulombLike:
    def test_energy_frozen_values(self):
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        assert math.isclose(m.energy(q(0, 0)), -0.1625, rel_tol=1e-14)
        assert math.isclose(m.energy(q(1, 0)), -0.062890625, rel_tol=1e-14)
        assert math.isclose(m.energy(q(0, 1)), -0.046015625, rel_tol=1e-14)

    def test_degeneracy_broken(self):
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        e10, e01 = m.energy(q(1, 0)), m.energy(q(0, 1))
        assert abs(e10 - e01) > 10 * np.finfo(float).eps * abs(e10)

    def test_small_lam_reduces_to_coulomb(self):
        mc = EuclideanCoulomb(D=3, Q=1.0)
        for n_r, L in [(0, 0), (1, 0), (0, 1), (2, 2)]:
            ref = mc.energy(q(n_r, L))
            for lam in (1e-8, -1e-8):
                m = CoulombLike(D=3, lam=lam, Q=1.0)
                assert abs(m.energy(q(n_r, L)) - ref) < 1e-7

    def test_wavefunction_params_frozen(self):
        rho, sigma, tau = CoulombLike(D=3, lam=-0.1, Q=1.0).wavefunction_params(q(0, 0))
        assert rho == 1.0
        assert math.isclose(sigma, 9.5, rel_tol=1e-13)
        assert math.isclose(tau, 5.0, rel_tol=1e-13)

    def test_params_match_dual_oscillator(self):
        # sigma = -beta/lam - 1/2 and tau = -beta/(2 lam) with beta = 1
        lam = -0.1
        _, sigma, tau = CoulombLike(D=3, lam=lam, Q=1.0).wavefunction_params(q(0, 0))
        assert math.isclose(sigma, -1.0 / lam - 0.5, rel_tol=1e-13)
        assert math.isclose(tau, -1.0 / (2 * lam), rel_tol=1e-13)

    def test_rho_formula(self):
        for D, L in [(2.5, 0), (3, 1), (4, 2.5)]:
            rho, _, _ = CoulombLike(D=D, lam=0.1, Q=1.0).wavefunction_params(q(1, L))
            assert rho == 2 * L + D - 2

    def test_tau_small_lam_limit(self):
        # tau ~ sqrt(2|E|)/|lam| so (1+lam R)^tau -> exp(-sqrt(2|E|) R);
        # nu = 1 keeps a genuine O(lam) correction (nu = 0 is exact at all lam)
        kappa = 0.25  # sqrt(2 |E_1|) = Q/(2 nu + D - 1) for D=3, Q=1, nu=1
        ratios = []
        for lam in (-1e-2, -1e-3, -1e-4):
            _, _, tau = CoulombLike(D=3, lam=lam, Q=1.0).wavefunction_params(q(1, 0))
            ratios.append(tau * abs(lam) / kappa)
        np.testing.assert_allclose(ratios, 1.0, rtol=3e-2)
        assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
        R = 2.0
        _, _, tau = CoulombLike(D=3, lam=-1e-4, Q=1.0).wavefunction_params(q(1, 0))
        assert abs((1.0 - 1e-4 * R) ** tau - math.exp(-kappa * R)) < 1e-3

    def test_ground_wavefunction_is_pure_power(self):
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        _, _, tau = m.wavefunction_params(q(0, 0))
        R = np.linspace(0.3, 8.0, 9)
        np.testing.assert_allclose(m.wavefunction(q(0, 0), R), (1.0 - 0.1 * R) ** tau, rtol=1e-14)


class TestBoundStates:
    def test_count_lam_positive(self):
        states = clike_bound_states(CoulombLike(D=3, lam=0.2, Q=1.0))
        got = {(s.n_r, s.ang) for s in states}
        assert got == {(0, 0.0), (1, 0.0), (0, 1.0), (0, 2.0), (0, 3.0)}

    def test_count_lam_negative(self):
        states = clike_bound_states(CoulombLike(D=3, lam=-0.1, Q=1.0))
        got = {(s.n_r, s.ang) for s in states}
        assert got == {(0, 0.0), (1, 0.0), (2, 0.0), (0, 1.0)}

    def test_empty_below_existence_threshold(self):
        # Q <= (D-1)|lam|/4 leaves no bound state at all
        assert clike_bound_states(CoulombLike(D=3, lam=-1.0, Q=0.4)) == []

    @pytest.mark.parametrize("lam,size", [(0.002, 1144), (1e-4, 30346), (-1e-4, 3924)])
    def test_cap_admits_small_lam(self, lam, size):
        # the benchmark's smallest lam is 0.002
        assert len(clike_bound_states(CoulombLike(D=3, lam=lam, Q=1.0))) == size <= MAX_STATES

    @pytest.mark.parametrize(
        "lam,message",
        [(-1e-7, "has 3926992 states"), (1e-6, "at least 1e+06"), (1e-300, "at least 1e+300")],
    )
    def test_refuses_a_set_above_the_cap(self, lam, message):
        with pytest.raises(ValueError, match=f"{re.escape(message)}.*more than {MAX_STATES}"):
            clike_bound_states(CoulombLike(D=3, lam=lam, Q=1.0))

    @pytest.mark.parametrize("lam", [0.01, -0.01, -0.1, -1.0, 0.2, 0.5])
    def test_matches_brute_force_box(self, lam):
        # for every D > 1 the inequality's left side is at least n_r^2 - 1/32
        # and at least L - 1/32, so no bound state lies outside this box
        for D in (1.2, 2.0, 2.5, 3.0, 4.0):
            for Q in (0.3, 1.0, 2.5):
                m = CoulombLike(D=D, lam=lam, Q=Q)
                ratio = Q / abs(lam)
                n_cap, l_cap = int(math.sqrt(ratio + 1.0)) + 1, int(ratio + 1.0) + 1
                expected = [
                    q(n_r, L)
                    for L in range(l_cap + 1)
                    for n_r in range(n_cap + 1)
                    if m.is_bound(q(n_r, L))
                ]
                assert clike_bound_states(m) == expected, (D, lam, Q)

    def test_matches_is_bound_walk_on_random_models(self):
        # random D in (1, 5), both signs of lam and Q: the set is every (n_r, L)
        # that is_bound accepts in the box above, in (L, n_r) order
        rng = np.random.default_rng(29)
        for _ in range(40):
            D, Q = rng.uniform(1.01, 5.0), 10.0 ** rng.uniform(-1.0, 0.7)
            lam = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 0.0)
            m = CoulombLike(D=D, lam=lam, Q=Q)
            ratio = Q / abs(lam)
            n_cap, l_cap = int(math.sqrt(ratio + 1.0)) + 1, int(ratio + 1.0) + 1
            walk = [
                (n_r, L)
                for L in range(l_cap + 1)
                for n_r in range(n_cap + 1)
                if m.is_bound(q(n_r, L))
            ]
            got = clike_bound_states(m)
            assert [(s.n_r, s.ang) for s in got] == walk, (D, lam, Q)
            assert all(type(s.n_r) is int and type(s.ang) is float for s in got)


class TestPdm:
    def test_mass_values(self):
        assert NonlinearOscillator(d=2, lam=0.3, beta=1.0).pdm_mass(1e-12) == pytest.approx(1.0)
        assert CoulombLike(D=3, lam=-0.1, Q=1.0).pdm_mass(5.0) == pytest.approx(4.0)
        assert NonlinearOscillator(d=2, lam=0.2, beta=1.0).pdm_mass(2.0) == pytest.approx(1.0 / 1.8)

    def test_mass_domain(self):
        with pytest.raises(ValueError):
            CoulombLike(D=3, lam=-0.1, Q=1.0).pdm_mass(20.0)

    def test_flat_factor_derivatives_domain(self):
        # the domain of nlo d=3 lam=-0.1 ends at 1/sqrt(0.1) = 3.16
        m = NonlinearOscillator(d=3, lam=-0.1, beta=1.0)
        for x in (-1.0, 5.0, [0.5, 5.0]):
            for ordering in (BD, MM):
                with pytest.raises(ValueError, match="outside the domain"):
                    m.flat_factor_derivatives(ordering, x)

    def test_weight_domain(self):
        # the domains end at 1/0.1 = 10 and 1/sqrt(0.1) = 3.16; past them the
        # stretch is negative and its fractional power complex
        clike = CoulombLike(D=3, lam=-0.1, Q=1.0)
        nlo = NonlinearOscillator(d=3, lam=-0.1, beta=1.0)
        for m, bad in ((clike, 20.0), (nlo, 5.0), (nlo, -1.0), (nlo, [0.5, 5.0])):
            with pytest.raises(ValueError, match="outside the domain"):
                m.weight(bad)
        r = np.linspace(0.0, 3.0, 7)
        assert nlo.weight(r).tobytes() == nlo._weight(r, nlo.stretch(r)).tobytes()
        assert clike.weight(2.0) == clike._weight(2.0, clike.stretch(2.0))

    def test_potential_lam_to_zero(self):
        # V1 -> -1/(4 r^2) + beta^2 r^2 for d=2, l=0
        r = np.linspace(0.5, 2.0, 5)
        m = NonlinearOscillator(d=2, lam=-1e-12, beta=1.0)
        got = m.pdm_potential(BD, 0.0, r)
        np.testing.assert_allclose(got, -0.25 / r**2 + r**2, rtol=1e-9)

    def test_potential_difference_mm_bd(self):
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        diff = m.pdm_potential(MM, 0.0, 1.0) - m.pdm_potential(BD, 0.0, 1.0)
        assert math.isclose(diff, (0.0025 - 0.05) / 0.9, rel_tol=1e-12)

    def test_coulomb_potential_coefficient_at_half_integer_dimension(self):
        # (2D-5) = 0 at D = 5/2: Coulomb coefficient is exactly Q
        m = CoulombLike(D=2.5, lam=-0.1, Q=1.3)
        R = np.linspace(0.5, 5.0, 7)
        cent = (0.0 + 0.75) * (0.0 - 0.25) / R**2
        np.testing.assert_allclose(m.pdm_potential(BD, 0.0, R), cent - 1.3 / R, rtol=1e-14)
        np.testing.assert_allclose(
            m.pdm_potential(BD, 0.0, R), m.pdm_potential(MM, 0.0, R), rtol=0
        )

    @pytest.mark.parametrize(
        "model", [NonlinearOscillator(d=3, lam=-0.1, beta=1.0), CoulombLike(D=3, lam=-0.1, Q=1.0)]
    )
    def test_mm_weight_is_root_of_the_mass(self, model):
        # w = m^(-2 xi): 1 for BD and m^(1/2) for MM, with p = 1/m in both
        r = np.linspace(0.2, 3.0, 7)
        t = model.stretch(r)
        for ordering, power in ((BD, 0.0), (MM, 0.5)):
            p, w, _, _ = model.coefficients(1.0, ordering, r, t)
            np.testing.assert_allclose(w, model.pdm_mass(r) ** power, rtol=1e-14)
            np.testing.assert_allclose(p, 1.0 / model.pdm_mass(r), rtol=1e-14)

    def test_general_von_roos_rejected(self):
        # a triple other than BD and MM is refused when it is made
        with pytest.raises(ValueError, match="PDM orderings are BD .* and MM .* only"):
            PdmOrdering((-0.5, 0.0, -0.5))
        with pytest.raises(ValueError, match="PDM orderings are BD .* and MM .* only"):
            PdmOrdering((math.nan, -1.0, 0.0))
        assert PdmOrdering((0, -1, 0)) == BD
        assert PdmOrdering((-0.25, -0.5, -0.25)) == MM

    @pytest.mark.parametrize(
        "model", [EuclideanOscillator(d=3, omega=1.3), EuclideanCoulomb(D=2.5, Q=1.3)]
    )
    def test_euclidean_models_are_the_pdm_form_at_lam_zero(self, model):
        # m = 1 and the orderings' shifts vanish: V1 = V2 = a(a-1)/r^2 + omega^2 r^2
        # and U = a(a-1)/R^2 - Q/R, the Euclidean flat potentials, a = l + (dim-1)/2
        r = np.linspace(0.2, 4.0, 9)
        for ang in (0.0, 1.0, 2.0):
            a = ang + (model.dim - 1.0) / 2.0
            tail = model.beta**2 * r * r if model.kind == "oscillator" else -model.Q / r
            for ordering in (BD, MM):
                for n_r in range(3):
                    assert model.pdm_energy(ordering, q(n_r, ang)) == model.energy(q(n_r, ang))
                flat = a * (a - 1.0) / r**2 + tail
                np.testing.assert_allclose(model.pdm_potential(ordering, ang, r), flat, rtol=1e-14)
                np.testing.assert_array_equal(model.pdm_mass(r), 1.0)

    def test_energies(self):
        m2 = NonlinearOscillator(d=2, lam=-0.3, beta=1.0)
        assert m2.pdm_energy(BD, q(1, 0)) == m2.energy(q(1, 0))  # d(d-2) = 0
        m4 = NonlinearOscillator(d=4, lam=-0.1, beta=1.0)
        assert math.isclose(m4.pdm_energy(BD, q(0, 0)), 2.1, rel_tol=1e-14)
        assert m4.pdm_energy(MM, q(0, 0)) == m4.pdm_energy(BD, q(0, 0))
        mc = CoulombLike(D=3, lam=-0.1, Q=1.0)
        assert math.isclose(mc.pdm_energy(BD, q(0, 0)), -0.1640625, rel_tol=1e-14)
        assert math.isclose(mc.pdm_energy(MM, q(0, 0)), -0.1653125, rel_tol=1e-14)

    def test_ordering_constraint(self):
        with pytest.raises(ValueError):
            PdmOrdering((0.0, 0.0, 0.0))


class TestFlatPictureFactor:
    def test_one_dimensional_limit(self):
        # no model has d = 1; at lam = 0 the factor is the bare radial power
        # r^((d-1)/2), which reduces to 1 there
        r = np.linspace(0.2, 3.0, 6)
        osc = EuclideanOscillator(d=3, omega=1.0).flat_factor_derivatives(BD, r)
        np.testing.assert_allclose(osc[0], r, rtol=0)
        coulomb = EuclideanCoulomb(D=2.0, Q=1.0).flat_factor_derivatives(BD, r)
        np.testing.assert_allclose(coulomb[0], np.sqrt(r))

    def test_values(self):
        m = NonlinearOscillator(d=3, lam=-0.1, beta=1.0)
        assert m.flat_factor_derivatives(BD, 1.0)[0] == pytest.approx(0.9 ** (-0.25))
        assert CoulombLike(D=3, lam=-0.1, Q=1.0).flat_factor_derivatives(BD, 2.0)[0] == pytest.approx(
            2.0 * 0.8 ** (-0.75)
        )


class TestDerivativeTriples:
    @pytest.mark.parametrize(
        "model,qq",
        [
            (EuclideanOscillator(d=3, omega=1.2), QuantumNumbers(1, 2)),
            (EuclideanCoulomb(D=3, Q=1.0), QuantumNumbers(1, 1)),
            (NonlinearOscillator(d=2, lam=-0.1, beta=1.0), QuantumNumbers(2, 1)),
            (CoulombLike(D=3, lam=0.2, Q=1.0), QuantumNumbers(1, 0)),
            # one row of each remaining closed-form family: the Jacobi form at
            # lam > 0 on the oscillator side and at lam < 0 on the Coulomb
            # side, and half-integer L in both Coulomb forms
            (NonlinearOscillator(d=3, lam=0.1, beta=1.0), QuantumNumbers(2, 1)),
            (CoulombLike(D=2.5, lam=-0.02, Q=1.0), QuantumNumbers(2, 0.5)),
            (EuclideanCoulomb(D=2.5, Q=1.0), QuantumNumbers(1, 0.5)),
            (CoulombLike(D=3, lam=0.1, Q=1.0), QuantumNumbers(1, 1.5)),
        ],
    )
    def test_against_finite_differences(self, model, qq):
        assert model.is_bound(qq)
        state = RadialState(model, qq)
        hi = model.domain[1]
        x = np.linspace(0.3, min(3.0, 0.8 * hi) if math.isfinite(hi) else 3.0, 9)
        f, f1, f2 = wavefunction_derivatives(model, qq, x)
        h = 1e-6
        fd1 = (state(x + h) - state(x - h)) / (2 * h)
        h2 = 1e-4  # larger step: the second difference amplifies roundoff by 1/h^2
        fd2 = (state(x + h2) - 2 * state(x) + state(x - h2)) / h2**2
        np.testing.assert_allclose(f, state(x), rtol=1e-14)
        scale1 = np.max(np.abs(f1))
        scale2 = np.max(np.abs(f2))
        np.testing.assert_allclose(f1, fd1, rtol=0, atol=1e-7 * scale1)
        np.testing.assert_allclose(f2, fd2, rtol=0, atol=1e-5 * scale2)


class TestDerivativesAtTheOrigin:
    """At ang = 1 the exponent of x in psi is 1: psi'' is finite at x = 0."""

    @pytest.mark.parametrize(
        "model",
        [
            EuclideanOscillator(d=3, omega=1.0),
            EuclideanCoulomb(D=3, Q=1.0),
            NonlinearOscillator(d=3, lam=-0.1, beta=1.0),
            CoulombLike(D=3, lam=-0.1, Q=1.0),
        ],
    )
    def test_ang_one(self, model):
        for qq in (q(0, 1), q(2, 1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                at_zero = model.derivatives(qq, 0.0)
            assert at_zero[0] == 0.0
            near = model.derivatives(qq, 1e-8)
            np.testing.assert_allclose(at_zero, near, rtol=0, atol=1e-6)

    def test_flat_factor_at_d3(self):
        # the flat factor's radial power is (d-1)/2 = 1 at d = 3
        m = NonlinearOscillator(d=3, lam=-0.1, beta=1.0)
        for ordering in (BD, MM):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                at_zero = m.flat_factor_derivatives(ordering, 0.0)
            near = m.flat_factor_derivatives(ordering, 1e-8)
            np.testing.assert_allclose(at_zero, near, rtol=0, atol=1e-8)


BLOCK_CASES = [
    (EuclideanOscillator(d=3, omega=1.2), q(3, 1)),
    (EuclideanCoulomb(D=2.5, Q=1.0), q(2, 0.5)),
    (NonlinearOscillator(d=3, lam=-0.1, beta=1.0), q(4, 0)),
    (CoulombLike(D=2.5, lam=0.02, Q=1.0), q(4, 0)),
]


# name -> (method, its arguments before the coordinate)
def _methods(qq):
    return {
        "wavefunction": ("wavefunction", (qq,)),
        "derivatives": ("derivatives", (qq,)),
        "flat_factor": ("flat_factor_derivatives", (BD,)),
        "weight": ("weight", ()),
    }


def _evaluators(model, qq):
    return {
        name: functools.partial(getattr(model, method), *head)
        for name, (method, head) in _methods(qq).items()
    }


def _outputs(value):
    return value if isinstance(value, tuple) else (value,)


def _grid(model, n):
    hi = model.domain[1]
    return np.linspace(1e-3, 0.999 * hi if math.isfinite(hi) else 8.0, n)


class TestBlockedEvaluation:
    """Inputs longer than ``_BLOCK`` points are evaluated a block at a time;
    the outputs are bit-identical to one evaluation of the whole input."""

    N = 3 * _BLOCK + 5
    CUT = _BLOCK + 7  # not a multiple of the block size

    @pytest.mark.parametrize("model,qq", BLOCK_CASES)
    @pytest.mark.parametrize("name", ["wavefunction", "derivatives", "flat_factor", "weight"])
    def test_split_equals_whole(self, model, qq, name):
        f = _evaluators(model, qq)[name]
        xs = _grid(model, self.N)
        whole = _outputs(f(xs))
        halves = zip(_outputs(f(xs[: self.CUT])), _outputs(f(xs[self.CUT :])))
        method, head = _methods(qq)[name]
        unblocked = getattr(type(model), method).__wrapped__
        for got, (a, b), want in zip(whole, halves, _outputs(unblocked(model, *head, xs))):
            assert got.shape == (self.N,)
            assert got.tobytes() == np.concatenate([a, b]).tobytes()
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model,qq", BLOCK_CASES)
    def test_shapes(self, model, qq):
        flat = _grid(model, 4 * 8193)
        grid = flat.reshape(4, 8193)
        for f in _evaluators(model, qq).values():
            for got, want in zip(_outputs(f(grid)), _outputs(f(flat))):
                assert got.shape == grid.shape
                assert got.tobytes() == want.reshape(grid.shape).tobytes()
            # a transposed view is not contiguous
            for got, want in zip(_outputs(f(grid.T)), _outputs(f(grid))):
                assert got.tobytes() == np.ascontiguousarray(want.T).tobytes()
            for value in _outputs(f(np.float64(0.5))):
                assert type(value) is float

    @pytest.mark.parametrize("model,qq", BLOCK_CASES)
    @pytest.mark.parametrize("bad,match", [(-1.0, "outside the domain"), (math.nan, "finite")])
    def test_bad_point_in_last_block_raises_first(self, model, qq, bad, match, monkeypatch):
        def evaluated(*args, **kwargs):
            raise AssertionError("a block was evaluated")

        for name in specfun.__all__:
            monkeypatch.setattr(specfun, name, evaluated)
        monkeypatch.setattr(type(model), "stretch", evaluated)
        xs = _grid(model, self.N)
        xs[-1] = bad
        for f in _evaluators(model, qq).values():
            with pytest.raises(ValueError, match=match):
                f(xs)


class TestBlockedMemory:
    """A 1e5-point evaluation holds its outputs plus one block of temporaries.

    tracemalloc counts NumPy's buffers, so the peak is deterministic, unlike
    the process RSS.  Unblocked, these ratios were 3.7-4.0 and 8.
    """

    @pytest.mark.parametrize(
        "model,top",
        [(CoulombLike(D=2.5, lam=0.02, Q=1.0), 60.0), (NonlinearOscillator(d=3, lam=0.05, beta=1.0), 6.0)],
    )
    def test_peak_per_output_byte(self, model, top):
        xs = np.linspace(1e-2, top, 100_000)
        for fn, outputs, bound in ((wavefunction_derivatives, 3, 2.0), (wavefunction, 1, 3.0)):
            fn(model, q(4), xs)
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                fn(model, q(4), xs)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                if not tracing:
                    tracemalloc.stop()
            assert peak <= bound * outputs * xs.nbytes, (fn.__name__, peak / (outputs * xs.nbytes))


class TestValidation:
    def test_model_invariants(self):
        with pytest.raises(ValueError):
            EuclideanOscillator(d=1, omega=1.0)
        with pytest.raises(ValueError):
            EuclideanOscillator(d=3, omega=-1.0)
        with pytest.raises(ValueError):
            EuclideanCoulomb(D=1.0, Q=1.0)
        with pytest.raises(ValueError):
            NonlinearOscillator(d=2, lam=-2.0, beta=1.0)  # beta(beta+lam) < 0
        with pytest.raises(ValueError):
            CoulombLike(D=3, lam=0.1, Q=-1.0)
        # lam = 0 is the Euclidean member, not a refusal
        assert NonlinearOscillator(d=2, lam=0.0, beta=1.0) == EuclideanOscillator(d=2, omega=1.0)

    @pytest.mark.parametrize(
        "cls,params,message",
        [
            (EuclideanOscillator, dict(d=3, omega=math.inf),
             "omega must be finite and positive, got inf"),
            (EuclideanCoulomb, dict(D=3, Q=math.nan),
             "coupling Q must be finite and positive, got nan"),
            (NonlinearOscillator, dict(d=3, lam=math.nan, beta=1.0),
             "lam must be finite, got nan"),
            (NonlinearOscillator, dict(d=3, lam=-0.1, beta=math.inf),
             "beta must be finite and positive, got inf"),
            (CoulombLike, dict(D=math.inf, lam=-0.1, Q=1.0),
             "dimension D must be finite and > 1, got inf"),
            (CoulombLike, dict(D=3, lam=-math.inf, Q=1.0),
             "lam must be finite, got -inf"),
        ],
        ids=["osc-omega", "coulomb-Q", "nlo-lam", "nlo-beta", "clike-D", "clike-lam"],
    )
    def test_non_finite_parameters_are_named(self, cls, params, message):
        # a NaN or infinite parameter is refused as not finite, with its value
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**params)

    def test_quantum_numbers(self):
        with pytest.raises(ValueError):
            QuantumNumbers(-1, 0)
        with pytest.raises(ValueError):
            QuantumNumbers(0, -0.5)
        qq = QuantumNumbers(2, 1)
        assert qq.n == 5 and qq.nu == 3

    @pytest.mark.parametrize(
        "args,error,message",
        [
            ((-1, 0), ValueError, "n_r must be an integer >= 0"),
            ((1.0, 0), ValueError, "n_r must be an integer >= 0"),
            (("1", 0), ValueError, "n_r must be an integer >= 0"),
            ((np.int64(-2),), ValueError, "n_r must be an integer >= 0"),
            ((-1, -1.0), ValueError, "n_r must be an integer >= 0"),  # n_r is checked first
            ((0, -0.5), ValueError, "ang must be >= 0"),
            ((0, math.nan), ValueError, "ang must be >= 0"),
            ((0, math.inf), ValueError, "ang must be >= 0"),
            ((0, "x"), ValueError, "could not convert"),
            ((0, None), TypeError, "float"),
        ],
    )
    def test_quantum_numbers_refusals(self, args, error, message):
        with pytest.raises(error, match=message):
            QuantumNumbers(*args)

    def test_quantum_numbers_hold_plain_numbers(self):
        # integer and real types of any kind become int and float, once
        for qq in (QuantumNumbers(np.int64(3), np.float32(1.5)), QuantumNumbers(n_r=3, ang=1.5)):
            assert (type(qq.n_r), type(qq.ang)) == (int, float)
            assert qq == QuantumNumbers(3, 1.5) and hash(qq) == hash(QuantumNumbers(3, 1.5))
        assert QuantumNumbers(2).ang == 0.0
        assert repr(QuantumNumbers(True, 2)) == "QuantumNumbers(n_r=1, ang=2.0)"
        assert dataclasses.replace(QuantumNumbers(3, 1.5), ang=2) == QuantumNumbers(3, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            QuantumNumbers(3).n_r = 4


class TestCheckCoordinate:
    model = NonlinearOscillator(d=2, lam=-0.25, beta=1.0)  # domain [0, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        for x in (bad, [0.5, bad, 1.0]):
            with pytest.raises(ValueError, match="coordinate must be finite"):
                _check_coordinate(self.model, x)

    @pytest.mark.parametrize("bad", [-1e-300, 2.0, 3.0])
    def test_outside_domain(self, bad):
        # the domain is closed at lo and open at hi
        for x in (bad, [0.5, bad, 1.0]):
            with pytest.raises(ValueError, match="outside the domain"):
                _check_coordinate(self.model, x)

    def test_accepts_inside_and_empty(self):
        got = _check_coordinate(self.model, [0.0, 1.0, 1.9999])
        assert got.tolist() == [0.0, 1.0, 1.9999]
        assert _check_coordinate(self.model, np.array([])).size == 0
        assert _check_coordinate(EuclideanOscillator(d=3, omega=1.0), 1e300) == 1e300
