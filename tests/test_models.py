"""Closed-form model tests: energies, wavefunctions, bound sets, PDM forms."""

import math

import numpy as np
import pytest

from oscoul.models import (
    BD,
    MM,
    CoulombLike,
    EuclideanCoulomb,
    EuclideanOscillator,
    NonlinearOscillator,
    PdmOrdering,
    QuantumNumbers,
    RadialState,
    _check_coordinate,
    clike_bound_states,
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
        c = m.weighted_coefficients(float(l))
        t = m.stretch(r)
        self.close(c["p"](r, t), [np.ones_like(r)])
        self.close(c["w"](r, t), [r ** (d - 1)])
        self.close(m.weight(r), [r ** (d - 1)])
        self.close(c["V"](r, t), [l * (l + d - 2) / r**2, omega**2 * r**2])
        self.close(c["c1"](r, t), [(d - 1) / r])
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
        c = m.weighted_coefficients(L)
        t = m.stretch(R)
        self.close(c["p"](R, t), [np.ones_like(R)])
        self.close(c["w"](R, t), [R ** (D - 1)])
        self.close(m.weight(R), [R ** (D - 1)])
        self.close(c["V"](R, t), [L * (L + D - 2) / R**2, -Q / R])
        self.close(c["c1"](R, t), [(D - 1) / R])
        assert m.domain == (0.0, math.inf)
        for n_r in range(4):
            nu = n_r + L
            self.close(m.energy(q(n_r, L)), [-(Q**2) / (2 * (2 * nu + D - 1) ** 2)])


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
        wp = CoulombLike(D=3, lam=-0.1, Q=1.0).wavefunction_params(q(0, 0))
        assert wp.rho == 1.0
        assert math.isclose(wp.sigma, 9.5, rel_tol=1e-13)
        assert math.isclose(wp.tau, 5.0, rel_tol=1e-13)

    def test_params_match_dual_oscillator(self):
        # sigma = -beta/lam - 1/2 and tau = -beta/(2 lam) with beta = 1
        lam = -0.1
        wp = CoulombLike(D=3, lam=lam, Q=1.0).wavefunction_params(q(0, 0))
        assert math.isclose(wp.sigma, -1.0 / lam - 0.5, rel_tol=1e-13)
        assert math.isclose(wp.tau, -1.0 / (2 * lam), rel_tol=1e-13)

    def test_rho_formula(self):
        for D, L in [(2.5, 0), (3, 1), (4, 2.5)]:
            wp = CoulombLike(D=D, lam=0.1, Q=1.0).wavefunction_params(q(1, L))
            assert wp.rho == 2 * L + D - 2

    def test_tau_small_lam_limit(self):
        # tau ~ sqrt(2|E|)/|lam| so (1+lam R)^tau -> exp(-sqrt(2|E|) R);
        # nu = 1 keeps a genuine O(lam) correction (nu = 0 is exact at all lam)
        kappa = 0.25  # sqrt(2 |E_1|) = Q/(2 nu + D - 1) for D=3, Q=1, nu=1
        ratios = []
        for lam in (-1e-2, -1e-3, -1e-4):
            wp = CoulombLike(D=3, lam=lam, Q=1.0).wavefunction_params(q(1, 0))
            ratios.append(wp.tau * abs(lam) / kappa)
        np.testing.assert_allclose(ratios, 1.0, rtol=3e-2)
        assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
        R = 2.0
        wp = CoulombLike(D=3, lam=-1e-4, Q=1.0).wavefunction_params(q(1, 0))
        assert abs((1.0 - 1e-4 * R) ** wp.tau - math.exp(-kappa * R)) < 1e-3

    def test_ground_wavefunction_is_pure_power(self):
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        wp = m.wavefunction_params(q(0, 0))
        R = np.linspace(0.3, 8.0, 9)
        np.testing.assert_allclose(
            m.wavefunction(q(0, 0), R), (1.0 - 0.1 * R) ** wp.tau, rtol=1e-14
        )


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


class TestPdm:
    def test_mass_values(self):
        assert NonlinearOscillator(d=2, lam=0.3, beta=1.0).pdm_mass(1e-12) == pytest.approx(1.0)
        assert CoulombLike(D=3, lam=-0.1, Q=1.0).pdm_mass(5.0) == pytest.approx(4.0)
        assert NonlinearOscillator(d=2, lam=0.2, beta=1.0).pdm_mass(2.0) == pytest.approx(1.0 / 1.8)

    def test_mass_domain(self):
        with pytest.raises(ValueError):
            CoulombLike(D=3, lam=-0.1, Q=1.0).pdm_mass(20.0)

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

    def test_general_von_roos_rejected(self):
        vr = PdmOrdering(-0.5, 0.0, -0.5)
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        with pytest.raises(ValueError):
            m.pdm_potential(vr, 0.0, 1.0)
        with pytest.raises(ValueError):
            m.pdm_energy(vr, q(0, 0))

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
            PdmOrdering(0.0, 0.0, 0.0)


class TestFlatPictureFactor:
    def test_one_dimensional_limit(self):
        # no model has d = 1; at lam = 0 the factor is the bare radial power
        # r^((d-1)/2), which reduces to 1 there
        r = np.linspace(0.2, 3.0, 6)
        np.testing.assert_allclose(EuclideanOscillator(d=3, omega=1.0).flat_factor(r), r, rtol=0)
        np.testing.assert_allclose(EuclideanCoulomb(D=2.0, Q=1.0).flat_factor(r), np.sqrt(r))

    def test_values(self):
        m = NonlinearOscillator(d=3, lam=-0.1, beta=1.0)
        assert m.flat_factor(1.0) == pytest.approx(0.9 ** (-0.25))
        assert CoulombLike(D=3, lam=-0.1, Q=1.0).flat_factor(2.0) == pytest.approx(
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
        ],
    )
    def test_against_finite_differences(self, model, qq):
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


class TestValidation:
    def test_model_invariants(self):
        with pytest.raises(ValueError):
            EuclideanOscillator(d=1, omega=1.0)
        with pytest.raises(ValueError):
            EuclideanOscillator(d=3, omega=-1.0)
        with pytest.raises(ValueError):
            EuclideanCoulomb(D=1.0, Q=1.0)
        with pytest.raises(ValueError):
            NonlinearOscillator(d=2, lam=0.0, beta=1.0)
        with pytest.raises(ValueError):
            NonlinearOscillator(d=2, lam=-2.0, beta=1.0)  # beta(beta+lam) < 0
        with pytest.raises(ValueError):
            CoulombLike(D=3, lam=0.1, Q=-1.0)

    def test_quantum_numbers(self):
        with pytest.raises(ValueError):
            QuantumNumbers(-1, 0)
        with pytest.raises(ValueError):
            QuantumNumbers(0, -0.5)
        qq = QuantumNumbers(2, 1)
        assert qq.n == 5 and qq.nu == 3


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
