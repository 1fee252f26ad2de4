"""Oracle tests: problem assembly against the radial equations, discretization
structure, eigenvalue extraction, residuals, and convergence behavior."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from oscoul import kernels, oracle
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
)

GRIDS = [512, 1024, 2048]


def free_particle(n=3):
    prob = oracle.SturmLiouvilleProblem(
        p=lambda x: np.ones_like(x),
        w=lambda x: np.ones_like(x),
        potential=lambda x: np.zeros_like(x),
        domain=(0.0, 1.0),
    )
    return oracle.discretize(prob, n)


class TestDiscretize:
    def test_free_particle_matrix_entries(self):
        # the natural row carries only the flux to its neighbour: 1/h^2 on the
        # first row; the outer Dirichlet row keeps the wall flux, 2/h^2
        for n in (3, 5):
            op = free_particle(n)
            h2 = (1.0 / n) ** 2
            np.testing.assert_allclose(op.diag, np.r_[1.0, np.full(n - 1, 2.0)] / h2, rtol=0)
            np.testing.assert_allclose(op.off, -1.0 / h2, rtol=0)

    def test_free_particle_spectrum(self):
        # [1, 2, ..., 2]/h^2 with -1/h^2 couplings: 2 (1 - cos((2k - 1) pi / (2n + 1))) / h^2
        for n in (3, 5, 8):
            op = free_particle(n)
            k = np.arange(1, n + 1)
            expected = 2.0 * (1.0 - np.cos((2.0 * k - 1.0) * np.pi / (2 * n + 1))) * n**2
            np.testing.assert_allclose(oracle.lowest_eigenvalues(op, n), expected, rtol=1e-12)

    def test_oscillator_eigenvalue_at_2048(self):
        m = EuclideanOscillator(d=3, omega=1.0)
        op = oracle.discretize(oracle.build_problem(m, 0.0, n_states=1), 2048)
        assert abs(oracle.lowest_eigenvalues(op, 1)[0] - 3.0) < 5e-5

    def test_rejects_tiny_grids(self):
        prob = oracle.build_problem(EuclideanOscillator(d=3, omega=1.0), 0.0, n_states=1)
        with pytest.raises(ValueError):
            oracle.discretize(prob, 2)

    def test_matrix_is_m_matrix(self):
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        op = oracle.discretize(oracle.build_problem(m, 1.0, n_states=2), 64)
        assert np.all(op.off < 0)


class TestBuildProblem:
    @pytest.mark.parametrize(
        "model,ang",
        [
            (EuclideanOscillator(d=3, omega=1.2), 1.0),
            (EuclideanCoulomb(D=3, Q=1.0), 1.0),
            (NonlinearOscillator(d=2, lam=-0.1, beta=1.0), 1.0),
            (CoulombLike(D=3, lam=-0.1, Q=1.0), 1.0),
        ],
    )
    def test_weighted_reproduces_radial_equation(self, model, ang):
        # (1/w)(p w psi')' must expand to p psi'' + c1 psi' with the paper's c1,
        # checked via numerical differentiation of p and w at sample points
        coeff = model.weighted_coefficients(ang)

        def at(key, x):
            return coeff[key](x, model.stretch(x))

        hi = model.domain[1]
        x = np.linspace(0.3, 0.8 * (hi if math.isfinite(hi) else 5.0), 7)
        h = 1e-6
        dp = (at("p", x + h) - at("p", x - h)) / (2 * h)
        dw = (at("w", x + h) - at("w", x - h)) / (2 * h)
        c1 = dp + at("p", x) * dw / at("w", x)
        np.testing.assert_allclose(c1, at("c1", x), rtol=1e-6, atol=1e-8)

    def test_geodesic_transform_keeps_measure_and_potential(self):
        # every mapped coordinate y: W dy = w dr, V(y) = V(r(y)), P = p (dy/dr)^2;
        # the flat picture (weight 1) first gauged by r^a: r^(2a), V - a c1/r - a(a-1) p/r^2
        for model, ordering in [
            (NonlinearOscillator(d=2, lam=0.2, beta=1.0), None),  # s
            (NonlinearOscillator(d=2, lam=0.2, beta=1.0), BD),  # s
            (NonlinearOscillator(d=3, lam=-0.1, beta=1.0), BD),  # r
            (CoulombLike(D=3, lam=0.2, Q=1.0), None),  # x = sqrt(s)
            (CoulombLike(D=3, lam=-0.1, Q=1.0), None),  # x = sqrt(s)
            (CoulombLike(D=3, lam=0.2, Q=1.0), BD),  # x = sqrt(s)
            (CoulombLike(D=2.5, lam=-0.1, Q=1.0), MM),  # x = sqrt(s)
            (EuclideanCoulomb(D=3, Q=1.0), None),  # x = sqrt(R)
        ]:
            to_r, _ = model.coordinate()
            problem = oracle.build_problem(model, 1.0, ordering, n_states=1)
            y = np.linspace(0.2, 4.0, 9)
            r = to_r(y)[0]
            t = model.stretch(r)
            if ordering is None:
                rad = model.weighted_coefficients(1.0)
                w, V = rad["w"](r, t), rad["V"](r, t)
            else:
                rad = model.flat_coefficients(1.0, ordering)
                a = model.flat_exponent(1.0)
                assert a == 1.0 + (model.dim - 1.0) / 2.0
                w = r ** (2.0 * a)
                gauge = a * rad["c1"](r, t) / r + a * (a - 1.0) * rad["p"](r, t) / r**2
                V = rad["V"](r, t) - gauge
            h = 1e-6
            dr_dy = (to_r(y + h)[0] - to_r(y - h)[0]) / (2 * h)
            np.testing.assert_allclose(problem.w(y), w * dr_dy, rtol=1e-9)
            np.testing.assert_allclose(problem.potential(y), V, rtol=1e-12)
            np.testing.assert_allclose(problem.p(y), rad["p"](r, t) / dr_dy**2, rtol=1e-9)

    def test_far_tail_coefficients_use_the_stretch_directly(self):
        # at lam x^2 = -60, 1 + lam R(x) rounds to 0: a coefficient formed from
        # it is infinite or NaN there, while t = exp(lam x^2) keeps it exact
        model = CoulombLike(D=3, lam=-0.1, Q=1.0)
        problem = oracle.build_problem(model, 0.0, n_states=1)
        x = np.array([math.sqrt(600.0)])
        R, t = model.coordinate()[0](x)[:2]
        assert 1.0 + model.lam * R[0] == 0.0 and t[0] > 0.0
        P, V, W = problem.p(x)[0], problem.potential(x)[0], problem.w(x)[0]
        assert np.isfinite([P, V, W]).all() and W > 0
        # W = t^(-3/2) R^2 * 2 x t with t = e^-60 and R = 1/|lam|
        assert W == pytest.approx(2.0 * x[0] * math.exp(30.0) * 100.0, rel=1e-12)
        assert P == pytest.approx(1.0 / (4.0 * x[0] ** 2), rel=1e-12)

    def test_flat_picture_bd_potential_is_v1(self):
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        coeff = m.flat_coefficients(1.0, BD)
        r = np.linspace(0.3, 2.5, 7)
        v1 = (1.0 + 0.5) * (1.0 - 0.5) / r**2 + (0.9 * r**2 + 0.025) / (1.0 - 0.1 * r**2)
        np.testing.assert_allclose(coeff["V"](r, m.stretch(r)), v1, rtol=1e-13)

    def test_von_roos_bd_triple_reproduces_bd_exactly(self):
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        bd = oracle.discretize(oracle.build_problem(m, 0.0, BD, n_states=1), 128)
        vr = oracle.discretize(
            oracle.build_problem(m, 0.0, PdmOrdering(0.0, -1.0, 0.0), n_states=1),
            128,
        )
        assert np.array_equal(bd.diag, vr.diag)
        assert np.array_equal(bd.off, vr.off)

    def test_von_roos_mm_triple_reproduces_mm_spectra(self):
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        mm = oracle.discretize(oracle.build_problem(m, 0.0, MM, n_states=1), 512)
        vr = oracle.discretize(
            oracle.build_problem(m, 0.0, PdmOrdering(-0.25, -0.5, -0.25), n_states=1),
            512,
        )
        e_mm = oracle.lowest_eigenvalues(mm, 2)
        e_vr = oracle.lowest_eigenvalues(vr, 2)
        np.testing.assert_allclose(e_vr, e_mm, rtol=0, atol=1e-10)

    def test_mm_equals_bd_for_oscillator(self):
        # 2E_2 = 2E_1: the reduced MM problem coincides with the BD one
        m = NonlinearOscillator(d=4, lam=-0.1, beta=1.0)
        bd = oracle.discretize(oracle.build_problem(m, 0.0, BD, n_states=1), 2048)
        mm = oracle.discretize(oracle.build_problem(m, 0.0, MM, n_states=1), 2048)
        np.testing.assert_allclose(
            oracle.lowest_eigenvalues(bd, 2), oracle.lowest_eigenvalues(mm, 2), rtol=1e-12
        )

    def test_pdm_ordering_energy_split(self):
        # Eq-(29) vs Eq-(30) spectra differ by the constant 2(E2 - E1) = -lam^2/4
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        bd = oracle.discretize(oracle.build_problem(m, 0.0, BD, n_states=1), 1024)
        mm = oracle.discretize(oracle.build_problem(m, 0.0, MM, n_states=1), 1024)
        diff = oracle.lowest_eigenvalues(mm, 1)[0] - oracle.lowest_eigenvalues(bd, 1)[0]
        assert abs(diff - (-0.01 / 4.0)) < 1e-10

    def test_weighted_vs_flat_shift(self):
        # flat eigenvalue = weighted eigenvalue - d(d-2) lam / 4 in the 2E convention
        m = NonlinearOscillator(d=4, lam=-0.1, beta=1.0)
        rep_w = oracle.convergence_study(m, 1.0, 1, [256, 512, 1024])
        rep_f = oracle.convergence_study(m, 1.0, 1, [256, 512, 1024], ordering=BD)
        shift = 4.0 * 2.0 * (-0.1) / 4.0
        assert abs(rep_f.extrapolated[0] - (rep_w.extrapolated[0] - shift)) < 1e-7

    def test_rejects_bad_combinations(self):
        # the Euclidean models have no PDM picture; BD and MM are the only orderings
        with pytest.raises(ValueError, match="curved models only"):
            oracle.build_problem(EuclideanOscillator(d=3, omega=1.0), 0.0, BD)
        with pytest.raises(ValueError, match="curved models only"):
            oracle.residual_norm(
                RadialState(EuclideanCoulomb(D=3, Q=1.0), QuantumNumbers(0, 0)), [1.0], MM
            )
        with pytest.raises(ValueError):
            PdmOrdering(1.0, 1.0, 1.0)

    def test_truncation_requires_bound_state(self):
        m = NonlinearOscillator(d=2, lam=0.2, beta=1.0)
        with pytest.raises(ValueError):
            oracle.truncation_radius(m, 0.0, 3)  # n = 6 > n_max = 4


class TestLowestEigenvalues:
    def test_identity_shift(self):
        op = free_particle(24)
        base = oracle.lowest_eigenvalues(op, 3)
        shifted = oracle.DiscreteOperator(op.diag + 5.0, op.off, op.h, op.nodes)
        np.testing.assert_allclose(
            oracle.lowest_eigenvalues(shifted, 3) - base, 5.0, atol=1e-10
        )

    def test_nlo_excited_levels(self):
        # d=2, lam=-0.1, beta=1, l=1: 2E for n = 1, 3, 5 is 4.2, 9.2, 15.0
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        op = oracle.discretize(oracle.build_problem(m, 1.0, n_states=3), 4096)
        got = oracle.lowest_eigenvalues(op, 3)
        np.testing.assert_allclose(got, [4.2, 9.2, 15.0], rtol=2e-5)

    def test_k_validation(self):
        op = free_particle(8)
        with pytest.raises(ValueError):
            oracle.lowest_eigenvalues(op, 0)
        with pytest.raises(ValueError):
            oracle.lowest_eigenvalues(op, 9)


class TestResiduals:
    def test_euclid_oscillator_ground(self):
        st = RadialState(EuclideanOscillator(d=5, omega=0.7), QuantumNumbers(0, 0))
        assert oracle.residual_norm(st, np.linspace(0.1, 6.0, 50)) <= 1e-13

    def test_curved_states(self):
        cases = [
            (NonlinearOscillator(d=4, lam=-0.1, beta=1.0), QuantumNumbers(1, 0), 3.0),
            (CoulombLike(D=3, lam=0.2, Q=1.0), QuantumNumbers(1, 0), 30.0),
            (EuclideanCoulomb(D=3, Q=1.0), QuantumNumbers(2, 1), 30.0),
        ]
        for model, q, hi in cases:
            st = RadialState(model, q)
            assert oracle.residual_norm(st, np.linspace(0.1, hi, 50)) <= 1e-10

    def test_flat_picture_residuals(self):
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        st = RadialState(m, QuantumNumbers(0, 0))
        samples = np.linspace(0.3, 8.0, 50)
        assert oracle.residual_norm(st, samples, BD) <= 1e-12
        assert oracle.residual_norm(st, samples, MM) <= 1e-12

    def test_wrong_energy_gives_large_residual(self, monkeypatch):
        st = RadialState(EuclideanOscillator(d=3, omega=1.0), QuantumNumbers(1, 0))
        samples = np.linspace(0.2, 5.0, 30)
        good = oracle.residual_norm(st, samples)
        # the same state checked against an energy 5 % too high
        energy = EuclideanOscillator.energy
        monkeypatch.setattr(EuclideanOscillator, "energy", lambda self, q: 1.05 * energy(self, q))
        bad = oracle.residual_norm(st, samples)
        assert good <= 1e-12
        assert bad > 1e-3


class TestConvergenceStudy:
    def test_nlo_reference_case(self):
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        rep = oracle.convergence_study(m, 1.0, 1, [512, 1024, 2048])
        assert rep.monotone[0]
        assert 1.5 <= rep.observed_order[0] <= 2.5
        assert abs(rep.extrapolated[0] - 4.2) <= 1e-6 * 4.2

    def test_pdm_coulomb_reference_case(self):
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        rep = oracle.convergence_study(m, 0.0, 1, [512, 1024, 2048], ordering=BD)
        assert abs(rep.extrapolated[0] - (-0.328125)) <= 1e-6 * 0.328125

    def test_euclid_coulomb_case(self):
        rep = oracle.convergence_study(EuclideanCoulomb(D=3, Q=1.0), 0.0, 1, [512, 1024, 2048])
        assert abs(rep.extrapolated[0] - (-0.25)) <= 1e-6 * 0.25

    def test_grid_validation(self):
        m = EuclideanOscillator(d=3, omega=1.0)
        with pytest.raises(ValueError):
            oracle.convergence_study(m, 0.0, 1, [512, 1024])
        with pytest.raises(ValueError):
            oracle.convergence_study(m, 0.0, 1, [512, 512, 1024])

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_states_is_an_error(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            oracle.convergence_study(EuclideanOscillator(d=3, omega=1.0), 0.0, k, [512, 1024, 2048])

    @staticmethod
    def spy_solves(monkeypatch):
        """Record (k, first, bracketed) of each kernel call."""
        real = kernels.lowest_eigenvalues_tridiag
        calls = []

        def spy(diag, off, k, first=0, brackets=None):
            calls.append((k, first, brackets is not None))
            return real(diag, off, k, first, brackets)

        monkeypatch.setattr(kernels, "lowest_eigenvalues_tridiag", spy)
        return calls

    @staticmethod
    def eigenvalue_count(calls):
        return sum(k - first for k, first, _ in calls)

    def test_shared_domain_solves_once_per_grid(self, monkeypatch):
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        grids = [128, 256, 512]
        calls = self.spy_solves(monkeypatch)
        rep = oracle.convergence_study(m, 1.0, 3, grids)
        # one solve per grid; every grid after the coarsest starts from brackets
        assert calls == [(3, 0, False), (3, 0, True), (3, 0, True)]
        assert self.eigenvalue_count(calls) == 9
        for j in range(3):
            problem = oracle.build_problem(m, 1.0, n_states=j + 1)
            for i, N in enumerate(grids):
                alone = oracle.lowest_eigenvalues(oracle.discretize(problem, N), j + 1)[j]
                assert rep.eigenvalues[i][j] == pytest.approx(alone, rel=1e-12, abs=0)

    def test_own_truncation_solves_per_state(self, monkeypatch):
        m = CoulombLike(D=3, lam=0.05, Q=1.0)
        grids = [128, 256, 512]
        calls = self.spy_solves(monkeypatch)
        rep = oracle.convergence_study(m, 0.0, 3, grids)
        # state j alone on its domain: only index j is computed, on each grid
        assert calls == [(j + 1, j, i > 0) for j in range(3) for i in range(len(grids))]
        assert self.eigenvalue_count(calls) == 9
        for j in range(3):
            problem = oracle.build_problem(m, 0.0, n_states=j + 1)
            for i, N in enumerate(grids):
                alone = oracle.lowest_eigenvalues(oracle.discretize(problem, N), j + 1)[j]
                assert rep.eigenvalues[i][j] == pytest.approx(alone, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "D,lam,L,states",
        [(3.0, -0.1, 0.0, [2]), (3.0, 0.05, 0.0, [2]), (2.5, -0.05, 0.5, [0, 1, 2])],
        ids=["D3-lam-0.1-nr2", "D3-lam0.05-nr2", "D2.5-lam-0.05-L0.5"],
    )
    def test_states_the_radial_grid_missed(self, D, lam, L, states):
        # near-threshold and half-integer-L states: on a uniform grid in R these
        # erred by 4.0e-3 and 1.0e-6, or converged at order 0.95 or less
        rep = oracle.convergence_study(CoulombLike(D=D, lam=lam, Q=1.0), L, max(states) + 1, GRIDS)
        for j in states:
            assert rep.rel_error[j] <= 1e-6, (j, rep.rel_error[j])
            assert 1.5 <= rep.observed_order[j] <= 2.5, (j, rep.observed_order[j])


def test_default_samples_reach_past_the_last_node():
    # Euclidean Coulomb D=3 Q=1 L=0 n_r=2 has nodes at R = 3(3 -+ sqrt 3) and
    # its bulk runs to R of about 70; the samples must reach past the last node
    m = EuclideanCoulomb(D=3, Q=1.0)
    cutoff = oracle.truncation_radius(m, 0.0, 2)
    samples = oracle.default_samples(m, cutoff)
    assert samples.max() > 3.0 * (3.0 + math.sqrt(3.0))


@pytest.mark.parametrize("n_r", [0, 1])
def test_default_samples_find_a_state_inside_unit_radius(n_r):
    # osc d=3 omega=5000 lives within r of about 0.05; samples placed from
    # r = 1 outward would all sit where the operator underflows
    m = EuclideanOscillator(d=3, omega=5000.0)
    q = QuantumNumbers(n_r, 0.0)
    samples = oracle.default_samples(m, oracle.truncation_radius(m, 0.0, n_r))
    assert samples.max() < 0.1
    assert oracle.residual_norm(RadialState(m, q), samples) <= 1e-9


@pytest.mark.parametrize(
    "model,ordering",
    [(NonlinearOscillator(d=3, lam=0.05, beta=1.0), None),
     (CoulombLike(D=3, lam=0.05, Q=1.0), BD)],
    ids=["nlo-weighted", "clike-flat"],
)
def test_study_reports_each_states_cutoff(model, ordering):
    # the y-domain each state was solved on ends where truncation_radius cuts
    # it, in either picture
    rep = oracle.convergence_study(model, 0.0, 2, [128, 256, 512], ordering)
    assert rep.cutoffs == tuple(oracle.truncation_radius(model, 0.0, j) for j in range(2))


@pytest.mark.parametrize(
    "model", [CoulombLike(D=3, lam=-0.1, Q=1.0), NonlinearOscillator(d=2, lam=-0.1, beta=1.0)]
)
def test_study_without_closed_form_fails_before_solving(model, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve ran before the closed-form check")

    monkeypatch.setattr(kernels, "lowest_eigenvalues_tridiag", no_solve)
    with pytest.raises(ValueError, match="PDM orderings are BD .* and MM .* only"):
        oracle.convergence_study(model, 0.0, 2, GRIDS, PdmOrdering(-0.5, 0, -0.5))


# The sweep: every bound state n_r < 5 of these channels, in the weighted
# picture and (curved models) the flat picture with BD and MM, 1061 checks.
# A check passes when the oracle meets the closed form to 1e-6 with an
# observed order in [1.5, 2.5].
SWEEP_CURVED = [
    CoulombLike(D=D, lam=lam, Q=1.0)
    for D in (2.0, 2.5, 3.0, 4.0)
    for lam in (-0.1, -0.02, 0.02, 0.1)
] + [NonlinearOscillator(d=d, lam=lam, beta=1.0) for d in (2, 3, 4) for lam in (-0.1, 0.05)]
SWEEP_EUCLIDEAN = [EuclideanCoulomb(D=D, Q=1.0) for D in (2.0, 2.5, 3.0, 4.0)] + [
    EuclideanOscillator(d=d, omega=1.0) for d in (2, 3, 4)
]

ITEM2 = "ROADMAP item 2: flat Coulomb-like state near threshold at lam > 0 (larger h^2 constant)"
ITEM3 = "ROADMAP item 3: accurate answer (error < 5e-12) that reads order about 4"
# each known miss: (D, lam, L, n_r, ordering) in the flat picture and
# (kind, dim, ang, n_r) for the Euclidean models
KNOWN_MISSES = {
    **{
        (D, lam, L, n_r, o): ITEM2
        for D, lam, L, n_r, orderings in [
            (2.0, 0.02, 1.5, 3, "bd mm"),
            (2.0, 0.1, 0.5, 2, "bd mm"),
            (2.5, 0.1, 1.5, 1, "bd mm"),
            (3.0, 0.1, 0.0, 2, "bd mm"),
            (3.0, 0.1, 1.0, 1, "bd"),
            (3.0, 0.1, 1.5, 1, "bd mm"),
            (4.0, 0.02, 1.5, 4, "bd mm"),
            (4.0, 0.1, 0.5, 1, "bd mm"),
        ]
        for o in orderings.split()
    },
    ("coulomb", 3.0, 0.0, 0): ITEM3,
    ("coulomb", 4.0, 0.5, 0): ITEM3,
    ("oscillator", 4.0, 0.0, 0): ITEM3,
}


def _bound_count(model, ang):
    k = 0
    while k < 5 and model.is_bound(QuantumNumbers(k, ang)):
        k += 1
    return k


def _angs(model):
    return (0.0, 0.5, 1.0, 1.5) if model.kind == "coulomb" else (0.0, 1.0, 2.0)


@functools.cache
def _study(model, ang, k, ordering=None):
    return oracle.convergence_study(model, ang, k, GRIDS, ordering)


def _assert_check(rep, j):
    assert rep.rel_error[j] <= 1e-6, (j, rep.rel_error[j])
    assert 1.5 <= rep.observed_order[j] <= 2.5, (j, rep.observed_order[j])


def _weighted_channels():
    """Every weighted curved channel of the sweep with a bound state."""
    for m in SWEEP_CURVED:
        for ang in _angs(m):
            if k := _bound_count(m, ang):
                yield pytest.param(m, ang, k, id=f"{m.kind}-dim{m.dim}-lam{m.lam}-ang{ang}")


def _state_checks(models, orderings):
    """One param per (channel, ordering, n_r); a known miss is a strict xfail."""
    for m in models:
        for ang in _angs(m):
            k = _bound_count(m, ang)
            for name, ordering in orderings:
                for j in range(k):
                    key = (m.dim, m.lam, ang, j, name) if name else (m.kind, m.dim, ang, j)
                    reason = KNOWN_MISSES.get(key)
                    suffix = f"-{name}-nr{j}" if name else f"-nr{j}"
                    yield pytest.param(
                        m, ang, k, ordering, j,
                        id=f"{m.kind}-dim{m.dim}-lam{m.lam}-ang{ang}{suffix}",
                        marks=[pytest.mark.xfail(strict=True, reason=reason)] if reason else [],
                    )


@pytest.mark.parametrize("model,ang,k", list(_weighted_channels()))
def test_weighted_sweep(model, ang, k):
    # the weighted curved pictures have no known miss: a channel per test
    rep = _study(model, ang, k)
    for j in range(k):
        _assert_check(rep, j)


FLAT_ORDERINGS = [("bd", BD), ("mm", MM)]


@pytest.mark.parametrize(
    "model,ang,k,ordering,n_r", list(_state_checks(SWEEP_CURVED, FLAT_ORDERINGS))
)
def test_flat_sweep(model, ang, k, ordering, n_r):
    # the PDM flat picture, gauged by r^a and solved in the weighted coordinate
    _assert_check(_study(model, ang, k, ordering), n_r)


@pytest.mark.parametrize(
    "model,ang,k,ordering,n_r", list(_state_checks(SWEEP_EUCLIDEAN, [("", None)]))
)
def test_euclidean_sweep(model, ang, k, ordering, n_r):
    # the weighted picture at lam = 0; Euclidean Coulomb is solved in x = sqrt(R)
    _assert_check(_study(model, ang, k), n_r)


def test_sweep_holds_1061_checks():
    weighted = sum(p.values[2] for p in _weighted_channels())
    flat = len(list(_state_checks(SWEEP_CURVED, FLAT_ORDERINGS)))
    euclidean = len(list(_state_checks(SWEEP_EUCLIDEAN, [("", None)])))
    assert (weighted, flat, euclidean) == (312, 624, 125)


class TestVariationalMonotonicity:
    def test_eigenvalues_decrease_with_domain_at_fixed_h(self):
        # nested Dirichlet domains at shared grid spacing: principal-submatrix
        # interlacing makes the lowest eigenvalue exactly non-increasing
        m = NonlinearOscillator(d=2, lam=0.2, beta=1.0)
        h = 20.0 / 512.0
        problem = oracle.build_problem(m, 1.0, n_states=1)
        values = []
        for cells in (512, 640, 768, 1024):
            prob = dataclasses.replace(problem, domain=(0.0, cells * h))
            op = oracle.discretize(prob, cells)
            values.append(oracle.lowest_eigenvalues(op, 1)[0])
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-9)
