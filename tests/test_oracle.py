"""Oracle tests: problem assembly against the radial equations, discretization
structure, eigenvalue extraction, residuals, and convergence behavior."""

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
        bc_inner="dirichlet",
    )
    return oracle.discretize(prob, n)


class TestDiscretize:
    def test_free_particle_matrix_entries(self):
        op = free_particle(3)
        h2 = (1.0 / 3.0) ** 2
        np.testing.assert_allclose(op.diag, 2.0 / h2, rtol=0)
        np.testing.assert_allclose(op.off, -1.0 / h2, rtol=0)

    def test_free_particle_spectrum(self):
        op = free_particle(3)
        h = 1.0 / 3.0
        expected = np.sort(2.0 * (1.0 - np.cos(np.arange(1, 4) * np.pi / 4.0)) / h**2)
        np.testing.assert_allclose(oracle.lowest_eigenvalues(op, 3), expected, rtol=1e-12)

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
        # every mapped coordinate y: W dy = w dr, V(y) = V(r(y)), P = p (dy/dr)^2
        for model, picture in [
            (NonlinearOscillator(d=2, lam=0.2, beta=1.0), "weighted"),  # s
            (NonlinearOscillator(d=2, lam=0.2, beta=1.0), "flat"),  # s
            (CoulombLike(D=3, lam=0.2, Q=1.0), "weighted"),  # x = sqrt(s)
            (CoulombLike(D=3, lam=-0.1, Q=1.0), "weighted"),  # x = sqrt(s)
            (CoulombLike(D=3, lam=0.2, Q=1.0), "flat"),  # s
        ]:
            to_r, _ = model.coordinate(picture)
            problem = oracle.build_problem(model, 1.0, picture, n_states=1)
            rad = (
                model.weighted_coefficients(1.0)
                if picture == "weighted"
                else model.flat_coefficients(1.0, BD)
            )
            y = np.linspace(0.2, 4.0, 9)
            r = to_r(y)[0]
            t = model.stretch(r)
            h = 1e-6
            dr_dy = (to_r(y + h)[0] - to_r(y - h)[0]) / (2 * h)
            np.testing.assert_allclose(problem.w(y), rad["w"](r, t) * dr_dy, rtol=1e-9)
            np.testing.assert_allclose(problem.potential(y), rad["V"](r, t), rtol=1e-12)
            np.testing.assert_allclose(problem.p(y), rad["p"](r, t) / dr_dy**2, rtol=1e-9)

    def test_far_tail_coefficients_use_the_stretch_directly(self):
        # at lam x^2 = -60, 1 + lam R(x) rounds to 0: a coefficient formed from
        # it is infinite or NaN there, while t = exp(lam x^2) keeps it exact
        model = CoulombLike(D=3, lam=-0.1, Q=1.0)
        problem = oracle.build_problem(model, 0.0, n_states=1)
        x = np.array([math.sqrt(600.0)])
        R, t, _ = model.coordinate("weighted")[0](x)
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
        bd = oracle.discretize(oracle.build_problem(m, 0.0, "flat", BD, n_states=1), 128)
        vr = oracle.discretize(
            oracle.build_problem(m, 0.0, "flat", PdmOrdering(0.0, -1.0, 0.0), n_states=1),
            128,
        )
        assert np.array_equal(bd.diag, vr.diag)
        assert np.array_equal(bd.off, vr.off)

    def test_von_roos_mm_triple_reproduces_mm_spectra(self):
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        mm = oracle.discretize(oracle.build_problem(m, 0.0, "flat", MM, n_states=1), 512)
        vr = oracle.discretize(
            oracle.build_problem(m, 0.0, "flat", PdmOrdering(-0.25, -0.5, -0.25), n_states=1),
            512,
        )
        e_mm = oracle.lowest_eigenvalues(mm, 2)
        e_vr = oracle.lowest_eigenvalues(vr, 2)
        np.testing.assert_allclose(e_vr, e_mm, rtol=0, atol=1e-10)

    def test_mm_equals_bd_for_oscillator(self):
        # 2E_2 = 2E_1: the reduced MM problem coincides with the BD one
        m = NonlinearOscillator(d=4, lam=-0.1, beta=1.0)
        bd = oracle.discretize(oracle.build_problem(m, 0.0, "flat", BD, n_states=1), 2048)
        mm = oracle.discretize(oracle.build_problem(m, 0.0, "flat", MM, n_states=1), 2048)
        np.testing.assert_allclose(
            oracle.lowest_eigenvalues(bd, 2), oracle.lowest_eigenvalues(mm, 2), rtol=1e-12
        )

    def test_pdm_ordering_energy_split(self):
        # Eq-(29) vs Eq-(30) spectra differ by the constant 2(E2 - E1) = -lam^2/4
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        bd = oracle.discretize(oracle.build_problem(m, 0.0, "flat", BD, n_states=1), 1024)
        mm = oracle.discretize(oracle.build_problem(m, 0.0, "flat", MM, n_states=1), 1024)
        diff = oracle.lowest_eigenvalues(mm, 1)[0] - oracle.lowest_eigenvalues(bd, 1)[0]
        assert abs(diff - (-0.01 / 4.0)) < 1e-10

    def test_weighted_vs_flat_shift(self):
        # flat eigenvalue = weighted eigenvalue - d(d-2) lam / 4 in the 2E convention
        m = NonlinearOscillator(d=4, lam=-0.1, beta=1.0)
        rep_w = oracle.convergence_study(m, 1.0, 1, [256, 512, 1024])
        rep_f = oracle.convergence_study(m, 1.0, 1, [256, 512, 1024], picture="flat", ordering=BD)
        shift = 4.0 * 2.0 * (-0.1) / 4.0
        assert abs(rep_f.extrapolated[0] - (rep_w.extrapolated[0] - shift)) < 1e-7

    def test_rejects_bad_combinations(self):
        with pytest.raises(ValueError):
            oracle.build_problem(EuclideanOscillator(d=3, omega=1.0), 0.0, picture="flat")
        with pytest.raises(ValueError):
            oracle.build_problem(
                NonlinearOscillator(d=2, lam=-0.1, beta=1.0), 0.0, ordering=BD
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
        assert oracle.residual_norm(st, samples, picture="flat", ordering=BD) <= 1e-12
        assert oracle.residual_norm(st, samples, picture="flat", ordering=MM) <= 1e-12

    def test_wrong_energy_gives_large_residual(self):
        m = EuclideanOscillator(d=3, omega=1.0)
        st = RadialState(m, QuantumNumbers(1, 0))
        good = oracle.residual_norm(st, np.linspace(0.2, 5.0, 30))
        bad_state = RadialState(EuclideanOscillator(d=3, omega=1.05), QuantumNumbers(1, 0))
        bad = oracle.residual_norm(bad_state, np.linspace(0.2, 5.0, 30))
        # the residual is computed against the *stated* model, so mixing a
        # different omega into the wavefunction is caught; sanity contrast
        assert good < 1e-12 < 1e-3


class TestConvergenceStudy:
    def test_nlo_reference_case(self):
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        rep = oracle.convergence_study(m, 1.0, 1, [512, 1024, 2048])
        assert rep.monotone[0]
        assert 1.5 <= rep.observed_order[0] <= 2.5
        assert abs(rep.extrapolated[0] - 4.2) <= 1e-6 * 4.2

    def test_pdm_coulomb_reference_case(self):
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        rep = oracle.convergence_study(m, 0.0, 1, [512, 1024, 2048], picture="flat", ordering=BD)
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

    @staticmethod
    def spy_solves(monkeypatch):
        real = kernels.lowest_eigenvalues_tridiag
        calls = []

        def spy(diag, off, k):
            calls.append(k)
            return real(diag, off, k)

        monkeypatch.setattr(kernels, "lowest_eigenvalues_tridiag", spy)
        return calls

    def test_shared_domain_solves_once_per_grid(self, monkeypatch):
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        grids = [128, 256, 512]
        calls = self.spy_solves(monkeypatch)
        rep = oracle.convergence_study(m, 1.0, 3, grids)
        assert calls == [3] * len(grids)
        for j in range(3):
            problem = oracle.build_problem(m, 1.0, n_states=j + 1)
            for i, N in enumerate(grids):
                alone = oracle.lowest_eigenvalues(oracle.discretize(problem, N), j + 1)[j]
                assert rep.eigenvalues[i][j] == pytest.approx(alone, rel=1e-12, abs=0)

    def test_own_truncation_solves_per_state(self, monkeypatch):
        m = CoulombLike(D=3, lam=0.05, Q=1.0)
        grids = [128, 256, 512]
        calls = self.spy_solves(monkeypatch)
        oracle.convergence_study(m, 0.0, 3, grids)
        assert calls == [j + 1 for j in range(3) for _ in grids]

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
    # its bulk runs to R of about 70; the first node must not end the scan
    m = EuclideanCoulomb(D=3, Q=1.0)
    samples = oracle.default_samples(m, QuantumNumbers(2, 0.0))
    assert samples.max() > 3.0 * (3.0 + math.sqrt(3.0))


@pytest.mark.parametrize(
    "model", [CoulombLike(D=3, lam=-0.1, Q=1.0), NonlinearOscillator(d=2, lam=-0.1, beta=1.0)]
)
def test_study_without_closed_form_fails_before_solving(model, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve ran before the closed-form check")

    monkeypatch.setattr(kernels, "lowest_eigenvalues_tridiag", no_solve)
    with pytest.raises(ValueError, match="closed-form PDM energies exist only"):
        oracle.convergence_study(
            model, 0.0, 2, GRIDS, picture="flat", ordering=PdmOrdering(-0.5, 0, -0.5)
        )


def _weighted_channels():
    """Every weighted channel of the sweep with its bound states n_r < 5."""
    models = [
        CoulombLike(D=D, lam=lam, Q=1.0)
        for D in (2.0, 2.5, 3.0, 4.0)
        for lam in (-0.1, -0.02, 0.02, 0.1)
    ]
    models += [
        NonlinearOscillator(d=d, lam=lam, beta=1.0) for d in (2, 3, 4) for lam in (-0.1, 0.05)
    ]
    for m in models:
        angs = (0.0, 0.5, 1.0, 1.5) if isinstance(m, CoulombLike) else (0.0, 1.0, 2.0)
        for ang in angs:
            k = 0
            while k < 5 and m.is_bound(QuantumNumbers(k, ang)):
                k += 1
            if k:  # a channel with no bound state has nothing to check
                yield pytest.param(m, ang, k, id=f"{m.kind}-dim{m.dim}-lam{m.lam}-ang{ang}")


@pytest.mark.parametrize("model,ang,k", list(_weighted_channels()))
def test_weighted_sweep(model, ang, k):
    # every bound state n_r < 5 of the weighted curved problems: the oracle
    # meets the closed form to 1e-6 with an observed order in [1.5, 2.5]
    rep = oracle.convergence_study(model, ang, k, GRIDS)
    for j in range(k):
        assert rep.rel_error[j] <= 1e-6, (j, rep.rel_error[j])
        assert 1.5 <= rep.observed_order[j] <= 2.5, (j, rep.observed_order[j])


class TestVariationalMonotonicity:
    def test_eigenvalues_decrease_with_domain_at_fixed_h(self):
        # nested Dirichlet domains at shared grid spacing: principal-submatrix
        # interlacing makes the lowest eigenvalue exactly non-increasing
        m = NonlinearOscillator(d=2, lam=0.2, beta=1.0)
        h = 20.0 / 512.0
        values = []
        for cells in (512, 640, 768, 1024):
            prob = oracle.build_problem(m, 1.0, n_states=1, r_max=cells * h)
            op = oracle.discretize(prob, cells)
            values.append(oracle.lowest_eigenvalues(op, 1)[0])
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-9)
