"""Oracle tests: problem assembly against the radial equations, discretization
structure, eigenvalue extraction, residuals, and convergence behavior."""

import dataclasses
import functools
import math
import re

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


def resolution(N):
    """The relative width to which a study bisects the eigenvalues of N cells."""
    return N * np.finfo(float).eps


def free_problem(p=np.ones_like, w=np.ones_like, potential=np.zeros_like):
    """-d^2/dx^2 on (0, 1), or the problem with the given coefficient functions."""
    return oracle.SturmLiouvilleProblem(lambda x: (p(x), w(x), potential(x)), (0.0, 1.0))


def free_particle(n=3):
    return oracle.discretize(free_problem(), n)


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

    # a doubling ladder of powers of two, and one of other sizes
    @pytest.mark.parametrize("grids", [GRIDS, [300, 600, 1200]], ids=["default", "non-nested"])
    @pytest.mark.parametrize(
        "model,ang,ordering",
        [
            (NonlinearOscillator(d=2, lam=-0.1, beta=1.0), 1.0, None),
            (NonlinearOscillator(d=3, lam=-0.1, beta=1.0), 1.0, BD),
            (NonlinearOscillator(d=3, lam=0.05, beta=1.0), 0.0, MM),
            (CoulombLike(D=3, lam=-0.3, Q=2.0), 0.5, None),
            (CoulombLike(D=2.5, lam=0.1, Q=1.0), 1.5, BD),
            (EuclideanCoulomb(D=3, Q=1.0), 0.0, None),
            (EuclideanOscillator(d=4, omega=1.0), 2.0, None),
        ],
        ids=["nlo-r", "nlo-r-bd", "nlo-s-mm", "clike-far-tail", "clike-bd", "coulomb", "osc"],
    )
    def test_ladder_matches_each_grid_alone(self, model, ang, ordering, grids):
        # one call of the coefficients on the finest grid's half-cell lattice,
        # the wall included, gives each grid the operator it gets alone, bit for
        # bit; on a finite domain (nlo lam < 0) V at the wall is infinite
        problem = oracle.build_problem(model, ang, ordering, n_states=2)
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return problem.coefficients(x)

        ladder = oracle.discretize_ladder(dataclasses.replace(problem, coefficients=counted), grids)
        assert sizes == [2 * grids[-1]]
        for N, op in zip(grids, ladder):
            alone = oracle.discretize(problem, N)
            for field in ("diag", "off"):
                assert getattr(op, field).tobytes() == getattr(alone, field).tobytes(), field

    @pytest.mark.parametrize(
        "coefficient,value,message",
        [
            ("w", np.nan, "non-finite coefficient sampled on the grid"),
            ("potential", np.nan, "non-finite coefficient sampled on the grid"),
            ("w", 0.0, "weight must be positive on the open domain"),
        ],
        ids=["nan-weight", "nan-potential", "zero-weight"],
    )
    def test_bad_interior_sample_is_refused(self, coefficient, value, message):
        # one bad value at x = 3/8, the second cell centre of 4 cells, with the
        # sampler's floating-point warnings off: only these checks can catch it
        def bad_at_centre(x):
            return np.where(x == 0.375, value, 1.0)

        with pytest.raises(ValueError, match=message):
            oracle.discretize(free_problem(**{coefficient: bad_at_centre}), 4)


class TestBuildProblem:
    @pytest.mark.parametrize(
        "model,ang,ordering",
        [
            (EuclideanOscillator(d=3, omega=1.2), 1.0, None),
            (EuclideanCoulomb(D=3, Q=1.0), 1.0, None),
            (NonlinearOscillator(d=2, lam=-0.1, beta=1.0), 1.0, None),
            (CoulombLike(D=3, lam=-0.1, Q=1.0), 1.0, None),
            (NonlinearOscillator(d=3, lam=-0.1, beta=1.0), 1.0, BD),
            (NonlinearOscillator(d=3, lam=-0.1, beta=1.0), 1.0, MM),
            (NonlinearOscillator(d=3, lam=0.2, beta=1.0), 1.0, BD),
            (NonlinearOscillator(d=3, lam=0.2, beta=1.0), 1.0, MM),
            (CoulombLike(D=3, lam=-0.1, Q=1.0), 1.0, BD),
            (CoulombLike(D=3, lam=-0.1, Q=1.0), 1.0, MM),
            (CoulombLike(D=3, lam=0.2, Q=1.0), 1.0, BD),
            (CoulombLike(D=3, lam=0.2, Q=1.0), 1.0, MM),
        ],
        ids=["osc", "coulomb", "nlo-lam-0.1", "clike-lam-0.1", "nlo-lam-0.1-bd",
             "nlo-lam-0.1-mm", "nlo-lam0.2-bd", "nlo-lam0.2-mm", "clike-lam-0.1-bd",
             "clike-lam-0.1-mm", "clike-lam0.2-bd", "clike-lam0.2-mm"],
    )
    def test_every_picture_reproduces_its_radial_equation(self, model, ang, ordering):
        # (1/w)(p w psi')' must expand to p psi'' + c1 psi' with the paper's c1,
        # checked via numerical differentiation of p and of the picture's weight
        # at sample points: the measure weighted, m^(-2 xi) flat
        def at(x):
            return model.coefficients(ang, ordering, x, model.stretch(x))

        def weight(x):
            if ordering is None:
                return model.weight(x)
            return model.pdm_mass(x) ** (-2.0 * ordering.xi)

        hi = model.domain[1]
        x = np.linspace(0.3, 0.8 * (hi if math.isfinite(hi) else 5.0), 7)
        h = 1e-6
        p, w, _, c1 = at(x)
        np.testing.assert_allclose(w, weight(x), rtol=1e-14)
        dp = (at(x + h)[0] - at(x - h)[0]) / (2 * h)
        dw = (weight(x + h) - weight(x - h)) / (2 * h)
        np.testing.assert_allclose(dp + p * dw / weight(x), c1, rtol=1e-6, atol=1e-8)

    def test_geodesic_transform_keeps_measure_and_potential(self):
        # every mapped coordinate y: W dy = w dr, V(y) = V(r(y)), P = p (dy/dr)^2;
        # the flat picture (weight w = m^(-2 xi)) first gauged by r^a:
        # r^(2a) w, V - a c1/r - a(a-1) p/r^2
        for model, ordering in [
            (NonlinearOscillator(d=2, lam=0.2, beta=1.0), None),  # s
            (NonlinearOscillator(d=2, lam=0.2, beta=1.0), BD),  # s
            (NonlinearOscillator(d=3, lam=-0.1, beta=1.0), BD),  # r
            (NonlinearOscillator(d=3, lam=0.2, beta=1.0), MM),  # s
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
            p, w, V, c1 = model.coefficients(1.0, ordering, r, t)
            if ordering is not None:
                a = model.flat_exponent(1.0)
                assert a == 1.0 + (model.dim - 1.0) / 2.0
                w = r ** (2.0 * a) * w
                V = V - (a * c1 / r + a * (a - 1.0) * p / r**2)
            h = 1e-6
            dr_dy = (to_r(y + h)[0] - to_r(y - h)[0]) / (2 * h)
            P, W, U = problem.coefficients(y)
            np.testing.assert_allclose(W, w * dr_dy, rtol=1e-9)
            np.testing.assert_allclose(U, V, rtol=1e-12)
            np.testing.assert_allclose(P, p / dr_dy**2, rtol=1e-9)

    def test_far_tail_coefficients_use_the_stretch_directly(self):
        # at lam x^2 = -60, 1 + lam R(x) rounds to 0: a coefficient formed from
        # it is infinite or NaN there, while t = exp(lam x^2) keeps it exact
        model = CoulombLike(D=3, lam=-0.1, Q=1.0)
        problem = oracle.build_problem(model, 0.0, n_states=1)
        x = np.array([math.sqrt(600.0)])
        R, t = model.coordinate()[0](x)[:2]
        assert 1.0 + model.lam * R[0] == 0.0 and t[0] > 0.0
        P, W, V = (c[0] for c in problem.coefficients(x))
        assert np.isfinite([P, V, W]).all() and W > 0
        # W = t^(-3/2) R^2 * 2 x t with t = e^-60 and R = 1/|lam|
        assert W == pytest.approx(2.0 * x[0] * math.exp(30.0) * 100.0, rel=1e-12)
        assert P == pytest.approx(1.0 / (4.0 * x[0] ** 2), rel=1e-12)

    def test_flat_picture_bd_potential_is_v1(self):
        m = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
        r = np.linspace(0.3, 2.5, 7)
        v1 = (1.0 + 0.5) * (1.0 - 0.5) / r**2 + (0.9 * r**2 + 0.025) / (1.0 - 0.1 * r**2)
        np.testing.assert_allclose(m.coefficients(1.0, BD, r, m.stretch(r))[2], v1, rtol=1e-13)

    def test_von_roos_bd_triple_reproduces_bd_exactly(self):
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        bd = oracle.discretize(oracle.build_problem(m, 0.0, BD, n_states=1), 128)
        vr = oracle.discretize(
            oracle.build_problem(m, 0.0, PdmOrdering((0.0, -1.0, 0.0)), n_states=1),
            128,
        )
        assert np.array_equal(bd.diag, vr.diag)
        assert np.array_equal(bd.off, vr.off)

    def test_von_roos_mm_triple_reproduces_mm_spectra(self):
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        mm = oracle.discretize(oracle.build_problem(m, 0.0, MM, n_states=1), 512)
        vr = oracle.discretize(
            oracle.build_problem(m, 0.0, PdmOrdering((-0.25, -0.5, -0.25)), n_states=1),
            512,
        )
        e_mm = oracle.lowest_eigenvalues(mm, 2)
        e_vr = oracle.lowest_eigenvalues(vr, 2)
        np.testing.assert_allclose(e_vr, e_mm, rtol=0, atol=1e-10)

    def test_mm_equals_bd_for_oscillator(self):
        # 2E_2 = 2E_1: MM with V2 and weight m^(1/2) has the BD spectrum with V1
        m = NonlinearOscillator(d=4, lam=-0.1, beta=1.0)
        bd = oracle.convergence_study(m, 0.0, 2, GRIDS, BD)
        mm = oracle.convergence_study(m, 0.0, 2, GRIDS, MM)
        np.testing.assert_allclose(mm.extrapolated, bd.extrapolated, rtol=2e-12, atol=0)

    def test_pdm_ordering_energy_split(self):
        # Eq-(29) vs Eq-(30) spectra differ by the constant 2(E2 - E1) = -lam^2/4
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        bd = oracle.convergence_study(m, 0.0, 1, GRIDS, BD)
        mm = oracle.convergence_study(m, 0.0, 1, GRIDS, MM)
        diff = mm.extrapolated[0] - bd.extrapolated[0]
        assert abs(diff - (-0.01 / 4.0)) < 1e-12

    def test_weighted_vs_flat_shift(self):
        # flat eigenvalue = weighted eigenvalue - d(d-2) lam / 4 in the 2E convention
        m = NonlinearOscillator(d=4, lam=-0.1, beta=1.0)
        rep_w = oracle.convergence_study(m, 1.0, 1, [256, 512, 1024])
        rep_f = oracle.convergence_study(m, 1.0, 1, [256, 512, 1024], ordering=BD)
        shift = 4.0 * 2.0 * (-0.1) / 4.0
        assert abs(rep_f.extrapolated[0] - (rep_w.extrapolated[0] - shift)) < 1e-7

    def test_rejects_bad_combinations(self):
        # BD and MM are the only orderings
        with pytest.raises(ValueError):
            PdmOrdering((1.0, 1.0, 1.0))

    @pytest.mark.parametrize(
        "model,ang",
        [(EuclideanOscillator(d=3, omega=1.0), 1.0), (EuclideanCoulomb(D=2.5, Q=1.0), 0.5),
         (EuclideanCoulomb(D=3, Q=1.0), 1.0)],
        ids=["osc-d3-l1", "coulomb-D2.5-L0.5", "coulomb-D3-L1"],
    )
    def test_euclidean_flat_picture_passes(self, model, ang):
        # at lam = 0 the mass is 1, so BD and MM pose the one Euclidean flat
        # problem, and its closed form is the weighted energy: both pass verify's
        # rule, and MM's weight m^(1/2) = 1 gives BD's eigenvalues bit for bit
        reports = {}
        for ordering in (BD, MM):
            rep = oracle.convergence_study(model, ang, 2, GRIDS, ordering)
            for j in range(2):
                _assert_check(rep, j)
                state = RadialState(model, QuantumNumbers(j, ang))
                samples = oracle.default_samples(model, rep.cutoffs[j])
                assert oracle.residual_norm(state, samples, ordering) <= 1e-9
            energies = [model.energy(QuantumNumbers(j, ang)) for j in range(2)]
            assert rep.reference == tuple(2.0 * e for e in energies)
            reports[ordering] = rep
        assert reports[BD] == reports[MM]

    def test_truncation_requires_bound_state(self):
        m = NonlinearOscillator(d=2, lam=0.2, beta=1.0)
        with pytest.raises(ValueError):
            oracle.truncation_radius(m, 0.0, 3)  # n = 6 > n_max = 4


class TestLowestEigenvalues:
    def test_identity_shift(self):
        op = free_particle(24)
        base = oracle.lowest_eigenvalues(op, 3)
        shifted = oracle.DiscreteOperator(op.diag + 5.0, op.off)
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
        # the BD and MM flat pictures, each with its own weight and potential
        for model, q, hi in [
            (CoulombLike(D=3, lam=-0.1, Q=1.0), QuantumNumbers(0, 0), 8.0),
            (NonlinearOscillator(d=3, lam=-0.1, beta=1.0), QuantumNumbers(1, 1), 3.0),
            (NonlinearOscillator(d=3, lam=0.05, beta=1.0), QuantumNumbers(1, 1), 6.0),
        ]:
            samples = np.linspace(0.3, hi, 50)
            for ordering in (BD, MM):
                got = oracle.residual_norm(RadialState(model, q), samples, ordering)
                assert got <= 1e-12, (model, ordering, got)

    @pytest.mark.parametrize("lam", [1e-2, 1e-6, 1e-10, 1e-14])
    @pytest.mark.parametrize(
        "cls,params",
        [(CoulombLike, dict(D=3.0, Q=1.0)), (NonlinearOscillator, dict(d=3, beta=1.0))],
    )
    def test_curved_states_near_the_flat_limit(self, cls, params, lam):
        # Jacobi's b ~ -1/lam: the residual grew as eps/lam, to 3.6e-3 at 1e-14,
        # while the closed form formed x = 1 + 2 lam r^2 before the recurrence
        model = cls(lam=lam, **params)
        for n_r in range(3):
            samples = oracle.default_samples(model, oracle.truncation_radius(model, 1.0, n_r))
            got = oracle.residual_norm(RadialState(model, QuantumNumbers(n_r, 1.0)), samples)
            assert got <= 1e-12, (n_r, got)

    def test_samples_where_the_operator_underflows_are_refused(self):
        # osc d=3 ground state at r >= 40: psi ~ exp(-r^2/2) underflows to 0,
        # so every term of the residual does
        st = RadialState(EuclideanOscillator(d=3, omega=1.0), QuantumNumbers(0, 0))
        with pytest.raises(ValueError, match="all samples sit where the operator underflows"):
            oracle.residual_norm(st, np.linspace(40.0, 60.0, 5))

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
        # the study and the ladder share one rule; the study adds its 3 grids
        m = EuclideanOscillator(d=3, omega=1.0)
        with pytest.raises(ValueError, match="need at least 3 grid sizes"):
            oracle.convergence_study(m, 0.0, 1, [512, 1024])
        with pytest.raises(ValueError):
            oracle.convergence_study(m, 0.0, 1, [512, 512, 1024])
        problem = oracle.build_problem(m, 0.0, n_states=1)
        for grids in ([512, 1000, 2048], [512.7, 1024, 2048]):
            message = f"need each grid size twice the one before, of N >= 3 cells, got {grids}"
            with pytest.raises(ValueError, match=re.escape(message)):
                oracle.convergence_study(m, 0.0, 1, grids)
            with pytest.raises(ValueError, match=re.escape(message)):
                oracle.discretize_ladder(problem, grids)

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_states_is_an_error(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            oracle.convergence_study(EuclideanOscillator(d=3, omega=1.0), 0.0, k, [512, 1024, 2048])

    @staticmethod
    def spy_solves(monkeypatch):
        """Record (k, first, bracketed) of each kernel call."""
        real = kernels.lowest_eigenvalues_tridiag
        calls = []

        def spy(diag, off, k, first=0, brackets=None, **kw):
            calls.append((k, first, brackets is not None))
            return real(diag, off, k, first, brackets, **kw)

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
        # one solve per grid, each started from predicted brackets
        assert calls == [(3, 0, True)] * 3
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
        assert calls == [(j + 1, j, True) for j in range(3) for i in range(len(grids))]
        assert self.eigenvalue_count(calls) == 9
        for j in range(3):
            problem = oracle.build_problem(m, 0.0, n_states=j + 1)
            for i, N in enumerate(grids):
                alone = oracle.lowest_eigenvalues(oracle.discretize(problem, N), j + 1)[j]
                assert rep.eigenvalues[i][j] == pytest.approx(alone, rel=1e-12, abs=0)

    @staticmethod
    def spy_dlarrk(monkeypatch):
        """Record the (lo, hi) interval of each dlarrk call."""
        real = kernels._lapack()
        intervals = []

        def spy(n, index, lo, hi, *args):
            intervals.append((lo._obj.value, hi._obj.value))
            return real(n, index, lo, hi, *args)

        monkeypatch.setattr(kernels, "_lapack", lambda: spy)
        return intervals

    def test_wrong_reference_cannot_move_the_eigenvalues(self, monkeypatch):
        # the closed form centres the coarsest bracket; a 5 % wrong one costs a
        # bisection from Gershgorin there and on the second grid, and on the
        # third the two guesses around the quadratic through it, not the answer
        m = CoulombLike(D=3, lam=-0.1, Q=1.0)
        true = oracle.convergence_study(m, 0.0, 2, GRIDS)
        energy = CoulombLike.energy
        monkeypatch.setattr(CoulombLike, "energy", lambda self, q: 1.05 * energy(self, q))
        intervals = self.spy_dlarrk(monkeypatch)
        wrong = oracle.convergence_study(m, 0.0, 2, GRIDS)
        # each state has its own domain: two calls on each of the two coarser
        # grids, and three on the finest, whose line through them certifies
        assert len(intervals) == 2 * (2 + 2 + 3)
        widths = [hi - lo for lo, hi in intervals]
        for state in (widths[:7], widths[7:]):
            assert min(state[1], state[3]) > 1.0  # Gershgorin
            assert state[4] < state[5] < state[6] < 1.0  # the graded guesses
        # both studies bisect each grid's eigenvalues to its resolution, N eps
        for N, got, want in zip(GRIDS, wrong.eigenvalues, true.eigenvalues):
            np.testing.assert_allclose(got, want, rtol=resolution(N), atol=0)
        for j in range(2):
            assert wrong.reference[j] == pytest.approx(1.05 * true.reference[j], rel=1e-15)
            assert wrong.rel_error[j] == pytest.approx(0.05 / 1.05, rel=1e-5)

    def test_missed_prediction_falls_back_to_gershgorin(self, monkeypatch):
        # osc d=4 l=0 converges as O(h^4) (ROADMAP item 3), so the h^2 image
        # misses: the second grid bisects twice, the second time from the
        # Gershgorin interval.  The quadratic in h^2 through the closed form and
        # the two coarser grids holds an h^4 law, so the finest grid's
        # narrowest guess certifies.  Every grid matches a solve of it alone
        # to the study's resolution.
        m = EuclideanOscillator(d=4, omega=1.0)
        intervals = self.spy_dlarrk(monkeypatch)
        rep = oracle.convergence_study(m, 0.0, 1, GRIDS)
        widths = [hi - lo for lo, hi in intervals]
        assert len(widths) == len(GRIDS) + 1
        assert widths[2] > 1.0 > max(widths[:2] + widths[3:])
        problem = oracle.build_problem(m, 0.0, n_states=1)
        for i, N in enumerate(GRIDS):
            alone = oracle.lowest_eigenvalues(oracle.discretize(problem, N), 1)[0]
            assert rep.eigenvalues[i][0] == pytest.approx(alone, rel=resolution(N), abs=0)

    @pytest.mark.parametrize(
        "model,ang,ordering",
        [
            (NonlinearOscillator(d=2, lam=-0.1, beta=1.0), 1.0, None),
            (CoulombLike(D=3, lam=-0.1, Q=1.0), 0.0, BD),
            (CoulombLike(D=3, lam=-0.1, Q=1.0), 0.0, MM),
            (EuclideanCoulomb(D=3, Q=1.0), 0.0, None),
        ],
        ids=["weighted-nlo", "flat-bd", "flat-mm", "euclidean-coulomb"],
    )
    def test_eigenvalues_within_their_resolution(self, model, ang, ordering):
        # each study eigenvalue lies within N eps |lam| of the 2-ulp solve of
        # the same matrix: the digits below N eps are all that the study skips
        rep = oracle.convergence_study(model, ang, 2, GRIDS, ordering)
        assert rep.resolution == tuple(resolution(N) for N in GRIDS)
        for j in range(2):
            problem = oracle.build_problem(model, ang, ordering, n_states=j + 1)
            for i, N in enumerate(GRIDS):
                full = oracle.lowest_eigenvalues(oracle.discretize(problem, N), j + 1)[j]
                assert abs(rep.eigenvalues[i][j] - full) <= resolution(N) * abs(full), (i, j)

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


def full_scan_cutoff(amp):
    """The cutoff rule of ``oracle._exp_cutoff`` evaluated at all 8192 points of
    each window, as the scan was before it went coarse to fine."""
    hi = 16.0
    for _ in range(40):
        grid = np.linspace(hi * 1e-4, hi, 8192)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = np.abs(np.asarray(amp(grid))) ** 2
        vals = np.nan_to_num(vals, nan=0.0, posinf=0.0)
        ipk = int(np.argmax(vals))
        peak = vals[ipk]
        tail = np.nonzero(vals[ipk:] < 1e-12 * peak)[0]
        if peak > 0 and tail.size:
            return float(grid[ipk + tail[0]])
        hi *= 2.0
        if hi > 1e4:
            break
    raise ValueError("state density does not decay below 1e-12 of its peak")


def state_density_amplitude(model, q):
    """u W^(1/2) in the solved coordinate, the amplitude ``truncation_radius`` scans."""
    to_r, _ = model.coordinate()

    def amp(y):
        r, t, dr, _ = to_r(y)
        return model.amplitude(q, r, t) * np.sqrt(model._weight(r, t) * dr)

    return amp


@pytest.mark.parametrize(
    "model",
    [
        NonlinearOscillator(d=2, lam=0.05, beta=1.0),
        NonlinearOscillator(d=3, lam=0.3, beta=2.0),
        CoulombLike(D=3, lam=-0.1, Q=1.0),
        CoulombLike(D=3, lam=-0.3, Q=2.0),
        CoulombLike(D=2.5, lam=0.02, Q=1.0),
        CoulombLike(D=4, lam=0.1, Q=1.0),
        EuclideanCoulomb(D=3, Q=1.0),
        EuclideanOscillator(d=3, omega=1.0),
        EuclideanOscillator(d=4, omega=5000.0),
    ],
    ids=["nlo-lam0.05", "nlo-lam0.3", "clike-lam-0.1", "clike-lam-0.3-far-tail", "clike-lam0.02",
         "clike-lam0.1", "coulomb", "osc", "osc-narrow"],
)
def test_cutoff_scan_matches_the_full_scan(model):
    # the coarse-to-fine scan returns the full scan's cutoff bit for bit, for
    # n_r 0-4 and integer and half-integer L, in both pictures
    angs = (0.0, 0.5, 1.5) if model.kind == "coulomb" else (0.0, 1.0, 2.0)
    windows = set()
    for ang in angs:
        for n_r in range(5):
            q = QuantumNumbers(n_r, ang)
            if not model.is_bound(q):
                continue
            want = full_scan_cutoff(state_density_amplitude(model, q))
            windows.add(want > 16.0)
            assert oracle.truncation_radius(model, ang, n_r) == want, (ang, n_r)
            for ordering in (None, BD, MM):
                problem = oracle.build_problem(model, ang, ordering, n_states=n_r + 1)
                assert problem.domain == (0.0, want), (ang, n_r, ordering)
    if model == CoulombLike(D=3, lam=-0.1, Q=1.0):
        assert windows == {False, True}  # L=0 n_r=2 and L=3/2 n_r=0 need a second window


def test_fine_peak_moves_the_threshold_past_the_coarse_crossing():
    # a spike twice the Gaussian's peak, between coarse points next to the
    # coarse maximum: the fill finds it, the threshold doubles, and the density
    # crosses it before the coarse crossing, in a cell the scan must fill too
    grid = np.linspace(16e-4, 16.0, 8192)
    spike = grid[1028]  # the coarse points are every 8th, and the coarse peak is at 1024
    calls = []

    def amp(y, height=2.0):
        calls.append(y.size)
        return np.sqrt(np.exp(-(((y - 2.0) / 0.5) ** 2)) * np.where(y == spike, height, 1.0))

    want = full_scan_cutoff(amp)
    calls.clear()
    assert oracle._exp_cutoff(amp, "spike") == want
    assert len(calls) == 3  # the coarse pass, the cells it flags, and the refill
    assert want < oracle._exp_cutoff(lambda y: amp(y, 1.0), "no spike")


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
        oracle.convergence_study(model, 0.0, 2, GRIDS, PdmOrdering((-0.5, 0, -0.5)))


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
            (2.0, 0.02, 1.5, 3, "bd"),
            (2.0, 0.1, 0.5, 2, "bd"),
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


def test_scan_windows_are_built_once_and_read_only():
    # every cutoff scan reads its windows from one cache; the grid it hands
    # out is the window's linspace, and no caller can write to it
    grid = oracle._scan_grid(64.0)
    assert oracle._scan_grid(64.0) is grid
    assert not grid.flags.writeable
    assert grid.tolist() == np.linspace(64.0 * 1e-4, 64.0, 8192).tolist()
    oracle.truncation_radius(CoulombLike(D=3, lam=-0.1, Q=1.0), 1.5, 0)  # scans 16 and 32
    assert oracle._scan_grid(16.0) is oracle._scan_grid(16.0)
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 0.0


def numpy_brackets(x, xs, ys, N):
    """The graded guesses by whole-array arithmetic, as (states, guesses, 2)."""
    eps = np.finfo(float).eps
    ys = [np.asarray(y, dtype=float) for y in ys]
    y1 = ys[-1]
    if len(ys) == 1:
        guesses = [(y1, 1e-3 * np.abs(y1))]
    else:
        x0, x1, y0 = xs[-2], xs[-1], ys[-2]
        step = y1 - y0
        line = y1 + step * (x - x1) / (x1 - x0)
        guesses = [(line, 2e-3 * np.abs(step))]
        if len(ys) == 3:
            curve = (step / (x1 - x0) - (y0 - ys[0]) / (x0 - xs[0])) / (x1 - xs[0])
            quad = line + curve * (x - x1) * (x - x0)
            guesses = [(quad, w * np.abs(step)) for w in (1e-6, 3e-5)] + guesses
    out = []
    for guess, width in guesses:
        width = np.maximum(width, 32 * N * eps * np.abs(guess))
        out.append(np.stack((guess - width, guess + width), axis=-1))
    return np.stack(out, axis=1)


def test_brackets_are_the_whole_array_formula_bit_for_bit():
    # the scalar guesses of each state equal the same law evaluated on whole
    # arrays, for one, two and three ladder points, a zero reference among them
    rng = np.random.default_rng(37)
    grids = [64, 128, 256, 512]
    hh = [(1.0 / N) ** 2 for N in grids]
    for _ in range(50):
        states = int(rng.integers(1, 4))
        ref = (rng.normal(size=states) * 10.0 ** rng.uniform(-3, 3)).tolist()
        ref[0] = 0.0 if rng.random() < 0.2 else ref[0]
        ys = [ref] + [(np.array(ref) + rng.normal(size=states) * h).tolist() for h in hh[:3]]
        xs = [0.0] + hh[:3]
        for i in range(4):
            got = oracle._brackets(hh[i], xs[: i + 1][-3:], ys[: i + 1][-3:], grids[i])
            want = numpy_brackets(hh[i], xs[: i + 1][-3:], ys[: i + 1][-3:], grids[i])
            assert all(type(v) is float for row in got for pair in row for v in pair)
            assert [[list(pair) for pair in row] for row in got] == want.tolist()
