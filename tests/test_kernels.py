"""Tests of the dstebz eigenvalue kernel against closed forms and SciPy's LAPACK,
on clustered, repeated and nearly split spectra and on the oracle's matrices."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from oscoul import kernels, oracle
from oscoul.models import CoulombLike, NonlinearOscillator


def toeplitz_reference(n, diag, off):
    j = np.arange(1, n + 1)
    return diag + 2 * off * np.cos(j * np.pi / (n + 1))


def test_free_particle_3x3():
    # uniform Dirichlet Laplacian on (0,1), h = 1/3: diag 2/h^2, off -1/h^2
    h = 1.0 / 3.0
    diag = np.full(3, 2.0 / h**2)
    off = np.full(2, -1.0 / h**2)
    got = kernels.lowest_eigenvalues_tridiag(diag, off, 3)
    expected = 2.0 * (1.0 - np.cos(np.arange(1, 4) * np.pi / 4.0)) / h**2
    np.testing.assert_allclose(got, np.sort(expected), rtol=1e-12)


def test_identity_shift_invariance():
    rng = np.random.default_rng(7)
    diag = rng.normal(size=40)
    off = rng.normal(size=39)
    base = kernels.lowest_eigenvalues_tridiag(diag, off, 4)
    shifted = kernels.lowest_eigenvalues_tridiag(diag + 3.25, off, 4)
    np.testing.assert_allclose(shifted - base, 3.25, rtol=0, atol=1e-11)


@pytest.mark.parametrize("n,k", [(16, 3), (101, 5), (400, 1)])
def test_matches_scipy(n, k):
    rng = np.random.default_rng(n)
    diag = rng.normal(scale=5.0, size=n)
    off = rng.normal(size=n - 1)
    got = kernels.lowest_eigenvalues_tridiag(diag, off, k)
    ref = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, k - 1))
    scale = np.max(np.abs(diag)) + np.max(np.abs(off))
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-13 * scale)


def test_relative_precision_small_matrix():
    h = 1.0 / 3.0
    diag = np.full(3, 2.0 / h**2)
    off = np.full(2, -1.0 / h**2)
    got = kernels.lowest_eigenvalues_tridiag(diag, off, 3)
    exact = np.sort(2.0 * (1.0 - np.cos(np.arange(1, 4) * np.pi / 4.0)) / h**2)
    assert np.all(np.abs(got - exact) <= 1e-11 * np.abs(exact))


def test_input_validation():
    with pytest.raises(ValueError):
        kernels.lowest_eigenvalues_tridiag(np.ones(4), np.ones(2), 1)
    with pytest.raises(ValueError):
        kernels.lowest_eigenvalues_tridiag(np.ones(4), np.ones(3), 5)
    with pytest.raises(ValueError):
        kernels.lowest_eigenvalues_tridiag(np.array([1.0, np.nan]), np.ones(1), 1)
    with pytest.raises(ValueError):
        kernels.lowest_eigenvalues_tridiag(np.zeros(5), np.ones(4), 3, 3)
    with pytest.raises(ValueError):  # one bracket per returned index
        kernels.lowest_eigenvalues_tridiag(np.zeros(5), np.ones(4), 3, 1, [(0.0, 1.0)])


def assert_matches_lapack(diag, off, k):
    got = kernels.lowest_eigenvalues_tridiag(diag, off, k)
    ref = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, k - 1))
    scale = np.max(np.abs(diag)) + np.max(np.abs(off))
    assert np.all(np.diff(got) >= 0.0)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * scale)


def test_wilkinson_close_pairs():
    # negated W21+: the lowest eigenvalues come in pairs closer than 1e-13
    diag = -np.abs(np.arange(21) - 10.0)
    off = np.ones(20)
    ref = eigh_tridiagonal(diag, off, eigvals_only=True)
    assert np.min(np.diff(ref)) < 1e-13
    assert_matches_lapack(diag, off, 21)


def test_exactly_repeated_eigenvalues():
    rng = np.random.default_rng(11)
    block_diag, block_off = rng.normal(size=5), rng.normal(size=4)
    diag = np.tile(block_diag, 3)
    off = np.concatenate([block_off, [0.0], block_off, [0.0], block_off])
    assert_matches_lapack(diag, off, 15)


def test_tiny_off_diagonals():
    rng = np.random.default_rng(12)
    assert_matches_lapack(rng.normal(size=50), 1e-8 * rng.normal(size=49), 10)


def test_all_eigenvalues():
    rng = np.random.default_rng(13)
    assert_matches_lapack(rng.normal(scale=3.0, size=30), rng.normal(size=29), 30)


def test_oracle_matrix_matches_lapack_bisection():
    # nlo d=2 lam=-0.1 l=1 at N=2048: a 1e-12 relative bound plus the eps*||T||
    # round-off floor of the Sturm count
    model = NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
    op = oracle.discretize(oracle.build_problem(model, 1.0, n_states=3), 2048)
    got = kernels.lowest_eigenvalues_tridiag(op.diag, op.off, 3)
    ref = eigh_tridiagonal(
        op.diag, op.off, eigvals_only=True, select="i", select_range=(0, 2),
        lapack_driver="stebz", tol=1e-300,
    )
    norm = np.max(np.abs(op.diag)) + np.max(np.abs(op.off))
    assert np.all(np.diff(got) > 0.0)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + np.finfo(float).eps * norm)


def random_tridiag(seed, n, shift=0.0):
    rng = np.random.default_rng(seed)
    return shift + rng.normal(size=n), rng.normal(size=n - 1)


@pytest.mark.parametrize(
    "diag,off,k",
    [
        (np.full(3, 18.0), np.full(2, -9.0), 3),
        (*random_tridiag(21, 16), 4),
        (*random_tridiag(23, 40, shift=-1e3), 5),
        (*random_tridiag(25, 40, shift=1e6), 5),
    ],
    ids=["k-equals-N", "random-N16", "wholly-negative", "diagonal-near-1e6"],
)
def test_edge_matrices(diag, off, k):
    if diag[0] < 0:
        assert np.all(eigh_tridiagonal(diag, off, eigvals_only=True) < 0.0)
    assert kernels.lowest_eigenvalues_tridiag(diag, off, k).shape == (k,)
    assert_matches_lapack(diag, off, k)


BRACKET_MATRICES = [
    pytest.param(-np.abs(np.arange(21) - 10.0), np.ones(20), 21, id="W21+"),
    pytest.param(np.zeros(9), np.ones(8), 9, id="zero-diagonal"),
    pytest.param(np.full(3, 18.0), np.full(2, -9.0), 3, id="k-equals-N"),
]


def bracket_cases(ref, gap):
    """Named (lo, hi) guesses for index j, from dstebz's eigenvalues ``ref``."""
    yield "around", lambda j: (ref[j] - gap, ref[j] + gap)
    yield "below", lambda j: (ref[j] - 3 * gap, ref[j] - gap)
    yield "above", lambda j: (ref[j] + gap, ref[j] + 3 * gap)
    # the neighbouring index only (the last index takes its lower neighbour)
    yield "neighbour", lambda j: (
        ref[j + 1 if j + 1 < ref.size else j - 1] + np.array([-gap, gap])
    )
    yield "zero-width", lambda j: (ref[j], ref[j])


@pytest.mark.parametrize("diag,off,k", BRACKET_MATRICES)
def test_bracketed_indices_match_dstebz(diag, off, k):
    # every guess, good or bad, gives dstebz's eigenvalue for its own index
    ref = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, k - 1))
    scale = np.max(np.abs(diag)) + np.max(np.abs(off))
    distinct = np.diff(ref)[np.diff(ref) > 1e-9 * scale]
    gap = 0.25 * np.min(distinct)  # a quarter of the smallest distinct spacing
    for name, guess in bracket_cases(ref, gap):
        for first in (0, k // 2, k - 1):
            brackets = [guess(j) for j in range(first, k)]
            got = kernels.lowest_eigenvalues_tridiag(diag, off, k, first, brackets)
            assert got.shape == (k - first,)
            np.testing.assert_allclose(got, ref[first:], rtol=0, atol=1e-12 * scale, err_msg=name)


def test_good_brackets_skip_dstebz(monkeypatch):
    # the oracle's next-grid guesses: each index is certified inside its
    # bracket, and dstebz runs for none of them
    problem = oracle.build_problem(CoulombLike(D=3, lam=0.05, Q=1.0), 0.0, n_states=3)
    op = oracle.discretize(problem, 2048)
    ref = kernels.lowest_eigenvalues_tridiag(op.diag, op.off, 3)
    fallbacks = []
    real = kernels._stebz
    monkeypatch.setattr(kernels, "_stebz", lambda *a: fallbacks.append(a) or real(*a))
    got = kernels.lowest_eigenvalues_tridiag(
        op.diag, op.off, 3, 0, [(x - 1e-3 * abs(x), x + 1e-3 * abs(x)) for x in ref]
    )
    assert not fallbacks
    np.testing.assert_allclose(got, ref, rtol=4 * np.finfo(float).eps, atol=0)


def test_zero_pivot_at_a_shift():
    # zero diagonal, unit couplings: the Gershgorin interval is symmetric about 0,
    # so bisection counts at shift 0, where the leading pivot is exactly 0 and
    # the pivmin guard has to act
    assert_matches_lapack(np.zeros(9), np.ones(8), 9)


def test_study_batch_memory(monkeypatch):
    # the 9 matrices of a lam > 0 study (each state truncated on its own), one
    # eigenvalue each: the solver's workspace is O(N) per matrix, where an
    # N x shifts array of a lockstep count would take about 28 MB
    real = kernels.lowest_eigenvalues_tridiag
    matrices = []

    def capture(diag, off, k, first=0, brackets=None):
        matrices.append((diag, off, k, first, brackets))
        return real(diag, off, k, first, brackets)

    monkeypatch.setattr(kernels, "lowest_eigenvalues_tridiag", capture)
    oracle.convergence_study(CoulombLike(D=3, lam=0.05, Q=1.0), 0.0, 3, [512, 1024, 2048])
    monkeypatch.undo()
    assert len(matrices) == 9
    assert sum(k - first for _, _, k, first, _ in matrices) == 9
    tracemalloc.start()
    try:
        for diag, off, k, first, brackets in matrices:
            real(diag, off, k, first, brackets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


@pytest.mark.parametrize(
    "model,ang",
    [
        (NonlinearOscillator(d=2, lam=-0.1, beta=1.0), 1.0),
        (CoulombLike(D=3, lam=0.05, Q=1.0), 0.0),
        (CoulombLike(D=3, lam=-0.1, Q=1.0), 0.0),
    ],
    ids=["nlo-lam-0.1-l1", "clike-lam0.05-L0", "clike-lam-0.1-L0"],
)
def test_oracle_matrices_at_full_precision(model, ang):
    # the k=3 matrices at N=8192: LAPACK's default tolerance (ulp * ||T||) moves
    # these eigenvalues by up to about 1e-9 relative, so a tolerance that falls
    # back to it fails here
    op = oracle.discretize(oracle.build_problem(model, ang, n_states=3), 8192)
    got = kernels.lowest_eigenvalues_tridiag(op.diag, op.off, 3)
    ref = eigh_tridiagonal(
        op.diag, op.off, eigvals_only=True, select="i", select_range=(0, 2),
        lapack_driver="stebz", tol=1e-300,
    )
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
