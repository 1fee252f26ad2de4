"""Sturm-bisection eigenvalue kernel tests, including backend agreement."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from oscoul import kernels


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
    got = kernels.lowest_eigenvalues_tridiag(diag, off, 3, rel_tol=1e-12)
    exact = np.sort(2.0 * (1.0 - np.cos(np.arange(1, 4) * np.pi / 4.0)) / h**2)
    assert np.all(np.abs(got - exact) <= 1e-11 * np.abs(exact))


def test_input_validation():
    with pytest.raises(ValueError):
        kernels.lowest_eigenvalues_tridiag(np.ones(4), np.ones(2), 1)
    with pytest.raises(ValueError):
        kernels.lowest_eigenvalues_tridiag(np.ones(4), np.ones(3), 5)
    with pytest.raises(ValueError):
        kernels.lowest_eigenvalues_tridiag(np.array([1.0, np.nan]), np.ones(1), 1)
