"""Tests of the dlarrk eigenvalue kernel against closed forms and SciPy's LAPACK
``dstebz``, on clustered, repeated and nearly split spectra and on the oracle's
matrices, and of the intervals it bisects: one Gershgorin interval per index
without brackets, the bracket alone when it certifies the index."""

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


@pytest.mark.filterwarnings("error")
def test_entries_out_of_range_raise_before_lapack(monkeypatch):
    # off * off overflows at 1e300; 1e200 squares to a finite 1e200
    def no_lapack():
        raise AssertionError("LAPACK bound before the range check")

    monkeypatch.setattr(kernels, "_lapack", no_lapack)
    with pytest.raises(ValueError, match="Gershgorin interval .* must lie inside"):
        kernels.lowest_eigenvalues_tridiag([1e300, 1e300], [1e300], 2)
    with pytest.raises(ValueError, match="must lie inside"):  # the bisection midpoint overflows
        kernels.lowest_eigenvalues_tridiag([1.7e308, 1.7e308], [1.0], 2)


@pytest.mark.parametrize(
    "reltol", [np.nan, np.inf, 0.0, -1.0, np.finfo(float).eps, 1.9 * np.finfo(float).eps]
)
def test_reltol_below_2_eps_or_not_finite_raises_before_lapack(reltol, larrk_calls):
    # below eps dlarrk runs out of steps and the call ends in "could not certify"
    with pytest.raises(ValueError, match="reltol must be finite and >= 2 eps"):
        kernels.lowest_eigenvalues_tridiag(np.zeros(5), np.ones(4), 3, reltol=reltol)
    assert larrk_calls == []


def test_coarser_reltol_stays_within_it(larrk_calls):
    # the oracle's resolution on its N = 2048 matrix, N eps relative, moves no
    # eigenvalue by more than that from the default 2 eps, which it names
    op = oracle.discretize(
        oracle.build_problem(CoulombLike(D=3, lam=0.05, Q=1.0), 0.0, n_states=3), 2048
    )
    eps = np.finfo(float).eps
    ref = kernels.lowest_eigenvalues_tridiag(op.diag, op.off, 3)
    named = kernels.lowest_eigenvalues_tridiag(op.diag, op.off, 3, reltol=2 * eps)
    assert np.array_equal(named, ref)
    larrk_calls.clear()
    got = kernels.lowest_eigenvalues_tridiag(op.diag, op.off, 3, reltol=2048 * eps)
    assert [index for index, _, _ in larrk_calls] == [1, 2, 3]
    assert np.all(np.abs(got - ref) <= 2048 * eps * np.abs(ref))


@pytest.mark.filterwarnings("error")
def test_large_entries_in_range_solve():
    # 1e200 -+ 1e100 round to 1e200; each eigenvalue is resolved to about 2 ulp
    got = kernels.lowest_eigenvalues_tridiag([1e200, 1e200], [1e100], 2)
    np.testing.assert_allclose(got, [1e200, 1e200], rtol=2 * np.finfo(float).eps)


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


def repeated_blocks():
    """Three copies of one 5x5 block: every eigenvalue exactly threefold."""
    rng = np.random.default_rng(11)
    block_diag, block_off = rng.normal(size=5), rng.normal(size=4)
    diag = np.tile(block_diag, 3)
    off = np.concatenate([block_off, [0.0], block_off, [0.0], block_off])
    return diag, off, 15


def tiny_off_diagonals():
    rng = np.random.default_rng(12)
    return rng.normal(size=50), 1e-8 * rng.normal(size=49), 10


def test_exactly_repeated_eigenvalues():
    assert_matches_lapack(*repeated_blocks())


def test_tiny_off_diagonals():
    assert_matches_lapack(*tiny_off_diagonals())


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


EDGE_MATRICES = [
    pytest.param(np.full(3, 18.0), np.full(2, -9.0), 3, id="k-equals-N"),
    pytest.param(*random_tridiag(21, 16), 4, id="random-N16"),
    pytest.param(*random_tridiag(23, 40, shift=-1e3), 5, id="wholly-negative"),
    pytest.param(*random_tridiag(25, 40, shift=1e6), 5, id="diagonal-near-1e6"),
]


@pytest.mark.parametrize("diag,off,k", EDGE_MATRICES)
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


@pytest.fixture
def larrk_calls(monkeypatch):
    """(index, lo, hi) of every call of the bound ``dlarrk``, in call order."""
    real = kernels._lapack()
    calls = []

    def spy(n, index, lo, hi, *rest):
        calls.append((index._obj.value, lo._obj.value, hi._obj.value))
        return real(n, index, lo, hi, *rest)

    monkeypatch.setattr(kernels, "_lapack", lambda: spy)
    return calls


def widened_gershgorin(diag, off):
    """The Gershgorin interval widened by 2.1 (N eps ||T|| + 2 pivmin), as dstebz widens it."""
    radius = np.concatenate([[0.0], np.abs(off)]) + np.concatenate([np.abs(off), [0.0]])
    lo, hi = np.min(diag - radius), np.max(diag + radius)
    pivmin = np.finfo(float).tiny * max(1.0, np.max(off * off, initial=0.0))
    pad = 2.1 * (diag.size * np.finfo(float).eps * max(abs(lo), abs(hi)) + 2.0 * pivmin)
    return lo - pad, hi + pad


@pytest.mark.parametrize("diag,off,k", BRACKET_MATRICES)
def test_bracketed_indices_match_dstebz(diag, off, k, larrk_calls):
    # every guess, good or bad, gives dstebz's eigenvalue for its own index,
    # in one call when the guess certifies it and else in two, the second
    # from the Gershgorin interval
    ref = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, k - 1))
    scale = np.max(np.abs(diag)) + np.max(np.abs(off))
    distinct = np.diff(ref)[np.diff(ref) > 1e-9 * scale]
    gap = 0.25 * np.min(distinct)  # a quarter of the smallest distinct spacing
    gershgorin = widened_gershgorin(diag, off)
    for name, guess in bracket_cases(ref, gap):
        for first in (0, k // 2, k - 1):
            brackets = [[guess(j)] for j in range(first, k)]
            larrk_calls.clear()
            got = kernels.lowest_eigenvalues_tridiag(diag, off, k, first, brackets)
            assert got.shape == (k - first,)
            np.testing.assert_allclose(got, ref[first:], rtol=0, atol=1e-12 * scale, err_msg=name)
            tries = {}
            for index, lo, hi in larrk_calls:
                tries.setdefault(index, []).append((lo, hi))
            assert list(tries) == list(range(first + 1, k + 1)), name
            for intervals in tries.values():
                assert len(intervals) <= (1 if name == "around" else 2), name
                if len(intervals) == 2:
                    np.testing.assert_allclose(intervals[1], gershgorin, rtol=1e-15, err_msg=name)


def test_good_brackets_take_one_call_per_index(larrk_calls):
    # the oracle's next-grid guesses: each index is certified inside its
    # bracket, so dlarrk runs once per index, on that bracket alone
    problem = oracle.build_problem(CoulombLike(D=3, lam=0.05, Q=1.0), 0.0, n_states=3)
    op = oracle.discretize(problem, 2048)
    ref = kernels.lowest_eigenvalues_tridiag(op.diag, op.off, 3)
    brackets = [[(x - 1e-3 * abs(x), x + 1e-3 * abs(x))] for x in ref]
    larrk_calls.clear()
    got = kernels.lowest_eigenvalues_tridiag(op.diag, op.off, 3, 0, brackets)
    assert larrk_calls == [(j + 1, lo, hi) for j, [(lo, hi)] in enumerate(brackets)]
    np.testing.assert_allclose(got, ref, rtol=4 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize(
    "shape", [(3, 2), (2, 1, 2), (3, 1, 3)], ids=["no-guess-axis", "too-few", "not-pairs"]
)
def test_brackets_of_another_shape_are_refused(shape, larrk_calls):
    # brackets are (k - first, g, 2): g (lo, hi) guesses for each returned index
    diag, off = np.arange(5.0), np.ones(4)
    with pytest.raises(ValueError, match=r"need 3 brackets of \(lo, hi\) guesses"):
        kernels.lowest_eigenvalues_tridiag(diag, off, 3, 0, np.zeros(shape))
    assert larrk_calls == []


def test_graded_guesses_are_tried_in_order(larrk_calls):
    # each index's first guess lies beside its eigenvalue and misses, its second
    # certifies it: two dlarrk calls per index, on those two intervals, and
    # none from Gershgorin
    problem = oracle.build_problem(CoulombLike(D=3, lam=0.05, Q=1.0), 0.0, n_states=3)
    op = oracle.discretize(problem, 2048)
    ref = kernels.lowest_eigenvalues_tridiag(op.diag, op.off, 3)
    gap = 1e-6 * np.abs(ref)
    brackets = np.stack(
        [np.column_stack((ref + gap, ref + 3 * gap)), np.column_stack((ref - gap, ref + gap))],
        axis=1,
    )
    larrk_calls.clear()
    got = kernels.lowest_eigenvalues_tridiag(op.diag, op.off, 3, 0, brackets)
    assert larrk_calls == [(j + 1, lo, hi) for j in range(3) for lo, hi in brackets[j].tolist()]
    np.testing.assert_allclose(got, ref, rtol=4 * np.finfo(float).eps, atol=0)


def assert_one_gershgorin_call_per_index(diag, off, k, calls):
    calls.clear()
    got = kernels.lowest_eigenvalues_tridiag(diag, off, k)
    lo, hi = widened_gershgorin(diag, off)
    assert [c[0] for c in calls] == list(range(1, k + 1))
    for _, gl, gu in calls:
        np.testing.assert_allclose((gl, gu), (lo, hi), rtol=1e-15, atol=0)
    spectrum = eigh_tridiagonal(diag, off, eigvals_only=True)
    assert lo < spectrum[0] and spectrum[-1] < hi
    assert np.all((lo < got) & (got < hi))


GERSHGORIN_MATRICES = [
    *EDGE_MATRICES,
    *(p for p in BRACKET_MATRICES if p.id != "k-equals-N"),  # that one is an edge matrix
    pytest.param(*repeated_blocks(), id="repeated-blocks"),
    pytest.param(*tiny_off_diagonals(), id="tiny-off-diagonals"),
]


@pytest.mark.parametrize("diag,off,k", GERSHGORIN_MATRICES)
def test_one_gershgorin_call_per_index(diag, off, k, larrk_calls):
    # without brackets every index is certified by one dlarrk call from the
    # widened Gershgorin interval: the call that raises if it is not
    assert_one_gershgorin_call_per_index(diag, off, k, larrk_calls)


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

    def capture(diag, off, k, first=0, brackets=None, **kw):
        matrices.append((diag, off, k, first, brackets, kw))
        return real(diag, off, k, first, brackets, **kw)

    monkeypatch.setattr(kernels, "lowest_eigenvalues_tridiag", capture)
    oracle.convergence_study(CoulombLike(D=3, lam=0.05, Q=1.0), 0.0, 3, [512, 1024, 2048])
    monkeypatch.undo()
    assert len(matrices) == 9
    assert sum(k - first for _, _, k, first, _, _ in matrices) == 9
    tracemalloc.start()
    try:
        for diag, off, k, first, brackets, kw in matrices:
            real(diag, off, k, first, brackets, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


ORACLE_MATRICES = pytest.mark.parametrize(
    "model,ang",
    [
        (NonlinearOscillator(d=2, lam=-0.1, beta=1.0), 1.0),
        (CoulombLike(D=3, lam=0.05, Q=1.0), 0.0),
        (CoulombLike(D=3, lam=-0.1, Q=1.0), 0.0),
    ],
    ids=["nlo-lam-0.1-l1", "clike-lam0.05-L0", "clike-lam-0.1-L0"],
)


def oracle_matrix(model, ang):
    """The k=3 matrix of the channel at N=8192."""
    return oracle.discretize(oracle.build_problem(model, ang, n_states=3), 8192)


@ORACLE_MATRICES
def test_oracle_matrices_take_one_gershgorin_call_per_index(model, ang, larrk_calls):
    op = oracle_matrix(model, ang)
    assert_one_gershgorin_call_per_index(op.diag, op.off, 3, larrk_calls)


@ORACLE_MATRICES
def test_oracle_matrices_at_full_precision(model, ang):
    # the k=3 matrices at N=8192: LAPACK's default tolerance (ulp * ||T||) moves
    # these eigenvalues by up to about 1e-9 relative, so a tolerance that falls
    # back to it fails here
    op = oracle_matrix(model, ang)
    got = kernels.lowest_eigenvalues_tridiag(op.diag, op.off, 3)
    ref = eigh_tridiagonal(
        op.diag, op.off, eigvals_only=True, select="i", select_range=(0, 2),
        lapack_driver="stebz", tol=1e-300,
    )
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
