"""Independent numerical verification engine for the closed-form spectra.

Every radial problem is cast as a Sturm-Liouville triple (p, w, V) with the
operator (-1/w) d/dx (p w d/dx) + V, discretized on a half-cell-offset uniform
grid in conservative (flux) form, symmetrized by the similarity transform
W^(1/2) H W^(-1/2), and solved by LAPACK ``dlarrk`` Sturm-count bisection
from NumPy's bundled OpenBLAS (``oscoul.kernels``, bound on the first
eigensolve; each eigenvalue is resolved to about 2 ulp rather than to
ulp * ||T||).  A convergence study discretizes each distinct domain on each
grid, solves each matrix once, and computes only the eigenvalues it reports,
each bisected inside a bracket that the h^2 law predicts: on the coarsest
grid the closed-form reference +- 1e-3 |ref|; on the second its h^2 image
lam_0 + (ref - lam_0)(1 - h_1^2/h_0^2) +- 2e-3 |ref - lam_0|; on each later
grid the Richardson value lam_(i-1) + (lam_(i-1) - lam_(i-2))(h_(i-1)^2 -
h_i^2)/(h_(i-2)^2 - h_(i-1)^2) +- 2e-3 |lam_(i-1) - lam_(i-2)|, for any
increasing ladder.  The guess only saves time: the kernel accepts an
eigenvalue only when the Sturm counts certify its index strictly inside the
bracket, and otherwise bisects again from the Gershgorin interval, so a wrong
closed form, an error that is not O(h^2) or a zero-width bracket (ref = 0)
costs a second bisection, never the answer.  Eigenvalues are reported in the
doubled convention (2E).

The coefficients (``weighted_coefficients``, the PDM ``flat_coefficients``)
are functions of the radius r and the stretch t, and each side of the duality
names the one coordinate y both pictures are solved in (``coordinate``; x =
sqrt(s) on the Coulomb side, s on the oscillator side for lam > 0, the radius
otherwise).  ``build_problem`` maps any radial triple to y in one step,
P = p/g'^2, W = w g', V(g) with r = g(y); the coordinate map forms P, the
same p = 1/m in both pictures, with t cancelled.  ``truncation_radius`` cuts
every infinite y-domain where the density |u|^2 W falls to 1e-12 of its peak.

Every problem has the natural (zero-flux) row at the origin.  The flat
picture's u goes as r^a there, a the larger Frobenius exponent of its
centrifugal term a(a-1)/r^2 (``flat_exponent``; A. Zettl, Sturm-Liouville
Theory, AMS 2005), so it is solved for v = u/r^a: weight w r^(2a), potential
V - a c1/r - a(a-1) p/r^2 with c1 = (p w)'/w.  The weighted picture is a = 0.

That cutoff is the only rule for where a state ends.  A convergence study
reports the one it solved each state on (``ConvergenceReport.cutoffs``), and
``default_samples`` places residual and wavefunction samples evenly in y up to
it, mapped back to the radius; a finite radial domain is sampled on its inner
2-95 % instead.

An ordering selects the picture: ``None`` solves the weighted equation, BD
or MM the PDM flat picture of a curved model (w = 1).  BD is -d/dx (1/m)
d/dx + V1 (or U) directly.  The MM operator is reduced exactly to that BD
form by the substitution psi = m^(1/4) u, which turns the ordering into a
potential term of the model's flat coefficients: the constant -lam^2/4 on
the Coulomb side, and on the oscillator side the term that takes the
paper's V2 back to V1.  These are the paper's two orderings and the only von
Roos triples (O. von Roos, Phys. Rev. B 27, 7547 (1983)) that
``PdmOrdering`` accepts: the paper pairs each with its own oscillator-side
potential, so it defines no problem for a third.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .models import PdmOrdering, QuantumNumbers, RadialState

__all__ = [
    "ConvergenceReport",
    "DiscreteOperator",
    "SturmLiouvilleProblem",
    "build_problem",
    "convergence_study",
    "default_samples",
    "discretize",
    "lowest_eigenvalues",
    "residual_norm",
    "truncation_radius",
]

# half-widths of the predicted brackets of ``convergence_study``: the coarsest
# grid's, relative to the closed form, and each finer grid's, relative to the
# last step of the h^2 line it extrapolates
_REF_WIDTH = 1e-3
_STEP_WIDTH = 2e-3


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """Coefficients of (-1/w) d/dx (p w d/dx) + V on (a, b), self-adjoint in L^2(w dx)."""

    p: Callable
    w: Callable
    potential: Callable
    domain: tuple[float, float]


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric tridiagonal representation W^(1/2) H W^(-1/2) on cell centers."""

    diag: np.ndarray
    off: np.ndarray
    h: float
    nodes: np.ndarray


@dataclass(frozen=True)
class ConvergenceReport:
    """Grid study of one (model, ang) channel: eigenvalues per grid plus
    observed order, Richardson extrapolation from the two finest grids, and
    the analytic reference; cutoffs[j] ends state j's solved y-domain."""

    grids: tuple
    eigenvalues: tuple  # eigenvalues[i][j]: grid i, state j
    observed_order: tuple
    extrapolated: tuple
    reference: tuple
    rel_error: tuple
    monotone: tuple
    cutoffs: tuple


def _exp_cutoff(amp) -> float:
    """Smallest coordinate where the state's density amp^2 falls to 1e-12 of its peak.

    The eigenvalue perturbation from a Dirichlet cutoff scales with the density
    left outside, so thresholding amp^2 (not amp) keeps the truncation error at
    the 1e-12 level without inflating the grid spacing.
    """
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


def truncation_radius(model, ang: float, n_r: int) -> float:
    """Domain cutoff for the state (n_r, ang), in the model's solved coordinate y.

    A finite y-domain is kept whole.  Otherwise the cutoff is where the
    state's density |u|^2 W in y falls to 1e-12 of its peak.  That density is
    psi^2 w dr/dy in both pictures (the flat u^2 is psi^2 times the weighted
    measure, and the gauge cancels in |v|^2 W), so one cutoff serves both.
    """
    to_r, end = model.coordinate()
    if math.isfinite(end):
        return end
    q = QuantumNumbers(n_r, ang)
    if not model.is_bound(q):
        raise ValueError("truncation undefined: target state is not normalizable")
    w = model.weighted_coefficients(ang)["w"]

    def amp(y):
        r, t, dr, _ = to_r(y)
        return model.amplitude(q, r, t) * np.sqrt(w(r, t) * dr)

    return _exp_cutoff(amp)


def build_problem(
    model,
    ang: float,
    ordering: Optional[PdmOrdering] = None,
    n_states: int = 2,
) -> SturmLiouvilleProblem:
    """Sturm-Liouville form of one radial problem in the model's solved coordinate.

    ordering None solves the curved radial equation against its measure; BD
    or MM solves the PDM picture (w = 1) of that ordering, gauged by r^a:
    weight r^(2a).  The radial (w, V) become W = w g' and V(g) in the
    coordinate y of ``model.coordinate()``, r = g(y), which also gives P.  The
    domain is truncated (if infinite) to cover the lowest ``n_states`` states
    of the channel, by ``truncation_radius``.
    """
    if ordering is None:
        coeff = model.weighted_coefficients(ang)
        w, V = coeff["w"], coeff["V"]
    else:
        flat = model.flat_coefficients(ang, ordering)
        a = model.flat_exponent(ang)
        p, c1, v = flat["p"], flat["c1"], flat["V"]

        def w(r, t):
            return r ** (2.0 * a)

        def V(r, t):
            return v(r, t) - a * c1(r, t) / r - a * (a - 1.0) * p(r, t) / (r * r)

    to_r, _ = model.coordinate()

    def P(y):
        return to_r(y)[3]

    def W(y):
        r, t, dr, _ = to_r(y)
        return w(r, t) * dr

    def U(y):
        r, t = to_r(y)[:2]
        return V(r, t)

    return SturmLiouvilleProblem(
        p=P,
        w=W,
        potential=U,
        domain=(0.0, truncation_radius(model, ang, n_states - 1)),
    )


def discretize(problem: SturmLiouvilleProblem, N: int) -> DiscreteOperator:
    """Symmetric tridiagonal flux-form discretization on N half-offset cells.

    Interior interfaces carry the flux coefficient (p w)(x_(i+-1/2)); after the
    W^(1/2) similarity transform row i couples its neighbours with
    -(p w)(x_(i+-1/2)) / (h^2 sqrt(w_i w_(i+-1))).  Sampling w at the interface
    (rather than the geometric mean of the cell centers) keeps the eigenvalue
    error a clean h^2 series even for half-integer-power weights.  The inner
    row is natural: zero flux at the origin, where p is never sampled (it may
    be infinite there, p = 1/(4x^2) in x).  The outer Dirichlet row keeps the
    wall flux on the diagonal with the cell-center weight.  sqrt(w) is taken
    per cell, since a gauged w_i w_(i+1) can overflow.
    """
    if not isinstance(N, (int, np.integer)) or N < 3:
        raise ValueError(f"need N >= 3 cells, got {N}")
    a, b = problem.domain
    h = (b - a) / N
    x = a + (np.arange(1, N + 1) - 0.5) * h
    xh = a + np.arange(N + 1) * h
    w = np.asarray(problem.w(x), dtype=float)
    v = np.asarray(problem.potential(x), dtype=float)
    p_half = np.asarray(problem.p(xh[1:]), dtype=float)
    w_half = np.asarray(problem.w(xh[1:-1]), dtype=float)
    if not (
        np.all(np.isfinite(w))
        and np.all(np.isfinite(v))
        and np.all(np.isfinite(p_half))
        and np.all(np.isfinite(w_half))
    ):
        raise ValueError("non-finite coefficient sampled on the grid")
    if not (np.all(w > 0) and np.all(w_half > 0)):
        raise ValueError("weight must be positive on the open domain")
    h2 = h * h
    g = p_half[:-1] * w_half
    diag = v.copy()
    diag[:-1] += g / (h2 * w[:-1])
    diag[1:] += g / (h2 * w[1:])
    sw = np.sqrt(w)
    off = -g / (h2 * sw[:-1] * sw[1:])
    diag[-1] += p_half[-1] / h2
    return DiscreteOperator(diag=diag, off=off, h=h, nodes=x)


def lowest_eigenvalues(op: DiscreteOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the discretized operator (2E convention)."""
    from . import kernels

    return kernels.lowest_eigenvalues_tridiag(op.diag, op.off, k)


def residual_norm(
    state: RadialState, samples, ordering: Optional[PdmOrdering] = None
) -> float:
    """Max scaled residual |L[psi] - 2E psi| / (|2E psi| + local operator scale)
    of the weighted equation (ordering None) or the ordering's PDM picture.

    Uses exact analytic derivatives only.  Samples where every term underflows
    are skipped; if all are skipped a ValueError is raised.
    """
    model, q = state.model, state.q
    x = np.atleast_1d(np.asarray(samples, dtype=float))
    if ordering is None:
        coeff = model.weighted_coefficients(q.ang)
        psi, dpsi, d2psi = state.derivatives(x)
        lam2e = 2.0 * model.energy(q)
    else:  # -(p psi')' + V psi = 2E psi, c1 = p'
        coeff = model.flat_coefficients(q.ang, ordering)
        f, df, d2f = model.flat_factor_derivatives(x)
        psi0, dpsi0, d2psi0 = state.derivatives(x)
        psi = f * psi0
        dpsi = df * psi0 + f * dpsi0
        d2psi = d2f * psi0 + 2.0 * df * dpsi0 + f * d2psi0
        lam2e = 2.0 * model.pdm_energy(ordering, q)
    t = model.stretch(x)
    kin2 = np.asarray(coeff["p"](x, t)) * d2psi
    kin1 = np.asarray(coeff["c1"](x, t)) * dpsi
    pot = np.asarray(coeff["V"](x, t)) * psi
    # both pictures: p psi'' + c1 psi' - V psi + 2E psi = 0
    resid = np.abs(kin2 + kin1 - pot + lam2e * psi)
    scale = np.abs(lam2e * psi) + np.abs(kin2) + np.abs(kin1) + np.abs(pot)
    usable = scale > 1e-290
    if not np.any(usable):
        raise ValueError("all samples sit where the operator underflows")
    return float(np.max(resid[usable] / (np.abs(lam2e * psi[usable]) + scale[usable])))


def _observed_order(grids, ratio: float) -> float:
    """The order p with (h1^p - h2^p) / (h2^p - h3^p) = ratio, the ratio d1/d2 of
    successive eigenvalue changes on grids N1 < N2 < N3 (h = 1/N).

    On a geometric ladder that is log(ratio) / log(h1/h2).  Otherwise, with
    u = log(h1/h2) and v = log(h2/h3), the left side is
    expm1(p u) / -expm1(-p v), which rises from 0 to infinity over the whole
    line (u/v at p = 0), so p is found by bisection on its logarithm.
    """
    n1, n2, n3 = grids
    h1, h2, h3 = 1.0 / n1, 1.0 / n2, 1.0 / n3
    target = math.log(ratio)
    u = math.log(h1 / h2)
    if n2 * n2 == n1 * n3:
        return target / u
    v = math.log(h2 / h3)

    def log_abs_expm1(x):
        return x + math.log(-math.expm1(-x)) if x > 0 else math.log(-math.expm1(x))

    def log_side(p):
        if p * u == 0 or p * v == 0:
            return math.log(u / v)
        return log_abs_expm1(p * u) - log_abs_expm1(-p * v)

    lo, hi = -1.0, 1.0
    while log_side(hi) < target:
        hi *= 2.0
    while log_side(lo) > target:
        lo *= 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if log_side(mid) < target:
            lo = mid
        else:
            hi = mid
    return mid


def convergence_study(
    model,
    ang: float,
    k: int,
    grids,
    ordering: Optional[PdmOrdering] = None,
) -> ConvergenceReport:
    """Eigenvalues of the k lowest states across grids, with observed order,
    Richardson extrapolation from the two finest grids, and the closed-form
    2E of the weighted equation (ordering None) or the ordering's PDM picture.

    ``rel_error`` is |extrapolated - reference| / |reference|; when the
    reference is exactly 0 it is the absolute error |extrapolated| (units
    hbar = m = 1), since no relative error exists there."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # a model without the asked picture is a usage error: report it before any solve
    states = [QuantumNumbers(j, ang) for j in range(k)]
    if ordering is None:
        refs = [2.0 * model.energy(q) for q in states]
    else:
        refs = [2.0 * model.pdm_energy(ordering, q) for q in states]
    grids = [int(N) for N in grids]
    if len(grids) < 3 or any(b <= a for a, b in zip(grids, grids[1:])):
        raise ValueError("need at least 3 strictly increasing grid sizes")
    # each target state gets its own truncation, so low states keep a fine grid;
    # consecutive states on the same domain share one solve per grid
    problems = [build_problem(model, ang, ordering, n_states=j + 1) for j in range(k)]
    # the top state of each run of consecutive states on one domain
    tops = [
        j for j in range(k) if j + 1 == k or problems[j + 1].domain != problems[j].domain
    ]
    from . import kernels

    hs = 1.0 / np.asarray(grids, dtype=float)
    hh = hs * hs
    eig = np.empty((len(grids), k))
    first = 0
    for top in tops:
        run = slice(first, top + 1)
        # the h^2 law E(h) = E(0) + c h^2 predicts each grid's eigenvalue on the
        # line through the last two points (h^2, E), the closed form being the
        # point at h = 0: the coarsest grid is bracketed around the reference,
        # the second around its h^2 image, each later one around Richardson
        x0, y0 = 0.0, np.asarray(refs[run])
        guess, width = y0, _REF_WIDTH * np.abs(y0)
        for i, N in enumerate(grids):
            op = discretize(problems[top], N)
            eig[i, run] = kernels.lowest_eigenvalues_tridiag(
                op.diag, op.off, top + 1, first=first,
                brackets=np.column_stack((guess - width, guess + width)),
            )
            step = eig[i, run] - y0
            if i + 1 < len(grids):
                guess = eig[i, run] + step * (hh[i + 1] - hh[i]) / (hh[i] - x0)
                width = _STEP_WIDTH * np.abs(step)
            x0, y0 = hh[i], eig[i, run]
        first = top + 1
    orders, extrap, errs, mono = [], [], [], []
    for j in range(k):
        seq = eig[:, j]
        d1 = seq[-2] - seq[-3]
        d2 = seq[-1] - seq[-2]
        monotone = d1 * d2 > 0 and abs(d2) < abs(d1)
        mono.append(bool(monotone))
        if monotone:
            order = _observed_order(grids[-3:], d1 / d2)
            rich = seq[-1] + (seq[-1] - seq[-2]) / ((hs[-2] / hs[-1]) ** 2 - 1.0)
        else:
            order = math.nan
            rich = math.nan
        orders.append(float(order))
        extrap.append(float(rich))
        # a zero reference has no relative error: its absolute error stands in
        errs.append(float(abs(rich - refs[j]) / (abs(refs[j]) or 1.0)))
    return ConvergenceReport(
        grids=tuple(grids),
        eigenvalues=tuple(tuple(row) for row in eig),
        observed_order=tuple(orders),
        extrapolated=tuple(extrap),
        reference=tuple(refs),
        rel_error=tuple(errs),
        monotone=tuple(mono),
        cutoffs=tuple(prob.domain[1] for prob in problems),
    )


def default_samples(model, cutoff: float, n: int = 50) -> np.ndarray:
    """n deterministic radii covering a state whose y-domain ends at ``cutoff``
    (``truncation_radius``, or a study's ``cutoffs``).

    On an infinite radial domain the samples are evenly spaced in the
    coordinate y of ``model.coordinate()``, from cutoff/n to cutoff,
    and mapped back to the radius; no scan of the state is made here.  A
    finite radial domain is sampled evenly on its inner 2-95 %.
    """
    lo, hi = model.domain
    if math.isfinite(hi):
        return np.linspace(lo + 0.02 * (hi - lo), hi - 0.05 * (hi - lo), n)
    to_r, _ = model.coordinate()
    return to_r(np.linspace(cutoff / n, cutoff, n))[0]
