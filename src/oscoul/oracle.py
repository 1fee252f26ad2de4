"""Independent numerical verification engine for the closed-form spectra.

Every radial problem is cast as a Sturm-Liouville triple (p, w, V) with the
operator (-1/w) d/dx (p w d/dx) + V, discretized on a half-cell-offset uniform
grid in conservative (flux) form, symmetrized by the similarity transform
W^(1/2) H W^(-1/2), and solved by LAPACK ``dlarrk`` Sturm-count bisection
from NumPy's bundled OpenBLAS (``oscoul.kernels``, bound on the first
eigensolve; each eigenvalue is resolved to about 2 ulp rather than to
ulp * ||T||).  A convergence study discretizes each distinct domain on every
grid of its ladder at once (``discretize_ladder``: p, w and V are sampled
once each over all the grids' points), solves each matrix once, and computes
only the eigenvalues it reports.  Each is bisected inside guesses that the
h^2 law predicts from the points (h^2, lam) of the ladder so far, the closed
form being the point at h = 0, for any increasing ladder: on the coarsest
grid the reference +- 1e-3 |ref|; on the second the line through the first
two points, lam_0 + (ref - lam_0)(1 - h_1^2/h_0^2) +- 2e-3 |ref - lam_0|; on
each later grid first the quadratic in h^2 through the last three points,
+- 1e-6 and then +- 3e-5 of the last step |lam_(i-1) - lam_(i-2)|, and then
the line through the last two (Richardson) +- 2e-3 of it.  Sturm bisection
pays one count of N rows per halving, and the narrow guesses, which hold
nearly every state, take the finest grid from about 26 halvings to 17.  No
half-width is below 32 N eps |guess|, the spread of a computed eigenvalue
about the h^2 law once the law converges to round-off.  A guess only saves
time: the kernel accepts an eigenvalue only when the Sturm counts certify its
index strictly inside it, and otherwise tries the next guess and at last the
Gershgorin interval, so a wrong closed form, an error that is not O(h^2) or a
zero-width guess (ref = 0) costs more bisection, never the answer.
Eigenvalues are reported in the doubled convention (2E).

The coefficients (``weighted_coefficients``, the PDM ``flat_coefficients``)
are functions of the radius r and the stretch t, and each side of the duality
names the one coordinate y both pictures are solved in (``coordinate``; x =
sqrt(s) on the Coulomb side, s on the oscillator side for lam > 0, the radius
otherwise).  ``build_problem`` maps any radial triple to y in one step,
P = p/g'^2, W = w g', V(g) with r = g(y); the coordinate map forms P, the
same p = 1/m in both pictures, with t cancelled.  ``truncation_radius`` cuts
every infinite y-domain where the density |u|^2 W falls to 1e-12 of its peak.
It applies that rule to the 8192 points of a window [hi/1e4, hi] doubled
from hi = 16, but evaluates the state at every 8th point and then only in
the cells that can hold the peak, a node or the crossing: the same cutoff
from about an eighth of the points.  A state whose coordinate map overflows
before its density has decayed raises ValueError.

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

from .models import PdmOrdering, QuantumNumbers, RadialState, _mul3

__all__ = [
    "ConvergenceReport",
    "DiscreteOperator",
    "SturmLiouvilleProblem",
    "build_problem",
    "convergence_study",
    "default_samples",
    "discretize",
    "discretize_ladder",
    "lowest_eigenvalues",
    "residual_norm",
    "truncation_radius",
]

# half-widths of the predicted brackets of ``convergence_study``: the coarsest
# grid's, relative to the closed form; each finer grid's, relative to the last
# step of the h^2 line it extrapolates; the narrower ones tried first around
# the quadratic in h^2 from the third grid on; and the floor of them all, in
# units of N eps |guess| on N cells
_REF_WIDTH = 1e-3
_STEP_WIDTH = 2e-3
_CURVE_WIDTHS = (1e-6, 3e-5)
_FLOOR = 32
_EPS = np.finfo(float).eps
# the cutoff scan: points per window, and the stride of its coarse pass
_SCAN = 8192
_STRIDE = 8


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


def _exp_cutoff(amp, state: str) -> float:
    """Smallest coordinate where the state's density amp^2 falls to 1e-12 of its peak.

    The eigenvalue perturbation from a Dirichlet cutoff scales with the density
    left outside, so thresholding amp^2 (not amp) keeps the truncation error at
    the 1e-12 level without inflating the grid spacing.

    The rule is applied to the 8192 evenly spaced points of a window
    [hi 1e-4, hi], doubled from hi = 16 to 8192: the first point at or after
    the density's largest value (its first one) that lies below 1e-12 of it.
    A density that overflows or is undefined counts as 0.  Each window is
    scanned coarse to fine (``_window_cutoff``).  A state that has not decayed
    by the last window, or by the last one before its coordinate map
    overflows (amp raises ValueError there), raises ValueError naming
    ``state`` and the coordinate the scan reached.
    """
    hi, reached = 16.0, 16e-4
    while hi < 1e4:
        try:
            cut = _window_cutoff(amp, np.linspace(hi * 1e-4, hi, _SCAN))
        except ValueError as exc:  # amp's coordinate map overflows in this window
            raise ValueError(
                f"{state}: density does not decay below 1e-12 of its peak by "
                f"y = {reached:g}, and its coordinate map overflows before y = {hi:g}"
            ) from exc
        if cut is not None:
            return cut
        hi, reached = 2.0 * hi, hi
    raise ValueError(f"{state}: density does not decay below 1e-12 of its peak by y = {reached:g}")


def _window_cutoff(amp, grid):
    """``_exp_cutoff``'s rule on one window, or None when it finds no cutoff there.

    amp is evaluated at every ``_STRIDE``-th point and the last, then at the
    points of the coarse cells that can hold the rule's answer: the two next
    to each coarse local maximum (one of them holds the peak) and the one
    where the density first falls below the threshold after the peak.  A
    smooth state's density rises to at most one maximum inside a cell, so
    this finds the point that evaluating every one would, unless a point
    between two coarse ones lands within about 1e-6 of a lobe's width of a
    node, where the density dips below 1e-12 of its peak (no state of a
    15000-state random sweep of the models does); no point is evaluated twice.
    """
    n = grid.size
    dens = np.empty(n)
    done = np.zeros(n, dtype=bool)

    def evaluate(idx):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = np.abs(np.asarray(amp(grid[idx]))) ** 2
        dens[idx] = np.where(vals < np.inf, vals, 0.0)  # overflow and NaN count as 0
        done[idx] = True

    coarse = np.r_[0 : n - 1 : _STRIDE, n - 1]
    evaluate(coarse)
    c = dens[coarse]
    top = (c > 0) & np.r_[True, c[1:] >= c[:-1]] & np.r_[c[:-1] >= c[1:], True]
    cells = top[:-1] | top[1:]
    k = int(np.argmax(c))
    below = np.flatnonzero(c[k:] < 1e-12 * c[k])
    if below.size:
        cells[k + below[0] - 1] = True
    fill = np.repeat(cells, np.diff(coarse)) & ~done[:-1]
    evaluate(np.flatnonzero(fill))
    seen = np.flatnonzero(done)
    ipk = seen[np.argmax(dens[seen])]
    peak = dens[ipk]
    if not peak > 0:
        return None
    while True:
        after = seen[seen >= ipk]
        below = np.flatnonzero(dens[after] < 1e-12 * peak)
        if not below.size:
            return None
        j = below[0]
        if after[j - 1] + 1 == after[j]:
            return float(grid[after[j]])
        # the fine peak moved the threshold past the coarse crossing: fill that cell too
        evaluate(np.arange(after[j - 1] + 1, after[j]))
        seen = np.flatnonzero(done)


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

    return _exp_cutoff(amp, f"state n_r={n_r} ang={ang:g}")


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
    return discretize_ladder(problem, [N])[0]


def _sample(f, parts):
    """f at the points of every array in ``parts`` in one call: all the values,
    and their split back into the parts."""
    vals = np.asarray(f(np.concatenate(parts)), dtype=float)
    return vals, np.split(vals, np.cumsum([part.size for part in parts])[:-1])


def discretize_ladder(problem: SturmLiouvilleProblem, grids) -> list:
    """``discretize(problem, N)`` for each N of ``grids``, bit for bit, sampling
    p, w and V once each over the points of all the grids."""
    for N in grids:
        if not isinstance(N, (int, np.integer)) or N < 3:
            raise ValueError(f"need N >= 3 cells, got {N}")
    a, b = problem.domain
    hs = [(b - a) / N for N in grids]
    xs = [a + (np.arange(1, N + 1) - 0.5) * h for N, h in zip(grids, hs)]
    xhs = [a + np.arange(N + 1) * h for N, h in zip(grids, hs)]
    w_all, ws = _sample(problem.w, xs + [xh[1:-1] for xh in xhs])
    v_all, vs = _sample(problem.potential, xs)
    p_all, ps = _sample(problem.p, [xh[1:] for xh in xhs])
    if not (np.all(np.isfinite(w_all)) and np.all(np.isfinite(v_all)) and np.all(np.isfinite(p_all))):
        raise ValueError("non-finite coefficient sampled on the grid")
    if not np.all(w_all > 0):
        raise ValueError("weight must be positive on the open domain")
    m = len(grids)
    ops = []
    for h, x, w, w_half, v, p_half in zip(hs, xs, ws[:m], ws[m:], vs, ps):
        h2 = h * h
        g = p_half[:-1] * w_half
        diag = v.copy()
        diag[:-1] += g / (h2 * w[:-1])
        diag[1:] += g / (h2 * w[1:])
        sw = np.sqrt(w)
        off = -g / (h2 * sw[:-1] * sw[1:])
        diag[-1] += p_half[-1] / h2
        ops.append(DiscreteOperator(diag=diag, off=off, h=h, nodes=x))
    return ops


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
        psi, dpsi, d2psi = _mul3(model.flat_factor_derivatives(x), state.derivatives(x))
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


def _brackets(x, xs, ys, N):
    """Graded guesses (states, guesses, 2) for the eigenvalues at h^2 = x on N
    cells, from the h^2 law E(h) = E(0) + c h^2 + ... through the ladder's
    last points (xs, ys): one point (the closed form) gives it +- 1e-3 |ref|;
    two the line through them, +- 2e-3 of their step; three first the
    quadratic through them, +- 1e-6 and then 3e-5 of the last step, and then
    that line.  No half-width is below 32 N eps |guess|: computed eigenvalues
    of N rows stray from the h^2 law by up to about 31 N eps |lam| once it has
    converged to round-off."""
    y1 = ys[-1]
    if len(ys) == 1:
        guesses = [(y1, _REF_WIDTH * np.abs(y1))]
    else:
        x0, x1, y0 = xs[-2], xs[-1], ys[-2]
        step = y1 - y0
        line = y1 + step * (x - x1) / (x1 - x0)
        guesses = [(line, _STEP_WIDTH * np.abs(step))]
        if len(ys) == 3:
            curve = (step / (x1 - x0) - (y0 - ys[0]) / (x0 - xs[0])) / (x1 - xs[0])
            quad = line + curve * (x - x1) * (x - x0)
            guesses = [(quad, width * np.abs(step)) for width in _CURVE_WIDTHS] + guesses
    out = []
    for guess, width in guesses:
        width = np.maximum(width, _FLOOR * N * _EPS * np.abs(guess))
        out.append(np.stack((guess - width, guess + width), axis=-1))
    return np.stack(out, axis=1)


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
        # the points (h^2, E) of the ladder so far, the closed form being the one at h = 0
        xs, ys = [0.0], [np.asarray(refs[run])]
        for i, op in enumerate(discretize_ladder(problems[top], grids)):
            eig[i, run] = kernels.lowest_eigenvalues_tridiag(
                op.diag, op.off, top + 1, first=first,
                brackets=_brackets(hh[i], xs[-3:], ys[-3:], grids[i]),
            )
            xs.append(hh[i])
            ys.append(eig[i, run])
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
