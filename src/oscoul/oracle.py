"""Independent numerical verification engine for the closed-form spectra.

Every radial problem is cast as a Sturm-Liouville triple (p, w, V) with the
operator (-1/w) d/dx (p w d/dx) + V, discretized on a half-cell-offset uniform
grid in conservative (flux) form, symmetrized by the similarity transform
W^(1/2) H W^(-1/2), and solved by LAPACK ``dlarrk`` Sturm-count bisection
from NumPy's bundled OpenBLAS (``oscoul.kernels``, bound on the first
eigensolve).  A convergence study takes a doubling ladder, each grid twice
the one before, and discretizes each distinct domain on all of its grids at
once (``discretize_ladder``: one call samples p, w and V on the finest
grid's half-cell lattice, and every grid reads its cell centres and
interfaces from it), solves each matrix once, and computes only the
eigenvalues it reports.  Each is bisected inside guesses that the h^2 law
predicts from the points (h^2, lam) of the ladder so far, the closed form
being the point at h = 0: on the coarsest grid the reference +- 1e-3 |ref|;
on the second the line through the first two points,
lam_0 + (ref - lam_0)(1 - h_1^2/h_0^2) +- 2e-3 |ref - lam_0|; on each later
grid first the quadratic in h^2 through the last three points, +- 1e-6 and
then +- 3e-5 of the last step |lam_(i-1) - lam_(i-2)|, and then the line
through the last two (Richardson) +- 2e-3 of it.  Sturm bisection
pays one count of N rows per halving, and the narrow guesses, which hold
nearly every state, take the finest grid from about 26 halvings to 17 at
2 ulp, and to 7 at the resolution below.  No half-width is below
32 N eps |guess|, the spread of a computed eigenvalue about the h^2 law
once the law converges to round-off.  A guess only saves
time: the kernel accepts an eigenvalue only when the Sturm counts certify its
index strictly inside it, and otherwise tries the next guess and at last the
Gershgorin interval, so a wrong closed form, an error that is not O(h^2) or a
zero-width guess (ref = 0) costs more bisection, and moves the answer only
within its resolution.  Bisection stops at a relative width of N eps on N
cells (``ConvergenceReport.resolution``), not at the kernel's default 2 eps:
the matrix's own rounding already spreads each eigenvalue by up to about
31 N eps |lam|, so the digits below N eps are noise, and skipping them takes
about 40 % of the Sturm counts off a study.  Whichever guess certifies it,
each eigenvalue lies within N eps |lam| of the 2-ulp solve of the same
matrix (``lowest_eigenvalues``).  Eigenvalues are reported in the doubled
convention (2E).

Each side of the duality gives every picture's coefficients by one rule
(``coefficients``): the arrays (p, w, V, c1) at the radius r and the stretch
t, with p = t^mu, w = r^k t^e and c1 = (p w)'/w.  It also names the one
coordinate y every picture is solved in (``coordinate``; x = sqrt(s) on the
Coulomb side, s on the oscillator side for lam > 0, the radius otherwise).
``build_problem`` maps any radial triple to y in one step, P = p/g'^2,
W = w g', V(g) with r = g(y), from one call of the coordinate map; the map
forms P, the same p = 1/m in every picture, with t cancelled.
``truncation_radius`` cuts every infinite y-domain where the density |u|^2 W
falls to 1e-12 of its peak.  It applies that rule to the 8192 points of a
window [hi/1e4, hi] doubled from hi = 16, but evaluates the state at every
8th point and then only in the cells that can hold the peak, a node or the
crossing: the same cutoff from about an eighth of the points.  Each
window's grid is built once per process and cached read-only.  A state
whose coordinate map overflows before its density has decayed raises
ValueError.

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

An ordering selects the picture: ``None`` solves the weighted equation
against the measure w = r^(dim-1) t^e; BD or MM the PDM flat picture,
-m^xi d/dr m^eta d/dr m^xi + V with the paper's potential of that ordering
(V1 or V2 on the oscillator side, U on the Coulomb side), which at lam = 0
(m = 1) is the Euclidean flat picture.  Its solution is phi = m^xi psi, with
weight w = m^(-2 xi): 1 for BD and m^(1/2) for MM.  These are the paper's
two orderings and the only von Roos triples (O. von Roos, Phys. Rev. B 27,
7547 (1983)) that ``PdmOrdering`` accepts: the paper pairs each with its own
oscillator-side potential, so it defines no problem for a third.
"""

from __future__ import annotations

import functools
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
    "discretize_ladder",
    "lowest_eigenvalues",
    "residual_norm",
    "truncation_radius",
]

# half-widths of the predicted brackets of ``convergence_study``: the coarsest
# grid's, relative to the closed form; each finer grid's, relative to the last
# step of the h^2 line it extrapolates; the narrower ones tried first around
# the quadratic in h^2 from the third grid on; and the floor of them all, in
# units of N eps |guess| on N cells, above the spread of about 31 N eps |lam|
# that rounding puts on a computed eigenvalue
_REF_WIDTH = 1e-3
_STEP_WIDTH = 2e-3
_CURVE_WIDTHS = (1e-6, 3e-5)
_FLOOR = 32
_EPS = float(np.finfo(float).eps)
# the cutoff scan: points per window, and the stride of its coarse pass
_SCAN = 8192
_STRIDE = 8


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """(-1/w) d/dx (p w d/dx) + V on (a, b), self-adjoint in L^2(w dx); one call
    of ``coefficients`` maps an array of points x to the arrays (p, w, V)."""

    coefficients: Callable
    domain: tuple[float, float]


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric tridiagonal representation W^(1/2) H W^(-1/2) on cell centers."""

    diag: np.ndarray
    off: np.ndarray


@dataclass(frozen=True)
class ConvergenceReport:
    """Grid study of one (model, ang) channel: eigenvalues per grid plus
    observed order, Richardson extrapolation from the two finest grids, and
    the analytic reference; cutoffs[j] ends state j's solved y-domain, and
    resolution[i] is the relative width N eps to which grid i's eigenvalues
    were bisected."""

    grids: tuple
    eigenvalues: tuple  # eigenvalues[i][j]: grid i, state j
    observed_order: tuple
    extrapolated: tuple
    reference: tuple
    rel_error: tuple
    monotone: tuple
    cutoffs: tuple
    resolution: tuple


def _exp_cutoff(amp, state: str) -> float:
    """Smallest coordinate where the state's density amp^2 falls to 1e-12 of its peak.

    The eigenvalue perturbation from a Dirichlet cutoff scales with the density
    left outside, so thresholding amp^2 (not amp) keeps the truncation error at
    the 1e-12 level without inflating the grid spacing.

    The rule is applied to the 8192 evenly spaced points of a window
    [hi 1e-4, hi], doubled from hi = 16 to 8192: the first point at or after
    the density's largest value (its first one) that lies below 1e-12 of it.
    A density that overflows or is undefined counts as 0, and the whole scan
    runs with floating-point warnings off.  Each window is scanned coarse to
    fine (``_window_cutoff``) on its grid, built once per process and shared
    read-only (``_scan_grid``).  A state that has not decayed by the last
    window, or by the last one before its coordinate map overflows (amp
    raises ValueError there), raises ValueError naming ``state`` and the
    coordinate the scan reached.
    """
    hi, reached = 16.0, 16e-4
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while hi < 1e4:
            try:
                cut = _window_cutoff(amp, _scan_grid(hi))
            except ValueError as exc:  # amp's coordinate map overflows in this window
                raise ValueError(
                    f"{state}: density does not decay below 1e-12 of its peak by "
                    f"y = {reached:g}, and its coordinate map overflows before y = {hi:g}"
                ) from exc
            if cut is not None:
                return cut
            hi, reached = 2.0 * hi, hi
    raise ValueError(f"{state}: density does not decay below 1e-12 of its peak by y = {reached:g}")


@functools.lru_cache(maxsize=16)
def _scan_grid(hi: float) -> np.ndarray:
    """The 8192 points of the scan window [hi 1e-4, hi]; read-only, since the
    cache hands every scan the same array."""
    grid = np.linspace(hi * 1e-4, hi, _SCAN)
    grid.flags.writeable = False
    return grid


# the coarse pass of a window: every _STRIDE-th point and the last, and the
# number of points each coarse cell spans
_COARSE = np.append(np.arange(0, _SCAN - 1, _STRIDE), _SCAN - 1)
_CELLS = np.diff(_COARSE)


def _window_cutoff(amp, grid):
    """``_exp_cutoff``'s rule on one window of ``_SCAN`` points, or None when
    it finds no cutoff there; the caller turns floating-point warnings off.

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
    dens = np.empty(_SCAN)
    done = np.zeros(_SCAN, dtype=bool)

    def evaluate(idx):
        vals = np.abs(np.asarray(amp(grid[idx]))) ** 2
        dens[idx] = np.where(vals < np.inf, vals, 0.0)  # overflow and NaN count as 0
        done[idx] = True

    evaluate(_COARSE)
    c = dens[_COARSE]
    # coarse local maxima: no lower than either neighbour, the ends having one
    top = c > 0
    top[1:] &= c[1:] >= c[:-1]
    top[:-1] &= c[:-1] >= c[1:]
    cells = top[:-1] | top[1:]
    k = int(np.argmax(c))
    below = np.flatnonzero(c[k:] < 1e-12 * c[k])
    if below.size:
        cells[k + below[0] - 1] = True
    fill = np.repeat(cells, _CELLS) & ~done[:-1]
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
    psi^2 w dr/dy in every picture (the flat u^2 is psi^2 times the weighted
    measure, and the gauge and the ordering's m^xi cancel in |v|^2 W), so one
    cutoff serves them all.
    """
    to_r, end = model.coordinate()
    if math.isfinite(end):
        return end
    q = QuantumNumbers(n_r, ang)
    if not model.is_bound(q):
        raise ValueError("truncation undefined: target state is not normalizable")

    def amp(y):
        r, t, dr, _ = to_r(y)
        return model.amplitude(q, r, t) * np.sqrt(model._weight(r, t) * dr)

    return _exp_cutoff(amp, f"state n_r={n_r} ang={ang:g}")


def build_problem(
    model,
    ang: float,
    ordering: Optional[PdmOrdering] = None,
    n_states: int = 2,
) -> SturmLiouvilleProblem:
    """Sturm-Liouville form of one radial problem in the model's solved coordinate.

    ordering None solves the curved radial equation against its measure; BD
    or MM solves the PDM picture of that ordering, gauged by r^a: weight
    r^(2a) w and potential V - a c1/r - a(a-1) p/r^2, from one call of
    ``model.coefficients``.  The radial (w, V) become W = w g' and V(g) in the
    coordinate y of ``model.coordinate()``, r = g(y), which also gives P.  The
    domain is truncated (if infinite) to cover the lowest ``n_states`` states
    of the channel, by ``truncation_radius``.
    """
    a = model.flat_exponent(ang)
    to_r, _ = model.coordinate()

    def coefficients(y):
        r, t, dr, P = to_r(y)
        p, w, V, c1 = model.coefficients(ang, ordering, r, t)
        if ordering is not None:
            w = r ** (2.0 * a) * w
            V = V - a * c1 / r - a * (a - 1.0) * p / (r * r)
        return P, w * dr, V

    return SturmLiouvilleProblem(coefficients, (0.0, truncation_radius(model, ang, n_states - 1)))


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


def _doubling(grids) -> list:
    """The grid sizes as ints; ValueError unless each is an integer N >= 3
    and twice the one before."""
    grids = list(grids)
    if not all(isinstance(N, (int, np.integer)) and N >= 3 for N in grids) or any(
        M != 2 * N for N, M in zip(grids, grids[1:])
    ):
        raise ValueError(f"need each grid size twice the one before, of N >= 3 cells, got {grids}")
    return [int(N) for N in grids]


def discretize_ladder(problem: SturmLiouvilleProblem, grids) -> list:
    """``discretize(problem, N)`` for each N of a doubling ladder (each N twice
    the one before), bit for bit.

    One call of the coefficients samples the finest grid's half-cell lattice
    y_j = a + j (b - a) / (2 N_f), j = 1 ... 2 N_f: p is kept at the even j,
    w and V at j < 2 N_f.  w and V at the wall, where t = 0 on a finite domain,
    are dropped, so the call runs with floating-point warnings off; every kept
    sample must be finite and every w positive.  A grid of N cells, s = 2 N_f / N
    steps each, reads its centres at j = s/2, 3 s/2, ... and its interfaces at
    j = s, 2 s, ..., 2 N_f.  A grid on which an entry overflows (h^2 w does
    on a domain as long as 1e150) raises ValueError naming it: its couplings
    would silently read 0.
    """
    grids = _doubling(grids)
    a, b = problem.domain
    n = grids[-1]
    y = a + np.arange(1, 2 * n + 1) * ((b - a) / (2 * n))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p_all, w_all, v_all = (np.asarray(c, dtype=float) for c in problem.coefficients(y))
    p_all, w_all, v_all = p_all[1::2], w_all[:-1], v_all[:-1]
    if not all(np.isfinite(c).all() for c in (p_all, w_all, v_all)):
        raise ValueError("non-finite coefficient sampled on the grid")
    if not np.all(w_all > 0):
        raise ValueError("weight must be positive on the open domain")
    ops = []
    try:
        with np.errstate(over="raise"):
            for N in grids:
                s = 2 * n // N
                centres = slice(s // 2 - 1, None, s)
                w, v = w_all[centres], v_all[centres]
                w_half, p_half = w_all[s - 1 :: s], p_all[s // 2 - 1 :: s // 2]
                h = (b - a) / N
                h2 = h * h
                g = p_half[:-1] * w_half
                diag = v.copy()
                diag[:-1] += g / (h2 * w[:-1])
                diag[1:] += g / (h2 * w[1:])
                sw = np.sqrt(w)
                off = -g / (h2 * sw[:-1] * sw[1:])
                diag[-1] += p_half[-1] / h2
                ops.append(DiscreteOperator(diag=diag, off=off))
    except FloatingPointError:
        raise ValueError(
            f"the operator overflows on the grid of N = {N} cells of y in ({a:g}, {b:g})"
        ) from None
    return ops


def lowest_eigenvalues(op: DiscreteOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the discretized operator (2E convention),
    each to about 2 ulp, the kernel's default resolution."""
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
        psi, dpsi, d2psi = state.derivatives(x)
        lam2e = 2.0 * model.energy(q)
    else:  # -(1/w)(p w phi')' + V phi = 2E phi for phi = m^xi psi, by the product rule
        (f0, f1, f2), (g0, g1, g2) = model.flat_factor_derivatives(ordering, x), state.derivatives(x)
        psi, dpsi, d2psi = f0 * g0, f1 * g0 + f0 * g1, f2 * g0 + 2.0 * f1 * g1 + f0 * g2
        lam2e = 2.0 * model.pdm_energy(ordering, q)
    p, _, V, c1 = model.coefficients(q.ang, ordering, x, model.stretch(x))
    kin2 = p * d2psi
    kin1 = c1 * dpsi
    pot = V * psi
    # both pictures: p psi'' + c1 psi' - V psi + 2E psi = 0
    resid = np.abs(kin2 + kin1 - pot + lam2e * psi)
    scale = np.abs(lam2e * psi) + np.abs(kin2) + np.abs(kin1) + np.abs(pot)
    usable = scale > 1e-290
    if not np.any(usable):
        raise ValueError("all samples sit where the operator underflows")
    return float(np.max(resid[usable] / (np.abs(lam2e * psi[usable]) + scale[usable])))


def _brackets(x, xs, ys, N):
    """Graded guesses for the eigenvalues at h^2 = x on N cells, one list of
    (lo, hi) float pairs per state, from the h^2 law E(h) = E(0) + c h^2 + ...
    through the ladder's last points (xs, ys), ys[i] holding each state's
    eigenvalue: one point (the closed form) gives it +- 1e-3 |ref|;
    two the line through them, +- 2e-3 of their step; three first the
    quadratic through them, +- 1e-6 and then 3e-5 of the last step, and then
    that line.  No half-width is below 32 N eps |guess|: computed eigenvalues
    of N rows stray from the h^2 law by up to about 31 N eps |lam| once it has
    converged to round-off.  Bisection then starts from a width of about
    68 N eps (``dlarrk`` widens each side by about 2 N eps) and stops at
    N eps, so a certified guess costs about 6 halvings."""
    floor = _FLOOR * N * _EPS
    out = []
    for pts in zip(*ys):  # one state's points
        y1 = pts[-1]
        if len(pts) == 1:
            guesses = [(y1, _REF_WIDTH * abs(y1))]
        else:
            x0, x1, y0 = xs[-2], xs[-1], pts[-2]
            step = y1 - y0
            line = y1 + step * (x - x1) / (x1 - x0)
            guesses = [(line, _STEP_WIDTH * abs(step))]
            if len(pts) == 3:
                curve = (step / (x1 - x0) - (y0 - pts[0]) / (x0 - xs[0])) / (x1 - xs[0])
                quad = line + curve * (x - x1) * (x - x0)
                guesses = [(quad, width * abs(step)) for width in _CURVE_WIDTHS] + guesses
        pairs = []
        for guess, width in guesses:
            width = max(width, floor * abs(guess))
            pairs.append((guess - width, guess + width))
        out.append(pairs)
    return out


def convergence_study(
    model,
    ang: float,
    k: int,
    grids,
    ordering: Optional[PdmOrdering] = None,
) -> ConvergenceReport:
    """Eigenvalues of the k lowest states across a doubling ladder of grids
    (at least 3, each twice the one before), with the observed order
    log2(d1/d2) of the last two changes, Richardson extrapolation from the
    two finest grids, and the closed-form 2E of the weighted equation
    (ordering None) or the ordering's PDM picture.

    ``rel_error`` is |extrapolated - reference| / |reference|; when the
    reference is exactly 0 it is the absolute error |extrapolated| (units
    hbar = m = 1), since no relative error exists there."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    grids = _doubling(grids)
    if len(grids) < 3:
        raise ValueError(f"need at least 3 grid sizes, got {grids}")
    # the coarsest grid holds N_0 eigenvalues: refuse more before any problem is built
    if k > grids[0]:
        raise ValueError(f"k must lie in [1, {grids[0]}], got {k}")
    states = [QuantumNumbers(j, ang) for j in range(k)]
    if ordering is None:
        refs = [2.0 * model.energy(q) for q in states]
    else:
        refs = [2.0 * model.pdm_energy(ordering, q) for q in states]
    # each target state gets its own truncation, so low states keep a fine grid;
    # consecutive states on the same domain share one solve per grid
    problems = [build_problem(model, ang, ordering, n_states=j + 1) for j in range(k)]
    # the top state of each run of consecutive states on one domain
    tops = [
        j for j in range(k) if j + 1 == k or problems[j + 1].domain != problems[j].domain
    ]
    from . import kernels

    hh = [(1.0 / N) * (1.0 / N) for N in grids]
    # each eigenvalue is bisected to a relative width of N eps on N cells,
    # below the about 31 N eps by which rounding already spreads it
    resolution = [N * _EPS for N in grids]
    eig = np.empty((len(grids), k))
    first = 0
    for top in tops:
        run = slice(first, top + 1)
        # the points (h^2, E) of the ladder so far, the closed form being the one at h = 0
        xs, ys = [0.0], [refs[run]]
        for i, op in enumerate(discretize_ladder(problems[top], grids)):
            eig[i, run] = kernels.lowest_eigenvalues_tridiag(
                op.diag, op.off, top + 1, first=first,
                brackets=_brackets(hh[i], xs[-3:], ys[-3:], grids[i]),
                reltol=resolution[i],
            )
            xs.append(hh[i])
            ys.append(eig[i, run].tolist())
        first = top + 1
    orders, extrap, errs, mono = [], [], [], []
    for j in range(k):
        seq = eig[:, j]
        d1 = seq[-2] - seq[-3]
        d2 = seq[-1] - seq[-2]
        monotone = d1 * d2 > 0 and abs(d2) < abs(d1)
        mono.append(bool(monotone))
        if monotone:
            # log2 of the ratio; math.log2 would round differently
            order = math.log(d1 / d2) / math.log(2.0)
            rich = seq[-1] + d2 / 3.0
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
        resolution=tuple(resolution),
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
