"""Independent numerical verification engine for the closed-form spectra.

Every radial problem is cast as a Sturm-Liouville triple (p, w, V) with the
operator (-1/w) d/dx (p w d/dx) + V, discretized on a half-cell-offset uniform
grid in conservative (flux) form, symmetrized by the similarity transform
W^(1/2) H W^(-1/2), and solved by LAPACK Sturm-count bisection from NumPy's
bundled OpenBLAS (``oscoul.kernels``, bound on the first eigensolve; each
eigenvalue is resolved to about 2 ulp rather than to ulp * ||T||).  A
convergence study discretizes each distinct domain on each grid, solves each
matrix once, and computes only the eigenvalues it reports: on the coarsest
grid ``dstebz`` finds those indices from the Gershgorin interval; each finer
grid refines every index with ``dlarrk`` inside a bracket built from the
coarser grids (lam +- 1e-3 |lam| on the second grid, then lam_prev +-
|lam_prev - lam_prevprev|), and the kernel redoes with ``dstebz`` any index
it cannot certify inside its bracket.  Eigenvalues are reported in the
doubled convention (2E).

The coefficients (``weighted_coefficients``, the PDM ``flat_coefficients``)
are functions of the radius r and the stretch t, and each model names the
coordinate y its pictures are solved in (``coordinate``; x = sqrt(s) for the
weighted Coulomb-like problem, s for the curved problems' other lam > 0
pictures, the radius otherwise).  ``build_problem`` maps any radial triple to
y in one step, P = p/g'^2, W = w g', V(g) with r = g(y); ``truncation_radius``
cuts every infinite y-domain where the density |u|^2 W falls to 1e-12 of its peak.

The PDM flat pictures use w = 1: BD is -d/dx (1/m) d/dx + V1 (or U) directly;
the MM quarter-power operator and any von Roos ordering are reduced exactly to
that BD form by the substitution psi = m^(1/4) u, which turns the ordering
ambiguity into a closed-form potential term of the model's flat coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .models import BD, PdmOrdering, QuantumNumbers, RadialState

__all__ = [
    "ConvergenceReport",
    "DiscreteOperator",
    "SturmLiouvilleProblem",
    "analytic_reference",
    "build_problem",
    "convergence_study",
    "default_samples",
    "discretize",
    "lowest_eigenvalues",
    "residual_norm",
    "truncation_radius",
]


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """Coefficients of (-1/w) d/dx (p w d/dx) + V on (a, b), self-adjoint in L^2(w dx)."""

    p: Callable
    w: Callable
    potential: Callable
    domain: tuple[float, float]
    bc_inner: str = "natural"  # "natural" (zero flux) | "dirichlet" | "dirichlet-wall"


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
    the analytic reference."""

    grids: tuple
    eigenvalues: tuple  # eigenvalues[i][j]: grid i, state j
    observed_order: tuple
    extrapolated: tuple
    reference: tuple
    rel_error: tuple
    monotone: tuple


def analytic_reference(
    model, ang: float, n_r: int, picture: str = "weighted", ordering: PdmOrdering = BD
) -> float:
    """Closed-form eigenvalue in the oracle's 2E convention."""
    q = QuantumNumbers(n_r, ang)
    if picture == "weighted":
        return 2.0 * model.energy(q)
    return 2.0 * model.pdm_energy(ordering, q)


def _state_scale(model, ang: float, n_r: int) -> float:
    """Radius past which the target state stays below 1e-3 of its peak, on an
    infinite domain: the grid point after the last sample at or above that
    level, so the nodes of an excited state do not end the scan early.  The
    scan runs over [1e-9, 1e9), so it finds narrow states inside r = 1 too."""
    grid = np.geomspace(1e-9, 1e9 * (1 - 1e-12), 8192)
    state = RadialState(model, QuantumNumbers(n_r, ang))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.abs(np.asarray(state(grid)))
    vals = np.where(np.isfinite(vals), vals, 0.0)
    last = np.nonzero(vals >= 1e-3 * vals.max())[0][-1]
    return float(grid[min(last + 1, grid.size - 1)])


def _exp_cutoff(amp, hi0: float = 16.0) -> float:
    """Smallest coordinate where the state's density amp^2 falls to 1e-12 of its peak.

    The eigenvalue perturbation from a Dirichlet cutoff scales with the density
    left outside, so thresholding amp^2 (not amp) keeps the truncation error at
    the 1e-12 level without inflating the grid spacing.
    """
    hi = hi0
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


def truncation_radius(model, ang: float, n_r: int, picture: str = "weighted") -> float:
    """Domain cutoff for the state (n_r, ang), in the coordinate y that solves ``picture``.

    A finite y-domain is kept whole.  Otherwise the cutoff is where the
    state's density |u|^2 W in y falls to 1e-12 of its peak.  That density is
    psi^2 w dr/dy in both pictures (the flat u^2 is psi^2 times the weighted
    measure), so only the coordinate depends on the picture.
    """
    to_r, end = model.coordinate(picture)
    if math.isfinite(end):
        return end
    q = QuantumNumbers(n_r, ang)
    if not model.is_bound(q):
        raise ValueError("truncation undefined: target state is not normalizable")
    w = model.weighted_coefficients(ang)["w"]

    def amp(y):
        r, t, dr = to_r(y)
        return model.amplitude(q, r, t) * np.sqrt(w(r, t) * dr)

    return _exp_cutoff(amp)


def build_problem(
    model,
    ang: float,
    picture: str = "weighted",
    ordering: Optional[PdmOrdering] = None,
    n_states: int = 2,
    r_max: Optional[float] = None,
) -> SturmLiouvilleProblem:
    """Sturm-Liouville form of one radial problem in the model's solved coordinate.

    picture "weighted" solves the curved radial equation against its measure;
    "flat" solves the PDM picture (w = 1) for the given von Roos ordering.
    The radial (p, w, V) become P = p/g'^2, W = w g' and V(g) in the
    coordinate y of ``model.coordinate(picture)``, r = g(y).  The domain is
    truncated (if infinite) to cover the lowest ``n_states`` states of the
    channel; ``r_max`` overrides the automatic rule, in y.
    """
    if picture == "weighted":
        if ordering is not None:
            raise ValueError("ordering applies to the flat picture only")
        coeff = model.weighted_coefficients(ang)
        bc_inner = "natural"
    elif picture == "flat":
        if model.lam == 0:
            raise ValueError("the PDM flat picture applies to the curved models only")
        coeff = model.flat_coefficients(ang, BD if ordering is None else ordering)
        bc_inner = "dirichlet-wall"
    else:
        raise ValueError(f"unknown picture {picture!r}")
    to_r, end = model.coordinate(picture)
    if r_max is None:
        r_max = truncation_radius(model, ang, n_states - 1, picture)
    if not 0.0 < r_max <= end:
        raise ValueError("r_max outside the model domain")
    p, w, V = coeff["p"], coeff["w"], coeff["V"]

    def P(y):
        r, t, dr = to_r(y)
        return p(r, t) / (dr * dr)

    def W(y):
        r, t, dr = to_r(y)
        return w(r, t) * dr

    def U(y):
        r, t, _ = to_r(y)
        return V(r, t)

    return SturmLiouvilleProblem(
        p=P,
        w=W,
        potential=U,
        domain=(0.0, float(r_max)),
        bc_inner=bc_inner,
    )


def discretize(problem: SturmLiouvilleProblem, N: int) -> DiscreteOperator:
    """Symmetric tridiagonal flux-form discretization on N half-offset cells.

    Interior interfaces carry the flux coefficient (p w)(x_(i+-1/2)); after the
    W^(1/2) similarity transform row i couples its neighbours with
    -(p w)(x_(i+-1/2)) / (h^2 sqrt(w_i w_(i+-1))).  Sampling w at the interface
    (rather than the geometric mean of the cell centers) keeps the eigenvalue
    error a clean h^2 series even for half-integer-power weights.  Dirichlet
    rows keep both flux terms on the diagonal but drop the outside coupling
    (the boundary one with the cell-center weight, since the measure may be
    singular at the endpoint itself); the natural row at the origin sets the
    inner flux to zero and never samples p there, where it may be infinite
    (p = 1/(4x^2) in x).  The outer end is always a Dirichlet wall.
    """
    if not isinstance(N, (int, np.integer)) or N < 3:
        raise ValueError(f"need N >= 3 cells, got {N}")
    a, b = problem.domain
    h = (b - a) / N
    x = a + (np.arange(1, N + 1) - 0.5) * h
    xh = a + np.arange(N + 1) * h
    first = 1 if problem.bc_inner == "natural" else 0
    w = np.asarray(problem.w(x), dtype=float)
    v = np.asarray(problem.potential(x), dtype=float)
    p_half = np.asarray(problem.p(xh[first:]), dtype=float)
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
    g = p_half[1 - first : -1] * w_half
    diag = v.copy()
    diag[:-1] += g / (h2 * w[:-1])
    diag[1:] += g / (h2 * w[1:])
    off = -g / (h2 * np.sqrt(w[:-1] * w[1:]))
    # "dirichlet" zeroes the ghost cell center (wall at a - h/2, the spec form);
    # "dirichlet-wall" reflects it (ghost = -u_1, wall at the endpoint itself),
    # needed at the origin of the flat picture where the eigenfunction has a
    # nonzero slope and the half-cell wall shift would cost O(h).
    if problem.bc_inner == "dirichlet":
        diag[0] += p_half[0] / h2
    elif problem.bc_inner == "dirichlet-wall":
        diag[0] += 2.0 * p_half[0] / h2
    elif problem.bc_inner != "natural":
        raise ValueError(f"unknown inner boundary {problem.bc_inner!r}")
    diag[-1] += p_half[-1] / h2
    return DiscreteOperator(diag=diag, off=off, h=h, nodes=x)


def lowest_eigenvalues(op: DiscreteOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the discretized operator (2E convention)."""
    from . import kernels

    return kernels.lowest_eigenvalues_tridiag(op.diag, op.off, k)


def residual_norm(
    state: RadialState,
    samples,
    picture: str = "weighted",
    ordering: PdmOrdering = BD,
) -> float:
    """Max scaled residual |L[psi] - 2E psi| / (|2E psi| + local operator scale).

    Uses exact analytic derivatives only.  Samples where every term underflows
    are skipped; if all are skipped a ValueError is raised.
    """
    model, q = state.model, state.q
    x = np.atleast_1d(np.asarray(samples, dtype=float))
    if picture == "weighted":
        coeff = model.weighted_coefficients(q.ang)
        psi, dpsi, d2psi = state.derivatives(x)
        lam2e = 2.0 * model.energy(q)
    elif picture == "flat":  # -(p psi')' + V psi = 2E psi, c1 = p'
        coeff = model.flat_coefficients(q.ang, ordering)
        f, df, d2f = model.flat_factor_derivatives(x)
        psi0, dpsi0, d2psi0 = state.derivatives(x)
        psi = f * psi0
        dpsi = df * psi0 + f * dpsi0
        d2psi = d2f * psi0 + 2.0 * df * dpsi0 + f * d2psi0
        lam2e = 2.0 * model.pdm_energy(ordering, q)
    else:
        raise ValueError(f"unknown picture {picture!r}")
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


def convergence_study(
    model,
    ang: float,
    k: int,
    grids,
    picture: str = "weighted",
    ordering: Optional[PdmOrdering] = None,
    r_max: Optional[float] = None,
) -> ConvergenceReport:
    """Eigenvalues of the k lowest states across grids, with observed order and
    Richardson extrapolation from the two finest grids."""
    # a state without a closed form is a usage error: report it before any solve
    eff = BD if ordering is None else ordering
    refs = [float(analytic_reference(model, ang, j, picture, eff)) for j in range(k)]
    grids = [int(N) for N in grids]
    if len(grids) < 3 or any(b <= a for a, b in zip(grids, grids[1:])):
        raise ValueError("need at least 3 strictly increasing grid sizes")
    # each target state gets its own truncation, so low states keep a fine grid;
    # consecutive states on the same domain share one solve per grid
    problems = [
        build_problem(model, ang, picture, ordering, n_states=j + 1, r_max=r_max)
        for j in range(k)
    ]
    # the top state of each run of consecutive states on one domain
    tops = [
        j for j in range(k) if j + 1 == k or problems[j + 1].domain != problems[j].domain
    ]
    from . import kernels

    eig = np.empty((len(grids), k))
    first = 0
    for top in tops:
        run = slice(first, top + 1)
        brackets = None  # the coarsest grid bisects from the Gershgorin interval
        for i, N in enumerate(grids):
            op = discretize(problems[top], N)
            eig[i, run] = kernels.lowest_eigenvalues_tridiag(
                op.diag, op.off, top + 1, first=first, brackets=brackets
            )
            # the next grid's guess: 1e-3 relative around the coarsest value,
            # then the last step of the sequence around the latest one
            prev = eig[i, run]
            width = 1e-3 * np.abs(prev) if i == 0 else np.abs(prev - eig[i - 1, run])
            brackets = np.column_stack((prev - width, prev + width))
        first = top + 1
    hs = 1.0 / np.asarray(grids, dtype=float)
    orders, extrap, errs, mono = [], [], [], []
    for j in range(k):
        seq = eig[:, j]
        d1 = seq[-2] - seq[-3]
        d2 = seq[-1] - seq[-2]
        monotone = d1 * d2 > 0 and abs(d2) < abs(d1)
        mono.append(bool(monotone))
        if monotone:
            order = math.log(abs(d1 / d2)) / math.log(hs[-3] / hs[-2])
            rich = seq[-1] + (seq[-1] - seq[-2]) / ((hs[-2] / hs[-1]) ** 2 - 1.0)
        else:
            order = math.nan
            rich = math.nan
        orders.append(float(order))
        extrap.append(float(rich))
        errs.append(float(abs(rich - refs[j]) / abs(refs[j])) if math.isfinite(rich) else math.nan)
    return ConvergenceReport(
        grids=tuple(grids),
        eigenvalues=tuple(tuple(row) for row in eig),
        observed_order=tuple(orders),
        extrapolated=tuple(extrap),
        reference=tuple(refs),
        rel_error=tuple(errs),
        monotone=tuple(mono),
    )


def default_samples(model, q: QuantumNumbers, n: int = 50) -> np.ndarray:
    """Deterministic interior sample points covering the bulk of the state."""
    lo, hi = model.domain
    if math.isfinite(hi):
        return np.linspace(lo + 0.02 * (hi - lo), hi - 0.05 * (hi - lo), n)
    scale = _state_scale(model, q.ang, q.n_r)
    return np.linspace(0.02 * scale, scale, n)
