"""Weighted-measure quadrature: panelled Gauss-Legendre inner products,
numerical normalization, and the norm-divergence scan that operationalizes the
bound-state inequalities.

Infinite domains are integrated to an analytic-tail-justified truncation with
width-doubling panels.  A finite upper end of a measure's domain (the
curvature endpoint at lam < 0) is graded as singular: the panels are graded
geometrically into the (integrable) singularity of the measure there.

Each value is computed once: the Gauss-Legendre reference rule and the
1024-point probe grid of the automatic truncation are cached as read-only
arrays (the probe grid's right end only takes the values 16 * 4**j), each
refinement level builds its panel edges in one array expression, and an
inner product of a function with itself (a norm, a normalization, a step of
the divergence scan, a Gram diagonal) evaluates it once per node.  The edges
and products are formed in the floating-point order of a per-panel loop and a
two-sided evaluation, so every result equals theirs to the bit
(``tests/test_quadrature_golden.py`` pins them).

Values live as long as their measure.  An integral without a caller's
truncation runs on node sets fixed by (lo, hi, singular, level), or by the
probe window (lo, hi), so the measure keeps (in its private ``_memo``) each
such read-only rule, its own weight there, and, per model, the raw
``model.wavefunction`` of each ``RadialState`` operand there.  A state's
amplitude multiplies its raw values afterwards, as ``RadialState.__call__``
does, so a Gram matrix evaluates each state once per node set and every bit
stays the same.  With an explicit truncation everything is evaluated afresh
on every call, and so is any operand that is not a ``RadialState``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .models import RadialState

__all__ = [
    "DivergentIntegralError",
    "Measure",
    "Verdict",
    "gauss_legendre",
    "inner_product",
    "measure_for",
    "norm",
    "norm_divergence_scan",
    "normalized",
]

_GRADE_DEPTH_REL = 1e-12  # deepest graded panel, relative to the domain length
_NPOINTS = 24  # Gauss-Legendre nodes per panel
_REL_TOL = 1e-12  # panel-doubling change that ends the refinement


class DivergentIntegralError(ArithmeticError):
    """The integrand does not decay, or panel refinement fails to converge."""


class Verdict(enum.Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    INCONCLUSIVE = "inconclusive"


@functools.cache
def _legendre_rule(npoints: int):
    # read-only: the cache hands every caller the same arrays
    x, w = leggauss(npoints)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(npoints: int, a: float, b: float):
    """Gauss-Legendre nodes and weights on [a, b].

    Exact for polynomials of degree <= 2 npoints - 1; the reference rule on
    [-1, 1] is computed once per npoints.
    """
    if not isinstance(npoints, (int, np.integer)) or npoints < 1:
        raise ValueError(f"npoints must be an integer >= 1, got {npoints}")
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValueError("need finite bounds with a < b")
    x, w = _legendre_rule(int(npoints))
    return a + 0.5 * (b - a) * (x + 1.0), 0.5 * (b - a) * w


@dataclass(frozen=True)
class Measure:
    """Integration weight and domain for one model and picture.  The domain's
    lower end is finite and below its upper end, which may be +inf; a finite
    upper end is graded as a singular endpoint of the weight."""

    weight: Callable
    domain: tuple[float, float]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.domain
        if not (math.isfinite(lo) and lo < hi):
            raise ValueError(f"a measure's domain needs a finite lo < hi, got {self.domain}")


def measure_for(model) -> Measure:
    """The L^2 measure the given model's radial functions are orthogonal under."""
    return Measure(model.weight, model.domain)


@functools.lru_cache(maxsize=128)
def _probe_grid(lo: float, hi: float):
    # anchor the left edge near the origin regardless of hi, so slowly
    # decaying tails are always compared against the true peak; read-only:
    # the cache hands every caller the same array
    start = max(lo, min(1.0, hi) * 1e-8)
    grid = np.geomspace(start, hi * (1.0 - 1e-12), 1024)
    grid.flags.writeable = False
    return grid


def _auto_truncation(integrand, lo: float) -> float:
    # expand until the integrand has decayed to 1e-16 of its running peak, or
    # stop at a window where it is 0 at every probe point
    hi = 16.0
    for _ in range(40):
        vals = np.abs(integrand(_probe_grid(lo, hi), ("probe", lo, hi)))
        peak = float(np.max(vals))
        if peak == 0 or vals[-1] < 1e-16 * peak:
            return hi
        hi *= 4.0
        if hi > 1e30:
            break
    raise DivergentIntegralError("integrand does not decay on (0, inf)")


def _base_edges(lo: float, hi: float, singular: bool) -> np.ndarray:
    """Panel skeleton: log-spaced panels from a small absolute anchor (8 per
    decade resolve structure at any scale, growing or decaying), plus geometric
    grading into a singular outer endpoint (its last 1e-12 sliver is dropped;
    the singularity is integrable there)."""
    span = hi - lo
    grade_start = hi - 0.1 * span if singular else hi
    anchor = 1e-6 * min(1.0, span)
    n_geo = max(24, math.ceil(8.0 * math.log10((grade_start - lo) / anchor)))
    edges = [lo] + list(lo + np.geomspace(anchor, grade_start - lo, n_geo + 1))
    if singular:
        depth = hi - grade_start
        while depth > _GRADE_DEPTH_REL * span * 1.5:
            depth *= 0.5
            edges.append(hi - depth)
    return np.asarray(edges)


def _refine(edges: np.ndarray, level: int) -> np.ndarray:
    if level == 0:
        return edges
    parts = 2**level
    left = edges[:-1, None]
    right = edges[1:, None]
    inner = left + (right - left) * np.arange(1, parts + 1) / parts
    return np.concatenate((edges[:1], inner.ravel()))


def _rule(edges: np.ndarray):
    """The Gauss-Legendre nodes and weights of the panels between edges, flat."""
    ref_nodes, ref_weights = gauss_legendre(_NPOINTS, -1.0, 1.0)
    left = edges[:-1]
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (left + half)[:, None] + half[:, None] * ref_nodes[None, :]
    weights = half[:, None] * ref_weights[None, :]
    return nodes.ravel(), weights.ravel()


def _kept(memo, key, build):
    """memo[key], built on first use and made read-only; build() without a memo."""
    if memo is None:
        return build()
    value = memo.get(key)
    if value is None:
        value = memo[key] = build()
        for array in value if isinstance(value, tuple) else (value,):
            array.flags.writeable = False
    return value


def _factor(fn, memo):
    """fn as (x, key) -> fn(x), where key names the node set x.  The memo keeps
    the raw values of each RadialState there, in one dict per model."""
    if memo is None or type(fn) is not RadialState:
        return lambda x, key: np.asarray(fn(x))
    model, q = fn.model, fn.q
    raw = memo.setdefault(model, {})
    return lambda x, key: fn.amplitude * _kept(raw, (q, key), lambda: model.wavefunction(q, x))


def inner_product(f, g, mu: Measure, truncation: float | None = None) -> float:
    """Integral of f*g against the measure, refined until panel-doubling is quiet.

    Raises DivergentIntegralError when the improper integral has no decaying
    tail or the refinement does not settle.
    """
    lo, hi = mu.domain
    singular = math.isfinite(hi)
    memo = mu._memo
    if truncation is not None:
        truncation = float(truncation)
        if not lo < truncation <= hi:
            raise ValueError("truncation must lie inside the domain")
        # keep endpoint grading for cuts in the outer half: the integrand may
        # still rise steeply toward a nearby singular endpoint
        singular = singular and truncation > lo + 0.5 * (hi - lo)
        hi = truncation
        memo = None
    f_at = _factor(f, memo)
    g_at = f_at if g is f else _factor(g, memo)

    def integrand(x, key):
        fx = f_at(x, key)
        gx = fx if g is f else g_at(x, key)
        return fx * gx * _kept(memo, ("weight", key), lambda: np.asarray(mu.weight(x)))

    if math.isinf(hi):
        hi = _auto_truncation(integrand, lo)
    edges = _kept(memo, ("edges", lo, hi, singular), lambda: _base_edges(lo, hi, singular))

    def integral(level):
        key = (lo, hi, singular, level)
        nodes, weights = _kept(memo, ("rule", key), lambda: _rule(_refine(edges, level)))
        vals = integrand(nodes, key) * weights
        return float(np.sum(vals)), float(np.sum(np.abs(vals)))

    prev = integral(0)[0]
    for level in range(1, 9):
        cur, cur_abs = integral(level)
        # cur_abs guards the criterion for near-zero (orthogonality) integrals
        if abs(cur - prev) <= _REL_TOL * (abs(cur) + cur_abs):
            return cur
        prev = cur
    raise DivergentIntegralError("panel refinement did not converge")


def norm(f, mu: Measure, truncation: float | None = None) -> float:
    """L^2(mu) norm squared of f, up to ``truncation`` when one is given."""
    return inner_product(f, f, mu, truncation=truncation)


def normalized(state: RadialState, mu: Measure) -> RadialState:
    """The state rescaled to unit L^2(mu) norm."""
    n2 = norm(state, mu)
    if n2 == 0:
        q = state.q
        raise ValueError(f"state n_r={q.n_r} ang={q.ang} has zero norm and cannot be normalized")
    return state.scaled(1.0 / math.sqrt(n2))


def _default_truncations(state, mu: Measure):
    lo, hi = mu.domain
    if math.isinf(hi):
        grid = np.geomspace(1e-3, 1e3, 512)
        vals = np.abs(np.asarray(state(grid)) ** 2 * mu.weight(grid))
        r_peak = float(grid[int(np.argmax(vals))])
        t0 = 20.0 * max(r_peak, 1.0)
        return [t0 * 4.0**j for j in range(6)]
    span = hi - lo
    return [hi - span * 10.0 ** (-j) for j in range(1, 7)]


def norm_divergence_scan(state, mu: Measure, truncations=None) -> Verdict:
    """Classify the norm integral as convergent or divergent from a truncation sweep.

    Compares the last two increments of the norm along the sweep: shrinking
    increments (ratio < 1) converge, and so does a last growth exponent in
    the truncation parameter below 0.01; increments that do not shrink
    (ratio >= 1) diverge.  Without a finite ratio (two equal norms before
    the last, or a non-finite norm) the sweep is inconclusive.  The ratio
    reads a slow power-law tail, whose exponent stays large while its
    increments shrink.
    """
    lo, hi = mu.domain
    if truncations is None:
        truncations = _default_truncations(state, mu)
    truncations = sorted(float(t) for t in truncations)
    if len(truncations) < 3:
        raise ValueError("need at least 3 truncations")
    if len(set(truncations)) < len(truncations):
        raise ValueError("truncations must be distinct")
    if not all(lo < t < hi for t in truncations):
        raise ValueError("truncations must lie strictly inside the domain")
    norms = np.array([norm(state, mu, truncation=t) for t in truncations])
    if math.isinf(hi):
        xs = np.array(truncations)
    else:
        xs = 1.0 / (hi - np.array(truncations))
    slope = np.diff(np.log(norms))[-1] / np.diff(np.log(xs))[-1]
    before, last = np.diff(norms)[-2:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = last / before
    if slope < 0.01:
        return Verdict.CONVERGES
    if not math.isfinite(ratio):
        return Verdict.INCONCLUSIVE
    return Verdict.CONVERGES if ratio < 1 else Verdict.DIVERGES
