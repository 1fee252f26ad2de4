"""The r = sqrt(R) duality between oscillator and Coulomb pictures.

Maps a d-dimensional oscillator state onto a D = (d+2)/2 dimensional Coulomb
(or Coulomb-like) state with L = l/2, exchanging the roles of coupling
constant and energy.  ``map_curved`` covers every lam: lam = 0 is the
Euclidean pair (oscillator frequency omega = beta, Coulomb problem in flat
space), the same formulas with the curvature terms vanishing.  Only even l
produces an integer Coulomb angular number; odd l is accepted and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import CoulombLike, NonlinearOscillator, QuantumNumbers

__all__ = [
    "DualPair",
    "PointwiseReport",
    "beta_from_coupling",
    "map_curved",
    "verify_pointwise",
]


@dataclass(frozen=True)
class DualPair:
    """An oscillator state with its Coulomb-side image under r = sqrt(R)."""

    oscillator: NonlinearOscillator
    osc_q: QuantumNumbers
    coulomb: CoulombLike
    coulomb_q: QuantumNumbers
    coulomb_energy: float
    integer_L: bool


@dataclass(frozen=True)
class PointwiseReport:
    """Result of the pointwise ratio check S(R) / R_osc(sqrt(R))."""

    max_deviation: float
    n_used: int
    skipped: tuple


def map_curved(d: int, l: int, lam: float, beta: float, n_r: int = 0) -> DualPair:
    """Oscillator (d, l, lam, beta, n_r) -> Coulomb-side (D, L, Q, E) image.

    Maps the nonlinear oscillator onto the Coulomb-like problem; at lam = 0
    these are the Euclidean oscillator with omega = beta and the Euclidean
    Coulomb problem, through the same formulas.
    """
    osc = NonlinearOscillator(d=d, lam=lam, beta=beta)
    oq = QuantumNumbers(n_r, l)
    if not osc.is_bound(oq):
        raise ValueError(
            f"oscillator state n = {oq.n} is not normalizable for lam = {lam}, beta = {beta}"
        )
    e_osc = osc.energy(oq)
    D = (d + 2) / 2.0
    L = l / 2.0
    Q = 0.5 * (e_osc - 2.0 * lam * L * (L + D - 2.0))
    cal_e = -beta * (beta + lam) / 8.0 + 0.25 * lam * e_osc
    cm = CoulombLike(D=D, lam=lam, Q=Q)
    cq = QuantumNumbers(n_r, L)
    energy = cm.energy(cq)
    # both routes cancel terms of this size, so an energy of 0 carries their round-off
    terms = abs(beta * (beta + lam)) / 8.0 + abs(0.25 * lam * e_osc)
    if abs(cal_e - energy) > 1e-12 * terms:
        raise RuntimeError(f"internal duality inconsistency in map_curved: {cal_e} vs {energy}")
    return DualPair(
        oscillator=osc,
        osc_q=oq,
        coulomb=cm,
        coulomb_q=cq,
        coulomb_energy=cal_e,
        integer_L=(int(l) % 2 == 0),
    )


def beta_from_coupling(D: float, lam: float, Q: float, n_r: int, L: float) -> float:
    """Invert the curved coupling map: the beta whose dual state carries coupling Q."""
    nu = n_r + L
    den = nu + 0.5 * (D - 1.0)
    if den <= 0:
        raise ValueError("need nu + (D-1)/2 > 0")
    beta = (Q + lam * (nu * (nu + D - 1.5) + L * (L + D - 2.0))) / den
    if lam != 0 and (beta <= 0 or beta * (beta + lam) <= 0):
        raise ValueError(
            f"inversion gives beta = {beta}, which is not a valid oscillator strength"
        )
    return beta


def _median(x) -> float:
    """``np.median`` of a non-empty 1-d float array, the same float, NaN when
    any entry is NaN; np.median itself imports numpy.ma, about 12 ms of a
    fresh process.  Its mean of the middle entries sums from +0.0, so a
    median of zeros is +0.0."""
    m = x.size // 2
    odd = x.size % 2
    part = np.partition(x, [m, -1] if odd else [m - 1, m, -1])
    if math.isnan(part[-1]):  # NaN sorts last
        return math.nan
    if odd:
        return 0.0 + float(part[m])
    return (0.0 + float(part[m - 1]) + float(part[m])) / 2


def verify_pointwise(pair: DualPair, samples) -> PointwiseReport:
    """Max relative deviation of S(R)/R_osc(sqrt(R)) from its median ratio.

    Samples falling on an oscillator node are skipped and reported; the median
    keeps the check robust near nodes.
    """
    R = np.atleast_1d(np.asarray(samples, dtype=float))
    lo, hi = pair.coulomb.domain
    if not np.all((R > lo) & (R < hi)):
        raise ValueError("samples must lie strictly inside the Coulomb-side domain")
    s_coul = np.asarray(pair.coulomb.wavefunction(pair.coulomb_q, R))
    s_osc = np.asarray(pair.oscillator.wavefunction(pair.osc_q, np.sqrt(R)))
    scale = np.max(np.abs(s_osc))
    if scale == 0:
        raise ValueError("oscillator wavefunction vanishes on all samples")
    node = np.abs(s_osc) <= 1e-12 * scale
    used = ~node
    ratios = s_coul[used] / s_osc[used]
    med = _median(ratios)
    if med == 0:
        raise ValueError("median ratio is zero; functions are unrelated")
    dev = float(np.max(np.abs(ratios / med - 1.0)))
    return PointwiseReport(max_deviation=dev, n_used=int(used.sum()), skipped=tuple(R[node]))
