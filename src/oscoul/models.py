"""Closed-form radial problems and their position-dependent-mass forms.

Six models: the Euclidean oscillator and Coulomb problems, the nonlinear
(constant-curvature) oscillator and its dual Coulomb-like problem in a
nonconstant-curvature space, and the PDM reinterpretations of the latter two.
Each model class is the one home of its physics: its side of the duality, its
energies and bound-state rule, its measure, its wavefunctions with their exact
derivatives, the Sturm-Liouville coefficients the oracle discretizes (weighted
and, for the curved classes, PDM flat-picture), and the coordinate in which
the oracle solves them.  The PDM forms take one of the paper's two orderings,
``BD`` or ``MM`` (``PdmOrdering`` accepts no other von Roos triple); the
Euclidean classes have none and raise ValueError when asked for one.

The Euclidean classes are the lam = 0 cases of their side of the duality:
the side class holds the one domain, measure, radial coefficients and energy,
written for the curved model, and at lam = 0 (stretch t = 1, beta = omega)
they reduce to the textbook forms.  The Euclidean classes keep only their
parameters and their Laguerre states.

Solved coordinate (``coordinate``), one per side for both pictures, a map
y -> (r, t, dr/dy, P) with the stretch t and the kinetic coefficient
P = p/(dr/dy)^2 in y formed directly.  Coulomb side: x =
sqrt(s), s = log(1+lam R)/lam, so R = expm1(lam x^2)/lam and t = exp(lam x^2);
at lam = 0, R = x^2 and t = 1 (the duality's r = sqrt(R)).  Oscillator side:
s = arcsinh(sqrt(lam) r)/sqrt(lam) for lam > 0, the radius otherwise.  The
flat centrifugal term is a(a-1)/r^2, with a = ``flat_exponent``.

Energies are exact; wavefunctions are returned unnormalized (numerical
normalization lives in ``oscoul.quadrature``).  Units hbar = m = 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Union

from . import specfun
from ._lazy import load

# loaded on first attribute use: the scalar closed forms (energies, bound-state
# rules, PDM shifts) touch no np attribute, so they run without NumPy
np = load("numpy")
# NumPy registers np.integer as numbers.Integral; int first, because the ABC
# check alone costs about 0.5 us a call and states are built in tight loops
_INTEGER = (int, numbers.Integral)

__all__ = [
    "BD",
    "MM",
    "CoulombLike",
    "EuclideanCoulomb",
    "EuclideanOscillator",
    "NonlinearOscillator",
    "PdmOrdering",
    "QuantumNumbers",
    "RadialState",
    "WavefunctionParams",
    "clike_bound_states",
    "wavefunction",
    "wavefunction_derivatives",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _finite(value) -> bool:
    return math.isfinite(float(value))


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial quantum number n_r plus the angular quantum number (l or L).

    ang is an integer l on the oscillator side; Coulomb-side states produced by
    the duality carry L = l/2, which is a half-integer when l is odd.  Derived:
    n = 2 n_r + l (principal, oscillator side) and nu = n_r + L (Coulomb side).
    """

    n_r: int
    ang: float = 0.0

    def __post_init__(self):
        _require(
            isinstance(self.n_r, _INTEGER) and self.n_r >= 0,
            "n_r must be an integer >= 0",
        )
        object.__setattr__(self, "n_r", int(self.n_r))
        object.__setattr__(self, "ang", float(self.ang))
        _require(_finite(self.ang) and self.ang >= 0, "ang must be >= 0")

    @property
    def n(self) -> float:
        return 2 * self.n_r + self.ang

    @property
    def nu(self) -> float:
        return self.n_r + self.ang


@dataclass(frozen=True)
class WavefunctionParams:
    """(rho, sigma, tau) of the Coulomb-like bound state R^L (1+lam R)^tau P^(rho,sigma)(1+2 lam R)."""

    rho: float
    sigma: float
    tau: float


@dataclass(frozen=True)
class PdmOrdering:
    """von Roos ordering (xi, eta, zeta), xi+eta+zeta = -1, of the PDM kinetic
    operator (O. von Roos, Phys. Rev. B 27, 7547 (1983)).

    Only the paper's two orderings exist here: BD (0, -1, 0) and MM (-1/4,
    -1/2, -1/4).  The paper pairs each with its own potential on the
    oscillator side (V1 and V2) but keeps the one potential U on the Coulomb
    side, so no rule names the problem another triple would pose.
    """

    xi: float
    eta: float
    zeta: float

    def __post_init__(self):
        object.__setattr__(self, "xi", float(self.xi))
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "zeta", float(self.zeta))
        _require(
            (self.xi, self.eta, self.zeta) in ((0.0, -1.0, 0.0), (-0.25, -0.5, -0.25)),
            "PDM orderings are BD (0,-1,0) and MM (-0.25,-0.5,-0.25) only",
        )


BD = PdmOrdering(0.0, -1.0, 0.0)
MM = PdmOrdering(-0.25, -0.5, -0.25)


def _check_coordinate(model, x):
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return arr
    # NaN propagates through min and max, and any infinity is an extreme
    least, most = arr.min(), arr.max()
    if not (math.isfinite(least) and math.isfinite(most)):
        raise ValueError("coordinate must be finite")
    lo, hi = model.domain
    if not (least >= lo and most < hi):
        raise ValueError(f"coordinate outside the domain [{lo}, {hi})")
    return arr


def _like_input(value, x):
    return value if np.ndim(x) else float(value)


# ---------------------------------------------------------------------------
# exact derivative triples (f, f', f'') of products and compositions
# ---------------------------------------------------------------------------


def _mul3(fa, fb):
    f0, f1, f2 = fa
    g0, g1, g2 = fb
    return (f0 * g0, f1 * g0 + f0 * g1, f2 * g0 + 2.0 * f1 * g1 + f0 * g2)


def _pow3(x, a):
    if a == 0:
        one = np.ones_like(x)
        zero = np.zeros_like(x)
        return (one, zero, zero)
    return (x**a, a * x ** (a - 1.0), a * (a - 1.0) * x ** (a - 2.0))


def _cpow3(t, dt, ddt, b):
    # (t(x))^b with t > 0
    f = t**b
    f1 = b * t ** (b - 1.0) * dt
    f2 = b * (b - 1.0) * t ** (b - 2.0) * dt * dt + b * t ** (b - 1.0) * ddt
    return (f, f1, f2)


def _exp3(u, du, ddu):
    # exp(-u(x)/2)
    f = np.exp(-0.5 * u)
    return (f, -0.5 * du * f, (0.25 * du * du - 0.5 * ddu) * f)


def _laguerre3(n, alpha, z, dz, ddz):
    p0 = np.asarray(specfun.laguerre(n, alpha, z))
    p1 = np.asarray(specfun.laguerre_derivative(n, alpha, z, order=1))
    p2 = np.asarray(specfun.laguerre_derivative(n, alpha, z, order=2))
    return (p0, p1 * dz, p2 * dz * dz + p1 * ddz)


def _jacobi3(n, a, b, z, dz, ddz):
    p0 = np.asarray(specfun.jacobi(n, a, b, z))
    p1 = np.asarray(specfun.jacobi_derivative(n, a, b, z, order=1))
    p2 = np.asarray(specfun.jacobi_derivative(n, a, b, z, order=2))
    return (p0, p1 * dz, p2 * dz * dz + p1 * ddz)


# ---------------------------------------------------------------------------
# the two sides of the duality
# ---------------------------------------------------------------------------


class _Side:
    """What both sides share.  The stretch t(x) is 1 + lam r^2 on the oscillator
    side and 1 + lam R on the Coulomb side; the PDM mass is a power of it, and
    it is 1 in the Euclidean limit, where the model's lam is 0.

    Coefficients, the measure ``_weight`` and the state ``amplitude`` take t
    next to r, so a solved coordinate supplies t where 1 + lam R(y) cancels.
    """

    def is_bound(self, q: QuantumNumbers) -> bool:
        return True

    def weight(self, x):
        """The measure weight at x (see ``_weight``)."""
        return self._weight(x, self.stretch(x))

    def wavefunction(self, q: QuantumNumbers, x):
        """The unnormalized closed-form radial function at x (see ``amplitude``)."""
        xa = _check_coordinate(self, x)
        return _like_input(self.amplitude(q, xa, self.stretch(xa)), x)

    def flat_factor(self, x):
        """Multiplier turning a weighted-measure eigenfunction into the flat-measure one.

        oscillator side: r^((d-1)/2) (1+lam r^2)^(-1/4);
        coulomb side: R^((D-1)/2) (1+lam R)^(-3/4).
        """
        xa = _check_coordinate(self, x)
        t = self.stretch(xa)
        return _like_input(xa ** ((self.dim - 1.0) / 2.0) * t**self._FLAT_POWER, x)

    def flat_factor_derivatives(self, x):
        """(f, f', f'') of ``flat_factor``; used by the oracle residuals."""
        xa = np.asarray(x, dtype=float)
        return _mul3(
            _pow3(xa, (self.dim - 1.0) / 2.0), _cpow3(*self._stretch3(xa), self._FLAT_POWER)
        )

    def flat_coefficients(self, ang: float, ordering: PdmOrdering) -> dict:
        """The PDM flat picture: the curved models override this; lam = 0 has none."""
        raise ValueError("the PDM flat picture applies to the curved models only")

    def pdm_energy(self, ordering: PdmOrdering, q: QuantumNumbers) -> float:
        """The PDM energy: the curved models override this; lam = 0 has none."""
        raise ValueError("the PDM flat picture applies to the curved models only")

    def flat_exponent(self, ang: float) -> float:
        """a = ang + (dim-1)/2, the larger Frobenius exponent of the flat state."""
        return ang + (self.dim - 1.0) / 2.0

    def _flat_centrifugal(self, ang: float, x):
        a = self.flat_exponent(ang)
        return a * (a - 1.0) / (x * x)


class _OscillatorSide(_Side):
    """Oscillator side of the r = sqrt(R) duality: dimension d, coordinate r."""

    kind = "oscillator"
    _FLAT_POWER = -0.25

    @property
    def dim(self) -> float:
        return float(self.d)

    @property
    def domain(self) -> tuple[float, float]:
        if self.lam >= 0:
            return (0.0, math.inf)
        return (0.0, 1.0 / math.sqrt(-self.lam))

    def energy(self, q: QuantumNumbers) -> float:
        """E_n = beta (n + d/2) - (lam/2) n (n + d - 1), n = 2 n_r + l.

        The formula is returned for every n; for lam > 0 states above
        ``n_max`` it is a formal value of a non-normalizable state (see
        ``is_bound``).
        """
        n = q.n
        return self.beta * (n + self.d / 2.0) - 0.5 * self.lam * n * (n + self.d - 1.0)

    def _weight(self, r, t):
        """Measure weight (1+lam r^2)^(-1/2) r^(d-1)."""
        return t ** (-0.5) * r ** (self.d - 1.0)

    def weighted_coefficients(self, ang: float) -> dict:
        """(p, w, V) of the radial equation plus c1 = p' + p w'/w, each f(r, t)."""
        d, lam, beta = self.d, self.lam, self.beta
        return dict(
            p=lambda r, t: t,
            w=self._weight,
            V=lambda r, t: ang * (ang + d - 2.0) / (r * r) + beta * (beta + lam) * r * r / t,
            c1=lambda r, t: (d - 1.0 + d * lam * r * r) / r,
        )

    def stretch(self, r):
        return 1.0 + self.lam * r * r

    def _stretch3(self, r):
        return (self.stretch(r), 2.0 * self.lam * r, 2.0 * self.lam)

    def pdm_mass(self, r):
        """Position-dependent mass (1+lam r^2)^-1."""
        return _like_input(1.0 / self.stretch(_check_coordinate(self, r)), r)

    def coordinate(self):
        """(y -> (r, t, dr/dy, P), end of y) for y = s at lam > 0, where bound states
        decay exponentially (in r only as a power), and y = r otherwise.

        P = t/(dr/dy)^2 is the kinetic coefficient p = 1/m = t of both
        pictures in y: t at y = r, and 1 at y = s."""
        if self.lam <= 0:

            def to_r(r):
                t = self.stretch(r)
                return r, t, 1.0, t

            return to_r, self.domain[1]
        rt = math.sqrt(self.lam)

        def to_r(s):
            c = np.cosh(rt * s)
            return np.sinh(rt * s) / rt, c * c, c, np.ones_like(c)

        return to_r, math.inf


class _CoulombSide(_Side):
    """Coulomb side of the r = sqrt(R) duality: dimension D, coordinate R."""

    kind = "coulomb"
    _FLAT_POWER = -0.75

    @property
    def dim(self) -> float:
        return self.D

    @property
    def domain(self) -> tuple[float, float]:
        if self.lam >= 0:
            return (0.0, math.inf)
        return (0.0, 1.0 / abs(self.lam))

    def energy(self, q: QuantumNumbers) -> float:
        """E = -f1 f2 / (2 (2 nu + D - 1)^2), with f1 and f2 equal to Q at lam = 0.

        At lam = 0 the energy depends on (n_r, L) through nu only; lam breaks
        that degeneracy.
        """
        nu = q.nu
        ll = q.ang * (q.ang + self.D - 2.0)
        f1 = self.Q + self.lam * (-nu * (nu + 0.5) + ll)
        f2 = self.Q + self.lam * (-(nu + self.D - 1.0) * (nu + self.D - 1.5) + ll)
        return -f1 * f2 / (2.0 * (2.0 * nu + self.D - 1.0) ** 2)

    def _weight(self, R, t):
        """Measure weight (1+lam R)^(-3/2) R^(D-1)."""
        return t ** (-1.5) * R ** (self.D - 1.0)

    def weighted_coefficients(self, ang: float) -> dict:
        """(p, w, V) of the radial equation plus c1 = p' + p w'/w, each f(R, t)."""
        D, lam, Q = self.D, self.lam, self.Q
        c = (2.0 * D - 1.0) / (2.0 * D - 2.0)
        return dict(
            p=lambda R, t: t**2,
            w=self._weight,
            V=lambda R, t: ang * (ang + D - 2.0) / (R * R) - Q / R,
            c1=lambda R, t: (D - 1.0) / R * t * (1.0 + c * lam * R),
        )

    def stretch(self, R):
        return 1.0 + self.lam * R

    def _stretch3(self, R):
        return (self.stretch(R), self.lam, 0.0)

    def pdm_mass(self, R):
        """Position-dependent mass (1+lam R)^-2."""
        t = self.stretch(_check_coordinate(self, R))
        return _like_input(1.0 / (t * t), R)

    def coordinate(self):
        """(x -> (R, t, dR/dx, P), end of x) for x = sqrt(s): R ~ x^2 near the origin
        and the density is Gaussian in x at the far end.

        P = t^2/(dR/dx)^2 is the kinetic coefficient p = 1/m = t^2 of both
        pictures in x.  dR/dx = 2 x t, so P is 1/(2x)^2 exactly, formed
        without t: t underflows in the far tail at lam < 0."""
        lam = self.lam

        def to_r(x):
            g = 2.0 * x
            if lam == 0:
                return x * x, 1.0, g, 1.0 / (g * g)
            u = lam * x * x
            t = np.exp(u)
            return np.expm1(u) / lam, t, g * t, 1.0 / (g * g)

        return to_r, math.inf


# ---------------------------------------------------------------------------
# the models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EuclideanOscillator(_OscillatorSide):
    """Isotropic harmonic oscillator in d Euclidean dimensions."""

    d: int
    omega: float
    lam = 0.0  # the side's formulas at lam = 0 are the Euclidean ones

    def __post_init__(self):
        _require(
            isinstance(self.d, _INTEGER) and self.d >= 2,
            "dimension d must be an integer >= 2",
        )
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "omega", float(self.omega))
        _require(_finite(self.omega) and self.omega > 0, "omega must be positive")

    @property
    def beta(self) -> float:
        """The side's strength: beta is omega at lam = 0."""
        return self.omega

    def amplitude(self, q: QuantumNumbers, r, t):
        """Unnormalized r^l exp(-omega r^2/2) L_{n_r}^(l+(d-2)/2)(omega r^2)."""
        u = self.omega * r * r
        alpha = q.ang + (self.d - 2.0) / 2.0
        return r**q.ang * np.exp(-0.5 * u) * specfun.laguerre(q.n_r, alpha, u)

    def derivatives(self, q: QuantumNumbers, r):
        """(psi, psi', psi'') of ``wavefunction``, exact in r > 0."""
        ra = _check_coordinate(self, r)
        om = self.omega
        u = om * ra * ra
        trip = _mul3(_pow3(ra, q.ang), _exp3(u, 2.0 * om * ra, 2.0 * om))
        alpha = q.ang + (self.d - 2.0) / 2.0
        return _mul3(trip, _laguerre3(q.n_r, alpha, u, 2.0 * om * ra, 2.0 * om))


@dataclass(frozen=True)
class EuclideanCoulomb(_CoulombSide):
    """Attractive -Q/R problem in D dimensions.

    D is a real > 1: the duality image of a d-dimensional oscillator has
    D = (d+2)/2, a half-integer for odd d.
    """

    D: float
    Q: float
    lam = 0.0  # the side's formulas at lam = 0 are the Euclidean ones

    def __post_init__(self):
        object.__setattr__(self, "D", float(self.D))
        object.__setattr__(self, "Q", float(self.Q))
        _require(_finite(self.D) and self.D > 1, "dimension D must be > 1")
        _require(_finite(self.Q) and self.Q > 0, "coupling Q must be positive")

    def amplitude(self, q: QuantumNumbers, R, t):
        """Unnormalized R^L exp(-kappa R) L_{n_r}^(2L+D-2)(2 kappa R), kappa = sqrt(2|E_nu|)."""
        kappa = math.sqrt(2.0 * abs(self.energy(q)))
        alpha = 2.0 * q.ang + self.D - 2.0
        return R**q.ang * np.exp(-kappa * R) * specfun.laguerre(q.n_r, alpha, 2.0 * kappa * R)

    def derivatives(self, q: QuantumNumbers, R):
        """(psi, psi', psi'') of ``wavefunction``, exact in R > 0."""
        Ra = _check_coordinate(self, R)
        kappa = math.sqrt(2.0 * abs(self.energy(q)))
        u = 2.0 * kappa * Ra
        trip = _mul3(_pow3(Ra, q.ang), _exp3(u, 2.0 * kappa, 0.0))
        alpha = 2.0 * q.ang + self.D - 2.0
        return _mul3(trip, _laguerre3(q.n_r, alpha, u, 2.0 * kappa, 0.0))


@dataclass(frozen=True)
class NonlinearOscillator(_OscillatorSide):
    """Nonlinear (Mathews-Lakshmanan type) oscillator in d dimensions.

    Equivalently an oscillator on a space of constant curvature -lam.  The
    potential strength is pinned to alpha^2 = beta*(beta+lam); only that
    one-parameter family is exactly solvable, so alpha is never an input.
    """

    d: int
    lam: float
    beta: float

    def __post_init__(self):
        _require(
            isinstance(self.d, _INTEGER) and self.d >= 2,
            "dimension d must be an integer >= 2",
        )
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "beta", float(self.beta))
        _require(_finite(self.lam) and self.lam != 0, "lam must be nonzero")
        _require(_finite(self.beta) and self.beta > 0, "beta must be positive")
        _require(self.beta * (self.beta + self.lam) > 0, "need beta*(beta+lam) > 0")

    @property
    def n_max(self):
        """Largest normalizable n for lam > 0; None marks the unbounded lam < 0 ladder.

        A negative value means the model has no bound states at all.
        """
        if self.lam < 0:
            return None
        x = self.beta / self.lam - (self.d + 1) / 2.0
        return math.ceil(x - 1e-12)

    def is_bound(self, q: QuantumNumbers) -> bool:
        n_max = self.n_max
        return n_max is None or q.n <= n_max

    def amplitude(self, q: QuantumNumbers, r, t):
        """Unnormalized r^l (1+lam r^2)^(-beta/(2 lam)) P_{n_r}^(l+(d-2)/2, -beta/lam-1/2)(1+2 lam r^2)."""
        lam = self.lam
        a = q.ang + (self.d - 2.0) / 2.0
        b = -self.beta / lam - 0.5
        return r**q.ang * t ** (-self.beta / (2.0 * lam)) * specfun.jacobi(
            q.n_r, a, b, 1.0 + 2.0 * lam * r * r
        )

    def derivatives(self, q: QuantumNumbers, r):
        """(psi, psi', psi'') of ``wavefunction``, exact in r > 0."""
        ra = _check_coordinate(self, r)
        lam = self.lam
        trip = _mul3(_pow3(ra, q.ang), _cpow3(*self._stretch3(ra), -self.beta / (2.0 * lam)))
        a = q.ang + (self.d - 2.0) / 2.0
        b = -self.beta / lam - 0.5
        z = 1.0 + 2.0 * lam * ra * ra
        return _mul3(trip, _jacobi3(q.n_r, a, b, z, 4.0 * lam * ra, 4.0 * lam))

    def _bd_potential(self, ang: float, r, t):
        """V1, the BD potential."""
        lam, beta = self.lam, self.beta
        return self._flat_centrifugal(ang, r) + (beta * (beta + lam) * r * r - 0.25 * lam) / t

    def flat_coefficients(self, ang: float, ordering: PdmOrdering) -> dict:
        """Reduced flat-picture (p, V, c1 = p') of the weight-1 equation, each f(r, t).

        The paper's V2 plus the MM shift collapses to V1, so both orderings
        share the BD potential here.
        """
        lam = self.lam
        return dict(
            p=lambda r, t: t,
            V=lambda r, t: self._bd_potential(ang, r, t),
            c1=lambda r, t: 2.0 * lam * r,
        )

    def pdm_potential(self, ordering: PdmOrdering, ang: float, r):
        """Closed-form PDM potential: V1 for BD, V2 for MM."""
        ra = _check_coordinate(self, r)
        if ordering == BD:
            return _like_input(self._bd_potential(ang, ra, self.stretch(ra)), r)
        lam = self.lam
        val = self._flat_centrifugal(ang, ra) + (
            (self.beta + 0.5 * lam) ** 2 * ra * ra + 0.25 * lam
        ) / (1.0 + lam * ra * ra)
        return _like_input(val, r)

    def pdm_energy(self, ordering: PdmOrdering, q: QuantumNumbers) -> float:
        """PDM energy: the curved energy plus the ordering shift (BD and MM coincide here)."""
        return self.energy(q) - self.d * (self.d - 2.0) * self.lam / 8.0


@dataclass(frozen=True)
class CoulombLike(_CoulombSide):
    """-Q/R problem in the nonconstant-curvature space dual to the nonlinear oscillator."""

    D: float
    lam: float
    Q: float

    def __post_init__(self):
        object.__setattr__(self, "D", float(self.D))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "Q", float(self.Q))
        _require(_finite(self.D) and self.D > 1, "dimension D must be > 1")
        _require(_finite(self.lam) and self.lam != 0, "lam must be nonzero")
        _require(_finite(self.Q) and self.Q > 0, "coupling Q must be positive")

    def is_bound(self, q: QuantumNumbers) -> bool:
        """Normalizability inequality for (n_r, L); strict on the boundary."""
        n_r, L, D = q.n_r, q.ang, self.D
        if self.lam < 0:
            lhs = n_r**2 + (2 * L + D - 1) * n_r + 2 * L**2 + (2 * D - 3) * L + (D - 1) / 4.0
            return lhs < self.Q / abs(self.lam)
        lhs = n_r**2 + (2 * L + D - 1) * n_r + L + (D - 1) * (2 * D - 3) / 4.0
        return lhs < self.Q / self.lam

    def wavefunction_params(self, q: QuantumNumbers) -> WavefunctionParams:
        """The (rho, sigma, tau) triple of the bound-state wavefunction."""
        nu, L, D, lam, Q = q.nu, q.ang, self.D, self.lam, self.Q
        ll = L * (L + D - 2.0)
        rho = 2.0 * L + D - 2.0
        sigma = -(Q + lam * (nu**2 + (D - 1.0) * nu + 0.25 * (D - 1.0) + ll)) / (
            lam * (nu + 0.5 * (D - 1.0))
        )
        tau = -(Q + lam * (nu * (nu + D - 1.5) + ll)) / (lam * (2.0 * nu + D - 1.0))
        return WavefunctionParams(rho=rho, sigma=sigma, tau=tau)

    def amplitude(self, q: QuantumNumbers, R, t):
        """Unnormalized R^L (1+lam R)^tau P_{n_r}^(rho,sigma)(1+2 lam R)."""
        wp = self.wavefunction_params(q)
        z = 1.0 + 2.0 * self.lam * R
        return R**q.ang * t**wp.tau * specfun.jacobi(q.n_r, wp.rho, wp.sigma, z)

    def derivatives(self, q: QuantumNumbers, R):
        """(psi, psi', psi'') of ``wavefunction``, exact in R > 0."""
        Ra = _check_coordinate(self, R)
        lam = self.lam
        wp = self.wavefunction_params(q)
        trip = _mul3(_pow3(Ra, q.ang), _cpow3(*self._stretch3(Ra), wp.tau))
        z = 1.0 + 2.0 * lam * Ra
        return _mul3(trip, _jacobi3(q.n_r, wp.rho, wp.sigma, z, 2.0 * lam, 0.0))

    def _bd_potential(self, ang: float, R):
        """U, the PDM potential of both the BD and the MM ordering."""
        D = self.D
        return self._flat_centrifugal(ang, R) - (
            self.Q - 0.25 * (D - 1.0) * (2.0 * D - 5.0) * self.lam
        ) / R

    def flat_coefficients(self, ang: float, ordering: PdmOrdering) -> dict:
        """Reduced flat-picture (p, V, c1 = p') of the weight-1 equation, each f(R, t):
        U plus the von Roos shift.

        The shift is the potential 2 U_vr = -K1/2 m'^2/m^3 - (xi+zeta)/2 m''/m^2,
        K1 = zeta(eta+zeta-1) + xi(eta+xi-1), that the ordering adds over BD.
        For the mass (1+lam R)^-2 both ratios are constants, 4 lam^2 and
        6 lam^2, so the shift is zero for BD and -lam^2/4 for MM (K1 = 7/8).
        """
        lam = self.lam
        shift = 0.0 if ordering == BD else -0.25 * lam**2
        return dict(
            p=lambda R, t: t**2,
            V=lambda R, t: self._bd_potential(ang, R) + shift,
            c1=lambda R, t: 2.0 * lam * t,
        )

    def pdm_potential(self, ordering: PdmOrdering, ang: float, R):
        """Closed-form PDM potential U, the same for BD and MM."""
        Ra = _check_coordinate(self, R)
        return _like_input(self._bd_potential(ang, Ra), R)

    def pdm_energy(self, ordering: PdmOrdering, q: QuantumNumbers) -> float:
        """PDM energy: the curved energy plus the ordering-dependent shift."""
        D, lam = self.D, self.lam
        base = self.energy(q)
        if ordering == BD:
            return base - (2.0 * D - 1.0) * (2.0 * D - 5.0) * lam**2 / 32.0
        return base - (2.0 * D - 3.0) ** 2 * lam**2 / 32.0


RadialModel = Union[EuclideanOscillator, EuclideanCoulomb, NonlinearOscillator, CoulombLike]


def clike_bound_states(model: CoulombLike) -> list[QuantumNumbers]:
    """All admissible (n_r, L), ordered by (L, n_r).

    The left side of the bound-state inequality increases in n_r and in
    integer L for every D > 1, so the admissible set is a staircase: walk
    L = 0, 1, ... while (0, L) is bound, and n_r = 0, 1, ... within each L.
    """
    states = []
    L = 0
    while model.is_bound(QuantumNumbers(0, L)):
        n_r = 0
        while model.is_bound(q := QuantumNumbers(n_r, L)):
            states.append(q)
            n_r += 1
        L += 1
    return states


def wavefunction(model: RadialModel, q: QuantumNumbers, x):
    """The model's unnormalized closed-form radial function at x."""
    return model.wavefunction(q, x)


def wavefunction_derivatives(model: RadialModel, q: QuantumNumbers, x):
    """(psi, psi', psi'') of the closed-form radial function, exact in x > 0."""
    return model.derivatives(q, x)


@dataclass(frozen=True)
class RadialState:
    """A model, its quantum numbers, and an amplitude; callable as psi(x)."""

    model: RadialModel
    q: QuantumNumbers
    amplitude: float = 1.0

    def __call__(self, x):
        return self.amplitude * self.model.wavefunction(self.q, x)

    def derivatives(self, x):
        f, f1, f2 = self.model.derivatives(self.q, x)
        a = self.amplitude
        return (a * f, a * f1, a * f2)

    def scaled(self, factor: float) -> "RadialState":
        return replace(self, amplitude=self.amplitude * factor)
