"""Closed-form radial problems and their position-dependent-mass forms.

Six models: the Euclidean oscillator and Coulomb problems, the nonlinear
(constant-curvature) oscillator and its dual Coulomb-like problem in a
nonconstant-curvature space, and the PDM reinterpretations of the latter two.
Each model class is the one home of its physics: its side of the duality, its
energies and bound-state rule, its wavefunctions with their exact derivatives,
and the coordinate in which the oracle solves them.  The side holds the
measure, the curved radial potential, the PDM potential and energy of each
ordering, and the one Sturm-Liouville rule (``_Side.coefficients``) that
gives every picture the coefficients the oracle discretizes: p = 1/m =
t^mu, w = r^k t^e, the picture's potential, and c1 = (p w)'/w derived from
them.  The PDM forms take one of the paper's two orderings, ``BD`` or ``MM``
(``PdmOrdering`` accepts no other von Roos triple).

The Euclidean classes are the lam = 0 cases of their side of the duality:
the side class holds the one domain, measure, radial coefficients, energy
and PDM form, written for the curved model, and at lam = 0 (stretch t = 1,
beta = omega) they reduce to the textbook forms: the mass is 1, the
orderings' shifts vanish, and V1 = V2 and U are the Euclidean flat
potentials.  Each model writes its states once, as the (c, params) of
x^ang K(u) that its side evaluates (see ``_Side``).

Solved coordinate (``coordinate``), one per side for both pictures, a map
y -> (r, t, dr/dy, P) with the stretch t and the kinetic coefficient
P = p/(dr/dy)^2 in y formed directly.  Coulomb side: x =
sqrt(s), s = log(1+lam R)/lam, so R = expm1(lam x^2)/lam and t = exp(lam x^2);
at lam = 0, R = x^2 and t = 1 (the duality's r = sqrt(R)).  Oscillator side:
s = arcsinh(sqrt(lam) r)/sqrt(lam) for lam > 0, the radius otherwise.  The
flat centrifugal term is a(a-1)/r^2, with a = ``flat_exponent``.

Energies are exact; wavefunctions are returned unnormalized (numerical
normalization lives in ``oscoul.quadrature``).  Units hbar = m = 1.

Array evaluators (wavefunctions, derivative triples, the measure weight, the
flat factor's triple and the PDM mass and potential) check the whole
coordinate array once, then run on blocks of ``_BLOCK`` = 2^14 points into
preallocated outputs.  A block's temporaries take 128 KiB each; a derivative
triple, K's triple in u (one pow for t^tau) chained to x, holds at most
10-14, outputs included, inside one core's 2 MiB L2 cache.  Unblocked, a
10^5-point grid's are 800 KB each and page-fault and spill the cache.  On a
2-CPU VM, 2^13 timed within 10 % of 2^14 either way, 2^15 up to 20 % slower,
and 2^16 lost most of the gain.  Each step is elementwise, so outputs are bit-identical to one
unblocked call.  Inputs of at most one block (every oracle call, nearly
every quadrature call) are passed through uncopied.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, replace

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
    "MAX_STATES",
    "NonlinearOscillator",
    "PdmOrdering",
    "QuantumNumbers",
    "RadialState",
    "clike_bound_states",
    "wavefunction",
    "wavefunction_derivatives",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _finite(value) -> bool:
    return math.isfinite(float(value))


def _require_finite(name: str, value: float, ok: bool, rule: str) -> None:
    """Refuse a model parameter that is not finite or breaks its rule, naming its value."""
    if not (_finite(value) and ok):
        raise ValueError(f"{name} must be finite and {rule}, got {value}")


@dataclass(frozen=True, init=False)
class QuantumNumbers:
    """Radial quantum number n_r plus the angular quantum number (l or L).

    ang is an integer l on the oscillator side; Coulomb-side states produced by
    the duality carry L = l/2, which is a half-integer when l is odd.  Derived:
    n = 2 n_r + l (principal, oscillator side) and nu = n_r + L (Coulomb side).
    States are built in tight loops, so each is validated and set once.
    """

    n_r: int
    ang: float = 0.0

    def __init__(self, n_r: int, ang: float = 0.0):
        if not (isinstance(n_r, _INTEGER) and n_r >= 0):
            raise ValueError("n_r must be an integer >= 0")
        ang = float(ang)
        if not (math.isfinite(ang) and ang >= 0):
            raise ValueError("ang must be >= 0")
        object.__setattr__(self, "n_r", int(n_r))
        object.__setattr__(self, "ang", ang)

    @property
    def n(self) -> float:
        return 2 * self.n_r + self.ang

    @property
    def nu(self) -> float:
        return self.n_r + self.ang


class PdmOrdering(enum.Enum):
    """von Roos ordering (xi, eta, zeta), xi+eta+zeta = -1, of the PDM kinetic
    operator (O. von Roos, Phys. Rev. B 27, 7547 (1983)).

    Only the paper's two orderings exist here: BD (0, -1, 0) and MM (-1/4,
    -1/2, -1/4); ``PdmOrdering(triple)`` finds either and refuses any other.
    xi sets the weight m^(-2 xi) of the flat picture
    (``_Side.coefficients``), and the paper gives each its own potential on
    the oscillator side (V1 and V2) and the one potential U on the Coulomb
    side, so no rule names the problem another triple would pose.
    """

    BD = (0.0, -1.0, 0.0)
    MM = (-0.25, -0.5, -0.25)

    @property
    def xi(self) -> float:
        return self.value[0]

    @classmethod
    def _missing_(cls, value):
        raise ValueError("PDM orderings are BD (0,-1,0) and MM (-0.25,-0.5,-0.25) only")


BD = PdmOrdering.BD
MM = PdmOrdering.MM


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


# points per block of ``_pointwise``: 128 KiB per float temporary (see the
# module docstring)
_BLOCK = 1 << 14


def _pointwise(method):
    """Run an array evaluator whose last argument is the coordinate x.

    x is checked once, whole, so a bad point anywhere raises before any block
    is evaluated.  Up to ``_BLOCK`` points go to ``method`` as they are; a
    larger x is evaluated ``_BLOCK`` points at a time into arrays of its
    shape.  A 0-d x gives Python floats.
    """

    @functools.wraps(method)
    def evaluate(self, *args):
        *head, x = args
        xa = _check_coordinate(self, x)
        if xa.size <= _BLOCK:
            value = method(self, *head, xa)
        else:
            value = _blocked(lambda part: method(self, *head, part), xa)
        if xa.ndim:
            return value
        return tuple(map(float, value)) if isinstance(value, tuple) else float(value)

    return evaluate


def _blocked(body, x):
    """body(x) (an array or a tuple of arrays), evaluated on contiguous blocks."""
    flat = x.reshape(-1)
    outs = None
    for lo in range(0, flat.size, _BLOCK):
        part = body(flat[lo : lo + _BLOCK])
        parts = part if isinstance(part, tuple) else (part,)
        if outs is None:
            outs = [np.empty(flat.size) for _ in parts]
        for out, value in zip(outs, parts):
            out[lo : lo + _BLOCK] = value
    shaped = tuple(out.reshape(x.shape) for out in outs)
    return shaped if isinstance(part, tuple) else shaped[0]


# ---------------------------------------------------------------------------
# exact derivative triples (f, f', f'') of products and compositions
# ---------------------------------------------------------------------------


def _times_power(x, a, f):
    """(g, g', g'') of g = x^a f(x) for x >= 0, from f's triple.

    a = 0 and a = 1 take no power, and x^(a-1) is x^(a-2) multiplied by x, so
    x = 0 gives exact values and no warning wherever g'' is finite there.
    """
    f0, f1, f2 = f
    if a == 0:
        return f
    if a == 1:
        return (x * f0, f0 + x * f1, 2.0 * f1 + x * f2)
    p0, p2 = x**a, x ** (a - 2.0)
    p1 = p2 * x
    g2 = p2 * (a * (a - 1.0) * f0 + x * (2.0 * a * f1 + x * f2))
    return (p0 * f0, p1 * (a * f0 + x * f1), g2)


def _chain3(f, du, ddu):
    """(g, g', g'') of g = f(u(x)), from f's triple in u and u', u''."""
    f0, f1, f2 = f
    return (f0, f1 * du, f2 * (du * du) + f1 * ddu)


def _laguerre_gauss3(n, alpha, u):
    """Triple in u of exp(-u/2) L_n^(alpha)(u)."""
    l0, l1, l2 = specfun.laguerre_derivatives(n, alpha, u)
    e = np.exp(-0.5 * u)
    return (e * l0, e * (l1 - 0.5 * l0), e * (l2 - l1 + 0.25 * l0))


def _jacobi_stretch3(n, a, b, tau, u):
    """Triple in u of t^tau P_n^(a,b)(1 + 2u), t = 1 + u > 0: t^(tau-2) is the
    one pow, multiplied up by t."""
    p0, p1, p2 = specfun.jacobi_derivatives(n, a, b, u)
    t = 1.0 + u
    s2 = t ** (tau - 2.0)
    s1 = s2 * t
    k2 = s2 * (tau * (tau - 1.0) * p0 + t * (2.0 * tau * p1 + t * p2))
    return (s1 * t * p0, s1 * (tau * p0 + t * p1), k2)


# ---------------------------------------------------------------------------
# the two sides of the duality
# ---------------------------------------------------------------------------


class _Side:
    """What both sides share.  A side writes its variable u = ``_u(c, x)``, c r^2
    or c R (one u under R = r^2), and (u', u'') = ``_du(c, x)``.  The stretch
    t = 1 + ``_u(lam, x)`` is 1 in the Euclidean limit, where the model's lam
    is 0; the PDM mass is t^-mu, mu = ``_MASS_POWER``, and the measure is
    t^e r^(dim-1), e = ``_MEASURE_POWER``.

    A model's ``_closed_form(q)`` gives (c, params) of its states x^ang K(u):
    (alpha,) of exp(-u/2) L_n^alpha(u) at lam = 0, else (a, b, tau) of
    t^tau P_n^(a,b)(1 + 2u) at c = lam.  ``amplitude`` (the value) and
    ``derivatives`` (the triple) both read it, so the two cannot drift apart.

    ``coefficients``, the measure ``_weight`` and the state ``amplitude`` take
    t next to r, so a solved coordinate supplies t where 1 + lam R(y) cancels.
    """

    def is_bound(self, q: QuantumNumbers) -> bool:
        return True

    def stretch(self, x):
        """t = 1 + lam r^2 or 1 + lam R."""
        return 1.0 + self._u(self.lam, x)

    def amplitude(self, q: QuantumNumbers, x, t):
        """Unnormalized x^ang K(u) of ``_closed_form``; the Jacobi form reads t."""
        c, params = self._closed_form(q)
        u = self._u(c, x)
        if self.lam == 0:
            return x**q.ang * np.exp(-0.5 * u) * specfun.laguerre(q.n_r, *params, u)
        a, b, tau = params
        return x**q.ang * t**tau * specfun.jacobi(q.n_r, a, b, u)

    def _weight(self, r, t):
        """Measure weight t^e r^(dim-1): (1+lam r^2)^(-1/2) r^(d-1) on the
        oscillator side, (1+lam R)^(-3/2) R^(D-1) on the Coulomb side."""
        return t**self._MEASURE_POWER * r ** (self.dim - 1.0)

    @_pointwise
    def weight(self, x):
        """The measure weight at x (see ``_weight``)."""
        return self._weight(x, self.stretch(x))

    @_pointwise
    def wavefunction(self, q: QuantumNumbers, x):
        """The unnormalized closed-form radial function at x (see ``amplitude``)."""
        return self.amplitude(q, x, self.stretch(x))

    @_pointwise
    def derivatives(self, q: QuantumNumbers, x):
        """(psi, psi', psi'') of ``wavefunction``, exact in x > 0: x^ang times K's
        triple in u, chained to x."""
        c, params = self._closed_form(q)
        triple = _laguerre_gauss3 if self.lam == 0 else _jacobi_stretch3
        k = triple(q.n_r, *params, self._u(c, x))
        return _times_power(x, q.ang, _chain3(k, *self._du(c, x)))

    @_pointwise
    def flat_factor_derivatives(self, ordering: PdmOrdering, x):
        """(f, f', f'') of the flat factor r^((dim-1)/2) t^(e/2), the measure's
        root, times m^xi: f turns a weighted-measure eigenfunction into the phi =
        m^xi psi the ordering's flat picture solves for; with BD (xi = 0), f is
        r^((d-1)/2) (1+lam r^2)^(-1/4) or R^((D-1)/2) (1+lam R)^(-3/4)."""
        power = 0.5 * self._MEASURE_POWER - self._MASS_POWER * ordering.xi
        t = self.stretch(x)
        stretch = _chain3(_times_power(t, power, (1.0, 0.0, 0.0)), *self._du(self.lam, x))
        return _times_power(x, (self.dim - 1.0) / 2.0, stretch)

    @_pointwise
    def pdm_mass(self, x):
        """Position-dependent mass m = t^-mu: (1+lam r^2)^-1 on the oscillator side,
        (1+lam R)^-2 on the Coulomb side."""
        return self.stretch(x) ** -self._MASS_POWER

    def coefficients(self, ang: float, ordering: PdmOrdering | None, r, t):
        """(p, w, V, c1) at (r, t) of the operator (-1/w) d/dr (p w d/dr) + V =
        -p d^2/dr^2 - c1 d/dr + V of the picture ``ordering`` selects, with
        p = 1/m = t^mu, w = r^k t^e and c1 = (p w)'/w = k p/r + (mu+e) t^(mu-1) t'.

        ordering None is the curved radial equation against its measure:
        k = dim-1, e = ``_MEASURE_POWER`` and the side's ``_potential``.  BD or
        MM (xi, eta, xi) is the PDM flat picture: -m^xi d/dr m^eta d/dr m^xi + V
        acts on phi = m^xi psi as the operator with k = 0 and w = m^(-2 xi),
        e = 2 mu xi, since 2 xi + eta = -1, and V the paper's potential of the
        ordering (``_pdm_potential``).  At lam = 0 (m = 1) both orderings give
        the Euclidean flat picture.
        """
        mu = self._MASS_POWER
        if ordering is None:
            k, e = self.dim - 1.0, self._MEASURE_POWER
            w, V = self._weight(r, t), self._potential(ang, r, t)
        else:
            k, e = 0.0, 2.0 * mu * ordering.xi
            w, V = t**e, self._pdm_potential(ordering, ang, r, t)
        p = t**mu
        c1 = k * p / r + (mu + e) * t ** (mu - 1) * self._du(self.lam, r)[0]
        return p, w, V, c1

    @_pointwise
    def pdm_potential(self, ordering: PdmOrdering, ang: float, x):
        """The paper's PDM potential of the ordering at x (see ``_pdm_potential``)."""
        return self.coefficients(ang, ordering, x, self.stretch(x))[2]

    def flat_exponent(self, ang: float) -> float:
        """a = ang + (dim-1)/2, the larger Frobenius exponent of the flat state."""
        return ang + (self.dim - 1.0) / 2.0

    def _flat_centrifugal(self, ang: float, x):
        a = self.flat_exponent(ang)
        return a * (a - 1.0) / (x * x)


class _OscillatorSide(_Side):
    """Oscillator side of the r = sqrt(R) duality: dimension d, coordinate r."""

    kind = "oscillator"
    _MEASURE_POWER = -0.5
    _MASS_POWER = 1

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

    def _potential(self, ang: float, r, t):
        """The curved radial potential l(l+d-2)/r^2 + beta(beta+lam) r^2/t."""
        return ang * (ang + self.d - 2.0) / (r * r) + self.beta * (self.beta + self.lam) * r * r / t

    def _pdm_potential(self, ordering: PdmOrdering, ang: float, r, t):
        """The paper's V1 for BD and V2 for MM."""
        lam, beta = self.lam, self.beta
        if ordering == BD:
            tail = beta * (beta + lam) * r * r - 0.25 * lam
        else:
            tail = (beta + 0.5 * lam) ** 2 * r * r + 0.25 * lam
        return self._flat_centrifugal(ang, r) + tail / t

    def pdm_energy(self, ordering: PdmOrdering, q: QuantumNumbers) -> float:
        """PDM energy: the curved energy plus the ordering shift (BD and MM coincide here)."""
        return self.energy(q) - self.d * (self.d - 2.0) * self.lam / 8.0

    def _u(self, c, r):
        return c * r * r

    def _du(self, c, r):
        return 2.0 * c * r, 2.0 * c

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
    _MEASURE_POWER = -1.5
    _MASS_POWER = 2

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

    def _potential(self, ang: float, R, t):
        """The curved radial potential L(L+D-2)/R^2 - Q/R."""
        return ang * (ang + self.D - 2.0) / (R * R) - self.Q / R

    def _pdm_potential(self, ordering: PdmOrdering, ang: float, R, t):
        """U, the paper's PDM potential of both the BD and the MM ordering."""
        D = self.D
        return self._flat_centrifugal(ang, R) - (
            self.Q - 0.25 * (D - 1.0) * (2.0 * D - 5.0) * self.lam
        ) / R

    def pdm_energy(self, ordering: PdmOrdering, q: QuantumNumbers) -> float:
        """PDM energy: the curved energy plus the ordering-dependent shift."""
        D, lam = self.D, self.lam
        base = self.energy(q)
        if ordering == BD:
            return base - (2.0 * D - 1.0) * (2.0 * D - 5.0) * lam**2 / 32.0
        return base - (2.0 * D - 3.0) ** 2 * lam**2 / 32.0

    def _u(self, c, R):
        return c * R

    def _du(self, c, R):
        return c, 0.0

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
        _require_finite("omega", self.omega, self.omega > 0, "positive")

    @property
    def beta(self) -> float:
        """The side's strength: beta is omega at lam = 0."""
        return self.omega

    def _closed_form(self, q: QuantumNumbers):
        """r^l exp(-omega r^2/2) L_{n_r}^(l+(d-2)/2)(omega r^2)."""
        return self.omega, (q.ang + (self.d - 2.0) / 2.0,)


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
        _require_finite("dimension D", self.D, self.D > 1, "> 1")
        _require_finite("coupling Q", self.Q, self.Q > 0, "positive")

    def _closed_form(self, q: QuantumNumbers):
        """R^L exp(-kappa R) L_{n_r}^(2L+D-2)(2 kappa R), kappa = sqrt(2|E_nu|)."""
        kappa = math.sqrt(2.0 * abs(self.energy(q)))
        return 2.0 * kappa, (2.0 * q.ang + self.D - 2.0,)


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
        _require_finite("lam", self.lam, self.lam != 0, "nonzero")
        _require_finite("beta", self.beta, self.beta > 0, "positive")
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

    def _closed_form(self, q: QuantumNumbers):
        """r^l (1+lam r^2)^(-beta/(2 lam)) P_{n_r}^(l+(d-2)/2, -beta/lam-1/2)(1+2 lam r^2)."""
        lam = self.lam
        return lam, (q.ang + (self.d - 2.0) / 2.0, -self.beta / lam - 0.5, -self.beta / (2.0 * lam))


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
        _require_finite("dimension D", self.D, self.D > 1, "> 1")
        _require_finite("lam", self.lam, self.lam != 0, "nonzero")
        _require_finite("coupling Q", self.Q, self.Q > 0, "positive")

    def _edge_terms(self):
        """(a, b, c) of the (0, L) inequality's left side a L^2 + b L + c."""
        D = self.D
        if self.lam < 0:
            return 2.0, 2 * D - 3, (D - 1) / 4.0
        return 0.0, 1.0, (D - 1) * (2 * D - 3) / 4.0

    def _below_edge(self):
        """``is_bound`` at (n_r, L), as a function whose terms are formed once."""
        a, b, c = self._edge_terms()
        D, edge = self.D, self.Q / abs(self.lam)
        return lambda n_r, L: n_r**2 + (2 * L + D - 1) * n_r + a * L * L + b * L + c < edge

    def is_bound(self, q: QuantumNumbers) -> bool:
        """Normalizability inequality for (n_r, L); strict on the boundary."""
        return self._below_edge()(q.n_r, q.ang)

    def wavefunction_params(self, q: QuantumNumbers) -> tuple[float, float, float]:
        """The (rho, sigma, tau) of the bound-state wavefunction."""
        nu, L, D, lam, Q = q.nu, q.ang, self.D, self.lam, self.Q
        ll = L * (L + D - 2.0)
        rho = 2.0 * L + D - 2.0
        sigma = -(Q + lam * (nu**2 + (D - 1.0) * nu + 0.25 * (D - 1.0) + ll)) / (
            lam * (nu + 0.5 * (D - 1.0))
        )
        tau = -(Q + lam * (nu * (nu + D - 1.5) + ll)) / (lam * (2.0 * nu + D - 1.0))
        return rho, sigma, tau

    def _closed_form(self, q: QuantumNumbers):
        """R^L (1+lam R)^tau P_{n_r}^(rho,sigma)(1+2 lam R) (``wavefunction_params``)."""
        return self.lam, self.wavefunction_params(q)


# most states one enumeration lists (bound sets, spectrum rows); 30 346 at lam = 1e-4 fit
MAX_STATES = 100_000


def _count_below(a, b, c, ok) -> int:
    """How many m >= 0 have a m^2 + b m + c < 0, for a quadratic increasing on
    them: the root, confirmed with ok(m), the same test written exactly."""
    root = 0.0 if not c < 0 else -c / b if a == 0 else (math.sqrt(b * b - 4 * a * c) - b) / (2 * a)
    if not root <= MAX_STATES:
        raise ValueError(f"the bound set has at least {root - 1:.3g} states, more than {MAX_STATES}")
    m = math.ceil(root)
    while m > 0 and not ok(m - 1):
        m -= 1
    while ok(m):
        m += 1
    return m


def clike_bound_states(model: CoulombLike) -> list[QuantumNumbers]:
    """All admissible (n_r, L), ordered by (L, n_r).

    The bound-state inequality's left side increases in n_r and in integer L
    for every D > 1, so the set is a staircase, counted before it is listed:
    its number of L from the (0, L) inequality, and each L's n_r count from its
    quadratic in n_r.  More than ``MAX_STATES`` states raise ValueError."""
    a, b, c = model._edge_terms()
    c -= model.Q / abs(model.lam)
    ok = model._below_edge()  # is_bound at (n_r, L)
    widths = [
        _count_below(1, 2 * L + model.D - 1, a * L * L + b * L + c, lambda n: ok(n, L))
        for L in range(_count_below(a, b, c, lambda L: ok(0, L)))
    ]
    if sum(widths) > MAX_STATES:
        raise ValueError(f"the bound set has {sum(widths)} states, more than {MAX_STATES}")
    return [QuantumNumbers(n_r, L) for L, width in enumerate(widths) for n_r in range(width)]


def wavefunction(model: _Side, q: QuantumNumbers, x):
    """The model's unnormalized closed-form radial function at x."""
    return model.wavefunction(q, x)


def wavefunction_derivatives(model: _Side, q: QuantumNumbers, x):
    """(psi, psi', psi'') of the closed-form radial function, exact in x > 0."""
    return model.derivatives(q, x)


@dataclass(frozen=True)
class RadialState:
    """A model, its quantum numbers, and an amplitude; callable as psi(x)."""

    model: _Side
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
