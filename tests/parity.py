"""Parity probes: digest a named probe's checks on one checkout, or compare
two digests.

    PYTHONPATH=src python tests/parity.py PROBE DIGEST.json
    python tests/parity.py --compare A.json B.json

The package is imported from ``PYTHONPATH`` first, then from ``src`` of this
checkout, and the digest names the one it ran; pointing ``PYTHONPATH`` at
another checkout's ``src`` digests that code on the same probe.  A digest is
``{"probe", "package", "records"}``, one record per check, keyed by the check.
A verify check is one state of one ``oscoul verify`` call, run in process
through ``cli.main`` and keyed "ARGV n_r=J"; its class is "pass", "order about
4" (a failure whose order exceeds 3 at a relative error below 1e-9, ROADMAP
item 3), "residual" (only the residual fails), "accuracy or order", or "exit
2" (the call is refused with an error line).  The probes (``PROBES``):

- ``oracle_sweep`` (185 calls, 826 ``dlarrk`` calls): every distinct verify
  call that ``perfbench/cases.py`` makes for oracle_sweep at seeds 1-20.  A
  record holds the exit code, the error line of a refusal, the eig_ok,
  order_ok, residual_ok and pass flags, ``float.hex`` of the reference,
  extrapolation, relative error, observed order, residual and each grid's
  eigenvalue, ``float.hex`` of the cutoff that ends the state's solved
  domain, and its ``dlarrk`` work: the calls and the N * halvings (the Sturm
  counts of N rows each call makes, replayed from the call's interval and
  answer with ``dlarrk``'s stopping rule).
- ``lam0_neg`` and ``lam0_pos`` (ROADMAP item 13, 144 checks each): clike
  with D in {2, 3, 4} and Q = 1, and nlo with d in {2, 3, 4} and beta = 1, at
  lam in -{1e-4, 1e-6, 1e-8, 1e-10} or +{...}, ang in {0, 1}, n_r < 3.
- ``lam0_flat`` (item 13, 288 checks): pdm-osc with d in {2, 3, 4}, l in {0,
  1} and beta = 1, and pdm-coulomb with D in {2, 3, 4}, L in {0, 1} and Q = 1,
  at lam in +-{1e-6, 1e-10}, with ``--ordering`` bd and mm, n_r < 3.
- ``nlo_neg`` (item 1, 720 checks): nlo with d in {2, 3, 4}, l in {0, 1, 2}
  and n_r < 5 at lam in {-1e-4, -1e-3, -0.02, -0.1, -0.3, -1} and beta in
  {0.5, 1, 2}, leaving out the (lam, beta) with beta (beta + lam) <= 0, which
  the model refuses.
- ``pos`` (item 1 at lam > 0, 1022 checks): clike with D in {2, 2.5, 3, 4},
  lam in {1e-3, 0.02, 0.1, 0.3}, Q in {0.5, 1, 2} and L in {0, 1/2, 1, 3/2};
  and nlo with d in {2, 3, 4}, lam in {1e-3, 0.05, 0.1, 0.3}, beta in {0.5, 1,
  2} and l in {0, 1, 2}; each channel with its bound n_r < 5, and none
  without one.
- ``clike_neg`` (item 1 at lam < 0 with Q != 1, 390 checks): clike with D in
  {2, 2.5, 3, 4}, lam in {-1e-3, -0.02, -0.1, -0.3}, Q in {0.5, 2} and L in
  {0, 1/2, 1, 3/2}, each channel with its bound n_r < 5.
- ``sweep`` (the 1061-check sweep): clike at lam in {+-0.02, +-0.1} and nlo
  at lam in {-0.1, 0.05}, with Q = beta = 1 and D, L, d and l as ``pos``,
  each weighted and as pdm-* with bd and mm; and coulomb and osc with the
  same D, L, d and l; each channel with its bound n_r < 5.
  A ``Channel`` is one call of these six (coulomb and osc take no
  ``--lambda``, osc its strength as ``--omega``).  Its record holds the
  exit, a refusal's error line, the four flags, rel_error, observed order
  and ``expected``, the reason ``expected_miss`` gives, or null.
- ``scan`` (item 14, 3384 states): ``quadrature.norm_divergence_scan`` on
  every n_r < 8 of clike with D in {2, 2.5, 3, 4}, lam in {+-0.3, +-0.1,
  +-0.02}, Q in {0.5, 1, 2} and L in {0, 1/2, 1, 3/2}; and of nlo with d in
  {2, 3, 4}, lam in {-0.3, -0.1, 0.05, 0.1, 0.3}, beta in {0.5, 1, 2} and l in
  {0, 1, 2}, keyed "MODEL PARAMETERS n_r=J".  A record holds the model's
  ``is_bound`` and the verdict, or the class and message of what the scan
  raised; its class is "bound" or "unbound" and the verdict or "raises"
  with the exception's class.

``--compare`` refuses two digests of different probes.  It lists the checks
found in only one digest, prints each class's count in A and B and every
move between classes, then applies the probe's rule, and exits 0 ("agree")
when no check is in one digest only and the rule finds no disagreement:

- verify probes: a check that went from pass to another class;
- ``oracle_sweep``: a field that is not bit for bit the same, but for the
  residual, which must stay at or below 1e-9 in both digests, and the work.
  A state whose cutoff moved is solved on another domain, so its values are
  listed with the move and are not disagreements; its exit, error and flags
  still are.  It also prints, for each class of call, named by its model
  (weighted: nlo and clike; flat: pdm-*; Euclidean: osc and coulomb), the
  passing states of each digest, the flipped pass flags, the largest relative
  eigenvalue move and the largest in units of N eps of its grid of N cells,
  the states whose cutoff or residual moved, the largest residual move, and
  the ``dlarrk`` calls and N * halvings of each digest.  A change of the
  oracle's resolution moves eigenvalues; the class summary is then the
  evidence: no flipped pass flag, and every move within the resolution;
- ``scan``: a change of ``is_bound``, verdict or raise, but for a raise that
  became a verdict, which is listed as a move, marked by whether the verdict
  agrees with ``is_bound``.

A digest's summary counts each class and, for a ``Channel`` probe, the
checks ``expected_miss`` names (the one written rule of the known misses,
each reason citing its ROADMAP item) and how many of them pass.

Pytest does not collect this file; ``test_parity.py`` tests it.  The Tier-1
sweep (``test_oracle.py``) and lambda gate (``test_lambda_negative_gate.py``)
take their channels from ``PROBES``, their strict xfails from
``expected_miss`` (``params``) and each verdict from one cached verify call
per channel (``assert_passes``).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import io
import itertools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "src"))  # after every PYTHONPATH entry
FLAGS = ("eig_ok", "order_ok", "residual_ok", "pass")
VALUES = ("reference", "extrapolated", "rel_error", "observed_order", "residual")
WORK = ("dlarrk_calls", "n_halvings")
GRIDS = (512, 1024, 2048)  # verify's default ladder, which every call runs
RESIDUAL_BOUND = 1e-9
_EPS = 2.0**-52  # LAPACK's dlamch('P')


def run_verify(argv):
    """(exit code, error line, states) of one ``oscoul verify`` call run in
    process through ``cli.main``; the states are None when it is refused."""
    from oscoul import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code == 2:
        return code, err.getvalue().strip(), None
    return code, None, json.loads(out.getvalue())["states"]


def check_class(state) -> str:
    """The class of one verify state, or of a refused call's (None)."""
    if state is None:
        return "exit 2"
    if state["pass"]:
        return "pass"
    order, err = state["observed_order"], state["rel_error"]
    if order is not None and order > 3 and err is not None and err < 1e-9:
        return "order about 4"
    if state["eig_ok"] and state["order_ok"]:
        return "residual"
    return "accuracy or order"


def _checks(argv, k: int, fields) -> dict:
    """The records of one verify call's k states, each with the fields that
    ``fields`` reads from its state."""
    code, error, states = run_verify(argv)
    records = {}
    for n_r in range(k):
        state = None if states is None else states[n_r]
        record = {"exit": code, **({"error": error} if state is None else fields(state))}
        record["class"] = check_class(state)
        records[f"{' '.join(argv)} n_r={n_r}"] = record
    return records


class Channel(NamedTuple):
    """One verify call of a probe: the model, its dimension, lam, strength
    (beta, omega or Q) and angular number, the states it checks and, for a
    pdm-* model, the ordering."""

    model: str
    dim: float
    lam: float
    strength: float
    ang: float
    k: int
    ordering: str | None = None

    @property
    def side(self) -> str:
        return "oscillator" if self.model in ("nlo", "pdm-osc", "osc") else "coulomb"

    def argv(self) -> list:
        oscillator = self.side == "oscillator"
        dim, strength, ang = ("--d", "--beta", "--l") if oscillator else ("--D", "--Q", "--L")
        argv = ["verify", "--model", self.model, dim, f"{self.dim:g}"]
        if self.model == "osc":
            strength = "--omega"
        elif self.model != "coulomb":
            argv += ["--lambda", f"{self.lam:g}"]
        argv += [strength, f"{self.strength:g}", ang, f"{self.ang:g}", "--k", str(self.k)]
        return argv + ["--ordering", self.ordering] if self.ordering else argv


def _channel_checks(channel: Channel) -> dict:
    records = _checks(
        channel.argv(), channel.k,
        lambda st: {
            **{flag: st[flag] for flag in FLAGS},
            "rel_error": st["rel_error"], "observed_order": st["observed_order"],
        },
    )
    for n_r, record in enumerate(records.values()):
        record["expected"] = expected_miss(channel, n_r)
    return records


@functools.cache
def verify_channel(channel: Channel) -> tuple:
    """``run_verify`` of the channel, run once per channel in a process."""
    return run_verify(channel.argv())


def assert_passes(channel: Channel, n_r: int) -> None:
    """Assert that verify passes state n_r of the channel; pytest leaves this
    frame out of a traceback, so a strict xfail reads only its test's source."""
    __tracebackhide__ = True
    code, error, states = verify_channel(channel)
    assert states is not None, error
    state = states[n_r]
    assert state["pass"], {key: state[key] for key in ("rel_error", "observed_order", "residual")}


def params(channels, name: Callable[[Channel, int], str]):
    """A pytest param (channel, n_r), with id ``name(channel, n_r)``, per state of
    each channel; a check that ``expected_miss`` names is a strict xfail."""
    import pytest

    for c in channels:
        for n_r in range(c.k):
            reason = expected_miss(c, n_r)
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
            yield pytest.param(c, n_r, id=name(c, n_r), marks=marks)


ITEM1 = "ROADMAP item 1: nlo with beta/(2|lam|) <= 1, whose density is singular at the end"
ITEM1_POS = "ROADMAP item 1: lam > 0 state near threshold, or a channel that cannot be truncated"
ITEM2 = "ROADMAP item 2: flat Coulomb-like state near threshold at lam > 0 (larger h^2 constant)"
ITEM3 = "ROADMAP item 3: accurate answer that reads order about 4"
# the misses listed one by one: (reason, model, dim, lam, strength, ang, n_r,
# the orderings of a flat channel)
LISTED = [
    (ITEM1_POS, "clike", 2.0, 0.02, 0.5, 0.5, 4, ""),
    (ITEM1_POS, "clike", 2.0, 0.02, 0.5, 1.5, 3, ""),
    (ITEM1_POS, "clike", 2.0, 0.1, 2.0, 1.0, 3, ""),
    (ITEM1_POS, "clike", 2.5, 0.02, 0.5, 1.5, 3, ""),
    (ITEM1_POS, "clike", 2.5, 0.3, 1.0, 0.0, 0, ""),  # exits 2: its coordinate map overflows
    (ITEM1_POS, "clike", 2.5, 0.3, 1.0, 0.0, 1, ""),
    (ITEM1_POS, "clike", 3.0, 0.3, 1.0, 1.5, 0, ""),
    (ITEM1_POS, "clike", 4.0, 0.1, 0.5, 1.0, 0, ""),  # non-monotone
    (ITEM1_POS, "nlo", 2, 0.3, 2.0, 0, 3, ""),
    (ITEM1_POS, "nlo", 2, 0.3, 2.0, 2, 2, ""),
    (ITEM1_POS, "nlo", 4, 0.3, 2.0, 1, 2, ""),
    (ITEM2, "pdm-coulomb", 2.0, 0.02, 1.0, 1.5, 3, "bd"),
    (ITEM2, "pdm-coulomb", 2.0, 0.1, 1.0, 0.5, 2, "bd"),
    (ITEM2, "pdm-coulomb", 2.5, 0.1, 1.0, 1.5, 1, "bd mm"),
    (ITEM2, "pdm-coulomb", 3.0, 0.1, 1.0, 0.0, 2, "bd mm"),
    (ITEM2, "pdm-coulomb", 3.0, 0.1, 1.0, 1.0, 1, "bd"),
    (ITEM2, "pdm-coulomb", 3.0, 0.1, 1.0, 1.5, 1, "bd mm"),
    (ITEM2, "pdm-coulomb", 4.0, 0.02, 1.0, 1.5, 4, "bd mm"),
    (ITEM2, "pdm-coulomb", 4.0, 0.1, 1.0, 0.5, 1, "bd mm"),
    # rel_error 2.5e-9 at order 4.61, 1.25 % inside the bound-state edge
    (ITEM3, "clike", 4.0, -0.1, 2.0, 1.5, 1, ""),
]
LISTED_MISSES = {
    (*row[1:7], ordering): row[0] for row in LISTED for ordering in row[7].split() or [None]
}
# item 3's order-4 ground states at |lam| <= 1e-6: weighted (side, dim, ang),
# and flat (side, a), a flat problem reading only a = ang + (dim - 1)/2
ORDER4_WEIGHTED = {("coulomb", 3, 0), ("coulomb", 4, 0.5), ("oscillator", 4, 0)}
ORDER4_FLAT = {("coulomb", 1.0), ("oscillator", 1.5)}


def expected_miss(c: Channel, n_r: int) -> str | None:
    """The ROADMAP item whose open miss state n_r of channel c is, or None:
    item 1's singular end and its lam > 0 list, item 2's flat list, and item
    3's order-4 family near lam = 0 and its one listed state."""
    if c.model == "nlo" and c.lam < 0 and c.strength / (2.0 * abs(c.lam)) <= 1.0:
        return ITEM1
    listed = LISTED_MISSES.get((*c[:5], n_r, c.ordering))
    if listed:
        return listed
    if c.ordering is None:
        family = (c.side, c.dim, c.ang) in ORDER4_WEIGHTED
    else:
        family = (c.side, c.ang + (c.dim - 1) / 2) in ORDER4_FLAT
    return ITEM3 if n_r == 0 and abs(c.lam) <= 1e-6 and family else None


def _bounded(channels) -> list:
    """Each channel with k its bound states of n_r < 5; one with none is left out."""
    return [c._replace(k=k) for c in channels if (k := _bound_count(c))]


def _bound_count(c: Channel) -> int:
    from oscoul.models import CoulombLike, NonlinearOscillator, QuantumNumbers

    make = NonlinearOscillator if c.side == "oscillator" else CoulombLike
    model = make(c.dim, c.lam, c.strength)
    return next((k for k in range(5) if not model.is_bound(QuantumNumbers(k, c.ang))), 5)


def _near_flat(sign: float) -> list:
    """Item 13's weighted channels on one side of lam = 0."""
    return [
        Channel(model, dim, sign * size, 1.0, ang, 3)
        for size in (1e-4, 1e-6, 1e-8, 1e-10)
        for model in ("clike", "nlo")
        for dim in (2, 3, 4)
        for ang in (0, 1)
    ]


def _flat_near_flat() -> list:
    return [
        Channel(model, dim, lam, 1.0, ang, 3, ordering)
        for lam in (-1e-6, -1e-10, 1e-6, 1e-10)
        for model in ("pdm-osc", "pdm-coulomb")
        for dim in (2, 3, 4)
        for ang in (0, 1)
        for ordering in ("bd", "mm")
    ]


def _nlo_neg() -> list:
    return [
        Channel("nlo", d, lam, beta, l, 5)
        for lam in (-1e-4, -1e-3, -0.02, -0.1, -0.3, -1.0)
        for beta in (0.5, 1.0, 2.0)
        if beta * (beta + lam) > 0
        for d in (2, 3, 4)
        for l in (0, 1, 2)
    ]


COULOMB_ANGS = (0.0, 0.5, 1.0, 1.5)
OSCILLATOR_ANGS = (0, 1, 2)


def _pos() -> list:
    """Item 1's lam > 0 channels."""
    return _bounded(
        [Channel("clike", D, lam, Q, L, 5)
         for D, lam, Q, L in itertools.product(
             (2.0, 2.5, 3.0, 4.0), (1e-3, 0.02, 0.1, 0.3), (0.5, 1.0, 2.0), COULOMB_ANGS)]
        + [Channel("nlo", d, lam, beta, l, 5)
           for d, lam, beta, l in itertools.product(
               (2, 3, 4), (1e-3, 0.05, 0.1, 0.3), (0.5, 1.0, 2.0), OSCILLATOR_ANGS)]
    )


def _clike_neg() -> list:
    """Item 1's clike channels at lam < 0 with Q != 1."""
    return _bounded(
        Channel("clike", D, lam, Q, L, 5)
        for D, lam, Q, L in itertools.product(
            (2.0, 2.5, 3.0, 4.0), (-1e-3, -0.02, -0.1, -0.3), (0.5, 2.0), COULOMB_ANGS)
    )


def _sweep_1061() -> list:
    """The 1061-check sweep: each curved channel in the weighted picture and
    in the flat one with BD and MM, then the Euclidean channels."""
    curved = [("clike", D, lam, L) for D in (2.0, 2.5, 3.0, 4.0)
              for lam in (-0.1, -0.02, 0.02, 0.1) for L in COULOMB_ANGS]
    curved += [("nlo", d, lam, l) for d in (2, 3, 4) for lam in (-0.1, 0.05)
               for l in OSCILLATOR_ANGS]
    channels = []
    for model, dim, lam, ang in curved:
        flat = "pdm-osc" if model == "nlo" else "pdm-coulomb"
        channels += [Channel(model, dim, lam, 1.0, ang, 5),
                     *(Channel(flat, dim, lam, 1.0, ang, 5, o) for o in ("bd", "mm"))]
    channels += [Channel("coulomb", D, 0.0, 1.0, L, 5)
                 for D in (2.0, 2.5, 3.0, 4.0) for L in COULOMB_ANGS]
    channels += [Channel("osc", d, 0.0, 1.0, l, 5) for d in (2, 3, 4) for l in OSCILLATOR_ANGS]
    return _bounded(channels)


def halvings(n: int, lo: float, hi: float, pivmin: float, reltol: float, w: float) -> int:
    """The bisection steps ``dlarrk`` takes from (lo, hi) to its answer w.

    It widens the interval by 2 (N eps max(|lo|, |hi|) + 2 pivmin) on each
    side, then halves it, keeping the half that holds w, until its width is
    below max(4 pivmin, pivmin, reltol * max(|left|, |right|)) or the step
    count passes log2(||T|| / pivmin) + 2.  The replay keeps the half that
    holds the answer where ``dlarrk`` keeps the one its Sturm count picks, so
    the two can differ in the last halving, a few ulp from w.
    """
    tnorm = max(abs(lo), abs(hi))
    atoli = 4.0 * pivmin
    left = lo - 2.0 * tnorm * _EPS * n - atoli
    right = hi + 2.0 * tnorm * _EPS * n + atoli
    itmax = int((math.log(tnorm + pivmin) - math.log(pivmin)) / math.log(2.0)) + 2
    steps = 0
    while steps <= itmax and abs(right - left) >= max(
        atoli, pivmin, reltol * max(abs(left), abs(right))
    ):
        steps += 1
        mid = 0.5 * (left + right)
        if w < mid:
            right = mid
        else:
            left = mid
    return steps


@contextlib.contextmanager
def count_dlarrk(k: int):
    """Count, per state of a k-state study run inside the block, the
    ``dlarrk`` calls and their N * halvings, in the list of dicts this yields,
    by wrapping the kernel's bound routine: the study bisects state n_r as
    eigenvalue index n_r + 1 of its own problems."""
    from oscoul import kernels

    work = [dict.fromkeys(WORK, 0) for _ in range(k)]
    bound = kernels._lapack
    real = bound()

    def spy(n, index, lo, hi, diag, e2, pivmin, reltol, w, werr, info):
        real(n, index, lo, hi, diag, e2, pivmin, reltol, w, werr, info)
        size = n._obj.value
        state = work[index._obj.value - 1]
        state["dlarrk_calls"] += 1
        state["n_halvings"] += size * halvings(
            size, lo._obj.value, hi._obj.value, pivmin._obj.value, reltol._obj.value,
            w._obj.value,
        )

    kernels._lapack = lambda: spy
    try:
        yield work
    finally:
        kernels._lapack = bound


@contextlib.contextmanager
def record_cutoffs():
    """Collect, in the list this yields, ``float.hex`` of each state's cutoff of
    every convergence study run inside the block, by wrapping the study."""
    from oscoul import oracle

    cutoffs = []
    study = oracle.convergence_study

    def spy(*args, **kwargs):
        report = study(*args, **kwargs)
        cutoffs.extend(float(c).hex() for c in report.cutoffs)
        return report

    oracle.convergence_study = spy
    try:
        yield cutoffs
    finally:
        oracle.convergence_study = study


def _hex(value) -> str:
    # the report writes a non-finite value as null
    return float("nan" if value is None else value).hex()


def _sweep_cases() -> list:
    """The distinct oracle_sweep verify calls of seeds 1-20, in first-seen order."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import cases
    import operations

    seen = {}
    for seed in range(1, 21):
        for case in cases.generate("oracle_sweep", seed)[0]:
            argv = operations.verify_argv(case, "OUT")
            i = argv.index("--out")
            seen.setdefault(tuple(argv[:i] + argv[i + 2 :]), None)
    return list(seen)


def _sweep_checks(argv) -> dict:
    k = int(argv[argv.index("--k") + 1])
    with count_dlarrk(k) as work, record_cutoffs() as cutoffs:
        records = _checks(
            argv, k,
            lambda st: {
                **{flag: st[flag] for flag in FLAGS},
                **{key: _hex(st[key]) for key in VALUES},
                "eigenvalues": [_hex(v) for v in st["eigenvalues"]],
            },
        )
    for n_r, record in enumerate(records.values()):
        if n_r < len(cutoffs):
            record["cutoff"] = cutoffs[n_r]
        record.update(work[n_r])
    return records


def _scan_cases() -> list:
    """(key, model, ang, n_r) of every state of item 14's probe."""
    from oscoul.models import CoulombLike, NonlinearOscillator

    channels = [
        (f"clike D={D:g} lam={lam:g} Q={Q:g} L={L:g}", CoulombLike(D=D, lam=lam, Q=Q), L)
        for D, lam, Q, L in itertools.product(
            (2.0, 2.5, 3.0, 4.0), (-0.3, -0.1, -0.02, 0.02, 0.1, 0.3), (0.5, 1.0, 2.0),
            (0.0, 0.5, 1.0, 1.5),
        )
    ]
    channels += [
        (f"nlo d={d} lam={lam:g} beta={beta:g} l={l:g}", NonlinearOscillator(d, lam, beta), l)
        for d, lam, beta, l in itertools.product(
            (2, 3, 4), (-0.3, -0.1, 0.05, 0.1, 0.3), (0.5, 1.0, 2.0), (0.0, 1.0, 2.0)
        )
    ]
    return [(f"{name} n_r={n_r}", model, ang, n_r) for name, model, ang in channels
            for n_r in range(8)]


def _scan_check(case) -> dict:
    from oscoul.models import QuantumNumbers, RadialState
    from oscoul.quadrature import measure_for, norm_divergence_scan

    key, model, ang, n_r = case
    q = QuantumNumbers(n_r, ang)
    record = {"bound": model.is_bound(q)}
    try:
        record["verdict"] = norm_divergence_scan(RadialState(model, q), measure_for(model)).value
        outcome = record["verdict"]
    except Exception as exc:  # the digest records every outcome
        record["raises"] = f"{type(exc).__name__}: {exc}"
        outcome = f"raises {type(exc).__name__}"
    record["class"] = f"{'bound' if record['bound'] else 'unbound'} {outcome}"
    return {key: record}


def _no_new_failure(a: dict, b: dict, keys: list) -> list:
    """A verify probe's disagreements: the checks that went from pass to fail."""
    return [f"pass -> {b[key]['class']}: {key}" for key in keys
            if a[key]["class"] == "pass" != b[key]["class"]]


def _change(before: int, after: int) -> str:
    return f"{100.0 * (after - before) / before:+.1f} %" if before else "n/a"


def _family(key: str) -> str:
    model = key.split()[2]
    if model in ("osc", "coulomb"):
        return "euclidean"
    return "flat" if model.startswith("pdm-") else "weighted"


def _sweep_summary(a: dict, b: dict, keys: list) -> list:
    """One line per class of call of the checks in both digests."""
    stats = {}
    for key in keys:
        ra, rb = a[key], b[key]
        st = stats.setdefault(
            _family(key),
            dict(calls=set(), states=0, pa=0, pb=0, flips=0, move=0.0, units=0.0, cmoved=0,
                 rmoved=0, rmove=0.0, ca=0, cb=0, wa=0, wb=0),
        )
        st["calls"].add(key.rsplit(" n_r=", 1)[0])
        st["ca"] += ra["dlarrk_calls"]
        st["cb"] += rb["dlarrk_calls"]
        st["wa"] += ra["n_halvings"]
        st["wb"] += rb["n_halvings"]
        if "residual" not in ra or "residual" not in rb:
            continue
        st["states"] += 1
        st["pa"] += ra["pass"]
        st["pb"] += rb["pass"]
        st["flips"] += ra["pass"] != rb["pass"]
        st["cmoved"] += ra["cutoff"] != rb["cutoff"]
        st["rmoved"] += ra["residual"] != rb["residual"]
        st["rmove"] = max(
            st["rmove"], abs(float.fromhex(rb["residual"]) - float.fromhex(ra["residual"]))
        )
        for N, ea, eb in zip(GRIDS, ra["eigenvalues"], rb["eigenvalues"]):
            ea, eb = float.fromhex(ea), float.fromhex(eb)
            move = abs(eb - ea) / abs(ea)
            st["move"] = max(st["move"], move)
            st["units"] = max(st["units"], move / (N * _EPS))
    return [
        f"{cls}: {len(st['calls'])} calls, {st['pa']} -> {st['pb']} of {st['states']} states "
        f"pass, {st['flips']} pass flags flipped, largest relative eigenvalue move "
        f"{st['move']:.1e}, largest in N eps of its grid {st['units']:.2f}, cutoff moved in "
        f"{st['cmoved']} states, residual moved in {st['rmoved']} states, largest move "
        f"{st['rmove']:.1e}, dlarrk calls {st['ca']} -> {st['cb']} ({_change(st['ca'], st['cb'])}), "
        f"N*halvings {st['wa']} -> {st['wb']} ({_change(st['wa'], st['wb'])})"
        for cls, st in sorted(stats.items())
    ]


def _sweep_rule(a: dict, b: dict, keys: list) -> list:
    """oracle_sweep's disagreements: every field bit for bit but the residual,
    which stays at or below ``RESIDUAL_BOUND``, and values that moved with
    their state's cutoff."""
    problems, moved = [], []
    for key in keys:
        ra, rb = a[key], b[key]
        shifted = ra.get("cutoff") != rb.get("cutoff")
        if shifted:
            moved.append(f"{key}: cutoff {ra.get('cutoff')} -> {rb.get('cutoff')}")
        for field in dict.fromkeys([*ra, *rb]):
            if field in ("residual", "cutoff", *WORK) or ra.get(field) == rb.get(field):
                continue
            line = f"{key}: {field} {ra.get(field)} vs {rb.get(field)}"
            strict = field in ("exit", "error", *FLAGS)
            (moved if shifted and not strict else problems).append(line)
    for side, records in (("A", a), ("B", b)):
        residuals = [float.fromhex(r["residual"]) for r in records.values() if "residual" in r]
        worst = max(residuals, default=0.0)
        print(f"{side}: {len(residuals)} states, largest residual {worst:.2e}")
        if worst > RESIDUAL_BOUND:
            problems.append(f"{side}: a residual exceeds {RESIDUAL_BOUND:g}")
    for field in WORK:
        before = sum(r[field] for r in a.values())
        after = sum(r[field] for r in b.values())
        print(f"{field}: {before} -> {after} ({_change(before, after)})")
    for line in [f"moved with its cutoff: {line}" for line in moved] + _sweep_summary(a, b, keys):
        print(line)
    return problems


def _scan_rule(a: dict, b: dict, keys: list) -> list:
    """scan's disagreements: a change of is_bound, verdict or raise, but for a
    raise that became a verdict."""
    problems, moves = [], []
    for key in keys:
        ra, rb = a[key], b[key]
        if ra["bound"] != rb["bound"]:
            problems.append(f"{key}: is_bound {ra['bound']} vs {rb['bound']}")
        if ra == rb:
            continue
        if "raises" in ra and "verdict" in rb:
            expected = "converges" if rb["bound"] else "diverges"
            tag = "agrees with" if rb["verdict"] == expected else "disagrees with"
            moves.append(f"{key}: raises {ra['raises']!r} -> {rb['verdict']} ({tag} is_bound)")
        else:
            said = [rec.get("verdict") or f"raises {rec['raises']!r}" for rec in (ra, rb)]
            problems.append(f"{key}: {said[0]} -> {said[1]} ({ra['class']} -> {rb['class']})")
    for line in moves:
        print(line)
    print(f"{len(moves)} raises became verdicts")
    return problems


class Probe(NamedTuple):
    """A named probe: its cases, the records of one case keyed by check, and
    the disagreements its compare reads from two digests' shared checks."""

    cases: Callable[[], list]
    run: Callable[[object], dict]
    rule: Callable[[dict, dict, list], list] = _no_new_failure


PROBES = {
    "oracle_sweep": Probe(_sweep_cases, _sweep_checks, _sweep_rule),
    "lam0_neg": Probe(lambda: _near_flat(-1.0), _channel_checks),
    "lam0_pos": Probe(lambda: _near_flat(1.0), _channel_checks),
    "lam0_flat": Probe(_flat_near_flat, _channel_checks),
    "nlo_neg": Probe(_nlo_neg, _channel_checks),
    "pos": Probe(_pos, _channel_checks),
    "clike_neg": Probe(_clike_neg, _channel_checks),
    "sweep": Probe(_sweep_1061, _channel_checks),
    "scan": Probe(_scan_cases, _scan_check, _scan_rule),
}


def digest(name: str, cases) -> dict:
    """The digest of probe ``name`` over ``cases``, a list of its cases."""
    import oscoul

    records = {}
    for case in cases:
        records.update(PROBES[name].run(case))
    return {"probe": name, "package": os.path.dirname(oscoul.__file__), "records": records}


def compare(path_a: str, path_b: str) -> int:
    """Print the comparison of two digests; 0 when they agree, 1 when they do
    not, and 2 when they are digests of different probes."""
    digests = []
    for path in (path_a, path_b):
        with open(path) as fh:
            digests.append(json.load(fh))
    if digests[0]["probe"] != digests[1]["probe"]:
        print(f"refused: {path_a} digests {digests[0]['probe']} and {path_b} {digests[1]['probe']}")
        return 2
    a, b = (d["records"] for d in digests)
    print(f"{digests[0]['probe']}: A = {path_a} ({digests[0]['package']}), "
          f"B = {path_b} ({digests[1]['package']})")
    problems = [f"only in A: {key}" for key in a if key not in b]
    problems += [f"only in B: {key}" for key in b if key not in a]
    keys = [key for key in a if key in b]
    ca = collections.Counter(r["class"] for r in a.values())
    cb = collections.Counter(r["class"] for r in b.values())
    width = max(map(len, [*ca, *cb, "checks"]))
    print(f"{'class':<{width}} {'A':>6} {'B':>6}")
    for cls in sorted(ca.keys() | cb.keys()):
        print(f"{cls:<{width}} {ca[cls]:>6} {cb[cls]:>6}")
    print(f"{'checks':<{width}} {len(a):>6} {len(b):>6}")
    moves = collections.Counter(
        (a[key]["class"], b[key]["class"]) for key in keys if a[key]["class"] != b[key]["class"]
    )
    for (x, y), n in sorted(moves.items()):
        print(f"  {x} -> {y}: {n}")
    problems += PROBES[digests[0]["probe"]].rule(a, b, keys)
    for line in problems:
        print(line)
    print("agree" if not problems else f"{len(problems)} disagreements")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("probe", nargs="?", choices=sorted(PROBES), help="the probe to digest")
    parser.add_argument("digest", nargs="?", help="write the probe's digest here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digests")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (args.probe and args.digest):
        parser.error("give a probe and a digest path, or --compare A B")
    cases = PROBES[args.probe].cases()
    result = digest(args.probe, cases)
    with open(args.digest, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    records = result["records"].values()
    print(f"{args.probe}: {len(records)} checks in {len(cases)} cases of {result['package']} "
          f"-> {args.digest}")
    for cls, n in sorted(collections.Counter(r["class"] for r in records).items()):
        print(f"  {cls}: {n}")
    for field in WORK:
        if any(field in r for r in records):
            print(f"  {field}: {sum(r[field] for r in records)}")
    if any("expected" in r for r in records):
        expected = collections.Counter(
            (r["expected"], r["class"] == "pass") for r in records if r["expected"]
        )
        passing = sum(n for (_, ok), n in expected.items() if ok)
        print(f"  expected to miss (expected_miss): {expected.total()}, of which {passing} pass")
        for (reason, ok), n in sorted(expected.items()):
            print(f"    {reason}, {'passes' if ok else 'misses'}: {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
