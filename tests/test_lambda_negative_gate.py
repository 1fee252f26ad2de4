"""The near-flat and lam < 0 gate: the probes of ROADMAP items 13 and 1
(``probe_parity``), item 13's two halves thinned to lam in +-{1e-6, 1e-10}
and item 1's to one beta per lam, run through ``oscoul verify``.  A check
is one state of one channel, and it passes when verify's report passes
it: every state is cut where its density falls to 1e-12 of its peak, and
sampled up to there, however narrow it is beside its finite domain.  The
singular-end class of item 1 and item 3's order-4 family near lam = 0 are
strict xfails; nothing else is excluded.

The gate has a file of its own: pytest reads the whole file's source to
report each strict xfail, and in a long file that cost more than the checks.
"""

import collections
import functools
import os
import tempfile

import probe_parity
import pytest

GATE_LAM0 = (-1e-6, -1e-10, 1e-6, 1e-10)
GATE_BETA = {-1e-4: 1.0, -1e-3: 2.0, -0.02: 0.5, -0.1: 1.0, -0.3: 0.5, -1.0: 2.0}
ITEM1 = "ROADMAP item 1: nlo with beta/(2|lam|) <= 1, whose density is singular at the end"
ITEM3_NEAR_FLAT = "ROADMAP item 3: ground state of the order-4 family near lam = 0, accurate"


def _gate_checks():
    """One param per (channel, n_r) of the thinned probes."""
    near_flat = probe_parity.PROBES["lam0_neg"] + probe_parity.PROBES["lam0_pos"]
    channels = [c for c in near_flat if c.lam in GATE_LAM0]
    channels += [c for c in probe_parity.PROBES["nlo_neg"] if GATE_BETA[c.lam] == c.strength]
    for c in channels:
        for n_r in range(c.k):
            reason = None
            if c.model == "nlo" and c.strength / (2.0 * abs(c.lam)) <= 1.0:
                reason = ITEM1
            elif (c.model, c.dim, c.ang, n_r) in (("clike", 3, 0, 0), ("nlo", 4, 0, 0)):
                reason = ITEM3_NEAR_FLAT if abs(c.lam) <= 1e-6 else None
            yield pytest.param(
                c, n_r,
                id=f"{c.model}-dim{c.dim:g}-lam{c.lam:g}-s{c.strength:g}-ang{c.ang:g}-nr{n_r}",
                marks=[pytest.mark.xfail(strict=True, reason=reason)] if reason else [],
            )


@functools.cache
def _verify_channel(channel):
    with tempfile.TemporaryDirectory() as tmp:
        return probe_parity.run_channel(channel, os.path.join(tmp, "verify.json"))


@pytest.mark.parametrize("channel,n_r", list(_gate_checks()))
def test_negative_lambda_gate(channel, n_r):
    code, error, states = _verify_channel(channel)
    assert states is not None, error
    state = states[n_r]
    assert state["pass"], {key: state[key] for key in ("rel_error", "observed_order", "residual")}


def test_lambda_gate_holds_414_checks():
    checks = list(_gate_checks())
    xfails = collections.Counter(m.kwargs["reason"] for p in checks for m in p.marks)
    assert (len(checks), xfails[ITEM1], xfails[ITEM3_NEAR_FLAT]) == (414, 90, 8)
