"""The lambda gate: the verify probes of ROADMAP items 13 and 1 (``parity``),
run through ``oscoul verify``.  Item 13's weighted halves are thinned to lam
in +-{1e-6, 1e-10}, item 1's nlo lam < 0 probe to one beta per lam; item 13's
flat probe and item 1's lam > 0 and clike lam < 0 probes run whole.  A check
is one state of one channel, and it passes when verify's report passes it:
every state is cut where its density falls to 1e-12 of its peak, and sampled
up to there, however narrow it is beside its finite domain.  A miss that
``parity.expected_miss`` names is a strict xfail; nothing else is excluded.

The gate has a file of its own: pytest reads the whole file's source to
report each strict xfail, and in a long file that cost more than the checks.
"""

import collections

import parity
import pytest

GATE_LAM0 = (-1e-6, -1e-10, 1e-6, 1e-10)
GATE_BETA = {-1e-4: 1.0, -1e-3: 2.0, -0.02: 0.5, -0.1: 1.0, -0.3: 0.5, -1.0: 2.0}


def _gate_channels():
    near_flat = parity.PROBES["lam0_neg"].cases() + parity.PROBES["lam0_pos"].cases()
    channels = [c for c in near_flat if c.lam in GATE_LAM0]
    channels += [c for c in parity.PROBES["nlo_neg"].cases() if GATE_BETA[c.lam] == c.strength]
    return channels + parity.PROBES["pos"].cases() + parity.PROBES["lam0_flat"].cases()


def _gate_id(c, n_r):
    ordering = f"-{c.ordering}" if c.ordering else ""
    return f"{c.model}-dim{c.dim:g}-lam{c.lam:g}-s{c.strength:g}-ang{c.ang:g}{ordering}-nr{n_r}"


GATE = list(parity.params(_gate_channels(), _gate_id))
CLIKE_NEG = list(parity.params(parity.PROBES["clike_neg"].cases(), _gate_id))


def _xfails(checks):
    return collections.Counter(m.kwargs["reason"] for p in checks for m in p.marks)


@pytest.mark.parametrize("channel,n_r", GATE + CLIKE_NEG)
def test_negative_lambda_gate(channel, n_r):
    parity.assert_passes(channel, n_r)


def test_lambda_gate_holds_1724_checks():
    assert len(GATE) == 1724
    assert _xfails(GATE) == {parity.ITEM1: 90, parity.ITEM1_POS: 11, parity.ITEM3: 32}


def test_clike_neg_gate_holds_390_checks():
    assert (len(CLIKE_NEG), _xfails(CLIKE_NEG)) == (390, {parity.ITEM3: 1})
