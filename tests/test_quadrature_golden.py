"""Bit-exact quadrature results against committed golden values.

``tests/data/quadrature_golden.json`` holds, as ``float.hex`` strings:

* the Gram matrix of the four lowest normalized states of each channel the
  closed-form benchmark cycles through (unjittered strengths);
* for the states on either side of the bound/unbound edge of six channels,
  the three truncations the divergence scan picks, the norm at each, and the
  scan's verdict.

A change that keeps the quadrature's nodes, weights and floating-point order
keeps every bit.  The verdict of clike D=3 lam=0.2 L=0 n_r=1, a bound state
whose norm converges as a slow power law, was regenerated when the scan came
to read the ratio of successive norm increments.  Regenerate the file only
for an intended change, with

    PYTHONPATH=src python tests/test_quadrature_golden.py
"""

import json
import sys
from pathlib import Path

from oscoul.models import (
    CoulombLike,
    EuclideanCoulomb,
    EuclideanOscillator,
    NonlinearOscillator,
    QuantumNumbers,
    RadialState,
)
from oscoul.quadrature import (
    _default_truncations,
    inner_product,
    measure_for,
    norm,
    norm_divergence_scan,
    normalized,
)

GOLDEN = Path(__file__).parent / "data" / "quadrature_golden.json"

# (name, model, angular number): l = 1 on the oscillator side, L = 1/2 on the
# Coulomb side
GRAM_CHANNELS = [
    ("nlo d=3 lam=-0.1", NonlinearOscillator(d=3, lam=-0.1, beta=1.0), 1.0),
    ("nlo d=2 lam=0.05", NonlinearOscillator(d=2, lam=0.05, beta=1.0), 1.0),
    ("clike D=3 lam=-0.02", CoulombLike(D=3.0, lam=-0.02, Q=1.0), 0.5),
    ("clike D=2.5 lam=0.02", CoulombLike(D=2.5, lam=0.02, Q=1.0), 0.5),
    ("osc d=3", EuclideanOscillator(d=3, omega=1.0), 1.0),
    ("coulomb D=3", EuclideanCoulomb(D=3.0, Q=1.0), 0.5),
]

# (name, model, angular number, last bound n_r, first unbound n_r)
EDGE_CHANNELS = [
    ("nlo d=2 lam=0.2 l=0", NonlinearOscillator(d=2, lam=0.2, beta=1.0), 0.0, 2, 3),
    ("nlo d=2 lam=0.2 l=1", NonlinearOscillator(d=2, lam=0.2, beta=1.0), 1.0, 1, 2),
    ("clike D=3 lam=0.2 L=0", CoulombLike(D=3.0, lam=0.2, Q=1.0), 0.0, 1, 2),
    ("clike D=3 lam=0.2 L=1", CoulombLike(D=3.0, lam=0.2, Q=1.0), 1.0, 0, 1),
    ("clike D=3 lam=-0.1 L=0", CoulombLike(D=3.0, lam=-0.1, Q=1.0), 0.0, 2, 3),
    ("clike D=3 lam=-0.1 L=1", CoulombLike(D=3.0, lam=-0.1, Q=1.0), 1.0, 0, 1),
]


def _hex(values):
    return [float(v).hex() for v in values]


def compute() -> dict:
    gram = {}
    for name, model, ang in GRAM_CHANNELS:
        mu = measure_for(model)
        states = [normalized(RadialState(model, QuantumNumbers(j, ang)), mu) for j in range(4)]
        gram[name] = [_hex(inner_product(a, b, mu) for b in states) for a in states]
    edges = {}
    for name, model, ang, bound, unbound in EDGE_CHANNELS:
        mu = measure_for(model)
        for n_r in (bound, unbound):
            state = RadialState(model, QuantumNumbers(n_r, ang))
            cuts = _default_truncations(state, mu)
            edges[f"{name} n_r={n_r}"] = {
                "truncations": _hex(cuts),
                "norms": _hex(norm(state, mu, truncation=t) for t in cuts),
                "verdict": norm_divergence_scan(state, mu).value,
            }
    return {"gram": gram, "edges": edges}


def test_quadrature_matches_golden_bit_for_bit():
    golden = json.loads(GOLDEN.read_text())
    got = compute()
    assert got["gram"] == golden["gram"]
    assert got["edges"] == golden["edges"]


def test_edge_states_straddle_the_bound_rule():
    for name, model, ang, bound, unbound in EDGE_CHANNELS:
        assert model.is_bound(QuantumNumbers(bound, ang)), name
        assert not model.is_bound(QuantumNumbers(unbound, ang)), name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
