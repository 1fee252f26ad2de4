"""Duality-map tests: parameter exchange, round trips, pointwise function identity."""

import json
import math

import numpy as np
import pytest

from oscoul import duality
from oscoul.cli import main
from oscoul.duality import DualPair, beta_from_coupling, map_curved, verify_pointwise
from oscoul.models import (
    CoulombLike,
    EuclideanCoulomb,
    EuclideanOscillator,
    NonlinearOscillator,
    QuantumNumbers,
    clike_bound_states,
)


def test_map_euclidean_values():
    pair = map_curved(4, 2, 0.0, 1.0, 0)
    assert pair.coulomb.D == 3.0
    assert pair.coulomb_q.ang == 1.0
    assert pair.coulomb.Q == 2.0
    assert pair.coulomb_energy == -0.125
    pair = map_curved(2, 0, 0.0, 1.0, 0)
    assert (pair.coulomb.D, pair.coulomb.Q) == (2.0, 0.5)
    assert pair.coulomb_energy == -0.125


def test_map_euclidean_energy_independent_of_state():
    vals = {map_curved(4, l, 0.0, 1.0, n_r).coulomb_energy for l in (0, 2, 4) for n_r in (0, 1, 2)}
    assert vals == {-0.125}


def test_map_euclidean_coupling_affine_in_n():
    omega, d = 1.3, 4
    pairs = [
        (2 * n_r + l, map_curved(d, l, 0.0, omega, n_r).coulomb.Q)
        for l in (0, 2)
        for n_r in (0, 1, 3)
    ]
    for n, Q in pairs:
        assert math.isclose(Q, 0.5 * omega * (n + d / 2), rel_tol=1e-14)


def test_map_curved_values():
    pair = map_curved(4, 0, -0.1, 1.0, 0)
    assert (pair.coulomb.D, pair.coulomb_q.ang) == (3.0, 0.0)
    assert math.isclose(pair.coulomb.Q, 1.0, rel_tol=1e-14)
    assert math.isclose(pair.coulomb_energy, -0.1625, rel_tol=1e-14)

    pair = map_curved(4, 2, -0.1, 0.275, 0)
    assert (pair.coulomb.D, pair.coulomb_q.ang) == (3.0, 1.0)
    assert math.isclose(pair.coulomb.Q, 1.0, rel_tol=1e-13)
    assert math.isclose(pair.coulomb_energy, -0.046015625, rel_tol=1e-13)


def test_map_curved_lam_zero_reduces_to_euclidean():
    a = map_curved(4, 2, 0.0, 1.0, 1)
    # omega = 1, n = 4: E_osc = n + d/2 = 6, Q = E_osc/2 = 3 and E = -omega^2/8
    b = DualPair(
        oscillator=EuclideanOscillator(d=4, omega=1.0),
        osc_q=QuantumNumbers(1, 2),
        coulomb=EuclideanCoulomb(D=3.0, Q=3.0),
        coulomb_q=QuantumNumbers(1, 1.0),
        coulomb_energy=-0.125,
        integer_L=True,
    )
    assert a == b


def test_map_curved_rejects_unbound_state():
    # d=2, lam=0.2, beta=1: n_max = 4, so n = 6 is not normalizable
    with pytest.raises(ValueError):
        map_curved(2, 0, 0.2, 1.0, 3)


def test_odd_l_flagged():
    pair = map_curved(4, 1, 0.0, 1.0, 0)
    assert not pair.integer_L
    assert pair.coulomb_q.ang == 0.5


def test_dimension_map():
    assert [map_curved(d, 0, 0.0, 1.0).coulomb.D for d in (2, 4, 6)] == [2.0, 3.0, 4.0]


def test_beta_from_coupling_values():
    assert math.isclose(beta_from_coupling(3, -0.1, 1.0, 0, 0), 1.0, rel_tol=1e-14)
    assert math.isclose(beta_from_coupling(3, 0.0, 1.0, 0, 0), 1.0, rel_tol=1e-14)
    assert math.isclose(beta_from_coupling(3, -0.1, 1.0, 0, 1), 0.275, rel_tol=1e-14)


def test_beta_from_coupling_invalid_model():
    with pytest.raises(ValueError):
        beta_from_coupling(3, -2.0, 1.5, 0, 0)  # beta*(beta+lam) <= 0


def test_round_trip_identity():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 50:
        d = int(rng.choice([2, 4, 6]))
        l = int(rng.choice([0, 2, 4]))
        lam = float(rng.uniform(-0.2, 0.2))
        if abs(lam) < 1e-3:
            continue
        beta = float(rng.uniform(0.5, 2.0))
        n_r = int(rng.integers(0, 3))
        try:
            pair = map_curved(d, l, lam, beta, n_r)
        except ValueError:
            continue
        back = beta_from_coupling(
            pair.coulomb.D, lam, pair.coulomb.Q, n_r, pair.coulomb_q.ang
        )
        assert abs(back - beta) <= 1e-13 * beta
        checked += 1


def test_two_route_energy_consistency():
    # clike_energy equals -beta(beta+lam)/8 + lam E/4 via the inverted beta
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        D = float(rng.choice([2.0, 2.5, 3.0, 4.0]))
        lam = float(rng.uniform(-0.3, 0.3))
        if abs(lam) < 1e-3:
            continue
        Q = float(rng.uniform(0.5, 3.0))
        model = CoulombLike(D=D, lam=lam, Q=Q)
        states = [s for s in clike_bound_states(model) if (2 * s.ang).is_integer()]
        if not states:
            continue
        s = states[int(rng.integers(0, len(states)))]
        try:
            beta = beta_from_coupling(D, lam, Q, s.n_r, s.ang)
        except ValueError:
            continue
        osc = NonlinearOscillator(d=int(round(2 * D - 2)), lam=lam, beta=beta)
        e_osc = osc.energy(QuantumNumbers(s.n_r, 2 * s.ang))
        route_b = -beta * (beta + lam) / 8.0 + 0.25 * lam * e_osc
        route_a = model.energy(s)
        # both routes cancel terms of this size; relative agreement is judged
        # against it so near-zero energies do not demand sub-ulp luck
        scale = max(abs(route_a), beta * (beta + lam) / 8.0 + abs(0.25 * lam * e_osc))
        assert abs(route_a - route_b) <= 1e-12 * scale
        checked += 1


@pytest.mark.parametrize(
    "d,l,lam,beta,n_r",
    [(2, 2, 0.2, 1.0, 1), (3, 1, 0.2, 1.0, 1), (4, 0, 0.2, 1.0, 1), (4, 2, 0.2, 1.0, 0),
     (4, 1, 0.05, 0.5, 3)],
)
def test_zero_coulomb_energy_maps(d, l, lam, beta, n_r, tmp_path):
    # the Coulomb-side energy of these states is 0 in exact arithmetic, and
    # the two routes to it leave round-off of 1e-17: judged against the size
    # of the terms, they agree (a relative 1e-12 raised RuntimeError, and
    # ``oscoul duality`` ended in a traceback)
    pair = map_curved(d, l, lam, beta, n_r)
    assert abs(pair.coulomb_energy) < 1e-16
    assert abs(pair.coulomb.energy(pair.coulomb_q)) < 1e-16
    out = tmp_path / "duality.json"
    argv = ["duality", "--d", str(d), "--l", str(l), "--lambda", str(lam), "--beta", str(beta),
            "--n-r", str(n_r), "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["max_deviation"] <= 2e-12


def test_a_real_inconsistency_still_raises(monkeypatch):
    # a Coulomb-side energy 1e-9 of the terms away from the oscillator's route
    energy = CoulombLike.energy
    monkeypatch.setattr(CoulombLike, "energy", lambda self, q: energy(self, q) + 1e-9)
    with pytest.raises(RuntimeError, match="internal duality inconsistency in map_curved"):
        map_curved(2, 2, 0.2, 1.0, 1)
    with pytest.raises(RuntimeError, match="internal duality inconsistency in map_curved"):
        map_curved(3, 0, -0.1, 1.0, 0)


def test_pointwise_ground_state_pairs():
    for pair in [map_curved(4, 0, -0.1, 1.0, 0), map_curved(3, 0, 0.0, 1.0, 0)]:
        hi = pair.coulomb.domain[1]
        span = hi if math.isfinite(hi) else 20.0
        samples = np.linspace(0.05 * span, 0.9 * span, 60)
        rep = verify_pointwise(pair, samples)
        assert rep.max_deviation <= 1e-12


def test_pointwise_excited_pair():
    pair = map_curved(4, 0, -0.1, 1.0, 1)
    samples = np.linspace(0.5, 9.0, 100)
    rep = verify_pointwise(pair, samples)
    assert rep.max_deviation <= 1e-10
    assert rep.n_used + len(rep.skipped) == 100


def test_pointwise_node_is_skipped():
    # the n_r=1 oscillator node is at 1 + 2 lam r^2 = (b-a)/(a+b+2), i.e. R = 1.6
    pair = map_curved(4, 0, -0.1, 1.0, 1)
    samples = np.array([0.5, 1.0, 1.6, 2.0, 4.0])
    rep = verify_pointwise(pair, samples)
    assert len(rep.skipped) == 1
    assert rep.skipped[0] == 1.6
    assert rep.n_used == 4
    assert rep.max_deviation <= 1e-10


def test_pointwise_mismatched_pair_flagged():
    good = map_curved(4, 2, -0.1, 0.275, 0)
    from dataclasses import replace

    bad = replace(good, coulomb_q=QuantumNumbers(0, 0.0))
    samples = np.linspace(0.5, 9.0, 50)
    assert verify_pointwise(bad, samples).max_deviation > 1e-3


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 10, 51, 100])
def test_median_is_numpys(size):
    # verify_pointwise's median is np.median's float for odd and even lengths,
    # with ties, signed zeros, infinities and NaN
    rng = np.random.default_rng(size)
    samples = [
        rng.normal(size=size),
        np.round(rng.normal(size=size), 1),
        rng.normal(size=size) * 10.0 ** rng.uniform(-300, 300, size=size),
        np.where(rng.random(size) < 0.5, 0.0, -0.0),
        np.where(rng.random(size) < 0.3, np.inf, rng.normal(size=size)),
        np.full(size, 1.7e308),  # the middle pair's sum overflows
    ]
    nan = rng.normal(size=size)
    nan[rng.integers(size)] = np.nan
    samples.append(nan)
    for x in samples:
        with np.errstate(over="ignore"):
            want = float(np.median(x))
        assert duality._median(x).hex() == want.hex(), x
