"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Tolerances are fixed here, not calibrated elsewhere.
"""

import math

import numpy as np
import pytest

from oscoul import oracle
from oscoul.cli import main as cli_main
from oscoul.duality import beta_from_coupling, map_curved, verify_pointwise
from oscoul.models import (
    BD,
    MM,
    CoulombLike,
    EuclideanCoulomb,
    EuclideanOscillator,
    NonlinearOscillator,
    QuantumNumbers,
    RadialState,
    clike_bound_states,
)
from oscoul.quadrature import (
    Verdict,
    inner_product,
    measure_for,
    norm_divergence_scan,
    normalized,
)
from oscoul.specfun import jacobi, laguerre

GRIDS = [512, 1024, 2048]


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_curved_oscillator_vs_oracle():
    cases = [(2, -0.1, 1.0, 0.0), (2, -0.1, 1.0, 1.0), (4, -0.1, 1.0, 0.0), (2, 0.2, 1.0, 1.0)]
    worst_err, worst_order = 0.0, 0.0
    for d, lam, beta, l in cases:
        model = NonlinearOscillator(d=d, lam=lam, beta=beta)
        rep = oracle.convergence_study(model, l, 2, GRIDS)
        for j in range(2):
            assert rep.monotone[j], (d, lam, l, j)
            assert rep.rel_error[j] <= 1e-6, (d, lam, l, j, rep.rel_error[j])
            assert 1.5 <= rep.observed_order[j] <= 2.5, (d, lam, l, j, rep.observed_order[j])
            worst_err = max(worst_err, rep.rel_error[j])
            worst_order = max(worst_order, abs(rep.observed_order[j] - 2.0))
    report(1, True, f"curved oscillator: worst rel err {worst_err:.2e}, order within 2±{worst_order:.2f}")


def test_criterion_2_coulomb_like_vs_oracle():
    cases = [(3, -0.1, 1.0, 0.0), (3, -0.1, 1.0, 1.0), (3, 0.2, 1.0, 0.0)]
    worst = 0.0
    for D, lam, Q, L in cases:
        model = CoulombLike(D=D, lam=lam, Q=Q)
        rep = oracle.convergence_study(model, L, 1, GRIDS)
        assert rep.rel_error[0] <= 1e-6, (D, lam, L, rep.rel_error[0])
        worst = max(worst, rep.rel_error[0])
    ground = CoulombLike(D=3, lam=-0.1, Q=1.0).energy(QuantumNumbers(0, 0))
    assert math.isclose(ground, -0.1625, rel_tol=1e-14)
    report(2, True, f"Coulomb-like: worst rel err {worst:.2e}; ground energy -0.1625 exact")


def test_criterion_3_pdm_shifts():
    # oscillator: shift d(d-2)lam/8, BD and MM coincide
    mo = NonlinearOscillator(d=4, lam=-0.1, beta=1.0)
    rep_w = oracle.convergence_study(mo, 1.0, 1, GRIDS)
    errs = []
    for ordering in (BD, MM):
        rep_f = oracle.convergence_study(mo, 1.0, 1, GRIDS, ordering)
        assert abs(rep_f.reference[0] - 6.6) < 1e-14
        assert rep_f.rel_error[0] <= 1e-6
        shift = 4.0 * 2.0 * (-0.1) / 4.0  # d(d-2)lam/4 in the 2E convention
        assert abs((rep_w.extrapolated[0] - rep_f.extrapolated[0]) - shift) <= 1e-6 * 6.6
        errs.append(rep_f.rel_error[0])
    # coulomb: 2E_1 = -0.328125 (BD), 2E_2 = -0.330625 (MM)
    mc = CoulombLike(D=3, lam=-0.1, Q=1.0)
    for ordering, ref in ((BD, -0.328125), (MM, -0.330625)):
        rep = oracle.convergence_study(mc, 0.0, 1, GRIDS, ordering)
        assert abs(rep.reference[0] - ref) < 1e-14
        assert rep.rel_error[0] <= 1e-6, (ordering, rep.rel_error[0])
        errs.append(rep.rel_error[0])
    report(3, True, f"PDM BD/MM shifts reproduced; worst rel err {max(errs):.2e}")


def _residual_matrix():
    cases = []
    mo = EuclideanOscillator(d=3, omega=1.0)
    cases += [(mo, QuantumNumbers(n_r, l)) for n_r, l in [(0, 0), (1, 0), (0, 2)]]
    mc = EuclideanCoulomb(D=3, Q=1.0)
    cases += [(mc, QuantumNumbers(n_r, L)) for n_r, L in [(0, 0), (1, 0), (0, 1)]]
    for d, lam, beta, l in [(2, -0.1, 1.0, 0), (2, -0.1, 1.0, 1), (4, -0.1, 1.0, 0), (2, 0.2, 1.0, 1)]:
        m = NonlinearOscillator(d=d, lam=lam, beta=beta)
        cases += [(m, QuantumNumbers(0, l)), (m, QuantumNumbers(1, l))]
    for D, lam, Q, L in [(3, -0.1, 1.0, 0), (3, -0.1, 1.0, 1), (3, 0.2, 1.0, 0)]:
        m = CoulombLike(D=D, lam=lam, Q=Q)
        cases += [(m, QuantumNumbers(0, L))]
        if m.is_bound(QuantumNumbers(1, L)):
            cases.append((m, QuantumNumbers(1, L)))
    return cases


def test_criterion_4_ode_residuals():
    worst = 0.0
    for model, q in _residual_matrix():
        cutoff = oracle.truncation_radius(model, q.ang, q.n_r)
        samples = oracle.default_samples(model, cutoff, n=50)
        res = oracle.residual_norm(RadialState(model, q), samples)
        assert res <= 1e-9, (model, q, res)
        worst = max(worst, res)
    report(4, True, f"ODE residuals on {len(_residual_matrix())} states, worst {worst:.2e}")


def test_criterion_5_duality():
    pairs = [
        map_curved(4, 0, -0.1, 1.0, 0),
        map_curved(4, 2, -0.1, 0.275, 0),
        map_curved(4, 0, -0.1, 1.0, 1),
        map_curved(4, 0, 0.1, 1.0, 0),
        map_curved(4, 2, 0.1, 1.0, 1),
        map_curved(2, 0, -0.1, 1.0, 2),
    ]
    worst_dev = 0.0
    for pair in pairs:
        hi = pair.coulomb.domain[1]
        span = 0.95 * hi if math.isfinite(hi) else 25.0
        rep = verify_pointwise(pair, np.linspace(0.05 * span, span, 100))
        assert rep.max_deviation <= 1e-10, (pair.coulomb, rep.max_deviation)
        worst_dev = max(worst_dev, rep.max_deviation)

    rng = np.random.default_rng(2024)
    checked, worst_rel = 0, 0.0
    while checked < 50:
        D = float(rng.choice([2.0, 2.5, 3.0, 4.0]))
        lam = float(rng.uniform(-0.3, 0.3))
        Q = float(rng.uniform(0.5, 3.0))
        if abs(lam) < 1e-3:
            continue
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
        scale = max(abs(route_a), beta * (beta + lam) / 8.0 + abs(0.25 * lam * e_osc))
        rel = abs(route_a - route_b) / scale
        assert rel <= 1e-12, (D, lam, Q, s, rel)
        worst_rel = max(worst_rel, rel)
        checked += 1
    report(5, True, f"duality: worst pointwise dev {worst_dev:.2e}, two-route rel {worst_rel:.2e}")


def _divergence_matrix():
    nlo = NonlinearOscillator(d=2, lam=0.2, beta=1.0)  # n_max = 4
    cp = CoulombLike(D=3, lam=0.2, Q=1.0)
    cn = CoulombLike(D=3, lam=-0.1, Q=1.0)
    matrix = [
        (nlo, (0, 0)), (nlo, (1, 0)), (nlo, (2, 0)), (nlo, (3, 0)),
        (nlo, (0, 1)), (nlo, (1, 1)), (nlo, (3, 1)), (nlo, (0, 3)),
        (cp, (0, 0)), (cp, (0, 1)), (cp, (0, 2)), (cp, (1, 1)), (cp, (2, 0)), (cp, (1, 2)),
        (cn, (0, 0)), (cn, (1, 0)), (cn, (2, 0)), (cn, (0, 1)), (cn, (3, 0)), (cn, (0, 2)),
    ]
    return matrix


def test_criterion_6_bound_state_counting_and_divergence():
    assert len(clike_bound_states(CoulombLike(D=3, lam=0.2, Q=1.0))) == 5
    assert len(clike_bound_states(CoulombLike(D=3, lam=-0.1, Q=1.0))) == 4
    matrix = _divergence_matrix()
    assert len(matrix) == 20
    disagreements = 0
    for model, (n_r, ang) in matrix:
        q = QuantumNumbers(n_r, ang)
        analytic = model.is_bound(q)
        verdict = norm_divergence_scan(RadialState(model, q), measure_for(model))
        expected = Verdict.CONVERGES if analytic else Verdict.DIVERGES
        if verdict is not expected:
            disagreements += 1
    assert disagreements == 0
    report(6, True, "bound sets 5/4 exact; 20-state divergence scan, 0 disagreements")


def test_criterion_7_degeneracy_structure():
    m = EuclideanCoulomb(D=3, Q=1.0)
    for nu in range(5):
        vals = {m.energy(QuantumNumbers(n_r, nu - n_r)) for n_r in range(nu + 1)}
        assert len(vals) == 1, nu
    mc = CoulombLike(D=3, lam=-0.1, Q=1.0)
    e10 = mc.energy(QuantumNumbers(1, 0))
    e01 = mc.energy(QuantumNumbers(0, 1))
    assert math.isclose(e10, -0.062890625, rel_tol=1e-14)
    assert math.isclose(e01, -0.046015625, rel_tol=1e-14)
    assert abs(e10 - e01) > 10 * np.finfo(float).eps * abs(e10)
    report(7, True, "Coulomb nu-degeneracy exact; curved pair split -0.062890625 / -0.046015625")


def test_criterion_8_limits():
    lams = np.array([1e-2, 1e-3, 1e-4])
    q = QuantumNumbers(1, 1)

    osc_ref = EuclideanOscillator(d=3, omega=1.0).energy(q)
    for sign in (+1.0, -1.0):
        diffs = [
            abs(NonlinearOscillator(d=3, lam=sign * lam, beta=1.0).energy(q) - osc_ref)
            for lam in lams
        ]
        slope = np.polyfit(np.log(lams), np.log(diffs), 1)[0]
        assert abs(slope - 1.0) <= 0.1, slope

    coul_ref = EuclideanCoulomb(D=3, Q=1.0).energy(QuantumNumbers(0, 1))
    for sign in (+1.0, -1.0):
        diffs = [
            abs(CoulombLike(D=3, lam=sign * lam, Q=1.0).energy(QuantumNumbers(0, 1)) - coul_ref)
            for lam in lams
        ]
        slope = np.polyfit(np.log(lams), np.log(diffs), 1)[0]
        assert abs(slope - 1.0) <= 0.1, slope

    n, alpha, x = 3, 1.5, 2.0
    target = laguerre(n, alpha, x)
    bs = np.array([1e2, 1e3, 1e4])
    errors = [abs(jacobi(n, alpha, b, -x / b) - target) for b in bs]  # 1 - 2x/b as u = -x/b
    slope = np.polyfit(np.log(bs), np.log(errors), 1)[0]
    assert abs(slope + 1.0) <= 0.1, slope
    report(8, True, "energy differences scale linearly in lam; Jacobi->Laguerre error ~ 1/b")


def test_criterion_9_orthogonality():
    families = [
        (EuclideanOscillator(d=3, omega=1.0), 0.0),
        (EuclideanCoulomb(D=3, Q=1.0), 0.0),
        (NonlinearOscillator(d=2, lam=-0.1, beta=1.0), 0.0),
        (NonlinearOscillator(d=2, lam=0.2, beta=2.0), 0.0),
        (CoulombLike(D=3, lam=-0.1, Q=2.0), 0.0),
        (CoulombLike(D=3, lam=0.2, Q=4.0), 0.0),
    ]
    worst = 0.0
    for model, ang in families:
        mu = measure_for(model)
        states = [normalized(RadialState(model, QuantumNumbers(j, ang)), mu) for j in range(4)]
        gram = np.array([[inner_product(a, b, mu) for b in states] for a in states])
        dev = float(np.max(np.abs(gram - np.eye(4))))
        assert dev <= 1e-8, (model, dev)
        worst = max(worst, dev)
    report(9, True, f"Gram matrices identity to {worst:.2e} across 6 families")


def test_criterion_10_deterministic_verify(tmp_path):
    args = [
        "verify", "--model", "nlo", "--d", "2", "--lambda", "-0.1", "--beta", "1",
        "--l", "1", "--k", "2",
    ]
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(args + ["--out", str(f1)]) == 0
    assert cli_main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    report(10, True, "repeated cli verify runs emit byte-identical JSON")
