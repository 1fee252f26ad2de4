"""One operation per case: ``run`` does the program's work and is timed;
``check`` compares the answer with ``closed_forms`` and is not.

``check`` returns (consistent, passed):
* consistent: every value the program states as exact agrees with the
  independent closed form (energies, references, bound sets, wavefunction
  values, the Gram identity, the duality image), and a ``verify`` record
  agrees with itself (each state's pass flag follows from its own error,
  order and residual);
* passed: consistent, and the program's numerical verdicts agree with the
  analytic rule: the oracle confirmed every state (JSON ``pass`` is true),
  and the divergence scan matches ``is_bound``.

The two numerical verdicts are graded in ``pass_frac`` only: measuring how
often they agree with the analytic rule is what those operations are for.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import closed_forms as cf
from oscoul import cli, duality, models, quadrature

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 60.0
WF_POINTS = 100_000
CHECK_POINTS = 8


class Context:
    """Where an operation writes, and whether CLI subprocesses are traced."""

    def __init__(self, tmpdir: str, env: dict, tracer=None):
        self.tmpdir = tmpdir
        self.env = env
        self.tracer = tracer
        self.op = 0
        self.import_texts = []

    def path(self, suffix: str) -> str:
        return os.path.join(self.tmpdir, f"op{self.op}{suffix}")


class NoAnswer(Exception):
    """The operation ended without an answer (unexpected exit code)."""


# -- building package objects from a spec ------------------------------------


def build_model(spec):
    m = spec["model"]
    if m == "osc":
        return models.EuclideanOscillator(d=spec["d"], omega=spec["omega"])
    if m == "coulomb":
        return models.EuclideanCoulomb(D=spec["D"], Q=spec["Q"])
    if m in ("nlo", "pdm-osc"):
        return models.NonlinearOscillator(d=spec["d"], lam=spec["lam"], beta=spec["beta"])
    return models.CoulombLike(D=spec["D"], lam=spec["lam"], Q=spec["Q"])


def model_flags(spec) -> list[str]:
    flags = ["--model", spec["model"]]
    for key, flag in (("d", "--d"), ("D", "--D"), ("lam", "--lambda"), ("beta", "--beta"),
                      ("omega", "--omega"), ("Q", "--Q")):
        if key in spec:
            flags += [flag, repr(spec[key])]
    return flags


def ang_flags(spec, ang) -> list[str]:
    return ["--l" if cf.is_osc_side(spec) else "--L", repr(float(ang))]


def sample_grid(spec, n: int):
    """Points inside the domain where the state is resolved and not underflowed."""
    lam = spec.get("lam", 0.0)
    if lam < 0:
        hi = 1.0 / math.sqrt(-lam) if cf.is_osc_side(spec) else 1.0 / -lam
        return np.linspace(1e-3 * hi, 0.999 * hi, n)
    return np.linspace(1e-2, 6.0 if cf.is_osc_side(spec) else 60.0, n)


# -- run -------------------------------------------------------------------


def run(case, ctx: Context):
    op = case["op"]
    if op == "verify":
        return _run_verify(case, ctx)
    if op == "cli":
        return _run_cli(case, ctx)
    spec = case.get("spec")
    if op == "bound_states":
        return models.clike_bound_states(build_model(spec))
    if op == "gram":
        model = build_model(spec)
        mu = quadrature.measure_for(model)
        states = [
            quadrature.normalized(models.RadialState(model, models.QuantumNumbers(n, case["ang"])), mu)
            for n in range(4)
        ]
        return [[quadrature.inner_product(a, b, mu) for b in states] for a in states]
    if op == "divergence":
        model = build_model(spec)
        state = models.RadialState(model, models.QuantumNumbers(case["n_r"], case["ang"]))
        return quadrature.norm_divergence_scan(state, quadrature.measure_for(model))
    if op in ("wavefunction", "derivatives"):
        model = build_model(spec)
        q = models.QuantumNumbers(case["n_r"], case["ang"])
        xs = sample_grid(spec, WF_POINTS)
        if op == "wavefunction":
            return xs, (models.wavefunction(model, q, xs),)
        return xs, models.wavefunction_derivatives(model, q, xs)
    if op == "duality":
        pair = duality.map_curved(case["d"], case["l"], case["lam"], case["beta"], case["n_r"])
        hi = pair.coulomb.domain[1]
        span = hi if math.isfinite(hi) else 20.0
        return pair, duality.verify_pointwise(pair, np.linspace(0.05 * span, 0.95 * span, 100))
    raise ValueError(f"unknown operation {op!r}")


def verify_argv(case, out) -> list[str]:
    argv = ["verify", *model_flags(case["spec"]), *ang_flags(case["spec"], case["ang"]),
            "--k", str(case["k"]), "--format", "json", "--out", out]
    if "ordering" in case:
        argv += ["--ordering", case["ordering"]]
    return argv


def _run_verify(case, ctx):
    out = ctx.path(".json")
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(verify_argv(case, out))
    if code not in (0, 1):  # 1 is the oracle's own "verification failed" answer
        raise NoAnswer(f"verify exited {code}")
    return code, out


def cli_argv(case, out) -> list[str]:
    cmd = case["command"]
    if cmd == "duality":
        return ["duality", "--d", str(case["d"]), "--l", str(case["l"]), "--lambda",
                repr(case["lam"]), "--beta", repr(case["beta"]), "--n-r", str(case["n_r"]),
                "--out", out]
    argv = [cmd, *model_flags(case["spec"]), "--format", case["format"], "--out", out]
    if cmd == "spectrum":
        argv += ["--n-max", "4"]
    elif cmd == "wavefunction":
        argv += [*ang_flags(case["spec"], case["ang"]), "--n-r", str(case["n_r"])]
    return argv


def _run_cli(case, ctx):
    out = ctx.path(".csv" if case["format"] == "csv" else ".json")
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "oscoul.cli", *cli_argv(case, out)]
    else:
        spans = ctx.path(".spans.json")
        cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "traced_cli.py"), spans,
               *cli_argv(case, out)]
    proc = subprocess.run(cmd, env=ctx.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    if ctx.tracer is not None:
        ctx.import_texts.append(proc.stderr)
        with open(spans) as fh:
            ctx.tracer.merge(json.load(fh), ctx.op)
        os.unlink(spans)
    if proc.returncode != 0:
        raise NoAnswer(f"oscoul {case['command']} exited {proc.returncode}")
    return out


# -- check -----------------------------------------------------------------


def check(case, answer) -> tuple[bool, bool]:
    op = case["op"]
    if op == "verify":
        return _check_verify(case, answer)
    if op == "cli":
        ok = _check_cli(case, answer)
    elif op == "bound_states":
        ok = [(q.n_r, int(q.ang)) for q in answer] == cf.clike_bound_set(case["spec"])
    elif op == "gram":
        ok = max(abs(g - (i == j)) for i, row in enumerate(answer) for j, g in enumerate(row)) <= 1e-8
    elif op == "divergence":
        bound = cf.is_bound(case["spec"], case["n_r"], case["ang"])
        return True, answer.value == ("converges" if bound else "diverges")
    elif op in ("wavefunction", "derivatives"):
        xs, values = answer
        ok = len(xs) == WF_POINTS and _check_samples(case["spec"], case["n_r"], case["ang"], xs, values)
    elif op == "duality":
        pair, report = answer
        ok = _check_duality(case, pair.coulomb.D, pair.coulomb_q.ang, pair.coulomb.Q,
                            pair.coulomb_energy, report.max_deviation)
    else:
        raise ValueError(f"unknown operation {op!r}")
    return bool(ok), bool(ok)


def _check_verify(case, answer):
    code, out = answer
    try:
        with open(out) as fh:
            res = json.load(fh)
    finally:
        os.unlink(out)
    spec, ang = case["spec"], case["ang"]
    tol = res["tolerances"]
    consistent = len(res["states"]) == case["k"]
    for st in res["states"]:
        n_r = st["n_r"]
        if "ordering" in case:
            ref = 2.0 * cf.pdm_energy(spec, case["ordering"], n_r, ang)
        else:
            ref = 2.0 * cf.energy(spec, n_r, ang)
        lo, hi = tol["order_window"]
        ok = (st["rel_error"] <= tol["eig"] and lo <= st["observed_order"] <= hi
              and st["residual"] <= tol["residual"])
        consistent &= cf.close(st["reference"], ref) and st["pass"] == ok
    all_pass = all(st["pass"] for st in res["states"])
    consistent &= res["pass"] == all_pass and (code == 0) == all_pass
    return bool(consistent), bool(consistent and all_pass)


def _check_samples(spec, n_r, ang, xs, values) -> bool:
    """Values (and derivatives, by central differences of the independent
    closed form) at CHECK_POINTS evenly spaced grid points."""
    idx = np.linspace(0, len(xs) - 1, CHECK_POINTS + 2).astype(int)[1:-1]
    ref, scale, d1, d2 = [], [], [], []
    for i in idx:
        x = float(xs[i])
        f0, s0 = cf.wavefunction(spec, n_r, ang, x)
        h = 1e-3 * x
        fp = cf.wavefunction(spec, n_r, ang, x + h)[0]
        fm = cf.wavefunction(spec, n_r, ang, x - h)[0]
        ref.append(f0)
        scale.append(s0)
        d1.append((fp - fm) / (2.0 * h))
        d2.append((fp - 2.0 * f0 + fm) / (h * h))
    got = [np.asarray(v)[idx] for v in values]
    ok = all(abs(g - r) <= 1e-9 * s + 1e-300 for g, r, s in zip(got[0], ref, scale))
    for k, fd in ((1, d1), (2, d2)):
        if len(got) > k:
            top = max(abs(v) for v in fd)
            ok &= all(abs(g - r) <= 1e-4 * top for g, r in zip(got[k], fd))
    return ok


def _check_duality(case, D, L, Q, energy, max_dev) -> bool:
    img = cf.dual_image(case["d"], case["l"], case["lam"], case["beta"], case["n_r"])
    e_coulomb = cf.energy(img["spec"], case["n_r"], img["L"])
    return (
        cf.close(D, img["D"]) and cf.close(L, img["L"]) and cf.close(Q, img["Q"], 1e-10)
        and cf.close(energy, img["energy"], 1e-10) and cf.close(energy, e_coulomb, 1e-10)
        and max_dev <= 1e-8
    )


def _read_rows(case, out):
    with open(out) as fh:
        text = fh.read()
    if case["format"] == "csv":
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        return header, rows
    payload = json.loads(text)
    return payload["columns"], payload["rows"]


def _check_cli(case, out) -> bool:
    cmd = case["command"]
    try:
        if cmd == "duality":
            with open(out) as fh:
                res = json.load(fh)
            return _check_duality(case, res["D"], res["L"], res["Q"], res["coulomb_energy"],
                                  res["max_deviation"])
        spec = case["spec"]
        if cmd == "bound-states" and spec["model"] == "nlo":
            with open(out) as fh:
                res = json.load(fh)
            return res["n_max"] == cf.nlo_n_max(spec) and res["unbounded"] is False
        header, rows = _read_rows(case, out)
        if cmd == "spectrum":
            return _check_spectrum(spec, header, rows)
        if cmd == "bound-states":
            expect = cf.clike_bound_set(spec)
            return [(int(r[0]), int(r[1])) for r in rows] == expect and all(
                cf.close(r[3], cf.energy(spec, int(r[0]), r[1])) for r in rows
            )
        xs = [r[0] for r in rows]
        psi = [r[1] for r in rows]
        tilde_ok = all(cf.close(r[2], cf.flat_factor(spec, r[0]) * r[1], 1e-10) for r in rows)
        if len(rows) != 200 or not tilde_ok:
            return False
        return _check_samples(spec, case["n_r"], case["ang"], xs, (psi,))
    finally:
        if os.path.exists(out):
            os.unlink(out)


def _check_spectrum(spec, header, rows) -> bool:
    pdm = spec["model"].startswith("pdm")
    if not rows or len(header) != (7 if pdm else 5):
        return False
    for r in rows:
        n_r, ang = int(r[0]), r[1]
        if not cf.close(r[3], cf.energy(spec, n_r, ang)):
            return False
        if bool(r[4]) != cf.is_bound(spec, n_r, ang):
            return False
        if pdm and not (cf.close(r[5], cf.pdm_energy(spec, "bd", n_r, ang))
                        and cf.close(r[6], cf.pdm_energy(spec, "mm", n_r, ang))):
            return False
    return True
