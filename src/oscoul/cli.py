"""Command-line front end: spectra, wavefunction sampling, duality checks,
oracle verification, and bound-state enumeration, emitted as CSV or JSON.

The model name selects the picture ``verify`` solves: ``pdm-osc`` and
``pdm-coulomb`` are the flat (PDM) pictures of ``nlo`` and ``clike``, solved
with ``--ordering``; every other model is solved in its weighted picture.

Exit codes: 0 success, 1 verification failure, 2 usage/configuration error.
Output is byte-deterministic for a fixed flag set.  The oracle, the duality
map, the LAPACK binding and NumPy are imported by the commands that use them,
so ``spectrum`` and ``bound-states`` load none of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import re
import sys

from .models import (
    BD,
    MM,
    CoulombLike,
    EuclideanCoulomb,
    EuclideanOscillator,
    NonlinearOscillator,
    PdmOrdering,
    QuantumNumbers,
    RadialState,
    clike_bound_states,
)

SCHEMA = 1

# model name -> (class, the flags of its parameters in field order, picture)
_MODELS = {
    "osc": (EuclideanOscillator, ("d", "omega"), "weighted"),
    "coulomb": (EuclideanCoulomb, ("D", "Q"), "weighted"),
    "nlo": (NonlinearOscillator, ("d", "lambda", "beta"), "weighted"),
    "clike": (CoulombLike, ("D", "lambda", "Q"), "weighted"),
    "pdm-osc": (NonlinearOscillator, ("d", "lambda", "beta"), "flat"),
    "pdm-coulomb": (CoulombLike, ("D", "lambda", "Q"), "flat"),
}


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return format(float(value), ".16e")


def _write(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(header, rows, fmt, path):
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _write("\n".join(lines) + "\n", path)
    else:
        payload = {"schema": SCHEMA, "columns": list(header), "rows": [list(map(float, r)) for r in rows]}
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def _emit_json(obj: dict, path):
    obj = {"schema": SCHEMA, **obj}
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _need(args, name: str):
    value = getattr(args, name.strip("-").replace("-", "_"), None)
    if value is None:
        what = f"--model {args.model}" if "model" in args else args.command
        raise ConfigError(f"--{name} is required for {what}")
    return value


def build_model(args):
    """Model instance plus its angular quantum number from CLI flags."""
    cls, flags, _ = _MODELS[args.model]
    try:
        model = cls(*(_need(args, flag) for flag in flags))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if model.kind == "oscillator":
        ang = args.l if args.l is not None else 0.0
        if not ang.is_integer():
            raise ConfigError("oscillator-side l must be an integer")
    else:
        ang = args.L if args.L is not None else 0.0
    if ang < 0:
        raise ConfigError("angular quantum number must be >= 0")
    return model, float(ang)


def parse_ordering(spec: str) -> PdmOrdering:
    if spec == "bd":
        return BD
    if spec == "mm":
        return MM
    if spec.startswith("vonroos:"):
        try:
            xi, eta, zeta = (float(v) for v in spec.split(":", 1)[1].split(","))
            return PdmOrdering(xi, eta, zeta)
        except ValueError as exc:
            raise ConfigError(f"bad ordering {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown ordering {spec!r}")


def _ang_fixed(args) -> bool:
    return (args.l is not None) or (args.L is not None)


def cmd_spectrum(args) -> int:
    model, ang0 = build_model(args)
    n_cap = args.n_max if args.n_max is not None else 6
    osc_side = model.kind == "oscillator"
    pdm = _MODELS[args.model][2] == "flat"
    rows = []
    angs = [ang0] if _ang_fixed(args) else [float(a) for a in range(int(n_cap) + 1)]
    for ang in angs:
        n_r = 0
        while True:
            q = QuantumNumbers(n_r, ang)
            principal = q.n if osc_side else q.nu
            if principal > n_cap:
                break
            if args.bound_only and not model.is_bound(q):
                n_r += 1
                continue
            row = [n_r, ang, principal, model.energy(q), int(model.is_bound(q))]
            if pdm:
                row += [model.pdm_energy(BD, q), model.pdm_energy(MM, q)]
            rows.append(row)
            n_r += 1
    header = ["n_r", "ang", "n" if osc_side else "nu", "energy", "bound"]
    if pdm:
        header += ["energy_bd", "energy_mm"]
    _emit_rows(header, rows, args.format, args.out)
    return 0


def cmd_bound_states(args) -> int:
    model, _ = build_model(args)
    if model.lam == 0:
        raise ConfigError("bound-state enumeration applies to nlo/clike/pdm-* models")
    if model.kind == "coulomb":
        states = clike_bound_states(model)
        rows = [[q.n_r, q.ang, q.nu, model.energy(q)] for q in states]
        _emit_rows(["n_r", "L", "nu", "energy"], rows, args.format, args.out)
        return 0
    n_max = model.n_max
    _emit_json(
        {
            "command": "bound-states",
            "model": args.model,
            "n_max": n_max if n_max is None else int(n_max),
            "unbounded": n_max is None,
        },
        args.out,
    )
    return 0


def _sample_count(args, name: str) -> int:
    value = getattr(args, name)
    if value < 1:
        raise ConfigError(f"--{name} must be >= 1, got {value}")
    return value


def cmd_wavefunction(args) -> int:
    import numpy as np

    model, ang = build_model(args)
    points = _sample_count(args, "points")
    q = QuantumNumbers(args.n_r, ang)
    lo, hi = model.domain
    x_max = args.x_max
    if x_max is None and math.isinf(hi):
        # sampled evenly in the solved coordinate up to the state's cutoff
        # there: a state with a power-law tail keeps samples in its bulk
        from . import oracle

        cutoff = oracle.truncation_radius(model, ang, args.n_r)
        xs = oracle.default_samples(model, cutoff, points)
    else:
        if x_max is None:
            x_max = 0.999 * hi
        if not lo < x_max <= hi:
            raise ConfigError("sampling range exceeds the coordinate domain")
        xs = np.linspace(x_max / points, x_max, points)
    psi = np.asarray(model.wavefunction(q, xs))
    tilde = model.flat_factor(xs) * psi
    rows = [[x, p, t] for x, p, t in zip(xs, psi, tilde)]
    _emit_rows(["x", "psi_weighted", "psi_tilde"], rows, args.format, args.out)
    return 0


def cmd_duality(args) -> int:
    import numpy as np

    from . import oracle
    from .duality import map_curved, verify_pointwise

    lam = getattr(args, "lambda") if getattr(args, "lambda") is not None else 0.0
    d = _need(args, "d")
    if not args.l.is_integer():
        raise ConfigError("oscillator-side l must be an integer")
    l = int(args.l)
    n_samples = _sample_count(args, "samples")
    pair = map_curved(d, l, lam, _need(args, "omega" if lam == 0 else "beta"), args.n_r)
    lo, hi = pair.coulomb.domain
    span = hi if math.isfinite(hi) else 4.0 * oracle.truncation_radius(
        pair.oscillator, float(l), args.n_r
    ) ** 2 / 16.0
    samples = np.linspace(0.05 * span, 0.95 * span, n_samples)
    report = verify_pointwise(pair, samples)
    _emit_json(
        {
            "command": "duality",
            "oscillator": {"d": d, "l": l, "lambda": lam, "n_r": args.n_r},
            "D": pair.coulomb.D,
            "L": pair.coulomb_q.ang,
            "Q": pair.coulomb.Q,
            "coulomb_energy": pair.coulomb_energy,
            "integer_L": pair.integer_L,
            "max_deviation": report.max_deviation,
            "n_samples_used": report.n_used,
            "n_samples_skipped": len(report.skipped),
        },
        args.out,
    )
    return 0


def cmd_verify(args) -> int:
    from . import oracle
    from .kernels import LapackNotFound

    model, ang = build_model(args)
    picture = _MODELS[args.model][2]
    ordering = parse_ordering(args.ordering)
    if picture == "weighted":
        ordering = None
    for name in ("tol-eig", "tol-residual"):
        tol = getattr(args, name.replace("-", "_"))
        if not tol >= 0:
            raise ConfigError(f"--{name} must be >= 0, got {tol}")
    grids = [int(g) for g in args.grids.split(",")]
    try:
        report = oracle.convergence_study(model, ang, args.k, grids, ordering)
    except LapackNotFound as exc:
        raise ConfigError(str(exc)) from exc
    states = []
    all_ok = True
    for j in range(args.k):
        q = QuantumNumbers(j, ang)
        samples = oracle.default_samples(model, report.cutoffs[j])
        resid = oracle.residual_norm(RadialState(model, q), samples, ordering)
        order = report.observed_order[j]
        eig_ok = report.rel_error[j] <= args.tol_eig
        order_ok = math.isfinite(order) and 1.5 <= order <= 2.5
        resid_ok = resid <= args.tol_residual
        ok = bool(eig_ok and order_ok and resid_ok)
        all_ok &= ok
        states.append(
            {
                "n_r": j,
                "reference": report.reference[j],
                "eigenvalues": [row[j] for row in report.eigenvalues],
                "observed_order": order,
                "extrapolated": report.extrapolated[j],
                "rel_error": report.rel_error[j],
                "residual": resid,
                "eig_ok": bool(eig_ok),
                "order_ok": bool(order_ok),
                "residual_ok": bool(resid_ok),
                "pass": ok,
            }
        )
    _emit_json(
        {
            "command": "verify",
            "model": args.model,
            "picture": picture,
            "ordering": None if ordering is None else args.ordering,
            "ang": ang,
            "k": args.k,
            "grids": grids,
            "tolerances": {
                "eig": args.tol_eig,
                "order_window": [1.5, 2.5],
                "residual": args.tol_residual,
            },
            "states": states,
            "pass": bool(all_ok),
        },
        args.out,
    )
    if not all_ok:
        for st in states:
            if not st["pass"]:
                print(
                    f"verify failed: n_r={st['n_r']} rel_error={st['rel_error']:.3e} "
                    f"order={st['observed_order']:.3f} residual={st['residual']:.3e}",
                    file=sys.stderr,
                )
        return 1
    return 0


def _add_model_flags(sp):
    sp.add_argument("--model", required=True, choices=list(_MODELS))
    sp.add_argument("--d", type=int, help="oscillator-side dimension")
    sp.add_argument("--D", type=float, help="Coulomb-side dimension")
    sp.add_argument("--lambda", type=float, default=None, help="curvature parameter")
    sp.add_argument("--beta", type=float, help="nonlinear-oscillator strength")
    sp.add_argument("--omega", type=float, help="Euclidean oscillator frequency")
    sp.add_argument("--Q", type=float, help="Coulomb coupling")
    sp.add_argument("--l", type=float, default=None, help="oscillator angular momentum")
    sp.add_argument("--L", type=float, default=None, help="Coulomb-side angular number")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")


class _Parser(argparse.ArgumentParser):
    """Reads every token that starts "-digit" or "-.digit" as a value, so that
    ``--lambda -1e-3`` parses as ``--lambda=-1e-3`` does (argparse alone reads
    it as an unknown option).  No flag of this CLI starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args fills a fresh
    namespace on every call, so calls share no state through it."""
    parser = _Parser(
        prog="oscoul",
        description="Exactly solvable oscillator/Coulomb dual spectra with an "
        "independent Sturm-Liouville oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="closed-form energy table")
    _add_model_flags(sp)
    sp.add_argument("--n-max", type=int, default=None, help="cap on n (or nu)")
    sp.add_argument("--bound-only", action="store_true")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("bound-states", help="enumerate the finite bound set")
    _add_model_flags(sp)
    sp.set_defaults(func=cmd_bound_states)

    sp = sub.add_parser("wavefunction", help="sample a closed-form state")
    _add_model_flags(sp)
    sp.add_argument("--n-r", type=int, default=0)
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--x-max", type=float, default=None)
    sp.set_defaults(func=cmd_wavefunction)

    sp = sub.add_parser("duality", help="map an oscillator state and check it pointwise")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--l", type=float, default=0.0)
    sp.add_argument("--lambda", type=float, default=None)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--omega", type=float)
    sp.add_argument("--n-r", type=int, default=0)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_duality)

    sp = sub.add_parser("verify", help="oracle convergence study plus ODE residuals")
    _add_model_flags(sp)
    sp.add_argument("--k", type=int, default=2, help="number of lowest states")
    sp.add_argument("--grids", default="512,1024,2048")
    sp.add_argument("--ordering", default="bd", help="bd | mm | vonroos:xi,eta,zeta")
    sp.add_argument("--tol-eig", type=float, default=1e-6)
    sp.add_argument("--tol-residual", type=float, default=1e-9)
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
