"""Command-line front end: spectra, wavefunction sampling, duality checks,
oracle verification, and bound-state enumeration, emitted as CSV (the default)
or JSON; ``verify`` and oscillator-side ``bound-states`` write JSON only.

The model name selects the picture ``verify`` solves: ``pdm-osc`` and
``pdm-coulomb`` are the flat (PDM) pictures of ``nlo`` and ``clike``, solved
with ``--ordering`` (default ``bd``); every other model is solved in its
weighted picture and refuses ``--ordering``.

Exit codes: 0 success, 1 verification failure, 2 usage/configuration error.
Output is byte-deterministic for a fixed flag set; JSON writes a non-finite
number as null.  The oracle, the duality map, the LAPACK binding and NumPy
are imported by the commands that use them, so ``spectrum`` and
``bound-states`` load none of them.
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
    MAX_STATES,
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


def _finite(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {key: _finite(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit_json(obj: dict, path):
    obj = {"schema": SCHEMA, **obj}
    _write(json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n", path)


def _emit_rows(header, rows, fmt, path):
    if fmt == "json":
        _emit_json({"columns": list(header), "rows": [list(map(float, r)) for r in rows]}, path)
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _write("\n".join(lines) + "\n", path)


def _json_only(args, what: str):
    if args.format == "csv":
        raise ValueError(f"{what} writes JSON only, not --format csv")


def _need(args, name: str):
    value = getattr(args, name.strip("-").replace("-", "_"), None)
    if value is None:
        what = f"--model {args.model}" if "model" in args else args.command
        raise ValueError(f"--{name} is required for {what}")
    return value


def build_model(args):
    """Model and its angular quantum number from CLI flags, refusing any it does not read."""
    cls, flags, _ = _MODELS[args.model]
    ang_flag = "l" if cls.kind == "oscillator" else "L"
    for flag in ("d", "D", "lambda", "beta", "omega", "Q", "l", "L"):
        if getattr(args, flag) is not None and flag not in (*flags, ang_flag):
            raise ValueError(f"--{flag} does not apply to --model {args.model}")
    model = cls(*(_need(args, flag) for flag in flags))
    ang = getattr(args, ang_flag)
    ang = 0.0 if ang is None else ang
    if ang_flag == "l" and not ang.is_integer():
        raise ValueError("oscillator-side l must be an integer")
    if not (ang >= 0 and math.isfinite(ang)):
        raise ValueError(f"angular quantum number must be >= 0 and finite, got {ang}")
    return model, float(ang)


def parse_ordering(spec: str) -> PdmOrdering:
    if spec in ("bd", "mm"):
        return PdmOrdering[spec.upper()]
    if spec.startswith("vonroos:"):
        try:
            return PdmOrdering(tuple(float(v) for v in spec.split(":", 1)[1].split(",")))
        except ValueError as exc:
            raise ValueError(f"bad ordering {spec!r}: {exc}") from exc
    raise ValueError(f"unknown ordering {spec!r}")


def cmd_spectrum(args) -> int:
    model, ang0 = build_model(args)
    n_cap = args.n_max if args.n_max is not None else 6
    if n_cap < 0:
        raise ValueError(f"--n-max must be >= 0, got {n_cap}")
    osc_side = model.kind == "oscillator"
    pdm = _MODELS[args.model][2] == "flat"
    # the principal number is 2 n_r + ang on the oscillator side and n_r + ang
    # on the Coulomb side, so ang has width(ang) rows up to n_cap; the rows are
    # counted before they are walked, summed in closed form over ang = 0..n_cap
    step = 2 if osc_side else 1

    def width(ang):
        return int((n_cap - ang) // step) + 1 if ang <= n_cap else 0

    if args.l is not None or args.L is not None:
        angs = [ang0]
        size = width(ang0)
    else:
        angs = range(n_cap + 1)
        if step == 1:
            size = (n_cap + 1) * (n_cap + 2) // 2
        else:
            size = n_cap + 1 + (n_cap // 2) * ((n_cap + 1) // 2)
    if size > MAX_STATES:
        raise ValueError(f"--n-max {n_cap} gives {size} rows, more than {MAX_STATES}")
    rows = []
    for ang in map(float, angs):
        for n_r in range(width(ang)):
            q = QuantumNumbers(n_r, ang)
            if args.bound_only and not model.is_bound(q):
                continue
            row = [n_r, ang, q.n if osc_side else q.nu, model.energy(q), int(model.is_bound(q))]
            if pdm:
                row += [model.pdm_energy(BD, q), model.pdm_energy(MM, q)]
            rows.append(row)
    header = ["n_r", "ang", "n" if osc_side else "nu", "energy", "bound"]
    if pdm:
        header += ["energy_bd", "energy_mm"]
    _emit_rows(header, rows, args.format, args.out)
    return 0


def cmd_bound_states(args) -> int:
    model, _ = build_model(args)
    if model.lam == 0:
        raise ValueError("bound-state enumeration applies to nlo/clike/pdm-* models")
    if model.kind == "coulomb":
        states = clike_bound_states(model)
        rows = [[q.n_r, q.ang, q.nu, model.energy(q)] for q in states]
        _emit_rows(["n_r", "L", "nu", "energy"], rows, args.format, args.out)
        return 0
    _json_only(args, f"bound-states --model {args.model}")
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
        raise ValueError(f"--{name} must be >= 1, got {value}")
    return value


def cmd_wavefunction(args) -> int:
    import numpy as np

    model, ang = build_model(args)
    points = _sample_count(args, "points")
    q = QuantumNumbers(args.n_r, ang)
    # an unbound state's closed form is formal, and can repeat a bound state's values
    if not model.is_bound(q):
        raise ValueError(f"state n_r={q.n_r} ang={ang:g} is not normalizable")
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
        if not lo < x_max < hi:
            raise ValueError("sampling range exceeds the coordinate domain")
        xs = np.linspace(x_max / points, x_max, points)
    psi = np.asarray(model.wavefunction(q, xs))
    tilde = model.flat_factor_derivatives(BD, xs)[0] * psi
    rows = [[x, p, t] for x, p, t in zip(xs, psi, tilde)]
    _emit_rows(["x", "psi_weighted", "psi_tilde"], rows, args.format, args.out)
    return 0


def cmd_duality(args) -> int:
    import numpy as np

    from .duality import map_curved, verify_pointwise

    lam = getattr(args, "lambda") if getattr(args, "lambda") is not None else 0.0
    strength, unread = ("omega", "beta") if lam == 0 else ("beta", "omega")
    if getattr(args, unread) is not None:
        raise ValueError(f"--{unread} does not apply to duality at lambda = {lam:g}")
    d = _need(args, "d")
    if not args.l.is_integer():
        raise ValueError("oscillator-side l must be an integer")
    l = int(args.l)
    n_samples = _sample_count(args, "samples")
    pair = map_curved(d, l, lam, _need(args, strength), args.n_r)
    lo, hi = pair.coulomb.domain
    if math.isfinite(hi):
        span = hi
    else:  # only an infinite domain needs the oracle's cutoff
        from . import oracle

        span = 4.0 * oracle.truncation_radius(pair.oscillator, float(l), args.n_r) ** 2 / 16.0
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

    _json_only(args, "verify")
    model, ang = build_model(args)
    picture = _MODELS[args.model][2]
    if picture == "weighted" and args.ordering is not None:
        raise ValueError(f"--ordering is for pdm-osc and pdm-coulomb, not --model {args.model}")
    spec = "bd" if args.ordering is None else args.ordering
    ordering = None if picture == "weighted" else parse_ordering(spec)
    for name in ("tol-eig", "tol-residual"):
        tol = getattr(args, name.replace("-", "_"))
        if not tol >= 0:
            raise ValueError(f"--{name} must be >= 0, got {tol}")
    try:
        grids = [int(g) for g in args.grids.split(",")]
    except ValueError:
        raise ValueError(f"--grids must be comma-separated integers, got {args.grids!r}") from None
    try:
        report = oracle.convergence_study(model, ang, args.k, grids, ordering)
    except LapackNotFound as exc:
        raise ValueError(str(exc)) from exc
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
            "ordering": None if ordering is None else spec,
            "ang": ang,
            "k": args.k,
            "grids": grids,
            "eig_resolution": list(report.resolution),
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
    sp.add_argument("--format", choices=["csv", "json"], default=None)
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
    sp.add_argument("--grids", default="512,1024,2048", help="doubling ladder, e.g. 512,1024,2048")
    sp.add_argument(
        "--ordering", default=None, help="pdm models only: bd (default) | mm | vonroos:xi,eta,zeta"
    )
    sp.add_argument("--tol-eig", type=float, default=1e-6)
    sp.add_argument("--tol-residual", type=float, default=1e-9)
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
