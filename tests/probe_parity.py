"""Probe parity check: run a named ``oscoul verify`` probe and digest its
checks, or compare two digests.

    PYTHONPATH=src python tests/probe_parity.py NAME DIGEST.json
    python tests/probe_parity.py --compare BEFORE.json AFTER.json

A probe is a grid of ``verify`` channels, each run with ``--k`` states and
verify's default grids and gates; a check is one state of one channel.  Three
probes are named:

- ``lam0_neg`` and ``lam0_pos`` (ROADMAP item 13, the lam < 0 and lam > 0
  halves; 144 checks each): clike with D in {2, 3, 4} and Q = 1, and nlo
  with d in {2, 3, 4} and beta = 1, at lam in -{1e-4, 1e-6, 1e-8, 1e-10}
  and +{1e-4, 1e-6, 1e-8, 1e-10}, ang in {0, 1}, n_r < 3.
- ``nlo_neg`` (ROADMAP item 1, nlo at lam < 0; 720 checks): nlo with d in
  {2, 3, 4}, l in {0, 1, 2} and every n_r < 5, at lam in {-1e-4, -1e-3,
  -0.02, -0.1, -0.3, -1} and beta in {0.5, 1, 2}, leaving out the
  (lam, beta) with beta (beta + lam) <= 0, which the model refuses.

The first form runs every channel in process through ``cli.main`` and writes
one record per check: the channel's argv, n_r, the exit code and the error
line of a refusal, each of verify's flags, the relative error and observed
order, and the check's class (``check_class``).  It prints the path of the
``oscoul`` package it ran, which is the one on ``PYTHONPATH`` (``src`` of this
checkout when none is importable), so pointing ``PYTHONPATH`` at another
checkout's ``src`` digests that code on the same probe.

``--compare`` prints, for each class, its count in both digests, then the
transitions between the digests: fail -> pass, pass -> fail, exit 2 ->
answer and answer -> exit 2, and every move between two classes.  It exits
0 when both digests hold the same checks and no check went from pass to
fail.  Pytest does not collect this file; the Tier-1 near-flat and lam < 0
gate (``test_lambda_negative_gate.py``) takes its thinned grids from
``PROBES``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLAGS = ("eig_ok", "order_ok", "residual_ok", "pass")
CLASSES = ("pass", "order about 4", "residual", "accuracy or order", "exit 2")


class Channel(NamedTuple):
    """One ``verify`` channel of a probe: the model's name, its dimension,
    lam, strength (beta or Q) and angular number, and the states it checks."""

    model: str
    dim: float
    lam: float
    strength: float
    ang: float
    k: int

    def argv(self) -> list:
        dim, strength, ang = ("--d", "--beta", "--l") if self.model == "nlo" else ("--D", "--Q", "--L")
        return [
            "verify", "--model", self.model, dim, f"{self.dim:g}", "--lambda", f"{self.lam:g}",
            strength, f"{self.strength:g}", ang, f"{self.ang:g}", "--k", str(self.k),
        ]



def _near_flat(sign: float) -> list:
    """Item 13's channels on one side of lam = 0."""
    return [
        Channel(model, dim, sign * size, 1.0, ang, 3)
        for size in (1e-4, 1e-6, 1e-8, 1e-10)
        for model in ("clike", "nlo")
        for dim in (2, 3, 4)
        for ang in (0, 1)
    ]


PROBES = {
    "lam0_neg": _near_flat(-1.0),
    "lam0_pos": _near_flat(1.0),
    "nlo_neg": [
        Channel("nlo", d, lam, beta, l, 5)
        for lam in (-1e-4, -1e-3, -0.02, -0.1, -0.3, -1.0)
        for beta in (0.5, 1.0, 2.0)
        if beta * (beta + lam) > 0
        for d in (2, 3, 4)
        for l in (0, 1, 2)
    ],
}


def check_class(state) -> str:
    """The class of one check: its verify state, or None for a refused channel.
    A failure reads "order about 4" when its order exceeds 3 at a relative
    error below 1e-9 (ROADMAP item 3), "residual" when only the residual
    fails, and "accuracy or order" otherwise."""
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


def run_channel(channel: Channel, path: str):
    """(exit code, error line, verify states) of one channel run through
    ``cli.main``, writing its report to ``path``; the states are None when
    the channel is refused."""
    from oscoul import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*channel.argv(), "--out", path])
    if code == 2:
        return code, err.getvalue().strip(), None
    with open(path) as fh:
        return code, None, json.load(fh)["states"]


def digest(name: str, out_path: str) -> int:
    try:
        import oscoul
    except ImportError:
        sys.path.append(os.path.join(ROOT, "src"))
        import oscoul

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "verify.json")
        for channel in PROBES[name]:
            code, error, states = run_channel(channel, path)
            for n_r in range(channel.k):
                state = None if states is None else states[n_r]
                record = {"argv": " ".join(channel.argv()), "n_r": n_r, "exit": code}
                if state is None:
                    record["error"] = error
                else:
                    record.update({flag: state[flag] for flag in FLAGS})
                    record.update(
                        rel_error=state["rel_error"], observed_order=state["observed_order"]
                    )
                record["class"] = check_class(state)
                records.append(record)
    with open(out_path, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    counts = collections.Counter(rec["class"] for rec in records)
    print(f"{name}: {len(records)} checks of {os.path.dirname(oscoul.__file__)} -> {out_path}")
    for cls in CLASSES:
        print(f"  {cls}: {counts[cls]}")
    return 0


def compare(path_a: str, path_b: str) -> int:
    digests = []
    for path in (path_a, path_b):
        with open(path) as fh:
            digests.append({(rec["argv"], rec["n_r"]): rec["class"] for rec in json.load(fh)})
    a, b = digests
    problems = [f"only in {path_a}: {key}" for key in a if key not in b]
    problems += [f"only in {path_b}: {key}" for key in b if key not in a]
    shared = [key for key in a if key in b]
    ca, cb = collections.Counter(a.values()), collections.Counter(b.values())
    print(f"{'class':<20} {'A':>6} {'B':>6}")
    for cls in CLASSES:
        print(f"{cls:<20} {ca[cls]:>6} {cb[cls]:>6}")
    print(f"{'checks':<20} {len(a):>6} {len(b):>6}")
    moves = collections.Counter((a[key], b[key]) for key in shared if a[key] != b[key])
    transitions = {
        "fail -> pass": sum(n for (x, y), n in moves.items() if x != "pass" and y == "pass"),
        "pass -> fail": sum(n for (x, y), n in moves.items() if x == "pass" and y != "pass"),
        "exit 2 -> answer": sum(n for (x, y), n in moves.items() if x == "exit 2"),
        "answer -> exit 2": sum(n for (x, y), n in moves.items() if y == "exit 2"),
    }
    for what, n in transitions.items():
        print(f"{what}: {n}")
    for (x, y), n in sorted(moves.items()):
        print(f"  {x} -> {y}: {n}")
    for key in shared:
        if a[key] == "pass" and b[key] != "pass":
            problems.append(f"pass -> {b[key]}: {key[0]} n_r={key[1]}")
    for line in problems:
        print(line)
    print("no check went from pass to fail" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("probe", nargs="?", choices=sorted(PROBES), help="the probe to run")
    parser.add_argument("digest", nargs="?", help="write the probe's digest here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digests")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (args.probe and args.digest):
        parser.error("give a probe name and a digest path, or --compare A B")
    return digest(args.probe, args.digest)


if __name__ == "__main__":
    sys.exit(main())
