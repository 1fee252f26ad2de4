"""Divergence-scan parity check: digest the verdicts of
``quadrature.norm_divergence_scan`` over the bound-state probe, or compare two
digests.

    PYTHONPATH=src python tests/scan_parity.py DIGEST.json
    python tests/scan_parity.py --compare BEFORE.json AFTER.json

The probe is ROADMAP item 14's, 3384 states: every n_r < 8 of clike with
D in {2, 2.5, 3, 4}, lam in {+-0.3, +-0.1, +-0.02}, Q in {0.5, 1, 2} and
L in {0, 1/2, 1, 3/2}; and of nlo with d in {2, 3, 4},
lam in {-0.3, -0.1, 0.05, 0.1, 0.3}, beta in {0.5, 1, 2} and l in {0, 1, 2}.
The first form scans each state against its model's measure and writes one
record per state: the verdict, or the class and message of the exception the
scan raised, and the model's ``is_bound``.  The package is imported from
``PYTHONPATH`` (``src`` of this checkout when it is not set), so pointing
``PYTHONPATH`` at another checkout's ``src`` digests that code against the
same probe; the summary line names the package it digested.

``--compare`` prints, for each digest, how its verdicts and raises split over
bound and unbound states; then each verdict that changed, each raise that
changed its class or message, and each move between a raise and a verdict.
It exits 0 when both digests hold the same states with the same ``is_bound``,
no verdict changed, no raise changed and no verdict became a raise; a raise
that became a verdict is listed as a move, marked by whether the verdict
agrees with ``is_bound``.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_R = range(8)
CLIKE = itertools.product(
    (2.0, 2.5, 3.0, 4.0), (-0.3, -0.1, -0.02, 0.02, 0.1, 0.3), (0.5, 1.0, 2.0), (0.0, 0.5, 1.0, 1.5)
)
NLO = itertools.product((2, 3, 4), (-0.3, -0.1, 0.05, 0.1, 0.3), (0.5, 1.0, 2.0), (0.0, 1.0, 2.0))


def _channels():
    """(name, model, angular number) of every probe channel."""
    from oscoul.models import CoulombLike, NonlinearOscillator

    for D, lam, Q, L in CLIKE:
        yield f"clike D={D:g} lam={lam:g} Q={Q:g} L={L:g}", CoulombLike(D=D, lam=lam, Q=Q), L
    for d, lam, beta, l in NLO:
        yield f"nlo d={d} lam={lam:g} beta={beta:g} l={l:g}", NonlinearOscillator(d, lam, beta), l


def digest(out_path: str) -> int:
    sys.path.append(os.path.join(ROOT, "src"))
    import oscoul
    from oscoul.models import QuantumNumbers, RadialState
    from oscoul.quadrature import measure_for, norm_divergence_scan

    records = {}
    for name, model, ang in _channels():
        mu = measure_for(model)
        for n_r in N_R:
            q = QuantumNumbers(n_r, ang)
            record = {"bound": model.is_bound(q)}
            try:
                record["verdict"] = norm_divergence_scan(RadialState(model, q), mu).value
            except Exception as exc:  # the digest records every outcome
                record["raises"] = f"{type(exc).__name__}: {exc}"
            records[f"{name} n_r={n_r}"] = record
    with open(out_path, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"{len(records)} states of {os.path.dirname(oscoul.__file__)} -> {out_path}")
    return 0


def _outcome(record) -> str:
    return record.get("verdict") or "raises " + record["raises"].split(":", 1)[0]


def summary(path: str, records: dict) -> list:
    counts = collections.Counter(
        ("bound" if rec["bound"] else "unbound", _outcome(rec)) for rec in records.values()
    )
    return [f"{path}: {len(records)} states"] + [
        f"  {side} {outcome}: {n}" for (side, outcome), n in sorted(counts.items())
    ]


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    problems, moves = [], []
    if a.keys() != b.keys():
        problems.append(f"the digests hold different states: {len(a)} vs {len(b)}")
    for key in a.keys() & b.keys():
        ra, rb = a[key], b[key]
        if ra["bound"] != rb["bound"]:
            problems.append(f"{key}: is_bound {ra['bound']} vs {rb['bound']}")
        if ra == rb:
            continue
        if "verdict" in ra and "verdict" in rb:
            problems.append(f"{key}: verdict {ra['verdict']} -> {rb['verdict']}")
        elif "raises" in ra and "raises" in rb:
            problems.append(f"{key}: raise {ra['raises']!r} -> {rb['raises']!r}")
        elif "verdict" in ra:
            problems.append(f"{key}: verdict {ra['verdict']} -> raises {rb['raises']!r}")
        else:
            expected = "converges" if rb["bound"] else "diverges"
            tag = "agrees with" if rb["verdict"] == expected else "disagrees with"
            moves.append(f"{key}: raises {ra['raises']!r} -> {rb['verdict']} ({tag} is_bound)")
    for line in summary(path_a, a) + summary(path_b, b):
        print(line)
    for line in sorted(problems) + sorted(moves):
        print(line)
    print(f"{len(moves)} raises became verdicts")
    print("agree" if not problems else f"{len(problems)} disagreements")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("digest", nargs="?", help="write the digest of this checkout here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digests")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.digest:
        parser.error("give a digest path or --compare A B")
    return digest(args.digest)


if __name__ == "__main__":
    sys.exit(main())
