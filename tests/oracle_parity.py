"""Oracle parity check: digest the ``oscoul verify`` answers of the benchmark's
oracle_sweep cases, or compare two digests.

    PYTHONPATH=src python tests/oracle_parity.py DIGEST.json
    python tests/oracle_parity.py --compare BEFORE.json AFTER.json

The first form runs, in process, every distinct ``verify`` argument list that
``perfbench/cases.py`` generates for oracle_sweep at seeds 1-20 (built by
``perfbench/operations.verify_argv``) and writes one record per case: the
exit code, the error message of a usage error, every pass/eig_ok/order_ok/
residual_ok flag, and ``float.hex`` of each state's reference, eigenvalues,
extrapolation, relative error, observed order and residual, and the case's
``dlarrk`` work: its number of calls and its N * halvings, the Sturm counts
of N rows that each call makes, replayed from the call's interval and
answer with ``dlarrk``'s stopping rule.  The package is
imported from ``PYTHONPATH`` (``src`` of this checkout when it is not set),
so pointing ``PYTHONPATH`` at another checkout's ``src`` digests that code
against the same cases.

``--compare`` exits 0 when both digests hold the same cases and agree on
every field but ``residual`` bit for bit, and every residual of both stays at
or below 1e-9; it prints each disagreement and a residual summary otherwise.
It also prints, for each class of case, named by the case's model (weighted:
nlo and clike; flat: pdm-osc and pdm-coulomb; Euclidean: osc and coulomb),
the passing states of each digest, the number of flipped pass flags and the largest
relative eigenvalue move, the ``dlarrk`` calls and the N * halvings of
each digest; those two are work counts, never disagreements.  Pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 21)
RESIDUAL_BOUND = 1e-9
STATE_VALUES = ("reference", "extrapolated", "rel_error", "observed_order", "residual")
STATE_FLAGS = ("eig_ok", "order_ok", "residual_ok", "pass")
WORK = ("dlarrk_calls", "n_halvings")
_EPS = 2.0**-52  # LAPACK's dlamch('P')


def halvings(n: int, lo: float, hi: float, pivmin: float, reltol: float, w: float) -> int:
    """The bisection steps ``dlarrk`` takes from (lo, hi) to its answer w.

    It widens the interval by 2 (N eps max(|lo|, |hi|) + 2 pivmin) on each
    side, then halves it, keeping the half that holds w, until its width is
    below max(4 pivmin, pivmin, reltol * max(|left|, |right|)) or the step
    count passes log2(||T|| / pivmin) + 2.  The replay keeps the half that
    holds the answer where ``dlarrk`` keeps the one its Sturm count picks, so
    the two can differ in the last halving, a few ulp from w.
    """
    tnorm = max(abs(lo), abs(hi))
    atoli = 4.0 * pivmin
    left = lo - 2.0 * tnorm * _EPS * n - atoli
    right = hi + 2.0 * tnorm * _EPS * n + atoli
    itmax = int((math.log(tnorm + pivmin) - math.log(pivmin)) / math.log(2.0)) + 2
    steps = 0
    while steps <= itmax and abs(right - left) >= max(
        atoli, pivmin, reltol * max(abs(left), abs(right))
    ):
        steps += 1
        mid = 0.5 * (left + right)
        if w < mid:
            right = mid
        else:
            left = mid
    return steps


@contextlib.contextmanager
def count_dlarrk():
    """Count the ``dlarrk`` calls made inside the block and their N * halvings,
    in the dict this yields, by wrapping the kernel's bound routine."""
    from oscoul import kernels

    work = dict.fromkeys(WORK, 0)
    bound = kernels._lapack
    real = bound()

    def spy(n, index, lo, hi, diag, e2, pivmin, reltol, w, werr, info):
        real(n, index, lo, hi, diag, e2, pivmin, reltol, w, werr, info)
        size = n._obj.value
        work["dlarrk_calls"] += 1
        work["n_halvings"] += size * halvings(
            size, lo._obj.value, hi._obj.value, pivmin._obj.value, reltol._obj.value,
            w._obj.value,
        )

    kernels._lapack = lambda: spy
    try:
        yield work
    finally:
        kernels._lapack = bound


def _hex(value) -> str:
    return float(value).hex()


def _cases():
    """The distinct verify argument lists, without the output path, in first-seen order."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.path.append(os.path.join(ROOT, "src"))
    import cases
    import operations

    seen = {}
    for seed in SEEDS:
        for case in cases.generate("oracle_sweep", seed)[0]:
            argv = operations.verify_argv(case, "OUT")
            i = argv.index("--out")
            seen.setdefault(tuple(argv[:i] + argv[i + 2 :]), None)
    return list(seen)


def _digest_one(argv, path) -> dict:
    from oscoul import cli

    if os.path.exists(path):
        os.remove(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), count_dlarrk() as work:
        code = cli.main([*argv, "--out", path])
    record = {"argv": " ".join(argv), "exit": code, **work}
    if code == 2:
        record["error"] = err.getvalue().strip()
        return record
    with open(path) as fh:
        report = json.load(fh)
    record["pass"] = report["pass"]
    record["states"] = [
        {
            **{flag: st[flag] for flag in STATE_FLAGS},
            **{key: _hex(st[key]) for key in STATE_VALUES},
            "eigenvalues": [_hex(v) for v in st["eigenvalues"]],
        }
        for st in report["states"]
    ]
    return record


def digest(out_path: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "verify.json")
        records = [_digest_one(argv, path) for argv in _cases()]
    with open(out_path, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    codes = {}
    for rec in records:
        codes[rec["exit"]] = codes.get(rec["exit"], 0) + 1
    total = {key: sum(rec[key] for rec in records) for key in WORK}
    print(
        f"{len(records)} cases, exit codes {dict(sorted(codes.items()))}, "
        f"{total['dlarrk_calls']} dlarrk calls, {total['n_halvings']} N*halvings -> {out_path}"
    )
    return 0


def _class(argv: str) -> str:
    model = argv.split()[2]
    if model in ("osc", "coulomb"):
        return "euclidean"
    return "flat" if model.startswith("pdm-") else "weighted"


def class_summary(a: dict, b: dict) -> list:
    """One line per class of the cases in both digests with the same state count."""
    stats = {}
    for argv in (argv for argv in a if argv in b):
        sa, sb = a[argv].get("states", []), b[argv].get("states", [])
        if len(sa) != len(sb):
            continue
        st = stats.setdefault(
            _class(argv),
            dict(cases=0, states=0, pa=0, pb=0, flips=0, move=0.0, ca=0, cb=0, wa=0, wb=0),
        )
        st["cases"] += 1
        st["ca"] += a[argv].get("dlarrk_calls", 0)
        st["cb"] += b[argv].get("dlarrk_calls", 0)
        st["wa"] += a[argv].get("n_halvings", 0)
        st["wb"] += b[argv].get("n_halvings", 0)
        for xa, xb in zip(sa, sb):
            st["states"] += 1
            st["pa"] += xa["pass"]
            st["pb"] += xb["pass"]
            st["flips"] += xa["pass"] != xb["pass"]
            for ea, eb in zip(xa["eigenvalues"], xb["eigenvalues"]):
                ea, eb = float.fromhex(ea), float.fromhex(eb)
                st["move"] = max(st["move"], abs(eb - ea) / abs(ea))
    return [
        f"{cls}: {st['cases']} cases, {st['pa']} -> {st['pb']} of {st['states']} states pass, "
        f"{st['flips']} pass flags flipped, largest relative eigenvalue move {st['move']:.1e}, "
        f"dlarrk calls {st['ca']} -> {st['cb']} ({_change(st['ca'], st['cb'])}), "
        f"N*halvings {st['wa']} -> {st['wb']} ({_change(st['wa'], st['wb'])})"
        for cls, st in sorted(stats.items())
    ]


def _change(before: int, after: int) -> str:
    return f"{100.0 * (after - before) / before:+.1f} %" if before else "n/a"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = {rec["argv"]: rec for rec in json.load(fh)}
    with open(path_b) as fh:
        b = {rec["argv"]: rec for rec in json.load(fh)}
    res_a, res_b = (
        [float.fromhex(st["residual"]) for rec in d.values() for st in rec.get("states", [])]
        for d in (a, b)
    )
    summary = class_summary(a, b)
    problems = [f"only in {path_a}: {argv}" for argv in a if argv not in b]
    problems += [f"only in {path_b}: {argv}" for argv in b if argv not in a]
    moved = 0
    for argv in (argv for argv in a if argv in b):
        ra, rb = ({k: v for k, v in rec.items() if k not in WORK} for rec in (a[argv], b[argv]))
        sa, sb = ra.pop("states", []), rb.pop("states", [])
        if ra != rb or len(sa) != len(sb):
            problems.append(f"{argv}: {ra} with {len(sa)} states vs {rb} with {len(sb)}")
            continue
        for j, (xa, xb) in enumerate(zip(sa, sb)):
            for key in xa:
                if key == "residual":
                    moved += xa[key] != xb[key]
                elif xa[key] != xb[key]:
                    problems.append(f"{argv}: n_r={j} {key} {xa[key]} vs {xb[key]}")
    for path, residuals in ((path_a, res_a), (path_b, res_b)):
        worst = max(residuals, default=0.0)
        print(f"{path}: {len(residuals)} states, largest residual {worst:.2e}")
        if worst > RESIDUAL_BOUND:
            problems.append(f"{path}: a residual exceeds {RESIDUAL_BOUND:g}")
    print(f"residual differs in {moved} states")
    for key in WORK:
        before = sum(rec.get(key, 0) for rec in a.values())
        after = sum(rec.get(key, 0) for rec in b.values())
        print(f"{key}: {before} -> {after} ({_change(before, after)})")
    for line in problems + summary:
        print(line)
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
