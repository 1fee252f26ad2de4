"""Benchmark of the oscoul package: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a separate traced run (see perfbench/NOTES.md).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it is a report with the environment, the
generated case list and the checks made.  Results and spans are also saved
under .perfbench/ in the checkout.  Exits 2 without a result when the
checkout has no src/oscoul.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_S, pin_to_one_cpu, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oracle_sweep", "closed_form_analysis", "cli_calls")
# Set-up-only interpreters launched before and after the measured worker, so
# that the median set-up time spans the run rather than one moment of it.
SETUP_BEFORE, SETUP_AFTER = 4, 4
RUN_TIMEOUT_S = 170.0
OUT_DIR = ".perfbench"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=0,
                    help="stop after this many operations (harness self-test); 0 = no limit")
    return ap.parse_args(argv)


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(root, env, cpu) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "from oscoul import kernels; print(getattr(kernels, 'backend', lambda: None)())"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    commit = None
    if os.path.exists(os.path.join(root, ".git")):  # not a git repository: no commit to record
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "oscoul")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernels_backend": probe.stdout.strip() if probe.returncode == 0 else None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def launch(args, env, outdir, deadline, setup_only=False):
    """Start a worker; return (set-up seconds, its result or None)."""
    cmd = [sys.executable]
    cmd += [os.path.join(HERE, "worker.py"), args.workload, str(args.seed), repr(args.seconds),
            str(args.trace), str(args.max_ops), outdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time")
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}):\n{first}{out}{err}")
    result = None if setup_only else json.loads(out.strip().splitlines()[-1])
    return setup, result


def scaled_setup(args, env, outdir, deadline) -> float:
    """Set-up time of a set-up-only launch, scaled to the reference speed."""
    before = reference_seconds()
    setup, _ = launch(args, env, outdir, deadline, setup_only=True)
    return setup * NOMINAL_S / (0.5 * (before + reference_seconds()))


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "oscoul", "__init__.py")):
        print("perfbench: run from the root of an oscoul checkout (no src/oscoul here)",
              file=sys.stderr)
        return 2
    outdir = os.path.join(root, OUT_DIR)
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    env_info = environment(root, env, pin_to_one_cpu())
    try:
        if args.trace:
            _, result = launch(args, env, outdir, deadline)
            metrics = result["metrics"]
        else:
            launch(args, env, outdir, deadline, setup_only=True)  # warm-up: bytecode and page caches
            setups = [scaled_setup(args, env, outdir, deadline) for _ in range(SETUP_BEFORE)]
            worker_setup, result = launch(args, env, outdir, deadline)
            setups += [scaled_setup(args, env, outdir, deadline) for _ in range(SETUP_AFTER)]
            metrics = dict(result["metrics"])
            metrics["setup_s"] = (statistics.median(setups), "s")
            result["raw"]["worker_setup_s"] = worker_setup
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    final = {
        "correct": bool(result["consistent"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_info,
        "tail": result["tail"],
        "raw": result["raw"],
        "reference_s": result["reference_s"],
        "errors": result["errors"],
        "absent": result.get("absent", []),
        "trace_checks": result.get("trace_checks"),
        "cases": result["cases"],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(outdir, name), "w") as fh:
        json.dump({"report": report, "result": final}, fh, indent=1)
    summary = {k: v for k, v in report.items() if k != "cases"}
    summary["cases_file"] = os.path.join(OUT_DIR, name)
    print(json.dumps(summary))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
