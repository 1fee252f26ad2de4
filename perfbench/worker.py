"""The measured process of one benchmark run; ``run.py`` starts it.

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE MAX_OPS OUTDIR [--setup-only]

Set-up is interpreter start, ``import oscoul.cli`` and case generation; the
worker prints ``READY`` when it is done, so the parent can time it.  Then it
runs whole passes of the case list, one operation at a time (closed loop,
one client), until the operations have taken SECONDS at the reference speed
(see reference.py), and prints one JSON line with the per-operation summary.

With TRACE 1 it first runs untraced, then replays the same operations with
the layer tracer installed, then runs the fixed-size layer probes.
"""

import math
import sys
import time


def main(argv) -> int:
    workload, seed, seconds, trace, max_ops, outdir = argv[:6]
    import oscoul.cli  # noqa: F401  (part of set-up)

    import cases

    plan = cases.generate(workload, int(seed))
    print("READY", flush=True)
    if "--setup-only" in argv:
        return 0
    result = measure_run(workload, int(seed), plan, float(seconds), trace == "1", int(max_ops), outdir)
    import json

    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


def measure_run(workload, seed, plan, seconds, traced, max_ops, outdir) -> dict:
    import os
    import resource

    import operations

    env = dict(os.environ)
    ctx = operations.Context(os.path.join(outdir, "tmp"), env)
    os.makedirs(ctx.tmpdir, exist_ok=True)
    # the traced run measures half as long, cutting passes, to stay affordable
    records = run_ops(plan, ctx, seconds / 2 if traced else seconds, max_ops, whole=not traced)
    out = summarize(records)
    out["cases"] = [plan[p][i] for p, i in sorted({r["key"] for r in records})]
    if not traced:
        kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        out["metrics"]["peak_rss_mb"] = (kib / 1024.0, "MB")
        return out
    from tracer import EIGENSOLVE, Tracer

    ctx.tracer = Tracer()
    ctx.tracer.install()
    try:
        traced_records = run_ops(plan, ctx, seconds, max_ops, replay=[r["key"] for r in records])
    finally:
        ctx.tracer.uninstall()
    traced_sum = summarize(traced_records)
    ctx.tracer.write(os.path.join(outdir, f"spans-{workload}-seed{seed}.json"))
    states = sum(plan[p][i].get("k", 0) for p, i in (r["key"] for r in traced_records)
                 if plan[p][i]["op"] == "verify")
    metrics = ctx.tracer.layer_metrics(states)
    # at the reference speed: raw times of the two phases differ with the CPU's speed
    busy_u = sum(map(scaled_latency, records))
    busy_t = sum(map(scaled_latency, traced_records))
    metrics["tracing_overhead_s"] = (busy_t - busy_u, "s")
    texts = ctx.import_texts if workload == "cli_calls" else importtime_texts(env)
    metrics.update(import_metrics(texts))
    probe_metrics, probes_ok = run_probes()
    metrics.update(probe_metrics)
    shares = ctx.tracer.self_time_shares()
    eig = sum(shares.get(name, 0.0) for name in EIGENSOLVE)
    others = [s for name, s in shares.items() if name not in EIGENSOLVE]
    traced_sum["metrics"] = metrics
    traced_sum["consistent"] = traced_sum["consistent"] and out["consistent"] and probes_ok
    traced_sum["cases"] = out["cases"]
    traced_sum["absent"] = ctx.tracer.absent
    traced_sum["trace_checks"] = {
        "eigensolve_self_share": eig,
        "eigensolve_largest_self_share": eig > max(others, default=0.0),
        "eigensolve_calls": sum(metrics.get(f"{n}.calls", (0, ""))[0] for n in EIGENSOLVE),
        "tracing_overhead_reported": "tracing_overhead_s" in metrics,
        "untraced_busy_s": busy_u,
        "traced_busy_s": busy_t,
        "reference_s": [out["reference_s"], traced_sum["reference_s"]],
    }
    return traced_sum


def run_ops(plan, ctx, seconds, max_ops, whole=True, replay=None):
    """Closed loop, one operation at a time, over the passes of ``plan`` until
    the operations took ``seconds`` (or ``max_ops`` ran); with ``replay``, run
    exactly those (pass, case) keys."""
    from reference import SpeedSampler, reference_seconds

    records = []
    ref_before = reference_seconds()
    for key in replay if replay is not None else _schedule(plan, seconds, records, whole):
        ctx.op = len(records)
        if ctx.tracer is not None:
            ctx.tracer.op = ctx.op
        case = plan[key[0]][key[1]]
        sampler = SpeedSampler() if case["op"] != "cli" else None
        rec = one_op(case, ctx, sampler)
        ref_after = reference_seconds()
        refs = [ref_before, *(sampler.samples if sampler else []), ref_after]
        rec["key"] = key
        rec["reference"] = sum(refs) / len(refs)
        ref_before = ref_after
        records.append(rec)
        if max_ops and len(records) >= max_ops:
            break
    return records


def scaled_latency(rec) -> float:
    """An operation's latency at the reference speed (see reference.py)."""
    from reference import NOMINAL_S

    return rec["latency"] * NOMINAL_S / rec["reference"]


def _schedule(plan, seconds, records, whole):
    """(pass, case) keys until the operations recorded so far took ``seconds``
    at the reference speed, so that a run does the same work however fast the
    CPU runs; with ``whole`` a pass is never cut, so every run measures the
    same mix."""
    p = 0
    while True:
        for i in range(len(plan[p % len(plan)])):
            yield p % len(plan), i
            if not whole and sum(map(scaled_latency, records)) >= seconds:
                return
        p += 1
        if sum(map(scaled_latency, records)) >= seconds:
            return


def one_op(case, ctx, sampler=None) -> dict:
    """Run and check one case.  With a ``SpeedSampler``, the operation runs
    inside it and the sampler's own time is taken out of its latency."""
    import contextlib

    import operations

    with sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            answer = operations.run(case, ctx)
        except Exception as exc:  # any failure inside the program is "no answer"; record it
            answer = exc
        latency = time.perf_counter() - t0
    latency -= sampler.spent if sampler else 0.0
    if isinstance(answer, Exception):
        return {"latency": latency, "answered": False, "consistent": True, "passed": False,
                "error": f"{type(answer).__name__}: {answer}"}
    try:
        consistent, passed = operations.check(case, answer)
    except (OSError, ValueError, KeyError, IndexError, TypeError):  # output missing or malformed
        consistent = passed = False
    return {"latency": latency, "answered": True, "consistent": consistent, "passed": passed}


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples above it;
    100 (the maximum) when that percentile would lie below the median, that
    is with fewer than 20 samples."""
    p = math.floor(100 * (n - 10) / n)
    return 100 if p < 50 else p


def timing_metrics(latencies) -> dict:
    import statistics

    lat = sorted(latencies)
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (lat[math.ceil(tail_percentile(len(lat)) * len(lat) / 100) - 1] * 1e3, "ms"),
    }


def summarize(records) -> dict:
    """Metrics of a list of operation records.  Times are scaled to the
    reference speed (see reference.py); the raw wall-clock ones go to "raw"."""
    import statistics

    n = len(records)
    p_tail = tail_percentile(n)
    scaled = [scaled_latency(r) for r in records]
    return {
        "attempted": n,
        "failed": sum(not r["answered"] for r in records),
        "consistent": all(r["consistent"] for r in records),
        "tail": {"percentile": p_tail, "samples": n, "beyond": n - math.ceil(p_tail * n / 100)},
        "errors": [r["error"] for r in records if "error" in r],
        "raw": {k: v for k, (v, _) in timing_metrics([r["latency"] for r in records]).items()},
        "reference_s": statistics.median(r["reference"] for r in records),
        "metrics": {
            **timing_metrics(scaled),
            "pass_frac": (sum(r["passed"] for r in records) / n, "fraction"),
            "answer_frac": (sum(r["answered"] for r in records) / n, "fraction"),
        },
    }


def importtime_texts(env, launches=3):
    """``-X importtime`` output of fresh interpreters importing ``oscoul.cli``."""
    import subprocess

    return [
        subprocess.run([sys.executable, "-X", "importtime", "-c", "import oscoul.cli"], env=env,
                       capture_output=True, text=True, timeout=60).stderr
        for _ in range(launches)
    ]


def import_metrics(texts) -> dict:
    import statistics

    from tracer import IMPORT_PACKAGES, parse_importtime

    parsed = [parse_importtime(t) for t in texts]
    return {f"import.{pkg}_s": (statistics.median(p[pkg] for p in parsed), "s")
            for pkg in IMPORT_PACKAGES}


def _median_time(fn, budget=1.0, max_reps=200):
    import statistics

    times, spent = [], 0.0
    while len(times) < max_reps and (not times or spent < budget):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return statistics.median(times), result


def run_probes():
    """Fixed-size layer timings, untraced; and whether their answers are right."""
    import closed_forms as cf
    from oscoul import models, oracle, quadrature

    spec = {"model": "nlo", "d": 2, "lam": -0.1, "beta": 1.0}
    model = models.NonlinearOscillator(d=2, lam=-0.1, beta=1.0)
    problem = oracle.build_problem(model, 1.0, n_states=3)
    exact = [2.0 * cf.energy(spec, n, 1.0) for n in range(3)]
    out, ok = {}, True
    for N in (512, 2048, 8192):
        op = oracle.discretize(problem, N)
        t, eig = _median_time(lambda: oracle.lowest_eigenvalues(op, 3))
        out[f"probe.eigensolve_N{N}_s"] = (t, "s")
        ok &= all(abs(e - x) <= 1e-3 * abs(x) for e, x in zip(eig, exact))
    t, _ = _median_time(lambda: oracle.discretize(problem, 8192))
    out["probe.discretize_N8192_s"] = (t, "s")
    t, (nodes, weights) = _median_time(lambda: quadrature.gauss_legendre(24, -1.0, 1.0))
    out["probe.gauss_legendre24_s"] = (t, "s")
    ok &= abs(sum(weights) - 2.0) <= 1e-13 and abs(sum(w * x**46 for x, w in zip(nodes, weights)) - 2 / 47) <= 1e-13
    clike = {"model": "clike", "D": 3.0, "lam": 0.002, "Q": 1.0}
    t, states = _median_time(lambda: models.clike_bound_states(models.CoulombLike(D=3.0, lam=0.002, Q=1.0)))
    out["probe.clike_bound_states_lam0.002_s"] = (t, "s")
    ok &= [(q.n_r, int(q.ang)) for q in states] == cf.clike_bound_set(clike)
    return out, bool(ok)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
