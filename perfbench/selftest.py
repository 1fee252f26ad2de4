"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py        (from the root of an oscoul checkout)

* Runs every workload at minimum size (one operation), untraced and traced,
  and checks that each metric named in BENCHMARK.json is printed with its unit.
* Checks that a deliberately wrong answer lowers pass_frac, and that an
  operation that raises lowers answer_frac and counts as failed.
* Checks that the benchmark refuses to run, printing no result, in a
  directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--max-ops", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def metrics_emitted(spec):
    named = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            check(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr[-300:]})")
            lines = proc.stdout.strip().splitlines()
            final, report = json.loads(lines[-1]), json.loads(lines[-2])
            check(set(final) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace={trace} result keys")
            check(final["correct"] and final["attempted"] >= 1, f"{workload} trace={trace} correct")
            got = {k: v["unit"] for k, v in final["metrics"].items()}
            check(got == named[trace], f"{workload} trace={trace} prints every metric with its unit")
            if trace:
                checks = report["trace_checks"]
                if workload != "oracle_sweep":
                    check(checks["eigensolve_calls"] == 0, f"{workload} never calls the eigensolve")
                check("tracing_overhead_s" in final["metrics"], f"{workload} reports tracing overhead")


def wrong_answer_counted():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import cases
    import operations
    import worker

    tmp = os.path.join(ROOT, ".perfbench", "selftest")
    os.makedirs(tmp, exist_ok=True)
    ctx = operations.Context(tmp, dict(os.environ))
    case = next(c for c in cases.generate("closed_form_analysis", 1)[0] if c["op"] == "bound_states")
    good = worker.one_op(case, ctx)
    real_run = operations.run
    try:
        operations.run = lambda c, x: real_run(c, x)[:-1]  # drop one bound state
        wrong = worker.one_op(case, ctx)
        operations.run = lambda c, x: 1 / 0
        raised = worker.one_op(case, ctx)
    finally:
        operations.run = real_run
    for rec in (good, wrong, raised):
        rec["reference"] = 1.0  # summarize scales latencies by the reference loop's time
    summary = worker.summarize([good, wrong, raised])
    check(good["passed"] and not wrong["passed"] and not wrong["consistent"],
          "a wrong answer fails its check")
    check(abs(summary["metrics"]["pass_frac"][0] - 1 / 3) < 1e-12, "pass_frac counts the wrong answer")
    check(abs(summary["metrics"]["answer_frac"][0] - 2 / 3) < 1e-12 and summary["failed"] == 1,
          "an exception counts as no answer")
    shutil.rmtree(tmp)


def refuses_bare_directory():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("closed_form_analysis", 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run without src/oscoul")
    shutil.rmtree(bare)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wrong_answer_counted()
    refuses_bare_directory()
    metrics_emitted(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
