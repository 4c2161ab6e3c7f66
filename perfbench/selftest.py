"""Checker self-test: corrupted or failed jobs must count as failed ops.

    python3 perfbench/selftest.py

Runs a two-norm plan and a time-varying capacity job for real, confirms
their outputs pass, then feeds the same checks a plan.csv with one p above
p_rated, a plan.csv with one theta pushed out of the comfort band, a
truncated capacity.csv, a job that exits nonzero and a job that exceeds
its wall-clock cap.  Exits 0 only if each of the five counts as failed.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402


def rewrite_field(src: str, dst: str, row: int, column: str, value) -> None:
    with open(src, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index(column)
    fields = lines[row].split(",")
    fields[col] = repr(value(float(fields[col])))
    lines[row] = ",".join(fields)
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> int:
    bench = run.Run()
    work = os.path.join(run.WORK, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    expected = workloads.load_expected()
    plan_job = workloads.build("tracking", 0, os.path.join(work, "in"), expected).jobs[0]
    cap_jobs = workloads.build("capacity", 0, os.path.join(work, "in"), expected).jobs
    cap_job, paper_job = cap_jobs[0], cap_jobs[1]

    def spawn(job: workloads.Job, cap_s: float) -> tuple[object, str, str]:
        d = os.path.join(work, job.name)
        os.makedirs(d, exist_ok=True)
        out = os.path.join(d, "stdout.txt")
        res = runner.spawn(runner.cli_argv(["--out-dir", d, *job.args]), bench.env,
                           work, cap_s, out)
        return res.code, os.path.join(d, job.output), out

    code, plan_csv, plan_out = spawn(plan_job, 60.0)
    bench.record(plan_job, code, plan_csv, plan_out)
    code, cap_csv, cap_out = spawn(cap_job, 60.0)
    bench.record(cap_job, code, cap_csv, cap_out)
    if bench.failures:
        print("real jobs failed:", bench.failures)
        return 1

    cases = []
    bad = os.path.join(work, "p_above_rated.csv")
    rewrite_field(plan_csv, bad, 10, "p_kw", lambda v: v + 10.0)
    cases.append(("p above p_rated", plan_job, 0, bad, plan_out))
    bad = os.path.join(work, "theta_out_of_band.csv")
    rewrite_field(plan_csv, bad, 10, "theta_C", lambda v: 25.5)
    cases.append(("theta out of band", plan_job, 0, bad, plan_out))
    bad = os.path.join(work, "truncated_capacity.csv")
    with open(cap_csv, encoding="utf-8") as fh:
        text = fh.read()
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write(text[: len(text) // 2])
    cases.append(("truncated capacity.csv", cap_job, 0, bad, cap_out))
    broken = workloads.Job("nonzero-exit", ["capacity", "--config", "no-such-preset"],
                           "capacity.csv", 30.0, cap_job.check)
    code, csv_path, out = spawn(broken, 30.0)
    cases.append(("nonzero exit", broken, code, csv_path, out))
    code, csv_path, out = spawn(paper_job, 0.5)
    cases.append(("over-cap job", paper_job, code, csv_path, out))

    ok = True
    for label, job, code, csv_path, out in cases:
        before = len(bench.failures)
        bench.record(job, code, csv_path, out)
        counted = len(bench.failures) == before + 1
        reason = bench.failures[-1]["failure"] if counted else "passed"
        print(f"{'ok  ' if counted else 'FAIL'} {label}: {reason}")
        ok &= counted
    print(f"failed_ratio = {len(bench.failures)}/{bench.attempted}")
    shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
