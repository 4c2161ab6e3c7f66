"""End-to-end benchmark of the vesflex CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the root of a checkout.  Inputs are generated from --seed into
.perfbench_work/ and the program, imported from the checkout's src/, sees
only those files.  Every job's output is checked; a job fails on an
unexpected exit code, on exceeding its wall-clock cap or on a failed check.

--trace 0 spawns real CLI processes one after another (one client, a closed
loop) and reports the end-to-end metrics.  It runs whole passes over the
workload's fixed job list and starts another pass only while one more pass
and the closing set-up samples still fit in --seconds, counted from the
start of the run; at least one pass always runs.  Set-up samples fill what
is left.
--trace 1 runs one pass in-process untraced and one traced (tracing.py) and
reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it holds the details: the
environment, input digests and every job's outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")
# every run exits well inside three minutes, whatever the program does
RUN_DEADLINE_S = 165.0
# set-up samples: this many before the passes, one after each pass, this many
# again after the last one, and more while the run still has time
SETUP_REPS_BEFORE = 4
SETUP_REPS_MAX = 40
IMPORT_REPS = 5

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; "
    "t1 = time.perf_counter(); import vesflex.cli; "
    "print(time.perf_counter() - t1)"
)


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    sha = None
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        sha = got.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "pinned_threads": runner.PINNED_THREADS,
        "loadavg_start": os.getloadavg(),
    }


class Run:
    """Job outcomes of one benchmark run, and its deadline."""

    def __init__(self) -> None:
        self.t_start = time.perf_counter()
        self.env = runner.child_env(ROOT)
        self.attempted = 0
        self.failures: list[dict] = []
        self.jobs_log: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def remaining(self) -> float:
        return RUN_DEADLINE_S - self.elapsed()

    def record(self, job: workloads.Job, code, csv_path: str, out_path: str,
               **extra) -> None:
        """Count one attempted job, and a failure if it has one."""
        self.attempted += 1
        reason = None
        if code is None:
            reason = "timeout"
        elif code != 0:
            reason = f"exit code {code}"
        else:
            try:
                job.check(csv_path, out_path)
            except checks.CheckFailed as exc:
                reason = f"check: {exc}"
        entry = {"job": job.name, "code": code, **extra}
        if reason is not None:
            entry["failure"] = reason
            self.failures.append(entry)
        self.jobs_log.append(entry)

    def spawn_reps(self, argv: list[str], reps: int) -> list[runner.Spawned]:
        return [runner.spawn(argv, self.env, WORK, min(30.0, self.remaining()))
                for _ in range(reps)]


def job_dirs(base: str, jobs: list[workloads.Job]) -> list[str]:
    dirs = []
    for i, job in enumerate(jobs):
        d = os.path.join(base, f"{i:02d}-{job.name}")
        os.makedirs(d, exist_ok=True)
        dirs.append(d)
    return dirs


def run_end_to_end(run: Run, jobs: list[workloads.Job], seconds: float) -> dict:
    help_argv = runner.cli_argv(["--help"])
    run.spawn_reps(help_argv, 1)  # warm the bytecode cache and page cache
    # set-up samples before, between and after the passes, so that their
    # median spans the run instead of one stretch of the machine's speed
    setup = run.spawn_reps(help_argv, SETUP_REPS_BEFORE)
    setup_reserve = sum(s.wall_s for s in setup)
    pass_walls, pass_cpus, job_walls, rss = [], [], [], []
    n_pass = 0
    while True:
        base = os.path.join(WORK, "out", f"pass{n_pass}")
        dirs = job_dirs(base, jobs)
        outcomes = []
        t0 = time.perf_counter()
        for job, d in zip(jobs, dirs):
            res = runner.spawn(
                runner.cli_argv(["--out-dir", d, *job.args]), run.env, WORK,
                max(0.1, min(job.cap_s, run.remaining())),
                os.path.join(d, "stdout.txt"),
            )
            outcomes.append(res)
        pass_wall = time.perf_counter() - t0
        for job, d, res in zip(jobs, dirs, outcomes):
            run.record(job, res.code, os.path.join(d, job.output),
                       os.path.join(d, "stdout.txt"), pass_=n_pass,
                       wall_s=res.wall_s, cpu_s=res.cpu_s, rss_mb=res.rss_mb)
        shutil.rmtree(base)
        pass_walls.append(pass_wall)
        pass_cpus.append(sum(r.cpu_s for r in outcomes))
        job_walls.extend(r.wall_s for r in outcomes)
        rss.extend(r.rss_mb for r in outcomes)
        n_pass += 1
        setup += run.spawn_reps(help_argv, 1)
        if run.elapsed() + pass_wall + setup_reserve > seconds or pass_wall > run.remaining():
            break
    setup += run.spawn_reps(help_argv, SETUP_REPS_BEFORE)
    mean_setup = statistics.fmean(s.wall_s for s in setup)
    while (len(setup) < SETUP_REPS_MAX
           and run.elapsed() + mean_setup < min(seconds, run.remaining())):
        setup += run.spawn_reps(help_argv, 1)
    jobs_sorted = sorted(job_walls)
    tail = {}
    if len(jobs_sorted) >= 20:
        # the highest percentile with at least ten jobs beyond it
        q = 1.0 - 10.0 / len(jobs_sorted)
        tail = {"job_tail_percentile": round(100 * q, 1),
                "job_tail_s": jobs_sorted[int(q * len(jobs_sorted)) - 1]}
    detail = {"passes": n_pass, "jobs_per_pass": len(jobs),
              "setup_samples_s": [s.wall_s for s in setup], **tail}
    # wall and CPU time per pass are means, not medians: the machine's speed
    # drifts over tens of seconds, and the mean spans every pass of the run
    metrics = {
        "setup_s": statistics.median(s.wall_s for s in setup),
        "wall_s": statistics.fmean(pass_walls),
        "job_p50_s": statistics.median(job_walls),
        "cpu_s": statistics.fmean(pass_cpus),
        "peak_rss_mb": max(rss),
        "ok_ratio": (run.attempted - len(run.failures)) / run.attempted,
    }
    return {"metrics": metrics, "detail": detail}


def run_traced(run: Run, jobs: list[workloads.Job]) -> dict:
    probes = []
    for _ in range(IMPORT_REPS):
        got = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=run.env,
                             cwd=WORK, capture_output=True, text=True,
                             timeout=max(1.0, min(30.0, run.remaining())), check=True)
        probes.append(float(got.stdout.strip()))
    passes = {}
    for label in ("untraced", "traced"):
        dirs = job_dirs(os.path.join(WORK, "out", label), jobs)
        passes[label] = [
            {"argv": ["--out-dir", d, *job.args], "output": os.path.join(d, "stdout.txt")}
            for job, d in zip(jobs, dirs)
        ]
    spec_path = os.path.join(WORK, "trace_spec.json")
    result_path = os.path.join(WORK, "trace_result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"root": ROOT, **passes}, fh)
    child = runner.spawn(
        [sys.executable, os.path.join(HERE, "tracing.py"), spec_path, result_path],
        run.env, WORK, max(1.0, run.remaining()), os.path.join(WORK, "trace_child.txt"),
    )
    if child.code != 0:
        # no spans to report: every job of both passes counts as failed
        for label, spec in passes.items():
            for job, js in zip(jobs, spec):
                run.record(job, child.code, "", js["output"], trace_pass=label)
        return {"metrics": {name: 0 for name, *_ in tracing.LAYER_METRICS},
                "detail": {"trace_child": "timeout" if child.code is None
                           else f"exit code {child.code}"}}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    expected_src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(result["vesflex_file"]).startswith(expected_src):
        raise SystemExit(f"traced run imported vesflex from {result['vesflex_file']}")
    for label, spec in passes.items():
        for job, js, (code, wall) in zip(jobs, spec, result[label]):
            d = os.path.dirname(js["output"])
            run.record(job, code, os.path.join(d, job.output), js["output"],
                       trace_pass=label, wall_s=wall)
    metrics = tracing.layer_metrics(result, statistics.median(probes))
    return {"metrics": metrics,
            "detail": {"missing_boundaries": result["missing"],
                       "spans": len(result["spans"]),
                       "import_samples_s": probes}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vesflex", "cli.py")):
        print(f"no vesflex sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    run = Run()
    env = environment()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    built = workloads.build(args.workload, args.seed, os.path.join(WORK, "inputs"),
                            workloads.load_expected())
    if args.trace:
        out = run_traced(run, built.jobs)
    else:
        out = run_end_to_end(run, built.jobs, args.seconds)
    shutil.rmtree(os.path.join(WORK, "out"), ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    metrics = out["metrics"]
    if args.trace:
        units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
    else:
        units = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "cpu_s": "s",
                 "peak_rss_mb": "MB", "ok_ratio": "ratio"}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "input_digests": built.digests,
              "failures": run.failures, "jobs": run.jobs_log, **out["detail"]}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
