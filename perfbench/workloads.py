"""The four workloads: their job lists, generated inputs and output checks.

capacity  CLI `capacity` on the `paper` preset (constant weather, n = 600,
          one LP per direction and quantity) plus seeded time-varying
          buildings (n = 60, the 2*N-LP rate sweep).  battery and the dense
          simplex do nearly all the work; planner is idle.
tracking  one-shot CLI `plan` in the two-, one- and inf-norm on seeded
          time-varying 4-hour days (n = 240).  planner assembly and solver do
          nearly all the work; battery is idle.
rolling   CLI `plan --window 60 --norm two` over seeded 2.5-hour horizons
          (n = 150): hundreds of small QPs instead of one large one, so a
          solver that adds per-call set-up shows here.
light     every cheap subcommand on `paper`, plus `simulate` and `envelope`
          on a seeded one-week disturbance (n = 10080).  cli start-up, CSV
          I/O, thermal, qos, flexset, ensemble, deferrable and humidity are
          measured only here; solver never runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import checks
import gen

WORKLOADS = ("capacity", "tracking", "rolling", "light")

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_JSON = os.path.join(HERE, "expected.json")
EXPECTED_DIR = os.path.join(HERE, "expected")

# variants per pass
CAPACITY_VARIANTS = 3
TRACKING_VARIANTS = 3
ROLLING_VARIANTS = 3
ROLLING_WINDOW = 60
NORMS = ("two", "one", "inf")
ENVELOPE_DRAWS = 20
WEEK_ENVELOPE_DRAWS = 5

# Per-job wall-clock caps, seconds: about five times the seed-commit time,
# so a job that is killed shows as "timeout" instead of stalling the run.
CAP_PAPER_CAPACITY_S = 100.0
CAP_SOLVER_JOB_S = 30.0
CAP_LIGHT_JOB_S = 15.0


@dataclass
class Job:
    """One CLI invocation and the check of what it wrote.

    args excludes the global --out-dir, which the runner adds.  check gets
    the path of the CSV the job wrote and the path of its captured output.
    """

    name: str
    args: list[str]
    output: str
    cap_s: float
    check: Callable[[str, str], None]


@dataclass
class JobList:
    jobs: list[Job]
    digests: dict[str, str] = field(default_factory=dict)


def load_expected() -> dict:
    with open(EXPECTED_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def recorded(expected: dict, workload: str, index: int, digest: str) -> dict:
    """The values recorded at the seed commit for one pool variant."""
    rec = expected.get(workload, {}).get(str(index))
    if rec is None:
        raise checks.CheckFailed(f"{workload} variant {index}: nothing recorded")
    if rec["digest"] != digest:
        raise checks.CheckFailed(
            f"{workload} variant {index}: generated inputs differ from the recorded ones"
        )
    return rec


def _pool_inputs(workload: str, index: int, input_dir: str):
    b = gen.pool_building(workload, index)
    paths = gen.write_building(b, os.path.join(input_dir, f"{workload}_v{index:02d}"))
    return b, paths, gen.digest(list(paths.values()))


def _capacity_paper_check(csv_path: str, _out: str) -> None:
    checks.check_capacity_constant(
        csv_path, gen.PAPER_R, gen.PAPER_C, gen.PAPER_COP, gen.PAPER_P_RATED,
        gen.PAPER_THETA_A, gen.PAPER_Q_D, gen.PAPER_DT, gen.PAPER_N,
    )


def build(workload: str, seed: int, input_dir: str, expected: dict) -> JobList:
    """The workload's job list for one pass, with its inputs written."""
    os.makedirs(input_dir, exist_ok=True)
    out = JobList([])

    def pooled(index: int):
        b, paths, dig = _pool_inputs(workload, index, input_dir)
        out.digests[os.path.basename(paths["config"])] = dig
        scen = ["--config", paths["config"], "--dist", paths["dist"]]

        def rec(key: str):
            return recorded(expected, workload, index, dig)[key]

        return b, paths, rec, scen

    if workload == "capacity":
        for i in gen.pick_variants(workload, seed, CAPACITY_VARIANTS):
            b, paths, rec, scen = pooled(i)
            out.jobs.append(Job(
                f"capacity-v{i:02d}", ["capacity", *scen], "capacity.csv",
                CAP_SOLVER_JOB_S,
                lambda c, _o, rec=rec: checks.check_capacity_recorded(c, rec("caps")),
            ))
        # the long paper job goes between the short ones, so that the job
        # median samples the machine's speed at two times of the run
        out.jobs.insert(1, Job("capacity-paper", ["capacity", "--config", "paper"],
                               "capacity.csv", CAP_PAPER_CAPACITY_S, _capacity_paper_check))
    elif workload == "tracking":
        for i in gen.pick_variants(workload, seed, TRACKING_VARIANTS):
            b, paths, rec, scen = pooled(i)
            for norm in NORMS:
                out.jobs.append(Job(
                    f"plan-{norm}-v{i:02d}",
                    ["plan", *scen, "--ref", paths["ref"], "--norm", norm],
                    "plan.csv", CAP_SOLVER_JOB_S,
                    lambda c, _o, b=b, n=norm, rec=rec: checks.check_plan(c, b, n, rec(n)),
                ))
    elif workload == "rolling":
        for i in gen.pick_variants(workload, seed, ROLLING_VARIANTS):
            b, paths, rec, scen = pooled(i)
            out.jobs.append(Job(
                f"rolling-v{i:02d}",
                ["plan", *scen, "--ref", paths["ref"], "--norm", "two",
                 "--window", str(ROLLING_WINDOW)],
                "plan.csv", CAP_SOLVER_JOB_S,
                lambda c, _o, b=b, rec=rec: checks.check_plan(c, b, "two", rec("two")),
            ))
    elif workload == "light":
        out.jobs.extend(light_paper_jobs(seed))
        b = gen.week_building(seed)
        paths = gen.write_building(b, os.path.join(input_dir, "week"))
        out.digests["week.toml"] = gen.digest(list(paths.values()))
        scen = ["--config", paths["config"], "--dist", paths["dist"]]

        def week_simulate(c: str, o: str) -> None:
            checks.check_simulate_baseline(c, b)
            checks.check_stdout(o, "qos: ok")

        def week_envelope(c: str, o: str) -> None:
            checks.check_envelope(c, b)
            checks.check_stdout(
                o, f"interior draws violating comfort: 0/{WEEK_ENVELOPE_DRAWS}"
            )

        out.jobs.append(Job("simulate-week", ["simulate", *scen], "simulate.csv",
                            CAP_LIGHT_JOB_S, week_simulate))
        out.jobs.append(Job(
            "envelope-week",
            ["--seed", str(seed), "envelope", *scen,
             "--verify-samples", str(WEEK_ENVELOPE_DRAWS)],
            "envelope.csv", CAP_LIGHT_JOB_S, week_envelope,
        ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


# (name, CLI args, CSV written, recorded CSV, stdout needle or None).  The
# envelope's interior draws follow the workload seed; the ensemble outputs
# are integer schedules and must match exactly.
LIGHT_PAPER = (
    ("simulate-paper", ["simulate", "--config", "paper"], "simulate.csv",
     "simulate_paper.csv", "qos: ok"),
    ("envelope-paper", ["--seed", "{seed}", "envelope", "--config", "paper",
                        "--verify-samples", str(ENVELOPE_DRAWS)], "envelope.csv",
     "envelope_paper.csv", f"interior draws violating comfort: 0/{ENVELOPE_DRAWS}"),
    ("freq-paper", ["freq", "--config", "paper"], "freq.csv", "freq_paper.csv", None),
    ("humidity", ["humidity"], "humidity.csv", "humidity.csv", None),
    ("humidity-outdoor", ["humidity", "--outdoor", "32.0,0.02,0.3"], "humidity.csv",
     "humidity_outdoor.csv", None),
    ("deferrable-paper", ["deferrable", "--config", "paper", "--window", "4"],
     "deferrable.csv", "deferrable_paper.csv", "demonstrates contract/comfort gap: yes"),
    ("ensemble-triangle", ["ensemble", "--triangle", "5"], "ensemble.csv",
     "ensemble_triangle5.csv", None),
    ("ensemble-square", ["ensemble", "--square", "3,4"], "ensemble.csv",
     "ensemble_square3_4.csv", None),
)


def light_paper_args(args: list[str], seed: int) -> list[str]:
    return [a.format(seed=seed) for a in args]


def light_paper_jobs(seed: int) -> list[Job]:
    jobs = []
    for name, args, output, recorded, needle in LIGHT_PAPER:

        def check(c: str, o: str, recorded=recorded, needle=needle, name=name) -> None:
            checks.check_recorded_csv(
                c, os.path.join(EXPECTED_DIR, recorded), exact=name.startswith("ensemble")
            )
            if needle is not None:
                checks.check_stdout(o, needle)

        jobs.append(Job(name, light_paper_args(args, seed), output, CAP_LIGHT_JOB_S, check))
    return jobs
