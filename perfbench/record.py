"""Record the reference outputs the checks compare against.

    python3 perfbench/record.py

Run once at the commit that defines the benchmark.  For every pool variant
of the capacity, tracking and rolling workloads it runs the CLI, checks
the output for feasibility, and stores the optimum it reached together with
a digest of the generated inputs in expected.json.  The light workload's
`paper` outputs are copied to expected/.  A later commit re-records only
when it deliberately changes an optimum; a faster solver must not need to.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402

CAP_S = 120.0


def run_cli(args: list[str], out_dir: str, env: dict, output: str) -> str:
    res = runner.spawn(runner.cli_argv(["--out-dir", out_dir, *args]), env, out_dir,
                       CAP_S, os.path.join(out_dir, "stdout.txt"))
    if res.code != 0:
        raise SystemExit(f"vesflex {' '.join(args)}: exit {res.code}")
    return os.path.join(out_dir, output)


def record_pool(workload: str, work: str, env: dict) -> dict:
    out = {}
    for i in range(gen.POOL_SIZE):
        b = gen.pool_building(workload, i)
        paths = gen.write_building(b, os.path.join(work, f"{workload}_v{i:02d}"))
        rec = {"digest": gen.digest(list(paths.values()))}
        scen = ["--config", paths["config"], "--dist", paths["dist"]]
        if workload == "capacity":
            csv_path = run_cli(["capacity", *scen], work, env, "capacity.csv")
            rec["caps"] = checks.capacity_values(csv_path)[:4]
            rec["caps"].append(b.n * b.dt)
        else:
            if workload == "tracking":
                runs = [(norm, ["--norm", norm]) for norm in workloads.NORMS]
            else:
                runs = [("two", ["--norm", "two", "--window",
                                 str(workloads.ROLLING_WINDOW)])]
            for norm, extra in runs:
                csv_path = run_cli(["plan", *scen, "--ref", paths["ref"], *extra],
                                   work, env, "plan.csv")
                checks.check_plan(csv_path, b, norm, float("inf"))
                cols = checks.numeric_columns(
                    csv_path, ["t_hours", "ref_kw", "p_kw", "theta_C"], b.n)
                theta = cols["theta_C"]
                # the two-norm argmin is unique, so it is the one to test
                if norm == "two" and not (theta.min() < gen.THETA_MIN + 1e-3
                                          and theta.max() > gen.THETA_MAX - 1e-3):
                    raise SystemExit(f"{workload} variant {i} {norm}: the plan "
                                     "does not reach both comfort bounds")
                rec[norm] = checks.tracking_error(cols["p_kw"], b.ref, b.dt, norm)
        out[str(i)] = rec
        print(workload, i, {k: v for k, v in rec.items() if k != "digest"}, flush=True)
    return out


def main() -> int:
    env = runner.child_env(ROOT)
    work = os.path.join(ROOT, ".perfbench_work", "record")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        expected = {w: record_pool(w, work, env) for w in ("capacity", "tracking", "rolling")}
        os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
        for _name, args, output, recorded, _needle in workloads.LIGHT_PAPER:
            csv_path = run_cli(workloads.light_paper_args(args, 0), work, env, output)
            shutil.copyfile(csv_path, os.path.join(workloads.EXPECTED_DIR, recorded))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.EXPECTED_JSON, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
