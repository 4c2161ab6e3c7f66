"""The traced run: the job list in-process through vesflex.cli.main(argv).

Run as a child process:

    python3 tracing.py SPEC.json RESULT.json

SPEC names the repository root and two copies of the job list (each job an
argv for `vesflex` and a file for its captured output).  Every job runs
once untraced and once traced.  For the traced copy, wrappers are installed
from this file around the package's public module-level functions,
recording one span per call: its name, start, end, the span that caused it
and the job it belongs to.  Spans stay in memory and are written to RESULT
when the run ends.  No file of the package changes.

layer_metrics() turns the spans into per-layer self times and counts.  A
boundary that no longer exists in the package is skipped when wrappers are
installed, so its metrics read zero calls instead of crashing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time
import traceback


def _solve_attrs(kind: str, via: str | None = None):
    def attrs(args, kwargs, report) -> dict:
        prob = args[0] if args else kwargs.get("lp", kwargs.get("qp"))
        out = {"iters": int(report.iterations), "via": via}
        if report.objective is not None and report.dual_bound is not None:
            out["gap"] = abs(report.objective - report.dual_bound)
        if report.max_residual is not None:
            out["residual"] = float(report.max_residual)
        if kind == "lp":
            # computational-form matrix [A | slacks | artificials] plus the
            # explicit basis inverse the simplex keeps
            m_ub = 0 if prob.a_ub is None else prob.a_ub.shape[0]
            m_eq = 0 if prob.a_eq is None else prob.a_eq.shape[0]
            m, n = m_ub + m_eq, prob.c.size
            out["dense_mb"] = 8.0 * (m * (n + m_ub + m) + m * m) / 2**20
        else:
            # the inequality rows and their diagonally scaled copy
            rows = 0 if prob.a_ub is None else prob.a_ub.size
            out["dense_mb"] = 8.0 * 2 * rows / 2**20
        return out
    return attrs


def _simulate_attrs(args, kwargs, out) -> dict:
    return {"steps": len(out.values) - 1}


def _write_csv_attrs(args, kwargs, out) -> dict:
    columns = args[2] if len(args) > 2 else kwargs["columns"]
    return {"rows": len(columns[0])}


def _plan_attrs(args, kwargs, out) -> dict:
    return {"norm": kwargs.get("norm", args[2] if len(args) > 2 else "two")}


_HUMIDITY = ("specific_enthalpy", "mix_air", "coil_thermal_power", "electric_demand",
             "latent_sensible_split", "dry_model_demand_error")

# (module, attribute, span name, attribute extractor).  A function imported
# by name into several modules is wrapped in each namespace that calls it.
BOUNDARIES = [
    ("vesflex.cli", "load_config", "cli.load_config", None),
    ("vesflex.cli", "scenario_from_config", "cli.scenario_from_config", None),
    ("vesflex.cli", "read_reference_csv", "cli.read_ref", None),
    ("vesflex.cli", "write_csv", "cli.write_csv", _write_csv_attrs),
    ("vesflex.cli", "simulate", "thermal.simulate", _simulate_attrs),
    ("vesflex.thermal", "DisturbanceSeries.from_csv", "cli.read_dist", None),
    ("vesflex.flexset", "simulate", "thermal.simulate", _simulate_attrs),
    ("vesflex.flexset", "baseline_trajectory", "thermal.baseline", None),
    ("vesflex.flexset", "satisfies", "qos.satisfies", None),
    ("vesflex.flexset", "envelope", "flexset.envelope", None),
    ("vesflex.flexset", "is_member", "flexset.is_member", None),
    ("vesflex.flexset", "sample_interior_trajectories", "flexset.sample_interior", None),
    ("vesflex.planner", "feasible_window", "planner.feasible_window", None),
    ("vesflex.planner", "input_to_state_map", "planner.input_to_state_map", None),
    ("vesflex.planner", "plan", "planner.plan", _plan_attrs),
    ("vesflex.planner", "receding_horizon", "planner.receding_horizon", None),
    ("vesflex.planner", "simulate", "thermal.simulate", _simulate_attrs),
    ("vesflex.planner", "solve_lp", "solver.lp", _solve_attrs("lp", "planner")),
    ("vesflex.planner", "solve_box_qp", "solver.qp", _solve_attrs("qp", "planner")),
    ("vesflex.battery", "solve_lp", "solver.lp", _solve_attrs("lp")),
    ("vesflex.battery", "rate_capacities", "battery.rate_capacities", None),
    ("vesflex.battery", "energy_capacities", "battery.energy_capacities", None),
    ("vesflex.deferrable", "counterexample_check", "deferrable.counterexample_check", None),
    ("vesflex.deferrable", "is_member", "flexset.is_member", None),
    ("vesflex.deferrable", "baseline_trajectory", "thermal.baseline", None),
    ("vesflex.ensemble", "min_loads", "ensemble.min_loads", None),
    ("vesflex.ensemble", "schedule_tracking", "ensemble.schedule_tracking", None),
] + [("vesflex.humidity", fn, "humidity", None) for fn in _HUMIDITY]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list = []
        self.job = -1

    def _open(self, name: str) -> dict:
        rec = {"id": len(self.spans), "job": self.job, "name": name,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["t0"] = time.perf_counter()
        return rec

    def close(self, rec: dict) -> None:
        rec["t1"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if attrs is not None:
                try:
                    rec.update(attrs(args, kwargs, out))
                except (AttributeError, IndexError, KeyError, TypeError):
                    rec["attrs_missing"] = True
            return out
        return traced

    def install(self) -> list[str]:
        """Wrap every boundary that exists; return the ones that do not."""
        missing = []
        for module, attr, name, attrs in BOUNDARIES:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                missing.append(f"{module}.{attr}")
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(leaf)
            if raw is None:
                missing.append(f"{module}.{attr}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name, attrs))
            else:
                new = self.wrap(raw, name, attrs)
            setattr(owner, leaf, new)
            self._restore.append((owner, leaf, raw))
        return missing

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._restore):
            setattr(owner, leaf, raw)
        self._restore.clear()

    def job_span(self, index: int):
        self.job = index
        return self._open("job")


def run_job(main, argv: list[str], output_path: str, tracer: Tracer | None = None,
            index: int = -1) -> tuple[int | str, float]:
    """cli.main(argv) with output captured; returns (exit code, seconds)."""
    buf = io.StringIO()
    rec = tracer.job_span(index) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash in one job must not stop the run; record it
        code = "exception"
        buf.write(traceback.format_exc())
    finally:
        wall = time.perf_counter() - t0
        if rec is not None:
            tracer.close(rec)
    with open(output_path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    return code, wall


def child_main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    cli = importlib.import_module("vesflex.cli")
    tracer = Tracer()
    untraced, traced, missing = [], [], []
    for i, (plain, with_spans) in enumerate(zip(spec["untraced"], spec["traced"])):
        # alternate which copy of a job runs first, so that warm-up inside
        # the process does not bias the traced-minus-untraced overhead
        for kind in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
            if kind == "plain":
                untraced.append(run_job(cli.main, plain["argv"], plain["output"]))
                continue
            missing = tracer.install()
            try:
                traced.append(run_job(cli.main, with_spans["argv"], with_spans["output"],
                                      tracer, i))
            finally:
                tracer.uninstall()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"untraced": untraced, "traced": traced, "missing": missing,
                   "vesflex_file": cli.__file__, "spans": tracer.spans}, fh)
    return 0


# ------------------------------------------------------------- aggregation --

# (metric, unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = [
    ("cli.import_s", "s", "lower", "setup_s on every workload"),
    ("cli.config_s", "s", "lower", "setup_s everywhere; job_p50_s and wall_s on light"),
    ("cli.dist_read_s", "s", "lower", "job_p50_s and wall_s on light"),
    ("cli.write_csv_s", "s", "lower", "job_p50_s and wall_s on light"),
    ("cli.write_csv_rows", "count", "lower", "job_p50_s and wall_s on light"),
    ("thermal.simulate_s", "s", "lower", "wall_s on light and rolling"),
    ("thermal.simulate_calls", "count", "lower", "wall_s on rolling"),
    ("thermal.simulate_steps", "count", "lower", "wall_s on light and rolling"),
    ("thermal.baseline_s", "s", "lower", "wall_s on light"),
    ("qos.satisfies_s", "s", "lower", "wall_s on light; later tracking and rolling"),
    ("qos.satisfies_calls", "count", "lower", "wall_s on light"),
    ("flexset.envelope_s", "s", "lower", "wall_s on light"),
    ("flexset.is_member_s", "s", "lower", "wall_s on light; later tracking and rolling"),
    ("flexset.is_member_calls", "count", "lower", "wall_s on light"),
    ("flexset.sample_interior_s", "s", "lower", "wall_s on light"),
    ("planner.feasible_window_s", "s", "lower", "wall_s on tracking and rolling"),
    ("planner.feasible_window_calls", "count", "lower", "wall_s on rolling"),
    ("planner.input_to_state_map_s", "s", "lower", "wall_s and cpu_s on tracking"),
    ("planner.plan_two_s", "s", "lower", "wall_s on tracking and rolling"),
    ("planner.plan_one_s", "s", "lower", "wall_s and cpu_s on tracking"),
    ("planner.plan_inf_s", "s", "lower", "wall_s and cpu_s on tracking"),
    ("planner.plan_calls", "count", "lower", "wall_s on rolling"),
    ("planner.assembly_s", "s", "lower", "wall_s and cpu_s on tracking; wall_s on rolling"),
    ("planner.receding_horizon_s", "s", "lower", "wall_s on rolling"),
    ("planner.solves", "count", "lower", "wall_s on rolling"),
    ("solver.lp_s", "s", "lower", "wall_s and cpu_s on capacity and tracking"),
    ("solver.lp_calls", "count", "lower", "wall_s on capacity"),
    ("solver.lp_iters", "count", "lower", "wall_s and cpu_s on capacity and tracking"),
    ("solver.lp_gap_max", "obj", "lower", "none (optimality certificate)"),
    ("solver.lp_residual_max", "row", "lower", "none (feasibility certificate)"),
    ("solver.lp_dense_mb", "MB-computed", "lower", "peak_rss_mb on tracking and capacity"),
    ("solver.qp_s", "s", "lower", "wall_s on tracking and rolling"),
    ("solver.qp_calls", "count", "lower", "wall_s on rolling"),
    ("solver.qp_iters", "count", "lower", "wall_s on tracking and rolling"),
    ("solver.qp_residual_max", "row", "lower", "none (feasibility certificate)"),
    ("solver.qp_dense_mb", "MB-computed", "lower", "peak_rss_mb on tracking"),
    ("battery.rate_capacities_s", "s", "lower", "wall_s, job_p50_s and cpu_s on capacity"),
    ("battery.energy_capacities_s", "s", "lower", "wall_s, job_p50_s and cpu_s on capacity"),
    ("battery.assembly_s", "s", "lower", "wall_s and cpu_s on capacity"),
    ("deferrable.counterexample_check_s", "s", "lower", "job_p50_s on light"),
    ("ensemble.min_loads_s", "s", "lower", "job_p50_s on light"),
    ("ensemble.schedule_tracking_s", "s", "lower", "job_p50_s on light"),
    ("humidity.total_s", "s", "lower", "job_p50_s on light"),
    ("trace.overhead_s", "s", "lower", "none (cost of tracing itself)"),
    ("trace.unattributed_s", "s", "lower", "none (job time no span covers)"),
]


def layer_metrics(result: dict, import_s: float) -> dict[str, float]:
    """Per-layer metrics from the traced run's spans.

    `_s` metrics of a named function are inclusive time in its calls;
    `assembly_s` and `unattributed_s` are self times: a span's duration
    minus the part of it its child spans cover.
    """
    spans = result["spans"]
    dur = {s["id"]: s["t1"] - s["t0"] for s in spans}
    kids: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name: str) -> list[dict]:
        return by_name.get(name, [])

    def incl(*names: str) -> float:
        return sum(dur[s["id"]] for n in names for s in named(n))

    def self_time(s: dict, only=None) -> float:
        covered = sum(dur[k["id"]] for k in kids.get(s["id"], [])
                      if only is None or k["name"] in only)
        return dur[s["id"]] - covered

    def total(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in named(name))

    def peak(name: str, key: str) -> float:
        return max((s[key] for s in named(name) if key in s), default=0.0)

    plan_children = {"solver.lp", "solver.qp", "planner.feasible_window",
                     "thermal.simulate"}
    m: dict[str, float] = {
        "cli.import_s": import_s,
        "cli.config_s": sum(self_time(s) for n in ("cli.load_config",
                                                    "cli.scenario_from_config")
                            for s in named(n)),
        "cli.dist_read_s": incl("cli.read_dist", "cli.read_ref"),
        "cli.write_csv_s": incl("cli.write_csv"),
        "cli.write_csv_rows": total("cli.write_csv", "rows"),
        "thermal.simulate_s": incl("thermal.simulate"),
        "thermal.simulate_calls": len(named("thermal.simulate")),
        "thermal.simulate_steps": total("thermal.simulate", "steps"),
        "thermal.baseline_s": incl("thermal.baseline"),
        "qos.satisfies_s": incl("qos.satisfies"),
        "qos.satisfies_calls": len(named("qos.satisfies")),
        "flexset.envelope_s": incl("flexset.envelope"),
        "flexset.is_member_s": incl("flexset.is_member"),
        "flexset.is_member_calls": len(named("flexset.is_member")),
        "flexset.sample_interior_s": incl("flexset.sample_interior"),
        "planner.feasible_window_s": incl("planner.feasible_window"),
        "planner.feasible_window_calls": len(named("planner.feasible_window")),
        "planner.input_to_state_map_s": incl("planner.input_to_state_map"),
        "planner.plan_calls": len(named("planner.plan")),
        "planner.assembly_s": sum(self_time(s, plan_children)
                                  for s in named("planner.plan")),
        "planner.receding_horizon_s": incl("planner.receding_horizon"),
        "planner.solves": sum(1 for n in ("solver.lp", "solver.qp") for s in named(n)
                              if s.get("via") == "planner"),
        "battery.rate_capacities_s": incl("battery.rate_capacities"),
        "battery.energy_capacities_s": incl("battery.energy_capacities"),
        "battery.assembly_s": sum(self_time(s) for n in ("battery.rate_capacities",
                                                          "battery.energy_capacities")
                                  for s in named(n)),
        "deferrable.counterexample_check_s": incl("deferrable.counterexample_check"),
        "ensemble.min_loads_s": incl("ensemble.min_loads"),
        "ensemble.schedule_tracking_s": incl("ensemble.schedule_tracking"),
        "humidity.total_s": sum(dur[s["id"]] for s in named("humidity")
                                if s["parent"] is None
                                or spans[s["parent"]]["name"] != "humidity"),
        "trace.overhead_s": sum(w for _, w in result["traced"])
        - sum(w for _, w in result["untraced"]),
        "trace.unattributed_s": sum(self_time(s) for s in named("job")),
    }
    for norm in ("two", "one", "inf"):
        m[f"planner.plan_{norm}_s"] = sum(dur[s["id"]] for s in named("planner.plan")
                                          if s.get("norm") == norm)
    for kind in ("lp", "qp"):
        name = f"solver.{kind}"
        m[f"solver.{kind}_s"] = incl(name)
        m[f"solver.{kind}_calls"] = len(named(name))
        m[f"solver.{kind}_iters"] = total(name, "iters")
        m[f"solver.{kind}_residual_max"] = peak(name, "residual")
        m[f"solver.{kind}_dense_mb"] = peak(name, "dense_mb")
    m["solver.lp_gap_max"] = peak("solver.lp", "gap")
    return m


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1], sys.argv[2]))
