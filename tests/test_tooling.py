"""Source hygiene checks over the package modules, and what each entry point imports."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import os
import pathlib
import shlex
import subprocess
import sys
import textwrap
import types

import vesflex
from vesflex import cli
from test_contract import COUNT_CHECKS, HOLDERS, NUMBER_CHECKS

PACKAGE = pathlib.Path(vesflex.__file__).parent


def _unread_imports(tree: ast.Module) -> list[str]:
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_every_imported_name_is_read():
    unread = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unread == []


def test_planner_imports_no_solve_function_from_solver():
    # the dense LP and box QP are oracles; every plan runs on O(n) kernels
    # and reports its own result, so planner takes nothing from solver
    tree = ast.parse((PACKAGE / "planner.py").read_text(encoding="utf-8"))
    taken = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "solver"
        for a in node.names
    }
    assert taken == set()


def test_planner_references_no_linalg():
    # every plan runs on O(n) kernels; dense solves stay the tests' oracles
    tree = ast.parse((PACKAGE / "planner.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
    assert [name for name in names if "linalg" in name] == []


# vesflex.__all__: every public name, sorted
PUBLIC_NAMES = [
    "BaselineResult", "BoxQP", "ConservativenessPoint", "ContractVerdict",
    "CounterexampleResult", "DESIGN_RETURN_AIR", "DESIGN_SUPPLY_AIR", "DeferrableSpec",
    "DisturbanceSeries", "EnsembleSchedule", "FlexEnvelope", "InfeasibleError",
    "InputError", "LinearProgram", "MoistAirState", "NORMS", "PlanResult",
    "PowerRangeError", "QoSBounds", "Scenario", "ShapeError", "SolveReport", "SolverError",
    "ThermalParams", "Trajectory", "Verdict", "VesflexError", "VirtualBatteryCaps",
    "amplitude_at_timescale", "bangbang_energy_oracle", "baseline_energy",
    "baseline_trajectory", "battery", "characterize", "coil_thermal_power",
    "conservativeness_curve", "counterexample_check", "decay_factor", "deferrable",
    "dry_model_demand_error", "electric_demand", "ensemble", "envelope",
    "equilibrium_power", "errors", "extremal_profiles", "feasible_band", "flexset",
    "front_loaded_profile", "humidity", "is_member", "latent_fraction",
    "latent_sensible_split", "max_sine_amplitude", "min_loads", "mix_air", "pair_counts",
    "plan", "planner", "receding_horizon", "sample_interior_trajectories",
    "schedule_tracking", "simulate", "solve_box_qp", "solve_lp", "solver",
    "spec_feasible", "specific_enthalpy", "square_reference", "staircase_triangle",
    "steady_sine_amplitude", "tf_magnitude", "thermal", "tracking_error",
    "trajectory_satisfies", "validate_schedule",
]


def test_public_names_are_unchanged():
    assert vesflex.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(vesflex))
    assert not hasattr(vesflex, "no_such_name")


def test_each_public_name_is_its_defining_modules_attribute():
    for name in PUBLIC_NAMES:
        obj = getattr(vesflex, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module(f"vesflex.{name}")
            continue
        owner = importlib.import_module(f"vesflex.{vesflex._OWNER[name]}")
        assert obj is getattr(owner, name)
        if isinstance(obj, (type, types.FunctionType)):
            assert obj.__module__ == owner.__name__


# public names no module of the package reads, each with why it stays
UNREAD_EXEMPT = {
    "solve_lp": "the dense simplex, an oracle: criterion 8d",
    "solve_box_qp": "the dense box QP, an oracle: criterion 8d",
    "bangbang_energy_oracle": "the closed-form energy cap: criterion 7",
    "steady_sine_amplitude": "the simulated sine amplitude: criterion 3",
    "amplitude_at_timescale": "the square-wave amplitude a fleet sustains: criterion 6b",
    "extremal_profiles": "the argmax profiles the dense-LP tests compare",
}


def _defines(node: ast.stmt, name: str) -> bool:
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def test_every_public_name_is_read_in_the_package_or_exempt_with_a_reason():
    """Each public name, and each public method or property of a public class,
    is read by a Name or Attribute node of some module outside its own
    definition; a docstring or an _EXPORTS string does not count.  Attributes
    match by name alone, so a member is read wherever any object's attribute
    of that name is: BoxQP.n_vars would pass on solve_lp's lp.n_vars, which
    reads LinearProgram.n_vars.
    """
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    reads = [  # (module, line, name) of every load of a name or an attribute
        (module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    defined = []  # (qualified name, module, defining node)
    for name in PUBLIC_NAMES:
        if name in vesflex._EXPORTS:
            continue
        module = vesflex._OWNER[name]
        node = next(n for n in trees[module].body if _defines(n, name))
        defined.append((name, module, node))
        if isinstance(node, ast.ClassDef):
            defined += [
                (f"{name}.{m.name}", module, m)
                for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            ]
    unread = [
        qualified
        for qualified, module, node in defined
        if not any(
            read == qualified.rsplit(".", 1)[-1]
            and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, line, read in reads
        )
    ]
    assert sorted(unread) == sorted(UNREAD_EXEMPT)


def test_the_config_schema_fills_exactly_the_required_fields():
    # a config key that no constructor field takes, as the humidity and
    # lockout keys once were, is read only to be refused
    from vesflex.flexset import QoSBounds
    from vesflex.thermal import ThermalParams

    def fields(cls, required_only):
        return sorted(
            f.name for f in dataclasses.fields(cls)
            if not required_only or f.default is dataclasses.MISSING
        )

    assert sorted(cli.CONFIG_KEYS["thermal"].values()) == fields(ThermalParams, False)
    assert sorted(cli.CONFIG_KEYS["comfort"].values()) == fields(QoSBounds, True)


def _choices(command: str, dest: str) -> tuple:
    top = cli.build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    return next(tuple(a.choices) for a in sub.choices[command]._actions if a.dest == dest)


def test_parser_choices_are_the_analysis_modules_values():
    from vesflex import planner

    assert _choices("plan", "norm") == planner.NORMS


# runs cli.main in a fresh interpreter and reports what each job loaded
_STARTUP_CHILD = """
import contextlib, io, json, sys
import vesflex
loaded = lambda: sorted(m for m in sys.modules if m.startswith("vesflex."))
seen = {"import vesflex": [0, "numpy" in sys.modules, loaded()]}
from vesflex import cli
for argv in (["--help"], ["plan", "--norm", "bogus"], ["humidity"], ["plan"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--out-dir", sys.argv[1], *argv])
    seen[" ".join(argv)] = [code, "numpy" in sys.modules, loaded()]
print(json.dumps(seen))
"""


def test_each_job_imports_only_what_it_runs(tmp_path):
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_CHILD, str(tmp_path)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    seen = json.loads(proc.stdout)
    assert seen["import vesflex"] == [0, False, []]
    for job, code in (("--help", 0), ("plan --norm bogus", 2), ("humidity", 0)):
        assert seen[job][:2] == [code, False], job
    code, _, modules = seen["plan"]
    assert code == 0
    assert {"vesflex.planner", "vesflex.flexset"} <= set(modules)
    unused = {f"vesflex.{m}" for m in ("solver", "battery", "deferrable", "ensemble")}
    assert unused.isdisjoint(modules)


def test_readme_python_example_runs_as_printed():
    # the example builds Trajectorys, the caps and a rolling plan, so any
    # drift in those calls shows here
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.split() == ["True", "1"]


def test_readme_cli_block_runs_as_printed(tmp_path, monkeypatch):
    # every `vesflex ...` line of the CLI section, so an option the CLI
    # drops or renames cannot linger in the README
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("vesflex ")]
    assert lines
    for i, argv in enumerate(lines):
        (tmp_path / str(i)).mkdir()
        monkeypatch.chdir(tmp_path / str(i))
        assert cli.main(argv) == 0, argv
        args = cli.build_parser().parse_args(argv)
        assert (pathlib.Path(args.out_dir) / f"{args.command}.csv").is_file(), argv


def test_only_the_array_helper_freezes_arrays():
    # errors._freeze copies, converts, checks and freezes every held array;
    # no other function in any module calls setflags
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers = {
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr == "setflags"
        }
        assert callers == ({"_freeze"} if path.stem == "errors" else set()), path.stem


def test_every_array_holder_is_a_row_of_the_holder_table():
    # a public dataclass given an array field later cannot skip the
    # read-only-copy check of test_contract; a field counts when its
    # annotation names np.ndarray at all, as QoSBounds' float | np.ndarray does
    holders = {
        name
        for name in vesflex.__all__
        if dataclasses.is_dataclass(obj := getattr(vesflex, name)) and isinstance(obj, type)
        and any("np.ndarray" in f.type for f in dataclasses.fields(obj))
    }
    assert holders == set(HOLDERS)


def _public_callables():
    """Each public function and public method of the modules in vesflex.__all__."""
    for name in vesflex.__all__:
        module = getattr(vesflex, name)
        if not isinstance(module, types.ModuleType):
            continue  # each other public name is defined in one of these modules
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                # dataclass fields reach only the private __init__, so the
                # int fields of results (iterations, solves) are not counts
                for member, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)  # classmethod and staticmethod
                    if not member.startswith("_") and inspect.isfunction(fn):
                        yield fn


def test_every_count_parameter_is_a_row_of_the_count_table():
    # a count parameter added later cannot skip errors.require_count
    counts = {
        f"{fn.__qualname__}({p.name})"
        for fn in _public_callables()
        for p in inspect.signature(fn).parameters.values()
        if p.annotation in ("int", "int | None")
    }
    assert counts == set(COUNT_CHECKS)


def _guarded_parameter(check: str, field: str) -> str | None:
    """The "function(parameter)" a NUMBER_CHECKS row guards; None for a dataclass field."""
    obj = vesflex
    for part in check.split("."):  # "module.function", "Class.method" or "function.parameter"
        inner = getattr(obj, part, None)
        if not (inspect.ismodule(inner) or inspect.isclass(inner) or inspect.isroutine(inner)):
            break
        obj = inner
    fn = getattr(obj, "__func__", obj)
    return f"{fn.__qualname__}({field})" if inspect.isfunction(fn) else None


_HELD = "it fills a held array, which refuses a non-finite value by name"
_OFF_GRID = "grid_steps refuses a horizon and step that are not a positive multiple"
_ARRAYS = "it takes arrays too, and every caller in the package passes held finite ones"

# "function(parameter)" -> why a float parameter is not a NUMBER_CHECKS row
FLOAT_EXEMPT = {
    "DisturbanceSeries.constant(theta_a)": _HELD,
    "DisturbanceSeries.constant(q_d)": _HELD,
    "baseline_energy(theta_a)": _HELD,
    "baseline_energy(q_d)": _HELD,
    "baseline_energy(theta_sp)": "baseline_trajectory's row checks it",
    "baseline_energy(horizon_h)": _OFF_GRID,
    "baseline_energy(dt)": _OFF_GRID,
    "grid_steps(horizon_h)": _OFF_GRID,
    "grid_steps(dt)": _OFF_GRID,
    "simulate(theta0)": "the temperature Trajectory it returns refuses a non-finite value",
    "steady_sine_amplitude(amplitude_kw)": "an oracle; the demand Trajectory it builds refuses "
                                           "a non-finite value",
    "equilibrium_power(theta_a)": _ARRAYS,
    "equilibrium_power(theta_sp)": _ARRAYS,
    "equilibrium_power(q_d)": _ARRAYS,
}


def test_every_float_parameter_is_a_row_of_the_number_table_or_exempt_with_a_reason():
    # a float parameter added later cannot skip require_finite and its kin
    floats = {
        f"{fn.__qualname__}({p.name})"
        for fn in _public_callables()
        for p in inspect.signature(fn).parameters.values()
        if "float" in str(p.annotation).split(" | ")
    }
    rows = {_guarded_parameter(check, field) for check, (field, _, _) in NUMBER_CHECKS.items()}
    assert floats == (rows - {None}) | set(FLOAT_EXEMPT)
    assert not (rows & set(FLOAT_EXEMPT))


def test_every_parameter_of_a_public_callable_is_read():
    # a parameter no answer depends on, as dry_model_demand_error's COP
    # once was, is a setting that means nothing
    unread = []
    for fn in _public_callables():
        node = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
        names = [n for n in ast.walk(node) if isinstance(n, ast.Name)]
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        unread += [f"{fn.__qualname__}({a.arg})" for a in params if a and a.arg not in read]
    assert unread == []


def _functions(tree: ast.Module):
    """(name, nodes) per function: the nodes of its body outside nested functions."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            nodes, todo = [], list(ast.iter_child_nodes(fn))
            while todo:
                node = todo.pop()
                if not isinstance(node, ast.FunctionDef):
                    nodes.append(node)
                    todo.extend(ast.iter_child_nodes(node))
            yield fn.name, nodes


def _calls(nodes: list, name: str) -> list:
    return [
        n for n in nodes
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
    ]


def test_one_function_answers_whether_the_band_can_be_held():
    # flexset._reachable runs the rated forward pass with its rounding
    # fallback; a second strict pass, or a second raiser of its error, would
    # let two readers disagree about one start
    raisers, rated = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, nodes in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.stem}.{name}"
            if any(
                isinstance(n, ast.Constant) and "comfort band cannot be held" in str(n.value)
                for n in nodes
            ):
                raisers.add(where)
            boxes = {  # names bound to _rated_box(...)
                t.id
                for n in nodes if isinstance(n, (ast.Assign, ast.NamedExpr))
                and _calls([n.value], "_rated_box")
                for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
                if isinstance(t, ast.Name)
            }
            for call in _calls(nodes, "_forward_reach"):
                if any(
                    _calls([n], "_rated_box") or (isinstance(n, ast.Name) and n.id in boxes)
                    for arg in call.args for n in ast.walk(arg)
                ):
                    rated.add(where)
    assert raisers == {"flexset._reachable"}
    assert rated == {"flexset._reachable"}


def test_one_function_reads_an_answers_demand_off_its_temperature_path():
    # flexset.require_path inverts the dynamics, clips into [0, p_rated] and
    # audits every plan and battery profile; a second copy could clip or
    # audit one answer another way.  battery's rates read one step each.
    steps, audits = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, nodes in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.stem}.{name}"
            steps += [
                where for n in nodes
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "step_demand"
            ]
            audits += [where] * len(_calls(nodes, "require_member"))
    assert sorted(steps) == ["battery.characterize"] * 2 + ["flexset.require_path"]
    assert sorted(audits) == ["flexset.require_path", "planner.receding_horizon"]
