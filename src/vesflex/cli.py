"""Command-line front end.

One subcommand per analysis; all of them read the same sectioned TOML
config (parsed by the standard library's tomllib and checked against
CONFIG_KEYS, so every value is a number), read and write CSV through
csvio.read_csv and csvio.write_csv, and print a short summary to stdout.
Numeric CSV fields use repr-faithful %.17g so outputs are byte-identical
across runs and round-trip through float exactly.

At load time this module imports only the standard library and errors;
each subcommand imports the modules it runs, and csvio is loaded where a
CSV is read or written.  So --help and a usage error load no other vesflex
module, `humidity` never imports numpy, and `plan` never loads solver,
battery, deferrable or ensemble.

Exit codes:
    0  success
    1  the request is infeasible in the model (no plan, fleet too small, ...)
    2  bad input: unreadable or malformed config or CSV, unknown config key,
       malformed arguments, an --out-dir that cannot be created
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from .errors import InfeasibleError, InputError, VesflexError, require_nonnegative

# typing.TYPE_CHECKING without importing typing, which --help and a usage
# error need for nothing else; type checkers take any TYPE_CHECKING as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

    from .flexset import Scenario, Verdict
    from .thermal import Trajectory

# The config schema: every key a config may hold, by section, and the field
# it fills in ThermalParams ([thermal]), QoSBounds ([comfort]) or the Scenario
# and its constant disturbance grid ([scenario]).  Other keys are refused, not
# ignored; keys carry their units, as unit bugs dominate this domain.
CONFIG_KEYS = {
    "thermal": {
        "r_C_per_kW": "r_thermal", "c_kWh_per_C": "c_thermal",
        "eta_cop": "eta_cop", "p_rated_kW": "p_rated",
    },
    "comfort": {"theta_min_C": "theta_min", "theta_max_C": "theta_max"},
    "scenario": {
        "theta_sp_C": "theta_sp", "theta0_C": "theta0",
        "dt_h": "dt", "horizon_h": "horizon", "theta_a_C": "theta_a", "q_d_kW": "q_d",
    },
}


# ---------------------------------------------------------------- config --


def load_config(name_or_path: str) -> dict:
    """A config is either a TOML file path or the name of a bundled preset."""
    import tomllib

    preset = os.path.join(os.path.dirname(__file__), "presets", name_or_path + ".toml")
    if os.path.exists(name_or_path):
        origin, source = name_or_path, name_or_path
    elif os.path.isfile(preset):
        origin, source = f"preset:{name_or_path}", preset
    else:
        raise InputError(f"config {name_or_path!r} is neither a file nor a bundled preset")
    try:
        with open(source, encoding="utf-8") as fh:
            return tomllib.loads(fh.read())
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{origin}: {exc}") from None


def scenario_from_config(cfg: dict, dist_csv: str | None = None) -> Scenario:
    from .flexset import QoSBounds, Scenario
    from .thermal import DisturbanceSeries, ThermalParams, grid_steps

    if loose := [key for key, table in cfg.items() if not isinstance(table, dict)]:
        raise InputError(f"config keys outside any [section]: {', '.join(loose)}")
    unknown = [f"[{sec}]" for sec in cfg if sec not in CONFIG_KEYS] + [
        f"[{sec}] {key}"
        for sec, keys in cfg.items() if sec in CONFIG_KEYS
        for key in keys if key not in CONFIG_KEYS[sec]
    ]
    if unknown:
        raise InputError(f"unknown config entries: {', '.join(unknown)}")
    # may be left out: theta0_C (= theta_sp_C), and the grid under --dist
    optional = {"theta0_C"}
    if dist_csv is not None:
        optional |= {"dt_h", "horizon_h", "theta_a_C", "q_d_kW"}
    fields = {sec: {} for sec in CONFIG_KEYS}
    for sec, keys in CONFIG_KEYS.items():
        for key, field in keys.items():
            if key in cfg.get(sec, {}):
                val = cfg[sec][key]
                # by type: TOML's true is an int to isinstance; nan and inf fail the bound
                if type(val) not in (int, float) or not abs(val) <= sys.float_info.max:
                    raise InputError(f"config [{sec}] {key} is not a finite number: {val!r}")
                fields[sec][field] = float(val)
            elif key not in optional:
                raise InputError(f"config is missing [{sec}] {key}")
    params = ThermalParams(**fields["thermal"])
    bounds = QoSBounds(**fields["comfort"])
    scn_cfg = fields["scenario"]
    theta_sp = scn_cfg["theta_sp"]
    theta0 = scn_cfg.get("theta0", theta_sp)
    if dist_csv is not None:
        dist = DisturbanceSeries.from_csv(dist_csv)
    else:
        dt = scn_cfg["dt"]
        dist = DisturbanceSeries.constant(
            dt, grid_steps(scn_cfg["horizon"], dt), scn_cfg["theta_a"], scn_cfg["q_d"]
        )
    return Scenario(
        params=params, bounds=bounds, dist=dist, theta_sp=theta_sp, theta0=theta0
    )


# ------------------------------------------------------------------- io --


def _write(args, name: str, header: list[str], columns: list) -> None:
    from .csvio import write_csv

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, name)
    write_csv(path, header, columns)
    print(f"wrote {path}")


def read_reference_csv(path: str, dt: float, n_steps: int) -> Trajectory:
    """Two columns t_hours,ref_kw on exactly the scenario grid."""
    from .csvio import read_csv
    from .thermal import Trajectory, _check_stamps

    t, ref = read_csv(path, ["t_hours", "ref_kw"]).T
    if t.size != n_steps:
        raise InputError(f"{path}: {t.size} rows but the scenario has {n_steps} steps")
    _check_stamps(path, t, dt)
    return Trajectory(dt, ref)


# ----------------------------------------------------------- subcommands --


def _verdict_line(label: str, v: Verdict) -> str:
    if v.ok:
        return f"{label}: ok"
    return (
        f"{label}: violated channel=theta index={v.first_violation_index} "
        f"value={v.value:.6g} limit={v.limit:.6g}"
    )


def _scenario(args) -> Scenario:
    return scenario_from_config(load_config(args.config), args.dist)


def cmd_simulate(args) -> int:
    import numpy as np

    from . import flexset
    from .thermal import Trajectory

    scn = _scenario(args)
    base = scn.baseline()
    if args.power is not None:
        p = read_reference_csv(args.power, scn.dt, scn.n_steps)
    elif args.power_const is not None:
        p = Trajectory(scn.dt, np.full(scn.n_steps, args.power_const))
    else:
        p = base.power
    theta, verdict = flexset.audit(p, scn)
    _write(
        args, "simulate.csv",
        ["t_hours", "p_kw", "theta_C"],
        [p.times(), p.values, theta.values[1:]],
    )
    print(f"baseline saturated: {'yes' if base.saturated else 'no'}")
    print(_verdict_line("qos", verdict))
    return 0


def cmd_envelope(args) -> int:
    import numpy as np

    from . import flexset

    scn = _scenario(args)
    env = flexset.envelope(scn)
    _write(
        args, "envelope.csv",
        ["t_hours", "p_lo_kw", "p_hi_kw", "empty"],
        [env.times(), env.p_lo, env.p_hi, env.empty_mask],
    )
    print(f"half width at t=0: {env.half_width[0]:.6g} kW")
    print(f"empty samples: {int(env.empty_mask.sum())}")
    if args.verify_samples > 0:
        rng = np.random.default_rng(args.seed)
        draws = flexset.sample_interior_trajectories(env, args.verify_samples, rng)
        bad = sum(1 for p in draws if not flexset.is_member(p, scn))
        print(f"interior draws violating comfort: {bad}/{args.verify_samples}")
        if bad:
            return 1
    return 0


def cmd_freq(args) -> int:
    import numpy as np

    from . import flexset

    scn = _scenario(args)
    omegas = (args.omega or []) + (args.omega_cycles or [])
    if omegas:
        omegas = np.array(sorted(omegas))
    else:
        omegas = np.concatenate([[0.0], np.logspace(-2, 3, num=51)])
    pts = flexset.conservativeness_curve(scn, omegas)
    _write(
        args, "freq.csv",
        ["omega_rad_per_h", "a_max_unclamped_kw", "a_max_kw", "ratio_vs_dc"],
        [
            [p.omega for p in pts],
            [p.a_max_unclamped for p in pts],
            [p.a_max for p in pts],
            [p.ratio for p in pts],
        ],
    )
    print(f"dc gain: {scn.params.dc_gain:.6g} degC/kW")
    for p in pts:
        if p.omega == 0.0:
            print(f"a_max(omega=0) = {p.a_max:.6g} kW")
            break
    print(f"peak clamped ratio: {max(p.ratio for p in pts):.6g}")
    return 0


def cmd_plan(args) -> int:
    import numpy as np

    from . import planner
    from .thermal import Trajectory

    scn = _scenario(args)
    if args.ref is not None:
        ref = read_reference_csv(args.ref, scn.dt, scn.n_steps)
    else:
        require_nonnegative("--step-at", args.step_at)
        base = scn.baseline().power.values
        step = np.zeros(scn.n_steps)
        k0 = round(min(args.step_at / scn.dt, scn.n_steps))
        step[k0:] = args.step_kw
        ref = Trajectory(scn.dt, base + step)
    if args.window is not None:
        result = planner.receding_horizon(scn, ref, args.window, norm=args.norm)
    else:
        result = planner.plan(scn, ref, norm=args.norm)
    _write(
        args, "plan.csv",
        ["t_hours", "ref_kw", "p_kw", "theta_C"],
        [ref.times(), ref.values, result.p.values, result.theta.values[1:]],
    )
    print(f"norm: {args.norm}  solves: {result.solves}")
    print(f"tracking error: {result.tracking_error:.9g}")
    return 0


def cmd_humidity(args) -> int:
    from . import humidity

    ret, sup = humidity.DESIGN_RETURN_AIR, humidity.DESIGN_SUPPLY_AIR
    state_in = humidity.MoistAirState(
        ret.t_c if args.t_in is None else args.t_in, ret.w if args.w_in is None else args.w_in
    )
    state_out = humidity.MoistAirState(
        sup.t_c if args.t_out is None else args.t_out, sup.w if args.w_out is None else args.w_out
    )
    if args.outdoor is not None:
        t_oa, w_oa, frac = args.outdoor
        state_in = humidity.mix_air(
            state_in, humidity.MoistAirState(t_oa, w_oa), frac
        )
    h_in = humidity.specific_enthalpy(state_in)
    h_out = humidity.specific_enthalpy(state_out)
    coil = humidity.coil_thermal_power(args.m_dot, state_in, state_out)
    electric = humidity.electric_demand(
        args.m_dot, state_in, state_out, args.eta_chiller
    )
    latent, sensible, frac_l = humidity.latent_sensible_split(state_in, state_out)
    err = humidity.dry_model_demand_error(state_in, state_out)
    names = [
        "t_in_C", "w_in", "t_out_C", "w_out",
        "h_in_kj_per_kg", "h_out_kj_per_kg",
        "coil_kw", "electric_kw",
        "latent_kj_per_kg", "sensible_kj_per_kg", "latent_fraction",
        "dry_model_rel_error",
    ]
    vals = [
        state_in.t_c, state_in.w, state_out.t_c, state_out.w,
        h_in, h_out, coil, electric,
        latent, sensible, (float("nan") if frac_l is None else frac_l),
        err,
    ]
    _write(args, "humidity.csv", ["name", "value"], [names, vals])
    print(f"coil: {coil:.6g} kW  electric: {electric:.6g} kW")
    print(f"latent fraction: {frac_l if frac_l is None else f'{frac_l:.6g}'}")
    print(f"dry-model relative error: {err:.6g}")
    return 0


def cmd_deferrable(args) -> int:
    from . import deferrable

    scn = _scenario(args)
    if args.energy is not None:
        energy = args.energy
    else:
        energy = deferrable.baseline_energy(
            scn.params,
            theta_a=args.sizing_theta_a,
            theta_sp=scn.theta_sp,
            q_d=args.sizing_q_d,
            horizon_h=args.window,
            dt=scn.dt,
        )
        print(f"sized energy from sizing day: {energy:.9g} kWh")
    spec = deferrable.DeferrableSpec(
        arrival_h=args.arrival,
        energy_kwh=energy,
        window_h=args.window,
        p_max=args.p_max if args.p_max is not None else scn.params.p_rated,
    )
    result = deferrable.counterexample_check(spec, scn)
    _write(args, "deferrable.csv", ["t_hours", "p_kw"], [result.p.times(), result.p.values])
    print(f"contract: {'ok' if result.contract else 'violated'} ({result.contract.reason})")
    print(_verdict_line("comfort", result.comfort))
    print(f"demonstrates contract/comfort gap: {'yes' if result.demonstrates_gap else 'no'}")
    return 0


def _ensemble_reference(args) -> np.ndarray:
    import numpy as np

    from . import ensemble
    from .csvio import read_csv

    if args.ref is not None:
        if os.path.exists(args.ref):
            slots, units = read_csv(args.ref, ["slot", "units"]).T
            if not np.array_equal(slots, np.arange(slots.size)):
                raise InputError(f"{args.ref}: slots must count 0, 1, 2, ...")
            if (past := np.abs(units) >= 2**53).any():  # float cells skip integers past 2**53
                raise InputError(f"{args.ref}: row of slot {np.argmax(past)}: a units cell of "
                                 "magnitude 2**53 or more does not hold whole units exactly")
            return units
        try:
            return np.array([int(tok) for tok in args.ref.split(",")])
        except ValueError:
            raise InputError(
                f"--ref must be comma-separated integers or a CSV path, got {args.ref!r}"
            ) from None
    if args.triangle is not None:
        return ensemble.staircase_triangle(args.triangle)
    amp, tau = args.square
    return ensemble.square_reference(amp, tau)


def cmd_ensemble(args) -> int:
    import numpy as np

    from . import ensemble

    ref = _ensemble_reference(args)
    need = ensemble.min_loads(ref)
    print(f"slots: {ref.size}  min loads: {need}")
    sched = ensemble.schedule_tracking(ref, n_loads=args.n_loads)
    ensemble.validate_schedule(sched)
    agg = sched.aggregate_units()
    if not np.array_equal(agg, ref):
        raise InfeasibleError("internal: schedule does not reproduce the reference")
    cols = [np.arange(sched.n_loads)] + [
        sched.actions[:, t] for t in range(sched.n_slots)
    ]
    _write(args, "ensemble.csv", ["load"] + [f"slot_{t}" for t in range(sched.n_slots)], cols)
    print(f"loads used: {sched.loads_used} of {sched.n_loads}")
    print("aggregate matches reference: yes")
    return 0


def cmd_capacity(args) -> int:
    from . import battery

    scn = _scenario(args)
    caps = battery.characterize(scn)
    header = ["p_c_kW", "p_dc_kW", "e_c_kWh", "e_dc_kWh", "horizon_h"]
    vals = [
        caps.charge_rate_kw,
        caps.discharge_rate_kw,
        caps.charge_energy_kwh,
        caps.discharge_energy_kwh,
        scn.dist.horizon_h,
    ]
    _write(args, "capacity.csv", header, [[v] for v in vals])
    for name, val in zip(header, vals):
        print(f"{name}: {val:.9g}")
    return 0


# ----------------------------------------------------------------- main --

# planner.NORMS, written out so that building the parser does not import
# planner (a test pins them equal)
NORMS = ("two", "one", "inf")


def _two_ints(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected AMPLITUDE,TAU integers, got {text!r}"
        ) from None


def finite(text: str) -> float:
    """Float option type: NaN or inf is a usage error ("invalid finite value")."""
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(text)
    return val


def cycles(text: str) -> float:
    """cycles/h option type, in rad/h: negative or overflowing is a usage error."""
    if not 0.0 <= (val := 2.0 * math.pi * float(text)) <= sys.float_info.max:
        raise ValueError(text)
    return val


def count(text: str) -> int:
    """Integer option type: a negative value is a usage error ("invalid count value")."""
    val = int(text)
    if val < 0:
        raise ValueError(text)
    return val


def _three_floats(text: str) -> tuple[float, float, float]:
    try:
        a, b, c = text.split(",")
        return finite(a), finite(b), finite(c)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected T,W,FRACTION, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="vesflex",
        description="Virtual-energy-storage analysis of flexible loads.",
    )
    top.add_argument(
        "--out-dir", default=".", help="directory for CSV outputs (default: .)"
    )
    top.add_argument("--seed", type=count, default=0, help="RNG seed where sampling is used")
    sub = top.add_subparsers(dest="command", required=True)

    def scenario_args(p):
        p.add_argument(
            "--config",
            default="paper",
            help="config file path or bundled preset name (default: paper)",
        )
        p.add_argument(
            "--dist",
            default=None,
            help="disturbance CSV t_hours,theta_a_C,q_d_kW overriding the config grid",
        )

    p = sub.add_parser("simulate", help="simulate demand and audit comfort")
    scenario_args(p)
    demand = p.add_mutually_exclusive_group()
    demand.add_argument("--power", help="demand CSV t_hours,ref_kw")
    demand.add_argument("--power-const", type=finite, help="constant demand, kW")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("envelope", help="quasi-steady feasible power band")
    scenario_args(p)
    p.add_argument(
        "--verify-samples", type=count, default=0,
        help="draw N random interior trajectories and audit each",
    )
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("freq", help="envelope conservativeness across frequency")
    scenario_args(p)
    p.add_argument(
        "--omega", action="append", type=finite, default=None,
        help="rad/h sample (repeatable; default log sweep)",
    )
    p.add_argument(
        "--omega-cycles", action="append", type=cycles, default=None,
        help="cycles/h sample (repeatable), converted to rad/h",
    )
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("plan", help="track a reference demand inside comfort")
    scenario_args(p)
    p.add_argument("--ref", default=None, help="reference CSV t_hours,ref_kw")
    p.add_argument("--step-kw", type=finite, default=0.2, help="synthetic step height")
    p.add_argument("--step-at", type=finite, default=0.0, help="synthetic step time, h")
    p.add_argument("--norm", choices=NORMS, default="two")
    p.add_argument("--window", type=int, default=None, help="receding-horizon window, steps")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("humidity", help="moist-air coil demand accounting")
    # None means humidity's design state, read in cmd_humidity
    for opt in ("--t-in", "--w-in", "--t-out", "--w-out"):
        p.add_argument(opt, type=finite, default=None)
    p.add_argument("--m-dot", type=finite, default=1.0, help="dry-air flow, kg/s")
    p.add_argument("--eta-chiller", type=finite, default=3.5)
    p.add_argument(
        "--outdoor",
        type=_three_floats,
        default=None,
        metavar="T,W,FRACTION",
        help="mix outdoor air into the inlet before the coil",
    )
    p.set_defaults(func=cmd_humidity)

    p = sub.add_parser("deferrable", help="deferrable contract vs comfort audit")
    scenario_args(p)
    p.add_argument("--arrival", type=finite, default=0.0, help="contract arrival, h")
    p.add_argument("--window", type=finite, required=True, help="completion window, h")
    p.add_argument("--energy", type=finite, default=None, help="required energy, kWh")
    p.add_argument(
        "--sizing-theta-a",
        type=finite,
        default=32.0,
        help="outdoor temperature of the sizing day when --energy is absent",
    )
    p.add_argument(
        "--sizing-q-d",
        type=finite,
        default=1.5,
        help="internal gains of the sizing day when --energy is absent",
    )
    p.add_argument("--p-max", type=finite, default=None, help="contract power ceiling, kW")
    p.set_defaults(func=cmd_deferrable)

    p = sub.add_parser("ensemble", help="pulse-pair fleet tracking a slotted reference")
    reference = p.add_mutually_exclusive_group(required=True)
    reference.add_argument("--ref", help="comma-separated integer reference, or a CSV slot,units")
    reference.add_argument("--triangle", type=int, help="staircase triangle peak")
    reference.add_argument(
        "--square", type=_two_ints, metavar="AMPLITUDE,TAU",
        help="square wave amplitude and half-period in slots",
    )
    p.add_argument("--n-loads", type=count, default=None, help="fleet size (default: minimum)")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("capacity", help="virtual-battery rate and energy capacities")
    scenario_args(p)
    p.set_defaults(func=cmd_capacity)

    return top


def main(argv: "list[str] | None" = None) -> int:
    """Run one subcommand and return its exit code.

    Run as the program (argv None), main switches the cyclic garbage
    collector off for the run, which is short and makes few cycles, and
    freezes its objects before it returns, so the collections of the
    interpreter's exit skip everything the run imported and made; an
    in-process caller that passes argv keeps normal collection.
    """
    if argv is None:
        gc.disable()
    code = _run(argv)
    if argv is None:
        gc.freeze()
    return code


def _run(argv: "list[str] | None") -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error argparse has printed
        return exc.code
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VesflexError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
