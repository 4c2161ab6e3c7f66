"""Command-line surface: config parsing, subcommands, exit codes, CSV output."""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import vesflex as vf
from vesflex import cli
from vesflex.csvio import write_csv


SHORT_CONFIG = """\
# compact run for tests
[thermal]
r_C_per_kW = 2.707
c_kWh_per_C = 1.283
eta_cop = 3.5
p_rated_kW = 2.2729431632276107

[comfort]
theta_min_C = 23.0
theta_max_C = 25.0

[scenario]
theta_sp_C = 24.0
theta0_C = 24.0
theta_a_C = 32.0
q_d_kW = 1.5
dt_h = 0.016666666666666666
horizon_h = {horizon}
"""


@pytest.fixture
def short_config(tmp_path):
    path = tmp_path / "short.toml"
    path.write_text(SHORT_CONFIG.format(horizon="0.5"))
    return str(path)


def _run(*argv):
    # --out-dir and --seed are global options and belong before the
    # subcommand; hoisting them here keeps the call sites readable
    pre, rest, it = [], [], iter(argv)
    for a in it:
        if a in ("--out-dir", "--seed"):
            pre += [a, str(next(it))]
        else:
            rest.append(str(a))
    return cli.main(pre + rest)


def test_parse_config_text_types(tmp_path):
    # tomllib reads the file; scenario_from_config then refuses non-numbers
    text = "[a]\nx = 1\ny = 2.5  # trailing comment\n\n[b]\nw = -3\n"
    path = _put(tmp_path / "types.toml", text)
    cfg = cli.load_config(str(path))
    assert cfg == {"a": {"x": 1, "y": 2.5}, "b": {"w": -3}}
    assert [type(cfg["a"]["x"]), type(cfg["a"]["y"])] == [int, float]


def test_parse_config_text_rejects_garbage(tmp_path):
    for text in ("x 1\n", "[a\nx = 1\n", b"[a]\nx = 1 # \xff\n"):
        path = _put(tmp_path / "garbage.toml", text)
        with pytest.raises(vf.InputError, match="garbage.toml"):
            cli.load_config(str(path))


def test_load_config_bundled_preset():
    cfg = cli.load_config("paper")
    assert cfg["thermal"]["r_C_per_kW"] == 2.707
    assert cfg["scenario"]["horizon_h"] == 10.0


def test_load_config_missing():
    with pytest.raises(vf.InputError):
        cli.load_config("no-such-preset")


def test_scenario_from_config(short_config):
    scn = cli.scenario_from_config(cli.load_config(short_config))
    assert scn.n_steps == 30
    assert scn.params.r_thermal == 2.707


def test_simulate_roundtrip(tmp_path, short_config, capsys):
    out = tmp_path / "out"
    assert _run("simulate", "--config", short_config, "--out-dir", str(out)) == 0
    data = np.loadtxt(out / "simulate.csv", delimiter=",", skiprows=1)
    assert data.shape == (30, 3)
    # baseline holds the setpoint, and %.17g round-trips exactly
    scn = cli.scenario_from_config(cli.load_config(short_config))
    assert np.array_equal(data[:, 1], scn.baseline().power.values)
    assert np.all(data[:, 2] == 24.0)
    assert "ok" in capsys.readouterr().out


def test_simulate_reports_first_violation(tmp_path, short_config, capsys):
    # with the unit off the hot zone warms past 25 C inside half an hour
    rc = _run(
        "simulate", "--config", short_config, "--power-const", "0",
        "--out-dir", str(tmp_path / "x"),
    )
    assert rc == 0
    scn = cli.scenario_from_config(cli.load_config(short_config))
    v = vf.is_member(vf.Trajectory(scn.dt, np.zeros(scn.n_steps)), scn)
    line = (
        f"qos: violated channel=theta index={v.first_violation_index} "
        f"value={v.value:.6g} limit=25\n"
    )
    assert line in capsys.readouterr().out


def test_a_huge_slack_no_longer_switches_the_audit_off(tmp_path, capsys):
    # --atol 1e300 once passed 100 kW on the paper unit's 2.27 kW as "qos: ok"
    out = tmp_path / "out"
    argv = ["simulate", "--config", "paper", "--power-const", "100", "--out-dir", out]
    assert _run(*argv, "--atol", "1e300") == 2
    assert "unrecognized arguments: --atol 1e300" in capsys.readouterr().err
    assert _run(*argv) == 2
    assert capsys.readouterr() == (
        "", "error: p[0] = 100 kW outside [0, 2.2729431632276107] kW by 97.7 kW\n"
    )
    assert not out.exists()


def test_simulate_paper_simulates_once(tmp_path, monkeypatch):
    # the CSV's temperature and the comfort verdict share one re-simulation;
    # count it in every vesflex namespace that imports simulate.  The cli
    # imports flexset only when a subcommand runs; load it first, or it would
    # bind the spy from thermal and keep it once the test has ended
    importlib.import_module("vesflex.flexset")
    real = vf.simulate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "vesflex" and getattr(module, "simulate", None) is real:
            monkeypatch.setattr(module, "simulate", counted)
    assert _run("simulate", "--config", "paper", "--out-dir", str(tmp_path)) == 0
    assert len(calls) == 1


def test_simulate_reads_power_csv(tmp_path, short_config):
    # the demand file is simulated as given: its column comes back as p_kw
    power = np.linspace(0.5, 2.0, 30)
    rows = "".join(f"{k / 60!r},{v!r}\n" for k, v in enumerate(power.tolist()))
    path = _put(tmp_path / "power.csv", "t_hours,ref_kw\n" + rows)
    out = tmp_path / "out"
    assert _run("simulate", "--config", short_config, "--power", path, "--out-dir", out) == 0
    data = np.loadtxt(out / "simulate.csv", delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], power)


def test_simulate_rejects_out_of_range_power(tmp_path, short_config):
    rc = _run(
        "simulate", "--config", short_config, "--power-const", "9.0",
        "--out-dir", str(tmp_path / "x"),
    )
    assert rc == 2


def test_envelope_with_verification(tmp_path, short_config):
    out = tmp_path / "env"
    rc = _run(
        "envelope", "--config", short_config, "--out-dir", str(out),
        "--verify-samples", "10", "--seed", "3",
    )
    assert rc == 0
    header = (out / "envelope.csv").read_text().splitlines()[0]
    assert header == "t_hours,p_lo_kw,p_hi_kw,empty"


def test_envelope_verification_computes_envelope_once(tmp_path, monkeypatch):
    from vesflex import flexset

    calls = []
    real = flexset.envelope
    monkeypatch.setattr(flexset, "envelope", lambda scn: calls.append(scn) or real(scn))
    rc = _run(
        "envelope", "--config", "paper", "--out-dir", str(tmp_path / "env"),
        "--verify-samples", "3",
    )
    assert rc == 0
    assert len(calls) == 1


def test_envelope_exits_1_when_an_interior_draw_breaks_comfort(tmp_path, monkeypatch, capsys):
    from vesflex import flexset

    broken = vf.Verdict(False, first_violation_index=1, value=25.5, limit=25.0)
    monkeypatch.setattr(flexset, "is_member", lambda p, scn: broken)
    rc = _run("envelope", "--config", "paper", "--out-dir", tmp_path / "env",
              "--verify-samples", "3")
    assert rc == 1
    assert "interior draws violating comfort: 3/3\n" in capsys.readouterr().out


def test_a_solver_failure_is_one_failed_line_exit_1_and_no_csv(tmp_path, monkeypatch, capsys):
    from vesflex import battery

    says = "charge profile leaves the comfort band at sample 7"

    def fails(scn):
        raise vf.SolverError(says)

    monkeypatch.setattr(battery, "characterize", fails)
    out = tmp_path / "cap"
    assert _run("capacity", "--config", "paper", "--out-dir", out) == 1
    assert capsys.readouterr() == ("", f"failed: {says}\n")
    assert not out.exists()


def test_freq_reports_static_limit(tmp_path, short_config, capsys):
    assert _run("freq", "--config", short_config, "--out-dir", str(tmp_path / "f")) == 0
    out = capsys.readouterr().out
    assert "a_max(omega=0)" in out
    assert "0.105546" in out


def test_plan_step_reference(tmp_path, short_config):
    out = tmp_path / "plan"
    rc = _run(
        "plan", "--config", short_config, "--step-kw", "0.2", "--step-at", "0.25",
        "--norm", "inf", "--out-dir", str(out),
    )
    assert rc == 0
    data = np.loadtxt(out / "plan.csv", delimiter=",", skiprows=1)
    assert data.shape == (30, 4)


@pytest.mark.parametrize("step_at", ["-0.05", "nan"])
def test_plan_rejects_bad_step_time(tmp_path, short_config, step_at):
    # a negative time used to index the step from the end of the horizon
    out = tmp_path / "plan"
    rc = _run(
        "plan", "--config", short_config, "--step-kw", "0.2", f"--step-at={step_at}",
        "--out-dir", str(out),
    )
    assert rc == 2
    assert not (out / "plan.csv").exists()


def test_plan_step_past_the_horizon_is_no_step(tmp_path, short_config):
    # however late, a step time past the horizon leaves the reference at baseline
    out = tmp_path / "plan"
    rc = _run(
        "plan", "--config", short_config, "--step-kw", "0.2", "--step-at", "1e308",
        "--out-dir", str(out),
    )
    assert rc == 0
    data = np.loadtxt(out / "plan.csv", delimiter=",", skiprows=1)
    scn = cli.scenario_from_config(cli.load_config(short_config))
    assert np.array_equal(data[:, 1], scn.baseline().power.values)


def test_plan_window_writes_the_receding_horizon_plan(tmp_path, short_config, capsys):
    out = tmp_path / "plan"
    rc = _run(
        "plan", "--config", short_config, "--step-kw", "0.2", "--step-at", "0.25",
        "--window", "10", "--out-dir", str(out),
    )
    assert rc == 0
    data = np.loadtxt(out / "plan.csv", delimiter=",", skiprows=1)
    scn = cli.scenario_from_config(cli.load_config(short_config))
    result = vf.receding_horizon(scn, vf.Trajectory(scn.dt, data[:, 1]), 10)
    assert np.array_equal(data[:, 2], result.p.values)
    assert f"norm: two  solves: {result.solves}\n" in capsys.readouterr().out
    # the step is feasible, so most windows keep the last plan unsolved
    assert 1 <= result.solves < scn.n_steps
    assert _run("plan", "--config", short_config, "--window", "0",
                "--out-dir", str(tmp_path / "zero")) == 2
    assert not (tmp_path / "zero").exists()


def test_plan_paper_window_60_solves_one_window(tmp_path, capsys, monkeypatch):
    # the 0.2 kW step rides the cold edge; every window after the first is
    # continued from the last plan's active set without an interior point
    from vesflex import planner

    solves, real = [], planner._plan_two
    monkeypatch.setattr(planner, "_plan_two", lambda *a: solves.append(1) or real(*a))
    rc = _run("plan", "--config", "paper", "--step-kw", "0.2", "--window", "60",
              "--out-dir", str(tmp_path))
    assert rc == 0
    assert "norm: two  solves: 1\n" in capsys.readouterr().out
    assert len(solves) == 1


def test_plan_reads_reference_csv(tmp_path, short_config):
    scn = cli.scenario_from_config(cli.load_config(short_config))
    ref = scn.baseline().power.values + 0.05
    ref_path = tmp_path / "ref.csv"
    lines = ["t_hours,ref_kw"]
    lines += [f"{k * scn.dt:.17g},{v:.17g}" for k, v in enumerate(ref)]
    ref_path.write_text("\n".join(lines) + "\n")
    rc = _run(
        "plan", "--config", short_config, "--ref", str(ref_path),
        "--out-dir", str(tmp_path / "out"),
    )
    assert rc == 0


def test_plan_rejects_wrong_length_reference(tmp_path, short_config):
    ref_path = tmp_path / "ref.csv"
    ref_path.write_text("t_hours,ref_kw\n0.0,1.0\n")
    rc = _run(
        "plan", "--config", short_config, "--ref", str(ref_path),
        "--out-dir", str(tmp_path / "out"),
    )
    assert rc == 2


def test_humidity_design_point(tmp_path, capsys):
    out = tmp_path / "h"
    assert _run("humidity", "--out-dir", str(out)) == 0
    rows = dict(
        line.split(",") for line in (out / "humidity.csv").read_text().splitlines()[1:]
    )
    assert float(rows["coil_kw"]) == pytest.approx(23.075715759999998, rel=1e-12)
    assert float(rows["latent_fraction"]) == pytest.approx(0.5037963376507368, rel=1e-12)


def test_humidity_with_outdoor_mixing(tmp_path):
    out = tmp_path / "h"
    rc = _run("humidity", "--outdoor", "32.0,0.02,0.3", "--out-dir", str(out))
    assert rc == 0
    rows = dict(
        line.split(",") for line in (out / "humidity.csv").read_text().splitlines()[1:]
    )
    assert float(rows["t_in_C"]) == pytest.approx(26.323, rel=1e-12)


# `humidity --help` at 80 columns: the design states that --t-in, --w-in,
# --t-out and --w-out default to are filled in by cmd_humidity, not shown
HUMIDITY_HELP = """\
usage: vesflex humidity [-h] [--t-in T_IN] [--w-in W_IN] [--t-out T_OUT]
                        [--w-out W_OUT] [--m-dot M_DOT]
                        [--eta-chiller ETA_CHILLER] [--outdoor T,W,FRACTION]

options:
  -h, --help            show this help message and exit
  --t-in T_IN
  --w-in W_IN
  --t-out T_OUT
  --w-out W_OUT
  --m-dot M_DOT         dry-air flow, kg/s
  --eta-chiller ETA_CHILLER
  --outdoor T,W,FRACTION
                        mix outdoor air into the inlet before the coil
"""


def test_humidity_help_text_is_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _run("humidity", "--help") == 0
    assert capsys.readouterr().out == HUMIDITY_HELP


def test_humidity_defaults_are_the_design_states(tmp_path):
    design = {
        "--t-in": vf.DESIGN_RETURN_AIR.t_c, "--w-in": vf.DESIGN_RETURN_AIR.w,
        "--t-out": vf.DESIGN_SUPPLY_AIR.t_c, "--w-out": vf.DESIGN_SUPPLY_AIR.w,
    }

    def csv(name, *argv):
        assert _run("humidity", *argv, "--out-dir", tmp_path / name) == 0
        return (tmp_path / name / "humidity.csv").read_bytes()

    default = csv("default")
    every = [arg for opt, value in design.items() for arg in (opt, repr(value))]
    assert csv("all", *every) == default
    for opt, value in design.items():
        assert csv(f"{opt}-design", opt, repr(value)) == default, opt
        # and the option is read: another value changes the answer
        assert csv(f"{opt}-other", opt, repr(value + 0.001)) != default, opt


# humidity inputs whose result overflowed: each run wrote coil_kw,inf or
# electric_kw,inf and exited 0, or was refused under the internal name latent
OVERFLOWING_HUMIDITY = {
    "m-dot": (["--m-dot", "1e308"], "m_dot_kg_s 1e+308 overflows the coil thermal power"),
    "m-dot-and-cop": (
        ["--m-dot", "1e308", "--eta-chiller", "1e-308"],
        "m_dot_kg_s 1e+308 overflows the coil thermal power",
    ),
    "cop": (["--eta-chiller", "1e-308"], "eta_chiller 1e-308 overflows the electric demand"),
    "w-in": (["--w-in", "1e306"], "w 1e+306 overflows the specific enthalpy"),
}


@pytest.mark.parametrize("case", OVERFLOWING_HUMIDITY)
def test_an_overflowing_humidity_result_is_refused_by_its_input(tmp_path, case, capsys):
    argv, says = OVERFLOWING_HUMIDITY[case]
    out = tmp_path / "h"
    assert _run("humidity", *argv, "--out-dir", out) == 2
    assert capsys.readouterr() == ("", f"error: {says}\n")
    assert not out.exists()


def test_deferrable_sized_from_baseline(tmp_path, short_config, capsys):
    rc = _run(
        "deferrable", "--config", short_config, "--arrival", "0", "--window", "0.5",
        "--out-dir", str(tmp_path / "d"),
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "contract" in out and "comfort" in out


def test_deferrable_infeasible_contract(tmp_path, short_config):
    rc = _run(
        "deferrable", "--config", short_config, "--arrival", "0", "--window", "0.5",
        "--energy", "99.0", "--out-dir", str(tmp_path / "d"),
    )
    assert rc == 1


def test_ensemble_inline_reference(tmp_path, capsys):
    rc = _run("ensemble", "--ref", "1,1,-1,-1", "--out-dir", str(tmp_path / "e"))
    assert rc == 0
    out = capsys.readouterr().out
    assert "min loads: 3" in out


def test_ensemble_triangle(tmp_path, capsys):
    rc = _run("ensemble", "--triangle", "5", "--out-dir", str(tmp_path / "e"))
    assert rc == 0
    out = capsys.readouterr().out
    assert "slots: 21" in out
    assert "min loads: 50" in out


def test_ensemble_square(tmp_path, capsys):
    rc = _run("ensemble", "--square", "2,3", "--out-dir", str(tmp_path / "e"))
    assert rc == 0
    assert "min loads: 10" in capsys.readouterr().out


@pytest.mark.parametrize("ref, header", [
    ("0,0,0", b"load,slot_0,slot_1,slot_2\n"),
    ("0", b"load,slot_0\n"),  # one slot: no boundary for a pair to span
])
def test_ensemble_zero_reference_writes_only_the_header(tmp_path, capsys, ref, header):
    # no load is needed, so every column of ensemble.csv is empty
    assert _run("ensemble", "--ref", ref, "--out-dir", str(tmp_path / "e")) == 0
    assert "loads used: 0 of 0" in capsys.readouterr().out
    assert (tmp_path / "e" / "ensemble.csv").read_bytes() == header


def test_ensemble_unbalanced_reference_fails(tmp_path, capsys):
    rc = _run("ensemble", "--ref", "1,1", "--out-dir", str(tmp_path / "e"))
    assert rc == 1


def test_ensemble_reference_from_csv(tmp_path, capsys):
    ref = tmp_path / "ref.csv"
    ref.write_text("slot,units\n0,1\n1,-1\n")
    rc = _run("ensemble", "--ref", str(ref), "--out-dir", str(tmp_path / "e"))
    assert rc == 0
    assert "min loads: 1" in capsys.readouterr().out


def test_a_units_cell_from_2_53_up_is_refused_by_file_and_row(tmp_path, capsys):
    # a float cell of 9007199254740993 reads as ...992, which min loads once printed
    ref = _put(tmp_path / "ref.csv", "slot,units\n0,1\n1,9007199254740993\n2,-9007199254740994\n")
    assert _run("ensemble", "--ref", ref, "--out-dir", tmp_path / "e") == 2
    says = f"error: {ref}: row of slot 1: a units cell of magnitude 2**53 or more does not hold"
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(says) and len(err.splitlines()) == 1
    # below 2**53 a cell holds its whole units; the fleet cap then refuses the table
    _put(ref, "slot,units\n0,9007199254740991\n1,-9007199254740991\n")
    assert _run("ensemble", "--ref", ref, "--out-dir", tmp_path / "e") == 2
    assert "min loads: 9007199254740991\n" in capsys.readouterr().out


def test_capacity_csv_schema(tmp_path, short_config):
    out = tmp_path / "cap"
    assert _run("capacity", "--config", short_config, "--out-dir", str(out)) == 0
    lines = (out / "capacity.csv").read_text().splitlines()
    assert lines[0] == "p_c_kW,p_dc_kW,e_c_kWh,e_dc_kWh,horizon_h"
    vals = [float(v) for v in lines[1].split(",")]
    assert len(vals) == 5
    assert vals[0] == pytest.approx(1.0, abs=1e-9)
    assert vals[4] == pytest.approx(0.5)


def test_capacity_reruns_byte_identical(tmp_path, short_config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert _run("capacity", "--config", short_config, "--out-dir", str(out_a)) == 0
    assert _run("capacity", "--config", short_config, "--out-dir", str(out_b)) == 0
    assert (out_a / "capacity.csv").read_bytes() == (out_b / "capacity.csv").read_bytes()


@pytest.mark.parametrize("window", [None, "10"])
@pytest.mark.parametrize("norm", ["two", "one", "inf"])
def test_plan_reruns_byte_identical(tmp_path, short_config, capsys, norm, window):
    # the 0.2 kW step rides the band's edge in every norm, one-shot and rolling
    argv = ["plan", "--config", short_config, "--norm", norm, "--step-kw", "0.2",
            "--step-at", "0.25"] + (["--window", window] if window else [])
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run(*argv, "--out-dir", out) == 0
        printed = capsys.readouterr()
        assert printed.err == ""
        runs.append(((out / "plan.csv").read_bytes(), printed.out.replace(str(out), "OUT")))
    assert runs[0] == runs[1]
    assert f"norm: {norm}  solves: " in runs[0][1]


@pytest.mark.parametrize(
    "command", ["simulate", "capacity", "plan", "envelope", "freq", "deferrable"]
)
@pytest.mark.parametrize("key", ["w_min", "w_max", "tau_lock_h"])
def test_a_retired_comfort_key_is_refused_by_name(tmp_path, command, key, capsys):
    # the temperature band is the one comfort contract: no subcommand
    # simulates humidity or switching, so their keys are unknown, not ignored
    text = SHORT_CONFIG.format(horizon="0.5").replace(
        "theta_max_C = 25.0\n", f"theta_max_C = 25.0\n{key} = 0.25\n"
    )
    path = tmp_path / "channels.toml"
    path.write_text(text)
    out = tmp_path / "o"
    args = ["--window", "0.5"] if command == "deferrable" else []
    assert _run(command, "--config", str(path), *args, "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == f"error: unknown config entries: [comfort] {key}\n"
    assert not out.exists() or not any(out.iterdir())


def _put(path, data):
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return path


_REF_ROWS = "".join(f"{k / 60!r},1.0\n" for k in range(30))
_OFF_GRID_ROWS = "".join(f"{k / 30!r},1.0\n" for k in range(30))  # 2 min apart, not 1
_DIST = "t_hours,theta_a_C,q_d_kW\n"
# one-minute stamps after t = 0 sit 0.9e-9 h late, so t_1 - t_0 is a step
# 0.9e-9 h too long and stamp k drifts (k - 1) * 0.9e-9 h off its grid
_LATE_ROWS = "".join(f"{k / 60 + (0.9e-9 if k else 0.0)!r},32,1.5\n" for k in range(10))
# every step after the first is 0.9e-9 h too long: each step is within the
# tolerance of the first, yet stamp k sits (k - 1) * 0.9e-9 h off its grid
_DRIFT_ROWS = "".join(f"{k / 60 + max(k - 1, 0) * 0.9e-9!r},32,1.5\n" for k in range(10))
# theta_a + R q_d overflows a float at every step
_HUGE_ROWS = "".join(f"{k / 60!r},1e308,1e308\n" for k in range(5))
_SHORT = SHORT_CONFIG.format(horizon="0.5")
# a step so short that exp(-dt/RC) rounds to 1: demand no longer moves theta
_DECAY_OF_ONE = SHORT_CONFIG.format(horizon="1e-15").replace(
    "dt_h = 0.016666666666666666", "dt_h = 1e-17"
)
# a COP so large that the square of one step's input gain overflows
_GAIN_OVERFLOWS = _SHORT.replace("eta_cop = 3.5", "eta_cop = 1e308")
# a COP so small that rated demand moves theta 3e-10 C per step
_GAIN_VANISHES = _SHORT.replace("eta_cop = 3.5", "eta_cop = 1e-8")

# each builds its inputs in a directory and returns the argv that reads them
MALFORMED_INPUTS = {
    "dist-missing": lambda d: ["simulate", "--dist", d / "none.csv"],
    "config-directory": lambda d: ["capacity", "--config", d],
    "config-not-utf8": lambda d: [
        "capacity", "--config", _put(d / "c.toml", b"[thermal]\neta_cop = 3.5 # \xff\n"),
    ],
    "dist-not-utf8": lambda d: [
        "simulate", "--dist", _put(d / "dist.csv", b"t_hours,theta_a_C,q_d_kW\n0,32,1.5 \xff\n"),
    ],
    "ref-not-utf8": lambda d: [
        "plan", "--config", _put(d / "s.toml", _SHORT),
        "--ref", _put(d / "ref.csv", ("t_hours,ref_kw\n" + _REF_ROWS).encode() + b"\xff\n"),
    ],
    "ensemble-ref-directory": lambda d: ["ensemble", "--ref", d],
    "out-dir-is-a-file": lambda d: ["humidity", "--out-dir", _put(d / "taken", "")],
    "ref-wrong-header": lambda d: [
        "plan", "--config", _put(d / "s.toml", _SHORT),
        "--ref", _put(d / "ref.csv", "time,kw\n" + _REF_ROWS),
    ],
    "dist-late-start": lambda d: [
        "simulate", "--dist",
        _put(d / "dist.csv", "t_hours,theta_a_C,q_d_kW\n5,32,1.5\n5.5,32,1.5\n6,32,1.5\n"),
    ],
    "dist-one-row": lambda d: ["simulate", "--dist", _put(d / "dist.csv", _DIST + "0,32,1.5\n")],
    "dist-stamps-decrease": lambda d: [
        "simulate", "--dist", _put(d / "dist.csv", _DIST + "0,32,1.5\n-0.5,32,1.5\n"),
    ],
    "dist-uneven-steps": lambda d: [
        "simulate", "--dist", _put(d / "dist.csv", _DIST + "0,32,1.5\n0.5,32,1.5\n1.5,32,1.5\n"),
    ],
    "dist-stamps-late": lambda d: ["simulate", "--dist", _put(d / "dist.csv", _DIST + _LATE_ROWS)],
    "dist-steps-drift": lambda d: [
        "simulate", "--dist", _put(d / "dist.csv", _DIST + _DRIFT_ROWS),
    ],
    "dist-forcing-overflows": lambda d: [
        "capacity", "--config", "paper",
        "--dist", _put(d / "big.csv", _DIST + _HUGE_ROWS),
    ],
    "dist-ragged-row": lambda d: [
        "simulate", "--dist",
        _put(d / "dist.csv", "t_hours,theta_a_C,q_d_kW\n0,32,1.5\n0.5,32,1.5,9\n1,32,1.5\n"),
    ],
    "ensemble-fractional-units": lambda d: [
        "ensemble", "--ref", _put(d / "ref.csv", "slot,units\n0,0.6\n1,-0.6\n"),
    ],
    "ensemble-slots-out-of-order": lambda d: [
        "ensemble", "--ref", _put(d / "ref.csv", "slot,units\n1,1\n0,-1\n"),
    ],
    "config-unknown-key": lambda d: [
        "simulate", "--config",
        _put(d / "typo.toml", _SHORT.replace("theta0_C = 24.0", "theta0 = 23.2")),
    ],
    "config-bool-value": lambda d: [
        "capacity", "--config",
        _put(d / "b.toml", _SHORT.replace("eta_cop = 3.5", "eta_cop = true")),
    ],
    "config-string-value": lambda d: [
        "capacity", "--config",
        _put(d / "s.toml", _SHORT.replace("theta_min_C = 23.0", 'theta_min_C = "23"')),
    ],
    "config-duplicate-key": lambda d: [
        "capacity", "--config", _put(d / "d.toml", _SHORT + "q_d_kW = 0.5\n"),
    ],
    "config-nan-step": lambda d: [
        "capacity", "--config",
        _put(d / "n.toml", _SHORT.replace("dt_h = 0.016666666666666666", "dt_h = nan")),
    ],
    "config-decay-of-one": lambda d: ["plan", "--config", _put(d / "z.toml", _DECAY_OF_ONE)],
    "config-gain-overflows": lambda d: [
        "plan", "--norm", "two", "--config", _put(d / "g.toml", _GAIN_OVERFLOWS),
    ],
    "config-gain-vanishes": lambda d: [
        "plan", "--norm", "two", "--config", _put(d / "v.toml", _GAIN_VANISHES),
    ],
    "config-huge-horizon": lambda d: [
        "capacity", "--config",
        _put(d / "h.toml", _SHORT.replace("horizon_h = 0.5", "horizon_h = 1e308")),
    ],
    "config-horizon-1e13": lambda d: [
        "capacity", "--config",
        _put(d / "h.toml", _SHORT.replace("horizon_h = 0.5", "horizon_h = 1e13")),
    ],
    "config-horizon-1e200": lambda d: [
        "capacity", "--config",
        _put(d / "h.toml", _SHORT.replace("horizon_h = 0.5", "horizon_h = 1e200")),
    ],
    "deferrable-huge-window": lambda d: [
        "deferrable", "--config", _put(d / "s.toml", _SHORT), "--window", "1e308",
    ],
    "deferrable-arrival-past-grid": lambda d: [
        "deferrable", "--config", _put(d / "s.toml", _SHORT),
        "--window", "0.25", "--arrival", "1e308",
    ],
    "deferrable-huge-energy": lambda d: [
        "deferrable", "--config", _put(d / "s.toml", _SHORT),
        "--window", "1e308", "--energy", "1e308", "--p-max", "1",
    ],
    "config-key-outside-section": lambda d: [
        "capacity", "--config",
        _put(d / "o.toml", "thermal = 1\n" + _SHORT[_SHORT.index("[comfort]"):]),
    ],
    "config-missing-key": lambda d: [
        "capacity", "--config", _put(d / "m.toml", _SHORT.replace("eta_cop = 3.5\n", "")),
    ],
    "power-off-grid": lambda d: [
        "simulate", "--config", _put(d / "s.toml", _SHORT),
        "--power", _put(d / "power.csv", "t_hours,ref_kw\n" + _OFF_GRID_ROWS),
    ],
    "ensemble-ref-not-integers": lambda d: ["ensemble", "--ref", "1,a"],
    # these ended in an OverflowError or numpy's _ArrayMemoryError traceback
    "ensemble-ref-past-int64": lambda d: [
        "ensemble", "--ref", f"{10**19},{-10**19}",
    ],
    "ensemble-square-past-int64": lambda d: ["ensemble", "--square", f"{10**21},2"],
    "ensemble-fleet-past-the-cap": lambda d: [
        "ensemble", "--triangle", "1", "--n-loads", str(10**15),
    ],
    "ensemble-triangle-past-the-cap": lambda d: ["ensemble", "--triangle", str(10**15)],
    "ensemble-square-past-the-cap": lambda d: ["ensemble", "--square", f"1,{10**15}"],
    "plan-ref-far-outside": lambda d: [
        "plan", "--config", _put(d / "s.toml", _SHORT), "--step-kw", "1e24",
    ],
    "freq-setpoint-on-band-edge": lambda d: [
        "freq", "--config",
        _put(d / "e.toml", _SHORT.replace("theta_sp_C = 24.0", "theta_sp_C = 25.0")),
    ],
    "freq-baseline-below-zero": lambda d: [
        "freq", "--config", _put(d / "b.toml", _SHORT.replace(
            "theta_a_C = 32.0", "theta_a_C = 20.0").replace("q_d_kW = 1.5", "q_d_kW = 0.0")),
    ],
}

# the file each of these inputs is read from, which its error must name, and the fault
FILE_ERRORS = {
    "config-not-utf8": ("c.toml", "'utf-8' codec"),
    "dist-not-utf8": ("dist.csv", "'utf-8' codec"),
    "ref-not-utf8": ("ref.csv", "'utf-8' codec"),
    "power-off-grid": (
        "power.csv", "time stamp 1 is 0.0333333333333 h, off the grid's 0.0166666666667 h"
    ),
    "dist-late-start": ("dist.csv", "time stamp 0 is 5 h, off the grid's 0 h"),
    "dist-one-row": ("dist.csv", "need at least 2 samples"),
    "dist-stamps-decrease": ("dist.csv", "time stamps must increase"),
    "dist-uneven-steps": ("dist.csv", "time stamp 2 is 1.5 h, off the grid's 1 h"),
    "dist-stamps-late": (
        "dist.csv", "time stamp 3 is 0.0500000009 h, off the grid's 0.0500000027 h"
    ),
    "dist-steps-drift": ("dist.csv", "time stamp 3 is 0.0500000018 h, off the grid's 0.05 h"),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_exits_2_without_output(tmp_path, case, capsys):
    argv = MALFORMED_INPUTS[case](tmp_path)
    if "--out-dir" not in argv:
        argv += ["--out-dir", tmp_path / "out"]
    before = set(tmp_path.rglob("*"))
    assert _run(*argv) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == err.splitlines()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert set(tmp_path.rglob("*")) == before
    if case in FILE_ERRORS:
        name, fault = FILE_ERRORS[case]
        assert f"error: {tmp_path / name}: {fault}" in err


# each subcommand that reads a config
_CONFIG_COMMANDS = [
    ["simulate"], ["envelope"], ["freq"], ["deferrable", "--window", "4"], ["capacity"],
    *(["plan", "--norm", norm] for norm in cli.NORMS),
]


@pytest.mark.parametrize("argv", _CONFIG_COMMANDS)
def test_a_step_whose_decay_rounds_to_one_is_refused_by_name(tmp_path, argv, capsys):
    # the input gain (1 - a) R eta_cop is 0 here, so step_demand divides by
    # zero: each subcommand that reads a config refuses the step by name
    config = _put(tmp_path / "z.toml", _DECAY_OF_ONE)
    assert _run(*argv, "--config", config, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dt 1e-17 h rounds one step's decay to 1")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", _CONFIG_COMMANDS)
def test_a_gain_whose_square_overflows_is_refused_by_name(tmp_path, argv, capsys):
    # plan --norm two once ended in an OverflowError traceback at gain**2
    config = _put(tmp_path / "g.toml", _GAIN_OVERFLOWS)
    assert _run(*argv, "--config", config, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eta_cop 1e+308 makes one step's gain ")
    assert len(err.splitlines()) == 1 and not (tmp_path / "out").exists()


NON_FINITE_OPTIONS = {
    "simulate-power-const-nan": ["simulate", "--power-const", "nan"],
    "deferrable-window-nan": ["deferrable", "--window", "nan"],
    "humidity-m-dot-nan": ["humidity", "--m-dot", "nan"],
    "plan-step-kw-inf": ["plan", "--step-kw", "inf"],
}


@pytest.mark.parametrize("case", NON_FINITE_OPTIONS)
def test_non_finite_float_option_is_usage_error(tmp_path, case, capsys):
    out = tmp_path / "out"
    assert _run(*NON_FINITE_OPTIONS[case], "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert "invalid finite value" in err and "Traceback" not in err
    assert not out.exists()


NEGATIVE_COUNT_OPTIONS = {
    "seed": ["--seed", "-1", "envelope", "--verify-samples", "2"],
    "verify-samples": ["envelope", "--verify-samples", "-1"],
    "n-loads": ["ensemble", "--triangle", "3", "--n-loads", "-1"],
}


@pytest.mark.parametrize("case", NEGATIVE_COUNT_OPTIONS)
def test_negative_count_option_is_usage_error(tmp_path, case, capsys):
    out = tmp_path / "out"
    assert _run(*NEGATIVE_COUNT_OPTIONS[case], "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "invalid count value: '-1'" in err
    assert "Traceback" not in err
    assert not out.exists()


# options argparse refuses, and what its usage error says
MALFORMED_OPTIONS = {
    "ensemble-square-one-int": (["ensemble", "--square", "3"], "expected AMPLITUDE,TAU"),
    "humidity-outdoor-two-floats": (["humidity", "--outdoor", "1,2"], "expected T,W,FRACTION"),
    # conflicting inputs: the file's demand once ran and the constant was dropped
    "simulate-power-and-power-const": (
        ["simulate", "--power", "p.csv", "--power-const", "9"],
        "argument --power-const: not allowed with argument --power",
    ),
    "ensemble-two-references": (
        ["ensemble", "--triangle", "3", "--square", "2,3"],
        "argument --square: not allowed with argument --triangle",
    ),
    "ensemble-no-reference": (
        ["ensemble"], "one of the arguments --ref --triangle --square is required"
    ),
    # removed: ensemble.csv and stdout are in whole units and slots
    "ensemble-unit-kw": (["ensemble", "--triangle", "3", "--unit-kw", "2"], "--unit-kw"),
    "ensemble-slot-h": (["ensemble", "--triangle", "3", "--slot-h", "2"], "--slot-h"),
    # removed: a deferrable contract has no kind
    "deferrable-kind": (["deferrable", "--window", "4", "--kind", "bucket"], "--kind"),
    # removed: simulate audits at flexset.audit's default slack
    "simulate-atol": (["simulate", "--power-const", "1", "--atol", "1e-6"], "--atol"),
    # removed: freq takes its frequencies in rad/h only
    "freq-omega-cycles": (["freq", "--omega-cycles", "1"], "--omega-cycles"),
    # removed: without --energy, the contract is sized on the one design day
    "deferrable-sizing-theta-a": (
        ["deferrable", "--window", "4", "--sizing-theta-a", "30"], "--sizing-theta-a"
    ),
    "deferrable-sizing-q-d": (["deferrable", "--window", "4", "--sizing-q-d", "1"], "--sizing-q-d"),
}


@pytest.mark.parametrize("case", MALFORMED_OPTIONS)
def test_malformed_option_is_usage_error(tmp_path, case, capsys):
    argv, says = MALFORMED_OPTIONS[case]
    out = tmp_path / "out"
    assert _run(*argv, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and says in err.splitlines()[-1]
    assert "Traceback" not in err
    assert not out.exists()


def test_crlf_disturbance_csv_reads_back(tmp_path):
    # CRLF ends, as csv.writer writes them, read like write_csv's LF ends,
    # and blank lines are skipped
    d = vf.DisturbanceSeries(0.25, 30.0 + 0.1 * np.arange(8), np.linspace(0.5, 1.2, 8))
    columns = [np.arange(len(d)) * d.dt, d.theta_a, d.q_d]
    rows = [f"{t:.17g},{a:.17g},{q:.17g}" for t, a, q in zip(*columns)]
    crlf = "\r\n".join(["t_hours,theta_a_C,q_d_kW"] + rows) + "\r\n"
    for text in (crlf, crlf.replace(rows[3], "\r\n" + rows[3])):
        back = vf.DisturbanceSeries.from_csv(str(_put(tmp_path / "crlf.csv", text.encode())))
        assert back.dt == d.dt
        assert np.array_equal(back.theta_a, d.theta_a) and np.array_equal(back.q_d, d.q_d)
    write_csv(str(tmp_path / "lf.csv"), ["t_hours", "theta_a_C", "q_d_kW"], columns)
    assert (tmp_path / "lf.csv").read_bytes() == crlf.replace("\r\n", "\n").encode()


def test_missing_config_is_usage_error(tmp_path):
    rc = _run("simulate", "--config", str(tmp_path / "nope.toml"),
              "--out-dir", str(tmp_path / "o"))
    assert rc == 2


def test_console_script_help():
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(vf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "vesflex.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_main_freezes_the_collector_only_when_run_as_the_program(tmp_path, monkeypatch):
    # in process, the caller keeps normal collection, during the run and after
    import gc

    frozen = gc.get_freeze_count()
    during = []
    run = cli.cmd_humidity
    monkeypatch.setattr(
        cli, "cmd_humidity", lambda args: during.append(gc.isenabled()) or run(args)
    )
    assert _run("humidity", "--out-dir", str(tmp_path / "in")) == 0
    assert during == [True]
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen
    # the console entry: the subcommand runs with the collector off, and the
    # exit's collections skip what the run made
    src = os.path.dirname(os.path.dirname(vf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    entry = ("import atexit, gc, sys; atexit.register(lambda: print(gc.get_freeze_count()));"
             " from vesflex import cli; run = cli.cmd_humidity;"
             " cli.cmd_humidity = lambda args: print(gc.isenabled()) or run(args);"
             " sys.exit(cli.main())")
    proc = subprocess.run(
        [sys.executable, "-c", entry, "--out-dir", str(tmp_path / "out"), "humidity"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    assert int(lines[-1]) > 0


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_main_gives_blas_one_thread_only_when_run_as_the_program(tmp_path, monkeypatch):
    # in process, the caller's environment is left as it is
    for var in BLAS_THREADS:
        monkeypatch.delenv(var, raising=False)
    assert _run("humidity", "--out-dir", str(tmp_path / "in")) == 0
    assert not any(var in os.environ for var in BLAS_THREADS)
    # the console entry: an unset count is 1 by the time the subcommand runs,
    # and a count the environment sets is kept
    src = os.path.dirname(os.path.dirname(vf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    entry = (f"import os, sys; from vesflex import cli; run = cli.cmd_humidity;"
             f" cli.cmd_humidity = lambda args: print(*map(os.environ.get, {BLAS_THREADS}))"
             f" or run(args); sys.exit(cli.main())")
    for given, seen in (({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "4"}, "4 1 1")):
        proc = subprocess.run(
            [sys.executable, "-c", entry, "--out-dir", str(tmp_path / "out"), "humidity"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path, **given},
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == seen
