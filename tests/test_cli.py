"""Command-line surface: config parsing, subcommands, exit codes, CSV output."""

import os
import subprocess
import sys

import numpy as np
import pytest

import vesflex as vf
from vesflex import cli


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


def test_parse_config_text_types():
    cfg = cli.parse_config_text(
        '[a]\nx = 1\ny = 2.5  # trailing comment\nz = "hello"\nflag = true\n\n[b]\nw = false\n',
        origin="inline",
    )
    assert cfg == {
        "a": {"x": 1, "y": 2.5, "z": "hello", "flag": True},
        "b": {"w": False},
    }


def test_parse_config_text_rejects_garbage():
    with pytest.raises(vf.InputError):
        cli.parse_config_text("x 1\n", origin="inline")
    with pytest.raises(vf.InputError):
        cli.parse_config_text("[a\nx = 1\n", origin="inline")


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


def test_freq_omega_units_agree(tmp_path, short_config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert _run("freq", "--config", short_config, "--omega", "6.283185307179586",
                "--out-dir", str(out_a)) == 0
    assert _run("freq", "--config", short_config, "--omega-cycles", "1",
                "--out-dir", str(out_b)) == 0
    a = np.loadtxt(out_a / "freq.csv", delimiter=",", skiprows=1)
    b = np.loadtxt(out_b / "freq.csv", delimiter=",", skiprows=1)
    assert np.array_equal(a, b)


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


def test_ensemble_unbalanced_reference_fails(tmp_path, capsys):
    rc = _run("ensemble", "--ref", "1,1", "--out-dir", str(tmp_path / "e"))
    assert rc == 1


def test_ensemble_reference_from_csv(tmp_path, capsys):
    ref = tmp_path / "ref.csv"
    ref.write_text("slot,units\n0,1\n1,-1\n")
    rc = _run("ensemble", "--ref", str(ref), "--out-dir", str(tmp_path / "e"))
    assert rc == 0
    assert "min loads: 1" in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "command", ["simulate", "capacity", "plan", "envelope", "freq", "deferrable"]
)
@pytest.mark.parametrize(
    "extra",
    ["w_min = 0.008\nw_max = 0.012\n", "tau_lock_h = 0.25\n"],
    ids=["humidity", "lockout"],
)
def test_unenforceable_comfort_channels_are_usage_errors(tmp_path, command, extra, capsys):
    # no subcommand simulates humidity or switching, so every one that
    # reads a config refuses those bounds rather than ignoring them
    text = SHORT_CONFIG.format(horizon="0.5").replace(
        "theta_max_C = 25.0\n", "theta_max_C = 25.0\n" + extra
    )
    path = tmp_path / "channels.toml"
    path.write_text(text)
    out = tmp_path / "o"
    args = ["--window", "0.5"] if command == "deferrable" else []
    assert _run(command, "--config", str(path), *args, "--out-dir", str(out)) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


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
