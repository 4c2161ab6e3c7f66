"""Virtual energy storage from flexible loads.

An HVAC zone whose demand may deviate from baseline behaves like a battery:
the deviation charges and discharges thermal margin instead of electrons.
This package models that equivalence end to end: the zone thermal response,
comfort contracts, conservative power envelopes and their frequency-domain
cost, demand planners, moist-air corrections, the deferrable-load contrast,
pulse-pair ensembles, and virtual-battery capacity numbers.

Every public name is loaded on first access (PEP 562), so `import vesflex`
imports no submodule and a process pays only for the modules it uses.
"""

import importlib

# each public name, by the module that defines it
_EXPORTS = {
    "battery": ("VirtualBatteryCaps", "bangbang_energy_oracle", "characterize",
                "extremal_profiles"),
    "deferrable": ("ContractVerdict", "CounterexampleResult", "DeferrableSpec",
                   "baseline_energy", "counterexample_check", "front_loaded_profile",
                   "spec_feasible", "trajectory_satisfies"),
    "ensemble": ("EnsembleSchedule", "amplitude_at_timescale", "min_loads", "pair_counts",
                 "schedule_tracking", "square_reference", "staircase_triangle",
                 "validate_schedule"),
    "errors": ("InfeasibleError", "InputError", "PowerRangeError", "ShapeError", "SolverError",
               "VesflexError"),
    "flexset": ("ConservativenessPoint", "FlexEnvelope", "QoSBounds", "Scenario", "Verdict",
                "conservativeness_curve", "envelope", "feasible_band", "is_member",
                "sample_interior_trajectories"),
    "humidity": ("DESIGN_RETURN_AIR", "DESIGN_SUPPLY_AIR", "MoistAirState", "coil_thermal_power",
                 "dry_model_demand_error", "electric_demand", "latent_fraction",
                 "latent_sensible_split", "mix_air", "specific_enthalpy"),
    "planner": ("NORMS", "PlanResult", "plan", "receding_horizon", "tracking_error"),
    "solver": ("BoxQP", "LinearProgram", "SolveReport", "solve_box_qp", "solve_lp"),
    "thermal": ("BaselineResult", "DisturbanceSeries", "ThermalParams", "Trajectory",
                "baseline_trajectory", "decay_factor", "equilibrium_power",
                "max_sine_amplitude", "simulate", "steady_sine_amplitude", "tf_magnitude"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
