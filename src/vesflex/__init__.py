"""Virtual energy storage from flexible loads.

An HVAC zone whose demand may deviate from baseline behaves like a battery:
the deviation charges and discharges thermal margin instead of electrons.
This package models that equivalence end to end: the zone thermal response,
comfort contracts, conservative power envelopes and their frequency-domain
cost, demand planners, moist-air corrections, the deferrable-load contrast,
pulse-pair ensembles, and virtual-battery capacity numbers.
"""

from .battery import (
    VirtualBatteryCaps,
    bangbang_energy_oracle,
    characterize,
    energy_capacities,
    energy_state,
    extremal_profiles,
    rate_capacities,
)
from .deferrable import (
    ContractVerdict,
    CounterexampleResult,
    DeferrableSpec,
    baseline_energy,
    counterexample_check,
    front_loaded_profile,
    spec_feasible,
    trajectory_satisfies,
)
from .ensemble import (
    EnsembleSchedule,
    PulseLoadSpec,
    amplitude_at_timescale,
    amplitude_timescale_curve,
    min_loads,
    pair_counts,
    schedule_tracking,
    square_reference,
    staircase_triangle,
    validate_schedule,
)
from .errors import (
    ChannelMissingError,
    InfeasibleError,
    InputError,
    PowerRangeError,
    ShapeError,
    SolverError,
    VesflexError,
)
from .flexset import (
    ConservativenessPoint,
    FlexEnvelope,
    Scenario,
    conservativeness_curve,
    envelope,
    feasible_band,
    feasible_window,
    is_member,
    sample_interior_trajectories,
)
from .humidity import (
    DESIGN_RETURN_AIR,
    DESIGN_SUPPLY_AIR,
    MoistAirState,
    PsychroConstants,
    coil_thermal_power,
    dry_model_demand_error,
    electric_demand,
    latent_fraction,
    latent_sensible_split,
    mix_air,
    specific_enthalpy,
)
from .planner import (
    NORMS,
    PlanResult,
    plan,
    receding_horizon,
    tracking_error,
)
from .qos import QoSBounds, QoSSignal, Verdict, lockout_count, satisfies
from .solver import (
    BoxQP,
    LinearProgram,
    SolveReport,
    solve_box_qp,
    solve_lp,
)
from .thermal import (
    BaselineResult,
    DisturbanceSeries,
    ThermalParams,
    Trajectory,
    baseline_trajectory,
    decay_factor,
    equilibrium_power,
    fahrenheit_to_celsius,
    max_sine_amplitude,
    simulate,
    steady_sine_amplitude,
    tf_magnitude,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
