"""Distortion analysis and design of diffusive molecular communication links.

A transmitter releases signaling molecules into a 1-D diffusive medium
and a receiver at distance x_r binds them with first-order kinetics.
This package evaluates the frequency response of both stages, condenses
their in-band distortion into two scalar indices (gain spread in dB and
period-normalized delay spread), and inverts those indices into design
rules: how far the receiver may sit for given distortion budgets, and
how high a frequency band a given link can carry cleanly.  Two
independent time-domain solvers (Fourier synthesis and Crank-Nicolson
finite differences) cross-check the frequency-domain picture.

Units: micrometers, seconds, micromolar; angular frequencies in rad/s.
"""

from .systems import (
    ComplexResponse,
    DiffusionChannel,
    FrequencyBand,
    ParameterError,
    ReceptionSystem,
    cascade_gain_db,
    cascade_phase_delay,
    cascade_response,
    diffusion_gain_db,
    diffusion_phase_delay,
    diffusion_response,
    reception_gain_db,
    reception_phase_delay,
    reception_response,
)
from .distortion import (
    DistortionReport,
    EvaluationError,
    NormalizedBand,
    amplitude_distortion,
    channel_report,
    delay_distortion,
    delay_distortion_maxima,
    denormalize_distance,
    diffusion_amplitude_distortion,
    diffusion_amplitude_distortion_normalized,
    diffusion_delay_distortion,
    diffusion_delay_distortion_normalized,
    grid_report,
    log_grid,
    normalize,
    reception_amplitude_distortion,
    reception_amplitude_distortion_normalized,
    reception_delay_distortion,
    reception_delay_distortion_normalized,
)
from .design import (
    CleanBandResult,
    DesignResult,
    DesignSpec,
    InfeasibleBandError,
    distance_bound,
    highest_clean_band,
    reception_cutoff,
)
from .timedomain import (
    ActivationTiming,
    SimulationTrace,
    SineInput,
    SolverConfig,
    SquareWaveInput,
    activation_time,
    default_solver_config,
    simulate_fdm,
    synthesize_fourier,
    write_trace_csv,
)
from .config import (
    ConfigError,
    Scenario,
    SimulationSettings,
    SpeciesRow,
    SweepSettings,
    TableConfig,
    load_scenario,
    load_table,
    scenario_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # systems
    "ComplexResponse", "DiffusionChannel", "FrequencyBand", "ParameterError",
    "ReceptionSystem", "cascade_gain_db", "cascade_phase_delay",
    "cascade_response", "diffusion_gain_db", "diffusion_phase_delay",
    "diffusion_response", "reception_gain_db", "reception_phase_delay",
    "reception_response",
    # distortion
    "DistortionReport", "EvaluationError", "NormalizedBand",
    "amplitude_distortion", "channel_report", "delay_distortion",
    "delay_distortion_maxima", "denormalize_distance",
    "diffusion_amplitude_distortion",
    "diffusion_amplitude_distortion_normalized", "diffusion_delay_distortion",
    "diffusion_delay_distortion_normalized", "grid_report", "log_grid",
    "normalize", "reception_amplitude_distortion",
    "reception_amplitude_distortion_normalized", "reception_delay_distortion",
    "reception_delay_distortion_normalized",
    # design
    "CleanBandResult", "DesignResult", "DesignSpec", "InfeasibleBandError",
    "distance_bound", "highest_clean_band", "reception_cutoff",
    # timedomain
    "ActivationTiming", "SimulationTrace", "SineInput", "SolverConfig",
    "SquareWaveInput", "activation_time", "default_solver_config", "simulate_fdm",
    "synthesize_fourier", "write_trace_csv",
    # config
    "ConfigError", "Scenario", "SimulationSettings", "SpeciesRow",
    "SweepSettings", "TableConfig", "load_scenario", "load_table",
    "scenario_from_dict",
]
