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
    NormalizedBand,
    channel_report,
    diffusion_amplitude_distortion_normalized,
    diffusion_delay_distortion_normalized,
    log_grid,
    normalize,
    reception_amplitude_distortion,
    reception_amplitude_distortion_normalized,
    reception_delay_distortion,
    reception_delay_distortion_normalized,
)
from .design import (
    DesignResult,
    distance_bound,
    highest_clean_band,
)
from .timedomain import (
    ActivationTiming,
    SimulationTrace,
    SolverConfig,
    SquareWaveInput,
    TimeGrid,
    activation_time,
    default_solver_config,
    simulate_fdm,
    synthesize_fourier,
    write_trace_csv,
)
from .config import (
    ConfigError,
    Scenario,
    load_scenario,
    load_table,
    scenario_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # systems
    "DiffusionChannel", "FrequencyBand", "ParameterError", "ReceptionSystem",
    "cascade_gain_db", "cascade_phase_delay", "cascade_response",
    "diffusion_gain_db", "diffusion_phase_delay", "diffusion_response",
    "reception_gain_db", "reception_phase_delay", "reception_response",
    # distortion
    "DistortionReport", "NormalizedBand", "channel_report",
    "diffusion_amplitude_distortion_normalized",
    "diffusion_delay_distortion_normalized", "log_grid", "normalize",
    "reception_amplitude_distortion",
    "reception_amplitude_distortion_normalized", "reception_delay_distortion",
    "reception_delay_distortion_normalized",
    # design
    "DesignResult", "distance_bound", "highest_clean_band",
    # timedomain
    "ActivationTiming", "SimulationTrace", "SolverConfig", "SquareWaveInput",
    "TimeGrid", "activation_time", "default_solver_config", "simulate_fdm",
    "synthesize_fourier", "write_trace_csv",
    # config
    "ConfigError", "Scenario", "load_scenario", "load_table",
    "scenario_from_dict",
]
