"""Scenario files: loading and validation.

A scenario is one YAML document holding the physical parameters of a
run (channel, reception, band) plus optional sections for design
budgets, time-domain simulation settings, and the normalized sweep
grid.  All quantities are in micrometers / seconds / micromolar with
frequencies in rad/s; files are expected to say so in a header comment.

Validation is strict: missing or extra keys, non-finite numbers and
out-of-range values raise ConfigError naming the offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import yaml

from .systems import DiffusionChannel, FrequencyBand, ParameterError, ReceptionSystem
from .timedomain import SolverConfig, SquareWaveInput, default_solver_config

__all__ = [
    "ConfigError",
    "SimulationSettings",
    "SweepSettings",
    "Scenario",
    "SpeciesRow",
    "TableConfig",
    "scenario_from_dict",
    "load_scenario",
    "load_table",
]


class ConfigError(ValueError):
    """A scenario file is malformed or violates a parameter constraint."""


# sweep writes four CSV surfaces of points^2 cells: about 450 MB at 4096.
MAX_SWEEP_POINTS = 4096


def check_sweep_points(points: int, where: str) -> int:
    """Return points if 2 <= points <= MAX_SWEEP_POINTS, else raise naming where."""
    if not 2 <= points <= MAX_SWEEP_POINTS:
        raise ConfigError(f"{where}: must be in [2, {MAX_SWEEP_POINTS}], "
                          f"got {points}")
    return points


def _mapping(node: Any, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed: set[str], path: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")


def _finite(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:    # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be finite, got {number}")
    return number


def _number(node: dict, key: str, path: str, default=None, required=True):
    if key not in node:
        if required:
            raise ConfigError(f"{path}.{key}: required key missing")
        return default
    return _finite(node[key], f"{path}.{key}")


def _integer(node: dict, key: str, path: str, default=None, required=True):
    if key not in node:
        if required:
            raise ConfigError(f"{path}.{key}: required key missing")
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class SimulationSettings:
    """Resolved time-domain settings of a scenario."""

    amplitude: float = 0.1
    duty: float = 0.5
    offset: float = 0.0
    threshold: float | None = None
    fundamental: float | None = None   # None: use band.omega1
    n_harmonics: int | None = None     # None: all harmonics inside the band
    n_periods: int = 3
    dx: float | None = None            # None: derive from the scenario
    dt: float | None = None
    domain_length: float | None = None


@dataclass(frozen=True)
class SweepSettings:
    """Log grid in reception-corner units for the normalized-index sweep."""

    omega_min: float = 1e-2
    omega_max: float = 1e2
    points: int = 60


@dataclass(frozen=True)
class Scenario:
    """Full parameter set for one run."""

    channel: DiffusionChannel
    reception: ReceptionSystem
    band: FrequencyBand
    q0: float | None = None
    r0: float | None = None
    q_factor: float | None = None
    r_factor: float | None = None
    simulation: SimulationSettings = field(default_factory=SimulationSettings)
    sweep: SweepSettings = field(default_factory=SweepSettings)

    def wave(self) -> SquareWaveInput:
        sim = self.simulation
        fundamental = sim.fundamental if sim.fundamental is not None else self.band.omega1
        return SquareWaveInput(amplitude=sim.amplitude, fundamental=fundamental,
                               duty=sim.duty, offset=sim.offset)

    def harmonic_count(self) -> int:
        """Harmonics retained by the frequency route: all n with n w1 <= w2."""
        if self.simulation.n_harmonics is not None:
            return self.simulation.n_harmonics
        return int(math.floor(self.band.omega2 / self.wave().fundamental))

    def solver_config(self) -> SolverConfig:
        sim = self.simulation
        base = default_solver_config(self.channel, self.wave(),
                                     n_periods=sim.n_periods,
                                     omega_max=self.band.omega2)
        return SolverConfig(
            dx=sim.dx if sim.dx is not None else base.dx,
            dt=sim.dt if sim.dt is not None else base.dt,
            domain_length=(sim.domain_length if sim.domain_length is not None
                           else base.domain_length),
            duration=base.duration,
        )

    def resolved(self) -> dict:
        """Fully resolved parameter set, for embedding in every output."""
        wave = self.wave()
        solver = self.solver_config()
        out: dict[str, Any] = {
            "channel": {"mu": self.channel.mu, "x_r": self.channel.x_r},
            "reception": {"k_f": self.reception.k_f, "k_r": self.reception.k_r,
                          "r": self.reception.r},
            "band": {"omega1": self.band.omega1, "omega2": self.band.omega2},
            "simulation": {
                "amplitude": wave.amplitude, "fundamental": wave.fundamental,
                "duty": wave.duty, "offset": wave.offset,
                "threshold": self.simulation.threshold,
                "n_harmonics": self.harmonic_count(),
                "n_periods": self.simulation.n_periods,
                "dx": solver.dx, "dt": solver.dt,
                "domain_length": solver.domain_length,
                "duration": solver.duration,
            },
            "sweep": {"omega_min": self.sweep.omega_min,
                      "omega_max": self.sweep.omega_max,
                      "points": self.sweep.points},
        }
        if self.q0 is not None:
            out["thresholds"] = {"q0": self.q0, "r0": self.r0}
        elif self.q_factor is not None:
            out["thresholds"] = {"q_factor": self.q_factor,
                                 "r_factor": self.r_factor}
        return out


def _parse_thresholds(node: dict, path: str) -> dict:
    _reject_unknown(node, {"q0", "r0", "q_factor", "r_factor"}, path)
    absolute = "q0" in node or "r0" in node
    relative = "q_factor" in node or "r_factor" in node
    if absolute and relative:
        raise ConfigError(f"{path}: give either q0/r0 or q_factor/r_factor, not both")
    if absolute:
        out = {"q0": _number(node, "q0", path), "r0": _number(node, "r0", path)}
    elif relative:
        out = {"q_factor": _number(node, "q_factor", path),
               "r_factor": _number(node, "r_factor", path)}
    else:
        raise ConfigError(f"{path}: empty thresholds section")
    for key, value in out.items():
        if value <= 0.0:
            raise ConfigError(f"{path}.{key}: must be > 0, got {value}")
    return out


def _parse_simulation(node: dict, path: str) -> SimulationSettings:
    allowed = {"amplitude", "duty", "offset", "threshold", "fundamental",
               "n_harmonics", "n_periods", "dx", "dt", "domain_length"}
    _reject_unknown(node, allowed, path)
    kwargs: dict[str, Any] = {}
    defaults = SimulationSettings()
    for key in ("amplitude", "duty", "offset"):
        kwargs[key] = _number(node, key, path, default=getattr(defaults, key),
                              required=False)
    for key in ("threshold", "fundamental", "dx", "dt", "domain_length"):
        kwargs[key] = _number(node, key, path, default=None, required=False)
    kwargs["n_harmonics"] = _integer(node, "n_harmonics", path, default=None,
                                     required=False)
    kwargs["n_periods"] = _integer(node, "n_periods", path,
                                   default=defaults.n_periods, required=False)
    for key in ("threshold", "dx", "dt", "domain_length", "fundamental"):
        value = kwargs[key]
        if value is not None and value <= 0.0:
            raise ConfigError(f"{path}.{key}: must be > 0, got {value}")
    if kwargs["n_harmonics"] is not None and kwargs["n_harmonics"] < 0:
        raise ConfigError(f"{path}.n_harmonics: must be >= 0, "
                          f"got {kwargs['n_harmonics']}")
    if kwargs["n_periods"] < 1:
        raise ConfigError(f"{path}.n_periods: must be >= 1, got {kwargs['n_periods']}")
    return SimulationSettings(**kwargs)


def _parse_sweep(node: dict, path: str) -> SweepSettings:
    _reject_unknown(node, {"omega_min", "omega_max", "points"}, path)
    defaults = SweepSettings()
    out = SweepSettings(
        omega_min=_number(node, "omega_min", path, defaults.omega_min, False),
        omega_max=_number(node, "omega_max", path, defaults.omega_max, False),
        points=_integer(node, "points", path, defaults.points, False),
    )
    if not 0.0 < out.omega_min < out.omega_max:
        raise ConfigError(f"{path}: need 0 < omega_min < omega_max, "
                          f"got [{out.omega_min}, {out.omega_max}]")
    check_sweep_points(out.points, f"{path}.points")
    return out


# libyaml's parser reads the 1000-row surveys several times faster than
# the pure-Python one; PyYAML built without libyaml has only the latter.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})")
    return _mapping(doc, str(path))


def scenario_from_dict(doc: dict, origin: str = "scenario") -> Scenario:
    """Build a Scenario from an already-parsed mapping."""
    _reject_unknown(doc, {"channel", "reception", "band", "thresholds",
                          "simulation", "sweep"}, origin)
    for section in ("channel", "reception", "band"):
        if section not in doc:
            raise ConfigError(f"{origin}.{section}: required section missing")
    ch_node = _mapping(doc["channel"], f"{origin}.channel")
    _reject_unknown(ch_node, {"mu", "x_r"}, f"{origin}.channel")
    rs_node = _mapping(doc["reception"], f"{origin}.reception")
    _reject_unknown(rs_node, {"k_f", "k_r", "r"}, f"{origin}.reception")
    band_node = _mapping(doc["band"], f"{origin}.band")
    _reject_unknown(band_node, {"omega1", "omega2"}, f"{origin}.band")
    try:
        channel = DiffusionChannel(
            mu=_number(ch_node, "mu", f"{origin}.channel"),
            x_r=_number(ch_node, "x_r", f"{origin}.channel"),
        )
        reception = ReceptionSystem(
            k_f=_number(rs_node, "k_f", f"{origin}.reception"),
            k_r=_number(rs_node, "k_r", f"{origin}.reception"),
            r=_number(rs_node, "r", f"{origin}.reception"),
        )
        band = FrequencyBand(
            omega1=_number(band_node, "omega1", f"{origin}.band"),
            omega2=_number(band_node, "omega2", f"{origin}.band"),
        )
    except ParameterError as exc:
        raise ConfigError(f"{origin}: {exc}")

    thresholds: dict = {}
    if "thresholds" in doc:
        thresholds = _parse_thresholds(
            _mapping(doc["thresholds"], f"{origin}.thresholds"),
            f"{origin}.thresholds")
    simulation = SimulationSettings()
    if "simulation" in doc:
        simulation = _parse_simulation(
            _mapping(doc["simulation"], f"{origin}.simulation"),
            f"{origin}.simulation")
    sweep = SweepSettings()
    if "sweep" in doc:
        sweep = _parse_sweep(_mapping(doc["sweep"], f"{origin}.sweep"),
                             f"{origin}.sweep")
    return Scenario(channel=channel, reception=reception, band=band,
                    simulation=simulation, sweep=sweep, **thresholds)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario YAML file."""
    return scenario_from_dict(_load_yaml(path), str(path))


@dataclass(frozen=True)
class SpeciesRow:
    """One signaling-molecule row of the clean-band survey.

    mu may be a range (mu_lo < mu_hi) only for rows without a distance;
    band columns stay blank for those.
    """

    name: str
    mu_lo: float
    mu_hi: float
    x_r: float | None

    @property
    def has_band(self) -> bool:
        return self.x_r is not None


@dataclass(frozen=True)
class TableConfig:
    """Inputs of the clean-band survey table."""

    reception: ReceptionSystem
    decade_width: float
    q_fraction: float
    r_fraction: float
    species: tuple[SpeciesRow, ...]


def load_table(path) -> TableConfig:
    """Load and validate a species-survey YAML file."""
    doc = _load_yaml(path)
    origin = str(path)
    _reject_unknown(doc, {"reception", "decade_width", "q_fraction",
                          "r_fraction", "species"}, origin)
    if "reception" not in doc or "species" not in doc:
        raise ConfigError(f"{origin}: sections 'reception' and 'species' required")
    rs_node = _mapping(doc["reception"], f"{origin}.reception")
    _reject_unknown(rs_node, {"k_f", "k_r", "r"}, f"{origin}.reception")
    try:
        reception = ReceptionSystem(
            k_f=_number(rs_node, "k_f", f"{origin}.reception"),
            k_r=_number(rs_node, "k_r", f"{origin}.reception"),
            r=_number(rs_node, "r", f"{origin}.reception"),
        )
    except ParameterError as exc:
        raise ConfigError(f"{origin}: {exc}")
    decade_width = _number(doc, "decade_width", origin, 10.0, False)
    q_fraction = _number(doc, "q_fraction", origin, 0.1, False)
    r_fraction = _number(doc, "r_fraction", origin, 0.1, False)
    if decade_width <= 1.0:
        raise ConfigError(f"{origin}.decade_width: must be > 1, got {decade_width}")
    for key, value in (("q_fraction", q_fraction), ("r_fraction", r_fraction)):
        if value <= 0.0:
            raise ConfigError(f"{origin}.{key}: must be > 0, got {value}")

    if not isinstance(doc["species"], list) or not doc["species"]:
        raise ConfigError(f"{origin}.species: expected a non-empty list")
    rows = []
    for i, item in enumerate(doc["species"]):
        path_i = f"{origin}.species[{i}]"
        node = _mapping(item, path_i)
        _reject_unknown(node, {"name", "mu", "x_r"}, path_i)
        name = node.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{path_i}.name: expected a non-empty string")
        mu = node.get("mu")
        if isinstance(mu, (list, tuple)) and len(mu) == 2:
            mu_lo, mu_hi = (_finite(m, f"{path_i}.mu[{j}]")
                            for j, m in enumerate(mu))
        elif isinstance(mu, (int, float)) and not isinstance(mu, bool):
            mu_lo = mu_hi = _finite(mu, f"{path_i}.mu")
        else:
            raise ConfigError(f"{path_i}.mu: expected a number or [lo, hi] pair, "
                              f"got {mu!r}")
        if not 0.0 < mu_lo <= mu_hi:
            raise ConfigError(f"{path_i}.mu: need 0 < lo <= hi, got [{mu_lo}, {mu_hi}]")
        x_r = _number(node, "x_r", path_i, default=None, required=False)
        if x_r is not None:
            if x_r <= 0.0:
                raise ConfigError(f"{path_i}.x_r: must be > 0, got {x_r}")
            if mu_lo != mu_hi:
                raise ConfigError(f"{path_i}: rows with x_r need a single mu, "
                                  f"not a range")
        rows.append(SpeciesRow(name=name, mu_lo=mu_lo, mu_hi=mu_hi, x_r=x_r))
    return TableConfig(reception=reception, decade_width=decade_width,
                       q_fraction=q_fraction, r_fraction=r_fraction,
                       species=tuple(rows))
