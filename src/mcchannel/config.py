"""Scenario files: loading, validation and resolution.

A scenario is one YAML document holding the physical parameters of a
run (channel, reception, band) plus optional sections for design
budgets, time-domain simulation settings, and the normalized sweep
grid.  All quantities are in micrometers / seconds / micromolar with
frequencies in rad/s; files are expected to say so in a header comment.

Each section is read through one field table, which gives every key its
reader, its default (or _REQUIRED) and its lower bound.  Validation is
strict: missing or extra keys, non-finite numbers and out-of-range
values raise ConfigError naming the offending field.  A scenario is
resolved once, at load: its input wave, harmonic count, discretization
and the parameter set embedded in every output are fixed there, so
every parameter error is raised before a command writes anything.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from typing import Any, Iterable

import yaml

from .systems import DiffusionChannel, FrequencyBand, ParameterError, ReceptionSystem
from .timedomain import SolverConfig, SquareWaveInput, default_solver_config

__all__ = [
    "ConfigError",
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


def _reject_unknown(node: dict, allowed: Iterable[str], path: str) -> None:
    unknown = set(node).difference(allowed)
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


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


_REQUIRED = object()


def _field(node: dict, path: str, key: str, read, default, bound):
    """node[key] through read, else default; above bound (integers: at or above)."""
    if key not in node:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: required key missing")
        return default
    value = read(node[key], f"{path}.{key}")
    inclusive = read is _integer
    if bound is not None and (value < bound if inclusive else value <= bound):
        raise ConfigError(f"{path}.{key}: must be {'>=' if inclusive else '>'} "
                          f"{bound}, got {value}")
    return value


def _fields(node: Any, path: str, table: dict) -> dict:
    """Read one section by its table: key -> (reader, default, lower bound)."""
    node = _mapping(node, path)
    _reject_unknown(node, table, path)
    return {key: _field(node, path, key, *spec) for key, spec in table.items()}


# Bounds of None leave the check to the object the values build, whose
# ParameterError message names the file.
_CHANNEL = {key: (_finite, _REQUIRED, None) for key in ("mu", "x_r")}
_RECEPTION = {key: (_finite, _REQUIRED, None) for key in ("k_f", "k_r", "r")}
_BAND = {key: (_finite, _REQUIRED, None) for key in ("omega1", "omega2")}
_ABSOLUTE = {key: (_finite, _REQUIRED, 0) for key in ("q0", "r0")}
_RELATIVE = {key: (_finite, _REQUIRED, 0) for key in ("q_factor", "r_factor")}
_SIMULATION = {
    "amplitude": (_finite, 0.1, None),
    "duty": (_finite, 0.5, None),
    "offset": (_finite, 0.0, None),
    "threshold": (_finite, None, 0),
    "fundamental": (_finite, None, 0),    # None: band.omega1
    "n_harmonics": (_integer, None, 0),   # None: all harmonics inside the band
    "n_periods": (_integer, 3, 1),
    "dx": (_finite, None, 0),             # None: default_solver_config's
    "dt": (_finite, None, 0),
    "domain_length": (_finite, None, 0),
}
_SWEEP = {
    "omega_min": (_finite, 1e-2, None),
    "omega_max": (_finite, 1e2, None),
    "points": (_integer, 60, None),
}
_SURVEY = {
    "decade_width": (_finite, 10.0, 1),
    "q_fraction": (_finite, 0.1, 0),
    "r_fraction": (_finite, 0.1, 0),
}


@contextmanager
def _parameter_errors(origin: str):
    """Report a ParameterError from building a file's objects as a ConfigError."""
    try:
        yield
    except ParameterError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc


@dataclass(frozen=True)
class SweepSettings:
    """Log grid in reception-corner units for the normalized-index sweep."""

    omega_min: float
    omega_max: float
    points: int


@dataclass(frozen=True)
class Scenario:
    """Full parameter set for one run, validated and resolved at load.

    wave, n_harmonics and solver carry every time-domain default filled
    in from the band and the channel; parameters is the same resolved set
    as plain data, embedded in every output.
    """

    channel: DiffusionChannel
    reception: ReceptionSystem
    band: FrequencyBand
    wave: SquareWaveInput
    n_harmonics: int
    threshold: float | None
    solver: SolverConfig
    sweep: SweepSettings
    parameters: dict
    q0: float | None = None
    r0: float | None = None
    q_factor: float | None = None
    r_factor: float | None = None


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
    """Build and resolve a Scenario from an already-parsed mapping."""
    _reject_unknown(doc, {"channel", "reception", "band", "thresholds",
                          "simulation", "sweep"}, origin)
    for section in ("channel", "reception", "band"):
        if section not in doc:
            raise ConfigError(f"{origin}.{section}: required section missing")
    with _parameter_errors(origin):
        channel = DiffusionChannel(**_fields(doc["channel"], f"{origin}.channel",
                                             _CHANNEL))
        reception = ReceptionSystem(**_fields(doc["reception"],
                                              f"{origin}.reception", _RECEPTION))
        band = FrequencyBand(**_fields(doc["band"], f"{origin}.band", _BAND))

        thresholds: dict = {}
        if "thresholds" in doc:
            path = f"{origin}.thresholds"
            node = _mapping(doc["thresholds"], path)
            _reject_unknown(node, {*_ABSOLUTE, *_RELATIVE}, path)
            absolute = not node.keys().isdisjoint(_ABSOLUTE)
            relative = not node.keys().isdisjoint(_RELATIVE)
            if absolute and relative:
                raise ConfigError(f"{path}: give either q0/r0 or "
                                  f"q_factor/r_factor, not both")
            if not (absolute or relative):
                raise ConfigError(f"{path}: empty thresholds section")
            thresholds = _fields(node, path, _ABSOLUTE if absolute else _RELATIVE)

        sim = _fields(doc.get("simulation", {}), f"{origin}.simulation",
                      _SIMULATION)
        path = f"{origin}.sweep"
        sweep = SweepSettings(**_fields(doc.get("sweep", {}), path, _SWEEP))
        if not 0.0 < sweep.omega_min < sweep.omega_max:
            raise ConfigError(f"{path}: need 0 < omega_min < omega_max, "
                              f"got [{sweep.omega_min}, {sweep.omega_max}]")
        check_sweep_points(sweep.points, f"{path}.points")

        wave = SquareWaveInput(
            amplitude=sim["amplitude"], duty=sim["duty"], offset=sim["offset"],
            fundamental=(band.omega1 if sim["fundamental"] is None
                         else sim["fundamental"]))
        n_harmonics = sim["n_harmonics"]
        if n_harmonics is None:     # all n with n w1 <= w2
            ratio = band.omega2 / wave.fundamental
            if math.isinf(ratio):
                raise ParameterError(f"harmonic count omega2/fundamental = "
                                     f"{band.omega2:g}/{wave.fundamental:g} overflows")
            n_harmonics = math.floor(ratio)
        solver = replace(
            default_solver_config(channel, wave, n_periods=sim["n_periods"],
                                  omega_max=band.omega2),
            **{key: sim[key] for key in ("dx", "dt", "domain_length")
               if sim[key] is not None})

    parameters = {
        "channel": asdict(channel), "reception": asdict(reception),
        "band": asdict(band),
        "simulation": {**asdict(wave), "threshold": sim["threshold"],
                       "n_harmonics": n_harmonics, "n_periods": sim["n_periods"],
                       **asdict(solver)},
        "sweep": asdict(sweep),
    }
    if thresholds:
        parameters["thresholds"] = thresholds
    return Scenario(channel=channel, reception=reception, band=band, wave=wave,
                    n_harmonics=n_harmonics, threshold=sim["threshold"],
                    solver=solver, sweep=sweep, parameters=parameters,
                    **thresholds)


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
    _reject_unknown(doc, {"reception", "species", *_SURVEY}, origin)
    if "reception" not in doc or "species" not in doc:
        raise ConfigError(f"{origin}: sections 'reception' and 'species' required")
    with _parameter_errors(origin):
        reception = ReceptionSystem(**_fields(doc["reception"],
                                              f"{origin}.reception", _RECEPTION))
    settings = {key: _field(doc, origin, key, *spec)
                for key, spec in _SURVEY.items()}

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
        x_r = _field(node, path_i, "x_r", _finite, None, 0)
        if x_r is not None and mu_lo != mu_hi:
            raise ConfigError(f"{path_i}: rows with x_r need a single mu, "
                              f"not a range")
        rows.append(SpeciesRow(name=name, mu_lo=mu_lo, mu_hi=mu_hi, x_r=x_r))
    return TableConfig(reception=reception, species=tuple(rows), **settings)
