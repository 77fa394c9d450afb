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
resolved once, at load: its design budgets, input wave, harmonic count,
discretization and the parameter set embedded in every output are fixed
there, as is a survey's parameter set, so every parameter error is raised
before a command writes anything.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Iterable

import yaml

from .distortion import (_lam, reception_amplitude_distortion,
                         reception_delay_distortion)
from .systems import (
    DiffusionChannel,
    FrequencyBand,
    ParameterError,
    ReceptionSystem,
    _asdict,
    _Record,
    _replace,
)
from .timedomain import (SolverConfig, SquareWaveInput, _samples_per_period,
                         default_solver_config)

__all__ = [
    "ConfigError",
    "Scenario",
    "scenario_from_dict",
    "load_scenario",
    "load_table",
]


class ConfigError(ValueError):
    """A scenario file is malformed or violates a parameter constraint."""


# sweep writes four CSV surfaces of points^2 cells: about 450 MB at 4096.
MAX_SWEEP_POINTS = 4096
# analyze holds seven float columns of this many rows, 56 MB, and writes
# them as a CSV of about 80 MB.
MAX_CURVE_POINTS = 10**6
MAX_SOLVE_SIZE = 2**22    # see check_solve_sizes


def check_points(points: int, where: str, maximum: int) -> int:
    """Return points if 2 <= points <= maximum, else raise naming where."""
    if not 2 <= points <= maximum:
        raise ConfigError(f"{where}: must be in [2, {maximum}], got {points}")
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


class Scenario(_Record):
    """Full parameter set for one run, validated and resolved at load.

    wave, n_harmonics and solver carry every time-domain default filled
    in from the band and the channel; sweep is the sweep section as a
    dict of omega_min, omega_max and points; parameters is the same
    resolved set as plain data, embedded in every output; q0 and r0 the
    design budgets (a relative section's factors times the reception
    share), or None.
    """

    channel: DiffusionChannel
    reception: ReceptionSystem
    band: FrequencyBand
    wave: SquareWaveInput
    n_harmonics: int
    threshold: float | None
    solver: SolverConfig
    sweep: dict
    parameters: dict
    q0: float | None = None
    r0: float | None = None


# libyaml's parser reads the 1000-row surveys several times faster than
# the pure-Python one; PyYAML built without libyaml has only the latter.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:      # a directory, an unreadable file
        raise ConfigError(f"{path}: cannot be read ({exc.strerror or exc})")
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
        budgets: dict = {}
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
            budgets = thresholds if absolute else {
                "q0": thresholds["q_factor"]
                * float(reception_amplitude_distortion(reception, band)),
                "r0": thresholds["r_factor"]
                * float(reception_delay_distortion(reception, band))}
            for key, budget in budgets.items():     # absolute q0/r0 are > 0
                if not 0.0 < budget < math.inf:
                    raise ConfigError(f"{path}.{key[0]}_factor: gives {key} = "
                                      f"{budget}, must be finite and > 0")

        sim = _fields(doc.get("simulation", {}), f"{origin}.simulation",
                      _SIMULATION)
        path = f"{origin}.sweep"
        sweep = _fields(doc.get("sweep", {}), path, _SWEEP)
        if not 0.0 < sweep["omega_min"] < sweep["omega_max"]:
            raise ConfigError(f"{path}: need 0 < omega_min < omega_max, "
                              f"got [{sweep['omega_min']}, {sweep['omega_max']}]")
        check_points(sweep["points"], f"{path}.points", MAX_SWEEP_POINTS)

        wave = SquareWaveInput(
            amplitude=sim["amplitude"], duty=sim["duty"], offset=sim["offset"],
            fundamental=(band.omega1 if sim["fundamental"] is None
                         else sim["fundamental"]))
        n_harmonics = (wave.harmonics_within(band.omega2)
                       if sim["n_harmonics"] is None else sim["n_harmonics"])
        solver = _replace(
            default_solver_config(channel, wave, n_periods=sim["n_periods"],
                                  omega_max=band.omega2),
            **{key: sim[key] for key in ("dx", "dt", "domain_length")
               if sim[key] is not None})

    parameters = {
        "channel": _asdict(channel), "reception": _asdict(reception),
        "band": _asdict(band),
        "simulation": {**_asdict(wave), "threshold": sim["threshold"],
                       "n_harmonics": n_harmonics, "n_periods": sim["n_periods"],
                       **_asdict(solver)},
        "sweep": sweep,
    }
    if thresholds:
        parameters["thresholds"] = thresholds
    return Scenario(channel=channel, reception=reception, band=band, wave=wave,
                    n_harmonics=n_harmonics, threshold=sim["threshold"],
                    solver=solver, sweep=sweep, parameters=parameters,
                    **budgets)


def check_solve_sizes(scenario: Scenario, routes, origin: str) -> None:
    """Refuse, naming its key, a route's solve size above MAX_SOLVE_SIZE
    (Fourier harmonics or samples, FDM FFT points: a job at it peaks at
    185-830 MiB), a Fourier dt that does not divide the wave's period into
    whole samples, and an FDM mesh ratio mu dt / (2 dx^2) that is 0 or
    infinite."""
    solver, steps = scenario.solver, scenario.solver.time_grid.n - 1
    sizes = {"fourier": [("n_harmonics", scenario.n_harmonics, "harmonics"),
                         ("n_periods", steps + 1, "time samples")],
             "fdm": [("n_periods", 4 * steps, "FFT points")]}
    for key, size, what in (item for route in routes for item in sizes[route]):
        if size > MAX_SOLVE_SIZE:
            raise ConfigError(f"{origin}.simulation.{key}: {size:.3g} {what} "
                              f"exceed the budget of {MAX_SOLVE_SIZE:,}")
    period = scenario.wave.period
    if "fourier" in routes and _samples_per_period(period, solver.dt) is None:
        raise ConfigError(f"{origin}.simulation.dt: {solver.dt:g} does not "
                          f"divide the period {period:g} into whole samples "
                          f"(T/dt = {period / solver.dt:.10g})")
    h = solver.mesh_ratio(scenario.channel.mu)
    if "fdm" in routes and not 0.0 < h < math.inf:
        raise ConfigError(f"{origin}.simulation.dx: mesh ratio mu dt / (2 dx^2) "
                          f"= {h:g} is 0 or beyond the float range")


def load_scenario(path) -> Scenario:
    """Load and validate a scenario YAML file."""
    return scenario_from_dict(_load_yaml(path), str(path))


class TableConfig(_Record):
    """Inputs of the clean-band survey table, validated at load.

    species holds a dict of name, mu_lo, mu_hi and x_r per row; mu is a
    range (mu_lo < mu_hi) only in rows without a distance (x_r None).
    parameters is the same set as plain data, embedded in every output.
    """

    reception: ReceptionSystem
    decade_width: float
    q_fraction: float
    r_fraction: float
    species: tuple[dict, ...]
    parameters: dict


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
        # The clean-band search normalizes each banded row to this lam.
        if x_r is not None and not math.isfinite(
                _lam(mu_lo, x_r, reception.k_r)):
            raise ConfigError(f"{path_i}: lam = sqrt(x_r^2 k_r / (2 mu)) is "
                              f"beyond the float range")
        rows.append({"name": name, "mu_lo": mu_lo, "mu_hi": mu_hi, "x_r": x_r})
    parameters = {"reception": _asdict(reception), **settings, "species": rows}
    return TableConfig(reception=reception, species=tuple(rows),
                       parameters=parameters, **settings)
