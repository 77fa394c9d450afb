"""Transfer-function models for a diffusive molecular communication link.

The link is a cascade of two linear time-invariant stages:

* a 1-D diffusion stage carrying molecules from the transmitter at x = 0
  to a receiver at x = x_r, with transfer function

      G(s) = exp(-sqrt(x_r^2 s / mu)),

  so on the imaginary axis |G(jw)| = exp(-sqrt(x_r^2 w / (2 mu))) and the
  (unwrapped) phase is -sqrt(x_r^2 w / (2 mu));

* a first-order reception stage (ligand-receptor binding linearized
  around an empty receptor pool) with transfer function

      H(s) = k_f * r / (s + k_r),

  whose output is the bound-receptor concentration.  k_f * r has units
  of 1/s, so H is dimensionless (uM in, uM out).

The whole channel is the product G(s) H(s): magnitudes multiply and
unwrapped phases add, so its dB gain and phase delay are the sums of the
stages'.  Callers compose it from the two stages; it has no function of
its own.

Units throughout: micrometers, seconds, micromolar; angular frequency in
rad/s.  Gains are reported in dB, delays as phase delay -angle/w in s.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "ParameterError",
    "DiffusionChannel",
    "ReceptionSystem",
    "FrequencyBand",
    "diffusion_response",
    "diffusion_gain_db",
    "diffusion_phase_delay",
    "reception_response",
    "reception_gain_db",
    "reception_phase_delay",
]

LOG10_E = math.log10(math.e)
# Largest float.  Bounds are checked as x <= FLOAT_MAX rather than
# x < inf: a Python int beyond the float range compares below inf, and
# would only fail later, when converted.
FLOAT_MAX = sys.float_info.max


class ParameterError(ValueError):
    """A physical parameter or frequency is outside its valid domain."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def _finite(x) -> bool:
    """Whether x is one finite number, like math.isfinite.

    math.isfinite converts x to float first, so a Python int beyond the
    float range raises OverflowError; comparing with FLOAT_MAX is exact
    and gives False.  nan compares false too.  An array that is not 0-d
    is not one number and gives False, so a scalar record's check names
    the field instead of numpy refusing the truth value of an array.
    """
    return getattr(x, "ndim", 0) == 0 and -FLOAT_MAX <= x <= FLOAT_MAX


class _Record:
    """Base of the package's immutable records, in place of dataclasses.

    A subclass declares its fields as class annotations, in order; a class
    attribute of the same name is that field's default.  Instances are
    built from positional or keyword arguments, checked by __post_init__,
    and cannot be changed afterwards.  repr, == and hash are those of a
    @dataclass(frozen=True): the class name with the repr of each field,
    equality of the field tuples for instances of the same class, and the
    hash of the field tuple.

    dataclasses generates these methods for each class with exec, about
    1.2 ms per class on every import; here they are written once.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(names, args))
        for name in kwargs:
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for "
                                f"argument {name!r}")
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword "
                                f"argument {name!r}")
        values.update(kwargs)
        state = self.__dict__
        for name in names:    # in field order, as dataclasses sets them
            if name in values:
                state[name] = values[name]
            elif name in cls._defaults:
                state[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; subclasses raise ParameterError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}"
                            for name in self._fields) + ")")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


def _asdict(record: _Record) -> dict:
    """The fields of record by name, in field order (not recursive)."""
    return {name: getattr(record, name) for name in record._fields}


def _replace(record: _Record, **changes) -> _Record:
    """A copy of record with the given fields changed, validated anew."""
    return type(record)(**{**_asdict(record), **changes})


class DiffusionChannel(_Record):
    """1-D diffusion stage.

    Attributes:
        mu: diffusion coefficient, um^2/s.
        x_r: transmitter-to-receiver distance, um; 0 makes an identity.
    """

    mu: float
    x_r: float

    def __post_init__(self) -> None:
        mu, x_r = self.mu, self.x_r
        _require(_finite(mu) and mu > 0.0,
                 f"mu must be finite and > 0, got {mu}")
        _require(_finite(x_r) and x_r >= 0.0,
                 f"x_r must be finite and >= 0, got {x_r}")


class ReceptionSystem(_Record):
    """First-order ligand-receptor reception stage.

    Attributes:
        k_f: forward (binding) rate constant, 1/(uM s).
        k_r: reverse (dissociation) rate constant, 1/s.
        r: total receptor concentration, uM.
    """

    k_f: float
    k_r: float
    r: float

    def __post_init__(self) -> None:
        for name in ("k_f", "k_r", "r"):
            value = getattr(self, name)
            _require(_finite(value) and value > 0.0,
                     f"{name} must be finite and > 0, got {value}")

    @property
    def dc_gain(self) -> float:
        """Zero-frequency gain k_f r / k_r (dimensionless)."""
        return self.k_f * self.r / self.k_r


class FrequencyBand(_Record):
    """Closed analysis band [omega1, omega2], rad/s, 0 < omega1 < omega2."""

    omega1: float
    omega2: float

    def __post_init__(self) -> None:
        w1, w2 = self.omega1, self.omega2
        _require(_finite(w1) and w1 > 0.0,
                 f"omega1 must be finite and > 0, got {w1}")
        _require(_finite(w2) and w2 > w1,
                 f"omega2 must be finite and > omega1={w1}, got {w2}")


def _check_omega(omega):
    w = np.asarray(omega, dtype=float)
    ok = np.isfinite(w) & (w > 0.0)
    if not np.all(ok):
        bad = w if w.ndim == 0 else w[~ok].flat[0]
        raise ParameterError(f"omega must be finite and > 0, got {bad}")
    return w


def _diffusion_root(ch: DiffusionChannel, omega):
    # sqrt(x_r^2 w / (2 mu)) drives both attenuation and phase lag.
    return np.sqrt(ch.x_r * ch.x_r * omega / (2.0 * ch.mu))


def diffusion_response(ch: DiffusionChannel, omega):
    """Evaluate G(jw): magnitude exp(-sqrt(x_r^2 w / 2 mu)), equal phase lag.

    Returns (magnitude, phase) as numpy values shaped like omega.  The
    phase is unwrapped: continuous in omega, in (-inf, 0], not reduced
    modulo 2 pi.
    """
    root = _diffusion_root(ch, _check_omega(omega))
    return np.exp(-root), -root


def diffusion_gain_db(ch: DiffusionChannel, omega):
    """Gain of the diffusion stage in dB: -20 sqrt(x_r^2 w / 2 mu) log10(e)."""
    return -20.0 * _diffusion_root(ch, _check_omega(omega)) * LOG10_E


def diffusion_phase_delay(ch: DiffusionChannel, omega):
    """Phase delay of the diffusion stage, sqrt(x_r^2 / (2 mu w)) s.

    Diverges as omega -> 0 for x_r > 0, so omega must be strictly positive.
    """
    return np.sqrt(ch.x_r * ch.x_r / (2.0 * ch.mu * _check_omega(omega)))


def reception_response(rs: ReceptionSystem, omega):
    """Evaluate H(jw) = k_f r / (jw + k_r) in polar form.

    Returns (magnitude, phase) as numpy values shaped like omega, the
    phase in (-pi/2, 0].  The zero-frequency gain is rs.dc_gain.
    """
    w = _check_omega(omega)
    return rs.k_f * rs.r / np.hypot(w, rs.k_r), -np.arctan2(w, rs.k_r)


def reception_gain_db(rs: ReceptionSystem, omega):
    """Gain of the reception stage in dB: 20 log10(k_f r) - 20 log10 |jw + k_r|."""
    w = _check_omega(omega)
    return 20.0 * (np.log10(rs.k_f * rs.r) - np.log10(np.hypot(w, rs.k_r)))


def reception_phase_delay(rs: ReceptionSystem, omega):
    """Phase delay of the reception stage, arctan(w / k_r) / w s.

    Tends to 1 / k_r as omega -> 0; omega must be strictly positive.
    """
    w = _check_omega(omega)
    return np.arctan2(w, rs.k_r) / w
