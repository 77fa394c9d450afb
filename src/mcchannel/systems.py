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

Units throughout: micrometers, seconds, micromolar; angular frequency in
rad/s.  Gains are reported in dB, delays as phase delay -angle/w in s.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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
    "cascade_response",
    "cascade_gain_db",
    "cascade_phase_delay",
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


def _all(cond) -> bool:
    """Whether an elementwise comparison holds everywhere.

    Comparing Python numbers gives a bool; comparing numpy operands gives
    an np.bool_ or an array.  Testing the bool directly keeps scalar
    checks at comparison cost, about 0.1 us against several us for
    np.all.  Comparisons with nan are false, so (x > 0) & (x <= FLOAT_MAX)
    also rejects nan.
    """
    return cond if isinstance(cond, bool) else bool(cond.all())


def _finite(x) -> bool:
    """Whether the number x is finite, like math.isfinite.

    math.isfinite converts x to float first, so a Python int beyond the
    float range raises OverflowError; comparing with FLOAT_MAX is exact
    and gives False.  nan compares false too.
    """
    return -FLOAT_MAX <= x <= FLOAT_MAX


@dataclass(frozen=True)
class DiffusionChannel:
    """1-D diffusion stage.

    Attributes:
        mu: diffusion coefficient, um^2/s.
        x_r: transmitter-to-receiver distance, um.  x_r = 0 collapses the
            stage to an identity (useful as the reception-only reference).

    mu and x_r may also be arrays that broadcast together: a family of
    channels, as the clean-band search normalizes in one call.
    """

    mu: float | np.ndarray
    x_r: float | np.ndarray

    def __post_init__(self) -> None:
        mu, x_r = self.mu, self.x_r
        if not _all((mu > 0.0) & (mu <= FLOAT_MAX)):
            raise ParameterError(f"mu must be finite and > 0, got {mu}")
        if not _all((x_r >= 0.0) & (x_r <= FLOAT_MAX)):
            raise ParameterError(f"x_r must be finite and >= 0, got {x_r}")


@dataclass(frozen=True)
class ReceptionSystem:
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

    @property
    def corner(self) -> float:
        """Pole frequency k_r, rad/s."""
        return self.k_r


@dataclass(frozen=True)
class FrequencyBand:
    """Closed analysis band [omega1, omega2], rad/s, 0 < omega1 < omega2.

    omega1 and omega2 may also be arrays that broadcast together: a
    family of bands, as the clean-band scan evaluates in one call.
    """

    omega1: float | np.ndarray
    omega2: float | np.ndarray

    def __post_init__(self) -> None:
        # One check per band, not per element; the message is built only
        # on failure because formatting an array costs more than the check.
        w1, w2 = self.omega1, self.omega2
        if not _all((w1 > 0.0) & (w1 <= FLOAT_MAX)):
            raise ParameterError(f"omega1 must be finite and > 0, got {w1}")
        # The range check comes first and alone: comparing a Python int
        # beyond the float range with an array raises OverflowError.
        if not (_all(w2 <= FLOAT_MAX) and _all(w2 > w1)):
            raise ParameterError(f"omega2 must be finite and > omega1={w1}, "
                                 f"got {w2}")

    @property
    def period(self) -> float | np.ndarray:
        """Period of the lowest band frequency, T1 = 2 pi / omega1, s."""
        return 2.0 * math.pi / self.omega1


def _check_omega(omega, allow_zero: bool = False):
    w = np.asarray(omega, dtype=float)
    ok = np.isfinite(w) & ((w >= 0.0) if allow_zero else (w > 0.0))
    if not np.all(ok):
        bad = w if w.ndim == 0 else w[~ok].flat[0]
        raise ParameterError(f"omega must be finite and "
                             f"{'>= 0' if allow_zero else '> 0'}, got {bad}")
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
    phase in (-pi/2, 0].  Valid at omega = 0, where the magnitude is the
    DC gain and the phase is 0.
    """
    w = _check_omega(omega, allow_zero=True)
    return rs.k_f * rs.r / np.hypot(w, rs.k_r), -np.arctan2(w, rs.k_r)


def reception_gain_db(rs: ReceptionSystem, omega):
    """Gain of the reception stage in dB: 20 log10(k_f r) - 20 log10 |jw + k_r|."""
    w = _check_omega(omega, allow_zero=True)
    return 20.0 * (np.log10(rs.k_f * rs.r) - np.log10(np.hypot(w, rs.k_r)))


def reception_phase_delay(rs: ReceptionSystem, omega):
    """Phase delay of the reception stage, arctan(w / k_r) / w s.

    Continuously extended at omega = 0 by its limit 1 / k_r.
    """
    w = _check_omega(omega, allow_zero=True)
    return np.where(w > 0.0,
                    np.arctan2(w, rs.k_r) / np.where(w > 0.0, w, 1.0),
                    1.0 / rs.k_r)


def cascade_response(ch: DiffusionChannel, rs: ReceptionSystem, omega):
    """Evaluate the full-channel response G(jw) H(jw) as (magnitude, phase).

    Magnitudes multiply and unwrapped phases add, so dB gains and phase
    delays of the stages are additive.
    """
    g_mag, g_phase = diffusion_response(ch, omega)
    h_mag, h_phase = reception_response(rs, omega)
    return g_mag * h_mag, g_phase + h_phase


def cascade_gain_db(ch: DiffusionChannel, rs: ReceptionSystem, omega):
    """Full-channel gain in dB (sum of the stage gains)."""
    return diffusion_gain_db(ch, omega) + reception_gain_db(rs, omega)


def cascade_phase_delay(ch: DiffusionChannel, rs: ReceptionSystem, omega):
    """Full-channel phase delay in s (sum of the stage phase delays)."""
    return diffusion_phase_delay(ch, omega) + reception_phase_delay(rs, omega)
