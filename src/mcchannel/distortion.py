"""Band distortion indices for the diffusion and reception stages.

Two scalar indices summarize how far a stage is from distortionless
(flat gain, constant delay) over an analysis band [w1, w2]:

* amplitude distortion q: spread max - min of the dB gain over the band;
* delay distortion r: spread max - min of the phase delay, normalized by
  the period of the lowest band frequency, (tau_max - tau_min) / T1.

Both stages have monotonically decreasing gain and phase delay, so the
band extremes sit at the band edges and the indices admit closed forms.
The tests check them against an independent grid search over the stage
curves of systems.py.

The indices also have a two-parameter normal form: with w' = w / k_r
and lam = sqrt(x_r^2 k_r / (2 mu)), the four stage indices depend only
on (w1', w2', lam), and the diffusion indices are linear in lam.

The normal-form closed forms take arrays (a NormalizedBand whose fields
broadcast) and evaluate with numpy; the sweep maps and the clean-band
search use them.  The physical closed forms evaluate one band with the
math module.  numpy's log10, hypot and arctan differ from math's in the
last bit for about 1% of arguments, so the reports built on the physical
forms keep their full-precision digits only while those stay scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import (
    FLOAT_MAX,
    LOG10_E,
    DiffusionChannel,
    FrequencyBand,
    ParameterError,
    ReceptionSystem,
    _all,
    _finite,
    _require,
)

__all__ = [
    "log_grid",
    "diffusion_amplitude_distortion",
    "diffusion_delay_distortion",
    "reception_amplitude_distortion",
    "reception_delay_distortion",
    "NormalizedBand",
    "normalize",
    "denormalize_distance",
    "diffusion_amplitude_distortion_normalized",
    "diffusion_delay_distortion_normalized",
    "reception_amplitude_distortion_normalized",
    "reception_delay_distortion_normalized",
    "delay_distortion_maxima",
    "DistortionReport",
    "channel_report",
]

DEFAULT_GRID_POINTS = 4096


def log_grid(band: FrequencyBand, n_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Log-spaced frequency grid over the band, endpoints included exactly."""
    _require(n_points >= 2, f"n_points must be >= 2, got {n_points}")
    grid = np.logspace(math.log10(band.omega1), math.log10(band.omega2),
                       n_points)
    # Pin the endpoints so band-edge extremes are sampled without rounding.
    grid[0] = band.omega1
    grid[-1] = band.omega2
    return grid


# ---------------------------------------------------------------------------
# Closed forms (gain and delay are monotone, extremes at the band edges)
# ---------------------------------------------------------------------------

def diffusion_amplitude_distortion(ch: DiffusionChannel,
                                   band: FrequencyBand) -> float:
    """q of the diffusion stage: 20 sqrt(x_r^2/2mu) (sqrt w2 - sqrt w1) log10 e."""
    return (20.0 * math.sqrt(ch.x_r * ch.x_r / (2.0 * ch.mu))
            * (math.sqrt(band.omega2) - math.sqrt(band.omega1)) * LOG10_E)


def diffusion_delay_distortion(ch: DiffusionChannel,
                               band: FrequencyBand) -> float:
    """r of the diffusion stage: sqrt(x_r^2/2mu) (1/sqrt w1 - 1/sqrt w2) / T1."""
    spread = (math.sqrt(ch.x_r * ch.x_r / (2.0 * ch.mu))
              * (1.0 / math.sqrt(band.omega1) - 1.0 / math.sqrt(band.omega2)))
    return spread / band.period


def reception_amplitude_distortion(rs: ReceptionSystem,
                                   band: FrequencyBand) -> float:
    """q of the reception stage: 20 log10( |jw2 + k_r| / |jw1 + k_r| )."""
    return 20.0 * math.log10(math.hypot(band.omega2, rs.k_r)
                             / math.hypot(band.omega1, rs.k_r))


def reception_delay_distortion(rs: ReceptionSystem,
                               band: FrequencyBand) -> float:
    """r of the reception stage.

    (tau(w1) - tau(w2)) / T1 collapses to
    (arctan(w1/k_r) - (w1/w2) arctan(w2/k_r)) / (2 pi).
    """
    return (math.atan2(band.omega1, rs.k_r)
            - band.omega1 / band.omega2 * math.atan2(band.omega2, rs.k_r)
            ) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizedBand:
    """Band in reception-corner units plus the diffusion scale lam.

    omega1p/omega2p are w1/k_r and w2/k_r; lam = sqrt(x_r^2 k_r / (2 mu))
    is dimensionless and carries the entire dependence on (mu, x_r, k_r)
    of the diffusion-stage indices.  The three fields may be arrays that
    broadcast together; the normal-form closed forms then return one
    index per band.
    """

    omega1p: float | np.ndarray
    omega2p: float | np.ndarray
    lam: float | np.ndarray

    def __post_init__(self) -> None:
        # One check per call, not per element; the message is built only
        # on failure because formatting an array costs more than the check.
        w1, w2, lam = self.omega1p, self.omega2p, self.lam
        if not _all((w1 > 0.0) & (w1 <= FLOAT_MAX)):
            raise ParameterError(f"omega1p must be finite and > 0, got {w1}")
        if not (_all(w2 <= FLOAT_MAX) and _all(w2 > w1)):
            raise ParameterError(f"omega2p must be finite and > omega1p={w1}, "
                                 f"got {w2}")
        if not _all((lam >= 0.0) & (lam <= FLOAT_MAX)):
            raise ParameterError(f"lam must be finite and >= 0, got {lam}")


def normalize(ch: DiffusionChannel, rs: ReceptionSystem,
              band: FrequencyBand) -> NormalizedBand:
    """Map physical parameters to the (omega1p, omega2p, lam) normal form.

    Array fields of the channel and the band broadcast together.
    """
    return NormalizedBand(
        omega1p=band.omega1 / rs.k_r,
        omega2p=band.omega2 / rs.k_r,
        lam=np.sqrt(ch.x_r * ch.x_r * rs.k_r / (2.0 * ch.mu)),
    )


def denormalize_distance(lam: float, mu: float, k_r: float) -> float:
    """Recover the physical distance x_r (um) from lam given mu and k_r."""
    _require(_finite(lam) and lam >= 0.0, f"lam must be >= 0, got {lam}")
    _require(_finite(mu) and mu > 0.0, f"mu must be > 0, got {mu}")
    _require(_finite(k_r) and k_r > 0.0, f"k_r must be > 0, got {k_r}")
    return lam * math.sqrt(2.0 * mu / k_r)


def diffusion_amplitude_distortion_normalized(
        nb: NormalizedBand) -> float | np.ndarray:
    """q_G in normal form: 20 lam (sqrt w2' - sqrt w1') log10 e."""
    return 20.0 * nb.lam * (np.sqrt(nb.omega2p) - np.sqrt(nb.omega1p)) * LOG10_E


def diffusion_delay_distortion_normalized(
        nb: NormalizedBand) -> float | np.ndarray:
    """r_G in normal form: (w1'/2pi) lam (1/sqrt w1' - 1/sqrt w2')."""
    return (nb.omega1p / (2.0 * math.pi) * nb.lam
            * (1.0 / np.sqrt(nb.omega1p) - 1.0 / np.sqrt(nb.omega2p)))


def reception_amplitude_distortion_normalized(
        nb: NormalizedBand) -> float | np.ndarray:
    """q_H in normal form: 20 log10( sqrt(1 + w2'^2) / sqrt(1 + w1'^2) )."""
    return 20.0 * np.log10(np.hypot(nb.omega2p, 1.0)
                           / np.hypot(nb.omega1p, 1.0))


def reception_delay_distortion_normalized(
        nb: NormalizedBand) -> float | np.ndarray:
    """r_H in normal form: (arctan w1' - (w1'/w2') arctan w2') / 2 pi."""
    return (np.arctan(nb.omega1p)
            - nb.omega1p / nb.omega2p * np.arctan(nb.omega2p)) / (2.0 * math.pi)


def delay_distortion_maxima(omega2p: float) -> tuple[float, float]:
    """Worst-case w1' for each stage's delay distortion at fixed w2'.

    With w2' fixed, r_G(w1') peaks at w1' = w2' / 4 and r_H(w1') peaks at
    w1' = sqrt(w2' / arctan(w2') - 1); both are interior maxima of
    otherwise non-monotone curves.  Returns (w1'_diffusion, w1'_reception).

    Below w2' = 1e-2 the radicand loses its digits to cancellation
    (relative error about 2 eps / w2'^2), so it is taken from its series
    x^2/3 - 4x^4/45 + 44x^6/945, whose truncation error there is below
    1e-13 relative.
    """
    _require(_finite(omega2p) and omega2p > 0.0,
             f"omega2p must be finite and > 0, got {omega2p}")
    if omega2p < 1e-2:
        x2 = omega2p * omega2p
        return omega2p / 4.0, omega2p * math.sqrt(
            1.0 / 3.0 - x2 * (4.0 / 45.0 - x2 * 44.0 / 945.0))
    return omega2p / 4.0, math.sqrt(omega2p / math.atan(omega2p) - 1.0)


# ---------------------------------------------------------------------------
# Combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistortionReport:
    """Stage and whole-channel distortion indices over one band.

    q_* are amplitude distortions in dB, r_* the period-normalized delay
    distortions; suffixes g / h / m mark the diffusion stage, the
    reception stage, and the full channel.  Because the stage gains (dB)
    and phase delays add and are each monotone, the channel indices
    decompose as q_m = q_g + q_h and r_m = r_g + r_h.
    """

    band: FrequencyBand
    q_g: float
    r_g: float
    q_h: float
    r_h: float
    q_m: float
    r_m: float

    def __post_init__(self) -> None:
        for name in ("q_g", "r_g", "q_h", "r_h", "q_m", "r_m"):
            value = getattr(self, name)
            _require(_finite(value) and value >= -1e-12,
                     f"{name} must be finite and >= 0, got {value}")
        for total, parts in (("q_m", ("q_g", "q_h")), ("r_m", ("r_g", "r_h"))):
            lhs = getattr(self, total)
            rhs = getattr(self, parts[0]) + getattr(self, parts[1])
            _require(abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)),
                     f"{total} must equal {parts[0]} + {parts[1]}")


def channel_report(ch: DiffusionChannel, rs: ReceptionSystem,
                   band: FrequencyBand) -> DistortionReport:
    """Closed-form distortion indices for both stages and their cascade."""
    q_g = diffusion_amplitude_distortion(ch, band)
    r_g = diffusion_delay_distortion(ch, band)
    q_h = reception_amplitude_distortion(rs, band)
    r_h = reception_delay_distortion(rs, band)
    return DistortionReport(band=band, q_g=q_g, r_g=r_g, q_h=q_h, r_h=r_h,
                            q_m=q_g + q_h, r_m=r_g + r_h)

