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

The indices are written once, in a two-parameter normal form: with
w' = w / k_r and lam = sqrt(x_r^2 k_r / (2 mu)), the four stage indices
depend only on (w1', w2', lam), and the diffusion indices are linear in
lam.  The normal-form closed forms take arrays (a NormalizedBand whose
fields broadcast) and evaluate with numpy; the report, the sweep maps,
the distance bound and the clean-band search all evaluate them.
"""

from __future__ import annotations

import math

import numpy as np

from .systems import (
    FLOAT_MAX,
    LOG10_E,
    DiffusionChannel,
    FrequencyBand,
    ParameterError,
    ReceptionSystem,
    _finite,
    _Record,
    _require,
)

__all__ = [
    "log_grid",
    "reception_amplitude_distortion",
    "reception_delay_distortion",
    "NormalizedBand",
    "normalize",
    "diffusion_amplitude_distortion_normalized",
    "diffusion_delay_distortion_normalized",
    "reception_amplitude_distortion_normalized",
    "reception_delay_distortion_normalized",
    "DistortionReport",
    "channel_report",
]


def log_grid(band: FrequencyBand, n_points: int) -> np.ndarray:
    """Log-spaced frequency grid over the band, endpoints included exactly."""
    _require(n_points >= 2, f"n_points must be >= 2, got {n_points}")
    # The last power may overflow; the endpoint replaces it.
    with np.errstate(over="ignore"):
        grid = np.logspace(math.log10(band.omega1), math.log10(band.omega2),
                           n_points)
    # Pin the endpoints so band-edge extremes are sampled without rounding.
    grid[0] = band.omega1
    grid[-1] = band.omega2
    return grid


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------

class NormalizedBand(_Record):
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
        if not np.all((w1 > 0.0) & (w1 <= FLOAT_MAX)):
            raise ParameterError(f"omega1p must be finite and > 0, got {w1}")
        if not (np.all(w2 <= FLOAT_MAX) and np.all(w2 > w1)):
            raise ParameterError(f"omega2p must be finite and > omega1p={w1}, "
                                 f"got {w2}")
        if not np.all((lam >= 0.0) & (lam <= FLOAT_MAX)):
            raise ParameterError(f"lam must be finite and >= 0, got {lam}")


def normalize(ch: DiffusionChannel, rs: ReceptionSystem,
              band: FrequencyBand) -> NormalizedBand:
    """Map physical parameters to the (omega1p, omega2p, lam) normal form."""
    return _in_corner_units(band, rs, _lam(ch.mu, ch.x_r, rs.k_r))


def _lam(mu, x_r, k_r):
    """The diffusion scale lam = sqrt(x_r^2 k_r / (2 mu)), elementwise.

    The numerator is halved rather than mu doubled, so mu near the top of
    the float range does not overflow.
    """
    return np.sqrt(0.5 * x_r * x_r * k_r / mu)


def _in_corner_units(band: FrequencyBand, rs: ReceptionSystem,
                    lam) -> NormalizedBand:
    """The band at w' = w / k_r, with the given diffusion scale lam."""
    return NormalizedBand(band.omega1 / rs.k_r, band.omega2 / rs.k_r, lam)


def _root_gap(nb: NormalizedBand):
    """sqrt w2' - sqrt w1', as (w2' - w1') / (sqrt w2' + sqrt w1').

    The difference of the roots would cancel as w1' -> w2'.
    """
    return (nb.omega2p - nb.omega1p) / (np.sqrt(nb.omega2p)
                                        + np.sqrt(nb.omega1p))


def diffusion_amplitude_distortion_normalized(
        nb: NormalizedBand) -> float | np.ndarray:
    """q_G in normal form: 20 lam (sqrt w2' - sqrt w1') log10 e."""
    return 20.0 * nb.lam * _root_gap(nb) * LOG10_E


def diffusion_delay_distortion_normalized(
        nb: NormalizedBand) -> float | np.ndarray:
    """r_G in normal form: (w1'/2pi) lam (1/sqrt w1' - 1/sqrt w2').

    The difference is taken as (sqrt w2' - sqrt w1') / (sqrt w1' sqrt w2').
    """
    return (nb.omega1p / (2.0 * math.pi) * nb.lam
            * (_root_gap(nb) / (np.sqrt(nb.omega1p) * np.sqrt(nb.omega2p))))


def reception_amplitude_distortion_normalized(
        nb: NormalizedBand) -> float | np.ndarray:
    """q_H in normal form: 20 log10( sqrt(1 + w2'^2) / sqrt(1 + w1'^2) ).

    With h = sqrt(1 + w'^2), it is taken as 20 log10(e) log1p(h2 / h1 - 1),
    the excess being (w2' - w1') (w2' + w1') / (h1 (h1 + h2)): the log of
    the rounded ratio would lose the digits that cancel on narrow bands.
    The sums are halved (exactly, as h >= 1) so that none overflows.
    """
    w1, w2 = nb.omega1p, nb.omega2p
    h1, h2 = np.hypot(w1, 1.0), np.hypot(w2, 1.0)
    excess = (w2 - w1) / (0.5 * h1 + 0.5 * h2) * (0.5 * w2 + 0.5 * w1) / h1
    return 20.0 * (LOG10_E * np.log1p(excess))


# r_H's two arctan terms cancel for small w2'; up to this one its series
# is summed instead, to enough terms to meet float precision there.
_SERIES_TOP = 0.125
_SERIES_TERMS = 9


def reception_delay_distortion_normalized(
        nb: NormalizedBand) -> float | np.ndarray:
    """r_H in normal form: (arctan w1' - (w1'/w2') arctan w2') / 2 pi.

    Up to w2' = _SERIES_TOP the difference is the series
    w1' (w2'^2 - w1'^2) sum_k (-1)^(k+1) s_k / (2k + 1), where
    s_k = (w2'^2k - w1'^2k) / (w2'^2 - w1'^2) = w2'^2 s_(k-1) + w1'^2(k-1).
    Above it, a band with w1' > w2'/2 takes the difference as
    t arctan(w2') - arctan(t / (1/w2' + w1')), with t = (w2' - w1') / w2'
    and w2' - w1' exact: the arctan terms of the closed form cancel as
    w1' -> w2'.  Dividing by w2' keeps w1' w2' from overflowing.
    """
    w1, w2 = np.broadcast_arrays(nb.omega1p, nb.omega2p)
    r = np.asarray(np.arctan(w1) - w1 / w2 * np.arctan(w2))
    small = w2 <= _SERIES_TOP
    narrow = ~small & (w1 > 0.5 * w2)
    a, b = w1[narrow], w2[narrow]
    t = (b - a) / b
    r[narrow] = t * np.arctan(b) - np.arctan(t / (1.0 / b + a))
    w1, w2 = w1[small], w2[small]
    total, s, power = 0.0, 1.0, 1.0
    for k in range(1, _SERIES_TERMS + 1):
        total = total + (-1) ** (k + 1) * s / (2 * k + 1)
        power = power * w1 * w1
        s = w2 * w2 * s + power
    r[small] = w1 * (w2 - w1) * (w2 + w1) * total
    return r[()] / (2.0 * math.pi)


def reception_amplitude_distortion(rs: ReceptionSystem,
                                   band: FrequencyBand) -> float:
    """q of the reception stage over a physical band (it needs no lam)."""
    return reception_amplitude_distortion_normalized(
        _in_corner_units(band, rs, 0.0))


def reception_delay_distortion(rs: ReceptionSystem,
                               band: FrequencyBand) -> float:
    """r of the reception stage over a physical band (it needs no lam)."""
    return reception_delay_distortion_normalized(
        _in_corner_units(band, rs, 0.0))


# ---------------------------------------------------------------------------
# Combined report
# ---------------------------------------------------------------------------

class DistortionReport(_Record):
    """Stage and whole-channel distortion indices over one band.

    q_* are amplitude distortions in dB, r_* the period-normalized delay
    distortions; suffixes g / h / m mark the diffusion stage, the
    reception stage, and the full channel.  Because the stage gains (dB)
    and phase delays add and are each monotone, the channel indices
    decompose as q_m = q_g + q_h and r_m = r_g + r_h.
    """

    q_g: float
    r_g: float
    q_h: float
    r_h: float

    def __post_init__(self) -> None:
        for name in ("q_g", "r_g", "q_h", "r_h"):
            value = getattr(self, name)
            _require(_finite(value) and value >= -1e-12,
                     f"{name} must be finite and >= 0, got {value}")

    @property
    def q_m(self) -> float:
        return self.q_g + self.q_h

    @property
    def r_m(self) -> float:
        return self.r_g + self.r_h


@np.errstate(over="ignore", invalid="ignore")
def channel_report(ch: DiffusionChannel, rs: ReceptionSystem,
                   band: FrequencyBand) -> DistortionReport:
    """Closed-form distortion indices for both stages and their cascade.

    The normal-form closed forms evaluated at normalize(ch, rs, band).  An
    index beyond the float range is left to DistortionReport to reject.
    """
    nb = normalize(ch, rs, band)
    q_g = float(diffusion_amplitude_distortion_normalized(nb))
    r_g = float(diffusion_delay_distortion_normalized(nb))
    q_h = float(reception_amplitude_distortion_normalized(nb))
    r_h = float(reception_delay_distortion_normalized(nb))
    return DistortionReport(q_g=q_g, r_g=r_g, q_h=q_h, r_h=r_h)

