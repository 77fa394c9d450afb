"""Design rules built on the band distortion indices.

Given distortion budgets for the whole channel, the reception stage
consumes a fixed share (it does not depend on the distance x_r) and the
remainder limits how far the receiver may sit: both diffusion indices
are linear in x_r, so each budget inverts to an explicit distance bound
and the tighter one wins.

Also here: the attenuation cutoff of the reception stage, and a search
for the highest frequency decade a channel can carry while keeping the
diffusion-stage distortion a small fraction of the reception-stage
distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import (
    LOG10_E,
    DiffusionChannel,
    FrequencyBand,
    ReceptionSystem,
    _require,
)
from .distortion import (
    diffusion_amplitude_distortion_normalized,
    diffusion_delay_distortion_normalized,
    normalize,
    reception_amplitude_distortion,
    reception_amplitude_distortion_normalized,
    reception_delay_distortion,
    reception_delay_distortion_normalized,
)

__all__ = [
    "DesignSpec",
    "DesignResult",
    "distance_bound",
    "reception_cutoff",
    "InfeasibleBandError",
    "CleanBandResult",
    "highest_clean_band",
]


@dataclass(frozen=True)
class DesignSpec:
    """Whole-channel distortion budgets over a band.

    Attributes:
        q0: amplitude-distortion budget, dB.
        r0: delay-distortion budget, dimensionless.
        band: analysis band.
        mu: diffusion coefficient of the medium, um^2/s.
        rs: reception stage (fixes the budget share it consumes).
    """

    q0: float
    r0: float
    band: FrequencyBand
    mu: float
    rs: ReceptionSystem

    def __post_init__(self) -> None:
        _require(math.isfinite(self.q0) and self.q0 > 0.0,
                 f"q0 must be finite and > 0, got {self.q0}")
        _require(math.isfinite(self.r0) and self.r0 > 0.0,
                 f"r0 must be finite and > 0, got {self.r0}")
        _require(math.isfinite(self.mu) and self.mu > 0.0,
                 f"mu must be finite and > 0, got {self.mu}")


@dataclass(frozen=True)
class DesignResult:
    """Distance bounds meeting a DesignSpec.

    x_q / x_r_delay are the largest distances allowed by the amplitude
    and the delay budget alone; x_r_limit is their minimum, or None when
    the reception stage already exceeds a budget (feasible = False).
    """

    x_q: float
    x_r_delay: float
    x_r_limit: float | None
    feasible: bool


def distance_bound(spec: DesignSpec) -> DesignResult:
    """Largest receiver distance satisfying both distortion budgets.

    The diffusion indices grow linearly in x_r, so setting
    q_g(x) = q0 - q_h and r_g(x) = r0 - r_h gives

        x_q       = sqrt(2 mu) (q0 - q_h) / (20 (sqrt w2 - sqrt w1) log10 e)
        x_r_delay = sqrt(2 mu) (r0 - r_h) T1 / (1/sqrt w1 - 1/sqrt w2)

    Budgets at or below the reception share leave no room for any
    positive distance; that returns a structured infeasible result
    rather than raising.
    """
    band = spec.band
    q_h = reception_amplitude_distortion(spec.rs, band)
    r_h = reception_delay_distortion(spec.rs, band)
    root = math.sqrt(2.0 * spec.mu)
    x_q = (root * (spec.q0 - q_h)
           / (20.0 * (math.sqrt(band.omega2) - math.sqrt(band.omega1)) * LOG10_E))
    x_r_delay = (root * (spec.r0 - r_h) * band.period
                 / (1.0 / math.sqrt(band.omega1) - 1.0 / math.sqrt(band.omega2)))
    feasible = spec.q0 > q_h and spec.r0 > r_h
    limit = min(x_q, x_r_delay) if feasible else None
    return DesignResult(x_q=x_q, x_r_delay=x_r_delay, x_r_limit=limit,
                        feasible=feasible)


def reception_cutoff(rs: ReceptionSystem, attenuation: float) -> float:
    """Frequency where |H(jw)| falls to the given absolute attenuation.

    Inverts k_f r / sqrt(w^2 + k_r^2) = attenuation; requires
    0 < attenuation < DC gain so that the crossing frequency is positive.
    """
    _require(math.isfinite(attenuation) and 0.0 < attenuation < rs.dc_gain,
             f"attenuation must lie in (0, dc_gain={rs.dc_gain:g}), "
             f"got {attenuation}")
    ratio = rs.k_f * rs.r / attenuation
    return math.sqrt(ratio * ratio - rs.k_r * rs.k_r)


class InfeasibleBandError(RuntimeError):
    """No frequency decade in the search range meets the cleanliness bound."""


@dataclass(frozen=True)
class CleanBandResult:
    """Outcome of highest_clean_band.

    saturated is set when every band in the search range qualified, i.e.
    the returned band is only bounded by the search range, not by the
    distortion criterion.
    """

    band: FrequencyBand
    saturated: bool = False


def highest_clean_band(mu: float, x_r: float, rs: ReceptionSystem,
                       decade_width: float = 10.0,
                       q_fraction: float = 0.1, r_fraction: float = 0.1,
                       search_range: tuple[float, float] = (1e-8, 1e8),
                       rel_tol: float = 1e-4) -> CleanBandResult:
    """Highest band [w1, decade_width * w1] with small diffusion distortion.

    A band qualifies when the diffusion-stage indices stay below the
    given fractions of the reception-stage indices computed on that same
    band:  q_g <= q_fraction * q_h  and  r_g <= r_fraction * r_h.

    The qualifying set is not a half-line: toward low frequencies the
    reception indices vanish faster (q_h ~ w1^2, r_h ~ w1^3) than the
    diffusion ones (~ sqrt(w1)), so the predicate fails at both extremes
    for x_r > 0.  The search therefore scans a coarse log grid for the
    top of the qualifying set and bisects the upper transition to the
    requested relative tolerance.  Deterministic: repeated calls return
    identical results.

    Precision: the returned w1 is the qualifying end of the final
    bisection bracket, so it satisfies the predicate and lies at or
    below the exact upper edge w1*, within rel_tol:
    0 <= 1 - w1 / w1* <= rel_tol.

    Raises:
        InfeasibleBandError: if no grid point in the search range qualifies.
    """
    _require(math.isfinite(mu) and mu > 0.0, f"mu must be > 0, got {mu}")
    _require(math.isfinite(x_r) and x_r >= 0.0, f"x_r must be >= 0, got {x_r}")
    _require(decade_width > 1.0,
             f"decade_width must be > 1, got {decade_width}")
    _require(q_fraction > 0.0 and r_fraction > 0.0,
             "q_fraction and r_fraction must be > 0")
    lo, hi = search_range
    _require(0.0 < lo < hi, f"invalid search range {search_range}")

    ch = DiffusionChannel(mu=mu, x_r=x_r)

    def qualifies(omega1):
        """The predicate at band start(s) omega1, a scalar or an array."""
        nb = normalize(ch, rs, FrequencyBand(omega1, omega1 * decade_width))
        return ((diffusion_amplitude_distortion_normalized(nb)
                 <= q_fraction * reception_amplitude_distortion_normalized(nb))
                & (diffusion_delay_distortion_normalized(nb)
                   <= r_fraction * reception_delay_distortion_normalized(nb)))

    # Coarse scan: 16 points per decade is plenty to find the qualifying
    # window, whose width is set by polynomial-order crossings.
    decades = math.log10(hi / lo)
    n_scan = max(2, int(round(decades * 16)) + 1)
    step = (hi / lo) ** (1.0 / (n_scan - 1))
    flags = qualifies(lo * step ** np.arange(n_scan))

    if flags.all():
        return CleanBandResult(FrequencyBand(hi, hi * decade_width),
                               saturated=True)
    if not flags.any():
        raise InfeasibleBandError(
            f"no band of width {decade_width:g} in {search_range} keeps the "
            f"diffusion distortion below ({q_fraction:g} q_h, {r_fraction:g} r_h) "
            f"at x_r={x_r:g} um, mu={mu:g} um^2/s")

    top = int(np.flatnonzero(flags)[-1])
    if top == n_scan - 1:
        # Qualifies at the very top of the range but not everywhere below:
        # treat like saturation at the range top.
        return CleanBandResult(FrequencyBand(hi, hi * decade_width),
                               saturated=True)

    # The bracket ends come from float pow, whose result does not depend
    # on which SIMD kernel numpy dispatches to; w1 is reported in full.
    good, bad = lo * step ** top, lo * step ** (top + 1)
    while bad / good > 1.0 + rel_tol:
        mid = math.sqrt(good * bad)
        if qualifies(mid):
            good = mid
        else:
            bad = mid
    return CleanBandResult(FrequencyBand(good, good * decade_width))
