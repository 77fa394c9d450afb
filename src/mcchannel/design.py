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
import sys
from dataclasses import dataclass

import numpy as np

from .systems import (
    LOG10_E,
    DiffusionChannel,
    FrequencyBand,
    ParameterError,
    ReceptionSystem,
    _finite,
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
    "CleanBands",
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
        _require(_finite(self.q0) and self.q0 > 0.0,
                 f"q0 must be finite and > 0, got {self.q0}")
        _require(_finite(self.r0) and self.r0 > 0.0,
                 f"r0 must be finite and > 0, got {self.r0}")
        _require(_finite(self.mu) and self.mu > 0.0,
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
    _require(_finite(attenuation) and 0.0 < attenuation < rs.dc_gain,
             f"attenuation must lie in (0, dc_gain={rs.dc_gain:g}), "
             f"got {attenuation}")
    ratio = rs.k_f * rs.r / attenuation
    return math.sqrt(ratio * ratio - rs.k_r * rs.k_r)


@dataclass(frozen=True)
class CleanBands:
    """Outcome of highest_clean_band, one entry per row.

    omega1 and omega2 hold each row's band, nan where the row is
    infeasible.  status holds "ok", "saturated" or "infeasible" per row:
    "saturated" when the top of the search range qualifies, so the band
    is bounded by the range rather than by the distortion criterion;
    "infeasible" when no point of the search range qualifies.
    """

    omega1: np.ndarray
    omega2: np.ndarray
    status: np.ndarray


# Rows per block of the coarse scan: a block's (rows x 257) predicate
# temporaries stay near 0.5 MB whatever the number of rows.
_SCAN_ROW_BLOCK = 256

# Smallest rel_tol the bisection accepts, and the limits of the search
# range; highest_clean_band's docstring gives the reason for each.
_MIN_REL_TOL = 4.0 * sys.float_info.epsilon
_SEARCH_LIMITS = (1e-150, 1e150)


def highest_clean_band(mu, x_r, rs: ReceptionSystem,
                       decade_width: float = 10.0,
                       q_fraction: float = 0.1, r_fraction: float = 0.1,
                       search_range: tuple[float, float] = (1e-8, 1e8),
                       rel_tol: float = 1e-4) -> CleanBands:
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

    Settings: rel_tol must be at least 4 eps (8.9e-16), the floor at
    which the bisection provably ends.  With u = eps / 2, to first order
    in u: a step runs while the computed bad / good exceeds the computed
    1 + rel_tol, so the exact ratio exceeds 1 + rel_tol - 2u; and the
    midpoint sqrt(good * bad) is within 1.5u of exact, so it lies
    strictly inside the bracket once the ratio exceeds 1 + 3u.  At the
    floor, 8u, every step shrinks the bracket.  Below about 5u a step
    may return a bracket end, and repeat it forever; below u, 1 + rel_tol
    rounds to 1 and no bracket is ever narrow enough.  Both ends of
    search_range must lie in [1e-150, 1e150], so that good * bad is a
    normal float and the 1.5u bound holds.  decade_width and both
    fractions must be finite.

    Rows: mu and x_r are scalars or 1-D arrays that broadcast together,
    one row per channel; a scalar pair is one row.  The reception stage
    and the other settings are shared.  All rows are searched at once.
    The coarse scan is one predicate call per block of _SCAN_ROW_BLOCK
    rows, so its temporaries do not grow with the number of rows, and
    the bisection steps every row still bracketing in lockstep, one call
    per step, until each row's own bracket is within rel_tol.  Every
    float operation is the same elementwise for every row (scan points
    and bracket ends from float pow, midpoints sqrt(good * bad), lam as
    in normalize), so each row's band equals, bit for bit, that of a
    call with that row alone.

    Returns:
        CleanBands with a band and a status per row.

    Raises:
        ParameterError: if a row or a setting is outside its domain.
    """
    _require(_finite(decade_width) and decade_width > 1.0,
             f"decade_width must be finite and > 1, got {decade_width}")
    _require(_finite(q_fraction) and q_fraction > 0.0
             and _finite(r_fraction) and r_fraction > 0.0,
             "q_fraction and r_fraction must be finite and > 0")
    _require(_finite(rel_tol) and rel_tol >= _MIN_REL_TOL,
             f"rel_tol must be finite and >= {_MIN_REL_TOL:.3g}, got {rel_tol}")
    lo, hi = search_range
    _require(_SEARCH_LIMITS[0] <= lo < hi <= _SEARCH_LIMITS[1],
             f"search range must satisfy {_SEARCH_LIMITS[0]:g} <= lo < hi <= "
             f"{_SEARCH_LIMITS[1]:g}, got {search_range}")
    try:
        mu, x_r = np.broadcast_arrays(np.asarray(mu, dtype=float),
                                      np.asarray(x_r, dtype=float))
    except OverflowError:  # a Python int beyond the float range
        raise ParameterError(f"mu and x_r must be finite, got mu={mu}, "
                             f"x_r={x_r}") from None
    _require(mu.ndim <= 1,
             f"mu and x_r must be scalars or 1-D arrays, got shape {mu.shape}")
    DiffusionChannel(mu=mu, x_r=x_r)  # validates every row
    mu, x_r = np.atleast_1d(mu, x_r)

    def qualifies(omega1, mu, x_r):
        """The predicate at band starts omega1 for channels (mu, x_r)."""
        nb = normalize(DiffusionChannel(mu=mu, x_r=x_r), rs,
                       FrequencyBand(omega1, omega1 * decade_width))
        return ((diffusion_amplitude_distortion_normalized(nb)
                 <= q_fraction * reception_amplitude_distortion_normalized(nb))
                & (diffusion_delay_distortion_normalized(nb)
                   <= r_fraction * reception_delay_distortion_normalized(nb)))

    # Coarse scan: 16 points per decade is plenty to find the qualifying
    # window, whose width is set by polynomial-order crossings.  The scan
    # points come from float pow, whose result does not depend on which
    # SIMD kernel numpy dispatches to; w1 is reported in full.
    decades = math.log10(hi / lo)
    n_scan = max(2, int(round(decades * 16)) + 1)
    step = (hi / lo) ** (1.0 / (n_scan - 1))
    scan = np.array([lo * step ** i for i in range(n_scan)])
    top = np.empty(mu.size, dtype=np.intp)  # last qualifying point, or -1
    for start in range(0, mu.size, _SCAN_ROW_BLOCK):
        block = slice(start, start + _SCAN_ROW_BLOCK)
        flags = qualifies(scan, mu[block, None], x_r[block, None])
        last = n_scan - 1 - np.argmax(flags[:, ::-1], axis=1)
        top[block] = np.where(flags.any(axis=1), last, -1)

    # A row whose top scan point qualifies is saturated, whether or not
    # every point below does: its band is bounded only by the range top.
    saturated = top == n_scan - 1
    omega1 = np.where(saturated, hi, np.nan)
    rows = np.flatnonzero((top >= 0) & ~saturated)
    good, bad = scan[top[rows]], scan[top[rows] + 1]
    while True:
        wide = bad / good > 1.0 + rel_tol
        omega1[rows[~wide]] = good[~wide]
        rows, good, bad = rows[wide], good[wide], bad[wide]
        if rows.size == 0:
            break
        mid = np.sqrt(good * bad)
        ok = qualifies(mid, mu[rows], x_r[rows])
        good, bad = np.where(ok, mid, good), np.where(ok, bad, mid)

    status = np.where(saturated, "saturated",
                      np.where(top < 0, "infeasible", "ok"))
    return CleanBands(omega1, omega1 * decade_width, status)
