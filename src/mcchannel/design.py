"""Design rules built on the band distortion indices.

Given distortion budgets for the whole channel, the reception stage
consumes a fixed share (it does not depend on the distance x_r) and the
remainder limits how far the receiver may sit: both diffusion indices
are linear in x_r, so each budget inverts to an explicit distance bound
and the tighter one wins.

Also here: a search for the highest frequency decade a channel can
carry while keeping the diffusion-stage distortion a small fraction of
the reception-stage distortion: one scan of a curve Phi(w1') that
every channel shares, then a bisection of each channel's upper edge.
"""

from __future__ import annotations

import math

import numpy as np

from .systems import (
    FLOAT_MAX,
    FrequencyBand,
    ParameterError,
    ReceptionSystem,
    _finite,
    _Record,
    _require,
)
from .distortion import (
    NormalizedBand,
    _in_corner_units,
    _lam,
    diffusion_amplitude_distortion_normalized,
    diffusion_delay_distortion_normalized,
    reception_amplitude_distortion,
    reception_amplitude_distortion_normalized,
    reception_delay_distortion,
    reception_delay_distortion_normalized,
)

__all__ = [
    "DesignResult",
    "distance_bound",
    "highest_clean_band",
]


class DesignResult(_Record):
    """Distance bounds meeting whole-channel distortion budgets.

    x_q / x_r_delay are the largest distances allowed by the amplitude
    and the delay budget alone; x_r_limit is their minimum, or None when
    the reception share q_h / r_h already exceeds a budget (feasible is
    False).  A distance that is not finite raises FloatingPointError.
    """

    x_q: float
    x_r_delay: float
    x_r_limit: float | None
    q_h: float
    r_h: float

    @property
    def feasible(self) -> bool:
        return self.x_r_limit is not None

    def __post_init__(self) -> None:
        # design.json would hold Infinity or NaN, which are not JSON.
        if not (_finite(self.x_q) and _finite(self.x_r_delay)):
            raise FloatingPointError(f"distance bound beyond the float range "
                                     f"(x_q={self.x_q}, x_r_delay={self.x_r_delay})")


def distance_bound(q0: float, r0: float, band: FrequencyBand, mu: float,
                   rs: ReceptionSystem) -> DesignResult:
    """Largest receiver distance satisfying both distortion budgets.

    q0 is the amplitude-distortion budget in dB and r0 the dimensionless
    delay-distortion budget of the whole channel over band; mu is the
    diffusion coefficient of the medium (um^2/s) and rs the reception
    stage, which fixes the share of the budgets it consumes.

    Each diffusion index is lam times its value at lam = 1 (q_1, r_1 on
    the band at w' = w / k_r), so q_g = q0 - q_h and r_g = r0 - r_h
    invert in lam, and lam = sqrt(x_r^2 k_r / (2 mu)) gives the distance:

        x_q       = (q0 - q_h) / q_1 * sqrt(2 mu) / sqrt(k_r)
        x_r_delay = (r0 - r_h) / r_1 * sqrt(2 mu) / sqrt(k_r)

    The square roots are taken apart, so their quotient stays in range.
    Budgets at or below the reception share leave no room for any
    positive distance; that returns a structured infeasible result
    rather than raising.
    """
    _require(_finite(q0) and q0 > 0.0, f"q0 must be finite and > 0, got {q0}")
    _require(_finite(r0) and r0 > 0.0, f"r0 must be finite and > 0, got {r0}")
    _require(_finite(mu) and mu > 0.0, f"mu must be finite and > 0, got {mu}")
    q_h = reception_amplitude_distortion(rs, band)
    r_h = reception_delay_distortion(rs, band)
    unit = _in_corner_units(band, rs, 1.0)
    scale = math.sqrt(2.0 * mu) / math.sqrt(rs.k_r)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x_q = ((q0 - q_h)
               / diffusion_amplitude_distortion_normalized(unit) * scale)
        x_r_delay = ((r0 - r_h)
                     / diffusion_delay_distortion_normalized(unit) * scale)
    limit = min(x_q, x_r_delay) if q0 > q_h and r0 > r_h else None
    return DesignResult(x_q=x_q, x_r_delay=x_r_delay, x_r_limit=limit,
                        q_h=float(q_h), r_h=float(r_h))


class CleanBands(_Record):
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


# The clean-band search: the bisection's relative tolerance, and the
# range of band starts w1 it scans.
_REL_TOL = 1e-4
_SEARCH_RANGE = (1e-8, 1e8)


@np.errstate(over="ignore")
def highest_clean_band(mu, x_r, rs: ReceptionSystem,
                       decade_width: float = 10.0,
                       q_fraction: float = 0.1,
                       r_fraction: float = 0.1) -> CleanBands:
    """Highest band [w1, decade_width * w1] with small diffusion distortion.

    A band qualifies when the diffusion-stage indices stay below the
    given fractions of the reception-stage indices computed on that same
    band:  q_g <= q_fraction * q_h  and  r_g <= r_fraction * r_h.  The
    diffusion indices are lam = sqrt(x_r^2 k_r / (2 mu)) times their
    values q_1, r_1 at lam = 1, so that reads lam <= Phi(w1), with
    Phi = min(q_fraction * q_h / q_1, r_fraction * r_h / r_1) one curve
    for every row.  Phi falls at both extremes: toward low frequencies
    the reception indices vanish faster (q_h ~ w1^2, r_h ~ w1^3) than the
    diffusion ones (~ sqrt(w1)), so the qualifying set is not a
    half-line.  The search evaluates Phi once on a coarse log grid over
    _SEARCH_RANGE, takes each row's last qualifying scan point from the
    suffix maxima of Phi, and bisects the upper transition.
    Deterministic: repeated calls return identical results.  Overflow
    reads right: a row whose lam is beyond the float range qualifies
    nowhere, and a fraction that makes Phi inf never binds.

    Precision: the returned w1 is the qualifying end of the final
    bisection bracket, so it satisfies the predicate and lies at or
    below the exact upper edge w1*, within _REL_TOL:
    0 <= 1 - w1 / w1* <= _REL_TOL.

    Rows: mu and x_r are scalars or 1-D arrays that broadcast together,
    one row per channel; a scalar pair is one row.  The reception stage
    and the other settings are shared.  All rows are searched at once,
    with one evaluation of Phi for the scan and one per bisection step,
    which moves every bracketing row in lockstep: each starts one scan
    step wide, so 11 steps reach _REL_TOL.  Every float operation is the
    same elementwise for every row (scan points and bracket ends from
    float pow, midpoints sqrt(good * bad), lam as in normalize), so each
    row's band equals, bit for bit, that of a call with that row alone.

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
    try:
        mu, x_r = np.broadcast_arrays(np.asarray(mu, dtype=float),
                                      np.asarray(x_r, dtype=float))
    except OverflowError:  # a Python int beyond the float range
        raise ParameterError(f"mu and x_r must be finite, got mu={mu}, "
                             f"x_r={x_r}") from None
    _require(mu.ndim <= 1,
             f"mu and x_r must be scalars or 1-D arrays, got shape {mu.shape}")
    # One check for all rows; the message formats the arrays only on failure.
    if not np.all((mu > 0.0) & (mu <= FLOAT_MAX)):
        raise ParameterError(f"mu must be finite and > 0, got {mu}")
    if not np.all((x_r >= 0.0) & (x_r <= FLOAT_MAX)):
        raise ParameterError(f"x_r must be finite and >= 0, got {x_r}")
    lam = np.atleast_1d(_lam(mu, x_r, rs.k_r))
    lo, hi = _SEARCH_RANGE
    _require(lam.size == 0 or _finite(hi * float(decade_width) / rs.k_r),
             f"reception k_r={rs.k_r:g} puts the clean-band search's top "
             f"band edge, {hi:g} * decade_width / k_r, beyond the float range")

    def ceiling(omega1):
        """Phi: the largest lam whose channel carries the bands at omega1."""
        unit = NormalizedBand(omega1 / rs.k_r, omega1 * decade_width / rs.k_r,
                              1.0)
        return np.minimum(
            q_fraction * reception_amplitude_distortion_normalized(unit)
            / diffusion_amplitude_distortion_normalized(unit),
            r_fraction * reception_delay_distortion_normalized(unit)
            / diffusion_delay_distortion_normalized(unit))

    # Coarse scan: 16 points per decade is plenty to find the qualifying
    # window, whose width is set by polynomial-order crossings.  The scan
    # points come from float pow, whose result does not depend on which
    # SIMD kernel numpy dispatches to; w1 is reported in full.
    n_scan = int(round(math.log10(hi / lo) * 16)) + 1
    step = (hi / lo) ** (1.0 / (n_scan - 1))
    scan = np.array([lo * step ** i for i in range(n_scan)])
    # A row's last qualifying scan point is the last whose suffix maximum
    # of Phi reaches lam; read from the top, those maxima only grow.  With
    # no row, Phi is skipped, as is the top-edge check above.
    rising = np.fmax.accumulate(ceiling(scan)[::-1]) if lam.size else []
    top = n_scan - 1 - np.searchsorted(rising, lam)

    # A row whose top scan point qualifies is saturated, whether or not
    # every point below does: its band is bounded only by the range top.
    saturated = top == n_scan - 1
    omega1 = np.where(saturated, hi, np.nan)
    rows = np.flatnonzero((top >= 0) & ~saturated)
    good, bad = scan[top[rows]], scan[top[rows] + 1]
    for _ in range(math.ceil(math.log2(math.log(step)
                                       / math.log1p(_REL_TOL)))):
        mid = np.sqrt(good * bad)
        ok = lam[rows] <= ceiling(mid)
        good, bad = np.where(ok, mid, good), np.where(ok, bad, mid)
    omega1[rows] = good

    status = np.where(saturated, "saturated",
                      np.where(top < 0, "infeasible", "ok"))
    return CleanBands(omega1, omega1 * decade_width, status)
