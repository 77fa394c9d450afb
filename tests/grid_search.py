"""Grid-search reference for the band distortion indices.

The package evaluates q and r from closed forms at the band edges, which
holds because every stage curve is monotone.  This reference assumes
nothing about the curve: it samples it on a dense log grid over the band
and takes the spread max - min.  Criteria 05 and 06 and
test_distortion.py check the closed forms against it.
"""

import numpy as np

from mcchannel import (
    DistortionReport,
    diffusion_gain_db,
    diffusion_phase_delay,
    log_grid,
    reception_gain_db,
    reception_phase_delay,
)

GRID_POINTS = 4096


class EvaluationError(RuntimeError):
    """A gain/delay curve returned a non-finite value during a grid scan."""

    def __init__(self, omega, value):
        self.omega = omega
        self.value = value
        super().__init__(f"non-finite curve value {value} at omega={omega}")


def _scan(fn, band, n_points):
    grid = log_grid(band, n_points)
    values = np.asarray(fn(grid), dtype=float)
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise EvaluationError(float(grid[i]), float(values[i]))
    return values


def amplitude_distortion(gain_db_fn, band, n_points=GRID_POINTS):
    """Grid estimate of the gain spread max - min over the band, in dB.

    gain_db_fn maps an array of omega (rad/s) to gain in dB.  Raises
    EvaluationError if the curve is non-finite anywhere on the grid.
    """
    values = _scan(gain_db_fn, band, n_points)
    return float(np.max(values) - np.min(values))


def delay_distortion(phase_delay_fn, band, n_points=GRID_POINTS):
    """Grid estimate of the period-normalized delay spread over the band.

    Returns (max tau - min tau) / T1 with T1 = 2 pi / omega1, dimensionless.
    """
    values = _scan(phase_delay_fn, band, n_points)
    return float((np.max(values) - np.min(values)) / (2.0 * np.pi / band.omega1))


def grid_report(ch, rs, band, n_points=GRID_POINTS):
    """Grid-search counterpart of mcchannel.channel_report."""
    q_g = amplitude_distortion(lambda w: diffusion_gain_db(ch, w), band, n_points)
    r_g = delay_distortion(lambda w: diffusion_phase_delay(ch, w), band, n_points)
    q_h = amplitude_distortion(lambda w: reception_gain_db(rs, w), band, n_points)
    r_h = delay_distortion(lambda w: reception_phase_delay(rs, w), band, n_points)
    return DistortionReport(q_g=q_g, r_g=r_g, q_h=q_h, r_h=r_h)
