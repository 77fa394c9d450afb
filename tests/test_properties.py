"""Property tests of the model's invariants on generated parameters."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mcchannel import (
    DiffusionChannel,
    FrequencyBand,
    InfeasibleBandError,
    ReceptionSystem,
    cascade_gain_db,
    channel_report,
    diffusion_amplitude_distortion_normalized,
    highest_clean_band,
    normalize,
    reception_amplitude_distortion_normalized,
)

RS = ReceptionSystem(k_f=1e-3, k_r=4e-3, r=4.0)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def _qualifies(mu, x_r, omega1, width, fraction):
    """The clean-band predicate from the physical closed forms."""
    report = channel_report(DiffusionChannel(mu=mu, x_r=x_r), RS,
                            FrequencyBand(omega1, omega1 * width))
    return (report.q_g <= fraction * report.q_h
            and report.r_g <= fraction * report.r_h)


@settings(max_examples=200, deadline=None)
@given(mu=_log_uniform(0.1, 3000.0), x_r=_log_uniform(1e-3, 100.0),
       width=st.sampled_from([2.0, 10.0, 100.0]),
       fraction=st.sampled_from([0.05, 0.1, 0.5]),
       rel_tol=st.sampled_from([1e-6, 1e-4, 1e-2]))
def test_clean_band_edge_holds_and_fails_just_above(mu, x_r, width, fraction,
                                                    rel_tol):
    try:
        result = highest_clean_band(mu, x_r, RS, decade_width=width,
                                    q_fraction=fraction, r_fraction=fraction,
                                    rel_tol=rel_tol)
    except InfeasibleBandError:
        return
    if result.saturated:
        return
    omega1 = result.band.omega1
    assert _qualifies(mu, x_r, omega1, width, fraction)
    assert not _qualifies(mu, x_r, omega1 * (1.0 + 2.0 * rel_tol), width,
                          fraction)


@settings(max_examples=100, deadline=None)
@given(mu=_log_uniform(0.1, 3000.0), x_r=_log_uniform(1e-3, 100.0),
       starts=st.lists(_log_uniform(1e-6, 1e3), min_size=1, max_size=50),
       ratios=st.lists(_log_uniform(1.01, 1e4), min_size=50, max_size=50))
def test_cascade_amplitude_distortion_is_the_sum_on_arrays(mu, x_r, starts,
                                                            ratios):
    # q_m = q_g + q_h, with q_g and q_h from one array call of the
    # normal-form closed forms over many bands and q_m from the cascade
    # gain, which falls monotonically, so q_m = gain(w1) - gain(w2).
    ch = DiffusionChannel(mu=mu, x_r=x_r)
    w1 = np.array(starts)
    w2 = w1 * np.array(ratios[:len(starts)])
    nb = normalize(ch, RS, FrequencyBand(w1, w2))
    q_g = diffusion_amplitude_distortion_normalized(nb)
    q_h = reception_amplitude_distortion_normalized(nb)
    assert q_g.shape == q_h.shape == w1.shape
    gain1, gain2 = cascade_gain_db(ch, RS, w1), cascade_gain_db(ch, RS, w2)
    q_m = gain1 - gain2
    # Each gain is a difference of dB terms of at most ~200 dB here, so
    # it carries an absolute rounding error of order 1e-14 dB.
    bound = 1e-12 * (1.0 + np.abs(gain1) + np.abs(gain2))
    assert np.all(np.abs(q_g + q_h - q_m) <= bound)
