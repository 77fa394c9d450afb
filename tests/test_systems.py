"""Frequency-response layer: values, monotonicity, the channel composed from
its stages, domains."""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcchannel import (
    DiffusionChannel,
    FrequencyBand,
    NormalizedBand,
    ParameterError,
    ReceptionSystem,
    SolverConfig,
    SquareWaveInput,
    TimeGrid,
    diffusion_gain_db,
    diffusion_phase_delay,
    diffusion_response,
    reception_gain_db,
    reception_phase_delay,
    reception_response,
)
from mcchannel import systems
from mcchannel.design import distance_bound

CH = DiffusionChannel(mu=83.0, x_r=14.0)
RS = ReceptionSystem(k_f=1e-3, k_r=4e-3, r=4.0)
W1, W2 = 5e-4, 0.4

# Hand-computed reference values for CH / RS at the band edges:
# root = sqrt(x_r^2 w / (2 mu)) evaluated independently.
ROOT_W1 = 0.024297354707521816
MAG_G_W1 = 0.9759954497634531
GAIN_G_W1_DB = -0.21104414148645445
DELAY_G_W1 = 48.59470941504363
MAG_G_W2 = 0.5029658664409482
PHASE_G_W2 = -0.6872329711433424
MAG_H_W1 = 0.9922778767136676
MAG_H_CORNER = 0.7071067811865476
MAG_H_W2 = 0.009999500037496875
DELAY_H_W1 = 248.70998909352286
DELAY_H_CORNER = 196.34954084936206
MAG_M_W1 = 0.9684586925734803


def test_diffusion_response_matches_reference_values():
    mag, phase = diffusion_response(CH, W1)
    assert_allclose(mag, MAG_G_W1, rtol=1e-12)
    assert_allclose(phase, -ROOT_W1, rtol=1e-12)
    mag, phase = diffusion_response(CH, W2)
    assert_allclose(mag, MAG_G_W2, rtol=1e-12)
    assert_allclose(phase, PHASE_G_W2, rtol=1e-12)
    assert_allclose(diffusion_gain_db(CH, W1), GAIN_G_W1_DB, rtol=1e-12)
    assert_allclose(diffusion_phase_delay(CH, W1), DELAY_G_W1, rtol=1e-12)


def test_zero_distance_collapses_to_identity():
    ident = DiffusionChannel(mu=83.0, x_r=0.0)
    for w in (1e-6, 1e-2, 1e3):
        assert diffusion_response(ident, w) == (1.0, 0.0)
        assert diffusion_gain_db(ident, w) == 0.0
        assert diffusion_phase_delay(ident, w) == 0.0


def test_array_evaluation_matches_scalar():
    # One calling convention: a scalar omega gives the numpy values of the
    # one-element array, bit for bit, as a pair for the responses.
    grid = np.logspace(-5, 2, 17)
    curves = [
        lambda w: diffusion_response(CH, w),
        lambda w: reception_response(RS, w),
        lambda w: diffusion_gain_db(CH, w),
        lambda w: diffusion_phase_delay(CH, w),
        lambda w: reception_gain_db(RS, w),
        lambda w: reception_phase_delay(RS, w),
    ]
    for curve in curves:
        whole = np.array(curve(grid))
        ones = np.array([curve(float(w)) for w in grid])
        assert ones.T.tolist() == whole.tolist()
    mag, phase = diffusion_response(CH, W1)
    assert isinstance(mag, np.floating) and isinstance(phase, np.floating)


def test_responses_decrease_with_frequency():
    # Magnitude, dB gain, phase, and phase delay of both stages are all
    # strictly decreasing in omega; sample densely over several decades.
    # The diffusion magnitude itself is only probed up to 1e2 rad/s: above
    # that its exponent passes ~-700 and the float value underflows to 0,
    # turning strict decrease into ties (checked separately below).
    grid = np.logspace(-6, 6, 2048)
    mag_g, phase_g = diffusion_response(CH, np.logspace(-6, 2, 2048))
    assert np.all(np.diff(mag_g) < 0)
    assert np.all(np.diff(phase_g) < 0)
    assert np.all(np.diff(diffusion_gain_db(CH, grid)) < 0)
    assert np.all(np.diff(diffusion_phase_delay(CH, grid)) < 0)
    mag_h, phase_h = reception_response(RS, grid)
    assert np.all(np.diff(mag_h) < 0)
    assert np.all(np.diff(phase_h) < 0)
    assert np.all(np.diff(reception_phase_delay(RS, grid)) < 0)
    assert diffusion_response(CH, 1e6)[0] == 0.0


def test_gain_db_consistent_with_magnitude():
    grid = np.logspace(-4, 1, 64)
    mag_g, _ = diffusion_response(CH, grid)
    assert_allclose(diffusion_gain_db(CH, grid), 20.0 * np.log10(mag_g),
                    rtol=0, atol=1e-12)
    mag_h, _ = reception_response(RS, grid)
    assert_allclose(reception_gain_db(RS, grid), 20.0 * np.log10(mag_h),
                    rtol=0, atol=1e-12)


def test_reception_reference_values():
    assert RS.dc_gain == 1.0
    assert_allclose(reception_response(RS, W1)[0], MAG_H_W1, rtol=1e-12)
    assert_allclose(reception_response(RS, W2)[0], MAG_H_W2, rtol=1e-12)
    assert_allclose(reception_phase_delay(RS, W1), DELAY_H_W1, rtol=1e-12)
    assert_allclose(reception_phase_delay(RS, RS.k_r), DELAY_H_CORNER, rtol=1e-12)


def test_reception_at_zero_frequency():
    # The responses take omega > 0; the DC gain is a property of the stage.
    with pytest.raises(ParameterError, match="> 0"):
        reception_response(RS, 0.0)
    with pytest.raises(ParameterError, match="> 0"):
        reception_phase_delay(RS, 0.0)
    assert_allclose(reception_response(RS, 1e-9)[0], RS.dc_gain, rtol=1e-12)
    # The phase-delay limit at omega -> 0 is 1 / k_r.
    near = reception_phase_delay(RS, 1e-9)
    assert abs(near - 1.0 / RS.k_r) < 1e-6


def test_reception_half_power_at_corner():
    mag, phase = reception_response(RS, RS.k_r)
    assert_allclose(mag, RS.dc_gain / math.sqrt(2.0), rtol=1e-12)
    assert_allclose(mag, MAG_H_CORNER, rtol=1e-12)
    assert_allclose(phase, -math.pi / 4.0, rtol=1e-12)


def test_cascade_combines_stage_responses():
    # G H has no function of its own: magnitudes multiply and unwrapped
    # phases add, so the channel's dB gain and phase delay are the sums
    # of the stages'.
    g_mag, g_phase = diffusion_response(CH, W1)
    h_mag, h_phase = reception_response(RS, W1)
    assert_allclose(g_mag * h_mag, MAG_M_W1, rtol=1e-12)
    # the polar composition is the complex product
    assert abs(g_mag * h_mag * np.exp(1j * (g_phase + h_phase))
               - g_mag * np.exp(1j * g_phase) * h_mag * np.exp(1j * h_phase)
               ) < 1e-15

    grid = np.logspace(-4, 0, 32)
    g_mag, g_phase = diffusion_response(CH, grid)
    h_mag, h_phase = reception_response(RS, grid)
    assert_allclose(diffusion_gain_db(CH, grid) + reception_gain_db(RS, grid),
                    20.0 * np.log10(g_mag * h_mag), rtol=0, atol=1e-12)
    assert_allclose(diffusion_phase_delay(CH, grid)
                    + reception_phase_delay(RS, grid),
                    -(g_phase + h_phase) / grid, rtol=1e-12)


@pytest.mark.parametrize("ctor, kwargs", [
    (DiffusionChannel, dict(mu=0.0, x_r=1.0)),
    (DiffusionChannel, dict(mu=-1.0, x_r=1.0)),
    (DiffusionChannel, dict(mu=math.nan, x_r=1.0)),
    (DiffusionChannel, dict(mu=83.0, x_r=-1.0)),
    (ReceptionSystem, dict(k_f=0.0, k_r=4e-3, r=4.0)),
    (ReceptionSystem, dict(k_f=1e-3, k_r=-4e-3, r=4.0)),
    (ReceptionSystem, dict(k_f=1e-3, k_r=4e-3, r=0.0)),
    (FrequencyBand, dict(omega1=0.0, omega2=1.0)),
    (FrequencyBand, dict(omega1=0.4, omega2=5e-4)),
    (FrequencyBand, dict(omega1=1.0, omega2=1.0)),
    (NormalizedBand, dict(omega1p=0.0, omega2p=1.0, lam=1.0)),
    (NormalizedBand, dict(omega1p=1.0, omega2p=1.0, lam=1.0)),
])
def test_invalid_parameters_raise(ctor, kwargs):
    with pytest.raises(ParameterError):
        ctor(**kwargs)


@pytest.mark.parametrize("ctor, args", [
    (FrequencyBand, (1, 10**400)),
    (FrequencyBand, (10**400, 10**401)),
    (NormalizedBand, (1, 10**400, 1.0)),
    (NormalizedBand, (1.0, 2.0, 10**400)),
    (NormalizedBand, (np.array([1.0]), 10**400, 1.0)),
    (NormalizedBand, (np.array([1.0]), np.array([2.0]), 10**400)),
])
def test_bands_reject_values_beyond_the_float_range(ctor, args):
    # A Python int compares below inf however large it is; it must still
    # fail at construction, not later as an OverflowError, also beside an
    # array field of a NormalizedBand, where numpy cannot convert it for
    # the comparison.
    with pytest.raises(ParameterError, match="finite"):
        ctor(*args)


HUGE = 10**400  # a Python int beyond the float range


@pytest.mark.parametrize("build", [
    lambda: ReceptionSystem(k_f=HUGE, k_r=1.0, r=1.0),
    lambda: distance_bound(HUGE, 1.0, FrequencyBand(W1, W2), 83.0, RS),
    lambda: SquareWaveInput(amplitude=HUGE, fundamental=W1),
    lambda: TimeGrid(t0=0.0, dt=HUGE, n=3),
    lambda: SolverConfig(dx=HUGE, dt=1.0, domain_length=100.0, duration=10.0),
], ids=["ReceptionSystem", "distance_bound", "SquareWaveInput", "TimeGrid",
        "SolverConfig"])
def test_scalar_checks_reject_ints_beyond_the_float_range(build):
    # math.isfinite would raise OverflowError converting the int.
    with pytest.raises(ParameterError):
        build()


def test_bands_accept_the_largest_float():
    top = sys.float_info.max
    assert FrequencyBand(1.0, top).omega2 == top
    assert NormalizedBand(1.0, top, top).lam == top


def test_channel_accepts_the_largest_float():
    # The finiteness checks are closed at FLOAT_MAX, like the bands'.
    top = sys.float_info.max
    assert systems._finite(top) and systems._finite(-top)
    channel = DiffusionChannel(mu=top, x_r=top)
    assert (channel.mu, channel.x_r) == (top, top)


def test_invalid_frequencies_raise():
    with pytest.raises(ParameterError):
        diffusion_response(CH, 0.0)
    with pytest.raises(ParameterError):
        diffusion_response(CH, -1.0)
    with pytest.raises(ParameterError):
        diffusion_phase_delay(CH, 0.0)
    with pytest.raises(ParameterError):
        diffusion_response(CH, np.array([1.0, -2.0]))
    with pytest.raises(ParameterError):
        reception_response(RS, -1e-9)
    with pytest.raises(ParameterError):
        reception_response(RS, math.inf)
    with pytest.raises(ParameterError):
        reception_response(RS, 0.0)
    with pytest.raises(ParameterError):
        reception_gain_db(RS, 0.0)
    with pytest.raises(ParameterError):
        reception_phase_delay(RS, np.array([1.0, 0.0]))
