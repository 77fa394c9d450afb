"""Distortion indices: closed forms, the grid-search reference, normal
form, maxima."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grid_search import (
    EvaluationError,
    amplitude_distortion,
    delay_distortion,
    grid_report,
)
from mcchannel import (
    DiffusionChannel,
    FrequencyBand,
    NormalizedBand,
    ParameterError,
    ReceptionSystem,
    channel_report,
    diffusion_amplitude_distortion_normalized,
    diffusion_delay_distortion_normalized,
    log_grid,
    normalize,
    reception_amplitude_distortion,
    reception_amplitude_distortion_normalized,
    reception_delay_distortion,
    reception_delay_distortion_normalized,
)

CH = DiffusionChannel(mu=83.0, x_r=14.0)
RS = ReceptionSystem(k_f=1e-3, k_r=4e-3, r=4.0)
BAND = FrequencyBand(5e-4, 0.4)

# Independently computed index values on BAND.
Q_G = 5.758185601504151
R_G = 0.0037303234502427387
Q_H = 39.93310044617894
R_H = 0.01948120145076084
LAM = 0.06872329711433424          # sqrt(x_r^2 k_r / (2 mu)) for CH, RS
Q_G_UNIT = 8.685889638065037       # normalized q_g at lam=1 over [1, 4]

# Interior delay-distortion maxima (w1' worst case at fixed w2'): r_G
# peaks at w2'/4 and r_H at sqrt(w2'/arctan w2' - 1), each verified by
# brute-force grid maximization of the normalized r curves.
MAXIMA = {
    1.0: (0.25, 0.5227232008770634),
    4.0: (1.0, 1.4202134050943154),
    10.0: (2.5, 2.407801185451921),
    100.0: (25.0, 7.9416525322227525),
}


def test_closed_forms_match_reference_values():
    report = channel_report(CH, RS, BAND)
    assert_allclose(report.q_g, Q_G, rtol=1e-12)
    assert_allclose(report.r_g, R_G, rtol=1e-12)
    assert_allclose(reception_amplitude_distortion(RS, BAND), Q_H, rtol=1e-12)
    assert_allclose(reception_delay_distortion(RS, BAND), R_H, rtol=1e-12)


def test_indices_scale_linearly_with_distance():
    # Both diffusion indices are proportional to x_r.
    report = channel_report(DiffusionChannel(mu=83.0, x_r=14.6), RS, BAND)
    assert_allclose(report.q_g, 6.004964984425757, rtol=1e-12)
    assert_allclose(report.r_g, 0.0038901944552531425, rtol=1e-12)
    assert channel_report(DiffusionChannel(mu=83.0, x_r=0.0), RS,
                          BAND).q_g == 0.0


def test_log_grid_pins_endpoints():
    grid = log_grid(BAND, 256)
    assert len(grid) == 256
    assert grid[0] == BAND.omega1
    assert grid[-1] == BAND.omega2
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ParameterError):
        log_grid(BAND, 1)


def test_grid_evaluators_on_synthetic_curves():
    band = FrequencyBand(1e-2, 1e1)
    # gain 3 log10(w): spread is exactly 3 decades * 3 dB/decade
    spread = amplitude_distortion(lambda w: 3.0 * np.log10(w), band)
    assert_allclose(spread, 9.0, rtol=1e-12)
    # delay c / w: spread c (1/w1 - 1/w2), normalized by T1 = 2 pi / w1
    c = 5.0
    got = delay_distortion(lambda w: c / w, band)
    want = c * (1.0 / band.omega1 - 1.0 / band.omega2) / (
        2.0 * math.pi / band.omega1)
    assert_allclose(got, want, rtol=1e-12)


def test_grid_matches_closed_forms_on_random_parameters():
    rng = np.random.default_rng(61)
    for _ in range(20):
        mu = 10.0 ** rng.uniform(-1.0, math.log10(7000.0))
        x_r = 10.0 ** rng.uniform(-2.0, math.log10(400.0))
        k_r = 10.0 ** rng.uniform(-4.0, 0.0)
        rs = ReceptionSystem(k_f=10.0 ** rng.uniform(-4.0, 0.0), k_r=k_r,
                             r=10.0 ** rng.uniform(-1.0, 2.0))
        width = rng.uniform(0.5, 6.0)
        w1 = 10.0 ** rng.uniform(-6.0, 3.0 - width)
        band = FrequencyBand(w1, w1 * 10.0 ** width)
        report = channel_report(DiffusionChannel(mu=mu, x_r=x_r), rs, band)
        pairs = [
            (report.q_g,
             amplitude_distortion(lambda w: -20.0 * math.log10(math.e)
                                  * np.sqrt(x_r * x_r * w / (2.0 * mu)), band)),
            (report.r_g,
             delay_distortion(lambda w: np.sqrt(x_r * x_r / (2.0 * mu * w)),
                              band)),
            (reception_amplitude_distortion(rs, band),
             amplitude_distortion(lambda w: 20.0 * np.log10(
                 rs.k_f * rs.r / np.hypot(w, k_r)), band)),
            (reception_delay_distortion(rs, band),
             delay_distortion(lambda w: np.arctan2(w, k_r) / w, band)),
        ]
        for closed, gridded in pairs:
            assert abs(closed - gridded) <= max(1e-9 * abs(closed), 1e-13)


def test_normal_form_reproduces_dimensional_indices():
    nb = normalize(CH, RS, BAND)
    assert_allclose(nb.lam, LAM, rtol=1e-12)
    assert nb.omega1p == BAND.omega1 / RS.k_r
    assert nb.omega2p == BAND.omega2 / RS.k_r
    assert_allclose(diffusion_amplitude_distortion_normalized(nb), Q_G,
                    rtol=1e-12)
    assert_allclose(diffusion_delay_distortion_normalized(nb), R_G, rtol=1e-12)
    assert_allclose(reception_amplitude_distortion_normalized(nb), Q_H,
                    rtol=1e-12)
    assert_allclose(reception_delay_distortion_normalized(nb), R_H, rtol=1e-12)


def test_diffusion_indices_linear_in_lam():
    nb = NormalizedBand(0.125, 100.0, LAM)
    double = NormalizedBand(0.125, 100.0, 2.0 * LAM)
    # scaling lam by a power of two scales the indices exactly
    assert (diffusion_amplitude_distortion_normalized(double)
            == 2.0 * diffusion_amplitude_distortion_normalized(nb))
    assert (diffusion_delay_distortion_normalized(double)
            == 2.0 * diffusion_delay_distortion_normalized(nb))
    # the reception indices carry no lam dependence at all
    assert (reception_amplitude_distortion_normalized(double)
            == reception_amplitude_distortion_normalized(nb))
    unit = NormalizedBand(1.0, 4.0, 1.0)
    assert_allclose(diffusion_amplitude_distortion_normalized(unit), Q_G_UNIT,
                    rtol=1e-12)


@pytest.mark.parametrize("omega2p", sorted(MAXIMA))
def test_delay_maxima_match_reference(omega2p):
    # Each reference peak is a local maximum of the package's curve: the
    # points 1e-6 relative to either side lie lower, which puts the peak
    # within 5e-7 relative of it.  The curves fall there by at least
    # 1e-14, over 350 ulps of their peak value.
    for fn, peak in zip((diffusion_delay_distortion_normalized,
                         reception_delay_distortion_normalized),
                        MAXIMA[omega2p]):
        at_peak = fn(NormalizedBand(peak, omega2p, 1.0))
        for side in (1.0 - 1e-6, 1.0 + 1e-6):
            assert fn(NormalizedBand(peak * side, omega2p, 1.0)) < at_peak


def test_delay_maxima_are_interior_grid_maxima():
    # 4001-point log grid in w1'; the analytic peaks must win on the grid.
    w2p = 4.0
    peak_g, peak_h = MAXIMA[w2p]
    grid = np.logspace(math.log10(w2p) - 4.0, math.log10(w2p) - 1e-9, 4001)
    r_g = [diffusion_delay_distortion_normalized(NormalizedBand(w, w2p, 1.0))
           for w in grid]
    r_h = [reception_delay_distortion_normalized(NormalizedBand(w, w2p, 1.0))
           for w in grid]
    step = math.log(grid[1] / grid[0])
    for values, peak in ((r_g, peak_g), (r_h, peak_h)):
        at = grid[int(np.argmax(values))]
        assert abs(math.log(at / peak)) <= step


def test_delay_distortion_not_monotone_in_omega1():
    # Fixing w2' and sweeping w1' the delay indices rise then fall, so a
    # threshold on them is crossed from both sides.
    w2p = 4.0
    peak_g, peak_h = MAXIMA[w2p]
    for fn, peak in ((diffusion_delay_distortion_normalized, peak_g),
                     (reception_delay_distortion_normalized, peak_h)):
        at_peak = fn(NormalizedBand(peak, w2p, 1.0))
        assert fn(NormalizedBand(peak / 8.0, w2p, 1.0)) < at_peak
        assert fn(NormalizedBand(min(peak * 3.0, w2p * 0.999), w2p, 1.0)) < at_peak


def test_scan_rejects_non_finite_curves():
    band = FrequencyBand(1e-2, 1e2)

    def gain(w):
        w = np.asarray(w, dtype=float)
        return np.where(w > 1.0, np.nan, -w)

    with pytest.raises(EvaluationError) as err:
        amplitude_distortion(gain, band)
    assert err.value.omega > 1.0
    assert math.isnan(err.value.value)


def test_channel_report_decomposes():
    report = channel_report(CH, RS, BAND)
    assert report.q_m == report.q_g + report.q_h
    assert report.r_m == report.r_g + report.r_h
    assert_allclose((report.q_g, report.r_g, report.q_h, report.r_h),
                    (Q_G, R_G, Q_H, R_H), rtol=1e-12)


def test_grid_report_close_to_closed_forms():
    grid = grid_report(CH, RS, BAND)
    closed = channel_report(CH, RS, BAND)
    for name in ("q_g", "r_g", "q_h", "r_h", "q_m", "r_m"):
        assert_allclose(getattr(grid, name), getattr(closed, name), rtol=1e-9)


def test_indices_grow_with_band_width():
    wider = FrequencyBand(BAND.omega1, 2.0 * BAND.omega2)
    a, b = channel_report(CH, RS, BAND), channel_report(CH, RS, wider)
    assert b.q_g > a.q_g and b.q_h > a.q_h
    assert b.r_g > a.r_g and b.r_h > a.r_h
