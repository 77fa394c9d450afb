"""Acceptance gate: eleven end-to-end criteria.

Each criterion gets one test that prints a PASS/FAIL verdict line (run
with -s to see them alongside the pytest result) and then asserts.  The
criteria pin reference index values, the design bounds, the clean-band
survey endpoints, closed-form/grid equivalence, the normal form, the
interior delay-distortion maxima, solver accuracy against the analytic
response, agreement of the two time-domain routes, and replication of
the reference activation traces.

The clean-band survey endpoints are checked against an independent root
of the documented predicate: the exact band edge is found by brentq on
the stage transfer functions written out in this file, and each returned
band start must lie at or below it within the search's rel_tol, with the
delay condition holding there.  The literature starts (2.0e-2 and 1.9e4
rad/s) are compared to one significant figure, the precision at which
they agree with the predicate; the deviation from each, and q_g/q_h on
each reference band, are printed in the verdict lines.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy.optimize import brentq

from grid_search import amplitude_distortion, delay_distortion, grid_report
from mcchannel import (
    DiffusionChannel,
    FrequencyBand,
    NormalizedBand,
    ReceptionSystem,
    SolverConfig,
    SquareWaveInput,
    activation_time,
    channel_report,
    default_solver_config,
    diffusion_amplitude_distortion_normalized,
    diffusion_delay_distortion_normalized,
    diffusion_gain_db,
    diffusion_phase_delay,
    diffusion_response,
    distance_bound,
    highest_clean_band,
    normalize,
    reception_amplitude_distortion_normalized,
    reception_delay_distortion_normalized,
    reception_gain_db,
    reception_phase_delay,
    reception_response,
    simulate_fdm,
    synthesize_fourier,
)

RS = ReceptionSystem(k_f=1e-3, k_r=4e-3, r=4.0)
BAND = FrequencyBand(5e-4, 0.4)
MU = 83.0
CH14 = DiffusionChannel(mu=MU, x_r=14.0)
CH100 = DiffusionChannel(mu=MU, x_r=100.0)
WAVE = SquareWaveInput(amplitude=0.1, fundamental=BAND.omega1, duty=0.5)
THRESHOLD = 0.09


def _verdict(num: int, desc: str, ok: bool) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def _assert_all(num: int, checks: list[tuple[str, bool]]) -> None:
    results = [_verdict(num, desc, ok) for desc, ok in checks]
    failed = [desc for (desc, _), ok in zip(checks, results) if not ok]
    assert not failed, f"criterion {num:02d} failed: " + "; ".join(failed)


class _Sine(NamedTuple):
    """sin(fundamental t), a unit one-tone drive for the direct solver."""

    fundamental: float

    def value(self, t):
        return np.sin(self.fundamental * t)


def _random_parameters(rng):
    mu = 10.0 ** rng.uniform(-1.0, math.log10(7000.0))
    x_r = 10.0 ** rng.uniform(-2.0, math.log10(400.0))
    rs = ReceptionSystem(k_f=10.0 ** rng.uniform(-4.0, 0.0),
                         k_r=10.0 ** rng.uniform(-4.0, 0.0),
                         r=10.0 ** rng.uniform(-1.0, 2.0))
    width = rng.uniform(0.5, 6.0)
    w1 = 10.0 ** rng.uniform(-6.0, 3.0 - width)
    band = FrequencyBand(w1, w1 * 10.0 ** width)
    return DiffusionChannel(mu=mu, x_r=x_r), rs, band


@pytest.fixture(scope="module")
def traces():
    """Shared three-period runs of the direct solver plus the frequency route."""
    cfg14 = default_solver_config(CH14, WAVE, n_periods=3, omega_max=BAND.omega2)
    cfg100 = default_solver_config(CH100, WAVE, n_periods=3,
                                   omega_max=BAND.omega2)
    reception, fdm14 = simulate_fdm(CH14, RS, WAVE, cfg14)
    fdm100 = simulate_fdm(CH100, RS, WAVE, cfg100)[1]
    n_harmonics = int(math.floor(BAND.omega2 / WAVE.fundamental))
    fourier14 = synthesize_fourier(CH14, RS, WAVE, n_harmonics, fdm14.grid)[1]
    return {"fdm14": fdm14, "fdm100": fdm100, "reception": reception,
            "fourier14": fourier14}


def test_criterion_01_reception_stage_indices():
    report = channel_report(CH14, RS, BAND)
    _assert_all(1, [
        (f"reception amplitude index {report.q_h:.4f} dB within 0.1 of 39.9",
         abs(report.q_h - 39.9) <= 0.1),
        (f"reception delay index {report.r_h:.6f} within 1e-4 of 1.95e-2",
         abs(report.r_h - 1.95e-2) <= 1e-4),
    ])


def test_criterion_02_distance_bound():
    report = channel_report(CH14, RS, BAND)
    result = distance_bound(1.2 * report.q_h, 1.2 * report.r_h, BAND, MU, RS)
    _assert_all(2, [
        (f"amplitude-budget distance {result.x_q:.4f} um within 0.1 of 19.4",
         abs(result.x_q - 19.4) <= 0.1),
        (f"delay-budget distance {result.x_r_delay:.4f} um within 0.1 of 14.6",
         abs(result.x_r_delay - 14.6) <= 0.1),
        ("the delay budget is the binding one",
         result.feasible and result.x_r_limit == result.x_r_delay
         and result.x_r_delay < result.x_q),
    ])


def test_criterion_03_attenuation_cutoff():
    # k_f r / sqrt(w^2 + k_r^2) = a inverted here; the package's reception
    # magnitude must fall to a at that frequency.
    attenuation = 0.01
    cut = math.sqrt((RS.k_f * RS.r / attenuation) ** 2 - RS.k_r ** 2)
    magnitude = float(reception_response(RS, cut)[0])
    _assert_all(3, [
        (f"1% attenuation cutoff {cut:.6f} rad/s within 1% of 0.4",
         abs(cut - 0.4) <= 0.004),
        (f"reception magnitude {magnitude:.12g} at the cutoff is 0.01 "
         "within 1e-12 relative",
         abs(magnitude / attenuation - 1.0) <= 1e-12),
    ])


def _clean_band_ratios(mu: float, x_r: float, w1: float):
    """q_g/q_h and r_g/r_h on [w1, 10 w1], from the stage transfer functions.

    G(jw) = exp(-sqrt(x_r^2 jw / mu)) and H(jw) = k_f r / (jw + k_r) are
    written out here rather than taken from the library.  Both stages have
    monotone gain and phase delay, so each index is the difference of its
    values at the two band edges; the delay index is counted in periods
    of w1.
    """
    w = np.array([w1, 10.0 * w1])
    g = np.exp(-np.sqrt(x_r * x_r * 1j * w / mu))
    h = RS.k_f * RS.r / (1j * w + RS.k_r)

    def q(t):
        return abs(20.0 * np.log10(np.abs(t[0]) / np.abs(t[1])))

    def r(t):
        delay = -np.angle(t) / w
        return abs(delay[0] - delay[1]) * w1 / (2.0 * math.pi)

    return q(g) / q(h), r(g) / r(h)


def test_criterion_04_clean_band_survey_endpoints():
    # The clean band of README and highest_clean_band: [w1, 10 w1] with
    # q_g <= 0.1 q_h and r_g <= 0.1 r_h.  The search returns the
    # qualifying end of a bisection bracket, at most rel_tol below the
    # exact edge, which is found here by brentq on q_g - 0.1 q_h.
    rel_tol = 1e-4
    checks = []
    for label, mu, x_r, ref_text in (("slow", 83.0, 10.0, "2.0e-2"),
                                     ("fast", 500.0, 2.5e-2, "1.9e4")):
        reference = float(ref_text)
        w1 = highest_clean_band(mu, x_r, RS).omega1[0]
        edge = brentq(lambda w: _clean_band_ratios(mu, x_r, w)[0] - 0.1,
                      0.5 * w1, 2.0 * w1, xtol=1e-300, rtol=1e-15)
        short = 1.0 - w1 / edge
        delay_ratio = _clean_band_ratios(mu, x_r, edge)[1]
        ref_ratio = _clean_band_ratios(mu, x_r, reference)[0]
        checks += [
            (f"{label}-species band start {w1:.6g} rad/s lies at or below "
             f"the exact edge {edge:.9g} within rel_tol={rel_tol:g} "
             f"(short by {short:.2e})",
             0.0 <= short <= rel_tol),
            (f"{label}-species delay condition holds at the edge "
             f"(r_g/r_h = {delay_ratio:.4f} <= 0.1)",
             delay_ratio <= 0.1),
            (f"{label}-species band start agrees with the reference "
             f"{ref_text} to one significant figure (deviation "
             f"{w1 / reference - 1.0:+.1%}; q_g/q_h = {ref_ratio:.4f} on "
             "the reference band)",
             f"{w1:.0e}" == f"{reference:.0e}"),
        ]
    _assert_all(4, checks)


def test_criterion_05_closed_forms_match_grid_search():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        ch, rs, band = _random_parameters(rng)
        closed = channel_report(ch, rs, band)
        gridded = grid_report(ch, rs, band)
        for name in ("q_g", "r_g", "q_h", "r_h"):
            a, b = getattr(closed, name), getattr(gridded, name)
            excess = abs(a - b) / max(1e-6 * abs(a), 1e-12)
            worst = max(worst, excess)
    _assert_all(5, [
        ("closed forms match a 4096-point grid search on 100 random "
         f"parameter sets (worst error at {worst:.3g}x the allowance)",
         worst <= 1.0),
    ])


def test_criterion_06_cascade_indices_decompose():
    rng = np.random.default_rng(11)
    cases = [(CH14, RS, BAND)] + [_random_parameters(rng) for _ in range(10)]
    worst = 0.0
    for ch, rs, band in cases:
        report = channel_report(ch, rs, band)
        # the whole channel G H, in dB and s the sums of its stages
        q_m = amplitude_distortion(
            lambda w: diffusion_gain_db(ch, w) + reception_gain_db(rs, w), band)
        r_m = delay_distortion(
            lambda w: diffusion_phase_delay(ch, w) + reception_phase_delay(rs, w),
            band)
        worst = max(worst,
                    abs(q_m - (report.q_g + report.q_h)) / max(q_m, 1e-12),
                    abs(r_m - (report.r_g + report.r_h)) / max(r_m, 1e-12))
    _assert_all(6, [
        ("whole-channel indices equal the sum of the stage indices "
         f"(worst relative gap {worst:.3g})", worst <= 1e-6),
    ])


def test_criterion_07_normal_form():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(25):
        ch, rs, band = _random_parameters(rng)
        nb = normalize(ch, rs, band)
        report = channel_report(ch, rs, band)
        for dim, normed in (
                (report.q_g, diffusion_amplitude_distortion_normalized(nb)),
                (report.r_g, diffusion_delay_distortion_normalized(nb)),
                (report.q_h, reception_amplitude_distortion_normalized(nb)),
                (report.r_h, reception_delay_distortion_normalized(nb))):
            worst = max(worst, abs(dim - normed) / max(1e-12 * abs(dim), 1e-15))
    nb = normalize(CH14, RS, BAND)
    twice = NormalizedBand(nb.omega1p, nb.omega2p, 2.0 * nb.lam)
    linear = (diffusion_amplitude_distortion_normalized(twice)
              == 2.0 * diffusion_amplitude_distortion_normalized(nb)
              and diffusion_delay_distortion_normalized(twice)
              == 2.0 * diffusion_delay_distortion_normalized(nb))
    _assert_all(7, [
        ("normalized indices reproduce the dimensional ones on 25 random "
         f"parameter sets (worst error at {worst:.3g}x the allowance)",
         worst <= 1.0),
        ("diffusion indices are exactly linear in the scale parameter",
         linear),
    ])


def test_criterion_08_delay_distortion_maxima():
    # At fixed w2', r_G peaks at w1' = w2'/4 and r_H at
    # w1' = sqrt(w2'/arctan w2' - 1); the package's curves must peak there.
    checks = []
    for w2p in (1.0, 4.0, 10.0, 100.0):
        grid = np.logspace(math.log10(w2p) - 4.0,
                           math.log10(w2p) - 1e-12, 10_000)
        step = math.log(grid[1] / grid[0])
        peak_g = w2p / 4.0
        peak_h = math.sqrt(w2p / math.atan(w2p) - 1.0)
        r_g = np.array([diffusion_delay_distortion_normalized(
            NormalizedBand(w, w2p, 1.0)) for w in grid])
        r_h = np.array([reception_delay_distortion_normalized(
            NormalizedBand(w, w2p, 1.0)) for w in grid])
        ok = True
        for values, peak in ((r_g, peak_g), (r_h, peak_h)):
            at = grid[int(np.argmax(values))]
            ok = ok and abs(math.log(at / peak)) <= step
        checks.append((f"interior maxima at w2'={w2p:g} match a 10^4-point "
                       "grid search within one cell", ok))
    _assert_all(8, checks)


def test_criterion_09_solver_matches_analytic_response():
    checks = []
    for w in (5e-4, 1.4e-2, 0.4):
        T = 2.0 * math.pi / w
        delta = math.sqrt(2.0 * MU / w)
        dx = CH14.x_r / max(1, round(CH14.x_r / (delta / 16.0)))
        length = dx * round(max(10.0 * CH14.x_r, 5.0 * delta) / dx)
        cfg = SolverConfig(dx=dx, dt=T / 128.0, domain_length=length,
                           duration=8.0 * T)
        trace = simulate_fdm(CH14, RS, _Sine(w), cfg)[1]
        mask = trace.times >= 7.0 * T - 1e-9
        t, u = trace.times[mask], trace.received[mask]
        basis = np.column_stack([np.sin(w * t), np.cos(w * t),
                                 np.ones_like(t)])
        a, b, _ = np.linalg.lstsq(basis, u, rcond=None)[0]
        amp, phase = math.hypot(a, b), math.atan2(b, a)
        g_mag, g_phase = diffusion_response(CH14, w)
        amp_err = abs(amp / g_mag - 1.0)
        phase_err = abs(phase - g_phase)
        checks.append(
            (f"sine drive at {w:g} rad/s: amplitude off by {amp_err:.2e} "
             f"(<=1e-2), phase off by {phase_err:.2e} rad (<=2e-2)",
             amp_err <= 1e-2 and phase_err <= 2e-2))
    _assert_all(9, checks)


def test_criterion_10_routes_agree_when_settled(traces):
    fdm, fourier = traces["fdm14"], traces["fourier14"]
    last = fdm.times >= 2.0 * WAVE.period - 1e-9
    checks = []
    for label, name in (("post-diffusion", "received"),
                        ("bound-receptor", "complex_conc")):
        d = getattr(fdm, name)[last] - getattr(fourier, name)[last]
        rel = float(np.linalg.norm(d) / np.linalg.norm(
            getattr(fourier, name)[last]))
        checks.append((f"{label} series: route mismatch {rel:.2%} over the "
                       "last of three periods (<2%)", rel <= 0.02))
    _assert_all(10, checks)


def test_criterion_11_activation_traces(traces):
    fdm14, fdm100, reception = (traces["fdm14"], traces["fdm100"],
                                traces["reception"])
    plateau = WAVE.amplitude * RS.dc_gain
    window = WAVE.pulse_window
    mask = (fdm14.times >= window[0]) & (fdm14.times <= window[1])
    gap14 = float(np.max(np.abs(fdm14.complex_conc[mask]
                                - reception.complex_conc[mask])))
    gap100 = float(np.max(np.abs(fdm100.complex_conc[mask]
                                 - reception.complex_conc[mask])))
    half14 = activation_time(fdm14, 0.5 * plateau) - window[0]
    half100 = activation_time(fdm100, 0.5 * plateau) - window[0]
    t_on_reception = activation_time(reception, THRESHOLD)
    latency100 = activation_time(fdm100, THRESHOLD) - window[0]
    _assert_all(11, [
        (f"14 um trace tracks the reception-only trace within "
         f"{gap14 / plateau:.1%} of the plateau (<10%)",
         gap14 <= 0.10 * plateau),
        (f"100 um trace deviates more ({gap100 / plateau:.1%} of the plateau)",
         gap100 > gap14),
        (f"half-plateau rise comes later at 100 um ({half100:.0f} s) "
         f"than at 14 um ({half14:.0f} s)",
         half100 > half14),
        (f"reception-only 90% crossing at t={t_on_reception:.0f} s, "
         "within 10% of 6.5e3",
         abs(t_on_reception / 6.5e3 - 1.0) <= 0.10),
        (f"100 um 90% crossing {latency100:.0f} s after the rising edge, "
         "within 10% of 4.1e3",
         abs(latency100 / 4.1e3 - 1.0) <= 0.10),
    ])
