"""Time-domain routes: wave inputs, Fourier synthesis, the direct solver,
activation timing, and trace export."""

import functools
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import splu
from scipy.special import erfc

from mcchannel import (
    DiffusionChannel,
    FrequencyBand,
    ParameterError,
    ReceptionSystem,
    SimulationTrace,
    SolverConfig,
    SquareWaveInput,
    TimeGrid,
    activation_time,
    default_solver_config,
    diffusion_response,
    distance_bound,
    load_scenario,
    reception_amplitude_distortion,
    reception_delay_distortion,
    reception_response,
    scenario_from_dict,
    simulate_fdm,
    synthesize_fourier,
)
from mcchannel.cli import write_trace_csv
from mcchannel.timedomain import _KERNEL_EPS, _receiver_kernel, _samples_per_period

MU = 83.0
RS = ReceptionSystem(k_f=1e-3, k_r=4e-3, r=4.0)
CH = DiffusionChannel(mu=MU, x_r=14.0)
CH0 = DiffusionChannel(mu=MU, x_r=0.0)
W1 = 5e-4
WAVE = SquareWaveInput(amplitude=0.1, fundamental=W1, duty=0.5)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# First-crossing latencies after the rising edge for threshold 0.09 uM
# (90% of the 0.1 uM plateau), computed from the analytic step response:
# the reception-only value is exactly ln(10)/k_r; the channel value comes
# from a fine-step convolution of erfc with the binding kernel.
LATENCY_RECEPTION = 575.6462732485114
LATENCY_X14 = 707.8683587498934


class Sine(NamedTuple):
    """offset + amplitude sin(fundamental t): a one-tone drive for the
    direct solver, which reads only value(); not a pulsed input."""

    amplitude: float
    fundamental: float
    offset: float = 0.0

    def value(self, t):
        return self.offset + self.amplitude * np.sin(self.fundamental * t)


@pytest.fixture(scope="module")
def coarse_cfg():
    return default_solver_config(CH, WAVE, n_periods=3, omega_max=0.4)


@pytest.fixture(scope="module")
def fdm_arms(coarse_cfg):
    return simulate_fdm(CH, RS, WAVE, coarse_cfg)


@pytest.fixture(scope="module")
def trace_x14(fdm_arms):
    return fdm_arms[1]


@pytest.fixture(scope="module")
def trace_reception(fdm_arms):
    return fdm_arms[0]


# ---------------------------------------------------------------------------
# wave inputs
# ---------------------------------------------------------------------------

def test_square_wave_is_off_first():
    T = WAVE.period
    assert WAVE.value(0.0) == 0.0
    assert WAVE.value(0.49 * T) == 0.0
    assert WAVE.value(0.5 * T) == 0.1     # rising edge counts as high
    assert WAVE.value(0.99 * T) == 0.1
    assert WAVE.value(T) == 0.0
    v = WAVE.value(np.array([0.1 * T, 0.6 * T, 1.2 * T, 1.7 * T]))
    assert_allclose(v, [0.0, 0.1, 0.0, 0.1], rtol=0, atol=0)


def test_square_wave_duty_and_mean():
    wave = SquareWaveInput(amplitude=2.0, fundamental=math.pi / 2.0, duty=0.25,
                           offset=0.5)
    T = wave.period
    assert wave.value(0.5 * T) == 0.5          # still in the low stretch
    assert wave.value(0.75 * T) == 2.5         # high quarter at the period end
    assert wave.mean == 0.5 + 2.0 * 0.25
    assert wave.pulse_window == (0.75 * T, T)


def test_wave_validation():
    with pytest.raises(ParameterError):
        SquareWaveInput(amplitude=-0.1, fundamental=W1)
    with pytest.raises(ParameterError):
        SquareWaveInput(amplitude=0.1, fundamental=0.0)
    with pytest.raises(ParameterError):
        SquareWaveInput(amplitude=0.1, fundamental=W1, duty=0.0)
    with pytest.raises(ParameterError):
        SquareWaveInput(amplitude=0.1, fundamental=W1, duty=1.0)


# ---------------------------------------------------------------------------
# time grid
# ---------------------------------------------------------------------------

def test_time_grid_instants():
    grid = TimeGrid(t0=2.5, dt=0.25, n=5)
    assert len(grid) == 5
    assert np.array_equal(grid.times, 2.5 + np.arange(5) * 0.25)
    with pytest.raises(ValueError):
        grid.times[0] = 7.0
    assert len(TimeGrid(0.0, 1.0, 0).times) == 0
    for bad in (dict(t0=math.nan), dict(t0=math.inf), dict(dt=0.0),
                dict(dt=-1.0), dict(dt=math.nan), dict(n=-1)):
        with pytest.raises(ParameterError):
            TimeGrid(**{"t0": 0.0, "dt": 1.0, "n": 3, **bad})


def test_solver_time_grid_covers_the_duration():
    cfg = SolverConfig(dx=1.0, dt=0.3, domain_length=10.0, duration=10.0)
    assert cfg.time_grid == TimeGrid(0.0, 0.3, 34)   # 10 / 0.3 rounds to 33
    trace = simulate_fdm(CH0, RS, WAVE, cfg)[1]
    assert trace.grid == cfg.time_grid
    assert trace.dt == 0.3
    # Every route needs 3 instants: a grid of 2 steps is the shortest.
    assert len(SolverConfig(1.0, 1.0, 10.0, 1.5).time_grid) == 3
    with pytest.raises(ParameterError, match="fewer than 2 time steps"):
        SolverConfig(1.0, 1.0, 10.0, 1.4)


# ---------------------------------------------------------------------------
# Fourier route
# ---------------------------------------------------------------------------

def test_fourier_dc_term_only():
    grid = TimeGrid(0.0, WAVE.period / 50.0, 101)
    for trace in synthesize_fourier(CH, RS, WAVE, 0, grid):
        assert np.all(trace.received == WAVE.mean)
        assert np.all(trace.complex_conc == WAVE.mean * RS.dc_gain)
        assert trace.route == "fourier"


def test_fourier_rejects_a_negative_harmonic_count():
    # Without the check, -1 harmonics would give the DC-only traces.
    with pytest.raises(ParameterError, match="n_harmonics must be >= 0"):
        synthesize_fourier(CH, RS, WAVE, -1, TimeGrid(0.0, 1.0, 3))


def test_fourier_refuses_a_step_whose_period_ratio_overflows():
    # T/dt is inf, which no whole number of samples matches.
    with pytest.raises(ParameterError, match=r"^dt=4\.94066e-324 .*T/dt = inf"):
        synthesize_fourier(CH, RS, WAVE, 10, TimeGrid(0.0, 5e-324, 4))


@pytest.mark.parametrize("m", [3, 12800])
def test_period_ratio_within_eight_ulps_counts_as_whole(m):
    # T/dt is m to within _EDGE_ULPS = 8 ulps either side, bounds included.
    for ulps in (-8, 8):
        assert _samples_per_period(m + ulps * math.ulp(m), 1.0) == m
    for ulps in (-9, 9):
        assert _samples_per_period(m + ulps * math.ulp(m), 1.0) is None


def test_fourier_reports_exact_square_input():
    grid = TimeGrid(0.0, WAVE.period / 128.0, 257)
    for trace in synthesize_fourier(CH, RS, WAVE, 40, grid):
        assert trace.grid == grid
        assert np.array_equal(trace.input, WAVE.value(grid.times))


def test_fourier_even_harmonics_vanish_at_half_duty():
    # The n=2 coefficient carries sin(pi), which rounds to ~1.2e-16 rather
    # than exactly 0, so compare with a tiny absolute tolerance.
    grid = TimeGrid(0.0, WAVE.period / 96.0, 97)
    one = synthesize_fourier(CH, RS, WAVE, 1, grid)
    two = synthesize_fourier(CH, RS, WAVE, 2, grid)
    for a, b in zip(one, two):
        assert_allclose(b.complex_conc, a.complex_conc, rtol=0, atol=1e-16)
        assert_allclose(b.received, a.received, rtol=0, atol=1e-16)


def test_fourier_overshoot_is_gibbs_sized():
    # Without the diffusion stage the received series is the truncated
    # square-wave expansion; its overshoot must sit near the classic ~9%
    # of the step, not at some grid artifact.
    grid = TimeGrid(0.0, WAVE.period / 2048.0, 4097)
    trace = synthesize_fourier(CH, RS, WAVE, 101, grid)[0]
    assert 0.105 < float(np.max(trace.received)) < 0.110
    assert -0.010 < float(np.min(trace.received)) < -0.005


def test_fourier_truncation_error_shrinks():
    grid = TimeGrid(0.0, WAVE.period / 1024.0, 2049)
    reference = synthesize_fourier(CH, RS, WAVE, 1600, grid)[1].complex_conc
    errs = []
    for n in (25, 100, 400):
        approx = synthesize_fourier(CH, RS, WAVE, n, grid)[1].complex_conc
        errs.append(float(np.linalg.norm(approx - reference)))
    assert errs[0] > errs[1] > errs[2]


def test_fourier_scaling_is_exact_for_power_of_two():
    grid = TimeGrid(0.0, WAVE.period / 256.0, 513)
    base = synthesize_fourier(CH, RS, WAVE, 64, grid)
    double = synthesize_fourier(
        CH, RS, SquareWaveInput(amplitude=0.2, fundamental=W1, duty=0.5), 64,
        grid)
    for a, b in zip(base, double):
        assert np.array_equal(2.0 * a.complex_conc, b.complex_conc)
        assert np.array_equal(2.0 * a.received, b.received)


# ---------------------------------------------------------------------------
# direct (finite-difference) route
# ---------------------------------------------------------------------------

def test_default_config_snaps_receiver_to_grid(coarse_cfg):
    node = coarse_cfg.dx * round(CH.x_r / coarse_cfg.dx)
    assert abs(node - CH.x_r) <= 1e-9 * CH.x_r
    assert coarse_cfg.domain_length >= 10.0 * CH.x_r
    assert coarse_cfg.duration == 3.0 * WAVE.period


def test_fdm_step_response_accuracy_and_refinement():
    # Against the analytic half-line step response erfc(beta / sqrt(s)):
    # the error is dominated by the trapezoidal smearing of the input
    # edge over one step, so it falls by ~2x per halving of (dx, dt).
    wave = SquareWaveInput(amplitude=1.0, fundamental=2.0 * math.pi / 400.0,
                           duty=0.5)
    beta = CH.x_r / (2.0 * math.sqrt(MU))
    exact = math.erfc(beta / math.sqrt(100.0))  # 100 s after the edge
    errs = []
    for h in (2.0, 1.0, 0.5):
        cfg = SolverConfig(dx=h, dt=h, domain_length=500.0, duration=300.0)
        trace = simulate_fdm(CH, RS, wave, cfg)[1]
        errs.append(abs(trace.received[int(round(300.0 / h))] - exact))
    assert errs[0] < 6e-4
    assert 1.7 < errs[0] / errs[1] < 2.4
    assert 1.7 < errs[1] / errs[2] < 2.4


def _exact_received(ch, wave, n_periods, t):
    """u(x_r, t) on the half-line: the sum over the square wave's edges
    t_e of +-A erfc(x_r / (2 sqrt(mu (t - t_e)))) (Carslaw & Jaeger,
    Conduction of Heat in Solids, 1959, section 2.5).  No mesh, no
    truncation.  Returns the trace and the edge instants."""
    edges = [((k + 1.0 - wave.duty) * wave.period, 1.0) for k in range(n_periods)]
    edges += [((k + 1.0) * wave.period, -1.0) for k in range(n_periods)]
    u = np.zeros_like(t)
    for t_e, sign in edges:
        after = t > t_e
        u[after] += sign * wave.amplitude * erfc(
            ch.x_r / (2.0 * np.sqrt(ch.mu * (t[after] - t_e))))
    return u, sorted(t_e for t_e, _ in edges)


def test_fdm_channel_arm_against_the_exact_transient():
    # The baseline's channel arm.  Bounds fixed before running, from a
    # measured 2.8e-3 relative L2 and 6.6e-4 A beyond 50 steps after an
    # edge; at an edge the scheme smears the jump (0.114 A there).
    scenario = load_scenario(SCENARIOS / "baseline.yaml")
    ch, wave, cfg = scenario.channel, scenario.wave, scenario.solver
    trace = simulate_fdm(ch, scenario.reception, wave, cfg)[1]
    exact, edges = _exact_received(
        ch, wave, scenario.parameters["simulation"]["n_periods"], trace.times)
    error = trace.received - exact
    assert np.linalg.norm(error) <= 5e-3 * np.linalg.norm(exact)
    settled = trace.times >= edges[0] + 50 * cfg.dt
    for t_e in edges:
        settled &= ~((trace.times >= t_e) & (trace.times < t_e + 50 * cfg.dt))
    assert np.count_nonzero(settled) > trace.times.size // 2
    assert float(np.max(np.abs(error[settled]))) <= 2e-3 * wave.amplitude
    quiet = trace.times < edges[0]
    assert np.count_nonzero(quiet) > 100
    assert np.all(trace.received[quiet] == 0.0) and np.all(exact[quiet] == 0.0)


def test_fdm_zero_distance_skips_the_pde():
    cfg = SolverConfig(dx=1.0, dt=2.0, domain_length=100.0, duration=400.0)
    for trace in (*simulate_fdm(CH0, RS, WAVE, cfg),
                  simulate_fdm(CH, RS, WAVE, cfg)[0]):
        assert np.array_equal(trace.received, trace.input)


def test_fdm_binding_ode_accuracy():
    # With the diffusion stage collapsed, the first pulse of the bound
    # receptor is exactly dc_gain * A * (1 - exp(-k_r s)).  The largest
    # deviation sits right at the input edge, which the trapezoidal rule
    # smears over one step; far from the edge the error collapses.
    cfg = SolverConfig(dx=1.0, dt=2.0, domain_length=100.0,
                       duration=WAVE.period)
    trace = simulate_fdm(CH, RS, WAVE, cfg)[0]
    start = WAVE.period / 2.0
    mask = trace.times >= start
    s = trace.times[mask] - start
    target = RS.dc_gain * WAVE.amplitude * (1.0 - np.exp(-RS.k_r * s))
    err = np.abs(trace.complex_conc[mask] - target)
    assert float(np.max(err)) < 5e-4
    assert float(err[-1]) < 1e-6


def test_fdm_scaling_is_exact_for_power_of_two(coarse_cfg):
    small = SolverConfig(dx=coarse_cfg.dx, dt=8.0 * coarse_cfg.dt,
                         domain_length=coarse_cfg.domain_length,
                         duration=WAVE.period)
    base = simulate_fdm(CH, RS, WAVE, small)
    double = simulate_fdm(
        CH, RS, SquareWaveInput(amplitude=0.2, fundamental=W1, duty=0.5), small)
    for a, b in zip(base, double):
        assert np.array_equal(2.0 * a.complex_conc, b.complex_conc)
        assert np.array_equal(2.0 * a.received, b.received)


def test_fdm_trace_stays_physical(trace_x14):
    # Concentrations never go negative, the bound receptor stays far
    # below the receptor pool, and in-pulse dips are bounded by the small
    # spatial oscillation of the scheme.
    assert float(np.min(trace_x14.received)) >= 0.0
    assert float(np.min(trace_x14.complex_conc)) >= 0.0
    assert float(np.max(trace_x14.complex_conc)) < RS.r
    win = WAVE.pulse_window
    mask = (trace_x14.times >= win[0]) & (trace_x14.times <= win[1])
    steps = np.diff(trace_x14.complex_conc[mask])
    assert float(np.min(steps)) > -5e-3 * float(np.max(trace_x14.complex_conc))


@pytest.mark.parametrize("ch", [CH, CH0], ids=["channel", "reception"])
@pytest.mark.parametrize("duty", [0.5, 0.3])
def test_fdm_is_exactly_zero_before_the_first_edge(coarse_cfg, ch, duty):
    # From rest, nothing moves before the first rising edge.  The FFT
    # convolutions start at the first nonzero forcing sample, so these
    # samples are exact zeros, not rounding noise of either sign.
    wave = SquareWaveInput(amplitude=0.1, fundamental=W1, duty=duty)
    trace = simulate_fdm(ch, RS, wave, coarse_cfg)[1]
    quiet = trace.times < wave.pulse_window[0]
    assert np.count_nonzero(quiet) > 100
    assert np.all(trace.input[quiet] == 0.0)
    assert np.all(trace.received[quiet] == 0.0)
    assert np.all(trace.complex_conc[quiet] == 0.0)
    # and the response starts at the edge sample itself
    edge = np.count_nonzero(quiet)
    assert trace.complex_conc[edge] > 0.0
    if ch is CH:
        assert trace.received[edge] != 0.0


def test_fdm_rejects_bad_discretizations():
    with pytest.raises(ParameterError):  # receiver off the spatial grid
        simulate_fdm(CH, RS, WAVE, SolverConfig(dx=3.0, dt=2.0,
                                                domain_length=300.0,
                                                duration=100.0))
    with pytest.raises(ParameterError):  # receiver outside the domain
        simulate_fdm(CH, RS, WAVE, SolverConfig(dx=1.0, dt=2.0,
                                                domain_length=10.0,
                                                duration=100.0))
    with pytest.raises(ParameterError):  # x_r rounds to node 0: off the grid
        simulate_fdm(CH, RS, WAVE, SolverConfig(dx=100.0, dt=2.0,
                                                domain_length=300.0,
                                                duration=100.0))
    # x_r = 12 on node 4 of a round(13 / 3) = 4-cell mesh: the Dirichlet
    # boundary, whose trace would be 0 throughout.
    with pytest.raises(ParameterError, match="not an interior node"):
        simulate_fdm(DiffusionChannel(mu=MU, x_r=12.0), RS, WAVE,
                     SolverConfig(dx=3.0, dt=2.0, domain_length=13.0,
                                  duration=100.0))
    with pytest.raises(ParameterError):  # fewer than 2 time steps
        SolverConfig(dx=1.0, dt=200.0, domain_length=300.0, duration=100.0)
    with pytest.raises(ParameterError):
        SolverConfig(dx=0.0, dt=1.0, domain_length=10.0, duration=10.0)
    # n_periods = 0 would also make duration 0; the message names the cause.
    with pytest.raises(ParameterError, match="n_periods"):
        default_solver_config(CH, WAVE, n_periods=0, omega_max=0.4)


@pytest.mark.parametrize("dx", [1e-170, 1e170], ids=["inf", "zero"])
def test_fdm_rejects_a_mesh_ratio_beyond_the_float_range(dx, monkeypatch):
    # dx^2 under- or overflows, so h = mu dt / (2 dx^2) is inf or 0; the
    # kernel would be nan.  Refused, naming dx, before any allocation.
    cfg = SolverConfig(dx=dx, dt=20.0, domain_length=300.0, duration=8000.0)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the mesh-ratio check")

    for name in ("arange", "empty", "zeros", "full", "ones"):
        monkeypatch.setattr(np, name, no_allocation)
    with pytest.raises(ParameterError, match=r"mesh ratio .*\(dx=1e[+-]170\)"):
        simulate_fdm(CH, RS, WAVE, cfg)


def test_zero_amplitude_gives_zero_traces(coarse_cfg):
    wave = SquareWaveInput(amplitude=0.0, fundamental=W1)
    for arms in (synthesize_fourier(CH, RS, wave, 800, coarse_cfg.time_grid),
                 simulate_fdm(CH, RS, wave, coarse_cfg)):
        for trace in arms:
            for name in ("input", "received", "complex_conc"):
                assert not np.any(getattr(trace, name)), (trace.route, name)


# ---------------------------------------------------------------------------
# both kernels against straightforward reference implementations
# ---------------------------------------------------------------------------

# Both kernels regroup the reference arithmetic, so they agree with it to
# rounding, not bit for bit.  The bound is fixed in advance, well above
# rounding of the O(1e4) rad phases and well below any modelling error.
KERNEL_TOL = 1e-11


def _fourier_reference(ch, rs, wave, n_harmonics, t):
    """The series summed harmonic by harmonic as a cosine per sample."""
    t_c = (1.0 - 0.5 * wave.duty) * wave.period
    received = np.full_like(t, wave.mean)
    complex_conc = np.full_like(t, wave.mean * rs.dc_gain)
    for n in range(1, n_harmonics + 1):
        coeff = 2.0 * wave.amplitude * math.sin(n * math.pi * wave.duty) / (n * math.pi)
        wn = n * wave.fundamental
        g_mag, g_phase = diffusion_response(ch, wn)
        h_mag, h_phase = reception_response(rs, wn)
        m_mag, m_phase = g_mag * h_mag, g_phase + h_phase   # G H
        arg = wn * (t - t_c)
        received += coeff * g_mag * np.cos(arg + g_phase)
        complex_conc += coeff * m_mag * np.cos(arg + m_phase)
    return received, complex_conc


def _fdm_reference(ch, rs, wave, cfg):
    """Crank-Nicolson with a sparse LU factor and the explicit half step
    built from the stencil at every step; trapezoidal binding ODE."""
    dx, dt = cfg.dx, cfg.dt
    n_cells = int(round(cfg.domain_length / dx))
    node = int(round(ch.x_r / dx))
    n_steps = int(round(cfg.duration / dt))
    v = wave.value(np.arange(n_steps + 1) * dt)
    lam = ch.mu * dt / (dx * dx)
    m = n_cells - 1
    lap = diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)],
                offsets=[-1, 0, 1], format="csc")
    solver = splu(csc_matrix(diags([np.ones(m)], [0]) - 0.5 * lam * lap))
    u = np.zeros(m)
    u_xr = np.zeros(n_steps + 1)
    for step in range(n_steps):
        rhs = u + 0.5 * lam * (np.concatenate(([v[step]], u[:-1]))
                               - 2.0 * u + np.concatenate((u[1:], [0.0])))
        rhs[0] += 0.5 * lam * v[step + 1]
        u = solver.solve(rhs)
        u_xr[step + 1] = u[node - 1]
    c = np.zeros(n_steps + 1)
    decay = 1.0 + 0.5 * rs.k_r * dt
    for step in range(n_steps):
        c[step + 1] = ((1.0 - 0.5 * rs.k_r * dt) * c[step]
                       + 0.5 * rs.k_f * rs.r * dt
                       * (u_xr[step] + u_xr[step + 1])) / decay
    return u_xr, c


@pytest.mark.parametrize("ratio, n_harmonics, duty, t0_periods, n_samples", [
    (200.0, 200, 0.5, 0.0, 9601),     # integer w2/w1, three periods from 0
    # T/dt = 8,164.8 is not an integer: refused, whatever the harmonics.
    (510.3, 510, 0.5, 0.37, 8166),
    (510.3, 0, 0.5, 0.37, 8166),
    (510.3, 1, 0.5, 0.37, 8166),
    (510.3, 2, 0.5, 0.37, 8166),
    # Their twins on T/dt = 8,165 (odd), the grid starting late.
    (510.3125, 510, 0.5, 0.37, 8166),
    (510.3125, 0, 0.5, 0.37, 8166),
    (510.3125, 1, 0.5, 0.37, 8166),
    (510.3125, 2, 0.5, 0.37, 8166),
    (200.0, 200, 0.3, 1.5, 4096),     # sample count a perfect square
    # Harmonics at n >= m/2 fold onto n mod m: onto the Nyquist bin
    # (n = 32, 96, 160 of m = 64) and the DC bin (n = 64, 63 and their
    # multiples), for even and odd m.
    (4.0, 32, 0.3, 0.0, 200),
    (4.0, 200, 0.3, 0.37, 200),
    (3.9375, 40, 0.3, 0.37, 200),
    (3.9375, 200, 0.5, 1.5, 200),
    # One sample per period (m = 1): every harmonic folds onto DC.
    (0.0625, 8, 0.3, 0.37, 5),
])
def test_fourier_matches_per_harmonic_reference(ratio, n_harmonics, duty,
                                                t0_periods, n_samples):
    wave = SquareWaveInput(amplitude=0.1, fundamental=W1, duty=duty)
    grid = TimeGrid(t0_periods * wave.period, wave.period / (16.0 * ratio),
                    n_samples)
    if 16.0 * ratio != round(16.0 * ratio):
        with pytest.raises(ParameterError, match=r"^dt=1\.53909 does not "
                           r"divide the period 12566\.4 into whole samples"):
            synthesize_fourier(CH, RS, wave, n_harmonics, grid)
        return
    trace = synthesize_fourier(CH, RS, wave, n_harmonics, grid)[1]
    received, complex_conc = _fourier_reference(CH, RS, wave, n_harmonics,
                                                grid.times)
    tol = KERNEL_TOL * wave.amplitude
    assert float(np.max(np.abs(trace.received - received))) <= tol
    assert float(np.max(np.abs(trace.complex_conc - complex_conc))) <= tol


@pytest.mark.parametrize("wave", [
    WAVE, Sine(amplitude=0.1, fundamental=W1, offset=0.05),
], ids=["square", "sine"])
def test_fdm_matches_sparse_lu_reference(wave):
    cfg = default_solver_config(CH, WAVE, n_periods=2, omega_max=0.05)
    trace = simulate_fdm(CH, RS, wave, cfg)[1]
    received, complex_conc = _fdm_reference(CH, RS, wave, cfg)
    tol = KERNEL_TOL * wave.amplitude
    assert float(np.max(np.abs(trace.received - received))) <= tol
    assert float(np.max(np.abs(trace.complex_conc - complex_conc))) <= tol


def _sine_mode_kernel(h, n_cells, node, n):
    """H[p] = sum_k w_k g_k^p for p < n: the receiver's impulse response
    as a sum over the scheme's discrete sine modes.  Each term is formed
    from two powers, g_k^p = g_k^a g_k^b with p = a + b and b < 1024."""
    m = n_cells - 1
    theta = np.arange(1, m + 1) * (math.pi / (m + 1))
    s = 4.0 * h * np.sin(0.5 * theta) ** 2
    g = (1.0 - s) / (1.0 + s)
    w = (2.0 / (m + 1)) * np.sin(theta) * np.sin(node * theta) * h / (1.0 + s)
    powers = np.power.outer(g, np.arange(1024))
    return np.concatenate([
        ((w * g ** a)[:, None] * powers[:, :n - a]).sum(axis=0)
        for a in range(0, n, 1024)])


def _baseline_mesh():
    scenario = load_scenario(SCENARIOS / "baseline.yaml")
    cfg = scenario.solver
    return (cfg.mesh_ratio(scenario.channel.mu),
            round(cfg.domain_length / cfg.dx),
            round(scenario.channel.x_r / cfg.dx), len(cfg.time_grid) - 1)


@pytest.mark.parametrize("h, n_cells, node, n", [
    # h = 6 puts s_k = 4 h sin^2(theta_k / 2) above 1 for most modes, so
    # most g_k are negative and H oscillates.
    (6.0, 41, 7, 1), (6.0, 41, 7, 2), (6.0, 41, 7, 997), (6.0, 41, 7, 1024),
    (50.0, 5, 3, 1024),     # a coarse mesh: every g_k near -1
    (6.0, 2, 1, 1024),      # the smallest mesh with an interior node
    (0.3, 3, 2, 1024),      # the node next to the far boundary
    _baseline_mesh(),       # h = 5.2, 1,029 cells, node 5, 38,400 steps
], ids=["h6-1", "h6-2", "h6-997", "h6-1024", "coarse", "two-cells",
        "three-cells", "baseline"])
def test_receiver_kernel_matches_sine_modes(h, n_cells, node, n):
    # The inversion aliases at most eps max_p |H| into each coefficient
    # and multiplies its rounding by r^-p <= eps^-1/2 = 1e5, so the bound,
    # set from that error model, is 2 eps in units of max_p |H| (taken
    # over at least 1,024 coefficients, past the peak of each series).
    reference = _sine_mode_kernel(h, n_cells, node, max(n, 1024))
    kernel = _receiver_kernel(h, node, n_cells, n)
    assert kernel.shape == (n,)
    bound = 2.0 * _KERNEL_EPS * float(np.max(np.abs(reference)))
    assert float(np.max(np.abs(kernel - reference[:n]))) <= bound


# ---------------------------------------------------------------------------
# time scaling
# ---------------------------------------------------------------------------

def _scaled_traces(s, duty, a=1.0):
    """Both routes' channel arms on the baseline with time stretched by s
    and space by a: mu, k_f, k_r, w1 and w2 divided by s, so the default
    grid's dt is multiplied by s, and x_r times a, mu times a^2."""
    ch = DiffusionChannel(mu=MU * a * a / s, x_r=CH.x_r * a)
    rs = ReceptionSystem(k_f=RS.k_f / s, k_r=RS.k_r / s, r=RS.r)
    wave = SquareWaveInput(amplitude=WAVE.amplitude, fundamental=W1 / s,
                           duty=duty)
    cfg = default_solver_config(ch, wave, n_periods=3, omega_max=0.4 / s)
    return (synthesize_fourier(ch, rs, wave, 800, cfg.time_grid)[1],
            simulate_fdm(ch, rs, wave, cfg)[1])


@functools.lru_cache(maxsize=4)
def _unscaled_traces(duty):
    return _scaled_traces(1.0, duty)


@pytest.mark.parametrize("duty", [0.5, 0.3, 0.25, 0.1])
@pytest.mark.parametrize("s", [1e-3, 0.37, 2.9, 3.7, 5.1, 7.3])
def test_time_scaling_leaves_traces_in_sample_units(s, duty):
    # The grid's T/dt = 12,800 puts every edge on a sample, where t/T is a
    # few ulps off the edge for some s.  Bounds fixed before running:
    # 1e-12 x amplitude for each trace, 1e-9 relative for the latency.
    for ref, got in zip(_unscaled_traces(duty), _scaled_traces(s, duty)):
        assert np.array_equal(got.input, ref.input), ref.route
        for name in ("received", "complex_conc"):
            assert_allclose(getattr(got, name), getattr(ref, name), rtol=0,
                            atol=1e-12 * WAVE.amplitude, err_msg=ref.route)
        before, after = activation_time(ref, 0.09), activation_time(got, 0.09)
        assert before is not None and after is not None
        assert_allclose(after - got.wave.pulse_window[0],
                        s * (before - ref.wave.pulse_window[0]), rtol=1e-9)


@pytest.mark.parametrize("s", [1e-3, 0.37, 2.9, 3.7, 5.1, 7.3])
def test_time_scaling_keeps_the_default_harmonic_count(s):
    # At s = 2.9, omega2 / omega1 = 800 reads 799.9999999999999.
    scenario = scenario_from_dict({
        "channel": {"mu": MU / s, "x_r": CH.x_r},
        "reception": {"k_f": RS.k_f / s, "k_r": RS.k_r / s, "r": RS.r},
        "band": {"omega1": W1 / s, "omega2": 0.4 / s}})
    assert scenario.n_harmonics == 800


@pytest.mark.parametrize("a", [1e-3, 0.37, 2.9, 3.7, 1e3])
def test_space_scaling_leaves_traces_and_scales_design_distances(a):
    # x_r times a and mu times a^2 keep x_r^2 / mu.  Bounds fixed before
    # running: 1e-12 x amplitude for each trace, 1e-12 relative for the
    # distances.
    for ref, got in zip(_unscaled_traces(0.5), _scaled_traces(1.0, 0.5, a)):
        assert np.array_equal(got.input, ref.input), ref.route
        for name in ("received", "complex_conc"):
            assert_allclose(getattr(got, name), getattr(ref, name), rtol=0,
                            atol=1e-12 * WAVE.amplitude, err_msg=ref.route)
    band = FrequencyBand(W1, 0.4)
    q0 = 1.2 * reception_amplitude_distortion(RS, band)
    r0 = 1.2 * reception_delay_distortion(RS, band)
    ref, got = (distance_bound(q0, r0, band, MU * scale * scale, RS)
                for scale in (1.0, a))
    for name in ("x_q", "x_r_delay", "x_r_limit"):
        assert_allclose(getattr(got, name), a * getattr(ref, name), rtol=1e-12)


# ---------------------------------------------------------------------------
# the two arms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("route", ["fourier", "fdm"])
@pytest.mark.parametrize("ratio", [800.0, 510.3])
def test_reception_arm_is_the_channel_arm_at_zero_distance(route, ratio):
    # The reception arm is the route without the diffusion stage: bit for
    # bit the channel arm of a receiver at the transmitter.
    cfg = default_solver_config(CH, WAVE, n_periods=3, omega_max=ratio * W1)

    def solve(ch):
        if route == "fourier":
            return synthesize_fourier(ch, RS, WAVE, math.floor(ratio),
                                      cfg.time_grid)
        return simulate_fdm(ch, RS, WAVE, cfg)

    reception, zero = solve(CH)[0], solve(CH0)[1]
    for name in ("times", "input", "received", "complex_conc"):
        assert (getattr(reception, name).tobytes()
                == getattr(zero, name).tobytes()), name


# ---------------------------------------------------------------------------
# traces and activation
# ---------------------------------------------------------------------------

def test_trace_validation_and_immutability():
    grid = TimeGrid(0.0, 1.0, 5)
    z = np.zeros(5)
    trace = SimulationTrace(grid=grid, input=z, received=z.copy(),
                            complex_conc=z.copy(), route="fdm", wave=WAVE)
    assert trace.dt == 1.0
    assert np.array_equal(trace.times, np.arange(5.0))
    with pytest.raises(ValueError):
        trace.times[0] = 7.0
    with pytest.raises(ValueError):
        trace.received[0] = 7.0
    with pytest.raises(ParameterError):
        SimulationTrace(grid=grid, input=z[:4], received=z, complex_conc=z,
                        route="fdm", wave=WAVE)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        # t0 and dt are finite, the last instant 2e308 is not
        SimulationTrace(grid=TimeGrid(0.0, 1e308, 3), input=z[:3],
                        received=z[:3], complex_conc=z[:3], route="fdm",
                        wave=WAVE)


def test_activation_against_analytic_crossings(trace_x14, trace_reception):
    # Tolerance dominated by the half-step edge smearing of the solver.
    slack = 0.75 * trace_x14.dt
    start = WAVE.pulse_window[0]
    assert start == WAVE.period / 2.0
    rec = activation_time(trace_reception, 0.09)
    assert rec is not None
    assert abs(rec - start - LATENCY_RECEPTION) < slack
    ch = activation_time(trace_x14, 0.09)
    assert abs(ch - start - LATENCY_X14) < slack
    # the diffusion stage only ever delays the crossing
    assert ch > rec


def test_activation_threshold_zero_is_window_start(trace_x14):
    assert activation_time(trace_x14, 0.0) == WAVE.pulse_window[0]


def test_activation_unreached_threshold(trace_x14):
    assert activation_time(trace_x14, 0.2) is None   # plateau is only ~0.1


def test_activation_window_must_be_covered(trace_x14):
    # Pulse 0's window ends at T; this grid ends one step short of it.
    short = synthesize_fourier(CH, RS, WAVE, 8,
                               TimeGrid(0.0, WAVE.period / 64.0, 64))[1]
    with pytest.raises(ParameterError, match="not covered"):
        activation_time(short, 0.09)
    covered = synthesize_fourier(CH, RS, WAVE, 8,
                                 TimeGrid(0.0, WAVE.period / 64.0, 65))[1]
    assert activation_time(covered, 0.0) == WAVE.pulse_window[0]
    empty = synthesize_fourier(CH, RS, WAVE, 8,
                               TimeGrid(0.0, WAVE.period / 64.0, 0))[1]
    with pytest.raises(ParameterError, match="not covered"):
        activation_time(empty, 0.0)
    with pytest.raises(ParameterError):
        activation_time(trace_x14, -0.1)
    with pytest.raises(ParameterError):
        activation_time(trace_x14, 10**400)   # beyond the float range


def test_activation_on_a_grid_that_starts_inside_the_window():
    # The first sample already at the threshold is the crossing itself.
    grid = TimeGrid(0.75 * WAVE.period, WAVE.period / 64.0, 17)
    trace = synthesize_fourier(CH, RS, WAVE, 8, grid)[1]
    assert activation_time(trace, float(trace.complex_conc[0])) == grid.t0


@pytest.mark.parametrize("t0, c, t_on", [
    # The window [2, 4] ends half a step past the last sample: covered.
    (0.5, [0.0, 0.0, 0.2, 0.2], 2.0),
    # The first sample at the threshold is the window's last one.
    (0.0, [0.0, 0.0, 0.0, 0.0, 0.1, 0.2], 4.0),
    # Flat at the threshold across the window start: no 0 / 0 crossing.
    (0.0, [0.1] * 6, 2.0),
], ids=["end-half-step-past", "crossing-at-window-end", "flat-at-threshold"])
@pytest.mark.filterwarnings("error")
def test_activation_window_edges_are_inclusive(t0, c, t_on):
    wave = SquareWaveInput(amplitude=0.1, fundamental=math.pi / 2.0)
    assert wave.pulse_window == (2.0, 4.0)
    c = np.array(c)
    trace = SimulationTrace(grid=TimeGrid(t0, 1.0, c.size), input=np.zeros(c.size),
                            received=c, complex_conc=c, route="fdm", wave=wave)
    assert activation_time(trace, 0.1) == t_on


def test_activation_needs_a_pulsed_input():
    tone = Sine(amplitude=1.0, fundamental=0.02)
    cfg = SolverConfig(dx=1.0, dt=10.0, domain_length=100.0, duration=630.0)
    trace = simulate_fdm(CH0, RS, tone, cfg)[0]
    with pytest.raises(ParameterError):
        activation_time(trace, 0.5)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path, trace_reception):
    path = tmp_path / "trace.csv"
    write_trace_csv(trace_reception, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# route: fdm"
    assert lines[1] == "t_s,v_uM,u_xr_uM,c_uM"
    assert len(lines) == 2 + len(trace_reception.times)
    i = len(trace_reception.times) // 2
    cells = [float(x) for x in lines[2 + i].split(",")]
    assert_allclose(cells, [trace_reception.times[i], trace_reception.input[i],
                            trace_reception.received[i],
                            trace_reception.complex_conc[i]], rtol=1e-8)
    # nine significant digits, no more
    assert lines[2 + i].split(",")[3] == f"{trace_reception.complex_conc[i]:.9g}"


def _reference_trace_csv(trace, path):
    """The writer that formats every cell with %, 4096 rows per write."""
    table = np.column_stack((trace.times, trace.input, trace.received,
                             trace.complex_conc))
    with open(path, "w", newline="") as fh:
        fh.write(f"# route: {trace.route}\n")
        fh.write("t_s,v_uM,u_xr_uM,c_uM\n")
        for lo in range(0, len(table), 4096):
            block = table[lo:lo + 4096]
            fh.write(("%.9g,%.9g,%.9g,%.9g\n" * len(block))
                     % tuple(block.ravel().tolist()))


def _assert_writes_like_reference(trace, tmp_path):
    write_trace_csv(trace, tmp_path / "trace.csv")
    _reference_trace_csv(trace, tmp_path / "reference.csv")
    assert ((tmp_path / "trace.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


def _stepped_trace(n):
    rows = np.arange(n)
    # The input steps at rows 3000 and 5000, so one of its runs crosses
    # the chunk boundary at 4096.  The received column cycles through
    # -0.0, 0.0 and subnormal values in runs of 100 rows: -0.0 and 0.0
    # compare equal but print differently.  The complex column varies on
    # every row.
    v = np.where((rows >= 3000) & (rows < 5000), 0.1, 0.0)
    cycle = np.array([-0.0, 0.0, 5e-324, 2.5e-310, -1e-315, 0.0])
    received = cycle[(rows // 100) % cycle.size]
    c = np.random.default_rng(n).standard_normal(n) * 1e-3
    return SimulationTrace(grid=TimeGrid(0.0, 0.25, n), input=v,
                           received=received, complex_conc=c, route="fdm",
                           wave=WAVE)


def _periodic_trace(m, n, t0=0.0, negative_zero=False):
    """v, u and c repeating bit for bit every m rows, as a tiled Fourier
    trace does; with negative_zero, the last whole period holds -0.0 in
    c where the others hold 0.0."""
    rng = np.random.default_rng(m)
    period = rng.standard_normal((2, m)) * 1e-3
    period[:, 3::50] = 0.0
    u, c = np.tile(period, n // m + 1)[:, :n]
    if negative_zero:
        last = (n // m - 1) * m
        c[last + 3:last + m:50] = -0.0
    v = np.where(np.arange(n) % m < m // 3, 0.0, 0.1)
    return SimulationTrace(grid=TimeGrid(t0, 0.25, n), input=v, received=u,
                           complex_conc=c, route="fourier", wave=WAVE)


@pytest.mark.parametrize("trace", [
    *(pytest.param(functools.partial(_stepped_trace, n), id=str(n))
      for n in (0, 1, 4095, 4096, 4097, 9000)),
    # n = 5 m + 1, and m does not divide the chunk of 4096 rows.
    pytest.param(functools.partial(_periodic_trace, 1000, 5001), id="periodic"),
    pytest.param(functools.partial(_periodic_trace, 1000, 5001,
                                   negative_zero=True),
                 id="periodic-but-a-negative-zero"),
    pytest.param(functools.partial(_periodic_trace, 6000, 5001),
                 id="period-longer-than-trace"),
    pytest.param(functools.partial(_periodic_trace, 1000, 5001, t0=-1e3 / 7.0),
                 id="periodic-late-start"),
])
def test_trace_csv_equals_cell_by_cell_formatting(tmp_path, trace):
    _assert_writes_like_reference(trace(), tmp_path)


def test_trace_csv_with_no_varying_column(tmp_path):
    # Instants 1 s apart near 1e20 s round to one value, so every column
    # is one run and the template holds no %.
    n = 300
    trace = SimulationTrace(grid=TimeGrid(1e20, 1.0, n), input=np.zeros(n),
                            received=np.full(n, 0.1),
                            complex_conc=np.full(n, -0.0), route="fdm",
                            wave=WAVE)
    _assert_writes_like_reference(trace, tmp_path)


def test_trace_csv_of_simulated_traces_equals_cell_by_cell_formatting(
        tmp_path, trace_reception, trace_x14):
    # The reception arm of the direct route has two step columns (input
    # and received); the channel arm one; a sine input none.
    sine = Sine(amplitude=0.1, fundamental=W1, offset=0.05)
    cfg = default_solver_config(CH, WAVE, n_periods=1, omega_max=0.05)
    for trace in (trace_reception, trace_x14,
                  simulate_fdm(CH, RS, sine, cfg)[1]):
        _assert_writes_like_reference(trace, tmp_path)
