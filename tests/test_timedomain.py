"""Time-domain routes: wave inputs, Fourier synthesis, the direct solver,
activation timing, and trace export."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import splu

from mcchannel import (
    DiffusionChannel,
    ParameterError,
    ReceptionSystem,
    SimulationTrace,
    SineInput,
    SolverConfig,
    SquareWaveInput,
    activation_time,
    cascade_response,
    default_solver_config,
    diffusion_response,
    simulate_fdm,
    synthesize_fourier,
    write_trace_csv,
)
from mcchannel.timedomain import _mode_sum

MU = 83.0
RS = ReceptionSystem(k_f=1e-3, k_r=4e-3, r=4.0)
CH = DiffusionChannel(mu=MU, x_r=14.0)
CH0 = DiffusionChannel(mu=MU, x_r=0.0)
W1 = 5e-4
WAVE = SquareWaveInput(amplitude=0.1, fundamental=W1, duty=0.5)

# First-crossing latencies after the rising edge for threshold 0.09 uM
# (90% of the 0.1 uM plateau), computed from the analytic step response:
# the reception-only value is exactly ln(10)/k_r; the channel value comes
# from a fine-step convolution of erfc with the binding kernel.
LATENCY_RECEPTION = 575.6462732485114
LATENCY_X14 = 707.8683587498934


@pytest.fixture(scope="module")
def coarse_cfg():
    return default_solver_config(CH, WAVE, n_periods=3, omega_max=0.4)


@pytest.fixture(scope="module")
def trace_x14(coarse_cfg):
    return simulate_fdm(CH, RS, WAVE, coarse_cfg)


@pytest.fixture(scope="module")
def trace_reception(coarse_cfg):
    return simulate_fdm(CH0, RS, WAVE, coarse_cfg)


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
    assert wave.pulse_window(0) == (0.75 * T, T)
    assert wave.pulse_window(2) == (2.75 * T, 3.0 * T)


def test_wave_validation():
    with pytest.raises(ParameterError):
        SquareWaveInput(amplitude=-0.1, fundamental=W1)
    with pytest.raises(ParameterError):
        SquareWaveInput(amplitude=0.1, fundamental=0.0)
    with pytest.raises(ParameterError):
        SquareWaveInput(amplitude=0.1, fundamental=W1, duty=0.0)
    with pytest.raises(ParameterError):
        SquareWaveInput(amplitude=0.1, fundamental=W1, duty=1.0)
    with pytest.raises(ParameterError):
        WAVE.pulse_window(-1)
    with pytest.raises(ParameterError):
        SineInput(amplitude=1.0, fundamental=-1.0)


def test_sine_input_values():
    tone = SineInput(amplitude=2.0, fundamental=0.5, offset=1.0)
    assert tone.period == 4.0 * math.pi
    assert_allclose(tone.value(math.pi), 3.0, rtol=1e-12)
    assert_allclose(tone.value(np.array([0.0, math.pi])), [1.0, 3.0],
                    rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Fourier route
# ---------------------------------------------------------------------------

def test_fourier_dc_term_only():
    t = np.linspace(0.0, 2.0 * WAVE.period, 101)
    trace = synthesize_fourier(CH, RS, WAVE, 0, t)
    assert np.all(trace.received == WAVE.mean)
    assert np.all(trace.complex_conc == WAVE.mean * RS.dc_gain)
    assert trace.route == "fourier"


def test_fourier_reports_exact_square_input():
    t = np.linspace(0.0, 2.0 * WAVE.period, 257)
    trace = synthesize_fourier(CH, RS, WAVE, 40, t)
    assert np.array_equal(trace.input, WAVE.value(t))


def test_fourier_even_harmonics_vanish_at_half_duty():
    # The n=2 coefficient carries sin(pi), which rounds to ~1.2e-16 rather
    # than exactly 0, so compare with a tiny absolute tolerance.
    t = np.linspace(0.0, WAVE.period, 97)
    one = synthesize_fourier(CH, RS, WAVE, 1, t)
    two = synthesize_fourier(CH, RS, WAVE, 2, t)
    assert_allclose(two.complex_conc, one.complex_conc, rtol=0, atol=1e-16)
    assert_allclose(two.received, one.received, rtol=0, atol=1e-16)


def test_fourier_overshoot_is_gibbs_sized():
    # Through an identity diffusion stage the received series is the
    # truncated square-wave expansion; its overshoot must sit near the
    # classic ~9% of the step, not at some grid artifact.
    t = np.arange(4097) * (WAVE.period / 2048.0)
    trace = synthesize_fourier(CH0, RS, WAVE, 101, t)
    assert 0.105 < float(np.max(trace.received)) < 0.110
    assert -0.010 < float(np.min(trace.received)) < -0.005


def test_fourier_truncation_error_shrinks():
    t = np.arange(2049) * (WAVE.period / 1024.0)
    reference = synthesize_fourier(CH, RS, WAVE, 1600, t).complex_conc
    errs = []
    for n in (25, 100, 400):
        approx = synthesize_fourier(CH, RS, WAVE, n, t).complex_conc
        errs.append(float(np.linalg.norm(approx - reference)))
    assert errs[0] > errs[1] > errs[2]


def test_fourier_scaling_is_exact_for_power_of_two():
    t = np.arange(513) * (WAVE.period / 256.0)
    base = synthesize_fourier(CH, RS, WAVE, 64, t)
    double = synthesize_fourier(
        CH, RS, SquareWaveInput(amplitude=0.2, fundamental=W1, duty=0.5), 64, t)
    assert np.array_equal(2.0 * base.complex_conc, double.complex_conc)
    assert np.array_equal(2.0 * base.received, double.received)


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
        trace = simulate_fdm(CH, RS, wave, cfg)
        errs.append(abs(trace.received[int(round(300.0 / h))] - exact))
    assert errs[0] < 6e-4
    assert 1.7 < errs[0] / errs[1] < 2.4
    assert 1.7 < errs[1] / errs[2] < 2.4


def test_fdm_zero_distance_skips_the_pde():
    cfg = SolverConfig(dx=1.0, dt=2.0, domain_length=100.0, duration=400.0)
    trace = simulate_fdm(CH0, RS, WAVE, cfg)
    assert np.array_equal(trace.received, trace.input)


def test_fdm_binding_ode_accuracy():
    # With the diffusion stage collapsed, the first pulse of the bound
    # receptor is exactly dc_gain * A * (1 - exp(-k_r s)).  The largest
    # deviation sits right at the input edge, which the trapezoidal rule
    # smears over one step; far from the edge the error collapses.
    cfg = SolverConfig(dx=1.0, dt=2.0, domain_length=100.0,
                       duration=WAVE.period)
    trace = simulate_fdm(CH0, RS, WAVE, cfg)
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
    assert np.array_equal(2.0 * base.complex_conc, double.complex_conc)
    assert np.array_equal(2.0 * base.received, double.received)


def test_fdm_trace_stays_physical(trace_x14):
    # Concentrations never go negative, the bound receptor stays far
    # below the receptor pool, and in-pulse dips are bounded by the small
    # spatial oscillation of the scheme.
    assert float(np.min(trace_x14.received)) >= 0.0
    assert float(np.min(trace_x14.complex_conc)) >= 0.0
    assert float(np.max(trace_x14.complex_conc)) < RS.r
    win = WAVE.pulse_window(0)
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
    trace = simulate_fdm(ch, RS, wave, coarse_cfg)
    quiet = trace.times < wave.pulse_window(0)[0]
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
    with pytest.raises(ParameterError):  # fewer than 4 cells
        simulate_fdm(CH, RS, WAVE, SolverConfig(dx=100.0, dt=2.0,
                                                domain_length=300.0,
                                                duration=100.0))
    with pytest.raises(ParameterError):  # fewer than 2 time steps
        simulate_fdm(CH, RS, WAVE, SolverConfig(dx=1.0, dt=200.0,
                                                domain_length=300.0,
                                                duration=100.0))
    with pytest.raises(ParameterError):
        SolverConfig(dx=0.0, dt=1.0, domain_length=10.0, duration=10.0)
    with pytest.raises(ParameterError):
        default_solver_config(CH, WAVE, n_periods=0)


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
        m_mag, m_phase = cascade_response(ch, rs, wn)
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
    (510.3, 510, 0.5, 0.37, 8166),    # non-integer w2/w1, grid starts late
    (510.3, 0, 0.5, 0.37, 8166),
    (510.3, 1, 0.5, 0.37, 8166),
    (510.3, 2, 0.5, 0.37, 8166),
    (200.0, 200, 0.3, 1.5, 4096),     # sample count a perfect square
])
def test_fourier_matches_per_harmonic_reference(ratio, n_harmonics, duty,
                                                t0_periods, n_samples):
    wave = SquareWaveInput(amplitude=0.1, fundamental=W1, duty=duty)
    dt = wave.period / (16.0 * ratio)
    t = t0_periods * wave.period + np.arange(n_samples) * dt
    trace = synthesize_fourier(CH, RS, wave, n_harmonics, t)
    received, complex_conc = _fourier_reference(CH, RS, wave, n_harmonics, t)
    tol = KERNEL_TOL * wave.amplitude
    assert float(np.max(np.abs(trace.received - received))) <= tol
    assert float(np.max(np.abs(trace.complex_conc - complex_conc))) <= tol


@pytest.mark.parametrize("wave", [
    WAVE, SineInput(amplitude=0.1, fundamental=W1, offset=0.05),
], ids=["square", "sine"])
def test_fdm_matches_sparse_lu_reference(wave):
    cfg = default_solver_config(CH, wave, n_periods=2, omega_max=0.05)
    trace = simulate_fdm(CH, RS, wave, cfg)
    received, complex_conc = _fdm_reference(CH, RS, wave, cfg)
    tol = KERNEL_TOL * wave.amplitude
    assert float(np.max(np.abs(trace.received - received))) <= tol
    assert float(np.max(np.abs(trace.complex_conc - complex_conc))) <= tol


@pytest.mark.parametrize("n", [1, 2, 997, 1024])
def test_mode_sum_matches_per_element_powers(n):
    # A mesh ratio h = 6 puts s_k = 4 h sin^2(theta_k / 2) above 1 for most
    # modes, so most g_k are negative.  Each running product carries at
    # most ~2 sqrt(n) roundings, so the bound on |H - reference|, fixed
    # before running, is 1e-12 of the sum of |w_k g_k^p|.
    m, h, node = 40, 6.0, 7
    theta = np.arange(1, m + 1) * (math.pi / (m + 1))
    s = 4.0 * h * np.sin(0.5 * theta) ** 2
    g = (1.0 - s) / (1.0 + s)
    w = (2.0 / (m + 1)) * np.sin(theta) * np.sin(node * theta) * h / (1.0 + s)
    assert (g < 0).sum() > m // 2
    terms = w * np.power.outer(g, np.arange(n)).T
    kernel = _mode_sum(g, w, n)
    assert kernel.shape == (n,)
    assert np.all(np.abs(kernel - terms.sum(axis=1))
                  <= 1e-12 * np.abs(terms).sum(axis=1))


# ---------------------------------------------------------------------------
# traces and activation
# ---------------------------------------------------------------------------

def test_trace_validation_and_immutability():
    t = np.arange(5, dtype=float)
    z = np.zeros(5)
    trace = SimulationTrace(times=t, input=z, received=z.copy(),
                            complex_conc=z.copy(), route="fdm", wave=WAVE)
    assert trace.dt == 1.0
    with pytest.raises(ValueError):
        trace.times[0] = 7.0
    with pytest.raises(ParameterError):
        SimulationTrace(times=t, input=z[:4], received=z, complex_conc=z,
                        route="fdm", wave=WAVE)
    with pytest.raises(ParameterError):
        SimulationTrace(times=np.array([0.0, 1.0, 3.0, 7.0]), input=z[:4],
                        received=z[:4], complex_conc=z[:4], route="fdm",
                        wave=WAVE)


def test_activation_against_analytic_crossings(trace_x14, trace_reception):
    # Tolerance dominated by the half-step edge smearing of the solver.
    slack = 0.75 * trace_x14.dt
    rec = activation_time(trace_reception, 0.09)
    assert rec.activated
    assert rec.pulse_window == WAVE.pulse_window(0)
    assert abs(rec.latency - LATENCY_RECEPTION) < slack
    assert abs(rec.t_on - (WAVE.period / 2.0 + LATENCY_RECEPTION)) < slack
    ch = activation_time(trace_x14, 0.09)
    assert abs(ch.latency - LATENCY_X14) < slack
    # the diffusion stage only ever delays the crossing
    assert ch.latency > rec.latency


def test_activation_threshold_zero_is_window_start(trace_x14):
    timing = activation_time(trace_x14, 0.0)
    assert timing.t_on == timing.pulse_window[0]
    assert timing.latency == 0.0


def test_activation_unreached_threshold(trace_x14):
    timing = activation_time(trace_x14, 0.2)   # plateau is only ~0.1
    assert timing.t_on is None
    assert timing.latency is None
    assert not timing.activated


def test_activation_on_a_later_pulse(trace_reception):
    timing = activation_time(trace_reception, 0.09, pulse_index=1)
    assert timing.pulse_window == WAVE.pulse_window(1)
    # by the second pulse the trace is essentially periodic
    assert abs(timing.latency - LATENCY_RECEPTION) < 1.5 * trace_reception.dt


def test_activation_window_must_be_covered(trace_x14):
    with pytest.raises(ParameterError):
        activation_time(trace_x14, 0.09, pulse_index=5)
    with pytest.raises(ParameterError):
        activation_time(trace_x14, -0.1)
    with pytest.raises(ParameterError):
        activation_time(trace_x14, 10**400)   # beyond the float range


def test_activation_needs_a_pulsed_input():
    tone = SineInput(amplitude=1.0, fundamental=0.02)
    cfg = SolverConfig(dx=1.0, dt=10.0, domain_length=100.0, duration=630.0)
    trace = simulate_fdm(CH0, RS, tone, cfg)
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


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 9000])
def test_trace_csv_equals_cell_by_cell_formatting(tmp_path, n):
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
    trace = SimulationTrace(times=rows * 0.25, input=v, received=received,
                            complex_conc=c, route="fdm", wave=WAVE)
    _assert_writes_like_reference(trace, tmp_path)


def test_trace_csv_of_simulated_traces_equals_cell_by_cell_formatting(
        tmp_path, trace_reception, trace_x14):
    # The reception arm of the direct route has two step columns (input
    # and received); the channel arm one; a sine input none.
    sine = SineInput(amplitude=0.1, fundamental=W1, offset=0.05)
    cfg = default_solver_config(CH, sine, n_periods=1, omega_max=0.05)
    for trace in (trace_reception, trace_x14, simulate_fdm(CH, RS, sine, cfg)):
        _assert_writes_like_reference(trace, tmp_path)
