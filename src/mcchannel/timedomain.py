"""Time-domain responses of the diffusion-reception cascade.

Two independent routes produce concentration traces for a 0-to-amplitude
square-wave release at the transmitter:

* frequency route: Fourier synthesis.  The square wave is expanded in
  harmonics of its fundamental, each harmonic is scaled and delayed by
  the analytic frequency response, and the series is summed on a time
  grid.  This is the steady-periodic response.  The grid must hold a
  whole number m of samples per period; one period of each series is
  then one inverse FFT of m points, tiled (see synthesize_fourier).

* direct route: finite differences.  The diffusion equation
  u_t = mu u_xx is integrated on [0, L] with u(0, t) = v(t),
  u(L, t) = 0 and zero initial data (Crank-Nicolson: implicit,
  unconditionally stable, second order in both steps), and the bound
  receptor concentration follows the linearized binding ODE
  c' = k_f r u(x_r, t) - k_r c integrated with the trapezoidal rule.
  This is a transient from rest.  The scheme is not stepped but
  regrouped into two causal convolutions through the FFT (see
  simulate_fdm); numpy is the only numerical dependency.

Square-wave convention: each period opens low and closes high; the
rising edge of period k sits at (k + 1 - duty) * T.  A simulation from
rest therefore begins with a quiet stretch consistent with the empty
initial medium, and the first full pulse window is free of start-up
artifacts from a mid-edge start.  The direct route returns exact zeros
in that stretch.

Each route returns (reception, channel) arms, without and with the
diffusion stage, all sampling one TimeGrid (t0, dt, n), in the CLI the
solver configuration's time_grid, so the traces share a time column.
Agreement between the two routes over a late period (after transients
decay, the direct route approaches the steady-periodic solution) is the
main end-to-end check on both.  Every trace must be finite:
SimulationTrace raises FloatingPointError otherwise, whichever route
built it.
"""

from __future__ import annotations

import math

import numpy as np

from .systems import (
    DiffusionChannel,
    ReceptionSystem,
    _finite,
    _Record,
    _require,
    diffusion_response,
    reception_response,
)

__all__ = [
    "SquareWaveInput",
    "TimeGrid",
    "SimulationTrace",
    "SolverConfig",
    "default_solver_config",
    "synthesize_fourier",
    "simulate_fdm",
    "activation_time",
]


# Rounding window of an on-sample edge, in ulps of the phase t / T.
_EDGE_ULPS = 8


class SquareWaveInput(_Record):
    """Square-wave boundary concentration at the transmitter.

    Attributes:
        amplitude: high-minus-low swing, uM (>= 0).
        fundamental: angular frequency of the wave, rad/s.
        duty: high fraction of each period, in (0, 1).
        offset: constant baseline added to the wave, uM (>= 0).
    """

    amplitude: float
    fundamental: float
    duty: float = 0.5
    offset: float = 0.0

    def __post_init__(self) -> None:
        _require(_finite(self.amplitude) and self.amplitude >= 0.0,
                 f"amplitude must be finite and >= 0, got {self.amplitude}")
        _require(_finite(self.fundamental) and self.fundamental > 0.0,
                 f"fundamental must be finite and > 0, got {self.fundamental}")
        _require(_finite(self.duty) and 0.0 < self.duty < 1.0,
                 f"duty must be in (0, 1), got {self.duty}")
        _require(_finite(self.offset) and self.offset >= 0.0,
                 f"offset must be finite and >= 0, got {self.offset}")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.fundamental

    @property
    def mean(self) -> float:
        """Time average offset + amplitude * duty, uM."""
        return self.offset + self.amplitude * self.duty

    def value(self, t) -> np.ndarray:
        """The wave at the times t (s).

        An edge takes the value after it: high at a rising edge, low at a
        falling one.  t / T carries rounding, so a sample on an edge may
        land a few ulps before it; a phase within _EDGE_ULPS ulps before
        an edge counts as on it.
        """
        phase = np.asarray(t, dtype=float) / self.period
        frac = np.mod(phase + _EDGE_ULPS * np.spacing(np.abs(phase)), 1.0)
        return self.offset + self.amplitude * (frac >= 1.0 - self.duty)

    def harmonics_within(self, omega: float) -> int:
        """The count of harmonics n w1 <= omega, to within _EDGE_ULPS ulps."""
        ratio = omega / self.fundamental
        ratio += _EDGE_ULPS * math.ulp(ratio)
        _require(_finite(ratio), f"harmonic count omega/fundamental = "
                 f"{omega:g}/{self.fundamental:g} overflows")
        return math.floor(ratio)

    @property
    def pulse_window(self) -> tuple[float, float]:
        """The first high interval [(1 - duty) T, T]."""
        return (1.0 - self.duty) * self.period, self.period


class TimeGrid(_Record):
    """The n uniform sample instants t0 + k dt, k = 0 .. n - 1, in s."""

    t0: float
    dt: float
    n: int

    def __post_init__(self) -> None:
        _require(_finite(self.t0), f"t0 must be finite, got {self.t0}")
        _require(_finite(self.dt) and self.dt > 0.0,
                 f"dt must be finite and > 0, got {self.dt}")
        _require(_finite(self.n) and self.n >= 0, f"n must be >= 0, got {self.n}")

    def __len__(self) -> int:
        return self.n

    @property
    def times(self) -> np.ndarray:
        """The instants as a read-only array."""
        t = self.t0 + np.arange(self.n) * self.dt
        t.setflags(write=False)
        return t


class SimulationTrace(_Record):
    """Sampled input and response concentrations on a uniform time grid.

    received is the concentration at the receptors: the input itself in
    a reception arm, after the diffusion stage at x_r in a channel arm;
    complex_conc is the bound-receptor (ligand-receptor complex)
    concentration after the reception stage.  route records which solver
    produced the trace ('fourier' or 'fdm').  All four series must be
    finite; a nan or inf raises FloatingPointError.
    """

    grid: TimeGrid
    input: np.ndarray
    received: np.ndarray
    complex_conc: np.ndarray
    route: str
    wave: SquareWaveInput

    def __post_init__(self) -> None:
        n = len(self.grid)
        for name in ("input", "received", "complex_conc"):
            _require(len(getattr(self, name)) == n,
                     f"{name} length {len(getattr(self, name))} != grid length {n}")
        for name in ("times", "input", "received", "complex_conc"):
            series = getattr(self, name)
            # Every route ends here, so an overflow anywhere in a solver
            # is one numerical failure instead of a trace of nan/inf.
            if not np.isfinite(series).all():
                raise FloatingPointError(f"{self.route} trace: {name} is not "
                                         "finite (overflow in the solver?)")
            series.setflags(write=False)

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    @property
    def dt(self) -> float:
        return self.grid.dt


# The solvers let overflow and invalid operations run to inf and nan
# silently: SimulationTrace's finiteness check is their one report.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


def _samples_per_period(period: float, dt: float) -> int | None:
    """m if period / dt is an integer m >= 1 to within _EDGE_ULPS ulps."""
    ratio = period / dt
    if not _finite(ratio):
        return None
    m = round(ratio)
    whole = m >= 1 and abs(ratio - m) <= _EDGE_ULPS * math.ulp(ratio)
    return m if whole else None


@_QUIET_OVERFLOW
def synthesize_fourier(ch: DiffusionChannel, rs: ReceptionSystem,
                       wave: SquareWaveInput, n_harmonics: int,
                       t_grid: TimeGrid) -> tuple[SimulationTrace, ...]:
    """Steady-periodic (reception, channel) arms via Fourier synthesis.

    The wave's pulse (width duty * T, centered at t_c = (1 - duty/2) T)
    expands as

        v(t) = mean + sum_n (2 A / n pi) sin(n pi duty) cos(n w1 (t - t_c)),

    and each harmonic picks up the stage magnitude and unwrapped phase
    at n * w1.  Harmonics above n_harmonics are dropped; for duty = 1/2
    the even ones vanish only to rounding: in floating point sin(n pi / 2)
    is ~1e-16 n for even n, not 0.  The returned input series is the
    exact square wave, not its truncation.

    The grid must hold a whole number of samples per period: T / dt = m,
    an integer to within _EDGE_ULPS ulps; any other dt is refused.  t0 is
    free.  With complex amplitudes C_n = coeff_n |G_n| exp(i (phi_n -
    w_n t_c)), each series is Re sum_n C_n exp(i w_n t_k), and at t_k =
    t0 + k dt the harmonic's factor exp(i w_n t_k) is exp(i w_n t0)
    exp(2 pi i n k / m).  So one period of a series is one irfft of m
    points (Cooley & Tukey, Math. Comp. 19, 1965) whose bin n mod m
    holds (m/2) C_n exp(i w_n t0): harmonics at n >= m/2 fold onto it
    with their conjugates, exactly as sampling aliases them, and the DC
    and Nyquist bins take twice the real part.  The trace is that period
    tiled, so its response columns repeat bit for bit every m samples.
    The phases w_n (t0 - t_c) are reduced to fractions of a cycle, n (t0
    / T - 1 + duty/2) mod 1, before the exponential; at t0 = 0 and duty
    1/2 the reduction is exact.  Work: O(n_harmonics + m log m + len).

    Accuracy: against a 30-digit sum at 300 random samples of the
    baseline scenario's channel arm (800 harmonics, m = 12,800, amplitude
    A = 0.1 uM) the received series is off by at most 6.6e-15 x A and
    the complex by 5.3e-16 x A at the instants t0 + k T / m the period
    stands for.  At the grid's nominal instants t0 + k dt, which drift
    from those by m dt - T a period (-2.3e-13 s on the baseline), the
    errors are 3.1e-14 and 1.6e-15 x A.
    """
    _require(n_harmonics >= 0, f"n_harmonics must be >= 0, got {n_harmonics}")
    period, dt = wave.period, t_grid.dt
    m = _samples_per_period(period, dt)
    _require(m is not None, f"dt={dt:g} does not divide the period {period:g} "
             f"into whole samples: T/dt = {period / dt!r} is not an integer")
    n_samples = len(t_grid)

    # Per arm, (received, complex_conc): DC (unit diffusion gain) + harmonics.
    dc = np.array([wave.mean, wave.mean * rs.dc_gain])[:, None]
    n = np.arange(1, n_harmonics + 1)
    wn = n * wave.fundamental
    coeff = 2.0 * wave.amplitude * np.sin(n * math.pi * wave.duty) / (n * math.pi)
    cycles = np.mod(n * (t_grid.t0 / period - 1.0 + 0.5 * wave.duty), 1.0)
    h_mag, h_phase = reception_response(rs, wn)
    g_mag, g_phase = diffusion_response(ch, wn)
    responses = ((1.0, 0.0), (h_mag, h_phase), (g_mag, g_phase),
                 (g_mag * h_mag, g_phase + h_phase))
    # Bin n mod m of each series' two-sided spectrum: rows of m
    # harmonics, summed down the rows.
    rows = n_harmonics // m + 1
    spectrum = np.zeros((4, rows * m), dtype=complex)
    spectrum[:, 1:n_harmonics + 1] = [
        coeff * mag * np.exp(1j * (phase + 2.0 * math.pi * cycles))
        for mag, phase in responses]
    if rows > 1:
        spectrum = spectrum.reshape(4, rows, m).sum(axis=1)
    # Bin j of the real series: F_j + conj(F_{m-j}), times m/2.
    half = np.arange(m // 2 + 1)
    bins = spectrum[:, half] + np.conj(spectrum[:, -half % m])
    bins *= 0.5 * m
    periods = dc + np.fft.irfft(bins, m).reshape(2, 2, m)
    series = np.tile(periods, -(-n_samples // m))[:, :, :n_samples]

    v = wave.value(t_grid.times)
    return tuple(SimulationTrace(grid=t_grid, input=v, received=u,
                                 complex_conc=c, route="fourier", wave=wave)
                 for u, c in series)


class SolverConfig(_Record):
    """Discretization of the direct (finite-difference) route.

    Attributes:
        dx: spatial step, um.
        dt: time step, s.
        domain_length: truncation length L of the half-line, um.
        duration: total simulated time, s.
    """

    dx: float
    dt: float
    domain_length: float
    duration: float

    def __post_init__(self) -> None:
        for name in ("dx", "dt", "domain_length", "duration"):
            value = getattr(self, name)
            _require(_finite(value) and value > 0.0,
                     f"{name} must be finite and > 0, got {value}")
        # The step and cell counts are rounded to ints, where an inf
        # would raise OverflowError.
        steps, cells = self.duration / self.dt, self.domain_length / self.dx
        _require(_finite(steps), f"duration/dt = {steps:g} is beyond the "
                 f"float range (dt={self.dt:g})")
        _require(round(steps) >= 2, f"duration/dt = {steps:g} gives fewer "
                 f"than 2 time steps (dt={self.dt:g})")
        _require(_finite(cells), f"domain_length/dx = {cells:g} is beyond the "
                 f"float range (dx={self.dx:g})")

    @property
    def time_grid(self) -> TimeGrid:
        """The instants k dt from 0 to the step nearest duration."""
        return TimeGrid(0.0, self.dt, round(self.duration / self.dt) + 1)

    def mesh_ratio(self, mu: float) -> float:
        """h = mu dt / (2 dx^2), inf where it leaves the float range."""
        return 0.5 * mu * self.dt / self.dx / self.dx


def default_solver_config(ch: DiffusionChannel, wave: SquareWaveInput,
                          n_periods: int, omega_max: float) -> SolverConfig:
    """Derive a discretization from the scenario.

    The domain extends to L = max(10 x_r, 5 delta(w1)) with delta(w) =
    sqrt(2 mu / w) the penetration depth; its far boundary leaves a DC
    gain of 1 - x_r / L at x_r (0.90 when L = 10 x_r), not 1.  Steps
    resolve the penetration depth and period of omega_max, and dx is
    rounded so that x_r lands exactly on a grid node.  dt = T(omega_max)
    / 16 is kept when the wave's period T is a whole number of such steps
    (to within _EDGE_ULPS ulps), else shrunk to T / ceil(T / dt), so the
    Fourier route can take the grid.
    """
    _require(n_periods >= 1, f"n_periods must be >= 1, got {n_periods}")
    _require(_finite(n_periods), "n_periods is beyond the float range")
    w1 = wave.fundamental
    _require(omega_max >= w1, f"omega_max must be >= fundamental, got {omega_max}")
    L = max(10.0 * ch.x_r, 5.0 * math.sqrt(2.0 * ch.mu / w1))
    dx = math.sqrt(2.0 * ch.mu / omega_max) / 8.0
    _require(dx > 0.0, f"dx underflows to 0 (mu={ch.mu:g}, omega_max={omega_max:g})")
    if ch.x_r > 0.0:
        cells = ch.x_r / dx
        _require(_finite(cells), f"x_r/dx = {cells:g} is beyond the float range")
        dx = ch.x_r / max(1, round(cells))
    dt = 2.0 * math.pi / omega_max / 16.0
    ratio = wave.period / dt
    if _finite(ratio) and _samples_per_period(wave.period, dt) is None:
        dt = wave.period / math.ceil(ratio)
    return SolverConfig(dx=dx, dt=dt, domain_length=L,
                        duration=n_periods * wave.period)


def _causal_response(kernel: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """y with y[0] = 0 and y[n+1] = sum_{p<=n} kernel[p] forcing[n-p].

    The sum is a linear convolution through rfft/irfft, zero-padded to a
    power of two >= 2N - 1 for N forcing samples.  It starts at the first
    nonzero forcing sample: every output before it is exactly 0.0 rather
    than FFT rounding noise of either sign.
    """
    out = np.zeros(forcing.size + 1)
    nonzero = np.flatnonzero(forcing)
    if nonzero.size == 0:
        return out
    start = int(nonzero[0])
    f = forcing[start:]
    size = 1 << (2 * f.size - 2).bit_length()
    spectrum = np.fft.rfft(f, size) * np.fft.rfft(kernel[:f.size], size)
    out[start + 1:] = np.fft.irfft(spectrum, size)[:f.size]
    return out


_KERNEL_EPS = 1e-10     # the receiver kernel's aliasing bound (see simulate_fdm)


def _receiver_kernel(h: float, node: int, n_cells: int, n: int) -> np.ndarray:
    """H[p] for p < n, inverted from K(w) / (1 + w) (see simulate_fdm)."""
    size = 1 << (2 * n - 2).bit_length()
    r = _KERNEL_EPS ** (1.0 / size)
    w = r * np.exp(-2j * math.pi / size * np.arange(size // 2 + 1))
    theta = 2.0 * np.arcsinh(0.5 * np.sqrt((1.0 - w) / (h * (1.0 + w))))
    k = (np.exp(-node * theta) * np.expm1(-2 * (n_cells - node) * theta)
         / np.expm1(-2 * n_cells * theta))
    return np.fft.irfft(k / (1.0 + w), size)[:n] * r ** -np.arange(n)


@_QUIET_OVERFLOW
def simulate_fdm(ch: DiffusionChannel, rs: ReceptionSystem,
                 wave: SquareWaveInput,
                 cfg: SolverConfig) -> tuple[SimulationTrace, ...]:
    """Transient (reception, channel) arms from rest via Crank-Nicolson.

    Second-order central differences in space on [0, L]; the receiver
    distance must sit on an interior grid node (node < N = L / dx) to
    within 0.1% of x_r, and the mesh ratio h below must be positive and
    finite.  The scheme is unconditionally stable, so cfg trades
    accuracy, not stability.

    Each step solves (I - h D2) u_{n+1} = (I + h D2) u_n + h (v_n +
    v_{n+1}) e_1 on the interior nodes, h = mu dt / (2 dx^2), D2 the
    (1, -2, 1) second difference with Dirichlet ends at nodes 0 and
    N = L / dx.  From rest the receiver trace is a causal convolution,

        u_xr[n+1] = sum_{p<=n} H[p] (v_{n-p} + v_{n-p+1}),

    H the power series in w = 1/z of K(w) / (1 + w), where K is the
    scheme's exact z-domain response at the receiver (Ehrhardt, ZAMM 77,
    1997).  With rho = (1 - w) / (h (1 + w)), exp(+-theta), theta =
    2 asinh(sqrt(rho) / 2), are the roots of U_{j+1} - (2 + rho) U_j +
    U_{j-1} = 0 at each interior node, so

        K = exp(-node theta) (1 - exp(-2 (N - node) theta))
            / (1 - exp(-2 N theta)).

    The n = steps coefficients H[p] are one irfft of K / (1 + w) at M =
    2^ceil(log2(2n - 1)) points on the circle |w| = r = eps^(1/M), eps =
    1e-10, scaled by r^-p (Abate & Whitt, Oper. Res. Lett. 12, 1992): work
    that grows with the steps, not the cells, and no BLAS call.  The
    circle aliases at most eps max|H| onto each H[p], and the scaling
    multiplies the FFT's rounding by r^-p <= eps^(-1/2) = 1e5 for p < n.

    The trapezoidal binding step c_{n+1} = alpha c_n + beta (u_n +
    u_{n+1}), alpha = (1 - k_r dt/2) / (1 + k_r dt/2) and beta =
    (k_f r dt/2) / (1 + k_r dt/2), is the second causal convolution,
    with kernel beta alpha^p: all that the reception arm, or a receiver
    at the transmitter (x_r = 0), needs.  Both convolutions go through
    the FFT (see _causal_response), so there is no time-step loop.  Each
    starts at the first nonzero sample of its forcing, so the quiet
    stretch before the first rising edge is exactly 0.0.

    The result is the Crank-Nicolson solution regrouped, not stepped:
    against a step-by-step tridiagonal solve, 40 random channels of
    1,824-6,328 steps differ by at most 1.6e-12 x amplitude, the
    baseline by 1.1e-13.  A non-finite result (say, an amplitude so large
    that v_n + v_{n+1} overflows) is rejected by SimulationTrace with
    FloatingPointError.
    """
    dx, dt = cfg.dx, cfg.dt
    h = cfg.mesh_ratio(ch.mu)
    _require(0.0 < h < math.inf, f"mesh ratio mu dt / (2 dx^2) = {h:g} is 0 "
             f"or beyond the float range (dx={dx:g})")
    n_cells = int(round(cfg.domain_length / dx))
    node = int(round(ch.x_r / dx))
    _require(abs(node * dx - ch.x_r) <= 1e-3 * ch.x_r,
             f"x_r={ch.x_r:g} is not on the spatial grid (dx={dx:g}); "
             "snap error exceeds 0.1%")
    _require(node < n_cells, f"x_r={ch.x_r:g} is on node {node} of a "
             f"{n_cells}-cell mesh, not an interior node (domain_length="
             f"{cfg.domain_length:g}, dx={dx:g})")
    grid = cfg.time_grid
    n_steps = len(grid) - 1
    v = wave.value(grid.times)
    decay = 1.0 + 0.5 * rs.k_r * dt
    alpha = (1.0 - 0.5 * rs.k_r * dt) / decay
    beta = 0.5 * rs.k_f * rs.r * dt / decay
    binding = beta * alpha ** np.arange(n_steps)

    def arm(u_xr):
        c = _causal_response(binding, u_xr[:-1] + u_xr[1:])
        return SimulationTrace(grid=grid, input=v, received=u_xr,
                               complex_conc=c, route="fdm", wave=wave)

    reception = arm(v)
    if node == 0:    # receiver at the transmitter: no diffusion stage
        return reception, reception
    kernel = _receiver_kernel(h, node, n_cells, n_steps)
    return reception, arm(_causal_response(kernel, v[:-1] + v[1:]))


def activation_time(trace: SimulationTrace, threshold: float) -> float | None:
    """First threshold crossing of complex_conc within pulse 0's window.

    Returns t_on, the first time within the window at which the
    bound-receptor concentration reaches the threshold (linearly
    interpolated between samples), or None if the threshold is never
    reached in the window.  The latency is t_on minus the window start,
    trace.wave.pulse_window[0], i.e. relative to the rising edge of the
    input pulse.
    """
    _require(_finite(threshold) and threshold >= 0.0,
             f"threshold must be finite and >= 0, got {threshold}")
    _require(isinstance(trace.wave, SquareWaveInput),
             "activation timing is defined for square-wave (pulsed) input")
    window = trace.wave.pulse_window
    t, c = trace.times, trace.complex_conc
    _require(len(t) > 0 and window[1] <= t[-1] + trace.dt * 0.5,
             f"pulse 0 window {window} not covered by the trace")
    inside = (t >= window[0]) & (t <= window[1])
    idx = np.flatnonzero(inside & (c >= threshold))
    if idx.size == 0:
        return None
    i = int(idx[0])
    if i == 0 or c[i - 1] >= threshold:
        # at/above threshold where the window opens, or where the grid
        # does when it starts inside the window (i == 0)
        t_on = max(window[0], t[0])
    else:
        # interpolate the crossing between the straddling samples
        t_on = t[i - 1] + (threshold - c[i - 1]) / (c[i] - c[i - 1]) * trace.dt
        t_on = max(float(t_on), window[0])
    return float(t_on)

