"""Time-domain responses of the diffusion-reception cascade.

Two independent routes produce concentration traces for a 0-to-amplitude
square-wave release at the transmitter:

* frequency route: Fourier synthesis.  The square wave is expanded in
  harmonics of its fundamental, each harmonic is scaled and delayed by
  the analytic frequency response, and the series is summed on a time
  grid.  This is the steady-periodic response.  The sum over harmonics
  on the uniform grid is evaluated as a blocked complex matrix product
  (see synthesize_fourier), so it needs no integer number of samples
  per period.

* direct route: finite differences.  The diffusion equation
  u_t = mu u_xx is integrated on [0, L] with u(0, t) = v(t),
  u(L, t) = 0 and zero initial data (Crank-Nicolson: implicit,
  unconditionally stable, second order in both steps), and the bound
  receptor concentration follows the linearized binding ODE
  c' = k_f r u(x_r, t) - k_r c integrated with the trapezoidal rule.
  This is a transient from rest.  The scheme is not stepped: it is
  diagonal in the discrete sine basis of the interior grid, so the
  receiver trace is a causal convolution of the boundary forcing with
  an impulse response summed over the sine modes, and the binding step
  is a second causal convolution with a geometric kernel.  Both
  convolutions go through the FFT (see simulate_fdm); numpy is the only
  numerical dependency.

Square-wave convention: each period opens low and closes high; the
rising edge of period k sits at (k + 1 - duty) * T.  A simulation from
rest therefore begins with a quiet stretch consistent with the empty
initial medium, and the first full pulse window is free of start-up
artifacts from a mid-edge start.  The direct route returns exact zeros
in that stretch.

Agreement between the two routes over a late period (after transients
decay, the direct route approaches the steady-periodic solution) is the
main end-to-end check on both.  Every trace must be finite:
SimulationTrace raises FloatingPointError otherwise, whichever route
built it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .systems import (
    DiffusionChannel,
    ReceptionSystem,
    _finite,
    _require,
    cascade_response,
    diffusion_response,
)

__all__ = [
    "SquareWaveInput",
    "SineInput",
    "SimulationTrace",
    "SolverConfig",
    "default_solver_config",
    "synthesize_fourier",
    "simulate_fdm",
    "ActivationTiming",
    "activation_time",
    "write_trace_csv",
]


@dataclass(frozen=True)
class SquareWaveInput:
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
        _require(0.0 < self.duty < 1.0, f"duty must be in (0, 1), got {self.duty}")
        _require(_finite(self.offset) and self.offset >= 0.0,
                 f"offset must be finite and >= 0, got {self.offset}")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.fundamental

    @property
    def mean(self) -> float:
        """Time average offset + amplitude * duty, uM."""
        return self.offset + self.amplitude * self.duty

    def value(self, t):
        """Evaluate the wave at time(s) t (s); the rising edge counts as high."""
        frac = np.mod(np.asarray(t, dtype=float) / self.period, 1.0)
        v = self.offset + self.amplitude * (frac >= 1.0 - self.duty)
        return float(v) if np.ndim(t) == 0 else v

    def pulse_window(self, index: int) -> tuple[float, float]:
        """The index-th high interval [(index + 1 - duty) T, (index + 1) T]."""
        _require(index >= 0, f"pulse index must be >= 0, got {index}")
        T = self.period
        return ((index + 1.0 - self.duty) * T, (index + 1.0) * T)


@dataclass(frozen=True)
class SineInput:
    """Sinusoidal boundary concentration, mainly for solver validation.

    value(t) = offset + amplitude * sin(fundamental * t).  Driving the
    direct solver with a single tone and comparing the settled response
    against the analytic magnitude and phase exercises the discretization
    one frequency at a time.
    """

    amplitude: float
    fundamental: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        _require(_finite(self.amplitude) and self.amplitude >= 0.0,
                 f"amplitude must be finite and >= 0, got {self.amplitude}")
        _require(_finite(self.fundamental) and self.fundamental > 0.0,
                 f"fundamental must be finite and > 0, got {self.fundamental}")
        _require(_finite(self.offset) and self.offset >= 0.0,
                 f"offset must be finite and >= 0, got {self.offset}")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.fundamental

    def value(self, t):
        v = self.offset + self.amplitude * np.sin(
            self.fundamental * np.asarray(t, dtype=float))
        return float(v) if np.ndim(t) == 0 else v


@dataclass(frozen=True)
class SimulationTrace:
    """Sampled input and response concentrations on a uniform time grid.

    received is the concentration after the diffusion stage at x_r;
    complex_conc is the bound-receptor (ligand-receptor complex)
    concentration after the reception stage.  route records which solver
    produced the trace ('fourier' or 'fdm').  All four series must be
    finite; a nan or inf raises FloatingPointError.
    """

    times: np.ndarray
    input: np.ndarray
    received: np.ndarray
    complex_conc: np.ndarray
    route: str
    wave: SquareWaveInput | SineInput

    def __post_init__(self) -> None:
        n = len(self.times)
        for name in ("input", "received", "complex_conc"):
            _require(len(getattr(self, name)) == n,
                     f"{name} length {len(getattr(self, name))} != times length {n}")
        if n > 2:
            steps = np.diff(self.times)
            _require(bool(np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)),
                     "times must be uniformly sampled")
        for name in ("times", "input", "received", "complex_conc"):
            series = getattr(self, name)
            # Every route ends here, so an overflow anywhere in a solver
            # is one numerical failure instead of a trace of nan/inf.
            if not np.isfinite(series).all():
                raise FloatingPointError(f"{self.route} trace: {name} is not "
                                         "finite (overflow in the solver?)")
            series.setflags(write=False)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


# Harmonics per factor block of the Fourier sum: keeps each block's
# temporaries near 1 MB on a 38,401-sample grid.
_HARMONIC_BLOCK = 64

# The solvers let overflow and invalid operations run to inf and nan
# silently: SimulationTrace's finiteness check is their one report.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


@_QUIET_OVERFLOW
def synthesize_fourier(ch: DiffusionChannel, rs: ReceptionSystem,
                       wave: SquareWaveInput, n_harmonics: int,
                       t_grid: Iterable[float]) -> SimulationTrace:
    """Steady-periodic response via truncated Fourier synthesis.

    The wave's pulse (width duty * T, centered at t_c = (1 - duty/2) T)
    expands as

        v(t) = mean + sum_n (2 A / n pi) sin(n pi duty) cos(n w1 (t - t_c)),

    and each harmonic picks up the stage magnitude and unwrapped phase
    at n * w1.  Harmonics above n_harmonics are dropped; for duty = 1/2
    the even ones vanish only to rounding: in floating point sin(n pi / 2)
    is ~1e-16 n for even n, not 0.  The returned input series is the
    exact square wave, not its truncation.

    Evaluation: with complex amplitudes C_n = coeff_n |G_n|
    exp(i (phi_n - w_n t_c)), each stage's series is Re sum_n C_n
    exp(i w_n t_k).  On the uniform grid t_k = t_0 + k dt, write
    k = a B + b with B = isqrt(K) for K samples; then exp(i w_n t_k) =
    exp(i w_n t_{aB}) exp(i w_n b dt), and the sum is an (A x N) by
    (N x B) complex matrix product whose two factors need 2 sqrt(K) N
    exponentials instead of K N cosines.  Harmonics are taken in blocks
    of _HARMONIC_BLOCK to keep the temporaries small.  The grid must be
    uniform (SimulationTrace rejects any other); dt is its mean step.
    Within a row the samples are taken at t_{aB} + b dt, so a grid whose
    step drifts within SimulationTrace's 1e-9 relative tolerance is
    evaluated with phase errors of order w_N B 1e-9 dt (on the baseline
    grid, up to 5e-10 uM).

    Accuracy: both this product and a per-harmonic cosine loop carry the
    rounding of phases up to w_N t_K.  On the baseline scenario (800
    harmonics, 38,401 samples, amplitude 0.1 uM) they differ by at most
    4.6e-14 uM, and against an extended-precision sum the product is off
    by at most 6.2e-14 uM (the loop by 2.5e-14 uM).
    """
    _require(n_harmonics >= 0, f"n_harmonics must be >= 0, got {n_harmonics}")
    t = np.asarray(t_grid, dtype=float)
    n_samples = t.size

    # DC components: the diffusion stage has unit DC gain.
    received = np.full_like(t, wave.mean)
    complex_conc = np.full_like(t, wave.mean * rs.dc_gain)
    if n_harmonics > 0 and n_samples > 0:
        n = np.arange(1, n_harmonics + 1)
        wn = n * wave.fundamental
        coeff = 2.0 * wave.amplitude * np.sin(n * math.pi * wave.duty) / (n * math.pi)
        g_mag, g_phase = diffusion_response(ch, wn)
        m_mag, m_phase = cascade_response(ch, rs, wn)
        t_c = (1.0 - 0.5 * wave.duty) * wave.period
        amps = np.stack((coeff * g_mag * np.exp(1j * (g_phase - wn * t_c)),
                         coeff * m_mag * np.exp(1j * (m_phase - wn * t_c))))

        cols = math.isqrt(n_samples)
        rows = -(-n_samples // cols)
        dt = (t[-1] - t[0]) / (n_samples - 1) if n_samples > 1 else 0.0
        row_starts = t[::cols]
        col_offsets = np.arange(cols) * dt
        sums = np.zeros((2 * rows, cols), dtype=complex)
        for lo in range(0, n_harmonics, _HARMONIC_BLOCK):
            w = wn[lo:lo + _HARMONIC_BLOCK]
            left = amps[:, None, lo:lo + _HARMONIC_BLOCK] * np.exp(
                1j * np.multiply.outer(row_starts, w))
            right = np.exp(1j * np.multiply.outer(w, col_offsets))
            sums += left.reshape(2 * rows, w.size) @ right
        series = sums.real.reshape(2, rows * cols)[:, :n_samples]
        received += series[0]
        complex_conc += series[1]

    return SimulationTrace(times=t, input=wave.value(t), received=received,
                           complex_conc=complex_conc, route="fourier",
                           wave=wave)


@dataclass(frozen=True)
class SolverConfig:
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


def default_solver_config(ch: DiffusionChannel, wave: SquareWaveInput | SineInput,
                          n_periods: int = 3,
                          omega_max: float | None = None) -> SolverConfig:
    """Derive a discretization from the scenario.

    The domain extends to max(10 x_r, 5 delta(w1)) with delta(w) =
    sqrt(2 mu / w) the penetration depth, deep enough that the truncated
    far boundary perturbs the solution at x_r by well under 1%.  Steps
    resolve the penetration depth and period of omega_max (default
    100 * fundamental), and dx is rounded so that x_r lands exactly on a
    grid node.
    """
    _require(n_periods >= 1, f"n_periods must be >= 1, got {n_periods}")
    _require(_finite(n_periods), "n_periods is beyond the float range")
    w1 = wave.fundamental
    if omega_max is None:
        omega_max = 100.0 * w1
    _require(omega_max >= w1, f"omega_max must be >= fundamental, got {omega_max}")
    L = max(10.0 * ch.x_r, 5.0 * math.sqrt(2.0 * ch.mu / w1))
    dx = math.sqrt(2.0 * ch.mu / omega_max) / 8.0
    _require(dx > 0.0, f"dx underflows to 0 (mu={ch.mu:g}, omega_max={omega_max:g})")
    if ch.x_r > 0.0:
        cells = ch.x_r / dx
        _require(_finite(cells), f"x_r/dx = {cells:g} is beyond the float range")
        dx = ch.x_r / max(1, round(cells))
    dt = 2.0 * math.pi / omega_max / 16.0
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


def _mode_sum(g: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """H[p] = sum_k w_k g_k^p for p < n, from running products.

    With p = a B + b and B = isqrt(n), H is one (A x m)(m x B) matrix
    product of the left factor (g_k^B)^a and the right factor w_k g_k^b.
    Each factor is an in-place cumulative product down its first axis, of
    one g^B row and of the g row respectively, so no element needs pow.
    """
    cols = math.isqrt(n)
    rows = -(-n // cols)
    right = np.empty((cols, g.size))
    right[0] = w
    right[1:] = g
    np.cumprod(right, axis=0, out=right)
    left = np.empty((rows, g.size))
    left[0] = 1.0
    left[1:] = g ** cols
    np.cumprod(left, axis=0, out=left)
    return (left @ right.T).ravel()[:n]


@_QUIET_OVERFLOW
def simulate_fdm(ch: DiffusionChannel, rs: ReceptionSystem,
                 wave: SquareWaveInput | SineInput,
                 cfg: SolverConfig) -> SimulationTrace:
    """Transient response from rest via Crank-Nicolson finite differences.

    Second-order central differences in space on [0, L]; the receiver
    distance must sit on a grid node to within 0.1% of x_r.  The scheme
    is unconditionally stable, so cfg trades accuracy, not stability.

    Each step solves (I - h D2) u_{n+1} = (I + h D2) u_n + h (v_n +
    v_{n+1}) e_1 on the m interior nodes, with h = mu dt / (2 dx^2) and
    D2 the (1, -2, 1) second difference with Dirichlet ends.  D2 is
    diagonal in the discrete sine basis sin(j theta_k), theta_k =
    k pi / (m + 1), with eigenvalue -s_k / h, s_k = 4 h sin^2(theta_k / 2);
    mode k is amplified by g_k = (1 - s_k) / (1 + s_k) per step.  The
    receiver trace from rest is therefore a causal convolution,

        u_xr[n+1] = sum_{p<=n} H[p] (v_{n-p} + v_{n-p+1}),
        H[p] = sum_k w_k g_k^p,
        w_k = (2 / (m + 1)) sin(theta_k) sin(node theta_k) h / (1 + s_k).

    H is built like the Fourier sum: with p = a B + b and B =
    isqrt(n_steps), it is one (A x m)(m x B) real matrix product of
    (g_k^B)^a and w_k g_k^b (see _mode_sum).  Both factors are running
    products down a and b, from one g^B row and the g row, with no
    per-element pow; each element then carries at most a + b + 1
    roundings.  Against per-element powers, H differs by at most 9.4e-15
    of sum_k |w_k g_k^p| on the baseline scenario (A + B = 392), and the
    baseline traces by 5.6e-16 x amplitude.

    The trapezoidal binding step c_{n+1} = alpha c_n + beta (u_n +
    u_{n+1}), alpha = (1 - k_r dt/2) / (1 + k_r dt/2) and beta =
    (k_f r dt/2) / (1 + k_r dt/2), is the second causal convolution,
    with kernel beta alpha^p; the receiver at the
    transmitter (x_r = 0) needs only this one.  Both convolutions go
    through the FFT (see _causal_response), so there is no time-step
    loop.  Each starts at the first nonzero sample of its forcing, so
    the quiet stretch before the first rising edge is exactly 0.0.

    The result is the Crank-Nicolson solution regrouped, not stepped:
    against a step-by-step tridiagonal solve, the largest difference
    over 40 random channels (mu 10-1000, x_r 2-40, square and sine
    input) and the baseline scenario was 2.2e-13 x amplitude (6.8e-14
    on the baseline), which moves the baseline trace files by at most
    1e-11 uM, one unit in the 9th digit.  With the running products, 40
    further random channels (1,600-6,400 steps) gave at most 4.2e-14 and
    the baseline 4.0e-14 x amplitude against the stepped solve.  A
    non-finite result (say, an amplitude so large that v_n + v_{n+1}
    overflows) is rejected by SimulationTrace with FloatingPointError.
    """
    dx, dt = cfg.dx, cfg.dt
    n_cells = int(round(cfg.domain_length / dx))
    _require(n_cells >= 4, f"domain_length/dx = {cfg.domain_length / dx:.3g} "
             "gives fewer than 4 cells")
    _require(ch.x_r < cfg.domain_length,
             f"x_r={ch.x_r:g} must lie inside the domain "
             f"(length {cfg.domain_length:g})")
    node = int(round(ch.x_r / dx))
    if ch.x_r > 0.0:
        _require(abs(node * dx - ch.x_r) <= 1e-3 * ch.x_r,
                 f"x_r={ch.x_r:g} is not on the spatial grid (dx={dx:g}); "
                 "snap error exceeds 0.1%")

    n_steps = int(round(cfg.duration / dt))
    _require(n_steps >= 2, "duration must cover at least 2 time steps")
    times = np.arange(n_steps + 1) * dt
    v = wave.value(times)

    if node == 0:
        # Receiver at the transmitter: the diffusion stage is an identity
        # and only the binding ODE remains.
        u_xr = v.copy()
    else:
        h = 0.5 * ch.mu * dt / (dx * dx)
        m = n_cells - 1  # interior unknowns; nodes 0 and n_cells are Dirichlet
        theta = np.arange(1, m + 1) * (math.pi / (m + 1))
        s = 4.0 * h * np.sin(0.5 * theta) ** 2
        g = (1.0 - s) / (1.0 + s)
        w = (2.0 / (m + 1)) * np.sin(theta) * np.sin(node * theta) * h / (1.0 + s)
        u_xr = _causal_response(_mode_sum(g, w, n_steps), v[:-1] + v[1:])

    decay = 1.0 + 0.5 * rs.k_r * dt
    alpha = (1.0 - 0.5 * rs.k_r * dt) / decay
    beta = 0.5 * rs.k_f * rs.r * dt / decay
    c = _causal_response(beta * alpha ** np.arange(n_steps),
                         u_xr[:-1] + u_xr[1:])

    return SimulationTrace(times=times, input=v, received=u_xr,
                           complex_conc=c, route="fdm", wave=wave)


@dataclass(frozen=True)
class ActivationTiming:
    """Threshold-crossing summary for one pulse of a trace.

    t_on is the first time within the pulse window at which the
    bound-receptor concentration reaches the threshold (linearly
    interpolated between samples), or None if the threshold is never
    reached in the window.  latency is t_on relative to the window
    start, i.e. to the rising edge of the input pulse.
    """

    threshold: float
    t_on: float | None
    pulse_window: tuple[float, float]

    @property
    def activated(self) -> bool:
        return self.t_on is not None

    @property
    def latency(self) -> float | None:
        if self.t_on is None:
            return None
        return self.t_on - self.pulse_window[0]


def activation_time(trace: SimulationTrace, threshold: float,
                    pulse_index: int = 0) -> ActivationTiming:
    """First threshold crossing of complex_conc within one pulse window."""
    _require(_finite(threshold) and threshold >= 0.0,
             f"threshold must be finite and >= 0, got {threshold}")
    _require(isinstance(trace.wave, SquareWaveInput),
             "activation timing is defined for square-wave (pulsed) input")
    window = trace.wave.pulse_window(pulse_index)
    _require(window[1] <= trace.times[-1] + trace.dt * 0.5,
             f"pulse {pulse_index} window {window} not covered by the trace")
    t, c = trace.times, trace.complex_conc
    inside = (t >= window[0]) & (t <= window[1])
    idx = np.flatnonzero(inside & (c >= threshold))
    if idx.size == 0:
        return ActivationTiming(threshold, None, window)
    i = int(idx[0])
    if i > 0 and c[i - 1] >= threshold:
        # already at/above threshold when the window opens
        t_on = window[0]
    elif i > 0 and c[i] > c[i - 1]:
        # interpolate the crossing between the straddling samples
        t_on = t[i - 1] + (threshold - c[i - 1]) / (c[i] - c[i - 1]) * trace.dt
        t_on = max(float(t_on), window[0])
    else:
        t_on = float(t[i])
    return ActivationTiming(threshold, float(t_on), window)


# Rows formatted per write: bounds the text held in memory at once.
_TRACE_CHUNK = 4096

# A column whose runs of bit-equal values average at least this many rows
# is written as text once per run instead of formatted on every row.
_MIN_RUN = 64


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Write the trace as CSV with columns t_s, v_uM, u_xr_uM, c_uM.

    Every value is written as %.9g, 4096 rows per write.  A column that
    holds the same value over long runs of rows (runs of at least 64 rows
    on average: the input column of a square wave, and the received
    column of the reception arm of the direct route, which is the input)
    is formatted once per run in each chunk and put into the chunk's
    %-template as text, so % formats only the other columns.  Runs are found by
    comparing the bits of the doubles, so -0.0 and 0.0 start different
    runs, and each run's text is the %.9g of its value: the file is byte
    for byte the one that formatting every cell gives.
    """
    table = np.column_stack((trace.times, trace.input, trace.received,
                             trace.complex_conc))
    n = len(table)
    bits = table.view(np.int64)
    changed = bits[1:] != bits[:-1]
    constant = (1 + changed.sum(axis=0)) * _MIN_RUN <= n
    run_starts = np.flatnonzero(changed[:, constant].any(axis=1)) + 1
    varying = table[:, ~constant]
    with open(path, "w", newline="") as fh:
        fh.write(f"# route: {trace.route}\n")
        fh.write("t_s,v_uM,u_xr_uM,c_uM\n")
        for lo in range(0, n, _TRACE_CHUNK):
            hi = min(lo + _TRACE_CHUNK, n)
            inner = run_starts[(run_starts > lo) & (run_starts < hi)]
            edges = [lo, *inner.tolist(), hi]
            template = "".join(_row_template(table[a], constant) * (b - a)
                               for a, b in zip(edges, edges[1:]))
            fh.write(template % tuple(varying[lo:hi].ravel().tolist()))


def _row_template(row: np.ndarray, constant: np.ndarray) -> str:
    """One CSV line: the text of the constant cells, %.9g for the rest."""
    return ",".join("%.9g" % x if fixed else "%.9g"
                    for x, fixed in zip(row.tolist(), constant.tolist())) + "\n"
