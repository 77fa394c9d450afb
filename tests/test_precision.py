"""Rounding error of the closed forms against a 50-digit reference.

The reference below writes the four stage indices and the two distance
bounds out in physical units and evaluates them with mpmath at 50
significant digits, on the exact binary values of each float input.  The
scenarios are the baseline and 300 drawn the way the benchmark draws its
seeded scenarios (perfbench/workloads.py, scenario_yaml), each value
rounded to the seven significant digits a generated file holds.  The
reception indices are also checked on small normalized bands, where
their closed forms are differences of nearly equal terms.
"""

import decimal
import json
import math
import random
import sys
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpf

import mcchannel.cli as cli
from mcchannel import (
    DiffusionChannel,
    FrequencyBand,
    NormalizedBand,
    ReceptionSystem,
    channel_report,
    diffusion_amplitude_distortion_normalized,
    diffusion_delay_distortion_normalized,
    distance_bound,
    log_grid,
    reception_amplitude_distortion_normalized,
    reception_delay_distortion_normalized,
)

EPS = sys.float_info.epsilon
# Bounds fixed before measuring, in units of eps relative to the
# reference.  The indices take a handful of roundings each.  A distance
# divides the budget slack q0 - q_h by q_1: at factor f the rounding of
# q_h is amplified by 1 / (f - 1), up to 10 here.
INDEX_BOUND = 4.0 * EPS
DISTANCE_BOUND = 16.0 * EPS

# (mu, x_r, k_r, omega1, omega2, budget factor) of scenarios/baseline.yaml.
BASELINE = (83.0, 14.0, 4e-3, 5e-4, 0.4, 1.2)


def _seven_digits(x: float) -> float:
    return float(f"{x:.6e}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _drawn(rng: random.Random) -> tuple:
    """One scenario, drawn in scenario_yaml's order (ratio as in cli-batch)."""
    ratio = _log_uniform(rng, 50.0, 800.0)
    mu = _log_uniform(rng, 20.0, 500.0)
    k_r = _log_uniform(rng, 1e-3, 1e-2)
    omega1 = _log_uniform(rng, 2e-4, 1e-3)
    dx = math.sqrt(2.0 * mu / (omega1 * ratio)) / 8.0
    x_r = dx * max(1, round(rng.uniform(5.0, 30.0) / dx))
    factor = rng.uniform(1.1, 1.5)
    rng.uniform(0.3, 0.6)   # the activation threshold
    return tuple(_seven_digits(v) for v in
                 (mu, x_r, k_r, omega1, omega1 * ratio, factor))


def _scenarios() -> list[tuple]:
    rng = random.Random(20240)
    return [BASELINE] + [_drawn(rng) for _ in range(300)]


def _reference(mu, x_r, k_r, omega1, omega2):
    """q_g, r_g, q_h, r_h in physical units, at mp.dps digits."""
    mu, x_r, k_r, w1, w2 = (mpf(v) for v in (mu, x_r, k_r, omega1, omega2))
    scale = mpmath.sqrt(x_r * x_r / (2 * mu))
    period = 2 * mp.pi / w1
    q_g = 20 * scale * (mpmath.sqrt(w2) - mpmath.sqrt(w1)) / mpmath.ln(10)
    r_g = scale * (1 / mpmath.sqrt(w1) - 1 / mpmath.sqrt(w2)) / period
    q_h = 10 * mpmath.log10((w2 * w2 + k_r * k_r) / (w1 * w1 + k_r * k_r))
    r_h = (mpmath.atan(w1 / k_r) - w1 / w2 * mpmath.atan(w2 / k_r)) / (2 * mp.pi)
    return q_g, r_g, q_h, r_h


def _relative_errors():
    """Largest relative error of the indices and of the distances."""
    worst_index = worst_distance = 0.0
    with mp.workdps(50):
        for mu, x_r, k_r, omega1, omega2, factor in _scenarios():
            ch = DiffusionChannel(mu=mu, x_r=x_r)
            rs = ReceptionSystem(k_f=k_r / 4.0, k_r=k_r, r=4.0)
            band = FrequencyBand(omega1, omega2)
            report = channel_report(ch, rs, band)
            exact = _reference(mu, x_r, k_r, omega1, omega2)
            for got, want in zip((report.q_g, report.r_g, report.q_h,
                                  report.r_h), exact):
                worst_index = max(worst_index, float(abs(mpf(got) / want - 1)))

            # The budgets as design sets them, from the computed q_h and
            # r_h; the reference inverts the exact indices.
            q0, r0 = factor * report.q_h, factor * report.r_h
            result = distance_bound(q0, r0, band, mu, rs)
            q_g, r_g, q_h, r_h = exact
            for got, want in ((result.x_q, x_r * (q0 - q_h) / q_g),
                              (result.x_r_delay, x_r * (r0 - r_h) / r_g)):
                worst_distance = max(worst_distance,
                                     float(abs(mpf(got) / want - 1)))
    return worst_index, worst_distance


@pytest.fixture(scope="module")
def errors():
    return _relative_errors()


def test_indices_are_within_four_eps_of_the_reference(errors):
    assert errors[0] <= INDEX_BOUND, errors[0] / EPS


def test_distances_are_within_sixteen_eps_of_the_reference(errors):
    assert errors[1] <= DISTANCE_BOUND, errors[1] / EPS


# Normalized bands [w1', w2'] for the reception indices: three decades
# where the ratio and arctan forms of q_H and r_H are differences of
# nearly equal terms, the decade up to r_H's series switch at w2' = 1/8,
# and the baseline's band, [0.125, 100].
SMALL_BANDS = [(1e-6, 1e-5), (1e-5, 1e-4), (1e-4, 1e-3), (1e-3, 0.125)]
BASELINE_BAND = (BASELINE[3] / BASELINE[2], BASELINE[4] / BASELINE[2])


def _reception_bands() -> list[tuple]:
    """Each range's own band plus 100 drawn inside it, w2' >= 2 w1'."""
    rng = random.Random(7)
    bands = []
    for lo, hi in SMALL_BANDS:
        bands.append((lo, hi))
        for _ in range(100):
            w1 = _log_uniform(rng, lo, hi / 2.0)
            bands.append((w1, _log_uniform(rng, 2.0 * w1, hi)))
    return bands + [BASELINE_BAND]


@pytest.mark.parametrize("index", ["q_h", "r_h"])
def test_reception_indices_on_small_bands_are_within_four_eps(index):
    # The bound is INDEX_BOUND, fixed before the forms were measured.
    # The ratio and arctan forms miss it on these bands by up to 3.3e-5
    # (q_H) and 7.8e-5 (r_H) relative.
    fn = {"q_h": reception_amplitude_distortion_normalized,
          "r_h": reception_delay_distortion_normalized}[index]
    worst = 0.0
    with mp.workdps(50):
        for w1, w2 in _reception_bands():
            a, b = mpf(w1), mpf(w2)
            want = (10 * mpmath.log10((1 + b * b) / (1 + a * a))
                    if index == "q_h" else
                    (mpmath.atan(a) - a / b * mpmath.atan(b)) / (2 * mp.pi))
            got = fn(NormalizedBand(w1, w2, 1.0))
            worst = max(worst, float(abs(mpf(float(got)) / want - 1)))
    assert worst <= INDEX_BOUND, worst / EPS


def _normalized_reference(index: str, w1: float, w2: float, lam: float = 1.0):
    """One normal-form index at mp.dps digits, on the exact binary inputs."""
    a, b, lam = mpf(w1), mpf(w2), mpf(lam)
    if index == "q_g":
        return 20 * lam * (mpmath.sqrt(b) - mpmath.sqrt(a)) / mpmath.ln(10)
    if index == "r_g":
        return a / (2 * mp.pi) * lam * (1 / mpmath.sqrt(a) - 1 / mpmath.sqrt(b))
    if index == "q_h":
        return 10 * mpmath.log10((1 + b * b) / (1 + a * a))
    return (mpmath.atan(a) - a / b * mpmath.atan(b)) / (2 * mp.pi)


NORMALIZED = {"q_g": diffusion_amplitude_distortion_normalized,
              "r_g": diffusion_delay_distortion_normalized,
              "q_h": reception_amplitude_distortion_normalized,
              "r_h": reception_delay_distortion_normalized}

# Narrow normalized bands: w2'/w1' - 1 from 1e-7 to 1e-2, w1' from 1e-3 to
# 1e3.  Bounds fixed before measuring: INDEX_BOUND, and for r_H 1e-13,
# because its narrow-band form above w2' = 1/8 still subtracts two terms
# whose difference falls to about 1/100 of each, near 1/8.
NARROW_R_H_BOUND = 1e-13


def _narrow_bands() -> list[tuple]:
    """400 drawn bands, plus the ends of the ranges and r_H's switch."""
    rng = random.Random(11)
    bands = [(w1, w1 * (1.0 + gap)) for w1 in (1e-3, 0.125, 0.13, 1e3)
             for gap in (1e-7, 1e-2)]
    bands.append((0.13, 0.1300001))
    for _ in range(400):
        w1 = _log_uniform(rng, 1e-3, 1e3)
        bands.append((w1, w1 * (1.0 + _log_uniform(rng, 1e-7, 1e-2))))
    return bands


@pytest.mark.parametrize("index", ["q_g", "r_g", "q_h", "r_h"])
def test_indices_on_narrow_bands_are_within_their_bounds(index):
    bound = NARROW_R_H_BOUND if index == "r_h" else INDEX_BOUND
    worst = 0.0
    with mp.workdps(50):
        for w1, w2 in _narrow_bands():
            got = NORMALIZED[index](NormalizedBand(w1, w2, 1.0))
            want = _normalized_reference(index, w1, w2)
            worst = max(worst, float(abs(mpf(float(got)) / want - 1)))
    assert worst <= bound, worst / EPS


def test_narrow_sweep_cells_are_correctly_rounded(tmp_path):
    # sweep on the baseline over [10, 10.0005] at 60 points: every cell is
    # its index's 50-digit value rounded to the 9 digits written.
    baseline = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.yaml"
    cfg = tmp_path / "narrow.yaml"
    cfg.write_text(baseline.read_text()
                   .replace("omega_min: 1.0e-2", "omega_min: 10.0")
                   .replace("omega_max: 1.0e+2", "omega_max: 10.0005"))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lam = json.loads((out / "sweep.json").read_text())["lam"]
    grid = log_grid(FrequencyBand(10.0, 10.0005), 60).tolist()
    nine = decimal.Context(prec=9, rounding=decimal.ROUND_HALF_EVEN)
    wrong = []
    with mp.workdps(50):
        for index in NORMALIZED:
            lines = (out / f"{index}.csv").read_text().splitlines()[3:]
            assert len(lines) == len(grid)
            for w1, line in zip(grid, lines):
                for w2, cell in zip(grid, line.split(",")[1:]):
                    if w1 >= w2:
                        assert cell == ""
                        continue
                    exact = _normalized_reference(index, w1, w2, lam)
                    want = nine.plus(decimal.Decimal(mpmath.nstr(exact, 30)))
                    if decimal.Decimal(cell) != want:
                        wrong.append((index, w1, w2, cell, str(want)))
    assert wrong == []
