"""Property tests of the model's invariants on generated parameters."""

import copy
import math
from pathlib import Path
from unittest import mock

import numpy as np
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mcchannel import design
from mcchannel import (
    ConfigError,
    DesignSpec,
    DiffusionChannel,
    FrequencyBand,
    ReceptionSystem,
    cascade_gain_db,
    cascade_phase_delay,
    channel_report,
    diffusion_amplitude_distortion_normalized,
    distance_bound,
    highest_clean_band,
    normalize,
    reception_amplitude_distortion,
    reception_amplitude_distortion_normalized,
    reception_delay_distortion,
    scenario_from_dict,
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
    result = highest_clean_band(mu, x_r, RS, decade_width=width,
                                q_fraction=fraction, r_fraction=fraction,
                                rel_tol=rel_tol)
    if result.status[0] != "ok":
        return
    omega1 = result.omega1[0]
    assert _qualifies(mu, x_r, omega1, width, fraction)
    assert not _qualifies(mu, x_r, omega1 * (1.0 + 2.0 * rel_tol), width,
                          fraction)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_log_uniform(0.1, 3000.0),
                               _log_uniform(1e-6, 100.0)),
                     min_size=1, max_size=12),
       width=st.sampled_from([2.0, 10.0, 100.0]),
       q_fraction=st.sampled_from([0.05, 0.1, 0.5]),
       r_fraction=st.sampled_from([0.05, 0.1, 0.5]),
       rel_tol=st.sampled_from([1e-6, 1e-4, 1e-2]),
       search_range=st.sampled_from([(1e-8, 1e8), (1e-4, 1e4), (1e-3, 10.0)]),
       block=st.integers(1, 5))
def test_clean_band_batch_equals_one_row_calls(rows, width, q_fraction,
                                               r_fraction, rel_tol,
                                               search_range, block):
    # One batched call, with row blocks small enough that the scan crosses
    # block seams, gives every row the band and status of its own
    # scalar call, bit for bit.
    options = dict(decade_width=width, q_fraction=q_fraction,
                   r_fraction=r_fraction, rel_tol=rel_tol,
                   search_range=search_range)
    mu, x_r = (np.array(column) for column in zip(*rows))
    with mock.patch.object(design, "_SCAN_ROW_BLOCK", block):
        batch = highest_clean_band(mu, x_r, RS, **options)
    for i, (m, x) in enumerate(rows):
        one = highest_clean_band(m, x, RS, **options)
        assert batch.status[i] == one.status[0]
        if one.status[0] == "infeasible":
            assert math.isnan(batch.omega1[i]) and math.isnan(batch.omega2[i])
            continue
        assert batch.omega1[i] == one.omega1[0]
        assert batch.omega2[i] == one.omega2[0]


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


# Index agreement for the two invariants below, fixed before the tests
# were run: 1e-9 relative, plus 1e-12 absolute for indices that are
# themselves a cancellation of O(1) terms (q_h and r_h at w' << 1).
REL_TOL, ABS_TOL = 1e-9, 1e-12


def _close(a, b, scale=0.0):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale) + ABS_TOL


@settings(max_examples=200, deadline=None)
@given(mu=_log_uniform(0.1, 3000.0), x_r=_log_uniform(1e-3, 100.0),
       k_r=_log_uniform(1e-4, 10.0), omega1=_log_uniform(1e-6, 1e3),
       width=_log_uniform(1.5, 1e4), time_scale=_log_uniform(1e-3, 1e3),
       mu_scale=_log_uniform(1e-3, 1e3))
def test_indices_depend_only_on_the_normal_form(mu, x_r, k_r, omega1, width,
                                                time_scale, mu_scale):
    # Scale k_r and the band by s and mu by a, and x_r by sqrt(a / s):
    # w' = w / k_r and lam = sqrt(x_r^2 k_r / (2 mu)) are unchanged, and
    # so must be every index (dB spreads and period-normalized delays).
    rs = ReceptionSystem(k_f=1e-3, k_r=k_r, r=4.0)
    band = FrequencyBand(omega1, omega1 * width)
    ch = DiffusionChannel(mu=mu, x_r=x_r)
    rs2 = ReceptionSystem(k_f=1e-3, k_r=k_r * time_scale, r=4.0)
    band2 = FrequencyBand(omega1 * time_scale, omega1 * width * time_scale)
    ch2 = DiffusionChannel(mu=mu * mu_scale,
                           x_r=x_r * math.sqrt(mu_scale / time_scale))
    nb, nb2 = normalize(ch, rs, band), normalize(ch2, rs2, band2)
    for field in ("omega1p", "omega2p", "lam"):
        assert _close(getattr(nb, field), getattr(nb2, field))
    one, two = channel_report(ch, rs, band), channel_report(ch2, rs2, band2)
    for index in ("q_g", "r_g", "q_h", "r_h", "q_m", "r_m"):
        assert _close(getattr(one, index), getattr(two, index)), index


@settings(max_examples=200, deadline=None)
@given(mu=_log_uniform(0.1, 3000.0), k_r=_log_uniform(1e-4, 10.0),
       omega1=_log_uniform(1e-6, 1e3), width=_log_uniform(1.5, 1e4),
       q_room=_log_uniform(1e-2, 10.0), r_room=_log_uniform(1e-2, 10.0))
def test_design_limit_meets_the_binding_budget(mu, k_r, omega1, width,
                                               q_room, r_room):
    # Budgets above the reception share by a factor 1 + room.  At the
    # distance bound, the whole channel measured from its transfer
    # functions (not the closed forms the bound inverts) meets the
    # tighter budget with equality and the other one with room to spare.
    rs = ReceptionSystem(k_f=1e-3, k_r=k_r, r=4.0)
    band = FrequencyBand(omega1, omega1 * width)
    q0 = reception_amplitude_distortion(rs, band) * (1.0 + q_room)
    r0 = reception_delay_distortion(rs, band) * (1.0 + r_room)
    result = distance_bound(DesignSpec(q0=q0, r0=r0, band=band, mu=mu, rs=rs))
    assert result.feasible
    ch = DiffusionChannel(mu=mu, x_r=result.x_r_limit)
    edges = np.array([band.omega1, band.omega2])
    gain = cascade_gain_db(ch, rs, edges)
    delay = cascade_phase_delay(ch, rs, edges)
    # Gain and phase delay of both stages fall monotonically in w, so the
    # spreads are the differences between the band edges.
    q_m = float(gain[0] - gain[1])
    r_m = float(delay[0] - delay[1]) / band.period
    q_scale = float(np.max(np.abs(gain)))
    r_scale = float(np.max(np.abs(delay))) / band.period
    if result.x_q <= result.x_r_delay:
        assert _close(q_m, q0, q_scale)
        assert r_m <= r0 * (1.0 + REL_TOL) + ABS_TOL
    else:
        assert _close(r_m, r0, r_scale)
        assert q_m <= q0 * (1.0 + REL_TOL) + ABS_TOL


BASELINE = yaml.safe_load(
    (Path(__file__).resolve().parent.parent / "scenarios" / "baseline.yaml")
    .read_text())
# Every key a scenario section may hold, set or not in the baseline.
SCENARIO_FIELDS = [
    *(("channel", k) for k in ("mu", "x_r")),
    *(("reception", k) for k in ("k_f", "k_r", "r")),
    *(("band", k) for k in ("omega1", "omega2")),
    *(("thresholds", k) for k in ("q0", "r0", "q_factor", "r_factor")),
    *(("simulation", k) for k in ("amplitude", "duty", "offset", "threshold",
                                  "fundamental", "n_harmonics", "n_periods",
                                  "dx", "dt", "domain_length")),
    *(("sweep", k) for k in ("omega_min", "omega_max", "points")),
]
AWKWARD_VALUES = [10 ** 400, -10 ** 400, 1e308, -1e308, 5e-324, math.nan,
                  math.inf, True, None, "text", [1.0], 0, -1]


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(SCENARIO_FIELDS),
                                st.sampled_from(AWKWARD_VALUES)),
                      min_size=1, max_size=3))
def test_scenario_loads_or_raises_config_error(edits):
    # Whatever a scenario file holds, loading it either gives a Scenario
    # or raises ConfigError: no other exception reaches the CLI.
    doc = copy.deepcopy(BASELINE)
    for (section, key), value in edits:
        doc[section][key] = value
    try:
        scenario = scenario_from_dict(doc)
    except ConfigError:
        return
    assert scenario.solver.dx > 0.0 and scenario.n_harmonics >= 0
