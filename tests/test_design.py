"""Design rules: distance bounds, attenuation cutoff, clean-band search."""

import math
import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcchannel import design

from mcchannel import (
    DesignSpec,
    DiffusionChannel,
    FrequencyBand,
    ParameterError,
    ReceptionSystem,
    diffusion_amplitude_distortion,
    diffusion_delay_distortion,
    distance_bound,
    highest_clean_band,
    reception_amplitude_distortion,
    reception_cutoff,
    reception_delay_distortion,
    reception_response,
)

RS = ReceptionSystem(k_f=1e-3, k_r=4e-3, r=4.0)
BAND = FrequencyBand(5e-4, 0.4)
MU = 83.0

Q_H = 39.93310044617894
R_H = 0.01948120145076084

# Reference solutions for budgets 20% above the reception share.
X_Q = 19.418040505692165
X_R_DELAY = 14.622690174113684
CUTOFF_1PCT = 0.39997999949997504

# Reference roots of the clean-band search (independently bisected to
# fourteen digits; the library stops at rel_tol, default 1e-4).
CLEAN_W1_SLOW = 0.018454549      # mu=83, x_r=10
CLEAN_W1_FAST = 18143.808        # mu=500, x_r=2.5e-2


def _spec(q0, r0):
    return DesignSpec(q0=q0, r0=r0, band=BAND, mu=MU, rs=RS)


def test_distance_bound_reference_solution():
    result = distance_bound(_spec(1.2 * Q_H, 1.2 * R_H))
    assert result.feasible
    assert_allclose(result.x_q, X_Q, rtol=1e-10)
    assert_allclose(result.x_r_delay, X_R_DELAY, rtol=1e-10)
    # here the delay budget is the binding one
    assert result.x_r_limit == result.x_r_delay
    assert result.x_r_delay < result.x_q


def test_distance_bound_saturates_budgets():
    # At the returned distances the stage indices exactly consume the
    # slack the budgets leave beyond the reception share.
    result = distance_bound(_spec(1.2 * Q_H, 1.2 * R_H))
    ch_q = DiffusionChannel(mu=MU, x_r=result.x_q)
    assert_allclose(diffusion_amplitude_distortion(ch_q, BAND)
                    + reception_amplitude_distortion(RS, BAND),
                    1.2 * Q_H, rtol=1e-12)
    ch_r = DiffusionChannel(mu=MU, x_r=result.x_r_delay)
    assert_allclose(diffusion_delay_distortion(ch_r, BAND)
                    + reception_delay_distortion(RS, BAND),
                    1.2 * R_H, rtol=1e-12)


def test_infeasible_budgets_return_structured_result():
    q_h = reception_amplitude_distortion(RS, BAND)
    result = distance_bound(_spec(q_h, 1.2 * R_H))  # no amplitude slack at all
    assert not result.feasible
    assert result.x_r_limit is None
    assert result.x_q == 0.0
    tight = distance_bound(_spec(1.2 * Q_H, R_H / 2.0))
    assert not tight.feasible
    assert tight.x_r_delay < 0.0
    with pytest.raises(ParameterError):
        _spec(-1.0, 0.01)


def test_distance_bound_scales_with_sqrt_mu():
    a = distance_bound(_spec(1.2 * Q_H, 1.2 * R_H))
    b = distance_bound(DesignSpec(q0=1.2 * Q_H, r0=1.2 * R_H, band=BAND,
                                  mu=2.0 * MU, rs=RS))
    assert_allclose(b.x_q, math.sqrt(2.0) * a.x_q, rtol=1e-12)
    assert_allclose(b.x_r_delay, math.sqrt(2.0) * a.x_r_delay, rtol=1e-12)


def test_reception_cutoff_reference_value():
    cut = reception_cutoff(RS, 0.01)
    assert_allclose(cut, CUTOFF_1PCT, rtol=1e-12)
    # inverting: the magnitude at the cutoff is the requested attenuation
    assert_allclose(reception_response(RS, cut)[0], 0.01, rtol=1e-12)


def test_reception_cutoff_domain():
    with pytest.raises(ParameterError):
        reception_cutoff(RS, 0.0)
    with pytest.raises(ParameterError):
        reception_cutoff(RS, RS.dc_gain)
    with pytest.raises(ParameterError):
        reception_cutoff(RS, 2.0)


def test_clean_band_reference_roots():
    slow = highest_clean_band(83.0, 10.0, RS)
    assert slow.status.tolist() == ["ok"]
    assert_allclose(slow.omega1[0], CLEAN_W1_SLOW, rtol=2e-4)
    assert_allclose(slow.omega2[0], 10.0 * slow.omega1[0], rtol=1e-12)
    fast = highest_clean_band(500.0, 2.5e-2, RS)
    assert fast.status.tolist() == ["ok"]
    assert_allclose(fast.omega1[0], CLEAN_W1_FAST, rtol=2e-4)


def test_clean_band_sits_on_the_predicate_boundary():
    result = highest_clean_band(83.0, 10.0, RS, rel_tol=1e-6)
    ch = DiffusionChannel(mu=83.0, x_r=10.0)

    def qualifies(w1):
        band = FrequencyBand(w1, 10.0 * w1)
        return (diffusion_amplitude_distortion(ch, band)
                <= 0.1 * reception_amplitude_distortion(RS, band)
                and diffusion_delay_distortion(ch, band)
                <= 0.1 * reception_delay_distortion(RS, band))

    w1 = result.omega1[0]
    assert qualifies(w1)
    assert not qualifies(w1 * 1.001)
    # the qualifying set is a window, not a half-line: it also fails
    # far below the returned top
    assert not qualifies(w1 * 1e-3)


def test_clean_band_saturates_for_vanishing_distance():
    result = highest_clean_band(83.0, 1e-6, RS, search_range=(1e-4, 1e4))
    assert result.status[0] == "saturated"
    assert result.omega1[0] == 1e4
    assert result.omega2[0] == 1e5


def test_clean_band_infeasible_for_large_distance():
    result = highest_clean_band(83.0, 1e4, RS)
    assert result.status.tolist() == ["infeasible"]
    assert math.isnan(result.omega1[0]) and math.isnan(result.omega2[0])


def test_clean_band_is_deterministic():
    a = highest_clean_band(83.0, 10.0, RS)
    b = highest_clean_band(83.0, 10.0, RS)
    assert a.omega1[0] == b.omega1[0]
    assert a.omega2[0] == b.omega2[0]


def test_clean_band_drops_with_distance():
    # Farther receivers have to settle for lower bands, and the qualifying
    # window (an intersection of two frequency-dependent conditions) closes
    # entirely a little past 18 um for these parameters.
    starts = [highest_clean_band(83.0, x, RS).omega1[0]
              for x in (10.0, 12.0, 14.0, 16.0, 18.0)]
    assert all(b < a for a, b in zip(starts, starts[1:]))
    assert highest_clean_band(83.0, 20.0, RS).status[0] == "infeasible"


def test_clean_band_respects_width_and_tolerance():
    wide = highest_clean_band(83.0, 10.0, RS, decade_width=100.0)
    assert_allclose(wide.omega2[0], 100.0 * wide.omega1[0], rtol=1e-12)
    coarse = highest_clean_band(83.0, 10.0, RS, rel_tol=1e-2)
    fine = highest_clean_band(83.0, 10.0, RS, rel_tol=1e-6)
    assert abs(coarse.omega1[0] / fine.omega1[0] - 1.0) < 1e-2


def test_clean_band_parameter_validation():
    with pytest.raises(ParameterError):
        highest_clean_band(0.0, 10.0, RS)
    with pytest.raises(ParameterError):
        highest_clean_band(83.0, -1.0, RS)
    with pytest.raises(ParameterError):
        highest_clean_band(83.0, 10.0, RS, decade_width=1.0)
    with pytest.raises(ParameterError):
        highest_clean_band(83.0, 10.0, RS, q_fraction=0.0)
    with pytest.raises(ParameterError):
        highest_clean_band(83.0, 10.0, RS, search_range=(1.0, 0.1))
    with pytest.raises(ParameterError):
        highest_clean_band(10**400, 10.0, RS)
    with pytest.raises(ParameterError):
        highest_clean_band(83.0, [10.0, 10**400], RS)


@pytest.fixture
def bounded_search(monkeypatch):
    """Fail a clean-band search after 1,000 predicate calls.

    A default search makes about 30; one that makes no progress would
    otherwise hang the test run.
    """
    normalize, calls = design.normalize, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        if calls[0] > 1000:
            raise AssertionError("the clean-band search does not end")
        return normalize(*args, **kwargs)

    monkeypatch.setattr(design, "normalize", counted)


@pytest.mark.parametrize("setting, value", [
    pytest.param("rel_tol", 0.0, id="rel_tol=0"),
    pytest.param("rel_tol", -1.0, id="rel_tol=-1"),
    pytest.param("rel_tol", 1e-16, id="rel_tol=1e-16"),
    pytest.param("rel_tol", 1e-300, id="rel_tol=1e-300"),
    pytest.param("rel_tol", math.nan, id="rel_tol=nan"),
    pytest.param("rel_tol", 10**400, id="rel_tol=10**400"),
    pytest.param("search_range", (1e-8, math.inf), id="range=(1e-8,inf)"),
    pytest.param("search_range", (1e-308, 1e308), id="range=(1e-308,1e308)"),
    pytest.param("search_range", (1e-8, 10**400), id="range=(1e-8,10**400)"),
    pytest.param("search_range", (1e-300, 1e-200), id="range=(1e-300,1e-200)"),
    pytest.param("decade_width", 10**400, id="decade_width=10**400"),
    pytest.param("q_fraction", 10**400, id="q_fraction=10**400"),
    pytest.param("r_fraction", math.inf, id="r_fraction=inf"),
])
def test_clean_band_rejects_settings_it_cannot_honour(bounded_search, setting,
                                                      value):
    with pytest.raises(ParameterError):
        highest_clean_band(83.0, 10.0, RS, **{setting: value})


def test_clean_band_tolerance_floor(bounded_search):
    floor = design._MIN_REL_TOL
    assert floor == 4.0 * sys.float_info.epsilon
    with pytest.raises(ParameterError):
        highest_clean_band(83.0, 10.0, RS, rel_tol=math.nextafter(floor, 0.0))

    # The reason for the floor: whenever the loop test bad / good >
    # 1 + floor passes, the midpoint sqrt(good * bad) lies strictly inside
    # the bracket, anywhere in the search limits.
    rng = np.random.default_rng(3)
    lo, hi = design._SEARCH_LIMITS
    good = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), 20_000)
    good[:2] = lo, hi / (1.0 + 2.0 * floor)
    bad = good * (1.0 + floor)
    while np.any(narrow := bad / good <= 1.0 + floor):
        bad[narrow] = np.nextafter(bad[narrow], np.inf)
    mid = np.sqrt(good * bad)
    assert np.all(good < mid) and np.all(mid < bad)

    # At the floor the search ends, on the same bisection path as a
    # coarser tolerance, only further along it.
    mu = 0.1 * 3e4 ** rng.random(300)
    x_r = 1e-6 * 1e8 ** rng.random(300)
    fine = highest_clean_band(mu, x_r, RS, rel_tol=floor)
    coarse = highest_clean_band(mu, x_r, RS, rel_tol=1e-12)
    ok = coarse.status == "ok"
    assert fine.status.tolist() == coarse.status.tolist()
    assert ok.sum() > 100
    assert np.all(fine.omega1[ok] >= coarse.omega1[ok])
    assert np.all(fine.omega1[ok] <= coarse.omega1[ok] * (1.0 + 1e-12))


def _scalar_scan_reference(mu, x_r, rs, decade_width=10.0, q_fraction=0.1,
                           r_fraction=0.1, search_range=(1e-8, 1e8),
                           rel_tol=1e-4):
    """The clean-band search with one scalar predicate call per scan point.

    The predicate is the physical closed forms written out with the math
    module.  Returns (outcome, omega1): outcome is "all" (every scan
    point qualifies), "top" (the top point qualifies but not every one),
    "ok" or "infeasible".
    """
    log10_e = math.log10(math.e)

    def qualifies(w1):
        w2 = w1 * decade_width
        root = math.sqrt(x_r * x_r / (2.0 * mu))
        q_g = 20.0 * root * (math.sqrt(w2) - math.sqrt(w1)) * log10_e
        r_g = root * (1.0 / math.sqrt(w1) - 1.0 / math.sqrt(w2)) / (
            2.0 * math.pi / w1)
        q_h = 20.0 * math.log10(math.hypot(w2, rs.k_r) / math.hypot(w1, rs.k_r))
        r_h = (math.atan2(w1, rs.k_r)
               - w1 / w2 * math.atan2(w2, rs.k_r)) / (2.0 * math.pi)
        return q_g <= q_fraction * q_h and r_g <= r_fraction * r_h

    lo, hi = search_range
    n_scan = max(2, int(round(math.log10(hi / lo) * 16)) + 1)
    step = (hi / lo) ** (1.0 / (n_scan - 1))
    scan = [lo * step ** i for i in range(n_scan)]
    flags = [qualifies(w) for w in scan]
    if all(flags):
        return "all", hi
    if not any(flags):
        return "infeasible", None
    top = max(i for i, flag in enumerate(flags) if flag)
    if top == n_scan - 1:
        return "top", hi
    good, bad = scan[top], scan[top + 1]
    while bad / good > 1.0 + rel_tol:
        mid = math.sqrt(good * bad)
        if qualifies(mid):
            good = mid
        else:
            bad = mid
    return "ok", good


STATUS = {"all": "saturated", "top": "saturated", "ok": "ok",
          "infeasible": "infeasible"}


def test_clean_band_matches_scalar_scan_reference():
    # Seeded rows over the survey's parameter ranges, with some rows on
    # other widths, fractions, tolerances and search ranges.  The array
    # scan must reproduce the scalar one bit for bit.
    rng = random.Random(20240)
    outcomes = Counter()
    default_rows = []
    for i in range(200):
        mu = 0.1 * 3e4 ** rng.random()
        x_r = 1e-6 * 1e8 ** rng.random()
        options = {}
        if i % 4 == 1:
            options = {"decade_width": rng.choice([2.0, 10.0, 100.0]),
                       "q_fraction": rng.choice([0.05, 0.1, 0.5]),
                       "r_fraction": rng.choice([0.05, 0.1, 0.5]),
                       "rel_tol": rng.choice([1e-6, 1e-4, 1e-2])}
        elif i % 4 == 3:
            lo = 10.0 ** rng.uniform(-8.0, 2.0)
            options = {"search_range": (lo, lo * 10.0 ** rng.uniform(0.5, 6.0))}
        outcome, omega1 = _scalar_scan_reference(mu, x_r, RS, **options)
        outcomes[outcome] += 1
        if not options:
            default_rows.append((mu, x_r, outcome, omega1))
        width = options.get("decade_width", 10.0)
        result = highest_clean_band(mu, x_r, RS, **options)
        assert result.status.tolist() == [STATUS[outcome]], (mu, x_r)
        if outcome == "infeasible":
            assert math.isnan(result.omega1[0]), (mu, x_r, options)
            continue
        assert result.omega1[0] == omega1, (mu, x_r, options)
        assert result.omega2[0] == omega1 * width
    assert set(outcomes) == {"all", "top", "ok", "infeasible"}, outcomes

    # The rows on the default settings, searched in one batched call.
    mu, x_r, outcome, omega1 = zip(*default_rows)
    batch = highest_clean_band(np.array(mu), np.array(x_r), RS)
    assert batch.status.tolist() == [STATUS[o] for o in outcome]
    assert set(batch.status.tolist()) == {"ok", "saturated", "infeasible"}
    feasible = batch.status != "infeasible"
    assert np.isnan(batch.omega1[~feasible]).all()
    expected = np.array([w for w in omega1 if w is not None])
    assert batch.omega1[feasible].tolist() == expected.tolist()
    assert batch.omega2[feasible].tolist() == (expected * 10.0).tolist()


def test_clean_band_batch_memory_is_bounded_by_the_row_block():
    # 20,000 rows: one (rows x 257) float temporary of an unblocked scan
    # would take 41 MB.  The blocked scan keeps a few 256-row temporaries
    # plus the per-row inputs, statuses and bands.
    rng = np.random.default_rng(7)
    rows, n_scan = 20_000, 257
    mu = 0.1 * 3e4 ** rng.random(rows)
    x_r = 1e-6 * 1e8 ** rng.random(rows)
    tracemalloc.start()
    try:
        batch = highest_clean_band(mu, x_r, RS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.status.size == rows
    assert set(batch.status.tolist()) == {"ok", "saturated", "infeasible"}
    block_temporary = 256 * n_scan * 8
    assert peak < 8 * block_temporary + 256 * rows, peak


def test_clean_band_batch_accepts_no_rows_and_validates_each_row():
    empty = highest_clean_band(np.array([]), np.array([]), RS)
    assert empty.omega1.size == empty.omega2.size == empty.status.size == 0
    with pytest.raises(ParameterError):
        highest_clean_band(np.array([83.0, 0.0]), np.array([10.0, 10.0]), RS)
    with pytest.raises(ParameterError):
        highest_clean_band(np.array([83.0, 83.0]), np.array([10.0, np.nan]), RS)
    with pytest.raises(ParameterError):
        highest_clean_band(np.ones((2, 2)), np.ones((2, 2)), RS)
