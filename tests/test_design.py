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
    DiffusionChannel,
    FrequencyBand,
    NormalizedBand,
    ParameterError,
    ReceptionSystem,
    channel_report,
    diffusion_amplitude_distortion_normalized,
    diffusion_delay_distortion_normalized,
    distance_bound,
    highest_clean_band,
    reception_amplitude_distortion,
    reception_amplitude_distortion_normalized,
    reception_delay_distortion_normalized,
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
# fourteen digits; the library stops at its relative tolerance, 1e-4).
CLEAN_W1_SLOW = 0.018454549      # mu=83, x_r=10
CLEAN_W1_FAST = 18143.808        # mu=500, x_r=2.5e-2


def _bound(q0, r0):
    return distance_bound(q0, r0, BAND, MU, RS)


def test_distance_bound_reference_solution():
    result = _bound(1.2 * Q_H, 1.2 * R_H)
    assert result.feasible
    assert_allclose(result.x_q, X_Q, rtol=1e-10)
    assert_allclose(result.x_r_delay, X_R_DELAY, rtol=1e-10)
    # here the delay budget is the binding one
    assert result.x_r_limit == result.x_r_delay
    assert result.x_r_delay < result.x_q


def test_distance_bound_saturates_budgets():
    # At the returned distances the stage indices exactly consume the
    # slack the budgets leave beyond the reception share.
    result = _bound(1.2 * Q_H, 1.2 * R_H)
    at_q = channel_report(DiffusionChannel(mu=MU, x_r=result.x_q), RS, BAND)
    assert_allclose(at_q.q_g + at_q.q_h, 1.2 * Q_H, rtol=1e-12)
    at_r = channel_report(DiffusionChannel(mu=MU, x_r=result.x_r_delay), RS,
                          BAND)
    assert_allclose(at_r.r_g + at_r.r_h, 1.2 * R_H, rtol=1e-12)


def test_infeasible_budgets_return_structured_result():
    q_h = reception_amplitude_distortion(RS, BAND)
    result = _bound(q_h, 1.2 * R_H)  # no amplitude slack at all
    assert not result.feasible
    assert result.x_r_limit is None
    assert result.x_q == 0.0
    tight = _bound(1.2 * Q_H, R_H / 2.0)
    assert not tight.feasible
    assert tight.x_r_delay < 0.0


@pytest.mark.parametrize("q0, r0, mu, message", [
    (-1.0, 0.01, MU, "q0 must be"),
    (0.0, 0.01, MU, "q0 must be"),
    (40.0, 0.0, MU, "r0 must be"),       # would give an infeasible result
    (40.0, math.nan, MU, "r0 must be"),  # would give a nan distance
    (40.0, 0.03, 0.0, "mu must be"),     # would give zero distances
    (40.0, 0.03, math.inf, "mu must be"),
])
def test_distance_bound_rejects_bad_inputs(q0, r0, mu, message):
    with pytest.raises(ParameterError, match=message):
        distance_bound(q0, r0, BAND, mu, RS)


def test_budgets_at_the_reception_share_are_infeasible():
    # Each budget must exceed the share it pays first; equal leaves a
    # distance of 0, which no receiver sits at.
    share = _bound(1.0, 1.0)
    assert (share.q_h, share.r_h) == (Q_H, R_H)
    for q0, r0 in ((Q_H, 2.0 * R_H), (2.0 * Q_H, R_H)):
        result = _bound(q0, r0)
        assert not result.feasible and result.x_r_limit is None
        assert min(result.x_q, result.x_r_delay) == 0.0


def test_distance_bound_scales_with_sqrt_mu():
    a = _bound(1.2 * Q_H, 1.2 * R_H)
    b = distance_bound(1.2 * Q_H, 1.2 * R_H, BAND, 2.0 * MU, RS)
    assert_allclose(b.x_q, math.sqrt(2.0) * a.x_q, rtol=1e-12)
    assert_allclose(b.x_r_delay, math.sqrt(2.0) * a.x_r_delay, rtol=1e-12)


def test_reception_cutoff_reference_value():
    # The magnitude at the 1% cutoff is the attenuation it was set for.
    assert_allclose(reception_response(RS, CUTOFF_1PCT)[0], 0.01, rtol=1e-12)


def test_clean_band_reference_roots():
    slow = highest_clean_band(83.0, 10.0, RS)
    assert slow.status.tolist() == ["ok"]
    assert_allclose(slow.omega1[0], CLEAN_W1_SLOW, rtol=2e-4)
    assert_allclose(slow.omega2[0], 10.0 * slow.omega1[0], rtol=1e-12)
    fast = highest_clean_band(500.0, 2.5e-2, RS)
    assert fast.status.tolist() == ["ok"]
    assert_allclose(fast.omega1[0], CLEAN_W1_FAST, rtol=2e-4)


def _qualifies(w1, width=10.0, mu=83.0, x_r=10.0):
    """The clean-band predicate at fractions 0.1, from channel_report."""
    report = channel_report(DiffusionChannel(mu=mu, x_r=x_r), RS,
                            FrequencyBand(w1, width * w1))
    return report.q_g <= 0.1 * report.q_h and report.r_g <= 0.1 * report.r_h


def test_clean_band_sits_on_the_predicate_boundary():
    w1 = highest_clean_band(83.0, 10.0, RS).omega1[0]
    assert _qualifies(w1)
    assert not _qualifies(w1 * 1.001)
    # the qualifying set is a window, not a half-line: it also fails
    # far below the returned top
    assert not _qualifies(w1 * 1e-3)


def test_clean_band_saturates_for_vanishing_distance():
    # The top of the search range, 1e8 rad/s, qualifies.
    result = highest_clean_band(83.0, 1e-6, RS)
    assert result.status[0] == "saturated"
    assert result.omega1[0] == 1e8
    assert result.omega2[0] == 1e9


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
    # The band start is the qualifying end of a bracket no wider than the
    # relative tolerance, so the edge lies below w1 (1 + tolerance).
    for width in (10.0, 100.0):
        w1 = highest_clean_band(83.0, 10.0, RS, decade_width=width).omega1[0]
        assert _qualifies(w1, width)
        assert not _qualifies(w1 * (1.0 + design._REL_TOL), width)


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
        highest_clean_band(10**400, 10.0, RS)
    with pytest.raises(ParameterError):
        highest_clean_band(83.0, [10.0, 10**400], RS)


@pytest.mark.parametrize("setting, value", [
    ("decade_width", 1.0), ("q_fraction", 0.0), ("r_fraction", 0.0)])
def test_clean_band_settings_are_refused_at_their_bound(setting, value):
    # Refused by name: a decade width of 1 would otherwise fail later, as
    # an empty band, and a fraction of 0 would mark every row infeasible.
    with pytest.raises(ParameterError, match=setting):
        highest_clean_band(83.0, 10.0, RS, **{setting: value})


def test_clean_band_whose_window_tops_out_at_the_first_scan_point():
    # Time stretched by 1 / s moves the band start to s * w1 with lam
    # unchanged.  At 1.05e-8 only the lowest scan point, 1e-8, of the
    # search qualifies, and the bisection still starts from it.
    w1 = float(highest_clean_band(83.0, 10.0, RS).omega1[0])
    s = 1.05e-8 / w1
    rs = ReceptionSystem(k_f=RS.k_f * s, k_r=RS.k_r * s, r=RS.r)
    found = highest_clean_band(83.0 * s, 10.0, rs)
    assert found.status.tolist() == ["ok"]
    assert 1e-8 < found.omega1[0] < 1e-8 * 10 ** (1 / 16)
    assert found.omega1[0] == pytest.approx(1.05e-8, rel=2e-4)


def test_clean_band_edge_is_closed_at_a_bisection_midpoint():
    # A row whose lam equals Phi at the first bisection midpoint, bit for
    # bit, qualifies there (the bound is inclusive, as q_g <= q_fraction
    # * q_h is), so the search keeps that midpoint and ends at or above it.
    lo, hi = design._SEARCH_RANGE
    n_scan = int(round(math.log10(hi / lo) * 16)) + 1
    step = (hi / lo) ** (1.0 / (n_scan - 1))
    top = math.floor(math.log(CLEAN_W1_SLOW / lo) / math.log(step))
    mid = math.sqrt((lo * step ** top) * (lo * step ** (top + 1)))
    unit = NormalizedBand(mid / RS.k_r, mid * 10.0 / RS.k_r, 1.0)
    phi = float(min(0.1 * reception_amplitude_distortion_normalized(unit)
                    / diffusion_amplitude_distortion_normalized(unit),
                    0.1 * reception_delay_distortion_normalized(unit)
                    / diffusion_delay_distortion_normalized(unit)))
    x_r, mu = 10.0, 10.0 * 10.0 * RS.k_r / (2.0 * phi * phi)
    for _ in range(100):
        lam = math.sqrt(x_r * x_r * RS.k_r / (2.0 * mu))
        if lam == phi:
            break
        mu = math.nextafter(mu, math.inf if lam > phi else 0.0)
    assert lam == phi
    found = highest_clean_band(mu, x_r, RS)
    assert found.status.tolist() == ["ok"]
    assert mid <= found.omega1[0] < lo * step ** (top + 1)


@pytest.fixture
def bounded_search(monkeypatch):
    """Fail a clean-band search after 1,000 evaluations of Phi.

    A search evaluates Phi 12 times: once on the scan points, then once
    per bisection step.  One that makes no progress would otherwise hang
    the test run.  Each evaluation of Phi calls the diffusion amplitude
    index once, so that call is the one counted.
    """
    index, calls = design.diffusion_amplitude_distortion_normalized, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        if calls[0] > 1000:
            raise AssertionError("the clean-band search does not end")
        return index(*args, **kwargs)

    monkeypatch.setattr(design, "diffusion_amplitude_distortion_normalized",
                        counted)


# The tolerance and the search range are fixed: a call that sets either
# is refused by the signature.
@pytest.mark.parametrize("setting, value, error", [
    *(pytest.param("rel_tol", value, TypeError, id=f"rel_tol={name}")
      for name, value in (("0", 0.0), ("-1", -1.0), ("1e-16", 1e-16),
                          ("1e-300", 1e-300), ("nan", math.nan),
                          ("10**400", 10**400))),
    *(pytest.param("search_range", value, TypeError, id=f"range={name}")
      for name, value in (("(1e-8,inf)", (1e-8, math.inf)),
                          ("(1e-308,1e308)", (1e-308, 1e308)),
                          ("(1e-8,10**400)", (1e-8, 10**400)),
                          ("(1e-300,1e-200)", (1e-300, 1e-200)))),
    pytest.param("decade_width", 10**400, ParameterError,
                 id="decade_width=10**400"),
    pytest.param("q_fraction", 10**400, ParameterError, id="q_fraction=10**400"),
    pytest.param("r_fraction", math.inf, ParameterError, id="r_fraction=inf"),
])
def test_clean_band_rejects_settings_it_cannot_honour(bounded_search, setting,
                                                      value, error):
    with pytest.raises(error):
        highest_clean_band(83.0, 10.0, RS, **{setting: value})


@pytest.mark.filterwarnings("error")
def test_clean_band_refuses_a_search_beyond_the_float_range(bounded_search):
    # The top band edge in corner units, 1e8 * decade_width / k_r, is
    # checked before the scan: no predicate call, no numpy warning.
    tiny = ReceptionSystem(k_f=1e-3, k_r=1e-300, r=4.0)
    with pytest.raises(ParameterError, match="k_r=1e-300"):
        highest_clean_band(1e-300, 1e-5, tiny)
    with pytest.raises(ParameterError, match="k_r=0.004"):
        highest_clean_band(83.0, 10.0, RS, decade_width=1e301)
    # No row: the same reception stage is no error.  The scan skips Phi
    # and the 11 bisection evaluations run on empty arrays.
    assert highest_clean_band(np.array([]), np.array([]), tiny).status.size == 0


def _scalar_scan_reference(mu, x_r, rs, decade_width=10.0, q_fraction=0.1,
                           r_fraction=0.1):
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

    lo, hi = 1e-8, 1e8
    n_scan = int(round(math.log10(hi / lo) * 16)) + 1
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
    while bad / good > 1.0 + 1e-4:
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
    # other widths and fractions, and some at distances so small that
    # every scan point qualifies.  The array scan must reproduce the
    # scalar one bit for bit.
    rng = random.Random(20240)
    outcomes = Counter()
    default_rows = []
    for i in range(200):
        mu = 0.1 * 3e4 ** rng.random()
        x_r = (1e-16 if i % 4 == 3 else 1e-6) * 1e8 ** rng.random()
        options = {}
        if i % 4 == 1:
            options = {"decade_width": rng.choice([2.0, 10.0, 100.0]),
                       "q_fraction": rng.choice([0.05, 0.1, 0.5]),
                       "r_fraction": rng.choice([0.05, 0.1, 0.5])}
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
    # 20,000 rows: one (rows x 257) float temporary of a scan per row
    # would take 41 MB.  The scan evaluates one 257-point curve shared by
    # every row, so what grows is only the per-row inputs, statuses and
    # bands.  The bound is the one set when the scan ran in 256-row
    # blocks: a few such blocks plus the per-row arrays.
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


def test_clean_band_closed_form_calls_do_not_grow_with_the_rows(monkeypatch):
    # The scan evaluates Phi once on the scan points whatever the number
    # of rows, and each bisection step once for every bracketing row.
    names = [f"{stage}_{part}_distortion_normalized"
             for stage in ("diffusion", "reception")
             for part in ("amplitude", "delay")]
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _index=getattr(design, name)):
            calls[_name] += 1
            return _index(*args)
        monkeypatch.setattr(design, name, counted)
    rng = np.random.default_rng(11)
    counts = []
    for rows in (1, 1000):
        calls.clear()
        mu = 0.1 * 3e4 ** rng.random(rows)
        x_r = 1e-2 * 1e4 ** rng.random(rows)
        batch = highest_clean_band(mu, x_r, RS)
        assert "ok" in batch.status.tolist()
        counts.append(dict(calls))
    assert counts[0] == counts[1] == {name: 12 for name in names}


def test_clean_band_batch_accepts_no_rows_and_validates_each_row():
    empty = highest_clean_band(np.array([]), np.array([]), RS)
    assert empty.omega1.size == empty.omega2.size == empty.status.size == 0
    with pytest.raises(ParameterError):
        highest_clean_band(np.array([83.0, 0.0]), np.array([10.0, 10.0]), RS)
    with pytest.raises(ParameterError):
        highest_clean_band(np.array([83.0, 83.0]), np.array([10.0, np.nan]), RS)
    with pytest.raises(ParameterError):
        highest_clean_band(np.ones((2, 2)), np.ones((2, 2)), RS)


def test_clean_band_rows_at_the_ends_of_their_domain():
    # Both ends of x_r's domain are valid rows.  At 0 the channel is the
    # identity (lam = 0), which every band carries up to the range top; at
    # the largest float lam overflows, with no numpy warning, and no band
    # qualifies.  A mu at the largest float makes lam tiny.
    top = sys.float_info.max
    found = highest_clean_band(np.array([83.0, 83.0, top]),
                               np.array([0.0, top, 10.0]), RS)
    assert found.status.tolist() == ["saturated", "infeasible", "saturated"]
