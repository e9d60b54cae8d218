"""Time-series container, descriptive stats, and correlogram tests."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landmetrics.errors import (
    DomainError,
    InsufficientDataError,
    SchemaError,
    ValidationError,
)
from landmetrics.series import (
    TimeSeries,
    _quantiles,
    difference,
    fill_gaps_loglinear,
    grid_gaps,
    lead_lag_correlation,
    pairwise_correlation,
    resample_weekly,
    restrict,
    summary_stats,
    winsorize,
    write_csv,
)

from oracles import monday_of, pearson_oracle, quantile_type7, winsorize_oracle

D0 = dt.date(2021, 1, 4)  # a Monday


def daily(values, name="s", start=D0):
    values = np.asarray(values, float)
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(values)))
    return TimeSeries(name, "daily", dates, values)


def weekly(values, name="s", start=D0):
    values = np.asarray(values, float)
    dates = tuple(start + dt.timedelta(weeks=i) for i in range(len(values)))
    return TimeSeries(name, "weekly", dates, values)


# ---------------------------------------------------------------------------
# container validation and serialization
# ---------------------------------------------------------------------------


def test_dates_must_increase():
    with pytest.raises(ValidationError, match="strictly increasing"):
        TimeSeries("s", "daily", (D0, D0), np.array([1.0, 2.0]))


def test_weekly_grid_enforced():
    with pytest.raises(ValidationError, match="off-grid"):
        TimeSeries(
            "s",
            "weekly",
            (D0, D0 + dt.timedelta(days=3)),
            np.array([1.0, 2.0]),
        )


def test_weekly_grid_allows_gap_weeks():
    s = TimeSeries(
        "s",
        "weekly",
        (D0, D0 + dt.timedelta(weeks=3)),
        np.array([1.0, 2.0]),
    )
    assert len(s) == 2


def test_nonfinite_value_names_date():
    with pytest.raises(ValidationError, match="2021-01-05"):
        daily([1.0, float("nan"), 2.0])


def test_empty_series_rejected():
    with pytest.raises(ValidationError, match="empty"):
        TimeSeries("s", "daily", (), np.array([]))


def test_values_are_read_only():
    s = daily([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_rename_keeps_dates_and_values():
    s = daily([1.0, 2.0, 3.0])
    renamed = s.rename("t")
    assert renamed.name == "t"
    assert (renamed.freq, renamed.dates) == (s.freq, s.dates)
    assert renamed.values.tolist() == [1.0, 2.0, 3.0]


def test_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    s = daily(rng.normal(size=20) * 1e4)
    p = tmp_path / "s.csv"
    s.to_csv(p)
    back = TimeSeries.from_csv(p, name="s", freq="daily")
    assert back.dates == s.dates
    assert np.array_equal(back.values, s.values)


def test_write_csv_cell_rule_pins_bytes(tmp_path):
    p = tmp_path / "cells.csv"
    row = [None, math.nan, math.inf, -0.0, np.float64(0.1), np.bool_(True), False,
           np.int64(4), dt.date(2021, 1, 4), dt.datetime(2021, 1, 5, 9, 30), "a,b"]
    write_csv(p, [f"c{i}" for i in range(len(row))], [row], comment="T=3 r0=1")
    assert p.read_bytes() == (
        b"# T=3 r0=1\n"
        b"c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10\r\n"
        b',,inf,-0.0,0.1,1,0,4,2021-01-04,2021-01-05T09:30:00,"a,b"\r\n')


def test_from_csv_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("day,price\n2021-01-04,1.0\n")
    with pytest.raises(SchemaError, match="date,value"):
        TimeSeries.from_csv(p, name="s", freq="daily")


def test_from_csv_reports_line_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,value\n2021-01-04,1.0\n2021-01-05,oops\n")
    with pytest.raises(SchemaError, match="line 3"):
        TimeSeries.from_csv(p, name="s", freq="daily")


def test_restrict_bounds_inclusive():
    s = daily(np.arange(10.0))
    sub = restrict(s, D0 + dt.timedelta(days=2), D0 + dt.timedelta(days=5))
    assert len(sub) == 4
    assert sub.values[0] == 2.0
    assert sub.values[-1] == 5.0
    with pytest.raises(InsufficientDataError):
        restrict(s, dt.date(1990, 1, 1), dt.date(1990, 12, 31))


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------


def test_summary_one_two_three():
    st_ = summary_stats([1.0, 2.0, 3.0])
    assert st_.n == 3
    assert st_.mean == 2.0
    assert st_.min == 1.0
    assert st_.max == 3.0
    assert st_.p50 == 2.0
    assert st_.std_dev == pytest.approx(1.0)
    assert st_.skewness == pytest.approx(0.0, abs=1e-12)


def test_summary_constant_sample_has_no_shape_moments():
    st_ = summary_stats([5.0] * 8)
    assert st_.std_dev == 0.0
    assert st_.skewness is None
    assert st_.kurtosis is None
    assert st_.p5 == st_.p95 == 5.0


def test_summary_shape_moments_survive_subnormal_variance():
    st_ = summary_stats([0.0, 1e-160, -1e-160, 0.0])
    assert st_.skewness == pytest.approx(0.0, abs=1e-12)
    assert st_.kurtosis == pytest.approx(2.0, rel=1e-12)


def test_summary_shape_moments_are_scale_invariant():
    base = [1.0, 2.0, 2.5, 4.0, 7.0]
    st_a = summary_stats(base)
    st_b = summary_stats([v * 1e-140 for v in base])
    assert st_b.skewness == pytest.approx(st_a.skewness, rel=1e-9)
    assert st_b.kurtosis == pytest.approx(st_a.kurtosis, rel=1e-9)


def test_summary_single_point():
    st_ = summary_stats([4.0])
    assert st_.n == 1
    assert st_.std_dev is None
    assert st_.skewness is None


def test_summary_quantiles_are_type7():
    rng = np.random.default_rng(10)
    x = rng.normal(size=37)
    st_ = summary_stats(x)
    s = sorted(x.tolist())
    assert st_.p5 == pytest.approx(quantile_type7(s, 0.05), abs=1e-12)
    assert st_.p50 == pytest.approx(quantile_type7(s, 0.50), abs=1e-12)
    assert st_.p95 == pytest.approx(quantile_type7(s, 0.95), abs=1e-12)


def test_summary_normal_sample_kurtosis_near_three():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(10_000)
    st_ = summary_stats(x)
    assert st_.kurtosis == pytest.approx(3.0, abs=0.15)
    assert st_.skewness == pytest.approx(0.0, abs=0.1)
    assert st_.mean == pytest.approx(0.0, abs=0.05)


#: samples with ties, both zeros and values far apart, as well as plain ones
QUANTILE_VALUES = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                            st.floats(-1e300, 1e300))
QUANTILE_QS = st.lists(st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.05, 0.95]),
                                 st.floats(0.0, 1.0)), min_size=1, max_size=4)


def _bits(values):
    return np.asarray(values, np.float64).tobytes()


@given(st.lists(QUANTILE_VALUES, min_size=1, max_size=50), QUANTILE_QS)
@settings(max_examples=300)
def test_quantiles_match_numpy_bit_for_bit(xs, qs):
    x = np.array(xs)
    assert _bits(_quantiles(x, qs)) == _bits(np.quantile(x, qs))
    for q in qs:        # a scalar q, as summary_stats asks numpy
        assert _bits(_quantiles(x, (q,))) == _bits(np.quantile(x, q))


@given(st.integers(1, 30), st.integers(1, 6), QUANTILE_QS, st.data())
@settings(max_examples=200)
def test_quantiles_of_a_table_match_numpy_bit_for_bit(n, dates, qs, data):
    # replications by dates, as mc_critical_values holds its null
    x = np.array(data.draw(st.lists(QUANTILE_VALUES, min_size=n * dates, max_size=n * dates)))
    x = x.reshape(n, dates)
    assert _bits(_quantiles(x, qs)) == _bits(np.quantile(x, qs, axis=0))


def test_quantiles_of_one_value_and_at_the_ends():
    x = np.array([[2.5, -0.0]])
    assert _bits(_quantiles(x, (0.0, 1.0))) == _bits(np.quantile(x, (0.0, 1.0), axis=0))
    y = np.array([3.0, -0.0, 0.0, 1.0])
    assert _bits(_quantiles(y, (0.0, 1.0))) == _bits(np.quantile(y, (0.0, 1.0)))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
       st.randoms(use_true_random=False))
def test_summary_is_permutation_invariant(xs, rnd):
    shuffled = list(xs)
    rnd.shuffle(shuffled)
    a = summary_stats(xs)
    b = summary_stats(shuffled)
    assert a.mean == pytest.approx(b.mean, rel=1e-12, abs=1e-12)
    assert a.p50 == b.p50
    assert a.min == b.min and a.max == b.max


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60))
def test_summary_quantiles_are_ordered(xs):
    s = summary_stats(xs)
    assert s.min <= s.p5 <= s.p50 <= s.p95 <= s.max


def test_summary_rejects_empty_and_nan():
    with pytest.raises(InsufficientDataError):
        summary_stats([])
    with pytest.raises(ValidationError):
        summary_stats([1.0, float("inf")])


# ---------------------------------------------------------------------------
# winsorize
# ---------------------------------------------------------------------------


def test_winsorize_matches_sort_clamp_oracle():
    rng = np.random.default_rng(6)
    x = rng.normal(size=1000) * 40.0
    out = winsorize(x, 0.01, 0.99)
    expected = winsorize_oracle(x.tolist(), 0.01, 0.99)
    assert out == pytest.approx(expected, abs=1e-12)


def test_winsorize_full_range_is_identity():
    x = np.array([5.0, -3.0, 100.0, 0.0])
    assert np.array_equal(winsorize(x, 0.0, 1.0), x)


def test_winsorize_constant_is_fixed_point():
    x = np.full(9, 2.5)
    assert np.array_equal(winsorize(x, 0.001, 0.999), x)


def test_winsorize_clamps_planted_outlier():
    x = np.concatenate([np.ones(99), [1e9]])
    out = winsorize(x, 0.0, 0.95)
    assert out.max() == 1.0
    assert np.array_equal(out[:99], x[:99])


def test_winsorize_integer_ramp_clamps_extremes():
    x = np.arange(1.0, 1001.0)
    out = winsorize(x, 0.001, 0.999)
    # inward order-statistic bounds: positions ceil(999*0.001)=1 and
    # floor(999*0.999)=998 of the sorted sample
    assert out.min() == 2.0
    assert out.max() == 999.0
    assert np.array_equal(out[5:-5], x[5:-5])
    assert out == pytest.approx(winsorize_oracle(x.tolist(), 0.001, 0.999))


@given(
    st.lists(st.floats(-1e5, 1e5), min_size=3, max_size=80),
    st.floats(0.0, 0.3),
    st.floats(0.7, 1.0),
)
def test_winsorize_idempotent(xs, lo, hi):
    x = np.asarray(xs)
    once = winsorize(x, lo, hi)
    twice = winsorize(once, lo, hi)
    assert np.array_equal(once, twice)


def test_winsorize_rejects_bad_quantiles():
    with pytest.raises(ValidationError):
        winsorize([1.0, 2.0], 0.9, 0.1)


# ---------------------------------------------------------------------------
# resampling and differencing
# ---------------------------------------------------------------------------


def test_resample_last_takes_sunday_close():
    s = daily(np.arange(1.0, 8.0))  # Mon..Sun of one ISO week
    w = resample_weekly(s, rule="last")
    assert len(w) == 1
    assert w.dates[0] == D0
    assert w.values[0] == 7.0
    assert w.freq == "weekly"


def test_resample_mean_of_equal_values():
    s = daily(np.full(7, 3.25))
    w = resample_weekly(s, rule="mean")
    assert w.values[0] == 3.25


def test_resample_matches_calendar_bucket_oracle():
    rng = np.random.default_rng(9)
    # start mid-week (Thursday) so partial weeks appear
    s = daily(rng.normal(size=23), start=D0 + dt.timedelta(days=3))
    w_last = resample_weekly(s, rule="last")
    w_mean = resample_weekly(s, rule="mean")

    buckets = {}
    for d, v in zip(s.dates, s.values):
        buckets.setdefault(monday_of(d), []).append(float(v))
    mondays = sorted(buckets)
    assert list(w_last.dates) == mondays
    assert [float(v) for v in w_last.values] == [buckets[m][-1] for m in mondays]
    assert [float(v) for v in w_mean.values] == pytest.approx(
        [sum(buckets[m]) / len(buckets[m]) for m in mondays], abs=1e-12
    )


def test_resample_weekly_input_warns_and_returns_same():
    s = weekly([1.0, 2.0])
    with pytest.warns(UserWarning, match="no-op"):
        out = resample_weekly(s, rule="last")
    assert out is s


def test_difference_log_of_geometric_ramp():
    s = daily([1.0, math.e, math.e**2])
    d = difference(s, mode="log")
    assert d.values == pytest.approx([1.0, 1.0], abs=1e-12)
    assert d.name == "s_dlog"
    assert d.dates == s.dates[1:]


def test_difference_simple_matches_subtraction():
    rng = np.random.default_rng(12)
    x = np.cumsum(rng.normal(size=50))
    s = daily(x)
    d = difference(s, mode="simple")
    assert d.values == pytest.approx(
        [x[i + 1] - x[i] for i in range(49)], abs=1e-15
    )
    assert d.name == "s_diff"


def test_difference_constant_series_gives_zeros():
    d = difference(daily([4.0, 4.0, 4.0]), mode="simple")
    assert np.array_equal(d.values, [0.0, 0.0])


def test_difference_log_rejects_nonpositive_naming_date():
    s = daily([1.0, -2.0, 3.0])
    with pytest.raises(DomainError, match="2021-01-05"):
        difference(s, mode="log")


def test_difference_requires_two_points():
    with pytest.raises(InsufficientDataError):
        difference(daily([1.0]))


@given(st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=50))
def test_difference_then_cumsum_reconstructs(xs):
    s = daily(xs)
    d = difference(s, mode="simple")
    rebuilt = np.concatenate([[xs[0]], xs[0] + np.cumsum(d.values)])
    assert rebuilt == pytest.approx(np.asarray(xs), abs=1e-9)


# ---------------------------------------------------------------------------
# lead-lag correlogram
# ---------------------------------------------------------------------------


def test_self_correlation_is_one_at_zero():
    rng = np.random.default_rng(1)
    s = weekly(rng.normal(size=40))
    cg = lead_lag_correlation(s, s, max_lag=3)
    assert cg.entry(0).corr == pytest.approx(1.0, abs=1e-12)
    assert cg.entry(0).n_pairs == 40


def test_pure_shift_peaks_at_shift_offset():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=60)
    # y leads x by two weeks: x carries y's values two weeks later, so
    # x_t == y_{t-2} and the correlogram peaks at offset +2
    y = weekly(vals, name="y")
    x = weekly(vals, name="x", start=D0 + dt.timedelta(weeks=2))
    cg = lead_lag_correlation(x, y, max_lag=5)
    assert cg.argmax_offset() == 2
    assert cg.entry(2).corr == pytest.approx(1.0, abs=1e-12)
    assert cg.entry(2).n_pairs == 60


def test_correlogram_matches_double_loop_oracle():
    rng = np.random.default_rng(33)
    n = 80
    x_vals = rng.normal(size=n)
    y_vals = 0.7 * np.roll(x_vals, 1) + 0.3 * rng.normal(size=n)
    x = weekly(x_vals, name="x")
    y = weekly(y_vals, name="y")
    cg = lead_lag_correlation(x, y, max_lag=4)
    for k in range(-4, 5):
        pairs = [
            (float(x_vals[t]), float(y_vals[t - k]))
            for t in range(n)
            if 0 <= t - k < n
        ]
        expected = pearson_oracle([p[0] for p in pairs], [p[1] for p in pairs])
        assert cg.entry(k).corr == pytest.approx(expected, abs=1e-12), k
        assert cg.entry(k).n_pairs == len(pairs)


def test_correlogram_antisymmetry():
    rng = np.random.default_rng(8)
    x = weekly(rng.normal(size=50), name="x")
    y = weekly(rng.normal(size=50), name="y")
    xy = lead_lag_correlation(x, y, max_lag=6)
    yx = lead_lag_correlation(y, x, max_lag=6)
    for k in range(-6, 7):
        a, b = xy.entry(k).corr, yx.entry(-k).corr
        assert (a is None) == (b is None)
        if a is not None:
            assert a == pytest.approx(b, abs=1e-12)


def test_correlogram_offsets_use_past_y():
    # y leads x by one week with clean construction: x_t = y_{t-1}
    y_vals = np.arange(30, dtype=float) ** 1.5
    y = weekly(y_vals, name="y")
    x = weekly(y_vals, name="x", start=D0 + dt.timedelta(weeks=1))
    cg = lead_lag_correlation(x, y, max_lag=3)
    assert cg.entry(1).corr == pytest.approx(1.0, abs=1e-12)


def test_correlogram_short_overlap_is_none():
    x = weekly([1.0, 2.0, 3.0], name="x")
    y = weekly([1.0, 2.0, 3.0], name="y")
    cg = lead_lag_correlation(x, y, max_lag=2)
    # offset 2 leaves a single pair
    assert cg.entry(2).corr is None
    assert cg.entry(2).n_pairs == 1


def test_correlogram_zero_variance_is_none():
    x = weekly([1.0, 1.0, 1.0, 1.0, 1.0], name="x")
    y = weekly([1.0, 2.0, 3.0, 4.0, 5.0], name="y")
    cg = lead_lag_correlation(x, y, max_lag=1)
    assert cg.entry(0).corr is None
    with pytest.raises(InsufficientDataError):
        lead_lag_correlation(x, x, max_lag=1).argmax_offset()


def test_correlogram_frequency_mismatch_rejected():
    with pytest.raises(ValidationError, match="frequency"):
        lead_lag_correlation(daily([1.0, 2.0, 3.0]), weekly([1.0, 2.0]), max_lag=1)


def test_correlogram_csv_format(tmp_path):
    x = weekly([1.0, 2.0, 3.0, 4.0], name="x")
    cg = lead_lag_correlation(x, x, max_lag=1)
    p = tmp_path / "cg.csv"
    cg.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "offset,corr,n_pairs"
    assert len(lines) == 4
    mid = lines[2].split(",")
    assert mid[0] == "0"
    assert float(mid[1]) == 1.0
    assert mid[2] == "4"


# ---------------------------------------------------------------------------
# pairwise correlation matrix
# ---------------------------------------------------------------------------


def test_pairwise_identical_and_negated():
    rng = np.random.default_rng(5)
    v = rng.normal(size=30)
    x = weekly(v, name="x")
    y = weekly(v, name="y")
    z = weekly(-v, name="z")
    m = pairwise_correlation([x, y, z])
    assert m[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert m[0, 2] == pytest.approx(-1.0, abs=1e-12)
    assert np.array_equal(np.diag(m), np.ones(3))
    assert m == pytest.approx(m.T)


def test_pairwise_matches_bruteforce_on_misaligned_dates():
    rng = np.random.default_rng(16)
    a = weekly(rng.normal(size=26), name="a")
    b = weekly(rng.normal(size=20), name="b", start=D0 + dt.timedelta(weeks=4))
    m = pairwise_correlation([a, b])
    a_at, b_at = dict(zip(a.dates, a.values.tolist())), dict(zip(b.dates, b.values.tolist()))
    common = [d for d in a.dates if d in b_at]
    av = [a_at[d] for d in common]
    bv = [b_at[d] for d in common]
    assert m[0, 1] == pytest.approx(pearson_oracle(av, bv), abs=1e-12)


def test_pairwise_undefined_is_nan():
    x = weekly([1.0, 1.0, 1.0, 1.0], name="x")
    y = weekly([1.0, 2.0, 3.0, 4.0], name="y")
    m = pairwise_correlation([x, y])
    assert math.isnan(m[0, 1])
    assert m[0, 0] == 1.0


def test_pairwise_needs_two_series():
    with pytest.raises(ValidationError):
        pairwise_correlation([weekly([1.0, 2.0])])


# ---------------------------------------------------------------------------
# grid gaps and log-linear fill
# ---------------------------------------------------------------------------


def test_weekly_gaps_lists_missing_mondays():
    dates = (D0, D0 + dt.timedelta(weeks=1), D0 + dt.timedelta(weeks=4))
    s = TimeSeries("s", "weekly", dates, np.array([1.0, 2.0, 3.0]))
    gaps = grid_gaps(s)
    assert gaps == [D0 + dt.timedelta(weeks=2), D0 + dt.timedelta(weeks=3)]
    assert grid_gaps(weekly([1.0, 2.0, 3.0])) == []


def test_daily_gaps_and_fill_stay_on_the_daily_grid():
    # days 2, 3 and 5 are missing; the fill keeps the series daily
    days = (0, 1, 4, 6)
    s = TimeSeries("s", "daily", tuple(D0 + dt.timedelta(days=i) for i in days),
                   np.exp(0.1 * np.array(days, float)))
    assert grid_gaps(s) == [D0 + dt.timedelta(days=i) for i in (2, 3, 5)]
    assert grid_gaps(daily([1.0, 2.0, 3.0])) == []
    filled = fill_gaps_loglinear(s)
    assert filled.freq == "daily"
    assert filled.dates == tuple(D0 + dt.timedelta(days=i) for i in range(7))
    assert filled.values == pytest.approx(np.exp(0.1 * np.arange(7.0)), rel=1e-12)
    assert grid_gaps(filled) == []


def test_fill_gaps_exact_on_loglinear_data():
    # exponential growth sampled with the middle two weeks missing:
    # log-linear interpolation recovers them exactly
    full = np.exp(0.1 * np.arange(6.0))
    dates = tuple(D0 + dt.timedelta(weeks=i) for i in (0, 1, 4, 5))
    s = TimeSeries("s", "weekly", dates, full[[0, 1, 4, 5]])
    filled = fill_gaps_loglinear(s)
    assert len(filled) == 6
    assert filled.values == pytest.approx(full, rel=1e-12)
    assert grid_gaps(filled) == []


def test_fill_gaps_noop_without_gaps():
    s = weekly([1.0, 2.0, 4.0])
    filled = fill_gaps_loglinear(s)
    assert filled.dates == s.dates
    assert np.array_equal(filled.values, s.values)


def test_fill_gaps_requires_positive_values():
    dates = (D0, D0 + dt.timedelta(weeks=2))
    s = TimeSeries("s", "weekly", dates, np.array([1.0, -1.0]))
    with pytest.raises(DomainError, match="'s' needs positive values; value at 2021-01-18"):
        fill_gaps_loglinear(s)
