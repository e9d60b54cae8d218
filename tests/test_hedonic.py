"""Hedonic price-index construction tests."""

import datetime as dt
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from landmetrics.cli import main
from landmetrics.errors import (
    InsufficientDataError,
    SingularDesignError,
    ValidationError,
)
from landmetrics.hedonic import (
    TransactionTable,
    _log,
    build_hpi,
    hpi_points_to_csv,
    hpi_to_series,
)
from landmetrics.series import write_json
from landmetrics.synthkit import gen_hedonic_panel

from oracles import hedonic_fsum_oracle, hedonic_refit_oracle, monday_of

D0 = dt.date(2021, 1, 4)  # a Monday


def tx(day, usd, plots=1, weth=False, hour=12):
    """One sale: (timestamp, USD price, plot count, settled in wETH)."""
    return dt.datetime(day.year, day.month, day.day, hour), float(usd), int(plots), weth


def table(txs):
    """The sales as a table in USD, settled in ETH or wETH at 2000 USD."""
    stamps, usd, plots, weth = zip(*txs) if txs else ((),) * 4
    usd = np.array(usd, np.float64)
    return TransactionTable(np.array(stamps, "datetime64[us]"), usd / 2000.0, plots, weth,
                            ("ETH", "WETH"), line=np.zeros(len(usd)), usd_price=usd)


def week(i):
    return D0 + dt.timedelta(weeks=i)


_oracle_refit = hedonic_refit_oracle


# ---------------------------------------------------------------------------
# the transaction table
# ---------------------------------------------------------------------------


def test_transaction_table_checks_columns():
    sales = table([tx(D0, 10.0, plots=2), tx(week(1), 20.0, weth=True)])
    assert len(sales) == 2
    assert sales.day.tolist() == [D0, week(1)]
    assert sales.paid_in_weth.tolist() == [False, True]
    last = sales[sales.paid_in_weth]
    assert len(last) == 1 and last.usd_price.tolist() == [20.0]
    assert sales[1:].num_plots.tolist() == [1] and sales[[1, 0]].num_plots.tolist() == [1, 2]
    with pytest.raises(ValidationError, match="usd_price"):
        replace(sales, usd_price=[10.0, -1.0])
    with pytest.raises(ValidationError, match="native_price"):
        replace(sales, native_price=[1.0, math.inf])
    with pytest.raises(ValidationError, match="num_plots"):
        replace(sales, num_plots=[1, 0])
    with pytest.raises(ValidationError, match="equal length"):
        replace(sales, native_price=[1.0])
    with pytest.raises(ValidationError, match="symbols"):
        replace(sales, symbols=("ETH",))
    with pytest.raises(ValidationError, match="USD"):
        build_hpi(replace(sales, usd_price=None))


def test_derived_table_checks_only_the_columns_it_replaces():
    sales = table([tx(D0, 10.0, plots=2), tx(week(1), 20.0, weth=True)])
    derived = sales.with_columns(usd_price=[5.0, 6.0])
    assert derived.usd_price.dtype == np.float64 and derived.usd_price.tolist() == [5.0, 6.0]
    assert sales.usd_price.tolist() == [10.0, 20.0]
    # the columns it keeps are the same arrays, not converted again
    assert all(getattr(derived, name) is getattr(sales, name)
               for name in ("timestamp", "native_price", "num_plots", "currency", "line"))
    for columns, match in [({"usd_price": [10.0, -1.0]}, "usd_price"),
                           ({"num_plots": [1, 0]}, "num_plots"),
                           ({"native_price": [1.0]}, "equal length"),
                           ({"timestamp": sales.timestamp[:1]}, "equal length"),
                           ({"symbols": ("ETH",)}, "symbols")]:
        with pytest.raises(ValidationError, match=match):
            sales.with_columns(**columns)
    with pytest.raises(TypeError, match="price"):
        sales.with_columns(price=[1.0, 2.0])


# ---------------------------------------------------------------------------
# period bucketing
# ---------------------------------------------------------------------------


def test_same_day_transactions_share_a_bucket():
    txs = [tx(D0, 10.0 + i) for i in range(3)] + [tx(week(1), 11.0)]
    points, _ = build_hpi(table(txs), min_per_period=1)
    assert [p.period for p in points] == [D0, week(1)]
    assert points[0].n_transactions == 3


def test_consecutive_mondays_get_distinct_buckets():
    txs = [tx(week(0), 10.0), tx(week(1), 11.0)]
    points, _ = build_hpi(table(txs), min_per_period=1)
    assert [p.period for p in points] == [week(0), week(1)]
    # the ISO week of Monday 1969-12-29 straddles the Unix epoch
    days = [dt.date(1969, 12, 29), dt.date(1970, 1, 1), dt.date(1970, 1, 4),
            dt.date(1970, 1, 5)]
    points, _ = build_hpi(table([tx(d, 10.0 + i) for i, d in enumerate(days)]),
                          min_per_period=1)
    assert [(p.period, p.n_transactions) for p in points] == [
        (dt.date(1969, 12, 29), 3), (dt.date(1970, 1, 5), 1)]


def test_weekly_buckets_match_calendar_oracle():
    rng = np.random.default_rng(20)
    txs = [
        tx(D0 + dt.timedelta(days=int(d)), 10.0 + i)
        for i, d in enumerate(rng.integers(0, 120, size=100))
    ]
    points, fit = build_hpi(table(txs), freq="weekly", min_per_period=1)
    counts = {}
    for t in txs:
        monday = monday_of(t[0].date())
        counts[monday] = counts.get(monday, 0) + 1
    assert {p.period: p.n_transactions for p in points} == counts
    assert all(p.period.weekday() == 0 for p in points)
    assert fit.n_obs == 100
    assert [p.period for p in points] == sorted(counts)


def test_daily_buckets_are_dates():
    txs = [tx(D0, 10.0), tx(D0 + dt.timedelta(days=1), 11.0)]
    points, _ = build_hpi(table(txs), freq="daily", min_per_period=1)
    assert [p.period for p in points] == [D0, D0 + dt.timedelta(days=1)]
    with pytest.raises(ValidationError):
        build_hpi(table(txs), freq="monthly", min_per_period=1)


# ---------------------------------------------------------------------------
# build_hpi
# ---------------------------------------------------------------------------


def test_noiseless_doubling_recovers_exact_index():
    txs = [tx(week(0), p) for p in (100.0, 200.0, 400.0)]
    txs += [tx(week(1), 2.0 * p) for p in (100.0, 200.0, 400.0)]
    points, fit = build_hpi(table(txs))
    assert [p.period for p in points] == [week(0), week(1)]
    assert points[0].index == 1.0
    assert points[0].delta == 0.0
    assert points[0].delta_se is None
    assert points[1].index == pytest.approx(2.0, abs=1e-10)
    assert points[1].delta == pytest.approx(math.log(2.0), abs=1e-12)
    assert fit.beta_log_plots is None
    assert fit.beta_weth is None
    assert fit.n_obs == 6
    assert fit.base_period == week(0)


def test_single_period_is_insufficient():
    txs = [tx(week(0), 10.0 + i) for i in range(5)]
    with pytest.raises(InsufficientDataError):
        build_hpi(table(txs))


def test_coefficients_match_materialized_dummy_oracle():
    # 18 sales: plot counts in thousands exceed the count of sales, so
    # their logs are not taken through a table indexed by plot count
    for plot_unit in (1, 1000):
        rng = np.random.default_rng(31)
        deltas = [0.0, 0.3, -0.2]
        txs = []
        for w, d in enumerate(deltas):
            for j in range(6):
                plots = int(rng.integers(1, 9)) * plot_unit
                weth = bool(rng.integers(0, 2))
                z = rng.normal()
                usd = math.exp(math.log(500.0) + d + 0.9 * math.log(plots)
                               - 0.1 * weth + 0.05 * z)
                txs.append(tx(week(w), usd, plots=plots, weth=weth))
        points, fit = build_hpi(table(txs))
        periods, beta, se, rss = _oracle_refit(table(txs))

        assert [p.period for p in points] == periods
        # oracle layout: [const, dummy_1, dummy_2, log_plots, weth]
        for i, p in enumerate(points[1:], start=1):
            assert p.delta == pytest.approx(beta[i], abs=1e-9)
            assert p.index == pytest.approx(math.exp(beta[i]), rel=1e-9)
            assert p.delta_se == pytest.approx(se[i], abs=1e-9)
        assert fit.beta_log_plots == pytest.approx(beta[3], abs=1e-9)
        assert fit.beta_weth == pytest.approx(beta[4], abs=1e-9)
        assert fit.se_log_plots == pytest.approx(se[3], abs=1e-9)
        assert fit.se_weth == pytest.approx(se[4], abs=1e-9)
        assert fit.rss == pytest.approx(rss, abs=1e-9)
        assert fit.df_resid == 18 - 5


def test_planted_coefficients_recovered_without_noise():
    rng = np.random.default_rng(8)
    deltas = [0.0, 0.25, -0.4]
    txs = []
    for w, d in enumerate(deltas):
        for _ in range(5):
            plots = int(rng.integers(1, 6))
            weth = bool(rng.integers(0, 2))
            usd = math.exp(math.log(300.0) + d + 0.9 * math.log(plots) - 0.1 * weth)
            txs.append(tx(week(w), usd, plots=plots, weth=weth))
    points, fit = build_hpi(table(txs))
    for p, d in zip(points, deltas):
        assert p.index == pytest.approx(math.exp(d), abs=1e-10)
    assert fit.beta_log_plots == pytest.approx(0.9, abs=1e-10)
    assert fit.beta_weth == pytest.approx(-0.1, abs=1e-10)


def test_currency_unit_invariance():
    rng = np.random.default_rng(40)
    txs, scaled = [], []
    for w in range(3):
        for _ in range(4):
            usd = float(rng.lognormal(6.0, 0.4))
            plots = int(rng.integers(1, 5))
            txs.append(tx(week(w), usd, plots=plots))
            scaled.append(tx(week(w), usd * 1000.0, plots=plots))
    base_points, _ = build_hpi(table(txs))
    scaled_points, _ = build_hpi(table(scaled))
    for a, b in zip(base_points, scaled_points):
        assert b.index == pytest.approx(a.index, abs=1e-10)
        assert b.delta == pytest.approx(a.delta, abs=1e-10)


def test_reduces_to_geometric_means_with_identical_composition():
    # same plot counts and settlement pattern in every period, so both
    # controls are dropped and the index is the ratio of per-period
    # geometric means
    rng = np.random.default_rng(3)
    txs = []
    levels = {}
    for w, scale in enumerate((1.0, 1.7, 0.8)):
        prices = scale * rng.lognormal(5.0, 0.3, size=5)
        levels[w] = prices
        txs += [tx(week(w), p) for p in prices]
    points, fit = build_hpi(table(txs))
    gm = {w: math.exp(np.mean(np.log(v))) for w, v in levels.items()}
    for w, p in enumerate(points):
        assert p.index == pytest.approx(gm[w] / gm[0], rel=1e-9)
    assert fit.beta_log_plots is None
    assert fit.beta_weth is None


def test_plot_count_control_absorbs_composition_shift():
    # week 1 sells the same stock at the same per-plot pricing but in
    # double-sized parcels; the control keeps the quality-adjusted index
    # flat instead of doubling
    rng = np.random.default_rng(9)
    base_prices = rng.lognormal(5.0, 0.2, size=6)
    txs = [tx(week(0), p, plots=1) for p in base_prices]
    txs += [tx(week(0), 2.0 * p, plots=2) for p in base_prices]
    txs += [tx(week(1), 2.0 * p, plots=2) for p in base_prices]
    txs += [tx(week(1), p, plots=1) for p in base_prices]
    points, fit = build_hpi(table(txs))
    assert points[1].index == pytest.approx(1.0, abs=1e-9)
    assert fit.beta_log_plots == pytest.approx(1.0, abs=1e-9)

    # without plot variation in the data the same prices would read as a
    # price move; verify against the materialized oracle refit
    periods, beta, se, _ = _oracle_refit(table(txs))
    assert points[1].delta == pytest.approx(beta[1], abs=1e-10)


def test_sparse_period_becomes_gap():
    txs = [tx(week(0), 100.0 + i) for i in range(4)]
    txs += [tx(week(1), 150.0), tx(week(1), 160.0)]  # below min_per_period
    txs += [tx(week(2), 120.0 + i) for i in range(3)]
    points, fit = build_hpi(table(txs), min_per_period=3)
    assert [p.period for p in points] == [week(0), week(2)]
    assert fit.gap_periods == (week(1),)
    assert fit.n_obs == 7  # the two gap transactions never enter the fit


def test_thin_edge_weeks_fall_outside_the_index():
    txs = [tx(week(0), 90.0), tx(week(0), 95.0)]         # thin first week
    txs += [tx(week(w), 100.0 + 10 * w + i) for w in (1, 2) for i in range(3)]
    txs += [tx(week(3), 130.0)]                            # thin last week
    points, fit = build_hpi(table(txs), min_per_period=3)
    assert [p.period for p in points] == [week(1), week(2)]
    assert fit.base_period == week(1)
    assert fit.gap_periods == ()
    assert fit.n_obs == 6


def test_week_without_sales_is_a_gap():
    txs = [tx(week(w), 100.0 + 10 * w + i) for w in (0, 2, 3) for i in range(3)]
    points, fit = build_hpi(table(txs), min_per_period=3)
    assert [p.period for p in points] == [week(0), week(2), week(3)]
    assert fit.gap_periods == (week(1),)


def test_min_per_period_one_keeps_everything():
    txs = [tx(week(0), 100.0), tx(week(1), 110.0), tx(week(2), 121.0)]
    points, fit = build_hpi(table(txs), min_per_period=1)
    assert len(points) == 3
    assert fit.gap_periods == ()
    assert fit.df_resid == 0
    assert points[1].delta_se is None


def test_collinear_control_raises_singular():
    # wETH settlement coincides exactly with the week-1 dummy
    txs = [tx(week(0), 100.0 + i) for i in range(4)]
    txs += [tx(week(1), 150.0 + i, weth=True) for i in range(4)]
    with pytest.raises(SingularDesignError) as exc:
        build_hpi(table(txs))
    assert "weth_flag" in str(exc.value)


def test_control_constant_within_each_week_raises_singular():
    # the plot count differs across weeks (1, 3, 2) but not inside any of
    # them, so it is a combination of the period dummies
    rng = np.random.default_rng(5)
    txs = []
    for w, plots in enumerate((1, 3, 2)):
        for j in range(5):
            usd = float(rng.lognormal(5.0, 0.3))
            txs.append(tx(week(w), usd, plots=plots, weth=j % 2 == 0))
    with pytest.raises(SingularDesignError) as exc:
        build_hpi(table(txs))
    assert "log_num_plots" in str(exc.value)
    assert "log_num_plots" in exc.value.columns


def test_controls_collinear_within_periods_raise_singular():
    # both controls vary inside every week, but wETH settles exactly the
    # two-plot sales, so log(plots) = log(2) * weth
    rng = np.random.default_rng(6)
    txs = []
    for w in range(3):
        for j in range(6):
            plots = 1 + (j + w) % 2
            usd = float(rng.lognormal(5.0, 0.3))
            txs.append(tx(week(w), usd, plots=plots, weth=plots == 2))
    with pytest.raises(SingularDesignError) as exc:
        build_hpi(table(txs))
    assert "log_num_plots" in str(exc.value)
    assert "weth_flag" in str(exc.value)
    assert set(exc.value.columns) == {"log_num_plots", "weth_flag"}


def _assert_matches_oracle(sales, freq):
    points, fit = build_hpi(sales, freq=freq)
    periods, beta, se, rss = _oracle_refit(sales, freq=freq)
    assert [p.period for p in points] == periods
    P = len(periods)
    for i, p in enumerate(points[1:], start=1):
        assert p.delta == pytest.approx(beta[i], abs=1e-9)
        assert p.delta_se == pytest.approx(se[i], abs=1e-9)
    controls = [(fit.beta_log_plots, fit.se_log_plots), (fit.beta_weth, fit.se_weth)]
    kept = [c for c in controls if c[0] is not None]
    assert len(kept) == len(beta) - P
    for (b, s), j in zip(kept, range(P, len(beta))):
        assert b == pytest.approx(beta[j], abs=1e-9)
        assert s == pytest.approx(se[j], abs=1e-9)
    assert fit.rss == pytest.approx(rss, abs=1e-9)
    assert fit.df_resid == fit.n_obs - len(beta)
    return points, fit


def test_daily_panel_with_gap_matches_oracle():
    deltas = [0.0, 0.1, -0.05, 0.2, 0.15, -0.1]
    txs, _ = gen_hedonic_panel(deltas, n_per_period=8, beta_plots=0.7,
                               beta_weth=-0.2, noise=0.1, seed=4, freq="daily")
    gap_day = txs.day[16].item()
    on_gap = txs.day == np.datetime64(gap_day)
    txs = txs[np.concatenate([np.flatnonzero(~on_gap), np.flatnonzero(on_gap)[:2]])]
    points, fit = _assert_matches_oracle(txs, "daily")
    assert fit.gap_periods == (gap_day,)
    assert len(points) == len(deltas) - 1
    assert fit.beta_log_plots is not None and fit.beta_weth is not None


def test_weth_only_panel_matches_oracle():
    rng = np.random.default_rng(17)
    txs = []
    for w, d in enumerate((0.0, 0.4, -0.3, 0.1)):
        for _ in range(7):
            weth = bool(rng.integers(0, 2))
            usd = math.exp(6.0 + d - 0.15 * weth + 0.05 * rng.normal())
            txs.append(tx(week(w), usd, plots=1, weth=weth))
    _, fit = _assert_matches_oracle(table(txs), "weekly")
    assert fit.beta_log_plots is None and fit.se_log_plots is None
    assert fit.beta_weth is not None


def _wide_panel():
    """104 weeks x 1,000 sales, the shape of the hpi_wide benchmark."""
    deltas = [0.0] + [0.002 * k for k in range(1, 104)]
    return gen_hedonic_panel(deltas, n_per_period=1000, beta_plots=0.9,
                             beta_weth=-0.05, noise=0.3, seed=1)[0]


def test_build_hpi_memory_is_bounded():
    # a dense dummy design alone would be 88 MB; the fit's traced peak is
    # 5.11 MB, about six float columns of 0.83 MB
    txs = _wide_panel()
    tracemalloc.start()
    try:
        build_hpi(txs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.6e6



def test_far_dates_leave_the_memory_bounded_by_the_sales():
    # at a slot a day, 0001-01-01 to 9999-12-31 are 3.65 million slots: 29 MB
    # for one int64 table over them
    near = [tx(D0 + dt.timedelta(days=i % 4), 100.0 + i, plots=1 + i % 3) for i in range(16)]
    far = [tx(dt.date(1, 1, 1), 50.0), tx(dt.date(9999, 12, 31), 70.0, plots=2)]
    sales = table(far[:1] + near + far[1:])
    tracemalloc.start()
    try:
        points, fit = build_hpi(sales, freq="daily", min_per_period=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000 * len(sales)
    assert (points, fit) == build_hpi(table(near), freq="daily", min_per_period=2)

#: relative errors of the thin-QR fit that build_hpi used before, on the
#: wide panel against hedonic_fsum_oracle, the smaller of one and two
#: OpenBLAS threads rounded up (numpy 2.4.6, OpenBLAS 0.3.31):
#: beta_log_plots, beta_weth, se_log_plots, se_weth, rss
QR_ERRORS = (6.8e-15, 2.0e-15, 1.6e-16, 0.0, 0.0)


def test_fit_is_as_close_to_correctly_rounded_sums_as_the_qr_fit():
    txs = _wide_panel()
    _, fit = build_hpi(txs)
    beta, se, rss = hedonic_fsum_oracle(txs)
    got = (fit.beta_log_plots, fit.beta_weth, fit.se_log_plots, fit.se_weth, fit.rss)
    for value, want, bound in zip(got, beta + se + [rss], QR_ERRORS):
        assert abs(value - want) <= bound * abs(want)


def test_hpi_files_do_not_depend_on_blas(tmp_path):
    # 26,000 sales: long enough that OpenBLAS splits its products over two
    # threads, and its kernels for another CPU round them differently
    deltas = ",".join(["0"] + ["0.01"] * 51)
    assert main(["simulate", "--kind", "hedonic", "--seed", "1", "--deltas", deltas,
                 "--n-per-period", "500", "--beta-plots", "0.9", "--beta-weth", "-0.05",
                 "--noise", "0.3", "--out-dir", str(tmp_path)]) == 0
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    files = []
    for i, blas in enumerate([{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                              {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Prescott"}]):
        out = tmp_path / f"out{i}"
        done = subprocess.run(
            [sys.executable, "-m", "landmetrics.cli", "hpi", "--transactions",
             str(tmp_path / "transactions.csv"), "--prices", str(tmp_path / "prices.csv"),
             "--out-dir", str(out)], env={**env, **blas}, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        files.append([(out / name).read_bytes()
                      for name in ("hpi_fit.json", "hpi.csv", "hpi_series.csv")])
    assert files[1] == files[0]
    assert files[2] == files[0]


def test_log_holds_one_value_at_a_time():
    # a Python list of the column would hold 32 MB of floats at 10**6 values
    values = np.random.default_rng(0).lognormal(size=10**6)
    tracemalloc.start()
    try:
        out = _log(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    assert np.array_equal(out, [math.log(v) for v in values.tolist()])


def test_build_hpi_validation():
    with pytest.raises(ValidationError):
        build_hpi(table([tx(week(0), 10.0)]), min_per_period=0)
    with pytest.raises(ValidationError):
        build_hpi(table([]))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def _three_week_panel():
    rng = np.random.default_rng(12)
    txs = []
    for w in range(4):
        if w == 2:
            txs.append(tx(week(w), 123.0))  # gap week
            continue
        for _ in range(4):
            txs.append(tx(week(w), float(rng.lognormal(5.0, 0.3))))
    return build_hpi(table(txs))


def test_hpi_to_series_skips_gap_weeks():
    points, fit = _three_week_panel()
    s = hpi_to_series(points)
    assert s.freq == "weekly"
    assert s.dates == (week(0), week(1), week(3))
    assert s.values[0] == 1.0
    assert fit.gap_periods == (week(2),)
    with pytest.raises(ValidationError):
        hpi_to_series([])


def test_hpi_csv_schema(tmp_path):
    points, _ = _three_week_panel()
    p = tmp_path / "hpi.csv"
    hpi_points_to_csv(points, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "period,index,delta,n_transactions"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == week(0).isoformat()
    assert float(first[1]) == 1.0
    assert float(first[2]) == 0.0
    assert first[3] == "4"


def test_hedonic_fit_json_roundtrip(tmp_path):
    points, fit = _three_week_panel()
    p = tmp_path / "fit.json"
    write_json(p, fit.to_json_dict())
    data = json.loads(p.read_text())
    assert data["base_period"] == week(0).isoformat()
    assert data["n_obs"] == fit.n_obs
    assert data["gap_periods"] == [week(2).isoformat()]
    assert data["beta_log_plots"] is None
    assert data["beta_weth"] is None
