"""Synthetic-generator tests: determinism, planted truth, edge cases."""

import datetime as dt
import math

import numpy as np
import pytest

from landmetrics.errors import ValidationError
from landmetrics.hedonic import build_hpi
from landmetrics.ingest import PRICE_COLUMNS, TRANSACTION_COLUMNS, load_daily_prices, \
    load_transactions, to_usd
from landmetrics.series import write_csv
from landmetrics.synthkit import (
    EPOCH,
    gen_coupled_pair,
    gen_explosive,
    gen_hedonic_panel,
    gen_market_dataset,
    gen_random_walk,
    stream,
)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def test_stream_is_keyed_and_deterministic():
    a = stream(7, 3).standard_normal(5)
    b = stream(7, 3).standard_normal(5)
    c = stream(7, 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValidationError):
        stream(-1, 0)


@pytest.mark.parametrize("seed", [2**63, 2**64 - 1, 2**64])
def test_stream_rejects_seeds_philox_cannot_key_apart(seed):
    # numpy builds the key through float64 from 2**63 on, so 2**63 and
    # 2**63 + 1 would share a stream, and 2**64 - 1 would be seed 0's
    for key in ((seed, 0), (0, seed)):
        with pytest.raises(ValidationError, match=r"\[0, 2\*\*63\)"):
            stream(*key)
    largest = stream(2**63 - 1, 2**63 - 1).standard_normal(3)
    assert not np.array_equal(largest, stream(2**63 - 2, 2**63 - 1).standard_normal(3))


# ---------------------------------------------------------------------------
# random walk
# ---------------------------------------------------------------------------


def test_walk_sigma_zero_is_drift_ramp():
    s = gen_random_walk(12, drift=1.0, sigma=0.0, seed=5)
    assert np.array_equal(s.values, np.arange(12.0))
    assert s.values[0] == 0.0
    assert s.dates[0] == EPOCH
    assert s.freq == "daily"


def test_walk_determinism_and_seed_sensitivity():
    a = gen_random_walk(50, seed=1)
    b = gen_random_walk(50, seed=1)
    c = gen_random_walk(50, seed=2)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_walk_increment_moments():
    n = 10_000
    s = gen_random_walk(n, drift=0.25, sigma=2.0, seed=9)
    inc = np.diff(s.values)
    assert inc.mean() == pytest.approx(0.25, abs=3.0 * 2.0 / math.sqrt(n - 1))
    assert inc.std(ddof=1) == pytest.approx(2.0, abs=0.06)
    assert abs(np.corrcoef(inc[:-1], inc[1:])[0, 1]) < 0.05


def test_walk_weekly_calendar():
    s = gen_random_walk(10, freq="weekly", seed=0)
    assert s.dates[1] - s.dates[0] == dt.timedelta(days=7)
    with pytest.raises(ValidationError):
        gen_random_walk(5)
    with pytest.raises(ValidationError):
        gen_random_walk(20, sigma=-1.0)


# ---------------------------------------------------------------------------
# explosive segments
# ---------------------------------------------------------------------------


def test_explosive_reduces_to_walk_without_windows():
    w = gen_random_walk(80, seed=3)
    e, truth = gen_explosive(80, [], rho=1.05, sigma=1.0, seed=3)
    assert np.array_equal(w.values, e.values)
    assert not truth.any()


def test_explosive_sigma_zero_is_geometric_inside_window():
    s, truth = gen_explosive(
        20, [(5, 15)], rho=1.1, sigma=0.0, seed=0, start_level=1.0
    )
    y = s.values
    assert np.array_equal(y[:5], np.ones(5))
    expected = 1.0
    for t in range(5, 15):
        expected = expected * 1.1
        assert y[t] == pytest.approx(expected, rel=1e-15)
    assert np.array_equal(y[15:], np.full(5, y[14]))
    assert truth.tolist() == [False] * 5 + [True] * 10 + [False] * 5


def test_explosive_truth_spans_each_window():
    _, truth = gen_explosive(50, [(10, 15), (30, 40)], rho=1.03, seed=1)
    assert truth[10:15].all() and truth[30:40].all()
    assert truth.sum() == 15


def test_explosive_window_validation():
    with pytest.raises(ValidationError, match="disjoint"):
        gen_explosive(50, [(10, 20), (15, 25)], rho=1.05)
    with pytest.raises(ValidationError, match="outside"):
        gen_explosive(50, [(40, 60)], rho=1.05)
    with pytest.raises(ValidationError, match="rho"):
        gen_explosive(50, [(10, 20)], rho=0.99)


# ---------------------------------------------------------------------------
# coupled pair
# ---------------------------------------------------------------------------


def test_coupled_noise_zero_is_exact_shift():
    x, y = gen_coupled_pair(40, beta=1.0, lag=1, noise=0.0, seed=2)
    assert np.array_equal(y.values[1:], x.values[:-1])
    assert y.values[0] == 0.0
    assert x.dates == y.dates
    assert x.freq == y.freq == "weekly"


def test_coupled_beta_zero_is_independent():
    x, y = gen_coupled_pair(400, beta=0.0, lag=1, noise=1.0, seed=3)
    shifted = np.corrcoef(x.values[:-1], y.values[1:])[0, 1]
    assert abs(shifted) < 0.15


def test_coupled_scaled_lag():
    x, y = gen_coupled_pair(30, beta=0.5, lag=3, noise=0.0, seed=4)
    assert np.array_equal(y.values[3:], 0.5 * x.values[:-3])
    assert np.array_equal(y.values[:3], np.zeros(3))


def test_coupled_validation():
    with pytest.raises(ValidationError):
        gen_coupled_pair(30, beta=0.5, lag=0)
    with pytest.raises(ValidationError):
        gen_coupled_pair(30, beta=0.5, lag=1, noise=-0.5)


# ---------------------------------------------------------------------------
# hedonic panel
# ---------------------------------------------------------------------------


def test_hedonic_panel_noiseless_recovery():
    deltas = [0.0, 0.3, -0.2]
    txs, truth = gen_hedonic_panel(
        deltas, n_per_period=40, beta_plots=0.9, beta_weth=-0.1, noise=0.0, seed=6
    )
    assert len(txs) == 120
    points, fit = build_hpi(txs)
    for p, d in zip(points, deltas):
        assert p.index == pytest.approx(math.exp(d), abs=1e-10)
    assert fit.beta_log_plots == pytest.approx(0.9, abs=1e-10)
    assert fit.beta_weth == pytest.approx(-0.1, abs=1e-10)
    assert truth["deltas"] == deltas


def test_hedonic_panel_flat_deltas_give_flat_index():
    txs, _ = gen_hedonic_panel([0.0, 0.0, 0.0], n_per_period=30, noise=0.0, seed=7)
    points, _ = build_hpi(txs)
    for p in points:
        assert p.index == pytest.approx(1.0, abs=1e-10)


def test_hedonic_panel_structure():
    txs, _ = gen_hedonic_panel([0.0, 0.5], n_per_period=25, seed=8)
    weeks = {d.isocalendar()[:2] for d in txs.day.tolist()}
    assert len(weeks) == 2
    assert np.array_equal(txs.native_price, txs.usd_price / 2000.0)
    currencies = [txs.symbols[c] for c in txs.currency.tolist()]
    assert txs.paid_in_weth.tolist() == [c == "WETH" for c in currencies]
    assert set(currencies) == {"ETH", "WETH"}
    assert np.all((txs.num_plots >= 1) & (txs.num_plots <= 9))


def test_hedonic_panel_validation():
    with pytest.raises(ValidationError, match="base"):
        gen_hedonic_panel([0.1, 0.2])
    with pytest.raises(ValidationError):
        gen_hedonic_panel([0.0])
    with pytest.raises(ValidationError):
        gen_hedonic_panel([0.0, 0.1], noise=-1.0)


# ---------------------------------------------------------------------------
# market fixture
# ---------------------------------------------------------------------------


def _write_market(sim, tmp_path):
    tx_path, px_path = tmp_path / "transactions.csv", tmp_path / "prices.csv"
    write_csv(tx_path, TRANSACTION_COLUMNS, sim.tx_rows)
    write_csv(px_path, PRICE_COLUMNS, sim.price_rows)
    return tx_path, px_path


def test_market_dataset_is_deterministic():
    a = gen_market_dataset(n_weeks=25, seed=11)
    b = gen_market_dataset(n_weeks=25, seed=11)
    assert a.tx_rows == b.tx_rows
    assert a.price_rows == b.price_rows
    assert a.truth == b.truth


def test_market_dataset_has_three_quotes_per_day():
    sim = gen_market_dataset(n_weeks=20, seed=2)
    assert len(sim.price_rows) == 20 * 7 * 3
    day0 = [r for r in sim.price_rows if r[0] == EPOCH]
    assert {r[1] for r in day0} == {"VOX", "BTC", "ETH"}


def test_market_malformed_rows_all_fail_ingest(tmp_path):
    sim = gen_market_dataset(n_weeks=20, seed=4)
    tx_path, px_path = _write_market(sim, tmp_path)
    rows, parse_rejects = load_transactions(tx_path)
    fx = load_daily_prices(px_path)
    txs, fx_rejects = to_usd(rows, fx)
    assert len(parse_rejects) + len(fx_rejects) == sim.truth["n_malformed_rows"]
    assert len(txs) + len(parse_rejects) + len(fx_rejects) == len(sim.tx_rows)
    reasons = {r.reason for r in parse_rejects} | {r.reason for r in fx_rejects}
    assert reasons == {"bad timestamp", "price <= 0", "plot count < 1", "no fx for date"}


def test_market_truth_contract():
    sim = gen_market_dataset(n_weeks=30, seed=1)
    t = sim.truth
    assert t["lag_weeks"] == 1
    assert t["kappa"] == 0.85
    s, e = t["explosive_window_days"]
    assert 0 < s < e <= 30 * 7
    with pytest.raises(ValidationError):
        gen_market_dataset(n_weeks=10)
