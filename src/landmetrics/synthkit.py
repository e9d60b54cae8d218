"""Seeded synthetic-data generators with planted ground truth.

Every generator here is the oracle bed for some estimator in the package:
random walks are the null model for critical values, explosive segments
carry truth labels for the date-stamper, lag-coupled pairs plant a known
causal direction, and hedonic panels plant known index deltas and control
coefficients.

Randomness policy
-----------------
All draws come from numpy's Philox bit generator (a named 4x64
counter-based algorithm) wrapped in ``numpy.random.Generator``.  Philox
output is guaranteed stream-stable by numpy across platforms and
releases, which is what makes the golden files in the test suite and the
byte-reproducible pipeline reports possible.  Streams are keyed, never
seeded-and-jumped: ``stream(seed, index)`` returns the generator for an
independent substream, so components can draw independently and
replications can run in any order with identical results.

``stream`` is the only place that draws, and ``numpy.random`` is loaded
on its first call, by numpy's lazy ``np.random`` attribute: a run that
draws nothing (``hpi``, ``summarize``) never loads it.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hedonic import TransactionTable
from .series import TimeSeries, grid_step

#: all generated calendars start here (a Monday, so weekly grids align)
EPOCH = dt.date(2021, 1, 4)


#: seeds and stream indices lie below this: numpy keys Philox through
#: float64 from 2**63 on, where distinct seeds collide
SEED_BOUND = 2**63


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent Philox substream for (seed, index)."""
    if not (0 <= seed < SEED_BOUND and 0 <= index < SEED_BOUND):
        raise ValidationError(f"seed and stream index must lie in [0, 2**63), got {seed, index}")
    # numpy imports numpy.random on the first access to ``np.random``; an
    # import statement here would cost each call about 0.5 us of its 8
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _dates(n: int, freq: str) -> tuple[dt.date, ...]:
    step = grid_step(freq)
    return tuple(EPOCH + i * step for i in range(n))


def _check_length(n: int) -> None:
    if n < 10:
        raise ValidationError(f"generated series need length >= 10, got {n}")


def gen_random_walk(
    n: int,
    drift: float = 0.0,
    sigma: float = 1.0,
    seed: int = 0,
    freq: str = "daily",
) -> TimeSeries:
    """Driftable random walk, y_0 = 0, increments drift + sigma * N(0,1)."""
    _check_length(n)
    if sigma < 0.0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    eps = stream(seed, 0).standard_normal(n - 1)
    y = np.concatenate([[0.0], np.cumsum(drift + sigma * eps)])
    return TimeSeries(name="walk", freq=freq, dates=_dates(n, freq), values=y)


def gen_explosive(
    n: int,
    windows,
    rho: float,
    sigma: float = 1.0,
    seed: int = 0,
    start_level: float = 0.0,
    freq: str = "daily",
) -> tuple[TimeSeries, np.ndarray]:
    """Random walk with explosive segments; returns (series, truth labels).

    Outside the windows the path follows driftless unit-root dynamics;
    at indices t inside a half-open window [s, e) it follows
    y_t = rho * y_{t-1} + sigma * eps_t.  ``truth[t]`` is True exactly on
    the window indices.  With no windows and the default start level the
    output is bit-identical to :func:`gen_random_walk` at the same seed.

    ``start_level`` sets y_0.  Explosive growth compounds the level, so a
    path that starts near zero takes a long time to emerge from the
    noise; tests that want a sharply detectable bubble plant one on an
    elevated level.
    """
    _check_length(n)
    if sigma < 0.0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    if not rho > 1.0:
        raise ValidationError(f"rho must exceed 1 for an explosive segment, got {rho}")
    wins = [(int(s), int(e)) for s, e in windows]
    for s, e in wins:
        if not (0 <= s < e <= n):
            raise ValidationError(f"window ({s}, {e}) outside [0, {n})")
    ordered = sorted(wins)
    for (_, e1), (s2, _) in zip(ordered, ordered[1:]):
        if s2 < e1:
            raise ValidationError("explosive windows must be disjoint")
    truth = np.zeros(n, dtype=bool)
    for s, e in ordered:
        truth[s:e] = True
    eps = stream(seed, 0).standard_normal(n - 1)
    y = np.empty(n)
    y[0] = start_level
    for t in range(1, n):
        base = rho * y[t - 1] if truth[t] else y[t - 1]
        y[t] = base + sigma * eps[t - 1]
    series = TimeSeries(name="explosive", freq=freq, dates=_dates(n, freq), values=y)
    return series, truth


def gen_coupled_pair(
    n: int,
    beta: float,
    lag: int,
    noise: float = 1.0,
    seed: int = 0,
    freq: str = "weekly",
) -> tuple[TimeSeries, TimeSeries]:
    """White-noise x and y_t = beta * x_{t-lag} + noise * eta_t.

    Planted truth: x Granger-causes y at the given lag and nothing runs
    the other way.  The first ``lag`` values of y carry only their own
    noise (x is undefined before the sample).
    """
    _check_length(n)
    if lag < 1:
        raise ValidationError(f"lag must be >= 1, got {lag}")
    if noise < 0.0:
        raise ValidationError(f"noise must be >= 0, got {noise}")
    rng = stream(seed, 0)
    x = rng.standard_normal(n)
    eta = rng.standard_normal(n)
    y = noise * eta
    y[lag:] += beta * x[:-lag]
    dates = _dates(n, freq)
    return (
        TimeSeries(name="x", freq=freq, dates=dates, values=x),
        TimeSeries(name="y", freq=freq, dates=dates, values=y),
    )


def gen_hedonic_panel(
    deltas,
    n_per_period: int = 200,
    beta_plots: float = 0.0,
    beta_weth: float = 0.0,
    noise: float = 0.0,
    seed: int = 0,
    freq: str = "weekly",
) -> tuple[TransactionTable, dict]:
    """Transactions with planted period deltas and control coefficients.

    ``deltas[k]`` is the log fixed effect of period k; the base period's
    delta must be 0.  Plot counts are uniform on 1..9, the wETH indicator
    is Bernoulli(0.4), and

        ln(usd_price) = ln(1000) + delta + beta_plots * ln(plots)
                        + beta_weth * weth + noise * eps.

    Returns the transactions (in USD, settled in ETH or wETH at 2000 USD)
    plus a truth dict with the planted values.
    """
    deltas = [float(d) for d in deltas]
    if len(deltas) < 2:
        raise ValidationError("need at least two periods of deltas")
    if deltas[0] != 0.0:
        raise ValidationError("the base (first) period delta must be 0")
    if n_per_period < 1:
        raise ValidationError(f"n_per_period must be >= 1, got {n_per_period}")
    if noise < 0.0:
        raise ValidationError(f"noise must be >= 0, got {noise}")
    rng = stream(seed, 0)
    base_log_price = math.log(1000.0)
    stamps, usd, plots, weth = [], [], [], []
    for first_day, delta in zip(_dates(len(deltas), freq), deltas):
        for _ in range(n_per_period):
            plots.append(int(rng.integers(1, 10)))
            weth.append(bool(rng.random() < 0.4))
            eps = float(rng.standard_normal())
            log_price = (
                base_log_price
                + delta
                + beta_plots * math.log(plots[-1])
                + beta_weth * (1.0 if weth[-1] else 0.0)
                + noise * eps
            )
            day = int(rng.integers(0, 7)) if freq == "weekly" else 0
            hour = int(rng.integers(8, 20))
            usd.append(math.exp(log_price))
            stamps.append(dt.datetime.combine(first_day + dt.timedelta(days=day),
                                              dt.time(hour=hour)))
    usd_price = np.array(usd)
    txs = TransactionTable(
        timestamp=np.array(stamps, "datetime64[us]"), native_price=usd_price / 2000.0,
        num_plots=plots, currency=weth, symbols=("ETH", "WETH"),
        line=np.zeros(len(usd)), usd_price=usd_price)
    truth = {
        "deltas": deltas,
        "beta_log_plots": beta_plots,
        "beta_weth": beta_weth,
        "noise": noise,
        "n_per_period": n_per_period,
    }
    return txs, truth


# ---------------------------------------------------------------------------
# composite fixture: a small market with every planted effect at once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketSim:
    """A synthetic land market in the exact file schemas ingest reads.

    ``tx_rows`` are transaction rows of raw values (a datetime, the native
    price, the currency, the plot count and the id; a handful of them
    deliberately malformed so the rejection path stays exercised),
    ``price_rows`` are ``(date, symbol, usd_price)`` quote rows, and
    ``truth`` records everything that was planted.  ``series.write_csv``
    writes both row lists in the schemas ingest reads.
    """

    tx_rows: list
    price_rows: list
    truth: dict


def gen_market_dataset(
    n_weeks: int = 60,
    seed: int = 0,
    metaverse: str = "voxland",
    coin: str = "VOX",
) -> MarketSim:
    """A coin with one explosive episode, a land market that follows the
    coin with a one-week lag, BTC/ETH controls, and a few malformed rows.

    The coin's log price carries an explosive window over roughly weeks
    55-65% of the sample, so the date-stamper has something to find; the
    weekly land deltas equal 0.85 times the previous week's closing log
    coin price (plus small noise), so coin -> land Granger causality and
    a positive lead-lag peak at +1 week are planted.
    """
    if n_weeks < 20:
        raise ValidationError(f"market fixture needs >= 20 weeks, got {n_weeks}")
    n_days = n_weeks * 7
    days = _dates(n_days, "daily")

    win = (int(0.55 * n_days), int(0.65 * n_days))
    z, _ = gen_explosive(
        n_days, [win], rho=1.02, sigma=1.0, seed=seed, start_level=50.0
    )
    ln_vox = z.values / 25.0
    btc = stream(seed, 1).standard_normal(n_days - 1)
    ln_btc = np.concatenate([[210.0], 210.0 + np.cumsum(0.8 * btc)]) / 20.0
    eth = stream(seed, 2).standard_normal(n_days - 1)
    ln_eth = np.concatenate([[157.0], 157.0 + np.cumsum(0.9 * eth)]) / 20.0

    price_rows = []
    for i, d in enumerate(days):
        price_rows.append((d, coin, math.exp(ln_vox[i])))
        price_rows.append((d, "BTC", math.exp(ln_btc[i])))
        price_rows.append((d, "ETH", math.exp(ln_eth[i])))

    # weekly land deltas follow the previous week's closing log coin price,
    # so a last-observation weekly resample sees the dependence at lag 1
    kappa = 0.85
    xi = stream(seed, 3).standard_normal(n_weeks)
    deltas = np.zeros(n_weeks)
    for w in range(1, n_weeks):
        prev_close = 7 * w - 1
        deltas[w] = kappa * (ln_vox[prev_close] - ln_vox[0]) + 0.05 * xi[w]

    rng = stream(seed, 4)
    beta_plots, beta_weth, noise = 0.9, -0.05, 0.25
    base_log = math.log(600.0)
    quotes = {coin: ln_vox, "ETH": ln_eth}
    tx_rows = []
    counter = 0
    for w in range(n_weeks):
        for _ in range(9 + int(rng.integers(0, 7))):
            day_idx = 7 * w + int(rng.integers(0, 7))
            plots = int(rng.integers(1, 10))
            u = rng.random()
            currency = "ETH" if u < 0.55 else ("WETH" if u < 0.80 else coin)
            weth = 1.0 if currency == "WETH" else 0.0
            eps = float(rng.standard_normal())
            log_usd = (
                base_log
                + deltas[w]
                + beta_plots * math.log(plots)
                + beta_weth * weth
                + noise * eps
            )
            quote_key = "ETH" if currency == "WETH" else currency
            native = math.exp(log_usd - quotes[quote_key][day_idx])
            hour = int(rng.integers(8, 20))
            minute = int(rng.integers(0, 60))
            ts = dt.datetime.combine(days[day_idx], dt.time(hour, minute))
            counter += 1
            tx_rows.append((ts, native, currency, plots, f"tx{counter:05d}"))
    # deliberately broken rows: one per rejection stage
    tx_rows.append(("not-a-date", 1.0, "ETH", 2, "bad-ts"))
    tx_rows.append((dt.datetime.combine(days[10], dt.time(9)), -4.0, "ETH", 1, "bad-price"))
    tx_rows.append((dt.datetime.combine(days[11], dt.time(9)), 2.0, "ETH", 0, "bad-plots"))
    tx_rows.append((dt.datetime(2020, 12, 15, 12), 1.5, "ETH", 1, "no-quote"))

    truth = {
        "coin": coin,
        "metaverse": metaverse,
        "explosive_window_days": list(win),
        "rho": 1.02,
        "kappa": kappa,
        "lag_weeks": 1,
        "beta_log_plots": beta_plots,
        "beta_weth": beta_weth,
        "noise": noise,
        "n_weeks": n_weeks,
        "n_malformed_rows": 4,
        "seed": seed,
    }
    return MarketSim(tx_rows=tx_rows, price_rows=price_rows, truth=truth)
