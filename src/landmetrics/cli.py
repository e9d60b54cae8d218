"""Batch pipeline front-end.

Wires ingestion, the hedonic index, explosive-episode stamping, lead-lag
correlograms, and the VAR causality table behind one ``landmetrics``
executable.  Outputs are plot-ready CSVs plus a JSON run report; no images
are rendered.

Subcommands
-----------
summarize   descriptive statistics of transactions and of daily log returns
bubble      BSADF date-stamping with Monte-Carlo critical values
hpi         hedonic price index estimation
leadlag     lead-lag correlogram between two level series
granger     stationarity pre-check, correlations, and the causality table
simulate    synthetic fixtures with a truth sidecar
pipeline    everything above in sequence, with a single JSON report

Configuration is a flat ``key = value`` text file; every key is also a
command-line flag (flags win).  Exit codes: 0 success, 1 usage error,
2 data validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import json
import math
import os
import sys
from dataclasses import make_dataclass

import numpy as np

from .bubbles import AdfSpec, CvTable, DatestampResult, bsadf_series, datestamp, \
    default_min_window, mc_critical_values
from .errors import DomainError, InsufficientDataError, LandmetricsError, \
    NumericalError, ValidationError
from .hedonic import build_hpi, hedonic_fit_to_json, hpi_points_to_csv, \
    hpi_to_series
from .ingest import Dataset, FxTable, SchemaConfig, load_daily_prices, \
    load_transactions, prepare_dataset, rejections_to_csv, to_usd, \
    PRICE_COLUMNS, TRANSACTION_COLUMNS
from .series import SummaryStats, TimeSeries, _fmt, difference, \
    fill_gaps_loglinear, lead_lag_correlation, pairwise_correlation, \
    resample_weekly, restrict, summary_stats
from .synthkit import gen_coupled_pair, gen_explosive, gen_hedonic_panel, \
    gen_market_dataset, gen_random_walk
from .var_granger import build_panel, granger_table, granger_table_to_csv, \
    stationarity_precheck


class _UsageError(Exception):
    """Bad flags, bad config keys, or inconsistent settings: exit code 1."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_int(text: str) -> int:
    return int(text.strip())


def _parse_float(text: str) -> float:
    value = float(text.strip())
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_opt_int(text: str) -> int | None:
    s = text.strip()
    if s == "" or s.lower() == "none":
        return None
    return int(s)


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    s = text.strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_symbols(text) -> tuple:
    if isinstance(text, tuple):
        return text
    parts = [p.strip().upper() for p in text.split(",") if p.strip()]
    return tuple(parts)


def _parse_floats(text) -> tuple:
    if isinstance(text, tuple):
        return tuple(float(v) for v in text)
    return tuple(float(p) for p in text.split(",") if p.strip())


# key -> (parser, default, help line for --help and the README table)
_KEYS = {
    "transactions": (_parse_str, "", "path to the transactions CSV"),
    "prices": (_parse_str, "", "path to the daily prices CSV"),
    "out_dir": (_parse_str, "out", "directory for all output files"),
    "metaverse": (_parse_str, "land", "label of the land market being studied"),
    "coin": (_parse_str, "", "crypto symbol paired with the land market"),
    "market_symbols": (_parse_symbols, (), "comma-separated control symbols (e.g. BTC,ETH)"),
    "currencies": (_parse_symbols, (), "allowed settlement currencies (empty = any)"),
    "winsor_lo": (_parse_float, 0.001, "lower winsorization quantile for USD prices"),
    "winsor_hi": (_parse_float, 0.999, "upper winsorization quantile for USD prices"),
    "min_per_period": (_parse_int, 3, "minimum transactions per estimable index period"),
    "freq": (_parse_str, "weekly", "index/panel frequency: weekly or daily"),
    "resample_rule": (_parse_str, "last", "weekly aggregation of daily prices: last or mean"),
    "diff_mode": (_parse_str, "log", "differencing before the VAR: log or simple"),
    "fill": (_parse_str, "none", "index gap policy: none or interpolate"),
    "log_prices": (_parse_bool, True, "date-stamp log prices instead of raw levels"),
    "r0": (_parse_opt_int, None, "minimum BSADF window (empty = rule-based default)"),
    "adf_lags": (_parse_int, 1, "differenced lags in the ADF regression"),
    "lag_selection": (_parse_str, "fixed", "ADF lag choice: fixed or bic"),
    "alphas": (_parse_floats, (0.90, 0.95, 0.99), "critical-value quantiles, ascending"),
    "level": (_parse_float, 0.95, "flagging level; must be one of the alphas"),
    "n_rep": (_parse_int, 500, "Monte-Carlo replications for critical values"),
    "seed": (_parse_int, 0, "master seed for every simulated quantity"),
    "p_max": (_parse_int, 3, "largest VAR lag order in the causality table"),
    "max_offset": (_parse_int, 10, "correlogram half-width in periods"),
    "adf_alpha": (_parse_float, 0.05, "left-tail size of the stationarity pre-check"),
}


# one field per _KEYS entry, typed by the return annotation of its parser
RunConfig = make_dataclass(
    "RunConfig",
    [(key, parser.__annotations__["return"]) for key, (parser, _, _) in _KEYS.items()],
    frozen=True,
    namespace={"__doc__": "Resolved settings of one run; reproducible from (inputs, config).",
               "__module__": __name__},
)


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` config file into raw string values.

    Blank lines and ``#`` comments are skipped.  Unknown keys are usage
    errors, so typos fail loudly instead of silently using defaults.
    """
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise _UsageError(f"{path}: line {lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


_PATH_KEYS = ("transactions", "prices", "out_dir")

_CHOICES = {
    "freq": ("weekly", "daily"),
    "resample_rule": ("last", "mean"),
    "diff_mode": ("log", "simple"),
    "fill": ("none", "interpolate"),
    "lag_selection": ("fixed", "bic"),
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then explicit flags."""
    values = {key: default for key, (_, default, _) in _KEYS.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        base = os.path.dirname(os.path.abspath(config_path))
        for key, raw in load_config_file(config_path).items():
            parser, _, _ = _KEYS[key]
            try:
                value = parser(raw)
            except ValueError as exc:
                raise _UsageError(f"config key {key}: {exc}") from exc
            if key in _PATH_KEYS and value and not os.path.isabs(value):
                value = os.path.join(base, value)
            values[key] = value
    for key, (parser, _, _) in _KEYS.items():
        flag_value = getattr(args, key, None)
        if flag_value is None:
            continue
        try:
            values[key] = parser(flag_value)
        except ValueError as exc:
            raise _UsageError(f"flag --{key.replace('_', '-')}: {exc}") from exc
    cfg = RunConfig(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    for key, allowed in _CHOICES.items():
        if getattr(cfg, key) not in allowed:
            raise _UsageError(f"{key} must be one of {'/'.join(allowed)}, "
                              f"got {getattr(cfg, key)!r}")
    if not (0.0 <= cfg.winsor_lo < cfg.winsor_hi <= 1.0):
        raise _UsageError(f"need 0 <= winsor_lo < winsor_hi <= 1, "
                          f"got ({cfg.winsor_lo}, {cfg.winsor_hi})")
    if cfg.min_per_period < 1:
        raise _UsageError(f"min_per_period must be >= 1, got {cfg.min_per_period}")
    if cfg.adf_lags < 0:
        raise _UsageError(f"adf_lags must be >= 0, got {cfg.adf_lags}")
    if not cfg.alphas or list(cfg.alphas) != sorted(cfg.alphas):
        raise _UsageError(f"alphas must be non-empty and ascending, got {cfg.alphas}")
    if not all(0.0 < a < 1.0 for a in cfg.alphas):
        raise _UsageError(f"alphas must lie in (0, 1), got {cfg.alphas}")
    if not any(abs(a - cfg.level) < 1e-9 for a in cfg.alphas):
        raise _UsageError(f"level {cfg.level} must be one of the alphas {cfg.alphas}")
    if cfg.n_rep < 200:
        raise _UsageError(f"n_rep must be >= 200, got {cfg.n_rep}")
    if cfg.p_max < 1:
        raise _UsageError(f"p_max must be >= 1, got {cfg.p_max}")
    if cfg.max_offset < 1:
        raise _UsageError(f"max_offset must be >= 1, got {cfg.max_offset}")
    if not (0.0 < cfg.adf_alpha < 1.0):
        raise _UsageError(f"adf_alpha must be in (0, 1), got {cfg.adf_alpha}")
    if cfg.r0 is not None and cfg.r0 < cfg.adf_lags + 5:
        raise _UsageError(f"r0={cfg.r0} must be >= adf_lags + 5 = {cfg.adf_lags + 5}")
    if cfg.seed < 0:
        raise _UsageError(f"seed must be >= 0, got {cfg.seed}")


def canonical_config(cfg: RunConfig) -> dict:
    """String form of every analysis-relevant key.

    Input paths are reduced to basenames and ``out_dir`` is omitted, so
    the run report is byte-identical when a fixture directory is
    relocated or the outputs are sent somewhere else, while still
    documenting which files fed the run.
    """
    out: dict[str, str] = {}
    for key in sorted(_KEYS):
        if key == "out_dir":
            continue
        value = getattr(cfg, key)
        if key in _PATH_KEYS:
            out[key] = os.path.basename(value) if value else ""
        elif isinstance(value, bool):
            out[key] = "true" if value else "false"
        elif isinstance(value, tuple):
            out[key] = ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            out[key] = _fmt(value)
        elif value is None:
            out[key] = ""
        else:
            out[key] = str(value)
    return out


def config_hash(cfg: RunConfig) -> str:
    canon = canonical_config(cfg)
    text = "\n".join(f"{k}={v}" for k, v in canon.items())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------


def _log(message: str) -> None:
    print(message)


def _ensure_out(cfg: RunConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _require_file(path: str, what: str) -> str:
    if not path:
        raise _UsageError(f"{what} input is required (set the {what} key or flag)")
    if not os.path.isfile(path):
        raise ValidationError(f"{what} file not found: {path}")
    return path


def _load_fx(cfg: RunConfig) -> FxTable:
    return load_daily_prices(_require_file(cfg.prices, "prices"))


def _load_dataset(cfg: RunConfig) -> tuple[Dataset, FxTable]:
    tx_path = _require_file(cfg.transactions, "transactions")
    fx = _load_fx(cfg)
    schema = SchemaConfig(currencies=frozenset(cfg.currencies) or None)
    rows, rejected = load_transactions(tx_path, schema)
    converted, fx_rejected = to_usd(rows, fx, schema.stable_currencies)
    dataset = prepare_dataset(
        converted,
        winsor_lo=cfg.winsor_lo,
        winsor_hi=cfg.winsor_hi,
        metaverse=cfg.metaverse,
        rejected=tuple(rejected) + tuple(fx_rejected),
    )
    return dataset, fx


def _build_index(cfg: RunConfig, dataset: Dataset):
    """Estimate the index and apply the gap policy to its level series.

    Returns (points, fit, level series after policy, fill_applied).
    """
    points, fit = build_hpi(dataset.transactions, freq=cfg.freq,
                            min_per_period=cfg.min_per_period)
    level = hpi_to_series(points, name="hpi", freq=cfg.freq)
    fill_applied = False
    if cfg.freq == "weekly" and fit.gap_periods and cfg.fill == "interpolate":
        level = fill_gaps_loglinear(level)
        fill_applied = True
    return points, fit, level, fill_applied


def _weekly_quote(fx: FxTable, symbol: str, rule: str) -> TimeSeries:
    return resample_weekly(fx.series(symbol), rule=rule)


def _common_span(series_list) -> list[TimeSeries]:
    start = max(s.dates[0] for s in series_list)
    end = min(s.dates[-1] for s in series_list)
    if start > end:
        raise InsufficientDataError("series share no common date range")
    return [restrict(s, start, end) for s in series_list]


def _analysis_symbols(cfg: RunConfig) -> list[str]:
    symbols: list[str] = []
    if cfg.coin:
        symbols.append(cfg.coin.upper())
    for sym in cfg.market_symbols:
        if sym not in symbols:
            symbols.append(sym)
    if not symbols:
        raise _UsageError("no symbols configured: set coin and/or market_symbols")
    return symbols


_STAT_FIELDS = ("mean", "std_dev", "skewness", "kurtosis",
                "min", "p5", "p50", "p95", "max")


def _stat_cells(stats: SummaryStats) -> list[str]:
    cells = []
    for field in _STAT_FIELDS:
        value = getattr(stats, field)
        cells.append("" if value is None else _fmt(value))
    return cells


def _write_tx_summary(dataset: Dataset, path: str) -> None:
    info = dataset.summary()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerow(["n", info["n"]])
        writer.writerow(["pct_weth", _fmt(info["pct_weth"])])
        for label in ("usd_price", "num_plots"):
            stats = info[label]
            for field, cell in zip(_STAT_FIELDS, _stat_cells(stats)):
                writer.writerow([f"{label}_{field}", cell])


def _write_return_summary(fx: FxTable, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["symbol", "n"] + list(_STAT_FIELDS))
        for symbol in fx.symbols:
            returns = difference(fx.series(symbol), mode="log")
            stats = summary_stats(returns.values)
            writer.writerow([symbol, stats.n] + _stat_cells(stats))


def _log_series(series: TimeSeries) -> TimeSeries:
    if np.any(series.values <= 0.0):
        bad = series.dates[int(np.flatnonzero(series.values <= 0.0)[0])]
        raise DomainError(
            f"log transform of {series.name!r} needs positive values; "
            f"value at {bad} is not"
        )
    return TimeSeries(series.name, series.freq, series.dates,
                      np.log(series.values))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_summarize(cfg: RunConfig) -> int:
    if not cfg.transactions and not cfg.prices:
        raise _UsageError("summarize needs a transactions and/or prices input")
    out = _ensure_out(cfg)
    if cfg.transactions:
        dataset, fx = _load_dataset(cfg)
        path = os.path.join(out, "summary_transactions.csv")
        _write_tx_summary(dataset, path)
        _log(f"[summarize] {dataset.metaverse}: {len(dataset.transactions)} accepted, "
             f"{len(dataset.rejected)} rejected -> {path}")
    else:
        fx = _load_fx(cfg)
    path = os.path.join(out, "summary_returns.csv")
    _write_return_summary(fx, path)
    _log(f"[summarize] daily log returns for {', '.join(fx.symbols)} -> {path}")
    return 0


def _stamp_one(cfg: RunConfig, series: TimeSeries, cv_cache: dict):
    """BSADF points, critical values, and stamped result for one series."""
    y = _log_series(series) if cfg.log_prices else series
    length = len(y)
    r0 = cfg.r0 if cfg.r0 is not None else default_min_window(length)
    spec = AdfSpec(n_lags=cfg.adf_lags, lag_selection=cfg.lag_selection)
    points = bsadf_series(y, r0=r0, spec=spec)
    key = (length, r0)
    if key not in cv_cache:
        cv_cache[key] = mc_critical_values(
            length,
            min_window=r0,
            spec=AdfSpec(n_lags=cfg.adf_lags),
            alphas=cfg.alphas,
            n_rep=cfg.n_rep,
            seed=cfg.seed,
        )
    table = cv_cache[key]
    result = datestamp(points, table, level=cfg.level, dates=y.dates)
    return result, table, r0


def _write_bubble_files(out: str, name: str, result: DatestampResult,
                        table: CvTable) -> list[str]:
    base = f"bubble_{name}"
    files = [f"{base}.csv", f"{base}_episodes.csv", f"cv_{name}.csv"]
    result.to_csv(os.path.join(out, files[0]))
    result.episodes_to_csv(os.path.join(out, files[1]))
    table.to_csv(os.path.join(out, files[2]))
    return files


def _bubble_stage(cfg: RunConfig, targets, out: str):
    """Stamp every target series; returns (report dict, written files)."""
    cv_cache: dict = {}
    report: dict = {}
    files: list[str] = []
    rows = []
    for series in targets:
        result, table, r0 = _stamp_one(cfg, series, cv_cache)
        files += _write_bubble_files(out, series.name, result, table)
        pct = 100.0 * result.pct_flagged
        episodes = [
            {"start": e.start.isoformat(), "end": e.end.isoformat(),
             "peak_stat": float(e.peak_stat)}
            for e in result.episodes
        ]
        report[series.name] = {
            "n_points": int(len(result.dates)),
            "r0": int(r0),
            "level": float(cfg.level),
            "pct_flagged": pct,
            "n_episodes": len(result.episodes),
            "episodes": episodes,
        }
        rows.append((series.name, pct, len(result.episodes)))
        _log(f"[bubble] {series.name}: {pct:.2f}% of dates flagged, "
             f"{len(result.episodes)} episode(s)")
    summary_name = "bubble_summary.csv"
    with open(os.path.join(out, summary_name), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["symbol", "pct_flagged", "n_episodes"])
        for name, pct, n_ep in rows:
            writer.writerow([name, _fmt(pct), n_ep])
    files.append(summary_name)
    return report, files


def cmd_bubble(cfg: RunConfig, series_file: str | None = None,
               series_name: str | None = None) -> int:
    out = _ensure_out(cfg)
    if series_file:
        path = _require_file(series_file, "series")
        name = series_name or os.path.splitext(os.path.basename(path))[0]
        targets = [TimeSeries.from_csv(path, name=name, freq="daily")]
    else:
        fx = _load_fx(cfg)
        targets = [fx.series(sym) for sym in _analysis_symbols(cfg)]
    _bubble_stage(cfg, targets, out)
    return 0


def cmd_hpi(cfg: RunConfig) -> int:
    out = _ensure_out(cfg)
    dataset, _ = _load_dataset(cfg)
    points, fit, _, _ = _build_index(cfg, dataset)
    hpi_points_to_csv(points, os.path.join(out, "hpi.csv"))
    hedonic_fit_to_json(fit, os.path.join(out, "hpi_fit.json"))
    rejections_to_csv(dataset.rejected, os.path.join(out, "rejections.csv"))
    _log(f"[hpi] {len(points)} periods, base {fit.base_period.isoformat()}, "
         f"n_obs {fit.n_obs}")
    if fit.gap_periods:
        gaps = ", ".join(d.isoformat() for d in fit.gap_periods)
        _log(f"[hpi] gap periods (under {cfg.min_per_period} transactions): {gaps}")
    return 0


def _leadlag_pair(cfg: RunConfig, series_x: str | None, series_y: str | None):
    if bool(series_x) != bool(series_y):
        raise _UsageError("--series-x and --series-y must be given together")
    if series_x and series_y:
        x_path = _require_file(series_x, "series-x")
        y_path = _require_file(series_y, "series-y")
        x = TimeSeries.from_csv(
            x_path, name=os.path.splitext(os.path.basename(x_path))[0], freq=cfg.freq)
        y = TimeSeries.from_csv(
            y_path, name=os.path.splitext(os.path.basename(y_path))[0], freq=cfg.freq)
        return x, y
    dataset, fx = _load_dataset(cfg)
    if not cfg.coin:
        raise _UsageError("leadlag needs the coin key (or --series-x/--series-y)")
    _, _, level, _ = _build_index(cfg, dataset)
    quote = _weekly_quote(fx, cfg.coin.upper(), cfg.resample_rule)
    return level, quote


def _leadlag_stage(cfg: RunConfig, x: TimeSeries, y: TimeSeries, out: str):
    x, y = _common_span([x, y])
    gram = lead_lag_correlation(x, y, max_lag=cfg.max_offset)
    best = gram.argmax_offset()
    best_corr = gram.entry(best).corr
    zero = gram.entry(0).corr
    gram.to_csv(os.path.join(out, "leadlag.csv"))
    _log(f"[leadlag] corr({x.name}_t, {y.name}_t-k): peak {best_corr:.4f} "
         f"at offset {best:+d}")
    report = {
        "x": x.name,
        "y": y.name,
        "max_offset": int(cfg.max_offset),
        "argmax_offset": int(best),
        "corr_at_argmax": float(best_corr),
        "corr_at_zero": None if zero is None else float(zero),
    }
    return report, ["leadlag.csv"]


def cmd_leadlag(cfg: RunConfig, series_x: str | None = None,
                series_y: str | None = None) -> int:
    out = _ensure_out(cfg)
    x, y = _leadlag_pair(cfg, series_x, series_y)
    _leadlag_stage(cfg, x, y, out)
    return 0


def _write_panel_a(path: str, columns, checks) -> None:
    by_name = {c.name: c for c in checks}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "n"] + list(_STAT_FIELDS)
                        + ["adf_stat", "adf_cv", "rejects_unit_root"])
        for series in columns:
            stats = summary_stats(series.values)
            check = by_name[series.name]
            stat_cell = "" if check.result is None else _fmt(check.result.stat)
            writer.writerow(
                [series.name, stats.n] + _stat_cells(stats)
                + [stat_cell, _fmt(check.critical_value), int(check.passes)])


def _write_panel_b(path: str, columns) -> None:
    matrix = pairwise_correlation(columns)
    names = [s.name for s in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable"] + names)
        for i, name in enumerate(names):
            cells = ["" if np.isnan(v) else _fmt(float(v)) for v in matrix[i]]
            writer.writerow([name] + cells)


def _index_quote_columns(cfg: RunConfig, fx: FxTable, fit, level: TimeSeries):
    """Differenced index level and weekly quotes over their common span."""
    if cfg.freq == "weekly" and fit.gap_periods and cfg.fill == "none":
        gaps = ", ".join(d.isoformat() for d in fit.gap_periods)
        raise ValidationError(
            f"index has gap periods ({gaps}); differencing across gaps is "
            f"not meaningful. Set fill=interpolate to bridge them."
        )
    columns = [level] + [
        _weekly_quote(fx, sym, cfg.resample_rule) for sym in _analysis_symbols(cfg)
    ]
    columns = _common_span(columns)
    return [difference(s, mode=cfg.diff_mode).rename(s.name) for s in columns]


def _granger_columns(cfg: RunConfig, series_kv) -> tuple[list[TimeSeries], str, str]:
    """The aligned columns to test plus the (cause, effect) pair.

    Explicit ``name=path`` series are used as-is; otherwise the columns are
    the differenced weekly index and quote series, testing coin -> index.
    """
    if series_kv:
        if len(series_kv) < 2:
            raise _UsageError("--series must be given at least twice (name=path)")
        columns = []
        for item in series_kv:
            name, sep, path = item.partition("=")
            if not sep or not name.strip() or not path.strip():
                raise _UsageError(f"--series expects name=path, got {item!r}")
            path = _require_file(path.strip(), f"series {name.strip()}")
            columns.append(TimeSeries.from_csv(path, name=name.strip(), freq=cfg.freq))
        columns = _common_span(columns)
        return columns, columns[0].name, columns[1].name
    dataset, fx = _load_dataset(cfg)
    if not cfg.coin:
        raise _UsageError("granger needs the coin key (or --series overrides)")
    _, fit, level, _ = _build_index(cfg, dataset)
    return _index_quote_columns(cfg, fx, fit, level), cfg.coin.upper(), "hpi"


def _granger_stage(cfg: RunConfig, columns, cause: str, effect: str, out: str):
    panel = build_panel(columns)
    spec = AdfSpec(n_lags=cfg.adf_lags)
    checks = stationarity_precheck(panel, spec=spec, alpha=cfg.adf_alpha,
                                   n_rep=cfg.n_rep, seed=cfg.seed)
    _write_panel_a(os.path.join(out, "granger_panel_a.csv"), columns, checks)
    _write_panel_b(os.path.join(out, "granger_panel_b.csv"), columns)
    for check in checks:
        verdict = "stationary" if check.passes else "NOT stationary"
        detail = f" ({check.error})" if check.error else ""
        _log(f"[granger] pre-check {check.name}: {verdict}{detail}")
    results = granger_table(panel, cause=cause, effect=effect,
                            p_max=cfg.p_max, both_specs=panel.n_vars > 2)
    granger_table_to_csv(results, os.path.join(out, "granger.csv"))
    for res in results:
        spec_label = "extended" if res.controls_included else "baseline"
        _log(f"[granger] {res.cause}->{res.effect} p={res.p} {spec_label}: "
             f"F={res.f_stat:.4f}, p-value={res.p_value:.4g}")
    report = {
        "variables": [s.name for s in columns],
        "cause": cause,
        "effect": effect,
        "n_rows": len(results),
        "rows": [
            {
                "lag": r.p,
                "controls": bool(r.controls_included),
                "direction": f"{r.cause}->{r.effect}",
                "f_stat": float(r.f_stat),
                "p_value": float(r.p_value),
                "df_num": int(r.df_num),
                "df_den": int(r.df_den),
                "n_obs": int(r.n_obs),
            }
            for r in results
        ],
        "stationarity": [
            {
                "name": c.name,
                "stat": None if c.result is None else float(c.result.stat),
                "cv": float(c.critical_value),
                "passes": bool(c.passes),
                "error": c.error,
            }
            for c in checks
        ],
    }
    files = ["granger_panel_a.csv", "granger_panel_b.csv", "granger.csv"]
    return report, files


def cmd_granger(cfg: RunConfig, series_kv=None) -> int:
    out = _ensure_out(cfg)
    columns, cause, effect = _granger_columns(cfg, series_kv)
    _granger_stage(cfg, columns, cause, effect, out)
    return 0


# -- simulate ---------------------------------------------------------------


def _write_transactions_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(TRANSACTION_COLUMNS))
        for row in rows:
            writer.writerow(list(row))


def _write_prices_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(PRICE_COLUMNS))
        for date_iso, symbol, price in rows:
            writer.writerow([date_iso, symbol, _fmt(float(price))])


def _parse_windows(tokens, length: int):
    if not tokens:
        return [(int(0.55 * length), int(0.70 * length))]
    windows = []
    for token in tokens:
        lo, sep, hi = token.partition(":")
        if not sep:
            raise _UsageError(f"--window expects start:end, got {token!r}")
        try:
            windows.append((int(lo), int(hi)))
        except ValueError as exc:
            raise _UsageError(f"--window expects integers, got {token!r}") from exc
    return windows


def _transactions_to_rows(transactions):
    rows = []
    for i, tx in enumerate(transactions, start=1):
        rows.append((
            tx.timestamp.isoformat(),
            _fmt(tx.native_price),
            tx.native_currency,
            str(tx.num_plots),
            f"h{i:05d}",
        ))
    return rows


def _flat_eth_price_rows(transactions, quote: float = 2000.0):
    days = sorted({tx.date for tx in transactions})
    first, last = days[0], days[-1]
    rows = []
    day = first
    while day <= last:
        rows.append((day.isoformat(), "ETH", quote))
        day += dt.timedelta(days=1)
    return rows


def cmd_simulate(args: argparse.Namespace) -> int:
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    seed = args.seed
    kind = args.kind
    truth: dict = {"kind": kind, "seed": seed}
    files: list[str] = []

    if kind == "walk":
        series = gen_random_walk(args.length, drift=args.drift, sigma=args.sigma,
                                 seed=seed)
        series.to_csv(os.path.join(out, "walk.csv"))
        files.append("walk.csv")
        truth.update(length=args.length, drift=args.drift, sigma=args.sigma)
    elif kind == "explosive":
        windows = _parse_windows(args.window, args.length)
        series, labels = gen_explosive(
            args.length, windows, rho=args.rho, sigma=args.sigma, seed=seed,
            start_level=args.start_level)
        series.to_csv(os.path.join(out, "explosive.csv"))
        files.append("explosive.csv")
        truth.update(length=args.length, rho=args.rho, sigma=args.sigma,
                     start_level=args.start_level,
                     windows=[list(w) for w in windows],
                     labels=[int(v) for v in labels])
    elif kind == "coupled":
        noise = 1.0 if args.noise is None else args.noise
        x, y = gen_coupled_pair(args.length, beta=args.beta, lag=args.lag,
                                noise=noise, seed=seed)
        x.to_csv(os.path.join(out, "coupled_x.csv"))
        y.to_csv(os.path.join(out, "coupled_y.csv"))
        files += ["coupled_x.csv", "coupled_y.csv"]
        truth.update(length=args.length, beta=args.beta, lag=args.lag, noise=noise)
    elif kind == "hedonic":
        noise = 0.0 if args.noise is None else args.noise
        deltas = [float(v) for v in args.deltas.split(",") if v.strip()]
        try:
            transactions, gen_truth = gen_hedonic_panel(
                deltas, n_per_period=args.n_per_period, beta_plots=args.beta_plots,
                beta_weth=args.beta_weth, noise=noise, seed=seed)
        except ValidationError as exc:
            raise _UsageError(str(exc)) from exc
        _write_transactions_csv(os.path.join(out, "transactions.csv"),
                                _transactions_to_rows(transactions))
        _write_prices_csv(os.path.join(out, "prices.csv"),
                          _flat_eth_price_rows(transactions))
        files += ["transactions.csv", "prices.csv"]
        truth.update(gen_truth)
        truth["eth_usd_quote"] = 2000.0
    elif kind == "market":
        sim = gen_market_dataset(n_weeks=args.weeks, seed=seed,
                                 metaverse=args.metaverse, coin=args.coin)
        _write_transactions_csv(os.path.join(out, "transactions.csv"), sim.tx_rows)
        _write_prices_csv(os.path.join(out, "prices.csv"), sim.price_rows)
        files += ["transactions.csv", "prices.csv"]
        truth.update(sim.truth)
    else:  # pragma: no cover - argparse choices guard this
        raise _UsageError(f"unknown kind {kind!r}")

    truth_path = os.path.join(out, "truth.json")
    with open(truth_path, "w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files.append("truth.json")
    _log(f"[simulate] {kind} -> {', '.join(files)} in {out}")
    return 0


# -- pipeline ---------------------------------------------------------------


def cmd_pipeline(cfg: RunConfig) -> int:
    if not cfg.coin:
        raise _UsageError("pipeline needs the coin key (the quote series "
                          "paired with the land market)")
    out = _ensure_out(cfg)
    report: dict = {
        "command": "pipeline",
        "config": canonical_config(cfg),
        "config_sha256": config_hash(cfg),
        "seed": cfg.seed,
        "status": "ok",
        "failed_stage": None,
        "error": None,
        "stages": {},
        "files": [],
    }
    files: list[str] = []
    stage = "ingest"
    try:
        # ingest ----------------------------------------------------------
        dataset, fx = _load_dataset(cfg)
        rejections_to_csv(dataset.rejected, os.path.join(out, "rejections.csv"))
        _write_tx_summary(dataset, os.path.join(out, "summary_transactions.csv"))
        _write_return_summary(fx, os.path.join(out, "summary_returns.csv"))
        files += ["rejections.csv", "summary_transactions.csv", "summary_returns.csv"]
        info = dataset.summary()
        report["stages"]["ingest"] = {
            "n_accepted": int(info["n"]),
            "n_rejected": len(dataset.rejected),
            "pct_weth": float(info["pct_weth"]),
            "coverage": [dataset.coverage[0].isoformat(),
                         dataset.coverage[1].isoformat()],
        }
        _log(f"[pipeline] ingest: {info['n']} accepted, "
             f"{len(dataset.rejected)} rejected")

        # hedonic index ----------------------------------------------------
        stage = "hpi"
        points, fit, level, fill_applied = _build_index(cfg, dataset)
        hpi_points_to_csv(points, os.path.join(out, "hpi.csv"))
        hedonic_fit_to_json(fit, os.path.join(out, "hpi_fit.json"))
        level.to_csv(os.path.join(out, "hpi_series.csv"))
        files += ["hpi.csv", "hpi_fit.json", "hpi_series.csv"]
        report["stages"]["hpi"] = {
            "n_periods": len(points),
            "base_period": fit.base_period.isoformat(),
            "gap_periods": [d.isoformat() for d in fit.gap_periods],
            "fill_applied": fill_applied,
            "beta_log_plots": fit.beta_log_plots,
            "se_log_plots": fit.se_log_plots,
            "beta_weth": fit.beta_weth,
            "se_weth": fit.se_weth,
            "n_obs": fit.n_obs,
        }
        _log(f"[pipeline] hpi: {len(points)} periods, "
             f"{len(fit.gap_periods)} gap(s), fill_applied={fill_applied}")

        # explosive stamping on the quote series ---------------------------
        stage = "bubble"
        targets = [fx.series(sym) for sym in _analysis_symbols(cfg)]
        bubble_report, bubble_files = _bubble_stage(cfg, targets, out)
        report["stages"]["bubble"] = bubble_report
        files += bubble_files

        # lead-lag between index level and quote level ---------------------
        stage = "leadlag"
        quote = _weekly_quote(fx, cfg.coin.upper(), cfg.resample_rule)
        leadlag_report, leadlag_files = _leadlag_stage(cfg, level, quote, out)
        report["stages"]["leadlag"] = leadlag_report
        files += leadlag_files

        # causality table ---------------------------------------------------
        stage = "granger"
        columns = _index_quote_columns(cfg, fx, fit, level)
        granger_report, granger_files = _granger_stage(
            cfg, columns, cfg.coin.upper(), "hpi", out)
        report["stages"]["granger"] = granger_report
        files += granger_files
    except LandmetricsError as exc:
        report["status"] = "failed"
        report["failed_stage"] = stage
        report["error"] = str(exc)
        report["files"] = sorted(set(files))
        _write_report(out, report)
        _log(f"[pipeline] FAILED at stage {stage}: partial outputs in {out}")
        raise

    report["files"] = sorted(set(files) | {"report.json"})
    _write_report(out, report)
    _log(f"[pipeline] ok: {len(report['files'])} files in {out} "
         f"(config {report['config_sha256'][:12]})")
    return 0


REPORT_DIGITS = 10


def _report_floats(obj):
    """Round every float in ``obj`` to ``REPORT_DIGITS`` significant digits.

    The report is meant to be byte-identical across numpy/scipy/BLAS
    versions, and their last few ULPs differ (scipy's ``betainc`` behind
    the Granger p-values, for one).  Ten digits sit inside
    ``f_tail_prob``'s documented 1e-10 accuracy.  A value lying on a
    rounding boundary can still flip its last digit; no finite rounding
    avoids that.  Non-finite floats and all other types pass through.
    """
    if isinstance(obj, float):
        return float(f"{obj:.{REPORT_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: _report_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_report_floats(v) for v in obj]
    return obj


def _write_report(out: str, report: dict) -> None:
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(_report_floats(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="flat key = value config file")
    for key, (_, default, help_text) in _KEYS.items():
        flag = "--" + key.replace("_", "-")
        if key == "log_prices":
            parser.add_argument(flag, dest=key, default=None,
                                action=argparse.BooleanOptionalAction,
                                help=f"{help_text} (default: {default})")
        else:
            parser.add_argument(flag, dest=key, metavar="V", default=None,
                                help=f"{help_text} (default: {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="landmetrics", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", metavar="command",
                                 parser_class=_Parser, required=True)

    for name, help_text in (
        ("summarize", "descriptive stats of transactions and daily returns"),
        ("bubble", "BSADF date-stamping against Monte-Carlo critical values"),
        ("hpi", "hedonic price index estimation"),
        ("leadlag", "lead-lag correlogram between two level series"),
        ("granger", "stationarity pre-check and causality table"),
        ("pipeline", "full run with a single JSON report"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_config_flags(sub)
        if name == "bubble":
            sub.add_argument("--series-file", metavar="FILE",
                             help="stamp this date,value CSV instead of quote series")
            sub.add_argument("--series-name", metavar="NAME",
                             help="label for --series-file outputs")
        if name == "leadlag":
            sub.add_argument("--series-x", metavar="FILE",
                             help="x series CSV (overrides the derived pair)")
            sub.add_argument("--series-y", metavar="FILE",
                             help="y series CSV (overrides the derived pair)")
        if name == "granger":
            sub.add_argument("--series", action="append", metavar="NAME=FILE",
                             help="test these aligned series instead of the "
                                  "derived panel; first two are the tested pair")

    sim = subs.add_parser("simulate", help="write synthetic fixtures with truth labels")
    sim.add_argument("--kind", required=True,
                     choices=("walk", "explosive", "coupled", "hedonic", "market"))
    sim.add_argument("--out-dir", default="out", metavar="DIR")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--length", type=int, default=300,
                     help="observations for walk/explosive/coupled")
    sim.add_argument("--weeks", type=int, default=60,
                     help="weeks of market data (market kind only)")
    sim.add_argument("--drift", type=float, default=0.0)
    sim.add_argument("--sigma", type=float, default=1.0)
    sim.add_argument("--rho", type=float, default=1.03,
                     help="explosive autoregressive root")
    sim.add_argument("--window", action="append", metavar="START:END",
                     help="explosive window, repeatable (default: one late window)")
    sim.add_argument("--start-level", type=float, default=50.0,
                     help="initial level of the explosive path")
    sim.add_argument("--beta", type=float, default=0.6,
                     help="coupling strength of the coupled pair")
    sim.add_argument("--lag", type=int, default=1,
                     help="coupling lag of the coupled pair")
    sim.add_argument("--noise", type=float, default=None,
                     help="noise scale (default: 1 for coupled, 0 for hedonic)")
    sim.add_argument("--deltas", default="0,0.3,-0.2", metavar="D0,D1,...",
                     help="hedonic period log effects; first must be 0")
    sim.add_argument("--n-per-period", type=int, default=50)
    sim.add_argument("--beta-plots", type=float, default=0.0)
    sim.add_argument("--beta-weth", type=float, default=0.0)
    sim.add_argument("--metaverse", default="voxland")
    sim.add_argument("--coin", default="VOX")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "simulate":
        return cmd_simulate(args)
    cfg = resolve_config(args)
    if args.command == "summarize":
        return cmd_summarize(cfg)
    if args.command == "bubble":
        return cmd_bubble(cfg, series_file=args.series_file,
                          series_name=args.series_name)
    if args.command == "hpi":
        return cmd_hpi(cfg)
    if args.command == "leadlag":
        return cmd_leadlag(cfg, series_x=args.series_x, series_y=args.series_y)
    if args.command == "granger":
        return cmd_granger(cfg, series_kv=args.series)
    if args.command == "pipeline":
        return cmd_pipeline(cfg)
    raise _UsageError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _dispatch(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
