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

Each analysis subcommand runs one stage of ``pipeline`` (``summarize`` runs
ingest) and writes that stage's files; reading transactions also writes
``rejections.csv``.  Only ``pipeline`` writes ``report.json``, and a failed
report lists every file the run wrote.

Configuration is a flat ``key = value`` text file; every key is also a
command-line flag (flags win).  Exit codes: 0 success, 1 usage error,
2 data validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import make_dataclass
from functools import cached_property

import numpy as np

from .bubbles import AdfSpec, bsadf_series, datestamp, default_min_window, \
    mc_critical_values
from .errors import InsufficientDataError, LandmetricsError, NumericalError, \
    ValidationError
from .hedonic import build_hpi, hpi_points_to_csv, hpi_to_series
from .ingest import FxTable, load_daily_prices, load_transactions, \
    prepare_dataset, rejections_to_csv, to_usd, PRICE_COLUMNS, TRANSACTION_COLUMNS
from .series import SummaryStats, TimeSeries, _fmt, difference, \
    fill_gaps_loglinear, lead_lag_correlation, pairwise_correlation, \
    require_positive, resample_weekly, restrict, summary_stats, write_csv, write_json
from .synthkit import SEED_BOUND, gen_coupled_pair, gen_explosive, gen_hedonic_panel, \
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


def _parse_path(text: str) -> str:
    """A path; a relative one in a config file resolves against its directory."""
    return text.strip()


def _choice(*allowed: str):
    """A parser that accepts one of ``allowed``."""
    def parse(text: str) -> str:
        value = text.strip()
        if value not in allowed:
            raise ValueError(f"must be one of {'/'.join(allowed)}, got {value!r}")
        return value
    return parse


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


def _parse_symbols(text: str) -> tuple:
    return tuple(p.strip().upper() for p in text.split(",") if p.strip())


def _parse_floats(text: str) -> tuple:
    return tuple(float(p) for p in text.split(",") if p.strip())


# key -> (parser, default, help line for --help and the README table); the parser
# also marks path keys (_parse_path) and on/off switches (_parse_bool)
_KEYS = {
    "transactions": (_parse_path, "", "path to the transactions CSV"),
    "prices": (_parse_path, "", "path to the daily prices CSV"),
    "out_dir": (_parse_path, "out", "directory for all output files"),
    "metaverse": (_parse_str, "land", "label of the land market being studied"),
    "coin": (_parse_str, "", "crypto symbol paired with the land market"),
    "market_symbols": (_parse_symbols, (), "comma-separated control symbols (e.g. BTC,ETH)"),
    "currencies": (_parse_symbols, (), "allowed settlement currencies (empty = any)"),
    "winsor_lo": (_parse_float, 0.001, "lower winsorization quantile for USD prices"),
    "winsor_hi": (_parse_float, 0.999, "upper winsorization quantile for USD prices"),
    "min_per_period": (_parse_int, 3, "minimum transactions per estimable index period"),
    "freq": (_choice("weekly", "daily"), "weekly", "index/panel frequency: weekly or daily"),
    "resample_rule": (_choice("last", "mean"), "last",
                      "weekly aggregation of daily prices: last or mean"),
    "diff_mode": (_choice("log", "simple"), "log", "differencing before the VAR: log or simple"),
    "fill": (_choice("none", "interpolate"), "none", "index gap policy: none or interpolate"),
    "log_prices": (_parse_bool, True, "date-stamp log prices instead of raw levels"),
    "r0": (_parse_opt_int, None, "minimum BSADF window (empty = rule-based default)"),
    "adf_lags": (_parse_int, 1, "differenced lags in the ADF regression"),
    "lag_selection": (_choice("fixed", "bic"), "fixed", "ADF lag choice: fixed or bic"),
    "alphas": (_parse_floats, (0.90, 0.95, 0.99), "critical-value quantiles, ascending"),
    "level": (_parse_float, 0.95, "flagging level; must be one of the alphas"),
    "n_rep": (_parse_int, 500, "Monte-Carlo replications for critical values"),
    "seed": (_parse_int, 0, "master seed for every simulated quantity, in [0, 2**63)"),
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
    except (OSError, UnicodeDecodeError) as exc:
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
            if parser is _parse_path and value and not os.path.isabs(value):
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
    _check_seed(cfg.seed)


def _check_seed(seed: int) -> None:
    if not 0 <= seed < SEED_BOUND:
        raise _UsageError(f"seed must lie in [0, 2**63), got {seed}")


def canonical_config(cfg: RunConfig) -> dict:
    """String form of every analysis-relevant key.

    Input paths are reduced to basenames and ``out_dir`` is omitted, so
    the run report is byte-identical when a fixture directory is
    relocated or the outputs are sent somewhere else, while still
    documenting which files fed the run.
    """
    out: dict[str, str] = {}
    for key, (parser, _, _) in sorted(_KEYS.items()):
        if key == "out_dir":
            continue
        value = getattr(cfg, key)
        if parser is _parse_path:
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
    # only the pipeline report hashes: importing hashlib loads OpenSSL, about
    # 3 MB of RSS that no other command needs
    import hashlib
    canon = canonical_config(cfg)
    text = "\n".join(f"{k}={v}" for k, v in canon.items())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _require_file(path: str, what: str) -> str:
    if not path:
        raise _UsageError(f"{what} input is required (set the {what} key or flag)")
    if not os.path.isfile(path):
        raise ValidationError(f"{what} file not found: {path}")
    return path


def _read_series(path: str, what: str, freq: str, name: str | None = None) -> TimeSeries:
    """A ``date,value`` CSV, named after its file unless ``name`` is given."""
    path = _require_file(path, what)
    name = name or os.path.splitext(os.path.basename(path))[0]
    return TimeSeries.from_csv(path, name=name, freq=freq)


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


def _stat_cells(stats: SummaryStats) -> list:
    return [getattr(stats, field) for field in _STAT_FIELDS]


def _write_return_summary(fx: FxTable, path: str) -> None:
    rows = []
    for symbol in fx.symbols:
        stats = summary_stats(difference(fx.series(symbol), mode="log").values)
        rows.append([symbol, stats.n] + _stat_cells(stats))
    write_csv(path, ["symbol", "n"] + list(_STAT_FIELDS), rows)


def _log_series(series: TimeSeries) -> TimeSeries:
    require_positive(series, "log transform")
    return TimeSeries(series.name, series.freq, series.dates,
                      np.log(series.values))


# ---------------------------------------------------------------------------
# the run: config, override flags, shared inputs, files written
# ---------------------------------------------------------------------------


class _Run:
    """State shared by the stages of one analysis command.

    Prices, transactions and the index are loaded at most once, on first
    use.  Every output goes through :meth:`path`, which records the file
    before it is written, so ``files`` lists everything the run has left
    on disk even when a stage fails halfway.
    """

    def __init__(self, cfg: RunConfig, args: argparse.Namespace):
        self.cfg = cfg
        self.args = args    # the command and its override flags
        self.files: set[str] = set()

    def path(self, name: str) -> str:
        self.files.add(name)
        return os.path.join(self.cfg.out_dir, name)

    @cached_property
    def fx(self) -> FxTable:
        return load_daily_prices(_require_file(self.cfg.prices, "prices"))

    @cached_property
    def dataset(self):
        """(validated, winsorized transactions in USD, rejected rows);
        loading them writes rejections.csv."""
        cfg = self.cfg
        tx_path = _require_file(cfg.transactions, "transactions")
        fx = self.fx
        rows, rejected = load_transactions(tx_path, frozenset(cfg.currencies) or None)
        converted, fx_rejected = to_usd(rows, fx)
        txs = prepare_dataset(converted, winsor_lo=cfg.winsor_lo, winsor_hi=cfg.winsor_hi)
        rejected += fx_rejected
        rejections_to_csv(rejected, self.path("rejections.csv"))
        return txs, rejected

    @cached_property
    def index(self):
        """(points, fit, level series after the gap policy, fill_applied).

        The index is at ``freq``; its gaps are ``fit.gap_periods``, which
        ``fill = interpolate`` fills on the index's own grid.
        """
        cfg = self.cfg
        points, fit = build_hpi(self.dataset[0], freq=cfg.freq,
                                min_per_period=cfg.min_per_period)
        level = hpi_to_series(points, name="hpi", freq=cfg.freq)
        fill_applied = bool(fit.gap_periods) and cfg.fill == "interpolate"
        if fill_applied:
            level = fill_gaps_loglinear(level)
        return points, fit, level, fill_applied

    def quotes(self, symbol: str) -> TimeSeries:
        """The symbol's daily quotes at the index frequency: resampled by
        ``resample_rule`` when that is weekly."""
        series = self.fx.series(symbol)
        if series.freq != self.cfg.freq:
            series = resample_weekly(series, rule=self.cfg.resample_rule)
        return series

    def coin_and_index(self, stage: str, overrides: str):
        """The quote symbol and the index, for a stage without overrides."""
        self.dataset  # an input error outranks a missing coin
        if not self.cfg.coin:
            raise _UsageError(f"{stage} needs the coin key (or {overrides})")
        return self.cfg.coin.upper(), self.index


# ---------------------------------------------------------------------------
# stages: each writes its files and returns its report fragment
# ---------------------------------------------------------------------------


def _ingest(run: _Run) -> dict:
    fragment: dict = {}
    # summarize may go without transactions; pipeline reports on them
    if run.cfg.transactions or run.args.command == "pipeline":
        txs, rejected = run.dataset
        pct_weth = 100.0 * int(np.count_nonzero(txs.paid_in_weth)) / len(txs)
        rows = [("n", len(txs)), ("pct_weth", pct_weth)]
        for label, values in (("usd_price", txs.usd_price),
                              ("num_plots", txs.num_plots.astype(np.float64))):
            stats = summary_stats(values)
            rows += [(f"{label}_{field}", getattr(stats, field)) for field in _STAT_FIELDS]
        path = run.path("summary_transactions.csv")
        write_csv(path, ["key", "value"], rows)
        _log(f"[ingest] {run.cfg.metaverse}: {len(txs)} accepted, "
             f"{len(rejected)} rejected -> {path}")
        day = txs.day
        fragment = {
            "n_accepted": len(txs),
            "n_rejected": len(rejected),
            "pct_weth": pct_weth,
            "coverage": [day.min().item().isoformat(), day.max().item().isoformat()],
        }
    fx = run.fx
    path = run.path("summary_returns.csv")
    _write_return_summary(fx, path)
    _log(f"[ingest] daily log returns for {', '.join(fx.symbols)} -> {path}")
    return fragment


def _hpi(run: _Run) -> dict:
    points, fit, level, fill_applied = run.index
    hpi_points_to_csv(points, run.path("hpi.csv"))
    fit_json = fit.to_json_dict()
    write_json(run.path("hpi_fit.json"), fit_json)
    level.to_csv(run.path("hpi_series.csv"))
    _log(f"[hpi] {len(points)} periods, base {fit.base_period.isoformat()}, "
         f"n_obs {fit.n_obs}, fill_applied={fill_applied}")
    if fit.gap_periods:
        gaps = ", ".join(d.isoformat() for d in fit.gap_periods)
        _log(f"[hpi] gap periods (under {run.cfg.min_per_period} transactions): {gaps}")
    del fit_json["rss"], fit_json["df_resid"]
    return fit_json | {"n_periods": len(points), "fill_applied": fill_applied}


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


def _bubble(run: _Run) -> dict:
    """Stamp the --series-file series, or else every analysis symbol's quotes."""
    cfg = run.cfg
    if run.args.series_file:
        targets = [_read_series(run.args.series_file, "series", "daily",
                                run.args.series_name)]
    else:
        fx = run.fx
        targets = [fx.series(sym) for sym in _analysis_symbols(cfg)]
    cv_cache: dict = {}
    fragment: dict = {}
    rows = []
    for series in targets:
        name = series.name
        result, table, r0 = _stamp_one(cfg, series, cv_cache)
        result.to_csv(run.path(f"bubble_{name}.csv"))
        result.episodes_to_csv(run.path(f"bubble_{name}_episodes.csv"))
        table.to_csv(run.path(f"cv_{name}.csv"))
        pct = 100.0 * result.pct_flagged
        episodes = [
            {"start": e.start.isoformat(), "end": e.end.isoformat(),
             "peak_stat": float(e.peak_stat)}
            for e in result.episodes
        ]
        fragment[name] = {
            "n_points": int(len(result.dates)),
            "r0": int(r0),
            "level": float(cfg.level),
            "pct_flagged": pct,
            "n_episodes": len(result.episodes),
            "episodes": episodes,
        }
        rows.append((name, pct, len(result.episodes)))
        _log(f"[bubble] {name}: {pct:.2f}% of dates flagged, "
             f"{len(result.episodes)} episode(s)")
    write_csv(run.path("bubble_summary.csv"), ["symbol", "pct_flagged", "n_episodes"], rows)
    return fragment


def _leadlag(run: _Run) -> dict:
    """Correlogram of --series-x/--series-y, or else of the index against the coin."""
    cfg = run.cfg
    series_x, series_y = run.args.series_x, run.args.series_y
    if bool(series_x) != bool(series_y):
        raise _UsageError("--series-x and --series-y must be given together")
    if series_x:
        x = _read_series(series_x, "series-x", cfg.freq)
        y = _read_series(series_y, "series-y", cfg.freq)
    else:
        coin, (_, _, x, _) = run.coin_and_index("leadlag", "--series-x/--series-y")
        y = run.quotes(coin)
    x, y = _common_span([x, y])
    gram = lead_lag_correlation(x, y, max_lag=cfg.max_offset)
    best = gram.argmax_offset()
    best_corr = gram.entry(best).corr
    zero = gram.entry(0).corr
    gram.to_csv(run.path("leadlag.csv"))
    _log(f"[leadlag] corr({x.name}_t, {y.name}_t-k): peak {best_corr:.4f} "
         f"at offset {best:+d}")
    return {
        "x": x.name,
        "y": y.name,
        "max_offset": int(cfg.max_offset),
        "argmax_offset": int(best),
        "corr_at_argmax": float(best_corr),
        "corr_at_zero": None if zero is None else float(zero),
    }


def _write_panel_a(path: str, columns, checks) -> None:
    by_name = {c.name: c for c in checks}
    rows = []
    for series in columns:
        stats = summary_stats(series.values)
        check = by_name[series.name]
        stat = None if check.result is None else check.result.stat
        rows.append([series.name, stats.n] + _stat_cells(stats)
                    + [stat, check.critical_value, check.passes])
    write_csv(path, ["variable", "n"] + list(_STAT_FIELDS)
              + ["adf_stat", "adf_cv", "rejects_unit_root"], rows)


def _write_panel_b(path: str, columns) -> None:
    matrix = pairwise_correlation(columns)
    names = [s.name for s in columns]
    write_csv(path, ["variable"] + names, ([name, *matrix[i]] for i, name in enumerate(names)))


def _granger_columns(run: _Run) -> tuple[list[TimeSeries], str, str]:
    """The aligned columns to test plus the (cause, effect) pair.

    Explicit ``name=path`` series are used as-is; otherwise the columns are
    the differenced index and quote series at ``freq``, testing coin -> index.
    """
    cfg = run.cfg
    if run.args.series:
        if len(run.args.series) < 2:
            raise _UsageError("--series must be given at least twice (name=path)")
        columns = []
        for item in run.args.series:
            name, sep, path = item.partition("=")
            if not sep or not name.strip() or not path.strip():
                raise _UsageError(f"--series expects name=path, got {item!r}")
            columns.append(_read_series(path.strip(), f"series {name.strip()}",
                                        cfg.freq, name.strip()))
        columns = _common_span(columns)
        return columns, columns[0].name, columns[1].name
    coin, (_, fit, level, _) = run.coin_and_index("granger", "--series overrides")
    if fit.gap_periods and cfg.fill == "none":
        gaps = ", ".join(d.isoformat() for d in fit.gap_periods)
        raise ValidationError(
            f"index has gap periods ({gaps}); differencing across gaps is "
            f"not meaningful. Set fill=interpolate to bridge them."
        )
    columns = [level] + [run.quotes(sym) for sym in _analysis_symbols(cfg)]
    columns = _common_span(columns)
    columns = [difference(s, mode=cfg.diff_mode).rename(s.name) for s in columns]
    return columns, coin, "hpi"


def _granger(run: _Run) -> dict:
    cfg = run.cfg
    columns, cause, effect = _granger_columns(run)
    panel = build_panel(columns)
    spec = AdfSpec(n_lags=cfg.adf_lags)
    checks = stationarity_precheck(panel, spec=spec, alpha=cfg.adf_alpha,
                                   n_rep=cfg.n_rep, seed=cfg.seed)
    _write_panel_a(run.path("granger_panel_a.csv"), columns, checks)
    _write_panel_b(run.path("granger_panel_b.csv"), columns)
    for check in checks:
        verdict = "stationary" if check.passes else "NOT stationary"
        detail = f" ({check.error})" if check.error else ""
        _log(f"[granger] pre-check {check.name}: {verdict}{detail}")
    results = granger_table(panel, cause=cause, effect=effect,
                            p_max=cfg.p_max, both_specs=panel.n_vars > 2)
    granger_table_to_csv(results, run.path("granger.csv"))
    for res in results:
        spec_label = "extended" if res.controls_included else "baseline"
        _log(f"[granger] {res.cause}->{res.effect} p={res.p} {spec_label}: "
             f"F={res.f_stat:.4f}, p-value={res.p_value:.4g}")
    return {
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


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


# stage name (also its key under report["stages"]) -> stage function
_STAGES = {"ingest": _ingest, "hpi": _hpi, "bubble": _bubble,
           "leadlag": _leadlag, "granger": _granger}

# analysis command -> the stages it runs, in order
_COMMANDS = {"summarize": ("ingest",), "hpi": ("hpi",), "bubble": ("bubble",),
             "leadlag": ("leadlag",), "granger": ("granger",),
             "pipeline": tuple(_STAGES)}


def run_command(args: argparse.Namespace) -> int:
    """Run an analysis command's stages; ``pipeline`` also writes report.json."""
    cfg = resolve_config(args)
    if args.command == "summarize" and not (cfg.transactions or cfg.prices):
        raise _UsageError("summarize needs a transactions and/or prices input")
    if args.command == "pipeline" and not cfg.coin:
        raise _UsageError("pipeline needs the coin key (the quote series "
                          "paired with the land market)")
    os.makedirs(cfg.out_dir, exist_ok=True)
    run = _Run(cfg, args)
    fragments: dict = {}
    for stage in _COMMANDS[args.command]:
        try:
            fragments[stage] = _STAGES[stage](run)
        except LandmetricsError as exc:
            if args.command == "pipeline":
                _write_pipeline_report(run, fragments, failed_stage=stage, error=exc)
            raise
    if args.command == "pipeline":
        _write_pipeline_report(run, fragments)
    return 0


def _write_pipeline_report(run: _Run, fragments: dict, failed_stage: str | None = None,
                           error: LandmetricsError | None = None) -> None:
    cfg = run.cfg
    files = run.files if failed_stage else run.files | {"report.json"}
    report = {
        "command": "pipeline",
        "config": canonical_config(cfg),
        "config_sha256": config_hash(cfg),
        "seed": cfg.seed,
        "status": "failed" if failed_stage else "ok",
        "failed_stage": failed_stage,
        "error": None if error is None else str(error),
        "stages": fragments,
        "files": sorted(files),
    }
    _write_report(cfg.out_dir, report)
    if failed_stage:
        _log(f"[pipeline] FAILED at stage {failed_stage}: partial outputs in {cfg.out_dir}")
    else:
        _log(f"[pipeline] ok: {len(report['files'])} files in {cfg.out_dir} "
             f"(config {report['config_sha256'][:12]})")


REPORT_DIGITS = 10


def _report_floats(obj):
    """Round every float in ``obj`` to ``REPORT_DIGITS`` significant digits.

    The report is meant to be byte-identical across numpy/BLAS versions,
    and their last few ULPs differ (in the Granger F statistics that
    ``linreg``'s own incomplete beta maps to p-values, for one).  Ten
    digits sit inside ``f_tail_prob``'s documented 1e-10 accuracy.  A
    value lying on a rounding boundary can still flip its last digit; no
    finite rounding avoids that.  Non-finite floats and all other types
    pass through.
    """
    if isinstance(obj, float):
        return float(f"{obj:.{REPORT_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: _report_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_report_floats(v) for v in obj]
    return obj


def _write_report(out: str, report: dict) -> None:
    write_json(os.path.join(out, "report.json"), _report_floats(report))


# -- simulate ---------------------------------------------------------------


def _sales_writers(tx_rows, price_rows) -> dict:
    """Writers of transactions.csv and prices.csv, by file name."""
    return {"transactions.csv": lambda path: write_csv(path, TRANSACTION_COLUMNS, tx_rows),
            "prices.csv": lambda path: write_csv(path, PRICE_COLUMNS, price_rows)}


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


def _transactions_to_rows(table):
    symbols = [table.symbols[c] for c in table.currency.tolist()]
    tx_ids = [f"h{i:05d}" for i in range(1, len(table) + 1)]
    return zip(table.timestamp.tolist(), table.native_price.tolist(), symbols,
               table.num_plots.tolist(), tx_ids)


def _flat_eth_price_rows(table, quote: float = 2000.0):
    days = np.arange(table.day.min(), table.day.max() + 1)
    return [(day, "ETH", quote) for day in days.tolist()]


def cmd_simulate(args: argparse.Namespace) -> int:
    """Generate the fixture, then create ``--out-dir`` and write it there."""
    _check_seed(args.seed)
    out = args.out_dir
    seed = args.seed
    kind = args.kind
    truth: dict = {"kind": kind, "seed": seed}

    # file name -> writer taking the file's path
    if kind == "walk":
        series = gen_random_walk(args.length, drift=args.drift, sigma=args.sigma,
                                 seed=seed)
        writers = {"walk.csv": series.to_csv}
        truth.update(length=args.length, drift=args.drift, sigma=args.sigma)
    elif kind == "explosive":
        windows = _parse_windows(args.window, args.length)
        series, labels = gen_explosive(
            args.length, windows, rho=args.rho, sigma=args.sigma, seed=seed,
            start_level=args.start_level)
        writers = {"explosive.csv": series.to_csv}
        truth.update(length=args.length, rho=args.rho, sigma=args.sigma,
                     start_level=args.start_level,
                     windows=[list(w) for w in windows],
                     labels=[int(v) for v in labels])
    elif kind == "coupled":
        noise = 1.0 if args.noise is None else args.noise
        x, y = gen_coupled_pair(args.length, beta=args.beta, lag=args.lag,
                                noise=noise, seed=seed)
        writers = {"coupled_x.csv": x.to_csv, "coupled_y.csv": y.to_csv}
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
        writers = _sales_writers(_transactions_to_rows(transactions),
                                 _flat_eth_price_rows(transactions))
        truth.update(gen_truth)
        truth["eth_usd_quote"] = 2000.0
    elif kind == "market":
        sim = gen_market_dataset(n_weeks=args.weeks, seed=seed,
                                 metaverse=args.metaverse, coin=args.coin)
        writers = _sales_writers(sim.tx_rows, sim.price_rows)
        truth.update(sim.truth)
    else:  # pragma: no cover - argparse choices guard this
        raise _UsageError(f"unknown kind {kind!r}")

    writers["truth.json"] = lambda path: write_json(path, truth)
    os.makedirs(out, exist_ok=True)
    for name, write in writers.items():
        write(os.path.join(out, name))
    _log(f"[simulate] {kind} -> {', '.join(writers)} in {out}")
    return 0


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
    for key, (parse, default, help_text) in _KEYS.items():
        flag = "--" + key.replace("_", "-")
        if parse is _parse_bool:
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
        # every stage can read every override flag; unset unless added below
        sub.set_defaults(series_file=None, series_name=None, series_x=None,
                         series_y=None, series=None)
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "simulate":
            return cmd_simulate(args)
        return run_command(args)
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
