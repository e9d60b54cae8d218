"""CSV ingestion, USD conversion, and dataset preparation tests."""

import datetime as dt
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landmetrics import ingest
from landmetrics.cli import main
from landmetrics.errors import (
    InsufficientDataError,
    SchemaError,
    ValidationError,
)
from landmetrics.ingest import (
    STABLE_CURRENCIES,
    FxTable,
    load_daily_prices,
    load_transactions,
    prepare_dataset,
    rejections_to_csv,
    to_usd,
)
from landmetrics.hedonic import TransactionTable
from landmetrics.series import summary_stats

from oracles import load_transactions_oracle, to_usd_oracle, winsorize_oracle

TX_HEADER = "timestamp,native_price,currency,num_plots,tx_id"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


@pytest.fixture
def tx_file(tmp_path):
    rows = [
        TX_HEADER,
        "2021-01-04T12:00:00,2.0,ETH,1,t1",
        "2021-01-05T09:30:00Z,5.0,wEth,2,t2",
        "2021-01-06T00:00:00,100.0,USDC,1,t3",
        "not-a-time,1.0,ETH,1,t4",
        "2021-01-07T00:00:00,abc,ETH,1,t5",
        "2021-01-07T01:00:00,-3.0,ETH,1,t6",
        "2021-01-07T02:00:00,1.0,ETH,x,t7",
        "2021-01-07T03:00:00,1.0,ETH,0,t8",
        "2021-01-07T04:00:00,1.0,,1,t9",
        "2021-01-07T05:00:00,1.0,ETH",
    ]
    return write(tmp_path, "tx.csv", "\n".join(rows) + "\n")


@pytest.fixture
def fx():
    quotes = {}
    for i, px in enumerate((1000.0, 1100.0, 1200.0, 1300.0)):
        quotes[(dt.date(2021, 1, 4) + dt.timedelta(days=i), "ETH")] = px
    return FxTable(quotes=quotes)


# ---------------------------------------------------------------------------
# load_transactions
# ---------------------------------------------------------------------------


def test_accepted_rows_match_field_splitting_oracle(tx_file):
    rows, rejected = load_transactions(tx_file)
    text = tx_file.read_text().splitlines()
    assert rows.line.tolist() == [2, 3, 4]
    for i, line in enumerate(rows.line.tolist()):
        fields = text[line - 1].split(",")
        assert rows.native_price[i] == float(fields[1])
        assert rows.symbols[rows.currency[i]] == fields[2].upper()
        assert rows.num_plots[i] == int(fields[3])


def test_rejection_reasons_and_line_numbers(tx_file):
    rows, rejected = load_transactions(tx_file)
    assert len(rows) == 3
    got = {(r.line, r.reason) for r in rejected}
    assert got == {
        (5, "bad timestamp"),
        (6, "bad price"),
        (7, "price <= 0"),
        (8, "bad plot count"),
        (9, "plot count < 1"),
        (10, "missing currency"),
        (11, "missing fields"),
    }


def test_count_conservation(tx_file):
    rows, rejected = load_transactions(tx_file)
    n_data_lines = len(tx_file.read_text().splitlines()) - 1
    assert len(rows) + len(rejected) == n_data_lines


def test_timestamps_normalized_to_utc(tx_file):
    rows, _ = load_transactions(tx_file)
    t2 = rows.timestamp[rows.line == 3].item()
    assert t2 == dt.datetime(2021, 1, 5, 9, 30)
    assert t2.tzinfo is None


def test_currency_whitelist(tx_file):
    rows, rejected = load_transactions(tx_file, frozenset({"ETH"}))
    assert rows.line.tolist() == [2]
    assert sum(1 for r in rejected if r.reason == "unknown currency") == 2


def test_header_permutation_and_extras_tolerated(tmp_path):
    p = write(
        tmp_path,
        "t.csv",
        "tx_id,num_plots,extra,currency,native_price,timestamp\n"
        "t1,3,zzz,ETH,1.5,2021-01-04T00:00:00\n",
    )
    rows, rejected = load_transactions(p)
    assert len(rows) == 1 and not rejected
    assert rows.num_plots.tolist() == [3]
    assert rows.native_price.tolist() == [1.5]


def test_missing_column_is_schema_error(tmp_path):
    p = write(tmp_path, "t.csv", "timestamp,native_price,currency,num_plots\na,b,c,d\n")
    with pytest.raises(SchemaError, match="tx_id"):
        load_transactions(p)
    empty = write(tmp_path, "e.csv", "")
    with pytest.raises(SchemaError, match="empty"):
        load_transactions(empty)


def test_header_only_file_gives_empty_lists(tmp_path):
    p = write(tmp_path, "t.csv", TX_HEADER + "\n")
    rows, rejected = load_transactions(p)
    assert len(rows) == 0 and rejected == []


def test_blank_lines_skipped(tmp_path):
    p = write(
        tmp_path,
        "t.csv",
        TX_HEADER + "\n\n2021-01-04T00:00:00,1.0,ETH,1,t1\n,,,,\n",
    )
    rows, rejected = load_transactions(p)
    assert len(rows) == 1 and not rejected


# ---------------------------------------------------------------------------
# load_daily_prices / FxTable
# ---------------------------------------------------------------------------


def test_price_loading_happy_path(tmp_path):
    p = write(
        tmp_path,
        "px.csv",
        "date,symbol,usd_price\n"
        "2021-01-05,eth,1100.5\n"
        "2021-01-04,ETH,1000.0\n"
        "2021-01-04,VOX,2.5\n",
    )
    fx = load_daily_prices(p)
    assert fx.quote(dt.date(2021, 1, 4), "ETH") == 1000.0
    assert fx.quote(dt.date(2021, 1, 5), "eth") == 1100.5
    assert fx.quote(dt.date(2021, 1, 9), "ETH") is None
    assert fx.symbols == ("ETH", "VOX")
    s = fx.series("eth")
    assert s.name == "ETH"
    assert s.dates == (dt.date(2021, 1, 4), dt.date(2021, 1, 5))
    with pytest.raises(ValidationError, match="no quotes"):
        fx.series("BTC")


def test_duplicate_quote_rejected(tmp_path):
    p = write(
        tmp_path,
        "px.csv",
        "date,symbol,usd_price\n2021-01-04,ETH,1000\n2021-01-04,ETH,1001\n",
    )
    with pytest.raises(ValidationError, match="line 3.*duplicate"):
        load_daily_prices(p)


def test_nonpositive_or_malformed_price_rejected(tmp_path):
    p = write(tmp_path, "px.csv", "date,symbol,usd_price\n2021-01-04,ETH,0\n")
    with pytest.raises(ValidationError, match="non-positive"):
        load_daily_prices(p)
    q = write(tmp_path, "px2.csv", "date,symbol,usd_price\nJan 4,ETH,5\n")
    with pytest.raises(ValidationError, match="line 2"):
        load_daily_prices(q)


# ---------------------------------------------------------------------------
# to_usd
# ---------------------------------------------------------------------------


def test_usd_conversion_values(tx_file, fx):
    rows, _ = load_transactions(tx_file)
    with pytest.raises(ValidationError, match="USD"):
        prepare_dataset(rows)
    txs, rejected = to_usd(rows, fx)
    assert not rejected
    # wETH settles at the ETH quote; USDC at exactly 1.0, with no quote needed
    assert txs.usd_price.tolist() == [2.0 * 1000.0, 5.0 * 1100.0, 100.0]
    assert txs.paid_in_weth.tolist() == [False, True, False]
    assert [txs.symbols[c] for c in txs.currency] == ["ETH", "WETH", "USDC"]


def test_missing_quote_rejects_row(fx):
    row = TransactionTable(
        timestamp=[np.datetime64("2020-12-25T12:00")],
        native_price=[1.0],
        num_plots=[1],
        currency=[0],
        symbols=("ETH",),
        line=[42],
    )
    txs, rejected = to_usd(row, fx)
    assert len(txs) == 0
    assert rejected[0].line == 42
    assert rejected[0].reason == "no fx for date"


def test_usd_conversion_is_linear_in_fx(tx_file, fx):
    rows, _ = load_transactions(tx_file)
    non_stable = rows[np.array(rows.symbols)[rows.currency] != "USDC"]
    base, _ = to_usd(non_stable, fx)
    scaled_fx = FxTable(quotes={k: 3.0 * v for k, v in fx.quotes.items()})
    scaled, _ = to_usd(non_stable, scaled_fx)
    assert scaled.usd_price == pytest.approx(3.0 * base.usd_price, rel=1e-12)


#: stablecoins, wETH at the ETH quote, and two coins with quotes of their own
TO_USD_SYMBOLS = ("ETH", "WETH", "USDC", "DAI", "USDT", "SAND")
#: days around the quotes, and far off at either end of the calendar
TO_USD_DAYS = st.one_of(
    st.integers(0, 40).map(lambda i: dt.date(2021, 1, 4) + dt.timedelta(days=i)),
    st.sampled_from([dt.date(1, 1, 1), dt.date(1, 1, 2), dt.date(9999, 12, 31)]))


def _usd_case(sales):
    """(table, oracle rows) of (day, hour, currency code, price) sales."""
    stamps = [dt.datetime(d.year, d.month, d.day, hour) for d, hour, _, _ in sales]
    codes = [code for _, _, code, _ in sales]
    prices = [price for _, _, _, price in sales]
    rows = TransactionTable(
        timestamp=np.array(stamps, "datetime64[us]"), native_price=prices,
        num_plots=np.ones(len(sales)), currency=codes, symbols=TO_USD_SYMBOLS,
        line=np.arange(1, len(sales) + 1))
    oracle_rows = [(i + 1, ts, price, TO_USD_SYMBOLS[code], 1)
                   for i, (ts, code, price) in enumerate(zip(stamps, codes, prices))]
    return rows, oracle_rows


def _assert_usd_matches_oracle(rows, oracle_rows, quotes):
    txs, rejected = to_usd(rows, FxTable(quotes=quotes))
    want_txs, want_rejected = to_usd_oracle(oracle_rows, quotes, STABLE_CURRENCIES)
    assert [(r.line, r.reason) for r in rejected] == want_rejected
    assert list(zip(txs.line.tolist(), txs.usd_price.tolist(),
                    txs.paid_in_weth.tolist())) == want_txs


@given(sales=st.lists(st.tuples(TO_USD_DAYS, st.integers(0, 23),
                                st.integers(0, len(TO_USD_SYMBOLS) - 1),
                                st.floats(1e-3, 1e3)), max_size=40),
       quoted=st.dictionaries(st.tuples(TO_USD_DAYS, st.sampled_from(["ETH", "SAND"])),
                              st.floats(1e-2, 1e5), max_size=30))
@settings(max_examples=200)
def test_to_usd_matches_the_oracle(sales, quoted):
    rows, oracle_rows = _usd_case(sales)
    _assert_usd_matches_oracle(rows, oracle_rows, quoted)


def test_far_dates_leave_to_usd_memory_bounded_by_the_sales():
    # 0001-01-01 to 9999-12-31 are 3.65 million days: 29 MB for one float64
    # table over them
    near = [(dt.date(2021, 1, 4) + dt.timedelta(days=i % 4), 12, i % 2, 1.0 + i)
            for i in range(16)]
    far = [(dt.date(1, 1, 1), 0, 0, 2.0), (dt.date(9999, 12, 31), 23, 1, 3.0)]
    rows, oracle_rows = _usd_case(far[:1] + near + far[1:])
    quotes = {(dt.date(2021, 1, 4) + dt.timedelta(days=i), "ETH"): 1000.0 + i for i in range(3)}
    quotes[(dt.date(9999, 12, 31), "ETH")] = 5.0
    tracemalloc.start()
    try:
        to_usd(rows, FxTable(quotes=quotes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000 * len(rows)
    _assert_usd_matches_oracle(rows, oracle_rows, quotes)


# ---------------------------------------------------------------------------
# prepare_dataset
# ---------------------------------------------------------------------------


def _transactions(prices, start=dt.date(2021, 1, 4)):
    """ETH sales in USD at 10:00, one a day over a 30-day cycle."""
    usd = np.asarray(prices, np.float64)
    days = np.datetime64(start) + np.arange(len(usd)) % 30
    return TransactionTable(
        timestamp=days + np.timedelta64(10, "h"), native_price=usd / 2000.0,
        num_plots=np.ones(len(usd)), currency=np.zeros(len(usd)), symbols=("ETH",),
        line=np.zeros(len(usd)), usd_price=usd)


def test_prepare_identity_when_no_outliers():
    txs = _transactions(np.linspace(100.0, 200.0, 50))
    prepared = prepare_dataset(txs, winsor_lo=0.0, winsor_hi=1.0)
    assert prepared.usd_price.tolist() == txs.usd_price.tolist()
    assert prepared.timestamp.tolist() == txs.timestamp.tolist()


def test_prepare_clamps_planted_outlier():
    prices = np.concatenate([np.linspace(100.0, 200.0, 99), [1e9]])
    txs = _transactions(prices)
    prepared = prepare_dataset(txs, winsor_lo=0.001, winsor_hi=0.999)
    expected = winsorize_oracle(prices.tolist(), 0.001, 0.999)
    got = prepared.usd_price.tolist()
    assert got == pytest.approx(expected, rel=1e-12)
    assert max(got) < 1e6
    assert len(prepared) == 100  # clamped, never dropped


def test_prepare_is_fixed_point():
    rng = np.random.default_rng(44)
    txs = _transactions(rng.lognormal(5.0, 1.0, size=200))
    once = prepare_dataset(txs)
    twice = prepare_dataset(once)
    assert once.usd_price.tolist() == twice.usd_price.tolist()


def test_prepare_needs_ten_transactions():
    with pytest.raises(InsufficientDataError):
        prepare_dataset(_transactions([100.0] * 9))


def test_dataset_summary_matches_stats(tmp_path):
    # summarize writes the stats of the winsorized USD prices
    assert main(["simulate", "--kind", "hedonic", "--seed", "3", "--deltas", "0,0.1,0.2",
                 "--n-per-period", "20", "--beta-weth", "-0.05", "--noise", "0.3",
                 "--out-dir", str(tmp_path)]) == 0
    tx_path, prices_path = tmp_path / "transactions.csv", tmp_path / "prices.csv"
    assert main(["summarize", "--transactions", str(tx_path), "--prices", str(prices_path),
                 "--winsor-lo", "0.05", "--winsor-hi", "0.95",
                 "--out-dir", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "summary_transactions.csv").read_text().splitlines()
    assert lines[0] == "key,value"
    written = dict(line.split(",") for line in lines[1:])
    rows, _ = load_transactions(tx_path)
    txs, _ = to_usd(rows, load_daily_prices(prices_path))
    prepared = prepare_dataset(txs, winsor_lo=0.05, winsor_hi=0.95)
    assert int(written["n"]) == len(prepared) == 60
    n_weth = np.count_nonzero(prepared.paid_in_weth)
    assert float(written["pct_weth"]) == 100.0 * n_weth / len(prepared)
    assert 0.0 < float(written["pct_weth"]) < 100.0
    direct = summary_stats(prepared.usd_price)
    assert direct.max < txs.usd_price.max()
    for field in ("mean", "std_dev", "min", "p5", "p50", "p95", "max"):
        assert float(written[f"usd_price_{field}"]) == getattr(direct, field)
    plots = summary_stats(prepared.num_plots.astype(np.float64))
    assert float(written["num_plots_max"]) == plots.max


def test_rejections_csv(tmp_path, tx_file):
    _, rejected = load_transactions(tx_file)
    p = tmp_path / "rej.csv"
    rejections_to_csv(rejected, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "line,reason"
    assert len(lines) == 8
    assert lines[1] == "5,bad timestamp"


# ---------------------------------------------------------------------------
# parity with the row-by-row reference
# ---------------------------------------------------------------------------

ADVERSARIAL_ROWS = [
    "timestamp,native_price,currency,num_plots,tx_id,note",
    "2021-01-04T12:00:00Z,2.0,ETH,1,a,x",
    "2021-01-05T01:00:00+02:00,1.5,eth,2,b,x",        # 2021-01-04 23:00 UTC
    "2021-01-05T01:00:00+05:00,1.5,ETH,2,c,x",        # 2021-01-04 20:00 UTC
    "2021-01-04T01:00:00+05:00,1.5,ETH,2,d,x",        # 2021-01-03: no quote
    "",
    "   ",
    ",,,,,",
    "2021-01-04T12:00:00,1.0,ETH",                    # short row
    "2021-01-04T12:00:00,1.0,ETH,1,e",                # short of the note column
    "2021-01-04T12:00:00,1.0,ETH,1,f,x,y,z",          # extra columns
    "yesterday,1.0,ETH,1,g,x",
    "2021-01-04 12:00:00,3.0,ETH,1,h,x",
    "2021-01-06,3.0,ETH,1,i,x",
    "2021-01-04T12:00:00.123456,3.0,ETH,1,j,x",
    "2021-01-04T12:00:00,abc,ETH,1,k,x",
    "2021-01-04T12:00:00,1_000,ETH,1,l,x",
    "2021-01-04T12:00:00, 2.5 ,ETH,1,m,x",
    "2021-01-04T12:00:00,nan,ETH,1,n,x",
    "2021-01-04T12:00:00,inf,ETH,1,o,x",
    "2021-01-04T12:00:00,-0,ETH,1,p,x",
    "2021-01-04T12:00:00,0,ETH,1,q,x",
    "2021-01-04T12:00:00,1.0,ETH, 3 ,r,x",
    "2021-01-04T12:00:00,1.0,ETH,x,s,x",
    "2021-01-04T12:00:00,1.0,ETH,1.5,t,x",
    "2021-01-04T12:00:00,1.0,ETH,0,u,x",
    "2021-01-04T12:00:00,1.0,ETH,-2,v,x",
    "2021-01-04T12:00:00,-1.0,ETH,x,w,x",             # price check comes first
    "bad,abc,,0,x,x",                                 # timestamp check comes first
    "2021-01-04T12:00:00,1.0,,1,y,x",
    "2021-01-04T12:00:00,1.0,  ,1,z,x",
    "2021-01-04T12:00:00,4.0,weth,2,aa,x",
    "2021-01-04T12:00:00,250.0,usdc,1,ab,x",
    "2021-01-04T12:00:00,7.0,DOGE,1,ac,x",
    "2021-02-01T12:00:00,1.0,ETH,1,ad,x",             # no quote that day
    "2021-02-01T12:00:00,1.0,WETH,1,ae,x",
    "2021-02-01T12:00:00,1.0,USDC,1,af,x",            # stable: needs no quote
    "2021-01-08T23:59:59,1.25,ETH,4,ag,x",
]


@pytest.mark.parametrize("currencies", [None, frozenset({"ETH", "WETH", "USDC"})])
def test_ingest_matches_row_by_row_oracle(tmp_path, currencies):
    path = write(tmp_path, "adv.csv", "\n".join(ADVERSARIAL_ROWS) + "\n")
    quotes = {(dt.date(2021, 1, 4) + dt.timedelta(days=i), "ETH"): 1000.0 + 37.5 * i
              for i in range(5)}
    rows, rejected = load_transactions(path, currencies)
    txs, fx_rejected = to_usd(rows, FxTable(quotes=quotes))

    want_rows, want_rejected = load_transactions_oracle(path, currencies)
    want_txs, want_fx_rejected = to_usd_oracle(want_rows, quotes, STABLE_CURRENCIES)
    assert [(r.line, r.reason) for r in rejected] == want_rejected
    assert [(r.line, r.reason) for r in fx_rejected] == want_fx_rejected
    assert list(zip(rows.line.tolist(), rows.timestamp.astype(object),
                    rows.native_price.tolist(),
                    [rows.symbols[c] for c in rows.currency.tolist()],
                    rows.num_plots.tolist())) == want_rows
    assert list(zip(txs.line.tolist(), txs.usd_price.tolist(),
                    txs.paid_in_weth.tolist())) == want_txs
    # every check fires somewhere in the file
    reasons = {reason for _, reason in want_rejected + want_fx_rejected}
    assert len(reasons) == (9 if currencies else 8)
    assert len(rows) + len(rejected) == len(ADVERSARIAL_ROWS) - 4


def test_line_numbers_count_file_lines_after_a_multi_line_record(tmp_path):
    p = write(tmp_path, "t.csv", TX_HEADER + '\n2021-01-04T00:00:00,1.0,ETH,1,"a\nb"\n'
              "2021-01-04T00:00:00,-1,ETH,1,t2\n\n2021-01-04T00:00:00,2,ETH,x,t3\n")
    rows, rejected = load_transactions(p)
    want_rows, want_rejected = load_transactions_oracle(p)
    assert rows.line.tolist() == [line for line, *_ in want_rows] == [2]
    assert ([(r.line, r.reason) for r in rejected] == want_rejected
            == [(4, "price <= 0"), (6, "bad plot count")])


def test_stamps_one_short_and_one_long_are_not_two_good_ones(tmp_path):
    # joined, the two have the length of two stamps of the column pass's shape
    p = write(tmp_path, "t.csv", TX_HEADER + "\n2021-01-04T12:00:0,1.0,ETH,1,t1\n"
              "12021-01-04T12:00:00,1.0,ETH,1,t2\n")
    rows, rejected = load_transactions(p)
    assert len(rows) == 0
    assert [(r.line, r.reason) for r in rejected] == [(2, "bad timestamp"), (3, "bad timestamp")]


def _clean_rows(n, seed):
    """``n`` rows that pass every check, in the shape of ADVERSARIAL_ROWS."""
    rng = np.random.default_rng(seed)
    stamps = (np.datetime64("2021-01-04T00:00:00")
              + rng.integers(0, 60 * 86400, n).astype("timedelta64[s]")).astype(str)
    prices = rng.lognormal(0.0, 3.0, n).tolist()
    currency = rng.choice(["ETH", "weth", " usdc", "Eth"], n).tolist()
    plots = rng.integers(1, 40, n).tolist()
    return [f"{t},{p!r},{c},{k},c{i},x"
            for i, (t, p, c, k) in enumerate(zip(stamps, prices, currency, plots))]


#: rows of each kind the column pass must leave to the row checks
DIRTY_ROWS = ADVERSARIAL_ROWS[1:] + [
    "2021-01-04T24:00:00,1.0,ETH,1,ba,x",
    "2021-01-04T23:59:60,1.0,ETH,1,bb,x",
    "2021-02-29T12:00:00,1.0,ETH,1,bc,x",
    "NaT,1.0,ETH,1,bd,x",
    ",1.0,ETH,1,be,x",
    "12021-01-04T12:00:00,1.0,ETH,1,bf,x",
    "0000-01-01T00:00:00,1.0,ETH,1,bg,x",             # numpy has a year 0
    "2021-01-04T12:00:0\u0663,1.0,ETH,1,bh,x",        # a non-ASCII digit
    '2021-01-05T12:00:00,1.0,DAI,1,"b\ni",x',          # spans two lines
    "2021-01-05T12:00:00,1.0,sand,1,bj,x",            # a currency first seen here
    f"2021-01-05T12:00:00,1.0,ETH,{2**63},bk,x",      # a plot count past int64
    "0001-01-01T00:00:00+01:00,1.0,ETH,1,bl,x",       # UTC before year 1
    "9999-12-31T23:00:00-02:00,1.0,ETH,1,bm,x",       # UTC after year 9999
]


def _assert_matches_oracle(path, currencies):
    rows, rejected = load_transactions(path, currencies)
    want_rows, want_rejected = load_transactions_oracle(path, currencies)
    assert [(r.line, r.reason) for r in rejected] == want_rejected
    assert list(zip(rows.line.tolist(), rows.timestamp.astype(object),
                    rows.native_price.tolist(),
                    [rows.symbols[c] for c in rows.currency.tolist()],
                    rows.num_plots.tolist())) == want_rows
    assert rows.symbols == tuple(dict.fromkeys(c for _, _, _, c, _ in want_rows))


@pytest.mark.parametrize("chunk", [1, 3, 1024, None])
@pytest.mark.parametrize("currencies", [None, frozenset({"ETH", "WETH", "USDC"})])
def test_chunk_size_changes_nothing(tmp_path, monkeypatch, chunk, currencies):
    # blocks of at most a line, of about 20 lines and of the whole file, with
    # dirty rows among the first 230 records and after the 2,500th
    clean = _clean_rows(3000, seed=5)
    records = ([ADVERSARIAL_ROWS[0]] + clean[:200] + DIRTY_ROWS[:30] + clean[200:2500]
               + DIRTY_ROWS[30:] + clean[2500:])
    text = "\n".join(records) + "\n"
    path = write(tmp_path, "mixed.csv", text)
    monkeypatch.setattr(ingest, "_BLOCK_CHARS", chunk or len(text))
    _assert_matches_oracle(path, currencies)


def _spy(monkeypatch, name):
    """The results of every call of ingest's ``name`` from now on."""
    results = []
    real = getattr(ingest, name)

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(ingest, name, spy)
    return results


def _quoted(record):
    return ",".join(f'"{field}"' for field in record.split(","))


def test_clean_file_takes_the_column_pass_for_every_chunk(tmp_path, monkeypatch):
    rows, plain = _spy(monkeypatch, "_parse_row"), _spy(monkeypatch, "_plain_columns")
    parsed = _spy(monkeypatch, "_parse_columns")
    records = [ADVERSARIAL_ROWS[0]] + _clean_rows(14000, seed=6)
    for name, end, field_text in (
            ("clean.csv", "\n", str), ("crlf.csv", "\r\n", str),
            # csv.reader splits these, and they still convert by column
            ("quoted.csv", "\r\n", _quoted)):
        plain.clear()
        parsed.clear()
        text = end.join(map(field_text, records)) + end
        _assert_matches_oracle(write(tmp_path, name, text), None)
        # every read of the text after the header holds a line feed, so it makes a block
        n_blocks = -(-(len(text) - text.index(end) - len(end)) // ingest._BLOCK_CHARS)
        assert n_blocks > 2
        assert rows == []
        assert all(converted is None for converted, _ in parsed)
        if field_text is str:
            assert len(plain) == len(parsed) == n_blocks
            assert all(split is not None and split[1] is None for split in plain)
        else:       # csv.reader reads a block _CSV_CHARS characters at a time
            assert len(plain) == len(parsed) > n_blocks
            assert all(split is None for split in plain)
    # one dirty row takes the row checks alone, and the rest of its block converts by column
    records.insert(7000, "2021-01-04T12:00:00Z,2.0,ETH,1,a,x")
    plain.clear()
    parsed.clear()
    _assert_matches_oracle(write(tmp_path, "one.csv", "\n".join(records) + "\n"), None)
    failed = [converted for converted, _ in parsed if converted is not None]
    assert len(failed) == 1
    assert len(rows) == 1
    assert len(failed[0]) - 1 == np.count_nonzero(failed[0]) > 1000


def _padded(record, length=80):
    """``record`` with its last field padded out to a line of ``length``
    characters, its line feed included."""
    assert len(record) < length
    return record + "x" * (length - 1 - len(record))


@pytest.mark.parametrize("currencies", [None, frozenset({"ETH", "WETH", "SAND", "DOGE"})])
def test_failing_lines_alone_take_the_row_checks(tmp_path, monkeypatch, currencies):
    # five blocks of 8 lines of 80 characters: failing lines first and last
    # in a block, adjacent ones, a block whose every line fails a column
    # check and one whose every line has the wrong field count.  Some pass
    # the row checks and bring in a new currency, ahead of one that a
    # converted line of their block brings in.
    clean = _plain_rows(30, 11, ("ETH", "WETH"))
    blocks = [
        ["2021-01-05T12:00:00Z,2.0,sand,1,z1,x"] + clean[:6]
        + ["2021-01-05T12:00:00,n/a,ETH,1,n1,x"],
        clean[6:9] + ["2021-01-05T12:00:00,2.0,Doge,+5,p1,x", "2021-01-05T12:00:00,abc,ETH,1,a1,x",
                      "2021-01-05T12:00:00,1.0,ETH"] + clean[9:11],
        ["2021-01-05T12:00:00+01:00,3.0,mana,2,m1,x", "2021-01-05T12:00:00,1.0,ETH",
         "2021-01-05T12:00:00,0,ETH,1,q1,x", "2021-01-05 12:00:00,1.0,SAND,1,s1,x",
         "2021-01-05T12:00:00,1.0,ETH, 3,t1,x", "2021-01-05T12:00:00,1.0,,1,b1,x",
         "2021-02-30T12:00:00,1.0,ETH,1,d1,x", "2021-01-05T12:00:00.5,1.0,weth,1,f1,x"],
        _plain_rows(8, 12, ("ETH", "SAND", "DOGE")),
        ["2021-01-05T12:00:00,1.0,ETH", "2021-01-05T12:00:00,1.0,SAND,1,e1,x,y"] * 4,
    ]
    text = "".join(_padded(record) + "\n" for block in blocks for record in block)
    path = write(tmp_path, "rows.csv", ADVERSARIAL_ROWS[0] + "\n" + text)
    monkeypatch.setattr(ingest, "_BLOCK_CHARS", 8 * 80)
    rows, plain = _spy(monkeypatch, "_parse_row"), _spy(monkeypatch, "_plain_columns")
    parsed = _spy(monkeypatch, "_parse_columns")
    _assert_matches_oracle(path, currencies)
    assert [split[1] is None for split in plain] == [True, False, False, True, False]
    assert plain[4][2] is None
    assert [converted is None for converted, _ in parsed] == [False, False, False, True]
    assert [np.count_nonzero(converted) for converted, _ in parsed[:3]] == [6, 5, 0]
    assert len(rows) == 2 + 3 + 8 + 8
    assert load_transactions(path, currencies)[0].symbols[0] == "SAND"


def _tokenizer_case(case):
    """A file that puts one of csv.reader's rules to the test, among clean
    rows and a rejected row after it that shows its line."""
    clean = _clean_rows(12, seed=7)
    late = "2021-01-04T12:00:00,1.0,ETH,0,late,x"          # plot count < 1
    head = [ADVERSARIAL_ROWS[0]] + clean[:4]
    tail = clean[4:] + [late]
    if case == "lone CR":       # a blank line, then a record of 2 lines by csv.reader's count
        return ("\n".join(head) + "\n\r2021-01-05T12:00:00,1.0,ETH\r1,cr,x,y\n"
                + "\n".join(tail) + "\n")
    if case == "no last line break":
        return "\n".join(head + tail)
    if case == "CRLF":
        return "\r\n".join(head + tail) + "\r\n"
    middle = {
        # records of several lines: with blocks of a few characters, every
        # block holds about one line, and each of these runs past its block
        "quoted line breaks": ['2021-01-05T12:00:00,1.0,DAI,1,"b\nc\nd",x',
                               '2021-01-05T12:00:00,"2.0\n",ETH,1,e,x', clean[0],
                               '"2021-01-05T12:00:00",1.0,ETH,1,"f\r\ng",x'],
        "NUL": ["2021-01-05T12:00:00,1.0,ETH,1,a\0b,x", "2021-01-05T12:00:00,1.\x000,ETH,1,c,x",
                "2021-01-05T12:00:00,2.0\0,ETH,1,d,x"],
        "form feed and line separator": ["2021-01-05T12:00:00,1.5\x0c,ETH,1,a\x0cb,x",
                                         "2021-01-05T12:00:00,2.5,\u2028eth\u2028,1,c,x",
                                         "2021-01-05T12:00:00,2.5,ETH,1,d\u2028\x0ce,x"],
        # 4 and 6 commas: as many as two lines of the header's 5
        "short beside long": ["2021-01-05T12:00:00,1.0,ETH,1,s",
                              "2021-01-05T12:00:00,1.0,ETH,1,l,x,y"],
    }[case]
    return "\n".join(head + middle + tail) + "\n"


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 6, 1024])
@pytest.mark.parametrize("case", ["lone CR", "no last line break", "quoted line breaks", "NUL",
                                  "form feed and line separator", "short beside long", "CRLF"])
def test_tokenizer_edges_match_the_oracle(tmp_path, monkeypatch, case, chunk):
    p = tmp_path / "t.csv"
    p.write_bytes(_tokenizer_case(case).encode())
    monkeypatch.setattr(ingest, "_BLOCK_CHARS", chunk)
    _assert_matches_oracle(p, None)
    _assert_matches_oracle(p, frozenset({"ETH", "WETH", "USDC"}))
    # csv.reader reads pieces of a few lines of a block holding the whole file
    monkeypatch.setattr(ingest, "_BLOCK_CHARS", len(_tokenizer_case(case)))
    monkeypatch.setattr(ingest, "_CSV_CHARS", 40 * chunk)
    _assert_matches_oracle(p, None)


def _cuts(case, body):
    """Offsets into ``body``, the text after the header, that a first
    read can end at to cut the ``case`` file at its edge."""
    if case == "CRLF":                  # between a CR and its LF
        return [i + 1 for i in range(len(body)) if body.startswith("\r\n", i)]
    if case == "quoted line breaks":    # anywhere inside a quoted record of several lines
        start = body.index('"b\n')
        return list(range(start, body.index("\n", body.index('"f\r\n')) + 1))
    return [len(body) - 1, len(body) - 2, body.rindex("\n"), body.rindex("\n") + 1]


@pytest.mark.parametrize("case", ["CRLF", "quoted line breaks", "no last line break"])
def test_block_cuts_at_the_edges_match_the_oracle(tmp_path, monkeypatch, case):
    text = _tokenizer_case(case)
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode())
    cuts = _cuts(case, text[text.index("\n") + 1:])
    assert len(cuts) >= 4
    for cut in cuts:
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", cut)
        _assert_matches_oracle(p, None)


#: rows whose fields are not all ASCII, or hold ASCII that strips as
#: space from text but not from bytes
WIDE_ROWS = [
    "2021-01-04T12:00:00,1.0,ETH,1,\u00e9,x",
    "2021-01-04T12:00:00,2.5,\u00c9TH,1,a,x",
    "2021-01-04T12:00:00,\u0661.5,ETH,1,b,x",     # an Arabic-Indic digit
    "2021-01-04T12:00:00,1.5,ETH,\u0663,c,x",
    "2021-01-04T12:00:00,1.5,\u00a0weth\u00a0,2,d,x",   # no-break spaces
    "2021-01-04T12:00:00,\x1c1.5,ETH,1,e,x",
    "2021-01-04T12:00:00,1.5,ETH,\x1f3,f,x",
    "2021-01-04T12:00:00,1.5,\x1deth\x1e,1,g,x",
    "2021-01-04T12:00:00,\x0b1.5\x0c,ETH,\t2 ,h,x",
]
MIXED_ROWS = (_clean_rows(24, seed=8) + list(map(_quoted, _clean_rows(4, seed=9)))
              + DIRTY_ROWS + WIDE_ROWS)


#: price fields near the edges of ``float``'s grammar
PRICE_FIELDS = st.one_of(
    st.floats().map(repr),
    st.from_regex(r"\s*[+-]?[0-9_]*\.?[0-9_]*([eE][+-]?[0-9_]*)?\s*", fullmatch=True),
    st.sampled_from(["inf", "-Infinity", "iNfInItY", "nan", "-nan", "nan(1)", "1e400", "1e-400",
                     "0x10", "0x1p3", "1_000", "1__0", "_1", "\u0661.5", "\u0966\u0967",
                     "\xa01.5\u2003", "\x1c1.5", "1.5\x1f", "\x0b1.5\x0c", "1.5\r\n", ""]),
    st.text(st.characters(blacklist_characters="\0"), max_size=12),
)


@given(fields=st.lists(PRICE_FIELDS, min_size=1, max_size=6), as_bytes=st.booleans())
@settings(max_examples=300)
def test_price_cast_follows_float(fields, as_bytes):
    # _parse_columns converts a block's price fields, a tuple of text or an
    # array of ASCII bytes, in one numpy call; that must give float's values
    # or fail where it fails
    fields = tuple(fields)
    if as_bytes:
        fields = np.array([field.encode("ascii", "ignore") for field in fields])
    try:
        want = np.array([float(field) for field in fields])
    except ValueError:
        want = None
    try:
        got = np.asarray(fields, dtype=np.float64)
    except ValueError:
        got = None
    assert (got is None) == (want is None)
    if want is not None:
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@given(rows=st.lists(st.tuples(st.sampled_from(MIXED_ROWS), st.sampled_from(["\n", "\r\n", "\r"])),
                     min_size=1, max_size=40),
       order=st.permutations(range(6)), last_break=st.booleans(), block=st.integers(1, 400),
       csv_block=st.integers(1, 300),
       currencies=st.sampled_from([None, frozenset({"ETH", "WETH", "DAI"})]))
@settings(max_examples=200)
def test_random_files_at_random_block_sizes_match_the_oracle(tmp_path_factory, rows, order,
                                                             last_break, block, csv_block,
                                                             currencies):
    def reorder(record):        # the columns in ``order``, if the record has all six
        fields = record.split(",")
        return ",".join(fields[i] for i in order) if len(fields) == 6 else record

    text = "".join(reorder(row) + end for row, end in [(ADVERSARIAL_ROWS[0], "\n")] + rows)
    p = tmp_path_factory.getbasetemp() / "random.csv"
    p.write_bytes((text if last_break else text.rstrip("\r\n")).encode())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_BLOCK_CHARS", block)
        patch.setattr(ingest, "_CSV_CHARS", csv_block)
        _assert_matches_oracle(p, currencies)


#: plain lines whose plot count or currency is not the digits or the
#: symbol the column pass codes from its bytes
PLAIN_EDGE_ROWS = [
    "2021-01-04T12:00:00,1.0,ETH,05,p1,x",
    "2021-01-04T12:00:00,1.0,ETH,+5,p2,x",
    "2021-01-04T12:00:00,1.0,ETH, 5,p3,x",
    "2021-01-04T12:00:00,1.0,ETH,1_0,p4,x",
    "2021-01-04T12:00:00,1.0,ETH,0,p5,x",
    "2021-01-04T12:00:00,1.0,ETH,1000000000000000000,p6,x",       # 19 digits
    "2021-01-04T12:00:00,1.0,ETH,9999999999999999999,p7,x",       # 19 digits, past int64
    "2021-01-04T12:00:00,1.0,ETH,999999999999999999,p8,x",        # 18 digits
    "2021-01-04T12:00:00,1.0,eth,1,c1,x",
    "2021-01-04T12:00:00,1.0, ETH ,1,c2,x",
    "2021-01-04T12:00:00,1.0,Weth ,1,c3,x",
]


def _plain_rows(n, seed, symbols=("ETH", "WETH")):
    """``n`` plain rows that pass every check, with digit plot counts."""
    rng = np.random.default_rng(seed)
    return [f"2021-01-{4 + i % 20:02d}T12:00:00,{p!r},{c},{k},r{i},x" for i, (p, c, k) in
            enumerate(zip(rng.lognormal(0.0, 1.0, n).tolist(), rng.choice(symbols, n).tolist(),
                          rng.integers(1, 10**int(rng.integers(1, 4)), n).tolist()))]


@pytest.mark.parametrize("chunk", [64, 1024, None])
@pytest.mark.parametrize("edge", PLAIN_EDGE_ROWS)
@pytest.mark.parametrize("currencies", [None, frozenset({"ETH", "WETH", "SAND"})])
def test_plain_block_edges_match_the_oracle(tmp_path, monkeypatch, chunk, edge, currencies):
    # the edge row among plain ones; then SAND first seen in a late plain
    # block, and DOGE first seen in a block that a bad price sends to the
    # row checks, both coded from their bytes in the blocks after
    records = ([ADVERSARIAL_ROWS[0]] + _plain_rows(100, 1) + [edge] + _plain_rows(100, 2)
               + ["2021-01-05T12:00:00,2.0,SAND,3,s1,x"] + _plain_rows(50, 3)
               + ["2021-01-05T12:00:00,abc,ETH,1,d1,x", "2021-01-05T12:00:00,2.0,DOGE,4,d2,x"]
               + _plain_rows(100, 4, ("ETH", "WETH", "SAND", "DOGE")))
    text = "\n".join(records) + "\n"
    path = write(tmp_path, "plain.csv", text)
    monkeypatch.setattr(ingest, "_BLOCK_CHARS", chunk or len(text))
    parsed = _spy(monkeypatch, "_parse_columns")
    _assert_matches_oracle(path, currencies)
    if chunk == 1024:       # most blocks take the column pass whole
        assert 2 * sum(converted is None for converted, _ in parsed) > len(parsed)


def test_values_out_of_column_range_are_rejected(tmp_path):
    # a plot count beyond int64, and a time whose UTC falls before year 1
    p = write(tmp_path, "t.csv", TX_HEADER + f"\n2021-01-04T00:00:00,1.0,ETH,{2**63},t1\n"
              "0001-01-01T00:00:00+01:00,1.0,ETH,1,t2\n")
    rows, rejected = load_transactions(p)
    assert len(rows) == 0
    assert [(r.line, r.reason) for r in rejected] == [(2, "bad plot count"),
                                                      (3, "bad timestamp")]
    _assert_matches_oracle(p, None)


@pytest.mark.parametrize("stamp", [
    "2021-02-30T12:00:00", "2100-02-29T12:00:00", "2021-13-04T12:00:00", "2021-00-04T12:00:00",
    "2021-01-00T12:00:00", "2021-01-32T12:00:00", "2021-01-04T24:00:00", "2021-01-04T12:60:00",
    "2021-01-04T12:00:60", "0000-01-04T12:00:00", "2000-02-29T12:00:00", "2024-02-29T23:59:59"])
def test_stamps_of_the_shape_are_checked_as_dates_in_a_long_block(tmp_path, stamp):
    # numpy 2.4's string parser crashed the process on an impossible date
    # among a few hundred stamps of the right shape
    records = [ADVERSARIAL_ROWS[0]] + _clean_rows(1000, seed=10)
    records[500] = f"{stamp},1.0,ETH,1,t,x"
    path = write(tmp_path, "t.csv", "\n".join(records) + "\n")
    assert path.stat().st_size < ingest._BLOCK_CHARS       # one block
    _assert_matches_oracle(path, None)


def test_ingest_memory_is_bounded(tmp_path):
    # 104 weeks x 1,000 sales, written the way `simulate --kind hedonic` writes them
    assert main(["simulate", "--kind", "hedonic", "--seed", "1",
                 "--deltas", ",".join(["0"] + ["0.01"] * 103), "--n-per-period", "1000",
                 "--beta-plots", "0.9", "--noise", "0.3", "--out-dir", str(tmp_path)]) == 0
    fx = load_daily_prices(tmp_path / "prices.csv")
    tracemalloc.start()
    try:
        rows, _ = load_transactions(tmp_path / "transactions.csv")
        txs, _ = to_usd(rows, fx)
        prepared = prepare_dataset(txs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(prepared) == 104_000
    assert peak < 16e6
