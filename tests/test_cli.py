"""End-to-end tests of the landmetrics command line."""

import csv
import datetime as dt
import hashlib
import json
import math
import pathlib
import shutil

import numpy as np
import pytest

from landmetrics.cli import _KEYS, _write_report, build_parser, main, resolve_config
from landmetrics.series import TimeSeries
from landmetrics.synthkit import EPOCH, gen_coupled_pair, gen_random_walk, stream

D0 = dt.date(2021, 1, 4)
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "pipeline_report.json"
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
DEMO_CFG = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "demo" / "run.cfg"


def weekly(values, start=D0, name="s"):
    dates = [start + dt.timedelta(weeks=i) for i in range(len(values))]
    return TimeSeries(name, "weekly", tuple(dates), np.asarray(values, float))


def read_csv(path):
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if not row[0].startswith("#")]


def read_tree(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def test_flags_beat_config_beats_defaults(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\n"
        "seed = 3\n"
        "max_offset = 7\n"
        "transactions = tx.csv\n"
    )
    args = build_parser().parse_args(
        ["pipeline", "--config", str(cfg_file), "--max-offset", "9"])
    cfg = resolve_config(args)
    assert cfg.seed == 3
    assert cfg.max_offset == 9
    assert cfg.n_rep == 500
    assert cfg.transactions == str(tmp_path / "tx.csv")


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("bogus = 1\n")
    assert main(["summarize", "--config", str(cfg_file)]) == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("key, allowed", [
    ("freq", "weekly/daily"), ("resample_rule", "last/mean"), ("diff_mode", "log/simple"),
    ("fill", "none/interpolate"), ("lag_selection", "fixed/bic"),
])
def test_bad_choice_exits_1_naming_its_key(tmp_path, capsys, key, allowed):
    flag = "--" + key.replace("_", "-")
    assert main(["hpi", flag, "monthly"]) == 1
    assert f"flag {flag}: must be one of {allowed}, got 'monthly'" in capsys.readouterr().err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = monthly\n")
    assert main(["hpi", "--config", str(cfg_file)]) == 1
    assert f"config key {key}: must be one of {allowed}" in capsys.readouterr().err


def test_readme_configuration_table_names_every_key():
    section = README.read_text().split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in section.splitlines()
            if line.startswith("|")]
    assert rows[:2] == ["key", "-----"]
    assert rows[2:] == list(_KEYS)


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["bubble", "--no-such-flag"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["hpi", "--out-dir", str(tmp_path)]) == 1
    assert main(["leadlag", "--series-x", str(tmp_path / "x.csv")]) == 1
    assert main(["hpi", "--transactions", "t.csv", "--prices", "p.csv",
                 "--winsor-lo", "0.9", "--winsor-hi", "0.1"]) == 1
    assert main(["bubble", "--coin", "ETH", "--prices", "p.csv",
                 "--level", "0.5"]) == 1
    capsys.readouterr()


def test_missing_input_file_exits_2(tmp_path, capsys):
    code = main(["hpi", "--transactions", str(tmp_path / "absent.csv"),
                 "--prices", str(tmp_path / "also_absent.csv"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


#: the end of a line csv.reader cannot read, and the error it gets
UNREADABLE = {"long field": (b"x" * 131_073, "field larger than field limit"),
              "not UTF-8": (b"\xff", "not utf-8 text")}


@pytest.mark.parametrize("fault", UNREADABLE)
@pytest.mark.parametrize("reader", ["transactions", "prices", "series"])
def test_unreadable_input_text_exits_2(tmp_path, capsys, reader, fault):
    tx, px, series = tmp_path / "tx.csv", tmp_path / "px.csv", tmp_path / "walk.csv"
    shutil.copy(DEMO_CFG.parent / "transactions.csv", tx)
    shutil.copy(DEMO_CFG.parent / "prices.csv", px)
    gen_random_walk(60, seed=2).to_csv(series)
    bad = {"transactions": tx, "prices": px, "series": series}[reader]
    ending, message = UNREADABLE[fault]
    with open(bad, "ab") as fh:       # a row that is plain text up to its last field
        fh.write(b"2021-01-04T00:00:00,1.0,VOX,1,"[:{"transactions": 30, "prices": 15,
                                                      "series": 11}[reader]] + ending + b"\r\n")
    argv = (["bubble", "--series-file", str(series), "--r0", "25", "--n-rep", "200"]
            if reader == "series" else ["hpi", "--transactions", str(tx), "--prices", str(px)])
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}" + (
        " (131072)\n" if fault == "long field" else ": invalid start byte\n")


def test_unreadable_config_file_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed = 3\n# caf\xe9\n")
    assert main(["hpi", "--config", str(cfg)]) == 1
    assert "cannot read config file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_walk_matches_generator(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--kind", "walk", "--length", "50",
                 "--seed", "6", "--drift", "0.1", "--out-dir", str(out)]) == 0
    series = TimeSeries.from_csv(out / "walk.csv", name="walk", freq="daily")
    expected = gen_random_walk(50, drift=0.1, sigma=1.0, seed=6)
    assert np.array_equal(series.values, expected.values)
    truth = json.loads((out / "truth.json").read_text())
    assert truth["kind"] == "walk" and truth["seed"] == 6
    assert truth["length"] == 50 and truth["drift"] == 0.1


def test_simulate_explosive_records_window_labels(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--kind", "explosive", "--length", "60",
                 "--window", "30:40", "--rho", "1.05",
                 "--seed", "1", "--out-dir", str(out)]) == 0
    truth = json.loads((out / "truth.json").read_text())
    assert truth["windows"] == [[30, 40]]
    assert sum(truth["labels"]) == 10


def test_simulate_bad_window_token_exits_1(tmp_path, capsys):
    assert main(["simulate", "--kind", "explosive", "--window", "banana",
                 "--out-dir", str(tmp_path)]) == 1
    assert main(["simulate", "--kind", "explosive", "--length", "50",
                 "--window", "40:80", "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_simulate_coupled_and_market_artifacts(tmp_path):
    out = tmp_path / "coupled"
    assert main(["simulate", "--kind", "coupled", "--length", "40",
                 "--beta", "0.5", "--out-dir", str(out)]) == 0
    assert (out / "coupled_x.csv").exists() and (out / "coupled_y.csv").exists()
    truth = json.loads((out / "truth.json").read_text())
    assert truth["noise"] == 1.0 and truth["beta"] == 0.5

    out = tmp_path / "market"
    assert main(["simulate", "--kind", "market", "--weeks", "20",
                 "--seed", "4", "--out-dir", str(out)]) == 0
    tx_rows = read_csv(out / "transactions.csv")
    assert tx_rows[0] == ["timestamp", "native_price", "currency",
                          "num_plots", "tx_id"]
    px_rows = read_csv(out / "prices.csv")
    assert px_rows[0] == ["date", "symbol", "usd_price"]
    assert len(px_rows) == 1 + 20 * 7 * 3
    truth = json.loads((out / "truth.json").read_text())
    assert truth["coin"] == "VOX" and truth["lag_weeks"] == 1


# sha256 of the files written by these seeds, pinned so that generator
# changes cannot move the benchmark's inputs unnoticed
SIMULATED_SHA256 = {
    ("hedonic", "prices.csv"): "a42ecc512eff62d89045c1652bf619b68375b7751ef58ee9e509c6312de1b291",
    ("hedonic", "transactions.csv"):
        "2dc14994559b184eb4717edcb34c05c9b067faf7827f9b1966f324187e9d003a",
    ("hedonic", "truth.json"): "31167027b9c8753ce65ce57ba33b42824f43a5d586a51ea6e0666d99f7df6e13",
    ("market", "prices.csv"): "7cdf434a3d39238bc079d81f44f57cefe3d5d99ac6df6fd6830e44c11d1de6fc",
    ("market", "transactions.csv"):
        "4cc0e84cc0e075f5f13b3eb45df85cfcd59a65413a14275a603359d49379c804",
    ("market", "truth.json"): "07d15a5bb420baa564d7ba8c14a08e837b544e4dd80b5cb6b5d18ddc1a7bbb27",
    ("explosive", "explosive.csv"):
        "4034b579790e20304cf2152d2735d4031ca4ee668fa8b097f3544d7e3d559f67",
    ("explosive", "truth.json"):
        "c9e24e8df57455caf872a144144702c5aa2a686f5f4baf4806ea8b9fef44932f",
    ("walk", "truth.json"): "36789887c971cc9103ec98e2f609f518a28ef6815a591df06a267356ab7e23ed",
    ("walk", "walk.csv"): "89f510c9b37121469941a44e68c3f689b7a8966962e70650a69af0db8b8bf351",
    ("coupled", "coupled_x.csv"):
        "23733b061413513a86ac91de70340e87b939ff9647905b9f7dbccc8ff18d71e8",
    ("coupled", "coupled_y.csv"):
        "6a9949c8bd688d3926515a7702ee33000cc806b62004103dec8ade20dac124bd",
    ("coupled", "truth.json"): "ce7c061fa4c8e71c19dbf5b9f8e192343204dd70680745dfb1b4b345c29fbbff",
}


@pytest.mark.parametrize("kind, flags", [
    ("hedonic", ["--seed", "3", "--deltas", "0,0.1,-0.2,0.05", "--n-per-period", "25",
                 "--beta-plots", "0.9", "--beta-weth", "-0.05", "--noise", "0.3"]),
    ("market", ["--weeks", "20", "--seed", "5"]),
    ("explosive", ["--length", "240", "--seed", "1"]),     # the bic_stamp benchmark's input
    ("walk", ["--length", "120", "--seed", "2", "--drift", "0.1", "--sigma", "2"]),
    ("coupled", ["--length", "80", "--seed", "4", "--beta", "0.6", "--lag", "2"]),
])
def test_simulate_writes_pinned_bytes(tmp_path, kind, flags):
    assert main(["simulate", "--kind", kind, *flags, "--out-dir", str(tmp_path)]) == 0
    got = {(kind, p.name): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == {key: v for key, v in SIMULATED_SHA256.items() if key[0] == kind}


def test_simulate_hedonic_rejects_nonzero_base_delta(tmp_path, capsys):
    assert main(["simulate", "--kind", "hedonic", "--deltas", "0.1,0.2",
                 "--out-dir", str(tmp_path)]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# hpi via the CLI
# ---------------------------------------------------------------------------


def test_hpi_recovers_noiseless_deltas(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", "--kind", "hedonic", "--deltas", "0,0.5",
                 "--noise", "0", "--n-per-period", "12",
                 "--seed", "5", "--out-dir", str(sim)]) == 0
    out = tmp_path / "out"
    code = main(["hpi",
                 "--transactions", str(sim / "transactions.csv"),
                 "--prices", str(sim / "prices.csv"),
                 "--winsor-lo", "0", "--winsor-hi", "1",
                 "--out-dir", str(out)])
    assert code == 0
    rows = read_csv(out / "hpi.csv")
    assert rows[0] == ["period", "index", "delta", "n_transactions"]
    assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[2][1]) == pytest.approx(math.exp(0.5), abs=1e-9)
    fit = json.loads((out / "hpi_fit.json").read_text())
    assert fit["n_obs"] == 24
    assert (out / "rejections.csv").exists()
    capsys.readouterr()


def test_hpi_with_no_usable_transactions_exits_2(tmp_path, capsys):
    tx = tmp_path / "tx.csv"
    tx.write_text("timestamp,native_price,currency,num_plots,tx_id\n")
    px = tmp_path / "px.csv"
    px.write_text("date,symbol,usd_price\n2021-01-04,ETH,2000.0\n")
    assert main(["hpi", "--transactions", str(tx), "--prices", str(px),
                 "--out-dir", str(tmp_path / "out")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# bubble via the CLI
# ---------------------------------------------------------------------------


def test_bubble_series_file_outputs_and_rerun_identical(tmp_path, capsys):
    src = tmp_path / "walkdemo.csv"
    gen_random_walk(140, seed=2).to_csv(src)
    argv = ["bubble", "--series-file", str(src), "--r0", "25",
            "--n-rep", "200", "--seed", "3", "--no-log-prices"]
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(argv + ["--out-dir", str(out1)]) == 0
    assert main(argv + ["--out-dir", str(out2)]) == 0
    names = {"bubble_walkdemo.csv", "bubble_walkdemo_episodes.csv",
             "cv_walkdemo.csv", "bubble_summary.csv"}
    assert {p.name for p in out1.iterdir()} == names
    assert read_tree(out1) == read_tree(out2)
    meta = (out1 / "cv_walkdemo.csv").read_text().splitlines()[0]
    assert meta == "# T=140 r0=25 n_rep=200 seed=3 n_lags=1"
    capsys.readouterr()


def test_bubble_logs_go_to_stderr(tmp_path, capsys):
    src = tmp_path / "walkdemo.csv"
    gen_random_walk(140, seed=2).to_csv(src)
    assert main(["bubble", "--series-file", str(src), "--r0", "25", "--n-rep", "200",
                 "--no-log-prices", "--out-dir", str(tmp_path / "out")]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines and all(line.startswith("[bubble] ") for line in lines)


@pytest.mark.parametrize("seed", [2**63, 2**64 - 1, 2**64])
def test_seed_outside_the_philox_keys_exits_1(tmp_path, capsys, seed):
    message = f"error: seed must lie in [0, 2**63), got {seed}\n"
    src = tmp_path / "walkdemo.csv"
    gen_random_walk(140, seed=2).to_csv(src)
    assert main(["bubble", "--series-file", str(src), "--no-log-prices",
                 "--seed", str(seed), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == message
    assert main(["simulate", "--kind", "walk", "--seed", str(seed),
                 "--out-dir", str(tmp_path / "sim")]) == 1
    assert capsys.readouterr().err == message
    # a generator's own check fails before --out-dir is created, too
    assert main(["simulate", "--kind", "walk", "--length", "5",
                 "--out-dir", str(tmp_path / "short")]) == 2
    assert capsys.readouterr().err == "error: generated series need length >= 10, got 5\n"
    assert not (tmp_path / "out").exists() and not (tmp_path / "sim").exists()
    assert not (tmp_path / "short").exists()


def test_bubble_log_prices_need_positive_values(tmp_path, capsys):
    src = tmp_path / "walkdemo.csv"
    gen_random_walk(140, seed=2).to_csv(src)     # starts at 0
    assert main(["bubble", "--series-file", str(src), "--r0", "25",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "'walkdemo' needs positive values; value at 2021-01-04" in capsys.readouterr().err


def test_bubble_bic_lag_selection_outputs_and_rerun_identical(tmp_path, capsys):
    inputs = tmp_path / "in"
    assert main(["simulate", "--kind", "explosive", "--length", "80",
                 "--seed", "5", "--out-dir", str(inputs)]) == 0
    argv = ["bubble", "--series-file", str(inputs / "explosive.csv"),
            "--lag-selection", "bic", "--adf-lags", "2", "--n-rep", "200",
            "--seed", "5"]
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(argv + ["--out-dir", str(out1)]) == 0
    assert main(argv + ["--out-dir", str(out2)]) == 0
    names = {"bubble_explosive.csv", "bubble_explosive_episodes.csv",
             "cv_explosive.csv", "bubble_summary.csv"}
    assert {p.name for p in out1.iterdir()} == names
    assert read_tree(out1) == read_tree(out2)
    rows = read_csv(out1 / "bubble_explosive.csv")
    assert len(rows) == 1 + 80 - 17
    assert len(read_csv(out1 / "bubble_explosive_episodes.csv")) > 1
    meta = (out1 / "cv_explosive.csv").read_text().splitlines()[0]
    assert meta == "# T=80 r0=17 n_rep=200 seed=5 n_lags=2"
    capsys.readouterr()


def test_bubble_constant_series_exits_3(tmp_path, capsys):
    src = tmp_path / "flat.csv"
    weekly([5.0] * 60).to_csv(src)
    assert main(["bubble", "--series-file", str(src), "--n-rep", "200",
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert "window" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# leadlag via the CLI
# ---------------------------------------------------------------------------


def test_leadlag_self_peaks_at_zero(tmp_path, capsys):
    rng = stream(10, 0)
    src = tmp_path / "self.csv"
    weekly(np.cumsum(rng.standard_normal(40))).to_csv(src)
    out = tmp_path / "out"
    assert main(["leadlag", "--series-x", str(src), "--series-y", str(src),
                 "--max-offset", "4", "--out-dir", str(out)]) == 0
    rows = read_csv(out / "leadlag.csv")
    assert rows[0] == ["offset", "corr", "n_pairs"]
    by_offset = {int(r[0]): r for r in rows[1:]}
    assert sorted(by_offset) == list(range(-4, 5))
    assert float(by_offset[0][1]) == pytest.approx(1.0, abs=1e-12)
    capsys.readouterr()


def test_leadlag_detects_two_week_lead(tmp_path, capsys):
    vals = np.cumsum(stream(11, 0).standard_normal(60))
    y_path, x_path = tmp_path / "leader.csv", tmp_path / "follower.csv"
    weekly(vals, start=D0).to_csv(y_path)
    weekly(vals, start=D0 + dt.timedelta(weeks=2)).to_csv(x_path)
    out = tmp_path / "out"
    assert main(["leadlag", "--series-x", str(x_path), "--series-y", str(y_path),
                 "--max-offset", "5", "--out-dir", str(out)]) == 0
    rows = read_csv(out / "leadlag.csv")
    best = max((r for r in rows[1:] if r[1]), key=lambda r: float(r[1]))
    assert int(best[0]) == 2
    assert float(best[1]) == pytest.approx(1.0, abs=1e-12)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# granger via the CLI
# ---------------------------------------------------------------------------


def test_granger_explicit_pair_finds_planted_direction(tmp_path, capsys):
    x, y = gen_coupled_pair(300, beta=0.6, lag=1, noise=1.0, seed=41)
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    x.to_csv(x_path)
    y.to_csv(y_path)
    out = tmp_path / "out"
    code = main(["granger", "--series", f"x={x_path}", "--series", f"y={y_path}",
                 "--p-max", "2", "--n-rep", "200", "--out-dir", str(out)])
    assert code == 0
    rows = read_csv(out / "granger.csv")
    assert rows[0] == ["lag", "controls", "direction", "f_stat", "p_value",
                       "df_num", "df_den", "n_obs"]
    assert len(rows) == 5
    table = {(int(r[0]), r[2]): float(r[4]) for r in rows[1:]}
    assert table[(1, "x->y")] < 0.01
    assert table[(1, "y->x")] > 0.10
    assert (out / "granger_panel_a.csv").exists()
    assert (out / "granger_panel_b.csv").exists()
    capsys.readouterr()


def test_granger_four_series_runs_both_specs(tmp_path, capsys):
    paths = []
    for i, name in enumerate(("a", "b", "c", "d")):
        path = tmp_path / f"{name}.csv"
        weekly(stream(20 + i, 0).standard_normal(80)).to_csv(path)
        paths.append(f"{name}={path}")
    out = tmp_path / "out"
    argv = ["granger", "--p-max", "3", "--n-rep", "200", "--out-dir", str(out)]
    for spec in paths:
        argv += ["--series", spec]
    assert main(argv) == 0
    rows = read_csv(out / "granger.csv")
    assert len(rows) == 13
    assert {r[1] for r in rows[1:]} == {"0", "1"}
    assert {r[2] for r in rows[1:]} == {"a->b", "b->a"}
    capsys.readouterr()


def test_granger_single_series_is_usage_error(tmp_path, capsys):
    path = tmp_path / "x.csv"
    weekly(np.arange(30.0)).to_csv(path)
    assert main(["granger", "--series", f"x={path}",
                 "--out-dir", str(tmp_path / "out")]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

MARKET_CFG = """\
transactions = transactions.csv
prices = prices.csv
coin = VOX
market_symbols = BTC,ETH
seed = 11
n_rep = 200
p_max = 2
"""


def _make_market_fixture(root, weeks=30, seed=7):
    assert main(["simulate", "--kind", "market", "--weeks", str(weeks),
                 "--seed", str(seed), "--out-dir", str(root)]) == 0
    (root / "run.cfg").write_text(MARKET_CFG)


def test_pipeline_end_to_end_and_reproducible(tmp_path, capsys):
    fix = tmp_path / "fix"
    _make_market_fixture(fix)
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    argv = ["pipeline", "--config", str(fix / "run.cfg")]
    assert main(argv + ["--out-dir", str(out1)]) == 0
    assert main(argv + ["--out-dir", str(out2)]) == 0
    assert read_tree(out1) == read_tree(out2)

    report = json.loads((out1 / "report.json").read_text())
    assert report["status"] == "ok" and report["failed_stage"] is None
    assert set(report["stages"]) == {"ingest", "hpi", "bubble",
                                     "leadlag", "granger"}
    assert report["stages"]["ingest"]["n_rejected"] == 4
    assert report["config"]["transactions"] == "transactions.csv"
    assert "out_dir" not in report["config"]
    assert len(report["config_sha256"]) == 64
    on_disk = {p.name for p in out1.iterdir()}
    assert set(report["files"]) == on_disk
    assert {"report.json", "hpi.csv", "bubble_VOX.csv", "leadlag.csv",
            "granger.csv"} <= on_disk
    assert report["stages"]["granger"]["n_rows"] == 8
    for row in report["stages"]["granger"]["rows"]:
        assert 0.0 <= row["p_value"] <= 1.0

    moved = tmp_path / "elsewhere"
    shutil.copytree(fix, moved)
    out3 = tmp_path / "out3"
    assert main(["pipeline", "--config", str(moved / "run.cfg"),
                 "--out-dir", str(out3)]) == 0
    assert read_tree(out3) == read_tree(out1)
    capsys.readouterr()


def test_pipeline_failure_writes_partial_report(tmp_path, capsys):
    fix = tmp_path / "fix"
    _make_market_fixture(fix, weeks=20, seed=3)
    (fix / "transactions.csv").write_text("wrong,header,entirely\n1,2,3\n")
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(fix / "run.cfg"),
                 "--out-dir", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "failed"
    assert report["failed_stage"] == "ingest"
    assert report["error"]
    capsys.readouterr()


def test_pipeline_reports_unreadable_transactions_as_failed(tmp_path, capsys):
    fix = tmp_path / "fix"
    _make_market_fixture(fix, weeks=20, seed=3)
    with open(fix / "transactions.csv", "ab") as fh:
        fh.write(b"2021-01-04T00:00:00,1.0,VOX,1,t\xff\r\n")
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(fix / "run.cfg"), "--out-dir", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "failed"
    assert report["failed_stage"] == "ingest"
    assert "transactions.csv: not utf-8 text" in report["error"]
    capsys.readouterr()


def _thin_week(fix, first, keep):
    """Keep only ``keep`` of the sales of the week that starts on ``first``."""
    tx = fix / "transactions.csv"
    week = {(first + dt.timedelta(days=day)).isoformat() for day in range(7)}
    lines = tx.read_text().splitlines(keepends=True)
    in_week = [i for i, line in enumerate(lines) if line[:10] in week]
    tx.write_text("".join(line for i, line in enumerate(lines) if i not in in_week[keep:]))


# one sale left in the week of 2021-02-08 is under min_per_period = 3, and a
# week with no sale left is missing from the grid: either way it is a gap
GAP_WEEK_SALES = pytest.mark.parametrize("keep", [1, 0], ids=["one_sale", "no_sale"])


@GAP_WEEK_SALES
def test_index_gap_stops_granger_and_pipeline_alike(tmp_path, capsys, keep):
    fix = tmp_path / "fix"
    _make_market_fixture(fix, weeks=20, seed=3)
    capsys.readouterr()                      # the fixture's [simulate] log line
    _thin_week(fix, dt.date(2021, 2, 8), keep)
    message = ("index has gap periods (2021-02-08); differencing across gaps "
               "is not meaningful. Set fill=interpolate to bridge them.")
    cfg = str(fix / "run.cfg")

    assert main(["granger", "--config", cfg, "--out-dir", str(tmp_path / "g")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"

    out = tmp_path / "p"
    assert main(["pipeline", "--config", cfg, "--out-dir", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "failed"
    assert report["failed_stage"] == "granger"
    assert report["error"] == message
    assert "bubble_VOX.csv" in report["files"]
    capsys.readouterr()


def test_daily_pipeline_runs_on_the_demo_fixture(tmp_path, capsys):
    # days without a sale are gaps of the daily index, and the quote
    # columns stay daily, so the panel aligns with the filled index
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(DEMO_CFG), "--freq", "daily",
                 "--min-per-period", "1", "--fill", "interpolate",
                 "--out-dir", str(out)]) == 0
    hpi = json.loads((out / "report.json").read_text())["stages"]["hpi"]
    assert hpi["fill_applied"] is True and hpi["gap_periods"]
    capsys.readouterr()


def _nudge_floats(obj, ulps):
    if isinstance(obj, float):
        toward = math.inf if ulps > 0 else -math.inf
        for _ in range(abs(ulps)):
            obj = float(np.nextafter(obj, toward))
        return obj
    if isinstance(obj, dict):
        return {k: _nudge_floats(v, ulps) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_nudge_floats(v, ulps) for v in obj]
    return obj


def test_report_bytes_survive_last_ulp_drift(tmp_path):
    # numpy/BLAS upgrades move the last few ULPs of derived statistics (the
    # Granger F statistics behind the p-values that linreg's own incomplete
    # beta computes); report.json must not show it.
    golden = GOLDEN.read_bytes()
    report = json.loads(golden)
    written = {}
    for ulps in (-3, 0, 3):
        out = tmp_path / f"ulps{ulps}"
        out.mkdir()
        nudged = _nudge_floats(report, ulps)
        if ulps:
            assert nudged != report
        _write_report(str(out), nudged)
        written[ulps] = (out / "report.json").read_bytes()
    assert written[-3] == written[0] == written[3] == golden


def test_report_writer_passes_non_floats_through(tmp_path):
    report = {"n": 3, "big": 2**60, "name": "VOX", "se": None, "ok": True,
              "off": False, "stat": math.inf, "low": -math.inf,
              "rows": [{"k": 1, "p": 0.25}]}
    _write_report(str(tmp_path), report)
    assert json.loads((tmp_path / "report.json").read_text()) == report


def test_summarize_writes_both_tables(tmp_path, capsys):
    fix = tmp_path / "fix"
    _make_market_fixture(fix, weeks=20, seed=9)
    out = tmp_path / "out"
    assert main(["summarize", "--config", str(fix / "run.cfg"),
                 "--out-dir", str(out)]) == 0
    tx_rows = read_csv(out / "summary_transactions.csv")
    assert tx_rows[0] == ["key", "value"]
    ret_rows = read_csv(out / "summary_returns.csv")
    assert {r[0] for r in ret_rows[1:]} == {"VOX", "BTC", "ETH"}
    capsys.readouterr()


# ---------------------------------------------------------------------------
# subcommands as pipeline stages
# ---------------------------------------------------------------------------


def test_each_subcommand_writes_its_pipeline_stage_files(tmp_path, capsys):
    fix = tmp_path / "fix"
    _make_market_fixture(fix)
    cfg = str(fix / "run.cfg")
    written = {}
    for command in ("summarize", "hpi", "bubble", "leadlag", "granger"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 0
        written[command] = read_tree(out)
    out = tmp_path / "pipeline"
    assert main(["pipeline", "--config", cfg, "--out-dir", str(out)]) == 0
    pipeline = read_tree(out)

    for command, tree in written.items():
        for name, data in tree.items():
            assert data == pipeline[name], f"{command} wrote a different {name}"
    union = set().union(*written.values())
    assert union == set(pipeline) - {"report.json"}
    assert "hpi_series.csv" in written["hpi"]
    assert "rejections.csv" in written["summarize"]
    capsys.readouterr()


def test_failed_report_lists_every_file_on_disk(tmp_path, capsys):
    fix = tmp_path / "fix"
    _make_market_fixture(fix)
    prices = fix / "prices.csv"
    lines = prices.read_text().splitlines(keepends=True)
    prices.write_text("".join(
        line.rsplit(",", 1)[0] + ",100\n" if ",BTC," in line else line
        for line in lines))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(fix / "run.cfg"),
                 "--out-dir", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "failed"
    assert report["failed_stage"] == "bubble"
    on_disk = {p.name for p in out.iterdir()}
    assert set(report["files"]) == on_disk - {"report.json"}
    assert {"bubble_VOX.csv", "bubble_VOX_episodes.csv", "cv_VOX.csv"} <= on_disk
    capsys.readouterr()


# ---------------------------------------------------------------------------
# input paths of the ingest and granger stages
# ---------------------------------------------------------------------------


def test_summarize_prices_alone_writes_only_return_summary(tmp_path, capsys):
    fix = tmp_path / "fix"
    _make_market_fixture(fix, weeks=20, seed=9)
    out = tmp_path / "out"
    assert main(["summarize", "--prices", str(fix / "prices.csv"),
                 "--out-dir", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"summary_returns.csv"}
    capsys.readouterr()


def test_summarize_without_inputs_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["summarize", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: summarize needs a transactions and/or prices input\n"
    assert not out.exists()


def test_pipeline_without_coin_writes_nothing(tmp_path, capsys):
    fix = tmp_path / "fix"
    _make_market_fixture(fix, weeks=20, seed=9)
    capsys.readouterr()                      # the fixture's [simulate] log line
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(fix / "run.cfg"), "--coin", "",
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: pipeline needs the coin key (the quote series paired with "
        "the land market)\n")
    assert not out.exists()


@GAP_WEEK_SALES
def test_fill_interpolate_bridges_index_gap_in_granger_and_pipeline(tmp_path, capsys, keep):
    fix = tmp_path / "fix"
    _make_market_fixture(fix, weeks=30, seed=3)
    _thin_week(fix, dt.date(2021, 2, 8), keep)
    argv = ["--config", str(fix / "run.cfg"), "--fill", "interpolate"]

    out = tmp_path / "g"
    assert main(["granger"] + argv + ["--out-dir", str(out)]) == 0
    assert (out / "granger.csv").exists()

    out = tmp_path / "p"
    assert main(["pipeline"] + argv + ["--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["stages"]["hpi"]["fill_applied"] is True
    assert report["stages"]["hpi"]["gap_periods"] == ["2021-02-08"]
    capsys.readouterr()
