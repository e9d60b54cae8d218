"""Regenerate the demo fixture, its golden report and the output manifest.

The fixture is a fully synthetic LAND-style market written by the
``simulate`` subcommand: a coin quote with one planted explosive window,
BTC/ETH control quotes, and a transaction file whose week effects track
the coin with a one-week lag.  The golden report freezes the pipeline's
``report.json`` on this fixture so the determinism check has a committed
reference.

The manifest, ``tests/golden/outputs.sha256``, holds the sha256 of every
file that three runs write: the demo ``pipeline`` (less the three files
that move with the BLAS kernel), ``hpi`` on a small simulated hedonic
market with both controls on, and a BIC ``bubble`` stamp of a simulated
explosive series.  A change that moves a hash regenerates it and names
each moved file and its largest move.

Usage:
    python3 scripts/make_fixtures.py [--weeks 60] [--seed 7] [--skip-golden]

Run from the repository root.  Regenerating the golden is expected after
an intentional change to the report's content or numeric format (its
floats carry 10 significant digits); commit the refreshed golden.  The
manifest is rewritten with it (``--skip-golden`` skips both).  The
fixture files themselves must come out unchanged; check that with
``git diff --stat fixtures/`` before committing.
"""

import argparse
import hashlib
import pathlib
import shutil
import sys
import tempfile

from landmetrics.cli import main as cli_main

RUN_CFG = """\
# demo fixture: synthetic metaverse market, one planted explosive window
transactions = transactions.csv
prices = prices.csv
coin = VOX
market_symbols = BTC,ETH
seed = 11
n_rep = 200
"""


#: demo files that move with the BLAS kernel, which the manifest leaves out
KERNEL_DEPENDENT = frozenset({"granger.csv", "granger_panel_b.csv", "leadlag.csv"})


def _run(argv) -> None:
    if cli_main(argv) != 0:
        raise RuntimeError(f"landmetrics {' '.join(argv)} failed")


def _hashes(out_dir: pathlib.Path, run: str, skip=frozenset()) -> dict[str, str]:
    return {f"{run}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name not in skip}


def hpi_hashes(transactions, prices, out_dir: pathlib.Path) -> dict[str, str]:
    """The manifest's entries for ``hpi`` on these inputs, run into ``out_dir``."""
    _run(["hpi", "--transactions", str(transactions), "--prices", str(prices),
          "--out-dir", str(out_dir)])
    return _hashes(out_dir, "hpi")


def output_hashes(repo_root: pathlib.Path, work: pathlib.Path) -> dict[str, str]:
    """The manifest: ``run/file`` -> sha256 of every file its three runs
    write, with their inputs and outputs made under ``work`` (the hedonic
    market in ``work/hedonic``)."""
    _run(["pipeline", "--config", str(repo_root / "fixtures" / "demo" / "run.cfg"),
          "--out-dir", str(work / "pipeline")])
    hashes = _hashes(work / "pipeline", "pipeline", KERNEL_DEPENDENT)
    # 6 weeks of 40 sales, with both the plot count and the wETH flag in the price
    _run(["simulate", "--kind", "hedonic", "--seed", "3", "--deltas", "0,0.1,0.2,0.15,0.3,0.25",
          "--n-per-period", "40", "--beta-plots", "0.9", "--beta-weth", "-0.05",
          "--noise", "0.3", "--out-dir", str(work / "hedonic")])
    hashes |= hpi_hashes(work / "hedonic" / "transactions.csv", work / "hedonic" / "prices.csv",
                         work / "hpi")
    _run(["simulate", "--kind", "explosive", "--length", "240", "--seed", "1",
          "--out-dir", str(work / "explosive")])
    _run(["bubble", "--series-file", str(work / "explosive" / "explosive.csv"),
          "--lag-selection", "bic", "--adf-lags", "3", "--n-rep", "200",
          "--out-dir", str(work / "bubble")])
    return hashes | _hashes(work / "bubble", "bubble")


def read_manifest(path: pathlib.Path) -> dict[str, str]:
    """A manifest written by :func:`write_manifest`, as ``run/file`` -> sha256."""
    return {name: digest for digest, name in map(str.split, path.read_text().splitlines())}


def write_manifest(repo_root: pathlib.Path) -> None:
    path = repo_root / "tests" / "golden" / "outputs.sha256"
    with tempfile.TemporaryDirectory() as tmp:
        hashes = output_hashes(repo_root, pathlib.Path(tmp))
    path.write_text("".join(f"{digest}  {name}\n" for name, digest in hashes.items()))
    print(f"[fixtures] wrote {path} ({len(hashes)} files)")


def build(repo_root: pathlib.Path, weeks: int, seed: int, golden: bool) -> int:
    fixture_dir = repo_root / "fixtures" / "demo"
    fixture_dir.mkdir(parents=True, exist_ok=True)
    code = cli_main(["simulate", "--kind", "market", "--weeks", str(weeks),
                     "--seed", str(seed), "--out-dir", str(fixture_dir)])
    if code != 0:
        return code
    (fixture_dir / "run.cfg").write_text(RUN_CFG)
    print(f"[fixtures] wrote {fixture_dir}/{{transactions,prices}}.csv, "
          f"truth.json, run.cfg")
    if not golden:
        return 0
    golden_path = repo_root / "tests" / "golden" / "pipeline_report.json"
    golden_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        code = cli_main(["pipeline", "--config", str(fixture_dir / "run.cfg"),
                         "--out-dir", tmp])
        if code != 0:
            return code
        shutil.copyfile(pathlib.Path(tmp) / "report.json", golden_path)
    print(f"[fixtures] froze {golden_path}")
    write_manifest(repo_root)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--weeks", type=int, default=60)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--skip-golden", action="store_true",
                        help="only rewrite the fixture files")
    args = parser.parse_args(argv)
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    return build(repo_root, args.weeks, args.seed, golden=not args.skip_golden)


if __name__ == "__main__":
    sys.exit(main())
