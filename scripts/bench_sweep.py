"""Compare two source trees on the BSADF window sweep, its Monte-Carlo null,
the Granger table, the transactions ingest, the land index's memory and the
CLI import.

Each figure is timed in pairs: one fresh process on the ``--parent`` tree and
one on the ``--src`` tree, set up one after the other, then timing their calls
in turns, the order alternating from call to call and from pair to pair.
Every process is pinned to the same CPU, runs BLAS on one thread and times one
figure.  Each process also gets a memory layout of its own: a padding
variable of random length in its environment, which moves its stack, and a
block of random size, allocated and held before the tree is imported, which
moves its heap or its mappings.  A layout that happens to favour one tree
then adds spread, which pairs average, instead of a bias to the ratio.  A
pair's ratio is the median change/parent ratio of its turns, and a figure's
result is the pairs' ratios as a median with its quartiles, beside each
tree's median.  Calls a few milliseconds apart cancel the host's drift,
which on a shared vCPU moves one process's own calls by tens of percent
within seconds: run the script on two copies of one tree first, and read a
ratio as a change only where it lies outside that run's spread.

The figures, each in seconds unless its name says otherwise:

* one null replication (a driftless walk's full sweep at the default
  minimum window) at T in {300, 600, 1456, 3000} and k in {1, 3};
* a BIC ``bsadf_series`` (kmax=3) of a driftless walk at T=240 (the length
  of the ``bic_stamp`` benchmark series) and at T=1456;
* a fixed-lag ``bsadf_series`` (k=1) of a driftless walk at T=1456, a data
  sweep, which fits every window with the degenerate-window guards;
* the stationarity pre-check's null: ``mc_critical_values`` at T=60 with
  ``min_window=59``, 200 replications;
* acceptance criterion 10's null: ``mc_critical_values`` at T=600, 1000
  replications;
* the demo pipeline's null (``mc_critical_values`` at T=420, r0=42, k=1)
  and bic_stamp's (T=240, r0=31, k=3), 200 replications each;
* the peak RSS, in MB above the process's RSS before the call (made after
  one draw, which loads ``numpy.random``), of the demo pipeline's null
  (T=420, r0=42, k=1, 200 replications) and of bic_stamp's (T=240, r0=31,
  k=3);
* one demo-sized ``granger_table``: 59 rows by 4 columns of white noise,
  ``p_max=3``, both specs (24 block F tests);
* one ``f_tail_prob(2.3, 3, 50)`` call, in microseconds;
* ``load_transactions`` on a ``simulate --kind hedonic`` file of 104 weeks
  by 1,000 sales, as rows per second: as ``simulate`` writes it (CRLF line
  endings), with LF endings (as exports often have), with every field
  quoted (the text that ``csv.reader`` splits), with 0.5% of its price
  fields, at seeded positions, set to ``n/a`` (rows the checks reject),
  and that dirty file with every field quoted;
* ``to_usd`` of that file's sales, as ``load_transactions`` reads them,
  at its quotes;
* the peak RSS, in MB, of a fresh interpreter that imports
  ``landmetrics.cli`` and runs ``hpi`` on that file, started for each call;
* ``build_hpi``'s own peak of traced allocations (``tracemalloc``), in MB
  of 10**6 bytes, on that file's sales converted to USD;
* ``import landmetrics.cli``, timed inside a fresh interpreter that the
  figure's process starts for each call.

The interpreters that a process starts share a bytecode cache of their
own (``PYTHONPYCACHEPREFIX``, an empty directory that an untimed call
fills), so neither tree's ``__pycache__`` is read.

A process makes an untimed call first where it times several, and reads
the nulls' peak RSS and ``build_hpi``'s traced peak once, at its set-up.
The result is merged under ``--label`` into the ``--out`` JSON file, with
the machine (nproc, CPU, Python, numpy and its BLAS build).

Usage:
    python3 scripts/bench_sweep.py --parent ../parent/src --label change --out BENCH.json
    python3 scripts/bench_sweep.py --parent ../copy/src --src ../copy2/src --label spread
"""

import argparse
import contextlib
import csv
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: figure -> (calls timed per process, 0 for a memory figure read once, then the
#: shape it runs)
FIGURES = {
    **{f"replication_T{T}_k{k}_s": (n, T, k)
       for T, n in ((300, 31), (600, 31), (1456, 15), (3000, 9)) for k in (1, 3)},
    "bic_bsadf_series_T240_k3_s": (51, 240),
    "bic_bsadf_series_T1456_k3_s": (15, 1456),
    "fixed_bsadf_series_T1456_k1_s": (15, 1456),
    "precheck_null_T60_rep200_s": (31,),
    "criterion10_null_T600_rep1000_s": (3,),
    "demo_null_T420_rep200_s": (9, 420, 42, 1),
    "bic_stamp_null_T240_k3_rep200_s": (9, 240, 31, 3),
    "demo_null_rss_mb": (0, 420, 42, 1),
    "bic_stamp_null_rss_mb": (0, 240, 31, 3),
    "granger_table_demo_s": (301,),
    "f_tail_prob_us": (51,),
    "load_transactions_rows_per_s": (9,),
    "load_transactions_lf_rows_per_s": (9,),
    "load_transactions_quoted_rows_per_s": (9,),
    "load_transactions_dirty_rows_per_s": (9,),
    "load_transactions_quoted_dirty_rows_per_s": (9,),
    "to_usd_s": (31,),
    "hpi_peak_rss_mb": (3,),
    "build_hpi_transient_mb": (0,),
    "import_cli_s": (9,),
}


def child(figure, data):
    """Set up one figure in this process, on the input files in the
    ``data`` directory, and print ``ready``; then, for each line read from
    stdin, print the figure's value for one more timed call."""
    measure = _figure(figure, data)
    print("ready", flush=True)
    for _ in sys.stdin:
        print(measure(), flush=True)


def _figure(figure, data):
    """A function that gives the figure's value: for a timed figure, that
    of one more call."""
    transactions, prices = (os.path.join(data, f"{n}.csv") for n in ("transactions", "prices"))
    if figure in ("import_cli_s", "hpi_peak_rss_mb"):      # in a fresh interpreter
        if figure == "import_cli_s":
            code = ("import time; start = time.perf_counter(); import landmetrics.cli; "
                    "print(time.perf_counter() - start)")
        else:
            argv = ["hpi", "--transactions", transactions, "--prices", prices,
                    "--out-dir", tempfile.mkdtemp(dir=data)]
            code = ("import resource, landmetrics.cli as cli\n"
                    f"assert cli.main({argv!r}) == 0\n"
                    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)")
        # the bytecode cache is a directory of this process's own, filled by
        # an untimed call, so no tree's __pycache__ is read
        env = dict(os.environ, PYTHONPYCACHEPREFIX=tempfile.mkdtemp(dir=data))

        def measure():
            return float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                        capture_output=True, text=True).stdout)

        measure()
        return measure
    import numpy as np
    from landmetrics import bubbles
    from landmetrics.hedonic import build_hpi
    from landmetrics.ingest import load_daily_prices, load_transactions, to_usd
    from landmetrics.linreg import f_tail_prob
    from landmetrics.synthkit import stream
    from landmetrics.var_granger import Panel, granger_table

    def walk(T):
        return np.concatenate([[0.0], np.cumsum(stream(0, 0).standard_normal(T - 1))])

    calls, *args = FIGURES[figure]
    if figure == "build_hpi_transient_mb":
        sales, _ = to_usd(load_transactions(transactions)[0], load_daily_prices(prices))
        tracemalloc.start()
        build_hpi(sales)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        return lambda: peak
    if calls == 0:
        T, r0, k = args
        walk(T)     # loads numpy.random, so that the reading is the null's own memory
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        bubbles.mc_critical_values(T, r0, bubbles.AdfSpec(n_lags=k), n_rep=200, seed=0)
        rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
        return lambda: rss
    per_second = 1.0
    if figure.startswith("replication"):
        T, k = args
        r0, spec, y = bubbles.default_min_window(T), bubbles.AdfSpec(n_lags=k), walk(T)
        fn = lambda: bubbles._sweep(lambda reps: y[None], r0, spec, r0, shape=(1, T))  # noqa: E731
    elif figure.startswith(("bic_bsadf", "fixed_bsadf")):
        y, selection = walk(*args), figure.split("_")[0]     # "bic" (kmax=3) or "fixed" (k=1)
        spec = bubbles.AdfSpec(n_lags=3 if selection == "bic" else 1, lag_selection=selection)
        fn = lambda: bubbles.bsadf_series(y, spec=spec)  # noqa: E731
    elif figure.startswith("precheck"):
        fn = lambda: bubbles.mc_critical_values(60, 59, alphas=(0.05,), n_rep=200)  # noqa: E731
    elif figure.startswith("criterion10"):
        fn = lambda: bubbles.mc_critical_values(600, n_rep=1000, seed=1)  # noqa: E731
    elif figure.startswith(("demo_null", "bic_stamp_null")):
        T, r0, k = args
        spec = bubbles.AdfSpec(n_lags=k)
        fn = lambda: bubbles.mc_critical_values(T, r0, spec, n_rep=200)  # noqa: E731
    elif figure.startswith("granger"):
        panel = Panel(("x", "y", "c1", "c2"), stream(0, 0).standard_normal((59, 4)))
        fn = lambda: granger_table(panel, "x", "y", p_max=3, both_specs=True)  # noqa: E731
    elif figure.startswith("f_tail"):
        fn = lambda: [f_tail_prob(2.3, 3, 50) for _ in range(1000)]  # noqa: E731
    elif figure == "to_usd_s":
        sales, fx = load_transactions(transactions)[0], load_daily_prices(prices)
        fn = lambda: to_usd(sales, fx)  # noqa: E731
    else:
        path = os.path.join(data, {"load_transactions_lf_rows_per_s": "lf.csv",
                                   "load_transactions_quoted_rows_per_s": "quoted.csv",
                                   "load_transactions_dirty_rows_per_s": "dirty.csv",
                                   "load_transactions_quoted_dirty_rows_per_s": "quoted_dirty.csv"}
                            .get(figure, "transactions.csv"))
        fn = lambda: load_transactions(path)  # noqa: E731
        per_second = sum(map(len, fn()))       # rows read: accepted and rejected
    if calls > 1:
        fn()

    def measure():
        start = time.perf_counter()
        fn()
        seconds = time.perf_counter() - start
        if figure == "f_tail_prob_us":
            return 1e3 * seconds
        return per_second / seconds if figure.endswith("per_s") else seconds

    return measure


def run_pair(srcs, figure, data, cpu):
    """Each tree's values of ``figure``, in the order of ``srcs``: one
    process per tree, set up in that order, then timing their calls in
    turns, the first tree first on every other call."""
    with contextlib.ExitStack() as stack:
        procs = []
        for src in srcs:
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                       LAYOUT_PAD="x" * random.randrange(1, 4097))
            procs.append(stack.enter_context(subprocess.Popen(
                [sys.executable, __file__, "--child", figure, "--data", data, "--cpu", str(cpu)],
                env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)))
            if procs[-1].stdout.readline() != "ready\n":     # set-ups never overlap
                raise RuntimeError(f"{figure}: the process on {src} failed to set up")
        values = ([], [])
        for i in range(max(FIGURES[figure][0], 1)):
            for k in (0, 1) if i % 2 == 0 else (1, 0):
                procs[k].stdin.write("\n")
                procs[k].stdin.flush()
                values[k].append(float(procs[k].stdout.readline()))
    return values


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def machine():
    import numpy as np
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.machine()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    ap.add_argument("--parent", help="the source tree to compare --src against")
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default=None, help="JSON file to merge the result into")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--data", help=argparse.SUPPRESS)
    ap.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        os.sched_setaffinity(0, {args.cpu})
        # held in this frame while the figure runs: up to 256 KiB, on either
        # side of glibc's 128 KiB mmap threshold
        held = bytearray(random.randrange(1, 1 << 18))  # noqa: F841
        child(args.child, args.data)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    cpu = max(os.sched_getaffinity(0))
    figures = {}
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
        subprocess.run([sys.executable, "-m", "landmetrics.cli", "simulate", "--kind", "hedonic",
                        "--seed", "1", "--deltas", ",".join(["0"] + ["0.01"] * 103),
                        "--n-per-period", "1000", "--beta-plots", "0.9", "--noise", "0.3",
                        "--out-dir", tmp], env=env, check=True, capture_output=True)
        with open(os.path.join(tmp, "transactions.csv"), newline="") as fh, \
                open(os.path.join(tmp, "quoted.csv"), "w", newline="") as out:
            csv.writer(out, quoting=csv.QUOTE_ALL).writerows(csv.reader(fh))
        with open(os.path.join(tmp, "transactions.csv"), newline="") as fh, \
                open(os.path.join(tmp, "lf.csv"), "w", newline="") as out:
            out.write(fh.read().replace("\r\n", "\n"))
        with open(os.path.join(tmp, "transactions.csv"), newline="") as fh, \
                open(os.path.join(tmp, "dirty.csv"), "w", newline="") as out, \
                open(os.path.join(tmp, "quoted_dirty.csv"), "w", newline="") as quoted:
            # a row at a time: a child's peak RSS starts at this process's
            # peak, which must stay below the nulls' peaks
            n = sum(1 for _ in fh) - 1
            fh.seek(0)
            dirty = set(random.Random(25).sample(range(1, n + 1), n // 200))
            reader = csv.reader(fh)
            writers = csv.writer(out), csv.writer(quoted, quoting=csv.QUOTE_ALL)
            header = next(reader)
            for writer in writers:
                writer.writerow(header)
            price = header.index("native_price")
            for i, row in enumerate(reader, 1):
                if i in dirty:
                    row[price] = "n/a"
                for writer in writers:
                    writer.writerow(row)
        for figure in FIGURES:
            ratios, runs = [], {"parent": [], "change": []}
            for i in range(args.pairs):
                if i % 2 == 0:
                    parent, change = run_pair((args.parent, args.src), figure, tmp, cpu)
                else:
                    change, parent = run_pair((args.src, args.parent), figure, tmp, cpu)
                ratios.append(statistics.median(c / p for c, p in zip(change, parent)))
                runs["parent"].append(statistics.median(parent))
                runs["change"].append(statistics.median(change))
            figures[figure] = {"ratio": quartiles(ratios),
                               "parent_median": statistics.median(runs["parent"]),
                               "change_median": statistics.median(runs["change"])}
            print(figure, json.dumps(figures[figure]), flush=True)
    result = {"figures": figures, "pairs": args.pairs, **machine()}
    if args.out:
        merged = json.load(open(args.out)) if os.path.exists(args.out) else {}
        merged[args.label] = result
        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
