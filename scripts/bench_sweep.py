"""Compare two source trees on the BSADF window sweep, its Monte-Carlo null,
the Granger table, the transactions ingest and the CLI import.

Each figure is timed in pairs: one fresh process on the ``--parent`` tree and
one on the ``--src`` tree, back to back, the pair's order alternating.  Every
process is pinned to the same CPU, runs BLAS on one thread, times one figure
and exits.  A figure's result is the change/parent ratio of each pair, as a
median with its quartiles, beside each tree's median.  Pairing adjacent
processes cancels most of the host's drift, which two runs minutes apart
cannot: run the script on two copies of one tree first, and read a ratio as
a change only where it lies outside that run's spread.

The figures, each in seconds unless its name says otherwise:

* one null replication (a driftless walk's full sweep at the default
  minimum window) at T in {300, 600, 1456, 3000} and k in {1, 3};
* a BIC ``bsadf_series`` (kmax=3) of a driftless walk at T=240 (the length
  of the ``bic_stamp`` benchmark series) and at T=1456;
* the stationarity pre-check's null: ``mc_critical_values`` at T=60 with
  ``min_window=59``, 200 replications;
* acceptance criterion 10's null: ``mc_critical_values`` at T=600, 1000
  replications;
* the peak RSS, in MB above the process's RSS before the call, of the demo
  pipeline's null (T=420, r0=42, k=1, 200 replications) and of bic_stamp's
  (T=240, r0=31, k=3);
* one demo-sized ``granger_table``: 59 rows by 4 columns of white noise,
  ``p_max=3``, both specs (24 block F tests);
* one ``f_tail_prob(2.3, 3, 50)`` call, in microseconds;
* ``load_transactions`` on a ``simulate --kind hedonic`` file of 104 weeks
  by 1,000 sales, as rows per second;
* ``import landmetrics.cli``, timed inside the process that imports it.

A process times the median of several calls after an untimed one, or one
call where a call takes seconds, or the first call alone for the peak RSS.
The result is merged under ``--label`` into the ``--out`` JSON file, with
the machine (nproc, CPU, Python, numpy and its BLAS build).

Usage:
    python3 scripts/bench_sweep.py --parent ../parent/src --label change --out BENCH.json
    python3 scripts/bench_sweep.py --parent ../copy/src --src ../copy2/src --label spread
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: figure -> (calls timed per process, 0 for a peak RSS, then the shape it runs)
FIGURES = {
    **{f"replication_T{T}_k{k}_s": (n, T, k)
       for T, n in ((300, 15), (600, 9), (1456, 5), (3000, 3)) for k in (1, 3)},
    "bic_bsadf_series_T240_k3_s": (51, 240),
    "bic_bsadf_series_T1456_k3_s": (5, 1456),
    "precheck_null_T60_rep200_s": (15,),
    "criterion10_null_T600_rep1000_s": (1,),
    "demo_null_rss_mb": (0, 420, 42, 1),
    "bic_stamp_null_rss_mb": (0, 240, 31, 3),
    "granger_table_demo_s": (25,),
    "f_tail_prob_us": (9,),
    "load_transactions_rows_per_s": (5,),
    "import_cli_s": (1,),
}


def child(figure, data):
    """Time one figure in this process and print its value."""
    start = time.perf_counter()
    import landmetrics.cli  # noqa: F401
    imported = time.perf_counter() - start
    if figure == "import_cli_s":
        return imported
    import numpy as np
    from landmetrics import bubbles
    from landmetrics.ingest import load_transactions
    from landmetrics.linreg import f_tail_prob
    from landmetrics.synthkit import stream
    from landmetrics.var_granger import Panel, granger_table

    def walk(T):
        return np.concatenate([[0.0], np.cumsum(stream(0, 0).standard_normal(T - 1))])

    calls, *args = FIGURES[figure]
    if calls == 0:
        T, r0, k = args
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        bubbles.mc_critical_values(T, r0, bubbles.AdfSpec(n_lags=k), n_rep=200, seed=0)
        return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
    if figure.startswith("replication"):
        T, k = args
        r0, spec, y = bubbles.default_min_window(T), bubbles.AdfSpec(n_lags=k), walk(T)
        fn = lambda: bubbles._sweep(lambda reps: y[None], r0, spec, r0, shape=(1, T))  # noqa: E731
    elif figure.startswith("bic_bsadf"):
        y, spec = walk(*args), bubbles.AdfSpec(n_lags=3, lag_selection="bic")
        fn = lambda: bubbles.bsadf_series(y, spec=spec)  # noqa: E731
    elif figure.startswith("precheck"):
        fn = lambda: bubbles.mc_critical_values(60, 59, alphas=(0.05,), n_rep=200)  # noqa: E731
    elif figure.startswith("criterion10"):
        fn = lambda: bubbles.mc_critical_values(600, n_rep=1000, seed=1)  # noqa: E731
    elif figure.startswith("granger"):
        panel = Panel(("x", "y", "c1", "c2"), stream(0, 0).standard_normal((59, 4)))
        fn = lambda: granger_table(panel, "x", "y", p_max=3, both_specs=True)  # noqa: E731
    elif figure.startswith("f_tail"):
        fn = lambda: [f_tail_prob(2.3, 3, 50) for _ in range(1000)]  # noqa: E731
    else:
        fn = lambda: load_transactions(data)  # noqa: E731
    if calls > 1:
        fn()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    seconds = statistics.median(times)
    if figure == "f_tail_prob_us":
        return 1e3 * seconds
    if figure == "load_transactions_rows_per_s":
        return len(load_transactions(data)[0]) / seconds
    return seconds


def run_child(src, figure, data, cpu):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, __file__, "--child", figure, "--data", data or "",
                          "--cpu", str(cpu)], env=env, check=True, capture_output=True, text=True)
    return float(out.stdout.split()[-1])


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
        print(child(args.child, args.data))
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
        data = os.path.join(tmp, "transactions.csv")
        for figure in FIGURES:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for label in order:
                    src = args.parent if label == "parent" else args.src
                    runs[label].append(run_child(src, figure, data, cpu))
            ratios = [c / p for c, p in zip(runs["change"], runs["parent"])]
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
