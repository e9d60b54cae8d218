"""Time the BSADF window sweep, its Monte-Carlo null, the Granger table,
the transactions ingest and the CLI import.

Pins this process to one CPU and BLAS to one thread, then times:

* one null replication (a driftless walk's full sweep at the default
  minimum window) at T in {300, 600, 1456, 3000} and k in {1, 3};
* the stationarity pre-check's null: ``mc_critical_values`` at T=60 with
  ``min_window=59``, 200 replications;
* acceptance criterion 10's null: ``mc_critical_values`` at T=600, 1000
  replications;
* one demo-sized ``granger_table``: 59 rows by 4 columns of white noise,
  ``p_max=3``, both specs (24 block F tests);
* one ``f_tail_prob(2.3, 3, 50)`` call, in microseconds (a run makes
  1,000 calls);
* ``load_transactions`` on a ``simulate --kind hedonic`` file of 104 weeks
  by 1,000 sales, as rows per second (the rows over the median time);
* ``import landmetrics.cli`` in a fresh process on the same CPU, timed
  inside that process: the median of 7 after one untimed import.

Every other figure is the median of ``--repeats`` runs (default 5), in
seconds unless its name ends in ``_us`` or ``_per_s``, all in one process:
once earlier figures have freed large arrays, glibc stops returning freed
memory to the OS, so these figures can miss page faults that a fresh
process pays.
``--src`` imports ``landmetrics`` from another checkout's ``src`` so that
two versions can be timed on the same machine; ``--label`` names the
result, which is merged into the ``--out`` JSON file beside any others.

Usage:
    python3 scripts/bench_sweep.py --label change --out BENCH.json
    python3 scripts/bench_sweep.py --src ../parent/src --label parent --out BENCH.json
"""

import argparse
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_time(src, runs=7):
    """Median seconds of ``import landmetrics.cli`` in a fresh interpreter,
    after one untimed import that compiles the bytecode."""
    code = ("import time; t = time.perf_counter(); import landmetrics.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=src)
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(runs + 1)]
    return statistics.median(times[1:])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.machine()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default=None, help="JSON file to merge the result into")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    from landmetrics import bubbles
    from landmetrics.cli import main as cli_main
    from landmetrics.ingest import load_transactions
    from landmetrics.linreg import f_tail_prob
    from landmetrics.synthkit import stream
    from landmetrics.var_granger import Panel, granger_table

    def one_replication(T, k):
        r0, spec = bubbles.default_min_window(T), bubbles.AdfSpec(n_lags=k)
        y = np.concatenate([[0.0], np.cumsum(stream(0, 0).standard_normal(T - 1))])
        if "shape" in inspect.signature(bubbles._sweep).parameters:  # suprema only
            return lambda: bubbles._sweep(lambda reps: y[None], r0, spec, r0, shape=(1, T))
        return lambda: bubbles._sweep(y, r0, spec, r0)

    figures = {}
    for T in (300, 600, 1456, 3000):
        for k in (1, 3):
            figures[f"replication_T{T}_k{k}_s"] = median_time(one_replication(T, k), args.repeats)
    figures["precheck_null_T60_rep200_s"] = median_time(lambda: bubbles.mc_critical_values(
        60, min_window=59, alphas=(0.05,), n_rep=200, seed=0), args.repeats)
    figures["criterion10_null_T600_rep1000_s"] = median_time(lambda: bubbles.mc_critical_values(
        600, n_rep=1000, seed=1), args.repeats)
    panel = Panel(("x", "y", "c1", "c2"), stream(0, 0).standard_normal((59, 4)))
    figures["granger_table_demo_s"] = median_time(
        lambda: granger_table(panel, "x", "y", p_max=3, both_specs=True), args.repeats)
    figures["f_tail_prob_us"] = 1e3 * median_time(
        lambda: [f_tail_prob(2.3, 3, 50) for _ in range(1000)], args.repeats)
    with tempfile.TemporaryDirectory() as tmp:
        cli_main(["simulate", "--kind", "hedonic", "--seed", "1", "--deltas",
                  ",".join(["0"] + ["0.01"] * 103), "--n-per-period", "1000",
                  "--beta-plots", "0.9", "--noise", "0.3", "--out-dir", tmp])
        path = os.path.join(tmp, "transactions.csv")
        n_rows = len(load_transactions(path)[0])
        figures["load_transactions_rows_per_s"] = n_rows / median_time(
            lambda: load_transactions(path), args.repeats)
    figures["import_cli_s"] = import_time(os.path.abspath(args.src))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {"figures": figures, "repeats": args.repeats, "nproc": os.cpu_count(),
              "cpu": cpu_model(), "python": platform.python_version(),
              "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
    print(json.dumps(result, indent=2))
    if args.out:
        merged = json.load(open(args.out)) if os.path.exists(args.out) else {}
        merged[args.label] = result
        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
