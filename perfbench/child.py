"""One fresh benchmark process: calls ``landmetrics.cli.main(argv)`` in-process.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src`` and one argument, a JSON plan file.  Two plans exist:

``cold``
    Call ``main`` 1 + ``warm_calls`` times.  The first call is the cold run: its
    wall time is measured by the parent from process spawn to the first
    call's end, and its peak RSS and CPU time are read here right after it
    returns.  The other calls are warm runs (in-process, after at least one
    untimed call).
``trace``
    One untimed warm-up call, then pairs of an untraced and a traced call,
    in alternating order, until the plan's deadline (at least one pair).  The traced calls run
    with every layer entry point wrapped by :class:`Tracer`; the untraced
    calls run the unmodified program, so the pair gives the overhead.

The result (timestamps on CLOCK_MONOTONIC, which the parent shares) is
written as JSON to the plan's ``result`` path.  Spans go to ``spans``.
"""

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import resource
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# layers whose entry points the traced run times; cli is the root span
LAYERS = ("ingest", "hedonic", "linreg", "bubbles", "series", "var_granger", "cli")
# modules whose own ``ols_fit``/``nested_f_test`` names are wrapped
LINREG_CALLERS = ("hedonic", "bubbles", "var_granger")
LINREG_NAMES = ("ols_fit", "nested_f_test")


def sweep_windows(T: int, r0: int) -> int:
    """Windows [s1, r2] in one BSADF sweep: r2 in [r0, T-1], s1 in [0, r2-r0]."""
    return (T - r0) * (T - r0 + 1) // 2


def sweep_bytes_per_window(n_lags: int) -> int:
    """Bytes of the per-window arrays one fixed-lag sweep materialises.

    Counts the named float64/int64 arrays of ``_WindowPlan`` (R2, S1, hi,
    n) and of ``_bsadf_fast`` (Sz, Sd, Szz, Szd, Sdd, A, b, cdd, stat) for
    m = n_lags + 1 regressors; temporaries are not counted.
    """
    m = n_lags + 1
    return 8 * (2 * m * m + 3 * m + 8)


class Tracer:
    """Spans and counts recorded at layer boundaries, kept in memory."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, run id]
        self.stack = []
        self.run_id = 0
        self.counts = {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, now(), None, stack[-1] if stack else -1, self.run_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, result)
            return result

        return traced

    def patches(self, cli):
        """(module, attribute, wrapper) for every traced entry point."""
        out = []
        for attr, obj in vars(cli).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if layer in LAYERS and layer != "cli":
                out.append((cli, attr, self.wrap(f"{layer}.{attr}", obj)))
        for modname in LINREG_CALLERS:
            module = importlib.import_module(f"landmetrics.{modname}")
            for attr in LINREG_NAMES:
                if attr in vars(module):
                    out.append((module, attr,
                                self.wrap(f"linreg.{attr}", getattr(module, attr))))
        return out

    @contextlib.contextmanager
    def installed(self, cli):
        """Swap the wrappers in for one call and restore the originals after."""
        patches = self.patches(cli)
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def call(self, cli, argv):
        """One traced ``main(argv)``; its counts are left in ``self.counts``."""
        self.run_id += 1
        self.counts = {}
        main = self.wrap("cli.main", cli.main)
        with self.installed(cli):
            return main(argv)


def _observe_mc(tracer, args, result):
    from landmetrics.bubbles import default_min_window
    T = args["series_length"]
    r0 = args["min_window"] if args["min_window"] is not None else default_min_window(T)
    windows = sweep_windows(T, r0)
    tracer.add("mc_reps", args["n_rep"])
    tracer.add("mc_windows", args["n_rep"] * windows)
    tracer.peak("windows_per_sweep", windows)
    tracer.peak("sweep_bytes", windows * sweep_bytes_per_window(args["spec"].n_lags))


def _observe_bsadf(tracer, args, result):
    spec = args["spec"]
    T = len(result) + result[0].t_index
    windows = sweep_windows(T, result[0].t_index)
    tracer.add("bsadf_windows", windows)
    if spec.lag_selection == "fixed":
        tracer.peak("sweep_bytes", windows * sweep_bytes_per_window(spec.n_lags))


def _observe_load(tracer, args, result):
    rows, rejected = result
    tracer.add("rows_parsed", len(rows) + len(rejected))
    tracer.add("rows_rejected", len(rejected))


def _observe_to_usd(tracer, args, result):
    tracer.add("rows_rejected", len(result[1]))


def _observe_hpi(tracer, args, result):
    points, fit = result
    n_cols = len(points) + (fit.beta_log_plots is not None) + (fit.beta_weth is not None)
    tracer.add("design_bytes", 8 * fit.n_obs * n_cols)


_OBSERVERS = {
    "bubbles.mc_critical_values": _observe_mc,
    "bubbles.bsadf_series": _observe_bsadf,
    "ingest.load_transactions": _observe_load,
    "ingest.to_usd": _observe_to_usd,
    "hedonic.build_hpi": _observe_hpi,
}


# series functions that cli calls; each gets its own time metric
SERIES_FUNCTIONS = ("difference", "fill_gaps_loglinear", "lead_lag_correlation",
                    "pairwise_correlation", "resample_weekly", "restrict", "summary_stats")


def layer_metrics(spans, run_id, counts):
    """Per-layer metrics of one traced call from its spans and counts."""
    mine = [(i, s) for i, s in enumerate(spans) if s[4] == run_id]
    child_time = {}
    for _, (name, start, end, parent, _) in mine:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    total_by_name, self_by_name, calls = {}, {}, {}
    for i, (name, start, end, _, _) in mine:
        duration = end - start
        own = duration - child_time.get(i, 0.0)
        self_by_layer[name.partition(".")[0]] += own
        total_by_name[name] = total_by_name.get(name, 0.0) + duration
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1

    def total(name):
        return total_by_name.get(name, 0.0)

    def rate(work, seconds):
        return work / seconds if seconds > 0.0 else 0.0

    m = {f"{layer}.self_s": v for layer, v in self_by_layer.items()}
    for name in ("bubbles.mc_critical_values", "bubbles.bsadf_series",
                 "ingest.load_transactions", "ingest.to_usd", "ingest.prepare_dataset",
                 "linreg.ols_fit", "var_granger.stationarity_precheck",
                 "var_granger.granger_table"):
        m[f"{name}_s"] = total(name)
    m["hedonic.build_hpi_self_s"] = self_by_name.get("hedonic.build_hpi", 0.0)
    for name in SERIES_FUNCTIONS:
        m[f"series.{name}_s"] = total(f"series.{name}")
    ingest_s = sum(total(f"ingest.{n}") for n in ("load_transactions", "to_usd",
                                                   "prepare_dataset"))
    m["bubbles.mc_reps_per_s"] = rate(counts.get("mc_reps", 0), total("bubbles.mc_critical_values"))
    m["bubbles.windows_per_s"] = rate(counts.get("mc_windows", 0),
                                      total("bubbles.mc_critical_values"))
    m["ingest.rows_per_s"] = rate(counts.get("rows_parsed", 0), ingest_s)
    m["bubbles.windows_per_sweep_computed"] = counts.get("windows_per_sweep", 0)
    m["bubbles.mc_reps_computed"] = counts.get("mc_reps", 0)
    m["bubbles.bsadf_windows_computed"] = counts.get("bsadf_windows", 0)
    m["bubbles.sweep_bytes_computed"] = counts.get("sweep_bytes", 0)
    m["linreg.ols_fit_calls"] = calls.get("linreg.ols_fit", 0)
    m["linreg.f_tests"] = calls.get("linreg.nested_f_test", 0)
    m["ingest.rows_parsed"] = counts.get("rows_parsed", 0)
    m["ingest.rows_rejected"] = counts.get("rows_rejected", 0)
    m["hedonic.design_bytes_computed"] = counts.get("design_bytes", 0)
    return m


def blas_info() -> dict:
    """Name, version and thread count of the BLAS numpy loaded."""
    import ctypes
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def versions() -> dict:
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_info()}


def _timed_call(cli, argv, kind, tracer=None):
    start = now()
    try:
        rc = cli.main(argv) if tracer is None else tracer.call(cli, argv)
    except SystemExit as exc:   # e.g. argparse rejecting the command line
        rc = exc.code if exc.code is not None else 0
    except Exception as exc:    # a crash is a failed call, reported by the parent
        rc = f"exception: {exc!r}"
    end = now()
    return {"kind": kind, "rc": rc, "start": start, "end": end, "wall_s": end - start,
            "out_dir": argv[-1], "run_id": tracer.run_id if tracer else None,
            "counts": tracer.counts if tracer else None}


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    import landmetrics.cli as cli
    t_import = now()
    argv = plan["argv"]

    def call_argv(i):
        return argv + ["--out-dir", os.path.join(plan["out_base"], f"call{i}")]

    result = {"t_import": t_import, "calls": []}
    calls = result["calls"]
    if plan["mode"] == "cold":
        calls.append(_timed_call(cli, call_argv(0), "cold"))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["maxrss_kb"] = usage.ru_maxrss
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        for i in range(1, 1 + plan["warm_calls"]):
            calls.append(_timed_call(cli, call_argv(i), "warm"))
    else:
        tracer = Tracer()
        calls.append(_timed_call(cli, call_argv(0), "warmup"))
        for pair in itertools.count():
            pair_start = now()
            for traced in (False, True) if pair % 2 == 0 else (True, False):
                calls.append(_timed_call(cli, call_argv(len(calls)),
                                         "traced" if traced else "untraced",
                                         tracer if traced else None))
            if now() + (now() - pair_start) > plan["deadline"]:
                break
        result["layers"] = [layer_metrics(tracer.spans, c["run_id"], c["counts"])
                            for c in calls if c["kind"] == "traced"]
        with open(plan["spans"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": tracer.spans}, fh)
    result["versions"] = versions()
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
