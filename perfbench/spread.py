"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --runs 10 --out baseline.json

For every workload in BENCHMARK.json this makes ``--runs`` untraced runs
with seeds 1 onward and one traced run with seed 1, each of
``run_seconds``.  For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, against the
metric's bound.  ``--out`` writes everything as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload, seed, trace) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def summarize(values: list) -> dict:
    q1, middle, q3 = statistics.quantiles(values, n=4)
    return {"median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / middle if middle else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    out = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    failures = 0
    for name in names:
        results = [run(spec, name, seed, 0) for seed in range(1, args.runs + 1)]
        traced = run(spec, name, 1, 1)
        failures += sum(r["failed"] for r in results) + traced["failed"]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}, "per_layer": {k: v["value"]
                                                 for k, v in traced["metrics"].items()}}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            stats = summarize([r["metrics"][key]["value"] for r in results])
            entry["end_to_end"][key] = stats
            print(f"{name:14s} {key:12s} median {stats['median']:10.4f} "
                  f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} "
                  f"spread {stats['spread']:6.3f} bound {metric['bound']:.2f}"
                  f"{'' if stats['spread'] < metric['bound'] / 3 else '  WIDE'}", flush=True)
        out["workloads"][name] = entry
    print(f"failed runs: {failures}")
    results_file = ROOT / ".perfbench" / "results" / f"{names[-1]}-trace1.json"
    out["machine"] = json.loads(results_file.read_text())["machine"]
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
