"""Run every benchmark workload and summarise host, spread and layers.

Usage (from the repository root)::

    python3 perfbench/suite.py                       # every workload, seeds 1..3
    python3 perfbench/suite.py --seeds 10 --workloads ring_local,cluster_ckpt
    python3 perfbench/suite.py --trace 1             # add a traced run per workload

Each run is ``perfbench/run.py`` in its own process (so each workload's
peak memory is its own), with the run length from ``BENCHMARK.json``.
For every workload and end-to-end metric the suite prints the median,
the quartiles and the spread (quartile distance over median) across
seeds next to the metric's bound; with ``--trace 1`` it also prints the
per-layer metrics of one traced run.  ``--out FILE`` writes everything
as JSON.  The exit code is non-zero when any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    """One ``run.py`` process; returns its host line and result object."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    host = next((json.loads(line[5:]) for line in lines
                 if line.startswith("host ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        result["correct"] = False
    return {"host": host, "result": result, "returncode": proc.returncode}


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / median of ``values``."""
    if len(values) < 2:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    bench = _bench()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=3,
                        help="runs per workload, with seeds 1..N")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report: Dict[str, Any] = {"host": None, "workloads": {}}
    failed = 0
    for name in args.workloads.split(","):
        runs = [run_once(name, seed, args.seconds, 0)
                for seed in range(1, args.seeds + 1)]
        report["host"] = report["host"] or runs[0]["host"]
        failed += sum(1 for r in runs if not r["result"]["correct"])
        entry: Dict[str, Any] = {"runs": [r["result"] for r in runs],
                                 "end_to_end": {}}
        print(f"== {name}: {len(runs)} runs, "
              f"{sum(not r['result']['correct'] for r in runs)} failed")
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in runs if metric["name"] in r["result"]["metrics"]]
            if not values:
                continue
            s = spread(values)
            entry["end_to_end"][metric["name"]] = s
            print(f"  {metric['name']:<14} [{metric['unit']}] "
                  f"median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"spread={s['spread']:.3f} bound={metric['bound']}")
        if args.trace:
            traced = run_once(name, 1, args.seconds, 1)
            failed += not traced["result"]["correct"]
            entry["per_layer"] = traced["result"]["metrics"]
            for metric, v in traced["result"]["metrics"].items():
                print(f"  {metric:<26} [{v['unit']}] {v['value']:.6g}")
        report["workloads"][name] = entry
    print("host " + json.dumps(report["host"], sort_keys=True))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
