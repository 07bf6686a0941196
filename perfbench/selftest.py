"""Self-test of the benchmark itself, at tiny scenario sizes (~10 s).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

1. every workload (``ring_procs`` included, which ``BENCHMARK.json``
   does not list) emits every end-to-end metric (untraced run) and
   every per-layer metric (traced run) named in ``BENCHMARK.json``,
   each with its unit, and that the runs pass;
2. a corrupted reference digest is counted as a failed run and makes
   the result incorrect;
3. no wrapper is left installed after a traced run, so the untraced
   repetitions that follow it time unmodified code.

Exit code 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from typing import Any, Dict, List

import run
import scenarios

SEED = 1


def _quiet_measure(workload: str, trace: bool, reference: str):
    with contextlib.redirect_stdout(io.StringIO()):
        r, samples = run.measure(workload, SEED, 0, trace, size="tiny",
                                 reference=reference)
        return r, run.report(r, samples, trace)


def _bindings() -> Dict[Any, Any]:
    """Every function bound in a ``repro`` module or on a traced class."""
    import layertrace

    points = layertrace.layer_points()  # imports every repro module
    out: Dict[Any, Any] = {}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro"):
            for name, value in vars(mod).items():
                if callable(value):
                    out[(mod.__name__, name)] = value
    for owner, name, _, _ in points:
        out[(owner, name)] = owner.__dict__[name]
    return out


def main() -> int:
    run._import_repro()
    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    tiny = run.load_digests()["tiny"]
    problems: List[str] = []

    # 1. metric coverage, and 3. wrappers removed after each traced run.
    for workload in scenarios.WORKLOADS:
        for trace, wanted in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            before = _bindings() if trace else None
            r, result = _quiet_measure(workload, trace, tiny[workload])
            tag = f"{workload} trace={int(trace)}"
            if not result["correct"] or r.failed:
                problems.append(f"{tag}: run not correct ({r.failed} failed)")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{tag}: metric {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{tag}: {m['name']} unit {got['unit']} != {m['unit']}")
            if trace:
                after = _bindings()
                left = [k for k in before if after.get(k) is not before[k]]
                if left or set(after) != set(before):
                    problems.append(f"{tag}: bindings changed after the run: {left[:5]}")

    # 2. a corrupted reference digest must count as a failed run.
    r, result = _quiet_measure("ring_local", False, "0" * 64)
    if r.failed != 1 or result["correct"]:
        problems.append(f"corrupted digest: failed={r.failed}, correct={result['correct']}")

    for p in problems:
        print("selftest FAIL: " + p)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
