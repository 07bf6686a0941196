"""Gates of ``benchmarks/perf/run_bench.py --check``.

Deterministic columns must match the committed baseline exactly, in
either direction; wall-clock columns keep a ratio budget for runner
noise.  Each case feeds ``check_regression`` the committed
``BENCH_PERF.json`` as baseline and a perturbed copy as the fresh run.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).parent.parent
BASELINE = REPO / "BENCH_PERF.json"


def _load_run_bench():
    spec = importlib.util.spec_from_file_location(
        "run_bench", REPO / "benchmarks" / "perf" / "run_bench.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


run_bench = _load_run_bench()


def _check(current) -> int:
    return run_bench.check_regression(current, BASELINE, max_regression=2.0)


def _baseline():
    return json.loads(BASELINE.read_text())


def test_unchanged_baseline_passes():
    assert _check(_baseline()) == 0


@pytest.mark.parametrize("section,key", run_bench.EXACT_COLUMNS)
@pytest.mark.parametrize("direction", ["drop", "rise"])
def test_any_change_in_a_deterministic_column_fails(section, key, direction):
    current = _baseline()
    base = current[section][key]
    step = abs(base) * 0.05 or 1  # well inside the 2x ratio budget
    current[section][key] = base - step if direction == "drop" else base + step
    assert _check(current) == 1


def test_wall_clock_slowdown_within_budget_passes():
    current = _baseline()
    for section, key in run_bench.RATIO_COLUMNS:
        current[section][key] = current[section][key] / 1.5
    assert _check(current) == 0


def test_wall_clock_slowdown_beyond_budget_fails():
    current = _baseline()
    current["block_scan"]["vectorized_mbps"] /= 3.0
    assert _check(current) == 1
