"""End-to-end simulator benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kernel_cr --seed 1 --seconds 25 --trace 0

A run first replays the workload once with the default seed and checks
the output digest against ``perfbench/digests.json`` (this also warms
caches and lazy imports), then repeats the workload with ``--seed``
until ``--seconds`` have passed.  Every repetition must pass the
workload's self-check and reproduce the digest of the first one.

``--trace 0`` reports the end-to-end metrics (medians over the
repetitions).  Their times are scaled to the reference host speed: six
runs of :func:`host_probe` bracket every repetition, and its host
seconds are multiplied by ``REF_PROBE_S`` over the median probe time,
because a shared host's speed can change by up to 2x within minutes
(see ``README.md``).  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones (see
``layertrace.py``).  Host details and the spread of every metric are
printed first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when no repetition failed.

``--record-digests`` re-runs every workload with the default seed at
both sizes and rewrites ``digests.json`` -- only for a change that
moves virtual time on purpose.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: Fewest repetitions a run reports a median over, whatever ``--seconds``.
MIN_REPS = 3

#: Host seconds of one :func:`host_probe` on the reference host (a
#: 2-vCPU Sapphire Rapids KVM guest, Python 3.11, undisturbed).
REF_PROBE_S = 0.008

# (name, unit) of every metric, in BENCHMARK.json order.
END_TO_END = [("wall_s", "s"), ("sim_ops_per_s", "ops/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB")]
PER_LAYER = [
    ("engine.events", "count"), ("engine.run_self_s", "s"),
    ("kernel.ops", "count"), ("kernel.events_per_op", "events/op"),
    ("job.predicate_calls", "count"), ("job.predicate_s", "s"),
    ("capture.images", "count"), ("capture.pages", "count"),
    ("capture.bytes", "B"), ("capture.s", "s"), ("scan.s", "s"),
    ("restore.s", "s"),
    ("dedup.digest_s", "s"), ("dedup.logical_bytes", "B"),
    ("dedup.stored_bytes", "B"), ("dedup.ratio", "ratio"),
    ("storage.store_s", "s"), ("storage.load_s", "s"),
    ("rs.encode_bytes", "B"), ("rs.decode_bytes", "B"), ("rs.delta_bytes", "B"),
    ("barrier.windows", "count"), ("barrier.envelopes", "count"),
    ("barrier.idle_shard_frac", "ratio"), ("barrier.status_s", "s"),
    ("barrier.window_s", "s"), ("barrier.exchange_s", "s"), ("barrier.send_s", "s"),
    ("transport.fallback_frames", "count"), ("transport.export_s", "s"),
    ("proc.cpu_s", "s"),
    ("obs.fold_s", "s"), ("obs.export_s", "s"), ("obs.export_bytes", "B"),
    ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
]

#: per-layer time metric -> tracer layer whose self time it reports.
LAYER_TIMES = {
    "engine.run_self_s": "engine", "job.predicate_s": "job.predicate",
    "capture.s": "capture", "scan.s": "scan", "restore.s": "restore",
    "dedup.digest_s": "dedup.digest", "storage.store_s": "storage.store",
    "storage.load_s": "storage.load", "barrier.status_s": "barrier.status",
    "barrier.window_s": "barrier.window",
    "barrier.exchange_s": "barrier.exchange", "barrier.send_s": "barrier.send",
    "transport.export_s": "transport.export", "obs.fold_s": "obs.fold",
    "obs.export_s": "obs.export",
}


def _import_repro() -> None:
    """Make the checkout's ``src`` importable; fail loudly without it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3}


class _Cell:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


def host_probe() -> float:
    """Host seconds of a fixed pure-Python computation that runs no
    ``repro`` code: a sample of how fast the host is right now, which no
    change to the simulator can move."""
    t0 = perf_counter()
    cells = [_Cell() for _ in range(256)]
    table: Dict[int, int] = {}
    for i in range(40_000):
        cell = cells[i & 255]
        cell.n = (cell.n + i) & 0xFFFFFF
        table[i & 1023] = cell.n
    return perf_counter() - t0


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (no child process, so
    nothing outside the workload adds to the children's peak memory)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info(workload: str, seed: int) -> Dict[str, Any]:
    """Host and input identity printed with every result."""
    import numpy

    return {"workload": workload, "seed": seed, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": _git_sha()}


def _children_maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _peak_rss_mb(children_before_kib: int) -> float:
    """Peak RSS of this process plus the largest worker it reaped.

    ``VmHWM`` is used for this process because ``exec`` resets it, while
    ``ru_maxrss`` keeps the peak of whatever launcher exec'd Python.  The
    children's ``ru_maxrss`` counts only if a child reaped after
    ``children_before_kib`` was sampled set a new peak.
    """
    with open("/proc/self/status") as f:
        own = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    kids = _children_maxrss_kib()
    return (own + (kids if kids > children_before_kib else 0)) / 1024.0


def load_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS) as f:
        return json.load(f)["digests"]


class Run:
    """Repetitions of one workload and their failure accounting."""

    def __init__(self, workload: str, size: str = "full",
                 reference: Optional[str] = None) -> None:
        import scenarios

        self.name = workload
        self.fn, key = scenarios.WORKLOADS[workload]
        self.params = scenarios.SIZES[size][key]
        self.default_seed = scenarios.DEFAULT_SEED
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self._seed_digest: Dict[int, str] = {}

    def attempt(self, seed: int, tracer=None):
        """One repetition; returns its Outcome, or None when it failed."""
        self.attempted += 1
        gc.collect()  # start every repetition from the same heap state
        probes = [host_probe() for _ in range(3)]
        try:
            out = self.fn(seed, self.params, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        out.probe_s = statistics.median(probes + [host_probe() for _ in range(3)])
        problem = out.problem if not out.ok else ""
        expected = self._seed_digest.setdefault(seed, out.digest)
        if seed == self.default_seed and self.reference is not None:
            expected = self.reference
        if not problem and out.digest != expected:
            problem = (f"digest {out.digest[:16]} != expected {expected[:16]}: "
                       "virtual-time outputs moved")
        if problem:
            print(f"perfbench: {self.name} seed {seed} failed: {problem}",
                  file=sys.stderr)
            self.failed += 1
            return None
        return out


def _end_to_end(outs) -> Dict[str, List[float]]:
    """Per-repetition samples.  Times are scaled to the reference host's
    speed by the host probes taken around each repetition; the raw host
    seconds and the probe times are kept for the printed spread lines."""
    speed = [REF_PROBE_S / o.probe_s for o in outs]
    return {
        "wall_s": [o.wall_s * k for o, k in zip(outs, speed)],
        "sim_ops_per_s": [o.sim_ops / (o.wall_s * k) for o, k in zip(outs, speed)],
        "setup_s": [o.setup_s * k for o, k in zip(outs, speed)],
        "raw_wall_s": [o.wall_s for o in outs],
        "raw_setup_s": [o.setup_s for o in outs],
        "host_probe_s": [o.probe_s for o in outs],
    }


def _per_layer(outs, tracers, untraced_walls) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {name: [] for name, _ in PER_LAYER}
    for out, tr in zip(outs, tracers):
        row: Dict[str, float] = dict(out.counts)
        ops = out.counts["kernel.ops"]
        row["kernel.events_per_op"] = out.counts["engine.events"] / ops if ops else 0.0
        row["job.predicate_calls"] = tr.calls.get("job.predicate", 0)
        for key in ("capture.images", "capture.pages", "capture.bytes"):
            row[key] = tr.counts.get(key, 0)
        for metric, layer in LAYER_TIMES.items():
            row[metric] = tr.self_s.get(layer, 0.0)
        row["trace.unattributed_s"] = out.wall_s - sum(tr.self_s.values())
        row["proc.cpu_s"] = out.cpu_s
        for name in samples:
            if name != "trace.overhead_s":
                samples[name].append(row[name])
    overhead = (statistics.median(o.wall_s for o in outs)
                - statistics.median(untraced_walls))
    samples["trace.overhead_s"] = [overhead]
    return samples


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", reference: Optional[str] = None):
    """Run one benchmark run; returns (Run, {metric: samples})."""
    import layertrace

    children_before = _children_maxrss_kib()
    run = Run(workload, size, reference)
    points = layertrace.layer_points() if trace else []
    run.attempt(run.default_seed)  # digest check + warm-up; not reported
    deadline = perf_counter() + seconds
    plain, traced, tracers = [], [], []
    while True:
        out = run.attempt(seed)
        if out is not None:
            plain.append(out)
        if trace:
            tracer = layertrace.LayerTracer()
            tracer.install(points)
            try:
                out = run.attempt(seed, tracer)
            finally:
                tracer.uninstall()
            if out is not None:
                traced.append(out)
                tracers.append(tracer)
        now = perf_counter()
        if now >= deadline and (len(plain) >= MIN_REPS or run.failed):
            break
        if now >= deadline + seconds:
            break  # repetitions far slower than planned: report what ran
    if trace:
        samples = _per_layer(traced, tracers, [o.wall_s for o in plain]) if (
            traced and plain) else {}
    else:
        samples = _end_to_end(plain) if plain else {}
        if samples:
            samples["peak_rss_mb"] = [_peak_rss_mb(children_before)]
    return run, samples


def report(run: "Run", samples: Dict[str, List[float]], trace: bool) -> Dict[str, Any]:
    """Print the spread lines; return the final result object."""
    units = dict(PER_LAYER if trace else END_TO_END)
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, values in samples.items():
        q = _quartiles(values)
        print(f"spread {name} [{units.get(name, 's')}] median={q['median']:.6g} "
              f"q1={q['q1']:.6g} q3={q['q3']:.6g} n={len(values)}")
        if name in units:
            metrics[name] = {"value": q["median"], "unit": units[name]}
    correct = run.failed == 0 and len(metrics) == len(units)
    return {"correct": correct, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def record_digests() -> None:
    """Rewrite ``digests.json`` from default-seed runs at both sizes."""
    import scenarios

    with open(DIGESTS) as f:
        doc = json.load(f)
    for size in ("full", "tiny"):
        for name in scenarios.WORKLOADS:
            run = Run(name, size)
            out = run.attempt(scenarios.DEFAULT_SEED)
            if out is None:
                raise SystemExit(f"perfbench: {name} ({size}) failed; not recorded")
            doc["digests"][size][name] = out.digest
            print(f"{size} {name} {out.digest}")
    with open(DIGESTS, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    _import_repro()
    if args.record_digests:
        record_digests()
        return 0
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(scenarios.WORKLOADS)}")
    print("host " + json.dumps(host_info(args.workload, args.seed), sort_keys=True))
    reference = load_digests()["full"][args.workload]
    run, samples = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace), reference=reference)
    result = report(run, samples, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
