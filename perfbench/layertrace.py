"""Outside-in layer tracer for the end-to-end benchmark.

The tracer attributes host time to the simulator's layers without any
change under ``src/``: :meth:`LayerTracer.install` replaces public
functions and methods of :mod:`repro` with timing wrappers at run time,
and :meth:`LayerTracer.uninstall` puts every original back.

Each wrapper pushes a frame on one call stack, so every layer reports
*self* time: its own duration minus the time of wrapped layers it
called.  A call into a layer that is already on top of the stack (a
storage backend delegating to the next one, ``super()`` chains) is
charged to the outer frame and not counted twice.  Self times of all
layers therefore sum to at most the traced wall time; the remainder is
reported as unattributed.

Generator functions (the capture pipeline yields simulated ops from
inside a kernel-thread program) do their work when resumed, not when
called, so they are wrapped with a proxy that times every resumption.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["LayerTracer", "layer_points"]


class LayerTracer:
    """Self-time and call-count accumulators keyed by layer name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Work counts recorded at layer boundaries (``on_call`` hooks).
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def timed(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` as one span of ``layer``."""
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        self.calls[layer] += 1
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            self.self_s[layer] += dt - frame[1]
            if stack:
                stack[-1][1] += dt

    def wrap(self, fn: Callable, layer: str,
             on_call: Optional[Callable] = None) -> Callable:
        """A timing wrapper around ``fn`` (generator-aware)."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(tracer, *args, **kwargs)
                return tracer._resume_timed(fn(*args, **kwargs), layer)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, *args, **kwargs)
            return tracer.timed(layer, fn, *args, **kwargs)
        return wrapper

    def _resume_timed(self, gen, layer: str):
        """Proxy generator: each resumption of ``gen`` is one span."""
        method, arg = gen.send, None
        while True:
            try:
                op = self.timed(layer, method, arg)
            except StopIteration as stop:
                return stop.value
            try:
                arg = yield op
                method = gen.send
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the inner generator
                method, arg = gen.throw, exc

    # ------------------------------------------------------------------
    def install(self, points: Iterable[Tuple[Any, str, str, Optional[Callable]]]) -> None:
        """Wrap each ``(owner, attribute, layer, on_call)`` point.

        A module-level function is replaced in every loaded ``repro``
        module that bound it by name (``from .x import f`` copies the
        reference), so the wrapper is what every caller reaches.
        """
        for owner, name, layer, on_call in points:
            original = owner.__dict__[name]
            wrapper = self.wrap(original, layer, on_call)
            if inspect.ismodule(owner):
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("repro")
                            and mod.__dict__.get(name) is original):
                        self._patch(mod, name, original, wrapper)
            else:
                self._patch(owner, name, original, wrapper)

    def _patch(self, owner: Any, name: str, original: Any, wrapper: Any) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Put every original back (reverse order of patching)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# Where the layers are
# ----------------------------------------------------------------------
_STORE_VERBS = ("store", "store_delta", "open_stream", "write", "commit")
_LOAD_VERBS = ("load", "load_parallel", "load_fanout")


def _count_image(tracer: LayerTracer, kernel, storage, image, *args, **kwargs) -> None:
    """``store_image`` boundary: one captured image, its pages and bytes."""
    tracer.counts["capture.images"] += 1
    tracer.counts["capture.pages"] += sum(c.npages for c in image.chunks)
    tracer.counts["capture.bytes"] += int(image.size_bytes)


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


def _own_methods(classes: Iterable[type], names: Iterable[str], layer: str):
    for cls in classes:
        for name in names:
            if inspect.isfunction(cls.__dict__.get(name)):
                yield cls, name, layer, None


def layer_points() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """Every ``(owner, attribute, layer, on_call)`` the traced run wraps.

    Layers (the module each one lives in):

    * ``engine`` -- ``simkernel.engine.Engine.run``; its self time is the
      op interpreter and event dispatch together.
    * ``capture`` -- ``core.capture`` image building and
      ``mechanisms.incremental`` dirty tracking.
    * ``scan`` -- ``core.digest.block_digests``.
    * ``restore`` -- ``Checkpointer.restart`` (and overrides),
      ``core.capture.restore_image``, ``core.image.materialize_chain``.
    * ``dedup.digest`` -- ``core.digest.payload_digest``.
    * ``storage.store`` / ``storage.load`` -- the store and load verbs of
      every ``StorageBackend`` and ``WriteStream`` class.
    * ``barrier.status`` / ``barrier.window`` / ``barrier.exchange`` --
      the ``ShardGroup`` lockstep verbs; ``barrier.send`` --
      ``ShardContext.send`` (envelope construction and its canonical
      payload key, called from inside engine events); ``transport.export`` --
      ``ProcessShardGroup.export_all``.
    * ``obs.fold`` / ``obs.export`` -- ``obs.fold`` and ``obs.export``.

    The job-completion predicate is traced by the workload itself (it
    is the benchmark's own callable).

    Every ``repro`` module is imported first: a module imported while
    the wrappers are installed would bind a wrapper by name and keep it
    after :meth:`LayerTracer.uninstall`.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    from repro.core import capture, checkpointer, digest, image
    from repro.mechanisms import incremental
    from repro.obs import export, fold
    from repro.runner import parallel as runner_parallel
    from repro.simkernel import engine, parallel
    from repro.storage.backends import StorageBackend, WriteStream

    points: List[Tuple[Any, str, str, Optional[Callable]]] = [
        (engine.Engine, "run", "engine", None),
        (capture, "store_image", "capture", _count_image),
    ]
    for name in ("snapshot_metadata", "user_extract_metadata",
                 "select_pages", "copy_pages", "capture_extents"):
        points.append((capture, name, "capture", None))
    for name in ("arm_system_tracking", "arm_user_tracking", "user_arm_ops"):
        points.append((incremental, name, "capture", None))
    # DirtyLog.record runs inside the simulated fault handler on every
    # tracked write: that is interpreter work, so it stays unwrapped.
    points += _own_methods(
        (incremental.DirtyLog, incremental.BlockHashTracker,
         incremental.AdaptiveBlockTracker),
        ("drain", "scan_ops"),
        "capture",
    )
    points += [
        (digest, "block_digests", "scan", None),
        (digest, "payload_digest", "dedup.digest", None),
        (capture, "restore_image", "restore", None),
        (image, "materialize_chain", "restore", None),
    ]
    points += _own_methods(_subclasses(checkpointer.Checkpointer),
                           ("restart",), "restore")
    backends = _subclasses(StorageBackend) + _subclasses(WriteStream)
    points += _own_methods(backends, _STORE_VERBS, "storage.store")
    points += _own_methods(backends, _LOAD_VERBS, "storage.load")
    groups = _subclasses(parallel.ShardGroup)
    points += _own_methods(groups, ("status_all",), "barrier.status")
    points += _own_methods(groups, ("window_all",), "barrier.window")
    points += _own_methods(groups, ("exchange", "deliver_all"), "barrier.exchange")
    points.append((parallel.ShardContext, "send", "barrier.send", None))
    points.append((runner_parallel.ProcessShardGroup, "export_all",
                   "transport.export", None))
    for name in ("fold_exports", "fold_exports_arrays", "strip_metrics"):
        points.append((fold, name, "obs.fold", None))
    for name in ("export_obs", "to_json"):
        points.append((export, name, "obs.export", None))
    return points
