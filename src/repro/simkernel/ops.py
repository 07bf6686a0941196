"""The operation vocabulary that simulated programs are written in.

A *program* is a Python generator that yields :class:`Op` instances; the
kernel executes each op, charges virtual time, and sends results back into
the generator.  Programs run in user mode (applications, user-level
checkpoint handlers) or kernel mode (kernel threads, kernel-mode signal
actions); the same vocabulary serves both, with the kernel charging
boundary crossings only where they really occur.

Programs must be **restartable**: a workload supplies a
``program_factory(task, start_step)`` and the kernel counts completed ops,
so a restarted task resumes at the recorded step with its memory image
restored from the checkpoint rather than replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

__all__ = [
    "Op",
    "Compute",
    "MemWrite",
    "MemRead",
    "Syscall",
    "Sleep",
    "Exit",
    "Yield",
]


@dataclass
class Op:
    """Base class for program operations."""

    #: When true, the op executes inside a non-reentrant libc region
    #: (malloc/free).  A user signal handler that itself uses those
    #: functions and interrupts such an op triggers the reentrancy hazard
    #: the paper describes.
    non_reentrant: bool = field(default=False, kw_only=True)


@dataclass
class Compute(Op):
    """Pure CPU work for ``ns`` nanoseconds."""

    ns: int = 0


@dataclass
class MemWrite(Op):
    """Write ``nbytes`` at ``offset`` inside the named VMA.

    The kernel services the range page by page, services faults
    (allocation, COW, tracking write-protect), charges copy time, and
    fills a deterministic pattern derived from ``seed`` so restores are
    byte-verifiable.  Each page retires as one op; only the first
    advances the restart step counter.
    """

    vma: str = ""
    offset: int = 0
    nbytes: int = 0
    seed: int = 0


@dataclass
class MemRead(Op):
    """Read ``nbytes`` at ``offset`` in the named VMA (charges bandwidth,
    sets accessed bits, participates in the TLB-cold penalty)."""

    vma: str = ""
    offset: int = 0
    nbytes: int = 0


@dataclass
class Syscall(Op):
    """Invoke the named system call; the result is sent back into the
    program generator.  User-mode callers pay the full boundary cost;
    kernel-mode callers pay only the work."""

    name: str = ""
    args: Tuple[Any, ...] = ()


@dataclass
class Sleep(Op):
    """Block voluntarily for ``ns`` of virtual time."""

    ns: int = 0


@dataclass
class Exit(Op):
    """Terminate the task with ``code``."""

    code: int = 0


@dataclass
class Yield(Op):
    """Relinquish the CPU without blocking (sched_yield)."""
