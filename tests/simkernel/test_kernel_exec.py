"""Integration tests: program execution under the simulated kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simkernel import Kernel, Mode, SchedPolicy, Sig, TaskState, ops


def run_program(kernel, factory, name="app", **kw):
    t = kernel.spawn_process(name, factory, **kw)
    kernel.run_until_exit(t)
    return t


def test_compute_charges_time(kernel):
    def factory(task, step):
        def gen():
            yield ops.Compute(ns=100_000)
            yield ops.Exit(code=0)

        return gen()

    t = run_program(kernel, factory)
    assert t.exit_code == 0
    assert t.acct.cpu_ns >= 100_000


def test_memwrite_fills_verifiable_pattern(kernel):
    def factory(task, step):
        def gen():
            yield ops.MemWrite(vma="heap", offset=0, nbytes=4096, seed=7)
            yield ops.Exit(code=0)

        return gen()

    t = run_program(kernel, factory)
    heap = t.mm.vma("heap")
    page = heap.read_page(0)
    assert page.any()  # pattern written
    assert t.acct.page_faults >= 1  # first-touch allocation


def test_memwrite_spanning_pages_is_split(kernel):
    def factory(task, step):
        def gen():
            yield ops.MemWrite(vma="heap", offset=100, nbytes=3 * 4096, seed=1)
            yield ops.Exit(code=0)

        return gen()

    t = run_program(kernel, factory)
    heap = t.mm.vma("heap")
    assert len(heap.present_pages()) == 4  # offset 100 spills into a 4th page


def test_syscall_result_reaches_program(kernel):
    seen = {}

    def factory(task, step):
        def gen():
            pid = yield ops.Syscall(name="getpid")
            seen["pid"] = pid
            yield ops.Exit(code=0)

        return gen()

    t = run_program(kernel, factory)
    assert seen["pid"] == t.pid


def test_syscall_charges_boundary_cost_in_user_mode(kernel):
    def factory(task, step):
        def gen():
            yield ops.Syscall(name="getpid")
            yield ops.Exit(code=0)

        return gen()

    t = run_program(kernel, factory)
    assert t.acct.mode_switches >= 2
    assert t.acct.syscalls == 1


def test_unknown_syscall_returns_error_object(kernel):
    got = {}

    def factory(task, step):
        def gen():
            res = yield ops.Syscall(name="no_such_call")
            got["res"] = res
            yield ops.Exit(code=0)

        return gen()

    run_program(kernel, factory)
    assert isinstance(got["res"], Exception)


def test_sleep_blocks_and_wakes(kernel):
    def factory(task, step):
        def gen():
            yield ops.Sleep(ns=1_000_000)
            yield ops.Exit(code=0)

        return gen()

    t = run_program(kernel, factory)
    assert kernel.engine.now_ns >= 1_000_000


def test_program_end_without_exit_op_exits_zero(kernel):
    def factory(task, step):
        def gen():
            yield ops.Compute(ns=10)

        return gen()

    t = run_program(kernel, factory)
    assert t.exit_code == 0
    assert t.state == TaskState.ZOMBIE


def test_exit_code_propagates(kernel):
    def factory(task, step):
        def gen():
            yield ops.Exit(code=42)

        return gen()

    t = run_program(kernel, factory)
    assert t.exit_code == 42


def test_reap_collects_zombie(kernel):
    def factory(task, step):
        def gen():
            yield ops.Exit(code=3)

        return gen()

    t = run_program(kernel, factory)
    assert kernel.reap(t) == 3
    assert t.pid not in kernel.tasks
    with pytest.raises(SimulationError):
        kernel.reap(t)


def test_two_processes_share_one_cpu(kernel):
    def factory(task, step):
        def gen():
            for i in range(5):
                yield ops.Compute(ns=200_000)
            yield ops.Exit(code=0)

        return gen()

    a = kernel.spawn_process("a", factory)
    b = kernel.spawn_process("b", factory)
    kernel.run_for(60_000_000)
    assert not a.alive() and not b.alive()
    # Interleaved on one CPU: total elapsed at least sum of compute.
    assert kernel.engine.now_ns >= 2 * 5 * 200_000


def test_registers_evolve_and_snapshot_roundtrip(kernel):
    def factory(task, step):
        def gen():
            for _ in range(10):
                yield ops.Compute(ns=100)
            yield ops.Exit(code=0)

        return gen()

    t = run_program(kernel, factory)
    snap = t.registers.snapshot()
    assert snap["pc"] > 0x1000
    from repro.simkernel.process import Registers

    r2 = Registers.from_snapshot(snap)
    assert r2.snapshot() == snap


def test_stop_and_resume_task(kernel):
    progress = {"i": 0}

    def factory(task, step):
        def gen():
            for i in range(1000):
                progress["i"] = i
                yield ops.Compute(ns=50_000)
            yield ops.Exit(code=0)

        return gen()

    t = kernel.spawn_process("app", factory)
    kernel.run_for(2_000_000)
    kernel.stop_task(t)
    kernel.run_for(5_000_000)
    assert t.state == TaskState.STOPPED
    frozen_at = progress["i"]
    kernel.run_for(20_000_000)
    assert progress["i"] == frozen_at  # no progress while stopped
    kernel.resume_task(t)
    kernel.run_for(20_000_000)
    assert progress["i"] > frozen_at
    assert t.acct.stall_ns > 0


def test_itimer_posts_periodic_signal(kernel):
    hits = []

    def factory(task, step):
        from repro.simkernel.signals import HandlerKind, SignalHandler

        def handler_factory(tk):
            def h():
                hits.append(kernel.engine.now_ns)
                yield ops.Compute(ns=1_000)

            return h()

        def gen():
            yield ops.Syscall(
                name="sigaction",
                args=(
                    Sig.SIGALRM,
                    SignalHandler(kind=HandlerKind.USER, program_factory=handler_factory),
                ),
            )
            yield ops.Syscall(name="setitimer", args=(5_000_000, Sig.SIGALRM))
            for _ in range(10_000):
                yield ops.Compute(ns=10_000)
            yield ops.Exit(code=0)

        return gen()

    t = kernel.spawn_process("app", factory)
    kernel.run_for(26_000_000)
    assert len(hits) >= 4  # ~every 5 ms over 26 ms


# ----------------------------------------------------------------------
# Page-cursor writes: one op per page, in order, counted once
# ----------------------------------------------------------------------
PAGE = 4096


def _program(*op_list):
    def factory(task, step):
        def gen():
            for op in op_list:
                yield op
            yield ops.Exit(code=0)

        return gen()

    return factory


def _record_pages(kernel, on_page=None):
    """Hook the hardware write tracker to log every page write."""
    log = []

    def tracker(task, vma, pidx, offset, length):
        log.append((pidx, offset, length))
        if on_page is not None:
            on_page(task, pidx)

    kernel.hw_tracker = tracker
    return log


def _usr1(kernel, task, handler_ops=(), uses_non_reentrant=False):
    from repro.simkernel.signals import HandlerKind, SignalHandler

    def handler_factory(tk):
        def h():
            yield ops.Compute(ns=1_000)
            for op in handler_ops:
                yield op

        return h()

    kernel.register_handler(task, Sig.SIGUSR1, SignalHandler(
        kind=HandlerKind.USER, program_factory=handler_factory,
        uses_non_reentrant=uses_non_reentrant))


def test_multipage_write_retires_one_op_per_page_counted_once(kernel):
    log = _record_pages(kernel)
    t = run_program(kernel, _program(
        ops.MemWrite(vma="heap", offset=100, nbytes=3 * PAGE, seed=1)))
    assert log == [(0, 100, PAGE - 100), (1, 0, PAGE), (2, 0, PAGE), (3, 0, 100)]
    assert t.main_steps == 1  # only the first page advances the cursor
    assert t.registers.pc == 0x1000 + 4 * len(log)  # every page is an op


def test_handler_write_rest_runs_after_the_interrupted_write(kernel):
    """A write issued inside a handler frame defers its later pages until
    the frame returns; they queue behind the interrupted write's rest,
    which keeps its own page order."""
    t = kernel.spawn_process("app", _program(
        ops.MemWrite(vma="heap", offset=0, nbytes=4 * PAGE, seed=1)))
    _usr1(kernel, t, [ops.MemWrite(vma="heap", offset=8 * PAGE + 4000,
                                   nbytes=200, seed=2)])
    posted = []

    def on_page(task, pidx):
        if not posted:
            posted.append(pidx)
            kernel.post_signal(task.pid, Sig.SIGUSR1)

    log = _record_pages(kernel, on_page)
    kernel.run_until_exit(t)
    assert [p for p, _, _ in log] == [0, 8, 1, 2, 3, 9]


@pytest.mark.parametrize("signal_page, hazards", [(0, 1), (1, 0)])
def test_only_a_writes_first_page_is_non_reentrant(kernel, signal_page, hazards):
    """A handler delivered after the first page of a malloc-region write
    interrupted it; one delivered after a later page did not."""
    t = kernel.spawn_process("app", _program(
        ops.MemWrite(vma="heap", offset=0, nbytes=3 * PAGE, seed=1,
                     non_reentrant=True)))
    _usr1(kernel, t, uses_non_reentrant=True)

    def on_page(task, pidx):
        if pidx == signal_page:
            kernel.post_signal(task.pid, Sig.SIGUSR1)

    _record_pages(kernel, on_page)
    kernel.run_until_exit(t)
    assert t.signals.reentrancy_hazards == hazards


def test_user_tracking_fault_retries_only_the_faulting_page(kernel):
    from repro.mechanisms.incremental import arm_user_tracking

    t = kernel.spawn_process("app", _program(
        ops.MemWrite(vma="heap", offset=0, nbytes=3 * PAGE, seed=1),
        ops.Syscall(name="mprotect", args=("heap", "arm")),
        ops.MemWrite(vma="heap", offset=0, nbytes=3 * PAGE, seed=2)))
    arm_user_tracking(kernel, t)
    log = _record_pages(kernel)
    kernel.run_until_exit(t)
    assert [p for p, _, _ in log] == [0, 1, 2, 0, 1, 2]
    assert t.acct.tracking_faults == 3
    assert t.main_steps == 3
