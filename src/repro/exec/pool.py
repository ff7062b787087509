"""Worker pools: multiprocessing and an in-process serial fallback.

Both pools expose the same three-call interface — ``submit`` returning a
handle, ``wait_any`` blocking until at least one handle finishes (or an
optional timeout elapses), and the handle's ``outcome()`` reporting
``("ok", value)`` or ``("err", exc)`` — so the executor's bounded-queue /
retry loop is written once.  A worker process that dies outright (not
just raises) surfaces as :class:`PoolBroken`; the executor asks the pool
to ``recover`` and re-dispatches.  :meth:`ProcessPool.kill`
force-terminates the workers — the deadline enforcement path for shards
that overrun their ``shard_timeout``.

Falling back from multiprocessing to the serial pool is the first rung of
the degradation ladder and is never silent: :func:`make_pool` emits a
structured :class:`~repro.faults.degrade.DegradationWarning` naming the
exception that broke multiprocessing and the fallback chosen.
"""

from __future__ import annotations

import concurrent.futures as cf
import multiprocessing
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Optional

from ..faults.degrade import degrade


class PoolBroken(RuntimeError):
    """A worker process terminated abruptly; the pool must be rebuilt."""


class _SerialHandle:
    """Handle of an eagerly-executed in-process task."""

    def __init__(self, fn: Callable[[Any], Any], arg: Any) -> None:
        try:
            self._outcome = ("ok", fn(arg))
        except Exception as exc:  # noqa: BLE001 — forwarded to retry logic
            self._outcome = ("err", exc)

    def outcome(self) -> tuple[str, Any]:
        return self._outcome


class SerialPool:
    """In-process executor sharing :class:`ProcessPool`'s interface.

    The fallback when ``workers <= 1`` or when the platform cannot fork:
    the same worker function, initializer, bounded queue and retry logic
    run in the parent process, one task at a time.  Tasks execute eagerly
    at ``submit``, so shard deadlines cannot preempt here — the executor
    skips deadline enforcement on serial pools.
    """

    kind = "serial"

    def __init__(
        self,
        workers: int = 1,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
    ) -> None:
        self.workers = 1
        if initializer is not None:
            initializer(*initargs)

    def submit(self, fn: Callable[[Any], Any], arg: Any) -> _SerialHandle:
        return _SerialHandle(fn, arg)

    def wait_any(
        self,
        handles: Iterable[_SerialHandle],
        timeout: Optional[float] = None,
    ) -> list[_SerialHandle]:
        return list(handles)  # eager execution: everything is already done

    def recover(self, handle: _SerialHandle) -> None:
        pass

    def kill(self) -> None:
        pass

    def shutdown(self) -> None:
        pass


class _ProcessHandle:
    def __init__(self, future: cf.Future, generation: int) -> None:
        self.future = future
        #: Which executor build ran the task (see :meth:`ProcessPool.recover`).
        self.generation = generation

    def outcome(self) -> tuple[str, Any]:
        try:
            return ("ok", self.future.result())
        except BrokenProcessPool as exc:
            raise PoolBroken(str(exc)) from exc
        except cf.CancelledError as exc:
            raise PoolBroken(f"task cancelled by pool restart: {exc}") from exc
        except Exception as exc:  # noqa: BLE001 — forwarded to retry logic
            return ("err", exc)


class ProcessPool:
    """Multiprocessing pool over ``concurrent.futures``."""

    kind = "process"

    def __init__(
        self,
        workers: int,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
    ) -> None:
        self.workers = workers
        self._initializer = initializer
        self._initargs = initargs
        self._executor: Optional[cf.ProcessPoolExecutor] = None
        self._generation = 0
        self._start()

    def _start(self) -> None:
        self._executor = cf.ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(),
            initializer=self._initializer,
            initargs=self._initargs,
        )
        self._generation += 1

    def submit(self, fn: Callable[[Any], Any], arg: Any) -> _ProcessHandle:
        try:
            future = self._executor.submit(fn, arg)
        except BrokenProcessPool:
            # A worker died after the last completion wait; the handles in
            # flight on it report that themselves.  Rebuild for this task.
            self.restart()
            future = self._executor.submit(fn, arg)
        return _ProcessHandle(future, self._generation)

    def wait_any(
        self,
        handles: Iterable[_ProcessHandle],
        timeout: Optional[float] = None,
    ) -> list[_ProcessHandle]:
        """Handles done within ``timeout`` (possibly none on expiry)."""
        handles = list(handles)
        done, _ = cf.wait(
            [h.future for h in handles],
            timeout=timeout,
            return_when=cf.FIRST_COMPLETED,
        )
        return [h for h in handles if h.future in done]

    def restart(self) -> None:
        """Rebuild the pool after a worker crash (in-flight work is lost)."""
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._start()

    def recover(self, handle: _ProcessHandle) -> None:
        """Rebuild the pool after ``handle`` reported a dead worker.

        Nothing happens if the pool was rebuilt since ``handle`` was
        submitted: a second rebuild would cancel the work already
        re-dispatched to the new workers.
        """
        if handle.generation == self._generation:
            self.restart()

    def kill(self) -> None:
        """Force-terminate every worker, then rebuild.

        The deadline path: a shard that overran its ``shard_timeout`` is
        running arbitrary code and cannot be cancelled cooperatively, so
        its process is terminated outright.  Every other in-flight handle
        surfaces :class:`PoolBroken` and is re-dispatched by the executor.
        """
        procs = list(getattr(self._executor, "_processes", {}).values())
        for p in procs:
            p.terminate()
        self._executor.shutdown(wait=False, cancel_futures=True)
        for p in procs:
            p.join(timeout=5.0)
        self._start()

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)


def make_pool(
    workers: int,
    initializer: Optional[Callable] = None,
    initargs: tuple = (),
    force_serial: bool = False,
):
    """Build the right pool: multiprocessing, or the serial fallback.

    The fallback fires only for the two ways a platform can lack working
    multiprocessing — ``OSError`` (no usable synchronization primitives /
    insufficient resources) and ``ImportError`` (no ``_multiprocessing``)
    — and announces itself with a structured warning naming the cause.
    Anything else (e.g. a ``ValueError`` from a bad ``workers`` count) is
    a programming error and propagates.
    """
    if force_serial or workers <= 1:
        return SerialPool(initializer=initializer, initargs=initargs)
    try:
        return ProcessPool(workers, initializer=initializer, initargs=initargs)
    except (OSError, ImportError) as exc:
        degrade(
            "pool-serial-fallback",
            action=f"running {workers}-worker job in-process, serially",
            reason=f"multiprocessing unavailable: {exc!r}",
            workers=workers,
        )
        return SerialPool(initializer=initializer, initargs=initargs)
