"""Window-pipeline overlap helpers: input prefetch and output drain.

Two halves of the double-buffered streaming engine:

* :func:`prefetched_windows` wraps a window reader in a
  :class:`~repro.formats.stream.PrefetchIterator`, so window N+1's
  ``read_site`` decode runs on a background thread while window N computes.
* :class:`OutputDrain` moves the output-file append off the compute thread:
  the pipeline's ``output`` phase still *encodes* each blob (device kernels,
  fully counted), then hands the bytes here for ordered background writing.

Neither changes results or counters — blobs are written in submission
order and all event accounting stays on the compute thread.
"""

from __future__ import annotations

import queue
import threading
from typing import Iterable, Optional

from ..formats.stream import PrefetchIterator

#: Windows decoded ahead of the compute loop (double buffering).
PREFETCH_DEPTH = 2


def prefetched_windows(
    reader: Iterable, enabled: bool = True, depth: int = PREFETCH_DEPTH
) -> Iterable:
    """The reader itself, or its prefetching wrapper when ``enabled``."""
    if not enabled:
        return reader
    return PrefetchIterator(reader, depth=depth)


class _Abandoned(Exception):
    """Raised inside the writer to discard an aborted drain's output."""


class OutputDrain:
    """Ordered, crash-safe background writer for encoded result blobs.

    ``submit`` enqueues bytes; a writer thread appends them — in
    submission order — to a temporary ``<path>.part`` file, which is
    atomically renamed to ``path`` only when ``close`` has flushed every
    blob (:func:`repro.faults.journal.atomic_output`).  A run killed at
    any instant therefore leaves either a complete output file or none;
    a partial/corrupt result file can never be mistaken for a finished
    one.  ``close`` re-raises any I/O error the writer hit — a failed
    write still fails the run, and removes the partial file.  Used as a
    context manager, an exception in the block calls :meth:`abort`.
    """

    _SENTINEL = None
    _ABORT = object()

    def __init__(self, path, depth: int = 4) -> None:
        self.path = path
        self._q: queue.Queue = queue.Queue(maxsize=max(1, depth))
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._write_loop, name="gsnp-output-drain", daemon=True
        )
        self._thread.start()

    def _write_loop(self) -> None:
        from ..faults.journal import atomic_output

        saw_sentinel = False
        try:
            with atomic_output(self.path) as f:
                while True:
                    blob = self._q.get()
                    saw_sentinel = blob is self._SENTINEL or blob is self._ABORT
                    if blob is self._ABORT:
                        raise _Abandoned
                    if saw_sentinel:
                        return
                    f.write(blob)
        except _Abandoned:
            pass
        except BaseException as exc:
            self._error = exc
            # Keep draining so submitters never block on a dead writer —
            # unless the failure was the final commit itself, after the
            # sentinel was already consumed.
            while not saw_sentinel:
                blob = self._q.get()
                saw_sentinel = blob is self._SENTINEL or blob is self._ABORT

    def submit(self, blob: bytes) -> None:
        """Queue one blob for ordered append."""
        self._q.put(blob)

    def close(self) -> None:
        """Flush pending writes; re-raise the writer's error, if any."""
        self._q.put(self._SENTINEL)
        self._thread.join()
        if self._error is not None:
            raise self._error

    def abort(self) -> None:
        """Discard the output: no final file is left behind."""
        self._q.put(self._ABORT)
        self._thread.join()

    def __enter__(self) -> "OutputDrain":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.close()
        else:
            self.abort()
        return False


__all__ = ["OutputDrain", "PREFETCH_DEPTH", "prefetched_windows"]
