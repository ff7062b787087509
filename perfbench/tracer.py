"""Span tracing installed from outside the program.

:func:`install` wraps the public functions of each layer where its caller
looks the name up (``repro.core.pipeline.gsnp_counting``, not the defining
module, when the pipeline imported it by name) plus
``repro.gpusim.device.Device.launch``.  Every wrapped call records a span
``(id, parent, name, thread, start, end)``; the parent is the innermost
open span on the same thread.  Launch spans additionally fold the
device-book counter delta of the launched kernel into per-kernel totals.
Nothing under ``src/`` changes: :meth:`Tracer.uninstall` restores every
original attribute.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import threading
import time

#: (span name, module where the caller looks the name up, attribute path).
#: A dotted attribute path patches a class attribute (method/staticmethod).
TARGETS = (
    # formats: input parsing and the window stream
    ("formats.parse", "repro.formats.fasta", "read_fasta"),
    ("formats.parse", "repro.formats.soap", "read_soap"),
    ("formats.parse", "repro.formats.prior", "read_prior"),
    ("formats.window_wait", "repro.core.pipeline", "prefetched_windows"),
    # soapsnp: host-side model code the GSNP pipeline reuses
    ("soapsnp.extract_observations", "repro.core.pipeline", "extract_observations"),
    ("soapsnp.summarize_window", "repro.core.pipeline", "summarize_window"),
    ("soapsnp.summarize_window", "repro.core.posterior", "summarize_window"),
    ("soapsnp.build_p_matrix", "repro.core.pipeline", "build_p_matrix"),
    # core: the pipeline and its kernel chains
    ("core.run", "repro.core.pipeline", "GsnpPipeline.run"),
    ("core.run_cohort", "repro.core.pipeline", "GsnpPipeline.run_cohort"),
    ("core.calibrate", "repro.core.pipeline", "GsnpPipeline.calibrate"),
    ("core.counting", "repro.core.pipeline", "gsnp_counting"),
    ("core.likelihood_sort", "repro.core.pipeline", "gsnp_likelihood_sort"),
    ("core.likelihood_comp", "repro.core.pipeline", "gsnp_likelihood_comp"),
    ("core.likelihood_posterior_fused", "repro.core.pipeline",
     "gsnp_likelihood_posterior_fused"),
    ("core.posterior", "repro.core.pipeline", "gsnp_posterior"),
    ("core.fused_posterior_tail", "repro.core.pipeline", "fused_posterior_tail"),
    ("core.recycle", "repro.core.pipeline", "gsnp_recycle"),
    ("core.recycle_fused", "repro.core.pipeline", "gsnp_recycle_fused"),
    ("core.merge_observations", "repro.core.pipeline", "merge_observations"),
    # gpusim: launch plans, table residency, launches
    ("gpusim.build_launch_plan", "repro.core.pipeline", "build_launch_plan"),
    ("gpusim.build_cohort_plan", "repro.core.pipeline", "build_cohort_plan"),
    ("gpusim.table_load", "repro.core.pipeline", "GsnpTables.load"),
    ("gpusim.residency_get", "repro.gpusim.residency", "DeviceResidency.get"),
    ("gpusim.launch", "repro.gpusim.device", "Device.launch"),
    # sortnet
    ("sortnet.sort", "repro.core.likelihood", "multipass_sort"),
    # compress
    ("compress.encode_table", "repro.core.pipeline", "encode_table"),
    ("compress.encode_tables_fused", "repro.compress.fusedcodec",
     "encode_tables_fused"),
    ("compress.encode_alignments", "repro.core.pipeline", "encode_alignments"),
    # exec
    ("exec.run_hetero", "repro.exec.hetero", "run_hetero"),
    ("exec.merge", "repro.exec.executor", "merge_shard_results"),
    # faults
    ("faults.journal_commit", "repro.faults.journal", "ShardJournal.commit"),
    # serve
    ("serve.run_job", "repro.serve.runner", "ResidentRunner.run_job"),
)

_COUNTER_FIELDS = (
    "launches", "inst_warp", "g_load", "g_store", "g_load_bytes",
    "g_store_bytes", "s_load_warp", "s_store_warp", "c_load",
)


def _snap(c) -> tuple:
    return tuple(getattr(c, f) for f in _COUNTER_FIELDS)


class Tracer:
    """In-memory span recorder plus the counters measured at the spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        #: Per-kernel counter deltas and host seconds of traced launches.
        self.kernels: dict[str, list] = {}
        self.counts: collections.Counter = collections.Counter()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name: str, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, name, threading.get_ident(), t0, t1)
            )

    def reset(self) -> None:
        self.spans = []
        self.kernels = {}
        self.counts = collections.Counter()

    def totals(self) -> dict:
        """Total span seconds and span count per span name."""
        secs: dict = collections.defaultdict(float)
        n: collections.Counter = collections.Counter()
        for _, _, name, _, t0, t1 in self.spans:
            secs[name] += t1 - t0
            n[name] += 1
        return {"seconds": dict(secs), "count": dict(n)}

    def dump(self, path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {"id": sid, "parent": parent},
            }
            for sid, parent, name, tid, t0, t1 in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)

    # -- wrappers ------------------------------------------------------------

    def _plain(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)

        return wrapper

    def _window_stream(self, name, fn):
        """Time each ``next()`` the compute loop makes on the stream: the
        wait for the next decoded window."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))

            def timed():
                while True:
                    try:
                        w = tracer.span(name, next, it)
                    except StopIteration:
                        return
                    yield w

            return timed()

        return wrapper

    def _launch(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(device, kernel, n_threads, *args, **kwargs):
            kname = kwargs.get("name") or getattr(kernel, "__name__", "kernel")
            entry = device.counters.get(kname)
            before = _snap(entry)
            t0 = time.perf_counter()
            out = tracer.span(name, fn, device, kernel, n_threads, *args, **kwargs)
            host = time.perf_counter() - t0
            after = _snap(entry)
            with tracer._lock:
                acc = tracer.kernels.setdefault(
                    kname, [0] * len(_COUNTER_FIELDS) + [0.0]
                )
                for i, (a, b) in enumerate(zip(after, before)):
                    acc[i] += a - b
                acc[-1] += host
            return out

        return wrapper

    def _table_load(self, name, fn):
        """Count real score-table uploads: loads the residency did not hit."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(device, *args, **kwargs):
            hits = device.resident.hits
            out = tracer.span(name, fn, device, *args, **kwargs)
            if device.resident.hits == hits:
                tracer.counts["gpusim.table_uploads"] += 1
            return out

        return wrapper

    def _residency_get(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(res, key):
            out = tracer.span(name, fn, res, key)
            tracer.counts[
                "gpusim.residency_hits" if out is not None
                else "gpusim.residency_misses"
            ] += 1
            return out

        return wrapper

    def _sort(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.span(name, fn, *args, **kwargs)
            tracer.counts["sortnet.passes"] += out[1].passes
            return out

        return wrapper

    _SPECIAL = {
        "formats.window_wait": "_window_stream",
        "gpusim.launch": "_launch",
        "gpusim.table_load": "_table_load",
        "gpusim.residency_get": "_residency_get",
        "sortnet.sort": "_sort",
    }

    def install(self) -> "Tracer":
        for name, module, attr in TARGETS:
            mod = importlib.import_module(module)
            owner = mod
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            leaf = parts[-1]
            raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            make = getattr(self, self._SPECIAL.get(name, "_plain"))
            wrapped = make(name, fn)
            setattr(owner, leaf, staticmethod(wrapped) if is_static else wrapped)
            self._patches.append((owner, leaf, raw))
        return self

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._patches):
            setattr(owner, leaf, raw)
        self._patches = []


def kernel_rows(tracer: Tracer) -> dict:
    """Per-kernel ``(KernelCounters, host seconds)`` of the traced launches."""
    from repro.gpusim.counters import KernelCounters

    rows = {}
    for kname, acc in tracer.kernels.items():
        c = KernelCounters(name=kname)
        for f, v in zip(_COUNTER_FIELDS, acc):
            setattr(c, f, v)
        rows[kname] = (c, acc[-1])
    return rows
