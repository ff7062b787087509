"""Sharded execution: dispatch window-aligned shards to a worker pool.

The execution model mirrors SNAP/SOAP3-dp-style genome sharding: the
parent runs the one-time ``cal_p_matrix`` pass, splits the site range into
window-aligned shards (:mod:`repro.exec.shard`), and dispatches them to a
pool (:mod:`repro.exec.pool`) — ``multiprocessing`` workers, or the serial
fallback with the identical interface.  Shard inputs either reference the
dataset shipped once per worker, or stream incrementally from a SOAP file
(:class:`~repro.formats.stream.ShardBatchReader`) through the bounded
submission queue, so at most ``workers * backlog`` shard batches are ever
resident.  Completed shards merge back in genomic order
(:mod:`repro.exec.merge`).

Jobs are described by a :class:`~repro.api.JobSpec` —
``execute(dataset, spec=spec)`` is the canonical entry point, and
:meth:`ExecConfig.from_spec` derives the executor's knobs from the same
object.  The legacy kwarg spelling (``execute(ds, engine, workers=4)``)
keeps working through a shim that emits a ``DeprecationWarning``.

Long-lived callers (the ``gsnp-serve`` daemon) pass ``resident=True`` and
an optional precomputed ``calibration``: the in-process worker pipeline is
then kept in a per-thread resident cache across ``execute`` calls, so a
repeated job over the same dataset skips both the calibration pass and the
device score-table upload (the hit/miss counters surface through
:func:`resident_stats`).

Failure handling (exercised deliberately by :mod:`repro.faults`):

* a failing shard is re-dispatched with deterministic, jitter-free
  exponential backoff (``backoff_base * 2**attempt``) up to
  ``max_retries`` times, then surfaced as
  :class:`~repro.errors.ShardError` chaining the last worker exception;
* with ``shard_timeout`` set (process pools only), a shard that overruns
  its deadline has its worker killed and is retried like any failure;
* a worker ``AllocationError`` steps the worker down a degradation rung
  (residency, prefetch and simulator fast paths off) and re-runs the
  shard in place — results are bitwise identical either way;
* with ``journal_dir`` set, every completed shard is checkpointed
  atomically (:class:`~repro.faults.journal.ShardJournal`); ``resume``
  skips committed shards on a re-invocation after process death, with a
  bitwise-identical final merge.

Determinism: shard boundaries are window boundaries and the merge is
order-restoring, so calls, event counters and compressed bytes are bitwise
identical to a serial run for all three engines, at any worker count —
with or without injected faults, retries and resumes.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

import numpy as np

from ..api import Engine, JobSpec, create_pipeline, effective_window
from ..errors import AllocationError, PipelineError, ShardError, ShardTimeout
from ..faults.degrade import degrade, logger as fault_logger
from ..faults.journal import ShardJournal, run_fingerprint
from ..faults.plan import (
    FaultPlan,
    FaultSpec,
    fault_plan,
    fault_point,
    scope as fault_scope,
)
from ..formats.stream import ShardBatchReader
from ..align.records import AlignmentBatch
from ..seqsim.reads import ReadSet
from .merge import merge_shard_results
from .pool import PoolBroken, make_pool
from .shard import ShardResult, plan_shards


@dataclass(frozen=True)
class ExecConfig:
    """Knobs of the sharded executor.

    Job-level fields mirror :class:`~repro.api.JobSpec` — build this via
    :meth:`from_spec` rather than spelling them again.  The remaining
    fields (retry budget, queue depth, pool selection, backoff) are
    executor tuning that no job should need to carry on the wire.
    """

    workers: int = 1
    #: Sites per shard; ``None`` = ~4 shards per worker.  Snapped up to a
    #: multiple of the window size (determinism requires aligned shards).
    shard_size: Optional[int] = None
    #: Times a failed shard is re-executed before the run is aborted.
    max_retries: int = 2
    #: In-flight shards per worker (the bounded queue's depth factor).
    backlog: int = 2
    #: Use the serial fallback executor even for ``workers > 1``.
    force_serial: bool = False
    #: Double-buffered window streaming inside each shard run.
    prefetch: bool = True
    #: Persistent device residency: each worker keeps one pipeline (and its
    #: uploaded score tables) across all the shards it executes.
    cache: bool = True
    #: Fused ragged-megabatch launching inside each shard run (GPU engine
    #: only; off under degradation, like the other throughput toggles).
    fusion: bool = False
    #: Modeled devices in the pool; ``> 1`` routes the job through the
    #: heterogeneous work-stealing scheduler (:mod:`repro.exec.hetero`).
    devices: int = 1
    #: Add the sparse host engine as an extra work-stealing lane.
    cpu_steal: bool = False
    #: Per-shard wall-clock deadline in seconds (process pools only): an
    #: overrunning shard's worker is killed and the shard retried.
    shard_timeout: Optional[float] = None
    #: Base of the deterministic, jitter-free retry backoff: a shard's
    #: k-th retry is delayed ``backoff_base * 2**(k-1)`` seconds.
    backoff_base: float = 0.02
    #: Chaos schedule installed in the parent and every worker.
    faults: Optional[FaultPlan] = None
    #: Checkpoint directory: completed shards commit here atomically.
    journal_dir: Optional[str] = None
    #: Skip shards already committed to ``journal_dir`` by a prior run.
    resume: bool = False
    #: Quarantine file for malformed streamed input records (streaming
    #: mode); ``None`` keeps the fail-fast behaviour.
    quarantine: Optional[str] = None
    #: Back-compat shorthand: shard index -> number of times it must fail
    #: (translated onto the ``exec.shard.error`` fault site).
    inject_failures: Mapping[int, int] = field(default_factory=dict)

    @classmethod
    def from_spec(cls, spec: JobSpec) -> "ExecConfig":
        """The executor knobs a :class:`~repro.api.JobSpec` pins.

        This is the one sanctioned translation from job description to
        executor configuration (``gsnp-lint`` GSNP108 flags ad-hoc
        re-spellings elsewhere).
        """
        return cls(  # gsnp-lint: disable=GSNP108 (the sanctioned JobSpec translation site)
            workers=spec.workers,
            shard_size=spec.shard_size,
            prefetch=spec.prefetch,
            cache=spec.cache,
            fusion=spec.fusion,
            devices=spec.devices,
            cpu_steal=spec.cpu_steal,
            shard_timeout=spec.shard_timeout,
            faults=spec.faults,
            journal_dir=spec.journal,
            resume=spec.resume,
            quarantine=spec.quarantine,
        )


# Worker-side state, installed by the pool initializer.  Thread-local
# rather than a bare module global: the serve daemon runs several serial
# in-process jobs on concurrent threads, each with its own state.
_WORKER_TLS = threading.local()

# Resident worker pipelines that outlive a single ``execute`` call, keyed
# by thread ident then pipeline identity.  Devices are only ever touched
# by their owning thread; the lock guards the outer map so a stats reader
# on another thread can aggregate the counters safely.
_RESIDENT_LOCK = threading.Lock()
_RESIDENT: dict[int, dict] = {}


def _worker_state() -> dict:
    return _WORKER_TLS.state


def _resident_pipelines() -> dict:
    ident = threading.get_ident()
    with _RESIDENT_LOCK:
        return _RESIDENT.setdefault(ident, {})


def _resident_key(spec: JobSpec) -> tuple:
    return (
        spec.engine, spec.window, spec.variant_name,
        spec.prefetch, spec.cache, spec.fusion, spec.megabatch,
    )


def resident_stats() -> dict:
    """Aggregate counters over every thread's resident worker pipelines.

    ``table_hits``/``table_misses`` come from the underlying
    :class:`~repro.gpusim.residency.DeviceResidency` caches — a hit means
    a job reused already-uploaded score tables instead of re-uploading.
    """
    with _RESIDENT_LOCK:
        per_thread = [dict(p) for p in _RESIDENT.values()]
    stats = {"pipelines": 0, "table_hits": 0, "table_misses": 0}
    for pipes in per_thread:
        stats["pipelines"] += len(pipes)
        for pipe in pipes.values():
            res = getattr(getattr(pipe, "_cached_device", None), "resident",
                          None)
            if res is not None:
                stats["table_hits"] += res.hits
                stats["table_misses"] += res.misses
    return stats


def release_resident() -> None:
    """Drop every thread's resident pipelines (and their device caches)."""
    with _RESIDENT_LOCK:
        per_thread = list(_RESIDENT.values())
        _RESIDENT.clear()
    for pipes in per_thread:
        for pipe in pipes.values():
            release = getattr(pipe, "release_cache", None)
            if release is not None:
                release()


def _init_worker(state: dict) -> None:
    _WORKER_TLS.state = state
    if state.get("faults") is not None:
        from ..faults.plan import install_plan

        install_plan(state["faults"])


def _pipeline_spec(spec: JobSpec, *, degraded: bool = False) -> JobSpec:
    """The worker pipeline's view of the job (degradation rung applied)."""
    if degraded:
        return replace(spec, prefetch=False, cache=False, fusion=False)
    return spec


def _make_pipeline(st: dict, *, degraded: bool = False):
    return create_pipeline(
        spec=_pipeline_spec(st["spec"], degraded=degraded),
        params=st["params"],
    )


def _run_shard(task) -> ShardResult:
    """Execute one shard in the worker; the unit the pool retries."""
    shard, batch, attempt = task
    st = _worker_state()
    spec: JobSpec = st["spec"]
    resident = bool(st.get("resident")) and spec.cache
    with fault_scope(shard=shard.index, attempt=attempt):
        fault_point("exec.worker.crash", key=shard.index)
        fault_point("exec.shard.error", key=shard.index)
        fault_point("exec.shard.slow", key=shard.index)
        pipeline = st.get("pipeline")
        if pipeline is None and resident:
            # Outlive this job: a later job with the same pipeline shape
            # reuses the device and its uploaded tables.
            pipeline = _resident_pipelines().get(_resident_key(spec))
        if pipeline is None:
            pipeline = _make_pipeline(st)
        if spec.cache:
            # Persist across this worker's shards: the device score
            # tables upload exactly once per worker process.
            st["pipeline"] = pipeline
            if resident:
                _resident_pipelines()[_resident_key(spec)] = pipeline
        cohort_samples = st.get("samples")

        def _invoke(pipe):
            if cohort_samples is not None:
                return pipe.run_cohort(
                    st["dataset"],
                    cohort_samples,
                    site_range=(shard.start, shard.end),
                    calibration=st["calibration"],
                )
            return pipe.run(
                st["dataset"],
                site_range=(shard.start, shard.end),
                calibration=st["calibration"],
                reads=batch,
            )

        t0 = time.perf_counter()
        try:
            result = _invoke(pipeline)
        except AllocationError as exc:
            # Degradation rung: the device could not satisfy the resident
            # footprint.  Rebuild this worker's pipeline with residency,
            # prefetch and simulator fast paths disabled and re-run the
            # shard in place; results are bitwise identical either way.
            degrade(
                "device-degraded",
                action="re-running shard with residency/prefetch/fast "
                "paths disabled",
                reason=repr(exc),
                shard=shard.index,
                attempt=attempt,
            )
            st.pop("pipeline", None)
            if resident:
                _resident_pipelines().pop(_resident_key(spec), None)
            from ..gpusim.memory import set_fast_paths

            prev_fast = set_fast_paths(False)
            try:
                with fault_scope(degraded=True):
                    pipeline = _make_pipeline(st, degraded=True)
                    result = _invoke(pipeline)
            finally:
                set_fast_paths(prev_fast)
        wall = time.perf_counter() - t0
    if cohort_samples is not None:
        return ShardResult(
            shard=shard,
            table=result.samples[0].table,
            profile=result.profile,
            compressed=result.samples[0].compressed_output,
            output_bytes=result.output_bytes,
            sort_stats=result.samples[0].sort_stats,
            peak_gpu_bytes=result.extras.get("peak_gpu_bytes", 0),
            wall=wall,
            attempts=attempt + 1,
            pid=os.getpid(),
            sample_tables=[s.table for s in result.samples],
            sample_compressed=[s.compressed_output for s in result.samples],
        )
    return ShardResult(
        shard=shard,
        table=result.table,
        profile=result.profile,
        compressed=getattr(result, "compressed_output", b""),
        output_bytes=result.output_bytes,
        sort_stats=getattr(result, "sort_stats", []),
        nnz=getattr(result, "nnz", None),
        peak_gpu_bytes=result.extras.get("peak_gpu_bytes", 0),
        wall=wall,
        attempts=attempt + 1,
        pid=os.getpid(),
    )


def _drain(pool, tasks, config: ExecConfig):
    """Pump tasks through the pool with a bounded in-flight window.

    ``tasks`` yields ``(shard, batch_or_None)`` lazily — with a streaming
    source this bounds resident shard batches to ``workers * backlog``.
    Yields :class:`ShardResult` in completion order; re-dispatches failed
    shards after a deterministic exponential backoff (counting attempts),
    kills and retries shards that overrun ``shard_timeout``, and raises
    :class:`ShardError` chaining the last worker exception once a shard
    exhausts its budget.
    """
    max_retries = config.max_retries
    limit = max(1, pool.workers * config.backlog)
    enforce_deadline = (
        config.shard_timeout is not None and pool.kind == "process"
    )
    if config.shard_timeout is not None and not enforce_deadline:
        fault_logger.info(
            "shard_timeout=%s ignored: the serial pool executes tasks "
            "eagerly and cannot preempt a running shard",
            config.shard_timeout,
        )
    task_iter = iter(tasks)
    exhausted = False
    retry_q: list = []  # (ready_at, shard, batch, attempt)
    in_flight: dict = {}  # handle -> (shard, batch, attempt, deadline)
    retries_used = 0

    def fail(shard, batch, attempt: int, last_exc: BaseException):
        """Schedule a retry, or give up with the root cause chained."""
        nonlocal retries_used
        if attempt >= max_retries:
            raise ShardError(
                f"{shard} failed after {attempt + 1} attempts; last "
                f"error: {last_exc!r}",
                shard_index=shard.index,
                site_range=(shard.start, shard.end),
                attempts=attempt + 1,
            ) from last_exc
        delay = config.backoff_base * (2 ** attempt)
        degrade(
            "shard-retry",
            action=f"re-dispatching in {delay:.3f}s "
            f"(attempt {attempt + 2}/{max_retries + 1})",
            reason=repr(last_exc),
            shard=shard.index,
        )
        retries_used += 1
        retry_q.append((time.monotonic() + delay, shard, batch, attempt + 1))

    while True:
        # -- submission: fill the bounded window ---------------------------
        while len(in_flight) < limit:
            now = time.monotonic()
            ready = next(
                (i for i, e in enumerate(retry_q) if e[0] <= now), None
            )
            if ready is not None:
                _, shard, batch, attempt = retry_q.pop(ready)
            elif not exhausted:
                try:
                    shard, batch = next(task_iter)
                    attempt = 0
                except StopIteration:
                    exhausted = True
                    continue
            else:
                break
            handle = pool.submit(_run_shard, (shard, batch, attempt))
            deadline = (
                time.monotonic() + config.shard_timeout
                if enforce_deadline
                else None
            )
            in_flight[handle] = (shard, batch, attempt, deadline)

        if not in_flight:
            if exhausted and not retry_q:
                return retries_used
            # Nothing running and every retry still backing off: sleep to
            # the earliest ready time (deterministic schedule, no jitter).
            wake = min(e[0] for e in retry_q) - time.monotonic()
            if wake > 0:
                time.sleep(wake)
            continue

        # -- completion wait (bounded by the earliest deadline) ------------
        timeout = None
        if enforce_deadline:
            next_deadline = min(
                d for (*_, d) in in_flight.values() if d is not None
            )
            timeout = max(0.0, next_deadline - time.monotonic())
        for handle in pool.wait_any(list(in_flight), timeout=timeout):
            shard, batch, attempt, _dl = in_flight.pop(handle)
            try:
                kind, value = handle.outcome()
            except PoolBroken as exc:
                # The worker died outright; rebuild and re-dispatch.
                pool.recover(handle)
                crash = PipelineError(
                    f"worker process died while executing {shard}"
                )
                crash.__cause__ = exc
                kind, value = "err", crash
            if kind == "ok":
                yield value
                continue
            fail(shard, batch, attempt, value)

        # -- deadline sweep ------------------------------------------------
        if enforce_deadline:
            now = time.monotonic()
            expired = [
                h
                for h, (_s, _b, _a, d) in in_flight.items()
                if d is not None and d <= now
            ]
            if expired:
                for handle in expired:
                    shard, batch, attempt, _dl = in_flight.pop(handle)
                    fail(
                        shard, batch, attempt,
                        ShardTimeout(
                            f"{shard} exceeded its "
                            f"{config.shard_timeout}s deadline "
                            f"(attempt {attempt + 1})",
                            shard_index=shard.index,
                            deadline=config.shard_timeout,
                        ),
                    )
                # The overrunning workers cannot be cancelled cooperatively:
                # kill the pool.  Collateral in-flight handles surface
                # PoolBroken above and re-dispatch.
                pool.kill()


def _dataset_without_reads(dataset):
    """The dataset container minus its read set (streaming-shard mode):
    workers receive reference/prior once and shard batches incrementally."""
    rs = dataset.reads
    empty = ReadSet(
        chrom=rs.chrom,
        read_len=rs.read_len,
        pos=np.empty(0, dtype=np.int64),
        strand=np.empty(0, dtype=np.uint8),
        hits=np.empty(0, dtype=np.uint8),
        bases=np.empty((0, rs.read_len), dtype=np.uint8),
        quals=np.empty((0, rs.read_len), dtype=np.uint8),
    )
    return replace(dataset, reads=empty)


def _effective_plan(config: ExecConfig) -> Optional[FaultPlan]:
    """The configured plan, with legacy ``inject_failures`` folded in as
    ``exec.shard.error`` specs (the registry is the only injection path)."""
    specs = tuple(
        FaultSpec(site="exec.shard.error", key=int(idx), times=int(n))
        for idx, n in sorted(dict(config.inject_failures).items())
        if n > 0
    )
    if not specs:
        return config.faults
    if config.faults is None:
        return FaultPlan(specs)
    return FaultPlan(config.faults.specs + specs, seed=config.faults.seed)


#: ``execute`` kwargs that survive the JobSpec redesign: pure executor
#: tuning with no JobSpec field, allowed alongside ``spec=``.
_EXECUTOR_ONLY_KWARGS = (
    "max_retries", "backlog", "force_serial", "backoff_base",
    "inject_failures",
)


def _legacy_spec(engine, window_size, variant, config: ExecConfig) -> JobSpec:
    """Fold the legacy ``execute`` spelling into a JobSpec."""
    values: dict = {
        "engine": str(engine) if engine is not None else Engine.GSNP.value,
        "prefetch": config.prefetch,
        "cache": config.cache,
        "fusion": config.fusion,
        "workers": config.workers,
        "shard_size": config.shard_size,
        "devices": config.devices,
        "cpu_steal": config.cpu_steal,
        "shard_timeout": config.shard_timeout,
        "journal": config.journal_dir,
        "resume": config.resume,
        "quarantine": config.quarantine,
        "faults": config.faults,
    }
    if window_size is not None:
        values["window"] = window_size
    if variant is not None:
        values["variant"] = variant
    return JobSpec(**values)


def execute(
    dataset,
    engine: Engine | str | None = None,
    *,
    spec: Optional[JobSpec] = None,
    params=None,
    window_size: Optional[int] = None,
    variant=None,
    output_path=None,
    soap_path=None,
    config: Optional[ExecConfig] = None,
    calibration=None,
    resident: bool = False,
    sample_reads=None,
    **config_kwargs,
):
    """Run a calling job as parallel window-aligned shards.

    The canonical call is ``execute(dataset, spec=JobSpec(...))`` — the
    spec carries every job-level knob and :meth:`ExecConfig.from_spec`
    derives the executor configuration; executor-only tuning
    (``max_retries``, ``backlog``, ``force_serial``, ``backoff_base``,
    ``inject_failures``) may still be passed as keywords.  The legacy
    spelling (``engine`` plus ``window_size``/``variant``/job keywords)
    keeps working through a shim that emits a ``DeprecationWarning``.

    Returns the engine's own result type with tables, compressed output
    and merged event counters bitwise/exactly equal to the serial path;
    ``extras['shards']`` carries per-shard timing/throughput metrics and
    ``extras['exec']`` the pool configuration.  ``soap_path`` switches the
    shard inputs to incremental streaming from that SOAP file via
    :class:`~repro.formats.stream.ShardBatchReader`.

    Long-lived callers pass ``calibration=`` (a previously computed
    calibration for this dataset/engine/params, skipping the input pass)
    and ``resident=True`` (keep the in-process worker pipeline, device and
    uploaded tables in a per-thread cache across calls; implies the serial
    pool so the resident device stays thread-confined).

    ``sample_reads`` switches the job to cohort mode: a list of full
    alignment batches (sample 0 first) that every shard slices by its own
    site range via the window reader.  When the spec names ``samples``
    paths and ``sample_reads`` is not given, the extra samples are parsed
    here (sample 0 stays the dataset's own reads).  Cohort mode shards
    by site range exactly like a solo run — every shard calls
    ``run_cohort`` over all S samples for its windows — so per-sample
    merged outputs are bitwise identical to S solo runs sharing the
    pooled calibration.
    """
    if spec is not None:
        stray = {
            k: v for k, v in config_kwargs.items()
            if k not in _EXECUTOR_ONLY_KWARGS
        }
        if engine is not None or window_size is not None \
                or variant is not None or config is not None or stray:
            raise ValueError(
                "execute(spec=...) does not combine with the legacy "
                "engine/window_size/variant/config kwargs: set those "
                "fields on the JobSpec instead"
            )
        spec = spec.validate().normalized()
        config = ExecConfig.from_spec(spec)
        if resident:
            config_kwargs.setdefault("force_serial", True)
        if config_kwargs:
            config = replace(config, **config_kwargs)
    else:
        legacy = [k for k in config_kwargs if k not in _EXECUTOR_ONLY_KWARGS]
        if window_size is not None:
            legacy.append("window_size")
        if variant is not None:
            legacy.append("variant")
        if legacy:
            warnings.warn(
                "execute(" + ", ".join(f"{k}=..." for k in sorted(legacy))
                + ") is deprecated; pass spec=JobSpec(...) instead",
                DeprecationWarning,
                stacklevel=2,
            )
        if config is None:
            config = ExecConfig(**config_kwargs)
        elif config_kwargs:
            config = replace(config, **config_kwargs)
        spec = _legacy_spec(engine, window_size, variant, config)
    plan = _effective_plan(config)

    eff_window = effective_window(spec.engine, spec.window)
    variant_obj = spec.resolved_variant()

    if sample_reads is None and spec.samples:
        # Parse the extra cohort inputs; sample 0 is always the
        # dataset's own reads (the primary soap input).
        from ..formats.soap import read_soap

        sample_reads = [AlignmentBatch.from_read_set(dataset.reads)]
        for path in spec.samples:
            sample_reads.append(
                read_soap(path, quarantine=config.quarantine)
            )
    if sample_reads is not None:
        sample_reads = list(sample_reads)
        if not sample_reads:
            raise ValueError("sample_reads must name at least one sample")
        if soap_path is not None:
            raise ValueError(
                "streaming shard input (soap_path) does not combine with "
                "cohort mode: every shard windows all S resident batches"
            )

    # The one-time calibration pass — skipped entirely when the caller
    # supplies a cached calibration for this dataset/engine/params.  A
    # cohort calibrates over the pooled reads of all samples: one
    # pm_flat fingerprint, one resident score-table set per device.
    if calibration is None:
        pipeline = create_pipeline(
            spec=replace(spec, faults=None), params=params
        )
        if sample_reads is not None:
            from ..core.cohort import pooled_batch

            reads = pooled_batch(sample_reads)
        else:
            reads = AlignmentBatch.from_read_set(dataset.reads)
        calibration = pipeline.calibrate(dataset, reads=reads)
    # The multi-device scheduler needs enough shards for every lane (N
    # devices + the optional host lane) to hold a deque worth stealing
    # from, so lanes count as workers for planning purposes.
    n_lanes = config.devices + (1 if config.cpu_steal else 0)
    shards = plan_shards(
        dataset.n_sites, eff_window, config.shard_size,
        max(config.workers, n_lanes),
    )

    # Crash-safe checkpointing: the journal is keyed by a fingerprint of
    # everything that determines shard bytes, so resume can never splice
    # results from a different input/engine/calibration into the merge.
    journal = None
    committed: dict[int, ShardResult] = {}
    if config.journal_dir is not None:
        fingerprint = run_fingerprint(
            spec.engine,
            eff_window,
            variant_obj.name,
            dataset.n_sites,
            [(s.start, s.end) for s in shards],
            calibration,
            n_samples=len(sample_reads) if sample_reads is not None else 1,
        )
        journal = ShardJournal(config.journal_dir, fingerprint)
        if config.resume:
            committed = journal.load(shards)
            if committed:
                fault_logger.info(
                    "resume: %d/%d shards already committed in %s; "
                    "skipping them",
                    len(committed), len(shards), journal.dir,
                )

    if config.devices > 1 or config.cpu_steal:
        # Multi-device jobs run on the heterogeneous work-stealing
        # scheduler: one lane per pool device (plus the optional host
        # lane), deque-seeded by the cost model and merged in genomic
        # order — bytes identical to every other execution mode.
        if soap_path is not None:
            raise ValueError(
                "streaming shard input (soap_path) does not combine with "
                "the multi-device scheduler: shards are dealt to lane "
                "deques up front, so the whole read set must be resident"
            )
        from .hetero import run_hetero

        pending = [s for s in shards if s.index not in committed]
        run_spec = replace(
            spec, window=eff_window, variant=variant_obj, faults=None
        )
        t0 = time.perf_counter()
        ambient = (
            fault_plan(plan) if plan is not None else contextlib.nullcontext()
        )
        with ambient:
            hetero_results, hetero_meta = run_hetero(
                dataset, run_spec, params, calibration.strip(), pending,
                config, journal=journal, sample_reads=sample_reads,
            )
        results = list(committed.values()) + hetero_results
        exec_meta = {
            "workers": config.workers,
            "pool": "hetero",
            "shard_size": shards[0].n_sites if shards else 0,
            "n_shards": len(shards),
            "streaming": False,
            "prefetch": config.prefetch,
            "cache": config.cache,
            "fusion": config.fusion,
            "retries": sum(sr.attempts - 1 for sr in hetero_results),
            "resumed": len(committed),
            "shard_timeout": config.shard_timeout,
            "samples": len(sample_reads) if sample_reads is not None else 1,
            "wall": time.perf_counter() - t0,
            "hetero": hetero_meta,
        }
        return merge_shard_results(
            results, calibration, output_path=output_path,
            exec_meta=exec_meta,
        )

    streaming = soap_path is not None
    state = {
        "spec": replace(
            spec, window=eff_window, variant=variant_obj, faults=None
        ),
        "params": params,
        "dataset": _dataset_without_reads(dataset) if streaming else dataset,
        "calibration": calibration.strip(),
        "faults": plan,
        "resident": resident,
    }
    if sample_reads is not None:
        state["samples"] = sample_reads
    if streaming:
        batches = ShardBatchReader(
            soap_path,
            [(s.start, s.end) for s in shards],
            dataset.n_sites,
            chrom=dataset.reference.name,
            quarantine=config.quarantine,
        )
        tasks = (
            (shard, batch)
            for shard, (_, _, batch) in zip(shards, batches)
            if shard.index not in committed
        )
    else:
        tasks = (
            (shard, None) for shard in shards if shard.index not in committed
        )

    t0 = time.perf_counter()
    results: list[ShardResult] = list(committed.values())
    retries_used = 0
    # Installing the plan is process-global; skip the install entirely for
    # plan-free jobs so concurrent serve threads don't clear each other's
    # schedules.
    ambient = fault_plan(plan) if plan is not None else contextlib.nullcontext()
    with ambient:
        pool = make_pool(
            config.workers,
            initializer=_init_worker,
            initargs=(state,),
            force_serial=config.force_serial,
        )
        try:
            drain = _drain(pool, tasks, config)
            while True:
                try:
                    sr = next(drain)
                except StopIteration as stop:
                    retries_used = stop.value or 0
                    break
                if journal is not None:
                    journal.commit(sr)
                results.append(sr)
        finally:
            pool.shutdown()

    exec_meta = {
        "workers": config.workers,
        "pool": pool.kind,
        "shard_size": shards[0].n_sites if shards else 0,
        "n_shards": len(shards),
        "streaming": streaming,
        "prefetch": config.prefetch,
        "cache": config.cache,
        "fusion": config.fusion,
        "retries": retries_used,
        "resumed": len(committed),
        "shard_timeout": config.shard_timeout,
        "samples": len(sample_reads) if sample_reads is not None else 1,
        "wall": time.perf_counter() - t0,
    }
    return merge_shard_results(
        results, calibration, output_path=output_path, exec_meta=exec_meta
    )
