"""The GSNP pipeline (Figure 2), GPU-accelerated with per-phase accounting.

``cal_p_matrix`` reads the input once, builds ``p_matrix`` and a compressed
temporary input copy (Section V-A); the score tables load onto the device;
then per megabatch: ``read_site`` -> ``counting`` -> ``likelihood`` ->
``posterior`` -> ``output`` -> ``recycle``.

One run loop, :meth:`GsnpPipeline._run_chain`, walks S lockstep window streams
(S = 1 for ``run``) in sample-major megabatches and owns the device, score
tables, output files and ``read_site`` charge.  Each compute phase goes to
one of three stage sets, picked by ``mode`` and ``fusion``:
:class:`_WindowStages` (per-window GPU, Table IV's unfused kernel chain),
:class:`_CpuStages` (GSNP_CPU: host sort and table lookups, charging its
own CPU events) and :class:`_FusedStages` (W windows x S samples per launch
chain).  All of them, and SOAPsnp, produce bitwise identical tables.
"""

from __future__ import annotations

import functools
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..align.records import AlignmentBatch
from ..bench.events import PhaseRecord, RunProfile
from ..constants import DEFAULT_WINDOW_GSNP
from ..errors import PipelineError
from ..faults.journal import atomic_output
from ..formats.cns import ResultTable
from ..formats.soap import soap_line_bytes
from ..formats.window import WindowReader
from ..compress import fusedcodec  # called through the module, so tracing can wrap it
from ..compress.columnar import encode_alignments, encode_table
from ..gpusim.device import Device
from ..gpusim.launchplan import MEGABATCH_WINDOWS, LaunchTally
from ..gpusim.launchplan import build_cohort_plan, chunk_windows
# Not called here: kept because the benchmark tracer patches it in this module.
from ..gpusim.launchplan import build_launch_plan  # noqa: F401
from ..gpusim.pool import acquire_device
from ..gpusim.spec import CPU_COMPRESS_BW
from ..seqsim.datasets import SimulatedDataset
from ..soapsnp.likelihood import adjust_scores, occurrence_ordinals, sequential_site_sums
from ..soapsnp.model import CallingParams
from ..soapsnp.observe import extract_observations
from ..soapsnp.p_matrix import build_p_matrix, flatten_p_matrix
from ..soapsnp.posterior import summarize_window
from ..sortnet.cpu_sort import quicksort_per_site
from .base_word import canonical_keys, decode_keys, extract_words, words_from_observations
from .cohort import CohortResult, pooled_batch
from .counting import gsnp_counting
from .likelihood import OPTIMIZED, GsnpTables, LikelihoodVariant
from .likelihood import gsnp_likelihood_comp, gsnp_likelihood_sort
from .fused import fused_posterior_tail, gsnp_likelihood_posterior_fused
from .fused import gsnp_recycle_fused, merge_observations
from .posterior import gsnp_posterior
from .prefetch import PREFETCH_DEPTH, OutputDrain, prefetched_windows
from .recycle import gsnp_recycle
from .score_table import cached_new_p_matrix, table_contributions

__all__ = ["GsnpCalibration", "GsnpPipeline", "GsnpResult"]

#: One megabatch's phases in chain order; ``_run_chain`` calls each by name.
_PHASES = ("read_site", "counting", "likelihood", "posterior", "output", "recycle")


@dataclass
class GsnpResult:
    """Output of one GSNP run."""

    table: ResultTable
    profile: RunProfile
    compressed_output: bytes = b""
    output_bytes: int = 0
    temp_input_bytes: int = 0
    sort_stats: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


@dataclass
class GsnpCalibration:
    """Product of the one-time ``cal_p_matrix`` input pass; sharded runs
    (:mod:`repro.exec`) share one, so its events are charged exactly once."""

    params: CallingParams
    pm_flat: np.ndarray
    penalty: np.ndarray
    #: Expanded host tables for ``mode='cpu'`` (None in GPU mode).
    new_p_flat: Optional[np.ndarray]
    #: Compressed temporary copy of the input (Section V-A).
    temp_blob: bytes
    #: ``len(temp_blob)``: survives :meth:`strip` for the ``read_site`` charge.
    temp_len: int
    input_bytes: int
    total_reads: int
    #: The ``cal_p_matrix`` phase events (wall, disk, cpu, table upload).
    record: PhaseRecord

    def strip(self) -> "GsnpCalibration":
        """Copy without the temp blob (cheap to ship to worker processes)."""
        return replace(self, temp_blob=b"")


@contextmanager
def _phase_scope(record: PhaseRecord, device: Optional[Device]):
    """Charge the block's wall time and device counter/transfer deltas."""
    t0 = time.perf_counter()
    if device is not None:
        snap, xfer = device.counters.total(), device.transfers.total_bytes
    try:
        yield
    finally:
        record.wall += time.perf_counter() - t0
        if device is not None:
            record.gpu.merge(device.counters.total().since(snap))
            record.transfer_bytes += device.transfers.total_bytes - xfer


class _Stages:
    """A stage set's run-wide context and shared steps.  Subclasses add the
    compute phases of :data:`_PHASES`, each taking the phase record and the
    megabatch's sample-major ``(sample, window)`` units; launchers are
    called as module globals so tracing can wrap them here."""

    def __init__(self, pipe, dataset, cal, device, score_tables, writers):
        self.pipe, self.dataset, self.cal = pipe, dataset, cal
        self.device, self.score_tables, self.writers = device, score_tables, writers
        self.out_tables = [[] for _ in writers]
        self.out_blobs = [[] for _ in writers]
        self.sort_stats = [[] for _ in writers]

    def read_site(self, rec, units):
        """Decompress the temp input: one share per reference window, for
        the reads of every sample decoded with it."""
        n_reads: dict = {}
        for _, w in units:
            n_reads[w.start] = n_reads.get(w.start, 0) + w.reads.n_reads
        for n in n_reads.values():
            frac = n / max(self.cal.total_reads, 1)
            rec.disk.read_buffered_bytes += int(self.cal.temp_len * frac)
            rec.cpu.instructions += n * 8

    def posterior_args(self, window, obs, type_likely) -> tuple:
        ref = self.dataset.reference
        return (obs, window.start, ref.codes[window.start:window.end],
                self.dataset.prior, type_likely, self.cal.params)

    def emit(self, rec, sample: int, table, blob: bytes) -> None:
        """Route one window's table and blob to its sample's output."""
        self.out_tables[sample].append(table)
        self.out_blobs[sample].append(blob)
        if self.writers[sample] is not None:
            self.writers[sample](blob)
        rec.disk.write_bytes += len(blob)


class _WindowStages(_Stages):
    """Per-window GPU: the unfused kernel chain over one window."""

    def counting(self, rec, units):
        ((self.sample, self.window),) = units
        self.obs = extract_observations(self.window)
        self.words, self.offsets = gsnp_counting(self.device, self.obs)
        rec.cpu.instructions += self.obs.n_obs * 4

    def likelihood(self, rec, units):
        dev = self.device
        wsorted, stats = gsnp_likelihood_sort(dev, self.words, self.offsets)
        self.sort_stats[self.sample].append(stats)
        self.type_likely = gsnp_likelihood_comp(
            dev, wsorted, self.offsets, self.score_tables, self.pipe.variant
        )

    def posterior(self, rec, units):
        args = self.posterior_args(self.window, self.obs, self.type_likely)
        self.table = gsnp_posterior(
            self.device, *args, chrom=self.dataset.reference.name
        )

    def output(self, rec, units):
        blob = encode_table(self.table, device=self.device)
        self.emit(rec, self.sample, self.table, blob)
        rec.transfer_bytes += len(blob)  # the blob comes back over PCIe

    def recycle(self, rec, units):
        gsnp_recycle(self.device, self.words.size, self.window.n_sites)


class _CpuStages(_Stages):
    """GSNP_CPU: the same sparse chain on the host, one window at a time,
    charging the host events the device would otherwise absorb."""

    def counting(self, rec, units):
        ((self.sample, self.window),) = units
        self.obs = extract_observations(self.window)
        self.words, self.offsets = words_from_observations(self.obs)
        rec.cpu.instructions += self.obs.n_obs * 4
        rec.cpu.random_accesses += self.obs.n_obs

    def likelihood(self, rec, units):
        words, offsets = self.words, self.offsets
        wsorted = decode_keys(quicksort_per_site(canonical_keys(words), offsets))
        base, score, coord, strand = extract_words(wsorted)
        site = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        ordinal = occurrence_ordinals(site, base, coord, strand)
        q_adj = adjust_scores(score, ordinal, self.cal.penalty)
        contrib = table_contributions(self.cal.new_p_flat, q_adj, coord, base)
        self.type_likely = sequential_site_sums(contrib, offsets)
        m, nl = words.size, np.diff(offsets)
        nl = nl[nl > 1]
        rec.cpu.instructions += int((nl * np.log2(nl) * 12).sum()) + 30 * m
        rec.cpu.random_accesses += 10 * m + 2 * m
        rec.cpu.seq_read_bytes += 8 * m

    def posterior(self, rec, units):
        args = self.posterior_args(self.window, self.obs, self.type_likely)
        self.table = summarize_window(*args, chrom=self.dataset.reference.name)
        rec.cpu.instructions += self.window.n_sites * 100
        rec.cpu.random_accesses += self.window.n_sites * 5

    def output(self, rec, units):
        blob = encode_table(self.table, device=None)
        self.emit(rec, self.sample, self.table, blob)
        # CPU codecs: sequential-scan compression cost.
        rec.cpu.instructions += int(self.table.n_sites * 40 * (2.0e9 / CPU_COMPRESS_BW))

    def recycle(self, rec, units):
        rec.cpu.seq_write_bytes += self.words.size * 4 + self.window.n_sites * 88


class _FusedStages(_Stages):
    """Fused GPU: W reference windows x S samples, sample-major on one flat
    :func:`build_cohort_plan`, each chain launched once per megabatch (the
    kernels are segment-local).  The tally counts *reference* windows."""

    def __init__(self, *args):
        super().__init__(*args)
        self.tally = LaunchTally()
        self.megabatches = 0
        self.fused_name = f"likelihood_posterior_fused_{self.pipe.variant.name}"

    def _measure(self, stage: str):
        return self.tally.measure(self.device, stage, self.n_ref)

    def counting(self, rec, units):
        self.megabatches += 1
        self.n_ref = len(units) // len(self.writers)
        self.obs = [extract_observations(w) for _, w in units]
        self.plan = build_cohort_plan(
            [w for _, w in units], [o.n_obs for o in self.obs], [s for s, _ in units]
        )
        merged = merge_observations(self.obs, self.plan)
        with self._measure("counting"):
            self.words, self.offsets = gsnp_counting(self.device, merged)
        rec.cpu.instructions += merged.n_obs * 4

    def likelihood(self, rec, units):
        dev = self.device
        with self._measure("likelihood_sort"):
            wsorted, stats = gsnp_likelihood_sort(dev, self.words, self.offsets)
        self.sort_stats[0].append(stats)
        with self._measure(self.fused_name):
            self.type_likely = gsnp_likelihood_posterior_fused(
                dev, wsorted, self.offsets, self.score_tables, self.pipe.variant
            )

    def posterior(self, rec, units):
        # Host summaries plus the in-kernel epilogue's charge.
        self.tables = []
        for seg, obs in zip(self.plan.segments, self.obs):
            args = self.posterior_args(seg, obs, self.type_likely[seg.site_slice])
            self.tables.append(
                summarize_window(*args, chrom=self.dataset.reference.name)
            )
            fused_posterior_tail(self.device, self.fused_name, seg.n_sites, obs.n_obs)

    def output(self, rec, units):
        with self._measure("output_compress"):
            blobs = fusedcodec.encode_tables_fused(self.device, self.tables)
        for seg, table, blob in zip(self.plan.segments, self.tables, blobs):
            self.emit(rec, seg.sample, table, blob)
            rec.transfer_bytes += len(blob)

    def recycle(self, rec, units):
        plan = self.plan
        with self._measure("recycle"):
            gsnp_recycle_fused(self.device, self.words.size, plan.n_sites,
                               plan.n_windows)

    def summary(self, cohort: bool) -> dict:
        samples = {"samples": len(self.writers)} if cohort else {}
        return {"megabatch_windows": self.pipe.megabatch, "megabatches": self.megabatches,
                **samples, "launches": self.tally.total_launches(),
                "stages": self.tally.summary()}


class GsnpPipeline:
    """The GPU-accelerated SNP caller (or its CPU twin, ``mode='cpu'``)."""

    def __init__(
        self, params: Optional[CallingParams] = None,
        window_size: int = DEFAULT_WINDOW_GSNP, mode: str = "gpu",
        variant: LikelihoodVariant = OPTIMIZED, device: Optional[Device] = None,
        prefetch: bool = True, cache: bool = True, fusion: bool = False,
        megabatch: int = MEGABATCH_WINDOWS,
    ) -> None:
        if mode not in ("gpu", "cpu"):
            raise PipelineError(f"unknown mode {mode!r}")
        if megabatch < 1:
            raise PipelineError("megabatch must be >= 1")
        self.params = params
        self.window_size = window_size
        self.mode = mode
        self.variant = variant
        self.device = device
        #: Decode window N+1 and drain output writes while N computes.
        self.prefetch = prefetch
        #: Keep the device and its uploaded score tables across runs.
        self.cache = cache
        #: GPU: ``megabatch`` windows (x samples) per launch chain.
        self.fusion = fusion
        self.megabatch = megabatch
        self._cached_device: Optional[Device] = None

    def calibrate(
        self, dataset: SimulatedDataset, reads: Optional[AlignmentBatch] = None
    ) -> GsnpCalibration:
        """The ``cal_p_matrix`` pass.  Its events, with the GPU table upload,
        go to the returned :attr:`GsnpCalibration.record`, so a sharded run
        sharing one calibration reports the same counters as a serial run."""
        if reads is None:
            reads = AlignmentBatch.from_read_set(dataset.reads)
        params = self.params or CallingParams(read_len=reads.read_len or 100)
        input_bytes = reads.n_reads * soap_line_bytes(reads.read_len)
        rec = PhaseRecord(name="cal_p_matrix")
        with _phase_scope(rec, None):
            pm_flat = flatten_p_matrix(build_p_matrix(reads, dataset.reference, params))
            penalty = params.penalty_table()
            temp_blob = encode_alignments(reads)
            if self.mode == "gpu":
                # Charge the one serial-equivalent load_table upload
                # analytically; the run performs the real upload outside
                # any phase scope, so nothing moves twice.
                rec.transfer_bytes += GsnpTables.upload_bytes(pm_flat, penalty)
                newp_flat = None
            else:
                newp_flat = cached_new_p_matrix(pm_flat)
        rec.disk.read_bytes += input_bytes
        rec.disk.parsed_bytes += input_bytes
        rec.disk.write_bytes += len(temp_blob)
        rec.cpu.instructions += reads.n_reads * reads.read_len * 4
        # Score-table generation + upload is dataset-size independent; the
        # paper measures ~2s for new_p_matrix + log_table (Section VI-E).
        rec.fixed_seconds += 2.0
        return GsnpCalibration(
            params=params, pm_flat=pm_flat, penalty=penalty, new_p_flat=newp_flat,
            temp_blob=temp_blob, temp_len=len(temp_blob), input_bytes=input_bytes,
            total_reads=reads.n_reads, record=rec)

    def run(
        self, dataset: SimulatedDataset, output_path=None, *,
        site_range: Optional[tuple[int, int]] = None,
        calibration: Optional[GsnpCalibration] = None,
        reads: Optional[AlignmentBatch] = None,
    ) -> GsnpResult:
        """Call SNPs; optionally write the compressed result file.

        ``site_range`` restricts the run to the windows covering ``[start,
        stop)``; a shared ``calibration`` is neither re-run nor re-charged;
        ``reads`` overrides the alignment batch (e.g. a streamed shard's).
        """
        if reads is None:
            reads = AlignmentBatch.from_read_set(dataset.reads)
        return self._run_chain(dataset, [reads], [output_path], site_range, calibration)

    def run_cohort(
        self, dataset: SimulatedDataset, sample_reads, output_paths=None, *,
        site_range: Optional[tuple[int, int]] = None,
        calibration: Optional[GsnpCalibration] = None,
    ):
        """Call SNPs for S samples sharing one reference and one pooled
        calibration.  Fused, a megabatch is one sample-major launch chain;
        otherwise each sample runs the per-window or CPU chain.  Bytes equal
        S solo :meth:`run` calls sharing the calibration.  ``output_paths``
        has one entry (or None) per sample.  Returns a
        :class:`~repro.core.cohort.CohortResult` whose profile holds the
        events; the per-sample profiles stay empty."""
        sample_reads = list(sample_reads)
        if not sample_reads:
            raise PipelineError("cohort needs at least one sample")
        output_paths = list(output_paths or [None] * len(sample_reads))
        if len(output_paths) != len(sample_reads):
            raise PipelineError("output_paths must align with samples")
        return self._run_chain(dataset, sample_reads, output_paths, site_range,
                           calibration, cohort=True)

    def _device(self) -> Optional[Device]:
        """The configured device, else (GPU mode) the cached or a new one."""
        if self.device is not None or self.mode != "gpu":
            return self.device
        device = (self.cache and self._cached_device) or acquire_device()
        if self.cache:
            self._cached_device = device
        return device

    def _megabatches(self, streams: list, fused: bool):
        """Sample-major ``(sample, window)`` units of the lockstep streams
        (whose window boundaries always agree): W reference windows x every
        sample when fused, else one window."""
        samples = range(len(streams))
        for steps in chunk_windows(zip(*streams), self.megabatch if fused else 1):
            if fused:
                yield [(s, step[s]) for s in samples for step in steps]
            else:
                yield from ([(s, steps[0][s])] for s in samples)

    def _open_output(self, outputs: ExitStack, path):
        """A sample's blob writer (None without a path); the file commits
        only when ``outputs`` closes cleanly, so a failed run leaves none."""
        if path is None:
            return None
        if self.prefetch:
            return outputs.enter_context(OutputDrain(path)).submit
        return outputs.enter_context(atomic_output(path)).write

    def _run_chain(self, dataset, sample_reads, output_paths, site_range,
               cal, cohort: bool = False):
        """The one megabatch loop behind :meth:`run` and :meth:`run_cohort`."""
        gpu = self.mode == "gpu"
        fused = gpu and self.fusion
        profile = RunProfile(pipeline="gsnp" if gpu else "gsnp_cpu")
        device = self._device()
        if cal is None:
            cal_reads = pooled_batch(sample_reads) if cohort else sample_reads[0]
            cal = self.calibrate(dataset, reads=cal_reads)
            profile.records["cal_p_matrix"] = cal.record
        # Residency stays off on sanitizing devices: the strict teardown
        # leak check must see every allocation of the run freed.
        use_cache = self.cache and getattr(device, "sanitizer", None) is None
        # Outside any phase scope: the upload is charged to the calibration
        # record, and a resident hit moves nothing.
        score_tables = (GsnpTables.load(device, cal.pm_flat, cal.penalty, cache=use_cache)
                        if gpu else None)
        start, stop = site_range if site_range is not None else (0, dataset.n_sites)
        # A fused megabatch takes W windows at once; decode runs that far ahead.
        depth = max(PREFETCH_DEPTH, self.megabatch) if fused else PREFETCH_DEPTH
        streams = [prefetched_windows(
            WindowReader(b, dataset.n_sites, self.window_size, start=start, stop=stop),
            self.prefetch, depth=depth) for b in sample_reads]
        stage_set = _FusedStages if fused else _WindowStages if gpu else _CpuStages
        try:
            with ExitStack() as outputs:
                writers = [self._open_output(outputs, p) for p in output_paths]
                stages = stage_set(self, dataset, cal, device, score_tables, writers)
                for units in self._megabatches(streams, fused):
                    for phase in _PHASES:
                        rec = profile.phase(phase)
                        with _phase_scope(rec, device):
                            getattr(stages, phase)(rec, units)
        except BaseException:
            # A failed window can leave partial allocations on the device;
            # drop the persistent residency rather than reuse that device.
            if gpu and use_cache:
                self.release_cache()
            raise
        finally:
            if gpu and not use_cache:
                score_tables.free(device)

        samples = [GsnpResult(
            table=functools.reduce(ResultTable.concat, tables),
            # A cohort's events live on the cohort profile only.
            profile=RunProfile(profile.pipeline) if cohort else profile,
            compressed_output=b"".join(blobs), output_bytes=sum(map(len, blobs)),
            temp_input_bytes=cal.temp_len, sort_stats=stats,
        ) for tables, blobs, stats in zip(stages.out_tables, stages.out_blobs,
                                          stages.sort_stats)]
        extras = {"input_bytes": cal.input_bytes}
        if fused or not cohort:
            peak = device.peak_global_used if device else 0
            extras.update(device=device, peak_gpu_bytes=peak)
        if fused:
            extras["fusion"] = stages.summary(cohort)
        if not cohort:
            samples[0].extras = extras
            return samples[0]
        extras["cohort"] = {"samples": len(samples), "fused": fused}
        return CohortResult(samples=samples, profile=profile, extras=extras)

    def release_cache(self) -> None:
        """Free the persistent residency (resident tables + cached device),
        e.g. before a strict sanitizer teardown, which would report the
        intentionally long-lived resident arrays as leaks."""
        for dev in (self.device, self._cached_device):
            if dev is not None:
                dev.resident.clear(free=True)
        self._cached_device = None
