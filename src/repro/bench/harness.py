"""Experiment drivers for every table and figure of the evaluation.

Each ``exp_*`` function reproduces one artifact of Section VI: it runs the
relevant pipelines/kernels on scaled Table-II replica datasets, extrapolates
event counts to full scale, and returns a structure the benchmark files
render next to the paper's numbers.  Results are cached per (dataset,
fraction) so the benchmark suite shares work.

``fraction`` further shrinks a dataset below its 1/1000 default scale while
*raising* the extrapolation factor to compensate, so full-scale modeled
numbers stay comparable no matter how small the bench run is.
"""

from __future__ import annotations

import time
from dataclasses import replace
from functools import lru_cache

import numpy as np

from ..align.records import AlignmentBatch
from ..api import JobSpec, create_pipeline, effective_window, get_engine_spec
from ..compress.columnar import encode_alignments, encode_table
from ..compress.gzipcodec import (
    GZIP_COMPRESS_BW,
    GZIP_DECOMPRESS_BW,
    gzip_compress,
)
from ..constants import BASE_OCC_SIZE
from ..core.base_word import words_from_observations
from ..core.likelihood import (
    ALL_VARIANTS,
    GsnpTables,
    gpu_dense_likelihood_counters,
    gsnp_likelihood_comp,
    gsnp_likelihood_sort,
)
from ..core.pipeline import GsnpPipeline
from ..gpusim.spec import CPU_COMPRESS_BW
from ..formats.cns import format_rows
from ..formats.soap import soap_line_bytes
from ..formats.window import Window
from ..gpusim.costmodel import CpuCostModel, CpuEvents, DiskEvents, DiskModel, GpuCostModel
from ..gpusim.device import Device
from ..gpusim.spec import BGI_PLATFORM
from ..seqsim.datasets import (
    CH1_SPEC,
    CH21_SPEC,
    DatasetSpec,
    SimulatedDataset,
    dataset_summary,
    generate_dataset,
    whole_genome_specs,
)
from ..soapsnp.base_occ import sparsity_histogram
from ..soapsnp.model import CallingParams
from ..soapsnp.observe import extract_observations
from ..soapsnp.p_matrix import build_p_matrix, flatten_p_matrix
from ..soapsnp.pipeline import SoapsnpPipeline
from ..sortnet.batch import batch_sort
from ..sortnet.cpu_sort import ParallelCpuSortModel, quicksort_per_site
from ..sortnet.multipass import multipass_sort, nonequal_sort, singlepass_sort
from .events import RunProfile
from .scale import TABLE1_PAPER, TABLE4_PAPER, extrapolate

#: Default bench fractions keep the simulated-GPU runs to a few seconds.
DEFAULT_FRACTIONS = {"ch1-sim": 0.2, "ch21-sim": 0.5}

#: Cohort batching must keep launches per fused stage (near-)independent
#: of S.  The sort/likelihood/recycle stages are exactly constant; the
#: counting and codec stages carry data-sized sub-chains (tree reduce,
#: sort passes) that grow ~logarithmically with pileup volume, so the
#: per-stage launch ratio S-vs-1 is bounded well below S — an unfused
#: per-sample loop would sit at exactly S.
LAUNCH_STAGE_RATIO_BOUND = 1.5

_SPECS = {"ch1-sim": CH1_SPEC, "ch21-sim": CH21_SPEC}


def bench_spec(name: str, fraction: float | None = None) -> DatasetSpec:
    """A further-shrunk spec whose extrapolation still hits full scale."""
    spec = _SPECS[name]
    frac = fraction if fraction is not None else DEFAULT_FRACTIONS[name]
    return replace(
        spec,
        n_sites=max(int(spec.n_sites * frac), 2000),
        scale_factor=spec.scale_factor * spec.n_sites
        / max(int(spec.n_sites * frac), 2000),
    )


@lru_cache(maxsize=8)
def bench_dataset(name: str, fraction: float | None = None) -> SimulatedDataset:
    return generate_dataset(bench_spec(name, fraction))


@lru_cache(maxsize=8)
def soapsnp_result(name: str, fraction: float | None = None):
    ds = bench_dataset(name, fraction)
    return SoapsnpPipeline(window_size=4000, collect_nnz=True).run(ds)


@lru_cache(maxsize=8)
def gsnp_result(name: str, mode: str = "gpu", fraction: float | None = None):
    ds = bench_dataset(name, fraction)
    window = min(256_000, ds.n_sites)
    return GsnpPipeline(window_size=window, mode=mode).run(ds)


@lru_cache(maxsize=8)
def window_words(name: str, fraction: float | None = None):
    """(words, offsets, tables-ready inputs) of the whole dataset as one
    window — shared by the kernel-level experiments."""
    ds = bench_dataset(name, fraction)
    reads = AlignmentBatch.from_read_set(ds.reads)
    params = CallingParams(read_len=reads.read_len)
    pm_flat = flatten_p_matrix(build_p_matrix(reads, ds.reference, params))
    penalty = params.penalty_table()
    window = Window(start=0, end=ds.n_sites, reads=reads)
    obs = extract_observations(window)
    words, offsets = words_from_observations(obs, arrival_order=True)
    return ds, obs, words, offsets, pm_flat, penalty


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def exp_table1(name: str, fraction: float | None = None) -> dict:
    """Table I: SOAPsnp component breakdown, paper vs modeled."""
    res = soapsnp_result(name, fraction)
    fs = extrapolate(res.profile, bench_spec(name, fraction))
    return {
        "paper": TABLE1_PAPER[name],
        "model": {**fs.components, "total": fs.total},
        "wall_scaled": res.profile.total_wall(),
    }


def exp_table2(fraction: float | None = None) -> dict:
    """Table II: dataset characteristics of the scaled replicas."""
    out = {}
    for name in _SPECS:
        ds = bench_dataset(name, fraction)
        summary = dataset_summary(ds)
        reads = AlignmentBatch.from_read_set(ds.reads)
        summary["input_bytes"] = reads.n_reads * soap_line_bytes(reads.read_len)
        out[name] = summary
    return out


@lru_cache(maxsize=4)
def exp_table3(name: str = "ch1-sim", fraction: float | None = None) -> dict:
    """Table III: likelihood_comp hardware counters for the 4 variants.

    Cached: Figure 8 reprices the same counters, so the kernel sweep runs
    once per (dataset, fraction).
    """
    ds, obs, words, offsets, pm_flat, penalty = window_words(name, fraction)
    out = {}
    results = {}
    for variant in ALL_VARIANTS:
        # Table III counters come from one isolated device per variant;
        # pooling would mix link charges into the per-kernel numbers.
        device = Device()  # gsnp-lint: disable=GSNP110
        tables = GsnpTables.load(device, pm_flat, penalty)
        wsorted, _ = gsnp_likelihood_sort(device, words, offsets)
        device.reset_counters()  # isolate the comp kernel
        tl = gsnp_likelihood_comp(device, wsorted, offsets, tables, variant)
        results[variant.name] = tl
        total = device.counters.total()
        out[variant.name] = total.as_dict()
        out[variant.name]["time"] = GpuCostModel().kernel_time(total)
    # All variants must agree bitwise (§IV-G).
    ref = results["optimized"]
    for vname, tl in results.items():
        assert np.array_equal(tl, ref), f"variant {vname} diverged"
    return out


def exp_table4(name: str, fraction: float | None = None) -> dict:
    """Table IV: GSNP breakdown + speedup vs SOAPsnp (both modeled)."""
    gs = gsnp_result(name, "gpu", fraction)
    so = soapsnp_result(name, fraction)
    spec = bench_spec(name, fraction)
    fs_g = extrapolate(gs.profile, spec)
    fs_s = extrapolate(so.profile, spec)
    speedups = {
        c: fs_s.components.get(c, 0.0) / t if t > 0 else float("inf")
        for c, t in fs_g.components.items()
    }
    return {
        "paper": TABLE4_PAPER[name],
        "model": {**fs_g.components, "total": fs_g.total},
        "speedup_model": {**speedups, "total": fs_s.total / fs_g.total},
        "consistent": gs.table.equals(so.table),
    }


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def exp_fig4a(name: str, fraction: float | None = None) -> dict:
    """Fig 4a: Formula-1 estimate vs modeled likelihood/recycle time."""
    res = soapsnp_result(name, fraction)
    spec = bench_spec(name, fraction)
    fs = extrapolate(res.profile, spec)
    n_sites_full = spec.n_sites * spec.scale_factor
    est = CpuCostModel().base_occ_scan_time(int(n_sites_full), BASE_OCC_SIZE)
    return {
        "estimate_scan": est,
        "likelihood": fs.components["likelihood"],
        "recycle": fs.components["recycle"],
        "scan_share_likelihood": est / fs.components["likelihood"],
        "scan_share_recycle": est / fs.components["recycle"],
    }


def exp_fig4b(name: str, fraction: float | None = None) -> dict:
    """Fig 4b: % of sites by number of non-zero base_occ cells."""
    res = soapsnp_result(name, fraction)
    hist = sparsity_histogram(res.nnz)
    return {
        "histogram": hist,
        "mean_nnz": float(res.nnz.mean()),
        "nonzero_pct": 100.0 * float(res.nnz.mean()) / BASE_OCC_SIZE,
    }


def exp_fig5(name: str, fraction: float | None = None) -> dict:
    """Fig 5: likelihood time across the four implementations."""
    spec = bench_spec(name, fraction)
    factor = spec.scale_factor
    so = soapsnp_result(name, fraction)
    soap_t = extrapolate(so.profile, spec).components["likelihood"]
    cpu_t = extrapolate(
        gsnp_result(name, "cpu", fraction).profile, spec
    ).components["likelihood"]
    gpu_t = extrapolate(
        gsnp_result(name, "gpu", fraction).profile, spec
    ).components["likelihood"]
    # GPU-dense strawman: analytic counters on a fresh device.
    ds, obs, words, offsets, pm_flat, penalty = window_words(name, fraction)
    # Strawman counter probe on a deliberately unpooled device.
    device = Device()  # gsnp-lint: disable=GSNP110
    gpu_dense_likelihood_counters(device, obs.n_sites, words.size)
    dense_counters = device.counters.get("likelihood_gpu_dense")
    model = GpuCostModel()
    dense_t = model.kernel_time(dense_counters) * factor
    return {
        "SOAPsnp": soap_t,
        "GPU_dense": dense_t,
        "GSNP_CPU": cpu_t,
        "GSNP": gpu_t,
    }


def exp_fig6(name: str, fraction: float | None = None) -> dict:
    """Fig 6: likelihood_sort vs likelihood_comp, CPU vs GPU."""
    ds, obs, words, offsets, pm_flat, penalty = window_words(name, fraction)
    spec = bench_spec(name, fraction)
    factor = spec.scale_factor
    # Single-kernel microbenchmark: isolated device, no link accounting.
    device = Device()  # gsnp-lint: disable=GSNP110
    tables = GsnpTables.load(device, pm_flat, penalty)
    wsorted, _ = gsnp_likelihood_sort(device, words, offsets)
    sort_counters = device.counters.total()
    device.reset_counters()
    gsnp_likelihood_comp(device, wsorted, offsets, tables, ALL_VARIANTS[3])
    comp_counters = device.counters.total()
    model = GpuCostModel()
    # CPU side: quicksort model + sparse-table comp events.
    lens = np.diff(offsets)
    nl = lens[lens > 1]
    m = words.size
    cpu = CpuCostModel()
    cpu_sort = cpu.time(
        CpuEvents(
            instructions=int((nl * np.log2(nl) * 12).sum()),
            random_accesses=m,
            seq_read_bytes=4 * m,
        )
    )
    cpu_comp = cpu.time(
        CpuEvents(
            instructions=30 * m,
            random_accesses=12 * m,
            seq_read_bytes=8 * m,
        )
    )
    return {
        "gpu_sort": model.kernel_time(sort_counters) * factor,
        "gpu_comp": model.kernel_time(comp_counters) * factor,
        "cpu_sort": cpu_sort * factor,
        "cpu_comp": cpu_comp * factor,
    }


def exp_fig7a(sizes=(4, 8, 16, 32, 64, 128, 256), n_arrays=2048) -> dict:
    """Fig 7a: batch-sort throughput of three implementations."""
    rng = np.random.default_rng(42)
    model = GpuCostModel()
    cpu_model = ParallelCpuSortModel()
    out = {}
    for m in sizes:
        batch = rng.integers(0, 2**17, (n_arrays, m)).astype(np.uint32)
        # Sort microbenchmark measures one device's kernel counters only.
        device = Device()  # gsnp-lint: disable=GSNP110
        batch_sort(device, batch.copy(), name="fig7a_batch")
        t_gpu = model.kernel_time(device.counters.total())
        # Sequential radix: per-array launches underutilize the chip; a
        # small sample extrapolates linearly in array count.
        sample = min(n_arrays, 32)
        # Second isolated device keeps the strawman's counters separate.
        dev2 = Device()  # gsnp-lint: disable=GSNP110
        from ..gpusim.primitives.sort import sequential_radix_sort_batches

        sequential_radix_sort_batches(
            dev2, batch[:sample], np.full(sample, m)
        )
        t_radix = model.kernel_time(dev2.counters.total()) * (
            n_arrays / sample
        )
        out[m] = {
            "cpu_parallel": cpu_model.throughput(n_arrays, m),
            "gpu_batch_bitonic": n_arrays * m / t_gpu if t_gpu else 0.0,
            "gpu_seq_radix": n_arrays * m / t_radix if t_radix else 0.0,
        }
    return out


def exp_fig7b(name: str = "ch1-sim", fraction: float | None = None) -> dict:
    """Fig 7b: multipass vs single-pass vs non-equal bitonic sorting."""
    ds, obs, words, offsets, pm_flat, penalty = window_words(name, fraction)
    spec = bench_spec(name, fraction)
    factor = spec.scale_factor
    model = GpuCostModel()
    out = {}
    for fn, label in (
        (multipass_sort, "bitonic_MP"),
        (singlepass_sort, "bitonic_SP"),
        (nonequal_sort, "bitonic_noneq"),
    ):
        # Per-algorithm counter isolation for the sort comparison figure.
        device = Device()  # gsnp-lint: disable=GSNP110
        sorted_words, stats = fn(words, offsets, device=device)
        t = model.kernel_time(device.counters.total())
        out[label] = {
            "time": t * factor,
            "padded_elements": stats.padded_elements,
            "padding_ratio": stats.padding_ratio,
            "compare_exchanges": stats.compare_exchanges,
        }
    return out


def exp_fig8(name: str, fraction: float | None = None) -> dict:
    """Fig 8: likelihood_comp time for the four optimization variants."""
    counters = exp_table3(name, fraction)
    spec = bench_spec(name, fraction)
    return {
        v: c["time"] * spec.scale_factor for v, c in counters.items()
    }


def exp_fig9(name: str, fraction: float | None = None) -> dict:
    """Fig 9: output size and output speed, three schemes."""
    so = soapsnp_result(name, fraction)
    gs = gsnp_result(name, "gpu", fraction)
    spec = bench_spec(name, fraction)
    factor = spec.scale_factor
    text = format_rows(so.table)
    gz, _ = gzip_compress(text)
    sizes = {
        "SOAPsnp": len(text) * factor,
        "SOAPsnp_gzip": len(gz) * factor,
        "GSNP": gs.output_bytes * factor,
    }
    disk = DiskModel()
    cpu = CpuCostModel()
    speeds = {
        "SOAPsnp": disk.time(
            DiskEvents(write_bytes=len(text), formatted_bytes=len(text))
        )
        * factor,
        "SOAPsnp_gzip": (
            disk.time(DiskEvents(write_bytes=len(gz)))
            + len(text) / GZIP_COMPRESS_BW
        )
        * factor,
        "GSNP_CPU": (
            disk.time(DiskEvents(write_bytes=gs.output_bytes))
            + cpu.time(
                CpuEvents(
                    instructions=int(
                        so.table.n_sites * 40 * (2.0e9 / CPU_COMPRESS_BW)
                    )
                )
            )
        )
        * factor,
        "GSNP": extrapolate(gs.profile, spec).components["output"],
    }
    return {"sizes": sizes, "speeds": speeds}


def exp_fig10(name: str, fraction: float | None = None) -> dict:
    """Fig 10: decompression speed and temporary input size."""
    so = soapsnp_result(name, fraction)
    gs = gsnp_result(name, "gpu", fraction)
    spec = bench_spec(name, fraction)
    factor = spec.scale_factor
    text = format_rows(so.table)
    gz, _ = gzip_compress(text)
    disk = DiskModel()
    # Sequential read of the original text (disk + per-byte text parsing)
    # vs load-compressed + lightweight in-memory decode ("most algorithms
    # only need a sequential scan of the data", §V-B).
    decomp = {
        "SOAPsnp": disk.time(
            DiskEvents(read_bytes=len(text), parsed_bytes=len(text))
        )
        * factor,
        "SOAPsnp_gzip": (
            disk.time(DiskEvents(read_bytes=len(gz)))
            + len(text) / GZIP_DECOMPRESS_BW
        )
        * factor,
        "GSNP": (
            disk.time(DiskEvents(read_bytes=gs.output_bytes))
            + gs.output_bytes / (4 * CPU_COMPRESS_BW)
        )
        * factor,
    }
    # Temporary input file.
    ds = bench_dataset(name, fraction)
    reads = AlignmentBatch.from_read_set(ds.reads)
    raw = reads.n_reads * soap_line_bytes(reads.read_len)
    soap_text_approx = raw
    temp = gs.temp_input_bytes
    # gzip on an approximation of the SOAP text.
    from ..formats.soap import write_soap
    import io, zlib, tempfile, os

    gz_ratio = None
    with tempfile.NamedTemporaryFile(suffix=".soap", delete=False) as f:
        path = f.name
    try:
        nbytes = write_soap(path, reads.slice(0, min(2000, reads.n_reads)))
        with open(path, "rb") as f:
            sample = f.read()
        gz_ratio = len(zlib.compress(sample, 6)) / max(len(sample), 1)
    finally:
        os.unlink(path)
    return {
        "decompression": decomp,
        "input_sizes": {
            "original": soap_text_approx * factor,
            "GSNP_temp": temp * factor,
            "gzip": soap_text_approx * gz_ratio * factor,
        },
    }


def exp_fig11(
    name: str = "ch1-sim",
    fraction: float | None = None,
    windows=(2000, 4000, 8000, 16000, 32000, 49000),
) -> dict:
    """Fig 11: elapsed time and memory vs window size."""
    ds = bench_dataset(name, fraction)
    spec = bench_spec(name, fraction)
    out = {}
    for w in windows:
        w = min(w, ds.n_sites)
        res = GsnpPipeline(window_size=w, mode="gpu").run(ds)
        fs = extrapolate(res.profile, spec)
        out[w] = {
            "time": fs.total,
            "gpu_bytes": res.extras["peak_gpu_bytes"],
            "windows": -(-ds.n_sites // w),
        }
        if w >= ds.n_sites:
            break
    return out


def exp_fig12(fraction: float = 0.05, engines=("soapsnp", "gsnp_cpu", "gsnp")) -> dict:
    """Fig 12: end-to-end time for all 24 chromosomes, three systems.

    Engines dispatch through the registry (:mod:`repro.api`) — any
    registered engine name works, labeled by its ``EngineSpec.label``.
    """
    out = {}
    for spec in whole_genome_specs():
        small = replace(
            spec,
            n_sites=max(int(spec.n_sites * fraction), 2000),
            scale_factor=spec.scale_factor * spec.n_sites
            / max(int(spec.n_sites * fraction), 2000),
        )
        ds = generate_dataset(small)
        row = {}
        for engine in engines:
            pipe = create_pipeline(
                spec=JobSpec(engine=engine, window=ds.n_sites)
            )
            res = pipe.run(ds)
            row[get_engine_spec(engine).label] = extrapolate(
                res.profile, small
            ).total
        out[spec.name] = row
    return out


def exp_parallel_scaling(
    name: str = "ch21-sim",
    fraction: float | None = None,
    workers=(1, 2, 4, 8),
    engine="gsnp",
    window_size: int | None = None,
) -> dict:
    """Sharded-executor scaling: wall-clock and consistency per worker count.

    Runs the same dataset serially and through :func:`repro.exec.execute`
    at each worker count; reports per-count wall seconds, speedup over the
    1-worker parallel run, shard count, and whether the parallel result is
    bitwise identical to serial (calls *and* compressed bytes — it must
    always be).
    """
    from ..exec import execute

    ds = bench_dataset(name, fraction)
    if window_size is None:
        # Enough windows that every worker count gets multiple shards.
        window_size = max(ds.n_sites // 32, 256)
    window = min(effective_window(engine, window_size), ds.n_sites)
    serial = create_pipeline(
        spec=JobSpec(engine=engine, window=window)
    ).run(ds)
    serial_comp = getattr(serial, "compressed_output", b"")
    out = {}
    base_wall = None
    for w in workers:
        t0 = time.perf_counter()
        res = execute(
            ds, spec=JobSpec(engine=engine, window=window, workers=w)
        )
        wall = time.perf_counter() - t0
        if base_wall is None:
            base_wall = wall
        out[w] = {
            "wall": wall,
            "speedup": base_wall / wall if wall > 0 else 0.0,
            "shards": len(res.extras["shards"]),
            "pool": res.extras["exec"]["pool"],
            "consistent": (
                res.table.equals(serial.table)
                and getattr(res, "compressed_output", b"") == serial_comp
            ),
        }
    return out


def exp_multidevice(
    name: str = "ch1-sim",
    fraction: float | None = None,
    window_size: int | None = None,
    devices=(1, 2, 4),
) -> dict:
    """Multi-device pool scaling: modeled end-to-end seconds per arm.

    Sweeps ``devices`` with and without the CPU steal lane on the fused
    GSNP path and reports each arm's *modeled* makespan from the pool
    cost model (slowest lane's compute + the serialized shared-link
    time), plus launch/transfer/steal counts and bitwise consistency
    against the serial run.  Every arm — the 1-device baseline included —
    runs the heterogeneous scheduler over one shared shard plan and one
    shared calibration, so the d-vs-1 ratio isolates parallel compute and
    link contention instead of shard-granularity effects; the plain
    serial fused pipeline is run once purely as the bitwise oracle.  The
    numbers are modeled hardware seconds, not Python wall time: the
    simulator executes lanes eagerly, so wall time measures the
    emulation, not the M2050s being modeled.

    One extra arm, tagged ``"imbalance": "gpu1-dead"``, seeds an
    imbalance the steal rule must correct: on 2 devices a
    :class:`~repro.faults.plan.FaultPlan` kills gpu1 at its first shard
    and gpu0 steals the orphaned deque.  It is left out of
    ``speedup_max_devices``.
    """
    import warnings
    from dataclasses import replace

    from ..align.records import AlignmentBatch
    from ..exec import ExecConfig, merge_shard_results, plan_shards, run_hetero
    from ..faults.degrade import DegradationWarning
    from ..faults.plan import FaultPlan, FaultSpec, fault_plan

    ds = bench_dataset(name, fraction)
    if window_size is None:
        # Enough windows that a 4-lane pool still has ~4 shards per lane.
        window_size = max(ds.n_sites // 16, 256)
    window = min(effective_window("gsnp", window_size), ds.n_sites)

    serial_pipe = create_pipeline(
        spec=JobSpec(engine="gsnp", window=window, fusion=True)
    )
    serial = serial_pipe.run(ds)
    if hasattr(serial_pipe, "release_cache"):
        serial_pipe.release_cache()
    serial_comp = serial.compressed_output

    # One calibration and one shard plan shared by every arm (planned for
    # the widest sweep configuration, so each arm schedules identical
    # shards and differs only in lanes and link contention).
    base = JobSpec(engine="gsnp", window=window, fusion=True)
    cal_pipe = create_pipeline(spec=base)
    calibration = cal_pipe.calibrate(
        ds, reads=AlignmentBatch.from_read_set(ds.reads)
    )
    if hasattr(cal_pipe, "release_cache"):
        cal_pipe.release_cache()
    max_lanes = max(devices) + 1
    shards = plan_shards(ds.n_sites, window, None, max_lanes)

    gpu1_dead = FaultPlan((FaultSpec(
        site="gpusim.device.fail", key=1, times=1, kind="alloc",
    ),))
    configs = [(d, steal, None) for d in devices for steal in (False, True)]
    configs.append((2, False, "gpu1-dead"))
    arms = []
    consistent = True
    baseline = None
    for d, steal, imbalance in configs:
        spec = replace(
            base,
            devices=d,
            cpu_steal=steal,
            variant=base.resolved_variant(),
        )
        plan = gpu1_dead if imbalance else None
        with fault_plan(plan), warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            results, h = run_hetero(
                ds, spec, None, calibration.strip(), list(shards),
                ExecConfig.from_spec(spec),
            )
        res = merge_shard_results(results, calibration)
        ok = (
            res.table.equals(serial.table)
            and res.compressed_output == serial_comp
        )
        consistent = consistent and ok
        makespan = h["modeled"]["makespan_seconds"]
        if d == 1 and not steal:
            baseline = makespan
        link = h["link"]
        arms.append({
            "devices": d,
            "cpu_steal": steal,
            "imbalance": imbalance,
            "modeled_seconds": makespan,
            "speedup_vs_1dev": (
                baseline / makespan
                if baseline is not None and makespan > 0
                else 0.0
            ),
            "launches": h["pool_launches"],
            "h2d_count": link["h2d_count"],
            "d2h_count": link["d2h_count"],
            "transfer_bytes": link["h2d_bytes"] + link["d2h_bytes"],
            "link_seconds": h["modeled"]["link_seconds"],
            "steals": h["steals"],
            "initial_split": h["initial_split"],
            "consistent": ok,
        })
    top = max(devices)
    speedup_top = next(
        a["speedup_vs_1dev"]
        for a in arms
        if a["devices"] == top and not a["cpu_steal"] and not a["imbalance"]
    )
    return {
        "dataset": name,
        "n_sites": ds.n_sites,
        "window_size": window,
        "fusion": True,
        "arms": arms,
        "speedup_max_devices": speedup_top,
        "max_devices": top,
        "hetero_steals": sum(
            a["steals"] for a in arms
            if a["devices"] > 1 or a["cpu_steal"]
        ),
        "consistent": consistent,
    }


def exp_e2e_throughput(
    name: str = "ch1-sim",
    fraction: float | None = None,
    window_size: int | None = None,
    repeats: int = 2,
) -> dict:
    """End-to-end wall-clock of the throughput engine vs the legacy path.

    Runs the same multi-window GSNP job three ways: *baseline* with
    prefetching, persistent residency, and the simulator's coalescing fast
    paths all disabled (the pre-engine behavior), *optimized* with all
    three enabled, and *fused* adding the ragged-megabatch launch plan on
    top of the optimized arm.  Each arm reports its best of ``repeats``
    runs (the steady-state number — repeat runs are where persistent
    residency pays).  Kernel launch counts per arm come from dedicated
    fresh single runs (no cache, no prefetch) so the device counter
    reflects exactly one pass over the dataset.  Reports sites/sec all
    three ways, the speedups, the launch reduction from fusion, and
    whether calls and compressed bytes are bitwise identical across every
    arm (they must be).
    """
    from ..gpusim.memory import set_fast_paths

    ds = bench_dataset(name, fraction)
    if window_size is None:
        # Enough windows that the double-buffered streaming has overlap.
        window_size = max(ds.n_sites // 16, 256)
    window = min(effective_window("gsnp", window_size), ds.n_sites)

    def run_once(
        prefetch: bool, cache: bool, fast: bool, fusion: bool = False
    ):
        prev = set_fast_paths(fast)
        try:
            pipe = create_pipeline(spec=JobSpec(
                engine="gsnp", window=window, prefetch=prefetch,
                cache=cache, fusion=fusion,
            ))
            best, result = None, None
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                result = pipe.run(ds)
                wall = time.perf_counter() - t0
                best = wall if best is None else min(best, wall)
            if hasattr(pipe, "release_cache"):
                pipe.release_cache()
            return result, best
        finally:
            set_fast_paths(prev)

    def count_launches(fusion: bool) -> int:
        # Fresh single run, no residency or prefetch, so the device's
        # cumulative launch counter is exactly one pass over the dataset.
        prev = set_fast_paths(True)
        try:
            pipe = create_pipeline(spec=JobSpec(
                engine="gsnp", window=window, prefetch=False,
                cache=False, fusion=fusion,
            ))
            res = pipe.run(ds)
            return int(res.extras["device"].counters.total().launches)
        finally:
            set_fast_paths(prev)

    base_res, base_wall = run_once(prefetch=False, cache=False, fast=False)
    opt_res, opt_wall = run_once(prefetch=True, cache=True, fast=True)
    fus_res, fus_wall = run_once(
        prefetch=True, cache=True, fast=True, fusion=True
    )
    opt_launches = count_launches(fusion=False)
    fus_launches = count_launches(fusion=True)
    n_sites = ds.n_sites
    return {
        "dataset": name,
        "n_sites": n_sites,
        "n_windows": -(-n_sites // window),
        "window_size": window,
        "repeats": max(1, repeats),
        "baseline": {
            "wall": base_wall,
            "sites_per_sec": n_sites / base_wall if base_wall > 0 else 0.0,
        },
        "optimized": {
            "wall": opt_wall,
            "sites_per_sec": n_sites / opt_wall if opt_wall > 0 else 0.0,
            "launches": opt_launches,
        },
        "fused": {
            "wall": fus_wall,
            "sites_per_sec": n_sites / fus_wall if fus_wall > 0 else 0.0,
            "launches": fus_launches,
        },
        "speedup": base_wall / opt_wall if opt_wall > 0 else 0.0,
        "speedup_fused": base_wall / fus_wall if fus_wall > 0 else 0.0,
        "speedup_fused_vs_optimized": (
            opt_wall / fus_wall if fus_wall > 0 else 0.0
        ),
        "launch_reduction": (
            opt_launches / fus_launches if fus_launches > 0 else 0.0
        ),
        "consistent": (
            opt_res.table.equals(base_res.table)
            and opt_res.compressed_output == base_res.compressed_output
            and fus_res.table.equals(base_res.table)
            and fus_res.compressed_output == base_res.compressed_output
        ),
    }


def cohort_batches(ds: SimulatedDataset, n_samples: int):
    """Alignment batches for an ``n_samples`` cohort over one dataset.

    Sample 0 is the dataset's own read set; further samples are fresh
    simulated sequencing runs of the *same* diploid individual under the
    same depth/coverage model (distinct deterministic seeds) — the
    shared-reference cohort the batched execution mode targets.
    """
    from ..seqsim.reads import simulate_reads

    batches = [AlignmentBatch.from_read_set(ds.reads)]
    spec = ds.spec
    for i in range(1, n_samples):
        rs = simulate_reads(
            ds.diploid,
            depth=spec.depth,
            coverage=spec.coverage,
            read_len=spec.read_len,
            multihit_fraction=spec.multihit_fraction,
            seed=spec.seed * 7 + 3 + 1000 * i,
        )
        batches.append(AlignmentBatch.from_read_set(rs))
    return batches


def exp_cohort(
    name: str = "ch1-sim",
    fraction: float | None = None,
    samples=(1, 2, 4),
    window_size: int | None = None,
) -> dict:
    """Cohort batching: modeled per-sample cost of fused S-sample runs.

    Sweeps the cohort size S with the fused sample-major path and reports
    each arm's modeled end-to-end seconds (one pooled ``cal_p_matrix``
    pass plus the run profile), the per-sample share, the per-sample
    throughput speedup over the S=1 arm, and the fused launch counts per
    stage.  The batching wins come from amortization — one input pass,
    one calibration, one resident table set, one launch chain per
    megabatch — so per-sample cost must *fall* as S grows while launches
    per stage stay bounded (``LAUNCH_STAGE_RATIO_BOUND``) instead of
    scaling with S.

    Every arm is checked bitwise: each cohort member's table and
    compressed stream must equal a solo *non-fused* serial run of that
    sample sharing the pooled calibration (the strongest cross-path
    oracle available — different layout, different launch chain, same
    bytes).
    """
    from ..core.cohort import pooled_batch

    ds = bench_dataset(name, fraction)
    if window_size is None:
        # Enough windows that megabatching has something to fuse.
        window_size = max(ds.n_sites // 16, 256)
    window = min(effective_window("gsnp", window_size), ds.n_sites)
    sweep = sorted(set(samples) | {1})
    all_batches = cohort_batches(ds, max(sweep))

    arms = []
    consistent = True
    base_per_sample = None
    base_stages: dict | None = None
    for s in sweep:
        batches = all_batches[:s]
        pipe = create_pipeline(
            spec=JobSpec(engine="gsnp", window=window, fusion=True)
        )
        cal = pipe.calibrate(ds, reads=pooled_batch(batches))
        res = pipe.run_cohort(ds, batches, calibration=cal)
        if hasattr(pipe, "release_cache"):
            pipe.release_cache()
        total = cal.record.modeled_time() + res.profile.total_modeled()
        per_sample = total / s

        solo_pipe = create_pipeline(
            spec=JobSpec(engine="gsnp", window=window, fusion=False)
        )
        ok = True
        for si, batch in enumerate(batches):
            solo = solo_pipe.run(ds, calibration=cal, reads=batch)
            sres = res.sample_result(si)
            ok = ok and (
                sres.table.equals(solo.table)
                and sres.compressed_output == solo.compressed_output
            )
        if hasattr(solo_pipe, "release_cache"):
            solo_pipe.release_cache()
        consistent = consistent and ok

        fusion = res.extras["fusion"]
        stages = {
            k: int(v["launches"]) for k, v in fusion["stages"].items()
        }
        if s == 1:
            base_per_sample = per_sample
            base_stages = stages
        ratio = (
            max(
                stages[k] / base_stages[k]
                for k in stages
                if base_stages.get(k)
            )
            if base_stages
            else 1.0
        )
        arms.append({
            "samples": s,
            "modeled_seconds": total,
            "per_sample_seconds": per_sample,
            "per_sample_sites_per_sec": (
                ds.n_sites / per_sample if per_sample > 0 else 0.0
            ),
            "speedup_per_sample": (
                base_per_sample / per_sample
                if base_per_sample and per_sample > 0
                else 1.0
            ),
            "launches": fusion["launches"],
            "megabatches": fusion["megabatches"],
            "stages": stages,
            "launch_stage_ratio_max": ratio,
            "consistent": ok,
        })
    top = max(sweep)
    top_arm = next(a for a in arms if a["samples"] == top)
    return {
        "dataset": name,
        "n_sites": ds.n_sites,
        "window_size": window,
        "fusion": True,
        "samples": sweep,
        "arms": arms,
        "max_samples": top,
        "speedup_max_samples": top_arm["speedup_per_sample"],
        "launch_stage_ratio_max": top_arm["launch_stage_ratio_max"],
        "launches_stage_bounded": (
            top_arm["launch_stage_ratio_max"] <= LAUNCH_STAGE_RATIO_BOUND
        ),
        "consistent": consistent,
    }
