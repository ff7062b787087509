"""Harness side of the ``solo-windows`` and ``cohort-pool`` workloads.

The harness writes the seeded input files, computes the oracles once
(outside any timing), then runs ``program.py`` in child processes: a few
set-up-only children for the ``setup_s`` median, and one that also runs
the timed closed loop.  It checks every call's output bytes against the
oracle and folds the children's reports into the result line.
"""

from __future__ import annotations

import time
from dataclasses import replace

import common
import layers

#: Children that only set up (plus the measuring one) for ``setup_s``.
SETUP_RUNS = 3

#: ``solo-windows``: share of the 1/1000-scale ch1-sim replica (247k
#: sites) generated per run; the window stays 1/64 of the replica.
SOLO_FRACTION = 0.125
SOLO_WINDOW = 247_000 // 64

#: ``cohort-pool``: a 1/5-scale ch1-sim replica, S read sets, 16 windows.
COHORT_FRACTION = 0.1
COHORT_SAMPLES = 4


def _write_inputs(work, ds, batches) -> dict:
    from repro.align.records import AlignmentBatch
    from repro.formats.fasta import write_fasta
    from repro.formats.prior import write_prior
    from repro.formats.soap import write_soap

    paths = {"fasta": str(work / "ref.fa"), "prior": str(work / "ref.prior")}
    write_fasta(paths["fasta"], [ds.reference])
    write_prior(paths["prior"], ds.reference.name, ds.prior)
    soaps = []
    for i, batch in enumerate(batches or [AlignmentBatch.from_read_set(ds.reads)]):
        soaps.append(str(work / f"reads{i}.soap"))
        write_soap(soaps[-1], batch)
    paths["soaps"] = soaps
    return paths


def solo_inputs(work, seed: int):
    """Input files, oracle digests and the dense-baseline timing."""
    from repro.api import JobSpec
    from repro.bench.harness import bench_spec
    from repro.core.detector import GsnpDetector
    from repro.seqsim.datasets import generate_dataset
    from repro.serve.runner import write_job_output

    spec = replace(bench_spec("ch1-sim", SOLO_FRACTION), seed=seed)
    ds = generate_dataset(spec)
    paths = _write_inputs(work, ds, None)
    files = (paths["fasta"], paths["soaps"][0], paths["prior"])

    # Oracle 1, and the plain single-threaded baseline: the SOAPsnp dense
    # engine through the same gsnp-call steps.
    t0 = time.perf_counter()
    det = GsnpDetector.from_files(*files, spec=JobSpec(engine="soapsnp"))
    dense = write_job_output(det.run(), JobSpec(engine="soapsnp"))
    baseline_s = time.perf_counter() - t0
    # Oracle 2: the serial per-window GSNP run (no prefetch, no residency).
    serial_spec = JobSpec(window=SOLO_WINDOW, prefetch=False, cache=False)
    det = GsnpDetector.from_files(*files, spec=serial_spec)
    serial = det.run()
    agree = write_job_output(serial, serial_spec) == dense
    cfg = {
        "fasta": files[0], "soap": files[1], "prior": files[2],
        "output": str(work / "calls.cns"),
        "window": SOLO_WINDOW,
        "n_sites": ds.n_sites,
        "scale_factor": spec.scale_factor,
    }
    oracle = [common.sha256(dense), common.sha256(serial.compressed_output)]
    return cfg, oracle, agree, {"baseline.soapsnp_sites_per_s": ds.n_sites / baseline_s}


def cohort_inputs(work, seed: int):
    """Input files and the per-sample oracle digests."""
    from repro.api import JobSpec, create_pipeline
    from repro.bench.harness import bench_spec, cohort_batches
    from repro.core.cohort import pooled_batch
    from repro.core.detector import dataset_from_files
    from repro.formats.soap import read_soap
    from repro.seqsim.datasets import generate_dataset

    spec = replace(bench_spec("ch1-sim", COHORT_FRACTION), seed=seed)
    ds = generate_dataset(spec)
    paths = _write_inputs(work, ds, cohort_batches(ds, COHORT_SAMPLES))
    window = ds.n_sites // 16
    # Oracle: a solo unfused run of each sample sharing the pooled
    # calibration, over the same files the program reads.
    parsed = dataset_from_files(paths["fasta"], paths["soaps"][0], paths["prior"])
    batches = [read_soap(p) for p in paths["soaps"]]
    pipe = create_pipeline(spec=JobSpec(window=window, fusion=False))
    cal = pipe.calibrate(parsed, reads=pooled_batch(batches))
    oracle = [
        common.sha256(pipe.run(parsed, calibration=cal, reads=b).compressed_output)
        for b in batches
    ]
    pipe.release_cache()
    cfg = {
        "fasta": paths["fasta"], "soaps": paths["soaps"], "prior": paths["prior"],
        "window": window,
        "n_sites": ds.n_sites,
    }
    return cfg, oracle, True, {}


def run(workload: str, seed: int, seconds: float, trace: bool, work) -> tuple:
    common.use_src()
    make = solo_inputs if workload == "solo-windows" else cohort_inputs
    cfg, oracle, agree, extra = make(work, seed)
    cfg.update(workload=workload, seconds=seconds, trace=trace)

    reports = []
    for i in range(SETUP_RUNS):
        last = i == SETUP_RUNS - 1
        cfg.update(
            setup_only=not last,
            report=str(work / f"report{i}.json"),
            trace_path=str(common.ROOT / ".perfbench_traces" / f"{workload}-s{seed}.json")
            if trace and last else None,
        )
        if cfg["trace_path"]:
            (common.ROOT / ".perfbench_traces").mkdir(exist_ok=True)
        cfg_path = work / f"config{i}.json"
        common.write_json(cfg_path, cfg)
        common.run_child([common.BENCH_DIR / "program.py", cfg_path])
        reports.append(common.read_json(cfg["report"]))
    main = reports[-1]

    checked = [r["warmup"] for r in reports] + main["calls"] + main["traced"]
    failed = sum(1 for c in checked if c["digests"] != oracle)
    if not agree:
        failed += 1  # the two oracles disagree: nothing can be trusted
    correct = failed == 0
    attempted = len(checked) + (0 if agree else 1)

    if trace:
        calls, traced = main["calls"], main["traced"]
        values = dict(extra)
        values.update(main["layers"])
        values.update(layers.fold_calls(traced))
        if "paper" in traced[0]:
            for row in layers.PAPER_ROWS:
                values[f"paper.{row}.rel_err"] = sum(
                    c["paper"][row] for c in traced
                ) / len(traced)
        values["trace.overhead_frac"] = (
            common.median(c["wall"] for c in traced)
            / common.median(c["wall"] for c in calls) - 1.0
        )
        return correct, attempted, failed, layers.report(values)

    calls = main["calls"]
    walls = [c["wall"] for c in calls]
    metrics = {
        "setup_s": common.metric(common.median(r["setup_s"] for r in reports), "s"),
        "sites_per_s": common.metric(
            common.median(c["sites"] / c["wall"] for c in calls), "sites/s"
        ),
        "modeled_s": common.metric(common.median(c["modeled_s"] for c in calls), "s"),
        "output_bytes_per_site": common.metric(
            common.median(c["output_bytes"] / c["sites"] for c in calls), "bytes/site"
        ),
        "peak_rss_mb": common.metric(main["peak_rss_mb"], "MB"),
        "peak_device_mb": common.metric(
            max(c["peak_device_bytes"] for c in calls) / 2**20, "MB"
        ),
        "job_latency_p50_s": common.metric(common.median(walls), "s"),
        "job_latency_p90_s": common.metric(common.percentile(walls, 90), "s"),
    }
    return correct, attempted, failed, metrics
