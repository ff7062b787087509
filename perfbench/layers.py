"""The per-layer metrics of the traced run, and how each is folded.

Every traced run prints every name in :func:`metric_units`; a layer a
workload never enters reads 0 there.  Times and counts are per call
(per job on ``serve-mix``): totals over the traced calls divided by the
number of traced calls, so counts repeat exactly from run to run.
"""

from __future__ import annotations

from common import PHASES, ratio

#: Kernels of the device counter book on the three workloads.  Any other
#: kernel name folds into ``gpusim.kernel.other``.
KERNELS = (
    "binary_search",
    "counting_histogram",
    "counting_scatter",
    "likelihood_comp_optimized",
    "likelihood_posterior_fused_optimized",
    "likelihood_sort_c1",
    "likelihood_sort_c2",
    "likelihood_sort_c3",
    "likelihood_sort_c4",
    "radix_histogram",
    "radix_scatter",
    "reduce_pass",
    "rle_flag",
    "scan_downsweep",
    "scan_upsweep",
    "seg_rle_flag",
    "unique_compact",
    "unique_flag",
    "other",
)

#: Phases of Table IV the paper-scale view compares, plus the total.
PAPER_ROWS = PHASES + ("total",)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "formats.parse_s": "s",
        "formats.window_wait_s": "s",
        "soapsnp.extract_observations_s": "s",
        "soapsnp.summarize_window_s": "s",
        "soapsnp.build_p_matrix_s": "s",
    }
    for p in PHASES:
        units[f"core.{p}.wall_s"] = "s"
        units[f"core.{p}.modeled_s"] = "s"
    units.update({
        "core.fused.megabatches": "count",
        "core.unpriced_modeled_s": "s",
        "core.modeled_fixed_s": "s",
        "sortnet.sort_s": "s",
        "sortnet.passes": "count",
        "gpusim.launches": "count",
        "gpusim.launch_host_s": "s",
        "gpusim.host_ns_per_warp_inst": "ns",
        "gpusim.warp_inst": "count",
        "gpusim.global_tx": "count",
        "gpusim.coalesced_fraction": "ratio",
        "gpusim.shared_ops": "count",
        "gpusim.pcie_bytes": "bytes",
        "gpusim.table_uploads": "count",
        "gpusim.residency_hit_ratio": "ratio",
    })
    for k in KERNELS:
        units[f"gpusim.kernel.{k}.modeled_s"] = "s"
        units[f"gpusim.kernel.{k}.host_s"] = "s"
    units.update({
        "compress.encode_table_s": "s",
        "compress.encode_alignments_s": "s",
        "exec.shards": "count",
        "exec.steals": "count",
        "exec.retries": "count",
        "exec.lane_modeled_max_s": "s",
        "exec.lane_imbalance": "ratio",
        "exec.link_s": "s",
        "exec.lane_idle_wall_s": "s",
        "exec.merge_s": "s",
        "faults.journal_commits": "count",
        "faults.journal_commit_s": "s",
        "serve.queue_wait_s_p50": "s",
        "serve.run_s_p50": "s",
        "serve.overhead_s_p50": "s",
        "serve.dataset_hit_ratio": "ratio",
        "serve.calibration_hit_ratio": "ratio",
        "serve.table_hit_ratio": "ratio",
    })
    for row in PAPER_ROWS:
        units[f"paper.{row}.rel_err"] = "ratio"
    units.update({
        "baseline.soapsnp_sites_per_s": "sites/s",
        "trace.overhead_frac": "ratio",
        "trace.spans": "count",
        "bench.error_rate": "ratio",
    })
    return units


def fold_tracer(tracer, n_calls: int) -> dict:
    """Per-call layer numbers measured by the tracer's spans."""
    from repro.gpusim.costmodel import GpuCostModel
    from repro.gpusim.counters import KernelCounters
    from tracer import kernel_rows

    n = max(n_calls, 1)
    tot = tracer.totals()
    secs, count = tot["seconds"], tot["count"]
    counts = tracer.counts

    def s(name):
        return secs.get(name, 0.0) / n

    gpu = GpuCostModel()
    total = KernelCounters(name="total")
    out = {}
    per_kernel: dict = {}
    for kname, (c, host) in kernel_rows(tracer).items():
        total.merge(c)
        key = kname if kname in KERNELS else "other"
        acc = per_kernel.setdefault(key, [KernelCounters(name=key), 0.0])
        acc[0].merge(c)
        acc[1] += host
    for key, (c, host) in per_kernel.items():
        out[f"gpusim.kernel.{key}.modeled_s"] = gpu.kernel_time(c) / n
        out[f"gpusim.kernel.{key}.host_s"] = host / n
    tx = total.g_load + total.g_store
    hits = counts["gpusim.residency_hits"]
    lookups = hits + counts["gpusim.residency_misses"]
    out.update({
        "formats.parse_s": s("formats.parse"),
        "formats.window_wait_s": s("formats.window_wait"),
        "soapsnp.extract_observations_s": s("soapsnp.extract_observations"),
        "soapsnp.summarize_window_s": s("soapsnp.summarize_window"),
        "soapsnp.build_p_matrix_s": s("soapsnp.build_p_matrix"),
        "core.fused.megabatches": (
            count.get("gpusim.build_launch_plan", 0)
            + count.get("gpusim.build_cohort_plan", 0)
        ) / n,
        "sortnet.sort_s": s("sortnet.sort"),
        "sortnet.passes": counts["sortnet.passes"] / n,
        "gpusim.launches": total.launches / n,
        "gpusim.launch_host_s": s("gpusim.launch"),
        "gpusim.host_ns_per_warp_inst": 1e9 * ratio(
            secs.get("gpusim.launch", 0.0), total.inst_warp
        ),
        "gpusim.warp_inst": total.inst_warp / n,
        "gpusim.global_tx": tx / n,
        "gpusim.coalesced_fraction": ratio(
            total.g_load_bytes + total.g_store_bytes,
            tx * gpu.spec.segment_bytes,
        ),
        "gpusim.shared_ops": (total.s_load_warp + total.s_store_warp) / n,
        "gpusim.table_uploads": counts["gpusim.table_uploads"] / n,
        "gpusim.residency_hit_ratio": ratio(hits, lookups),
        "compress.encode_table_s": (
            s("compress.encode_table") + s("compress.encode_tables_fused")
        ),
        "compress.encode_alignments_s": s("compress.encode_alignments"),
        "exec.merge_s": s("exec.merge"),
        "faults.journal_commits": count.get("faults.journal_commit", 0) / n,
        "faults.journal_commit_s": s("faults.journal_commit"),
        "trace.spans": len(tracer.spans) / n,
    })
    return out


def fold_calls(calls: list) -> dict:
    """Per-call layer numbers read from the program's own run profiles."""
    n = max(len(calls), 1)

    def mean(get):
        return sum(get(c) for c in calls) / n

    out = {}
    for p in PHASES:
        out[f"core.{p}.wall_s"] = mean(lambda c: c["phase_wall"].get(p, 0.0))
        out[f"core.{p}.modeled_s"] = mean(
            lambda c: c["price"]["phases"].get(p, 0.0)
        )
    out["core.unpriced_modeled_s"] = mean(lambda c: c["price"]["unpriced_s"])
    out["core.modeled_fixed_s"] = mean(lambda c: c["price"]["fixed_s"])
    out["gpusim.pcie_bytes"] = mean(lambda c: c["pcie_bytes"])
    if calls and "exec" in calls[0]:
        out.update({
            "exec.shards": mean(lambda c: c["exec"]["shards"]),
            "exec.steals": mean(lambda c: c["exec"].get("steals", 0)),
            "exec.retries": mean(lambda c: c["exec"]["retries"]),
        })
    if calls and "lanes" in calls[0]:
        def imbalance(c):
            lanes = list(c["lanes"].values())
            return ratio(max(lanes), sum(lanes) / len(lanes))

        out.update({
            "exec.lane_modeled_max_s": mean(lambda c: max(c["lanes"].values())),
            "exec.lane_imbalance": mean(imbalance),
            "exec.link_s": mean(lambda c: c["link_s"]),
            "exec.lane_idle_wall_s": mean(lambda c: c["exec"]["idle_wall_s"]),
        })
    return out


def report(values: dict) -> dict:
    """Every per-layer metric as ``{"value", "unit"}``, 0 where unmeasured."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in metric_units().items()
    }
