"""The program side of the ``solo-windows`` and ``cohort-pool`` workloads.

Run as ``python3 perfbench/program.py CONFIG.json``.  The process imports
``repro``, starts the pipeline, makes one untimed warm-up call (that is
``setup_s``), then calls the program in a closed loop until the configured
seconds are spent.  Each call's output bytes are hashed after the call,
outside its timing, for the parent to check against the oracle.  With
``trace`` set, untraced and traced calls alternate so the report carries
the tracer's own overhead next to the per-layer numbers.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import sys  # noqa: E402

import common  # noqa: E402

common.use_src()

from repro.api import JobSpec  # noqa: E402
from repro.core.detector import GsnpDetector, dataset_from_files  # noqa: E402
from repro.exec import execute  # noqa: E402
from repro.serve.runner import write_job_output  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - T_START


class Solo:
    """One sample through the ``gsnp-call`` steps, per-window launches."""

    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.spec = JobSpec(
            fasta=cfg["fasta"], soap=cfg["soap"], prior=cfg["prior"],
            output=cfg["output"], window=cfg["window"],
        ).validate(require_inputs=True)
        self.n_sites = cfg["n_sites"]

    def start(self) -> None:
        """Nothing to keep: every call starts from the files, as gsnp-call."""

    def call(self):
        spec = self.spec
        det = GsnpDetector.from_files(spec.fasta, spec.soap, spec.prior, spec=spec)
        result = det.run()
        write_job_output(result, spec)
        return result

    def facts(self, result) -> dict:
        """Per-call numbers, read after the call."""
        with open(self.spec.output, "rb") as f:
            out = f.read()
        price = common.price_profile(result.profile)
        return {
            "sites": self.n_sites,
            "digests": [common.sha256(out), common.sha256(result.compressed_output)],
            "output_bytes": len(out),
            "modeled_s": price["scaled_s"],
            "price": price,
            "peak_device_bytes": result.extras["peak_gpu_bytes"],
            "pcie_bytes": common.transfer_bytes(result.profile),
            "phase_wall": {k: r.wall for k, r in result.profile.records.items()},
            "paper": self.paper_view(result.profile),
        }

    def paper_view(self, profile) -> dict:
        """Relative error of the paper-scale extrapolation per Table IV row.

        The model is checked only against the paper's published table.
        """
        from dataclasses import replace

        from repro.bench.scale import TABLE4_PAPER, extrapolate
        from repro.seqsim.datasets import CH1_SPEC

        spec = replace(CH1_SPEC, scale_factor=self.cfg["scale_factor"])
        full = extrapolate(profile, spec)
        paper = TABLE4_PAPER["ch1-sim"]
        rows = {p: full.components.get(p, 0.0) for p in common.PHASES}
        rows["total"] = full.total
        return {p: v / paper[p] - 1.0 for p, v in rows.items()}


class Cohort:
    """S read sets of one individual through the multi-device scheduler."""

    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.spec = JobSpec(
            window=cfg["window"], fusion=True, devices=2, cpu_steal=True,
        )
        self.n_sites = cfg["n_sites"]
        self.shards: list = []
        # Capture (lane, shard profile) as the scheduler records each shard,
        # so the benchmark can price every lane itself.  One wrapper call per
        # shard; installed for traced and untraced calls alike.
        from repro.exec import hetero

        record = hetero._HeteroRun._record
        shards = self.shards

        def capture(run, lane, sr):
            shards.append((lane.name, sr.profile))
            return record(run, lane, sr)

        hetero._HeteroRun._record = capture

    def start(self) -> None:
        from repro.align.records import AlignmentBatch
        from repro.formats.soap import read_soap

        cfg = self.cfg
        self.dataset = dataset_from_files(cfg["fasta"], cfg["soaps"][0], cfg["prior"])
        self.batches = [AlignmentBatch.from_read_set(self.dataset.reads)]
        self.batches += [read_soap(p) for p in cfg["soaps"][1:]]

    def call(self):
        self.shards.clear()
        return execute(self.dataset, spec=self.spec, sample_reads=self.batches)

    def facts(self, result) -> dict:
        from repro.gpusim.costmodel import GpuCostModel

        gpu = GpuCostModel()
        lanes: dict = {}
        for lane, profile in self.shards:
            # Lane compute excludes transfers: the link carries those.
            lanes[lane] = lanes.get(lane, 0.0) + (
                common.price_profile(profile)["scaled_s"]
                - gpu.transfer_time(common.transfer_bytes(profile))
            )
        meta = result.extras["exec"]
        hetero = meta["hetero"]
        for lane in hetero["lanes"]:
            lanes.setdefault(lane["lane"], 0.0)
        link_s = hetero["modeled"]["link_seconds"]
        price = common.price_profile(result.profile)
        cal_s = price["phases"]["cal_p_matrix"]
        samples = result.samples
        out_bytes = sum(len(s.compressed_output) for s in samples)
        return {
            "sites": self.n_sites * len(samples),
            "digests": [common.sha256(s.compressed_output) for s in samples],
            "output_bytes": out_bytes,
            "modeled_s": cal_s + max(lanes.values()) + link_s,
            "price": price,
            "peak_device_bytes": result.extras["peak_gpu_bytes"],
            "pcie_bytes": common.transfer_bytes(result.profile),
            "phase_wall": {k: r.wall for k, r in result.profile.records.items()},
            "lanes": lanes,
            "link_s": link_s,
            "exec": {
                "shards": meta["n_shards"],
                "steals": hetero["steals"],
                "retries": meta["retries"],
                "idle_wall_s": sum(
                    max(meta["wall"] - lane["wall"], 0.0)
                    for lane in hetero["lanes"]
                ),
            },
        }


def main(cfg_path: str) -> int:
    cfg = common.read_json(cfg_path)
    prog = {"solo-windows": Solo, "cohort-pool": Cohort}[cfg["workload"]](cfg)
    prog.start()
    warm = prog.call()
    report = {
        "setup_s": time.perf_counter() - T_START,
        "import_s": IMPORT_S,
        "warmup": prog.facts(warm),
    }
    del warm
    if cfg["setup_only"]:
        common.write_json(cfg["report"], report)
        return 0

    tracer = Tracer() if cfg["trace"] else None
    calls, traced = [], []
    clock = common.Clock(cfg["seconds"])
    while not clock.expired() or not calls or (tracer and not traced):
        use_trace = tracer is not None and (len(calls) + len(traced)) % 2 == 1
        if use_trace:
            tracer.install()
        t0 = time.perf_counter()
        result = prog.call()
        wall = time.perf_counter() - t0
        if use_trace:
            tracer.uninstall()
        facts = prog.facts(result)
        facts["wall"] = wall
        del result
        (traced if use_trace else calls).append(facts)
    report["calls"] = calls
    report["traced"] = traced
    report["peak_rss_mb"] = common.peak_rss_mb()
    if tracer is not None:
        report["layers"] = layers.fold_tracer(tracer, len(traced))
        if cfg.get("trace_path"):
            tracer.dump(cfg["trace_path"])
    common.write_json(cfg["report"], report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
