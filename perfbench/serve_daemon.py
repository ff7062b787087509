"""Start the ``gsnp-serve`` daemon for the ``serve-mix`` workload.

    python3 perfbench/serve_daemon.py REPORT.json TRACE -- <gsnp-serve args>

Calls ``repro.cli.main_serve`` with the given arguments.  Around it, one
wrapper on ``repro.serve.runner.execute`` keeps each job's run profile
numbers (the modeled clock priced by the benchmark, device peak, PCIe
bytes), and with ``TRACE`` = 1 the span tracer is installed as well.  When
the daemon shuts down, the report (jobs, peak RSS, per-layer fold) is
written to ``REPORT.json``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import sys  # noqa: E402

import common  # noqa: E402

common.use_src()

import repro.serve.runner as runner  # noqa: E402
from repro.cli import main_serve  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - T_START


def job_facts(result) -> dict:
    meta = result.extras.get("exec", {})
    return {
        "price": common.price_profile(result.profile),
        "peak_device_bytes": result.extras.get("peak_gpu_bytes", 0),
        "pcie_bytes": common.transfer_bytes(result.profile),
        "phase_wall": {k: r.wall for k, r in result.profile.records.items()},
        "exec": {
            "shards": meta.get("n_shards", 0),
            "retries": meta.get("retries", 0),
        },
    }


def main(argv: list) -> int:
    report_path, trace = argv[0], argv[1] == "1"
    serve_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    jobs: list = []
    execute = runner.execute

    def capture(*args, **kwargs):
        result = execute(*args, **kwargs)
        jobs.append(job_facts(result))
        return result

    runner.execute = capture
    tracer = Tracer().install() if trace else None
    rc = main_serve(serve_args)
    report = {
        "import_s": IMPORT_S,
        "jobs": jobs,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = layers.fold_tracer(tracer, len(jobs))
    common.write_json(report_path, report)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
