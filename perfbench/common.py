"""Shared helpers of the GSNP benchmark: paths, statistics, the modeled
clock, child processes and the result line.

The benchmark lives beside the package it measures.  It never edits
``src/``; it imports ``repro`` from the checkout's ``src`` directory and
runs the program either in a child process (``program.py``) or behind the
``gsnp-serve`` daemon (``serve_daemon.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, outputs and traces; removed at exit.
WORK_ROOT = ROOT / ".perfbench_work"

#: Phases of the paper's Table I / Table IV, in order.
PHASES = (
    "cal_p_matrix",
    "read_site",
    "counting",
    "likelihood",
    "posterior",
    "output",
    "recycle",
)

#: Hard wall limit on any one child process of the benchmark.
CHILD_TIMEOUT_S = 170.0


def have_program() -> bool:
    """Whether the checkout holds the package this benchmark measures."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_src() -> None:
    """Make ``import repro`` resolve to the checkout's source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + str(BENCH_DIR)
    # One BLAS thread: callers are the benchmark's only parallelism.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def make_workdir(workload: str, seed: int) -> Path:
    path = WORK_ROOT / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def run_child(argv: list, cwd: Path = ROOT) -> None:
    """Run one benchmark child to completion (raises on failure)."""
    proc = subprocess.run(
        [sys.executable, *map(str, argv)],
        cwd=str(cwd),
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace")[-2000:]
        raise RuntimeError(f"child {argv[0]} exited {proc.returncode}:\n{tail}")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- statistics ----------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- the modeled clock, priced by the benchmark --------------------------


def price_record(rec) -> float:
    """Scale-dependent modeled seconds of one ``PhaseRecord``.

    Unlike ``PhaseRecord.modeled_time`` this prices the GPU counters
    whatever the launch count (a launch-free epilogue charge still costs
    its instructions and transactions) and leaves ``fixed_seconds`` out.
    """
    from repro.gpusim.costmodel import CpuCostModel, DiskModel, GpuCostModel
    from repro.gpusim.spec import BGI_PLATFORM

    gpu = GpuCostModel(BGI_PLATFORM.gpu)
    return (
        CpuCostModel(BGI_PLATFORM.cpu).time(rec.cpu)
        + DiskModel(BGI_PLATFORM.disk).time(rec.disk)
        + gpu.kernel_time(rec.gpu)
        + gpu.transfer_time(rec.transfer_bytes)
    )


def price_profile(profile) -> dict:
    """Benchmark price of a ``RunProfile``, split the way the record needs.

    Returns per-phase scale-dependent seconds, their sum, the fixed
    (scale-independent) seconds, and ``unpriced``: how much the program's
    own ``total_modeled()`` (scale-dependent part) falls short of it.
    """
    phases = {name: price_record(rec) for name, rec in profile.records.items()}
    fixed = sum(rec.fixed_seconds for rec in profile.records.values())
    own = profile.total_modeled() - fixed
    total = sum(phases.values())
    return {
        "phases": phases,
        "scaled_s": total,
        "fixed_s": fixed,
        "unpriced_s": total - own,
    }


def transfer_bytes(profile) -> int:
    return sum(rec.transfer_bytes for rec in profile.records.values())


# -- result line ---------------------------------------------------------


class Clock:
    """Deadline helper for a closed-loop timed section."""

    def __init__(self, seconds: float) -> None:
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })
