"""Harness side of the ``serve-mix`` workload.

A ``gsnp-serve`` daemon with its default configuration (2 worker threads)
runs in a child process (``serve_daemon.py``).  Two client threads in this
process form a closed loop over one seeded job sequence of small
chromosome inputs: about 3 jobs in 4 repeat an input already submitted in
the run (dataset / calibration / table cache hits), the rest are new
(parse, calibrate, upload).  Each job's inline output bytes are compared
with a one-shot in-process run of the same input, computed before any
timing.  Queue wait, run time and protocol overhead come from the
client-side ``accepted``/``started``/``done`` event times; cache hit ratios
come from ``/stats`` deltas over the timed section.
"""

from __future__ import annotations

import random
import subprocess
import sys
import threading
import time

import common
import layers

#: Sites per job input: small, so one run holds well over 100 jobs.
JOB_SITES = 1_000
#: Distinct inputs per run; new jobs draw them in order.  Once all are
#: introduced (job 92) every job repeats, so every run ends with the
#: same set of inputs resident and the memory peaks compare.
N_INPUTS = 24
#: Length of the job sequence (a run stops early if it is used up).
MAX_JOBS = 400
#: Every NEW_EVERY-th job submits a not-yet-seen input.  A fixed stride,
#: not a coin toss: every seed has the same hit/miss pattern, so the
#: latency percentiles do not move with where the seed puts the misses.
NEW_EVERY = 4
#: Repeats pick among this many most recently introduced inputs.
RECENT = 6
CLIENTS = 2
SETUP_RUNS = 3


def make_inputs(work, seed: int) -> list:
    """Input files and one-shot oracle bytes; index 0 is the warm-up."""
    from repro.align.records import AlignmentBatch
    from repro.api import JobSpec
    from repro.core.detector import GsnpDetector
    from repro.formats.fasta import write_fasta
    from repro.formats.prior import write_prior
    from repro.formats.soap import write_soap
    from repro.seqsim.datasets import DatasetSpec, generate_dataset
    from repro.serve.runner import write_job_output

    inputs = []
    for i in range(N_INPUTS + 1):
        ds = generate_dataset(DatasetSpec(
            name=f"chrJ{i}", n_sites=JOB_SITES, depth=11.0, coverage=0.88,
            seed=seed * 1000 + i,
        ))
        stem = work / f"job{i}"
        spec = JobSpec(
            fasta=f"{stem}.fa", soap=f"{stem}.soap", prior=f"{stem}.prior",
        )
        write_fasta(spec.fasta, [ds.reference])
        write_soap(spec.soap, AlignmentBatch.from_read_set(ds.reads))
        write_prior(spec.prior, ds.reference.name, ds.prior)
        det = GsnpDetector.from_files(spec.fasta, spec.soap, spec.prior, spec=spec)
        inputs.append((spec, write_job_output(det.run(), spec), ds.n_sites))
    return inputs


def job_sequence(seed: int) -> list:
    """Input indices (1-based; 0 is the warm-up input) of the job stream."""
    rng = random.Random(seed)
    seq: list = []
    introduced = 0
    for j in range(MAX_JOBS):
        if j % NEW_EVERY == 0 and introduced < N_INPUTS:
            introduced += 1
            seq.append(introduced)
        else:
            seq.append(rng.randint(max(1, introduced - RECENT + 1), introduced))
    return seq


class Daemon:
    """One ``serve_daemon.py`` child process and its client."""

    def __init__(self, work, tag: str, trace: bool) -> None:
        from repro.serve.client import ServeClient

        rel = (work / tag).relative_to(common.ROOT)
        self.socket = str(rel) + ".sock"  # relative: Unix socket paths are short
        self.report = work / f"{tag}.report.json"
        self.stderr = open(work / f"{tag}.stderr", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, str(common.BENCH_DIR / "serve_daemon.py"),
                str(self.report), "1" if trace else "0", "--",
                "--socket", self.socket, "--state-dir", str(rel) + ".state",
            ],
            cwd=str(common.ROOT),
            env=common.child_env(),
            stdout=subprocess.DEVNULL,
            stderr=self.stderr,
        )
        self.client = ServeClient(self.socket, timeout=120.0)

    def ready(self) -> None:
        from repro.serve.client import wait_for_server

        if not wait_for_server(self.socket, timeout=60.0):
            raise RuntimeError("gsnp-serve did not come up")

    def stop(self) -> dict:
        """Drain and stop the daemon; return its report."""
        try:
            self.client.shutdown(drain=True)
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        return common.read_json(self.report)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.stderr.close()


def submit(client, spec) -> dict:
    """One job; the client-side event times of its lifecycle."""
    times: dict = {}

    def on_event(event):
        times.setdefault(event.get("event"), time.perf_counter())

    t0 = time.perf_counter()
    res = client.submit(spec, on_event=on_event)
    done = time.perf_counter()
    wall = next(
        (e.get("wall") for e in res.events if e.get("event") == "done"), None
    )
    return {
        "status": res.status,
        "output": res.output,
        "submit": t0,
        "accepted": times.get("accepted", t0),
        "started": times.get("started", done),
        "done": done,
        "wall": wall if wall is not None else done - t0,
    }


def start(work, tag: str, trace: bool, warm_spec) -> tuple:
    """Start a daemon and make its warm-up job: the set-up time."""
    t0 = time.perf_counter()
    daemon = Daemon(work, tag, trace)
    try:
        daemon.ready()
        warm = submit(daemon.client, warm_spec)
    except BaseException:
        daemon.kill()
        raise
    return daemon, time.perf_counter() - t0, warm


def closed_loop(daemon, inputs, seq, seconds: float) -> tuple:
    """Run the job sequence with CLIENTS callers until time is up."""
    lock = threading.Lock()
    cursor = iter(range(len(seq)))
    records: list = []
    errors: list = []
    clock = common.Clock(seconds)

    def client_main():
        try:
            while not clock.expired():
                with lock:
                    j = next(cursor, None)
                if j is None:
                    return
                spec, _, n_sites = inputs[seq[j]]
                rec = submit(daemon.client, spec)
                rec.update(job=j, input=seq[j], sites=n_sites)
                with lock:
                    records.append(rec)
        except BaseException as exc:  # reported as a failed operation
            errors.append(repr(exc))

    before = daemon.client.stats()
    threads = [threading.Thread(target=client_main) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170)
    after = daemon.client.stats()
    elapsed = max((r["done"] for r in records), default=clock.t0) - clock.t0
    return records, errors, elapsed, before, after


def check(records, inputs, errors) -> int:
    failed = len(errors)
    for r in records:
        ok = r["status"] == "done" and r["output"] == inputs[r["input"]][1]
        r["ok"] = ok
        failed += 0 if ok else 1
    return failed


def hit_ratio(before: dict, after: dict, section: tuple, prefix: str = "") -> float:
    """Hits / lookups of one ``/stats`` cache section over the timed run."""
    def delta(key):
        a, b = after, before
        for part in section:
            a, b = a[part], b[part]
        return a[prefix + key] - b[prefix + key]

    hits = delta("hits")
    return common.ratio(hits, hits + delta("misses"))


def run(seed: int, seconds: float, trace: bool, work) -> tuple:
    common.use_src()
    inputs = make_inputs(work, seed)
    seq = job_sequence(seed)
    warm_spec = inputs[0][0]

    if trace:
        return run_traced(inputs, seq, seconds, work, warm_spec)

    setups = []
    daemon = None
    warm_ok = 0
    for i in range(SETUP_RUNS):
        daemon, setup_s, warm = start(work, f"d{i}", False, warm_spec)
        setups.append(setup_s)
        warm_ok += warm["status"] == "done" and warm["output"] == inputs[0][1]
        if i < SETUP_RUNS - 1:
            daemon.stop()
    try:
        records, errors, elapsed, _, _ = closed_loop(daemon, inputs, seq, seconds)
    finally:
        report = daemon.stop()
    failed = check(records, inputs, errors) + (SETUP_RUNS - warm_ok)
    attempted = len(records) + len(errors) + SETUP_RUNS
    done = [r for r in records if r["ok"]]
    lat = [r["done"] - r["submit"] for r in records]
    jobs = report["jobs"][1:]  # the first job is the warm-up
    metrics = {
        "setup_s": common.metric(common.median(setups), "s"),
        "sites_per_s": common.metric(
            common.ratio(sum(r["sites"] for r in done), elapsed), "sites/s"
        ),
        "modeled_s": common.metric(
            common.median(j["price"]["scaled_s"] for j in jobs), "s"
        ),
        "output_bytes_per_site": common.metric(
            common.median(len(r["output"] or b"") / r["sites"] for r in records),
            "bytes/site",
        ),
        "peak_rss_mb": common.metric(report["peak_rss_mb"], "MB"),
        "peak_device_mb": common.metric(
            max(j["peak_device_bytes"] for j in jobs) / 2**20, "MB"
        ),
        "job_latency_p50_s": common.metric(common.median(lat), "s"),
        "job_latency_p90_s": common.metric(common.percentile(lat, 90), "s"),
    }
    return failed == 0, attempted, failed, metrics


def run_traced(inputs, seq, seconds, work, warm_spec) -> tuple:
    """Untraced then traced daemon over the same job sequence, half the
    time each: per-layer numbers plus the tracer's measured overhead."""
    runs = []
    for tag, traced in (("plain", False), ("traced", True)):
        daemon, _, warm = start(work, tag, traced, warm_spec)
        try:
            loop = closed_loop(daemon, inputs, seq, seconds / 2)
        finally:
            report = daemon.stop()
        runs.append((warm, loop, report))
    failed = attempted = 0
    for warm, (records, errors, _, _, _), _ in runs:
        failed += check(records, inputs, errors)
        failed += not (warm["status"] == "done" and warm["output"] == inputs[0][1])
        attempted += len(records) + len(errors) + 1

    (_, (plain, _, _, _, _), _), (_, (records, _, _, before, after), report) = runs
    values = dict(report["layers"])
    values.update(layers.fold_calls(report["jobs"]))
    values.update({
        "serve.queue_wait_s_p50": common.median(
            r["started"] - r["accepted"] for r in records
        ),
        "serve.run_s_p50": common.median(r["done"] - r["started"] for r in records),
        "serve.overhead_s_p50": common.median(
            (r["done"] - r["submit"]) - (r["started"] - r["accepted"]) - r["wall"]
            for r in records
        ),
        "serve.dataset_hit_ratio": hit_ratio(before, after, ("runner", "datasets")),
        "serve.calibration_hit_ratio": hit_ratio(
            before, after, ("runner", "calibration")
        ),
        "serve.table_hit_ratio": hit_ratio(before, after, ("resident",), "table_"),
        "trace.overhead_frac": common.median(r["wall"] for r in records)
        / common.median(r["wall"] for r in plain) - 1.0,
    })
    return failed == 0, attempted, failed, layers.report(values)
