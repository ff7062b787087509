"""Command-line tools: simulate, call, serve, decompress, bench, lint.

The entry points mirror how the original system is operated:

* ``gsnp-simulate`` — generate a synthetic dataset (reference FASTA, SOAP
  alignment file, known-SNP prior file).
* ``gsnp-call`` — run SNP detection over those files with any engine
  (``gsnp``, ``gsnp_cpu`` or ``soapsnp``) and write text or compressed
  output.  Every knob is one :class:`~repro.api.JobSpec` field; the
  argument groups here derive from the dataclass metadata.
* ``gsnp-serve`` / ``gsnp-submit`` — the resident calling service: a
  daemon that keeps calibration and device state warm across jobs, and
  the client that submits :class:`~repro.api.JobSpec` jobs to it.
* ``gsnp-decompress`` — the decompression tool of Section V-B: convert a
  compressed result back to SOAPsnp text, optionally filtered.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .align.records import AlignmentBatch
from .api import JobSpec, engine_names
from .compress.reader import CompressedResultReader
from .core.detector import GsnpDetector
from .formats.cns import write_cns
from .formats.fasta import write_fasta
from .formats.prior import write_prior
from .formats.soap import write_soap
from .seqsim.datasets import DatasetSpec, generate_dataset


def main_simulate(argv=None) -> int:
    """Generate a synthetic dataset and write its three input files."""
    p = argparse.ArgumentParser(
        prog="gsnp-simulate", description=main_simulate.__doc__
    )
    p.add_argument("--name", default="chrSim")
    p.add_argument("--sites", type=int, default=50_000)
    p.add_argument("--depth", type=float, default=10.0)
    p.add_argument("--coverage", type=float, default=0.85)
    p.add_argument("--read-len", type=int, default=100)
    p.add_argument("--snp-rate", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prefix", default="simdata", help="output file prefix")
    args = p.parse_args(argv)

    spec = DatasetSpec(
        name=args.name,
        n_sites=args.sites,
        depth=args.depth,
        coverage=args.coverage,
        read_len=args.read_len,
        snp_rate=args.snp_rate,
        seed=args.seed,
    )
    ds = generate_dataset(spec)
    write_fasta(f"{args.prefix}.fa", [ds.reference])
    write_soap(f"{args.prefix}.soap", AlignmentBatch.from_read_set(ds.reads))
    write_prior(f"{args.prefix}.prior", ds.reference.name, ds.prior)
    np.savetxt(
        f"{args.prefix}.truth",
        np.column_stack(
            [ds.diploid.snp_positions + 1, ds.diploid.snp_genotypes]
        ),
        fmt="%d",
        header="pos allele1 allele2",
    )
    print(
        f"wrote {args.prefix}.fa / .soap / .prior / .truth "
        f"({ds.reads.n_reads} reads, {ds.diploid.n_snps} planted SNPs)"
    )
    return 0


def main_call(argv=None) -> int:
    """Run SNP detection over (fasta, soap, prior) input files."""
    p = argparse.ArgumentParser(prog="gsnp-call", description=main_call.__doc__)
    JobSpec.add_cli_args(p)
    args = p.parse_args(argv)
    try:
        spec = JobSpec.from_cli_args(args).validate(require_inputs=True)
    except ValueError as exc:
        p.error(str(exc))
    spec = spec.normalized()

    det = GsnpDetector.from_files(spec.fasta, spec.soap, spec.prior, spec=spec)
    t0 = time.perf_counter()
    result = det.run()
    wall = time.perf_counter() - t0

    # Output rendering and the summary line are shared with gsnp-serve:
    # served bytes are bitwise identical to these by construction.
    from .serve.runner import job_summary, write_job_output

    if spec.output:
        write_job_output(result, spec)
    print(
        job_summary(result, spec, wall)
        + (f" -> {spec.output}" if spec.output else "")
    )
    return 0


def main_serve(argv=None) -> int:
    """Run the resident gsnp-serve daemon on a Unix socket."""
    p = argparse.ArgumentParser(
        prog="gsnp-serve", description=main_serve.__doc__
    )
    p.add_argument(
        "--socket", default="gsnp-serve.sock",
        help="Unix socket path to listen on (the OS caps it at ~107 bytes)",
    )
    p.add_argument(
        "--state-dir", default="gsnp-serve-state",
        help="durable state: job ledger, shard journals, calibration store",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="worker threads (each keeps its own resident device state)",
    )
    p.add_argument(
        "--max-queued", type=int, default=16,
        help="admission cap on live (queued + running) jobs",
    )
    p.add_argument(
        "--tenant-quota", type=int, default=None,
        help="admission cap on live jobs per tenant (default: unlimited)",
    )
    p.add_argument(
        "--max-datasets", type=int, default=4,
        help="parsed-dataset LRU cache size",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="run the in-process service smoke scenario (two identical "
        "jobs + an over-quota one; asserts CLI parity, cache hits and "
        "clean shutdown) and exit",
    )
    args = p.parse_args(argv)

    if args.smoke:
        from .serve.smoke import run_smoke

        report = run_smoke()
        print("serve-smoke:", "OK" if report["ok"] else "FAILED")
        return 0 if report["ok"] else 1

    import signal

    from .serve import GsnpServer, ServeConfig

    server = GsnpServer(ServeConfig(
        socket_path=args.socket,
        state_dir=args.state_dir,
        workers=args.workers,
        max_queued=args.max_queued,
        tenant_quota=args.tenant_quota,
        max_datasets=args.max_datasets,
    ))

    def _stop(signum, frame):
        server.shutdown(drain=False)

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    server.start()
    if server.recovered_jobs:
        print(
            f"recovered {len(server.recovered_jobs)} pending job(s): "
            + ", ".join(server.recovered_jobs),
            flush=True,
        )
    print(
        f"gsnp-serve: listening on {args.socket} "
        f"({args.workers} worker(s), state in {args.state_dir})",
        flush=True,
    )
    server.serve_forever()
    print("gsnp-serve: bye")
    return 0


def main_submit(argv=None) -> int:
    """Submit a calling job to a running gsnp-serve daemon."""
    p = argparse.ArgumentParser(
        prog="gsnp-submit", description=main_submit.__doc__
    )
    p.add_argument(
        "--socket", default="gsnp-serve.sock",
        help="Unix socket of the daemon",
    )
    p.add_argument("--tenant", default="default", help="tenant id for quotas")
    p.add_argument(
        "--priority", type=int, default=0,
        help="scheduling priority (higher runs first)",
    )
    p.add_argument(
        "--no-wait", dest="wait", action="store_false",
        help="return right after admission instead of streaming the job",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print the daemon's scheduler/cache counters and exit",
    )
    p.add_argument("--ping", action="store_true", help="liveness probe")
    p.add_argument(
        "--shutdown", action="store_true",
        help="ask the daemon to drain live jobs and stop",
    )
    JobSpec.add_cli_args(p)
    args = p.parse_args(argv)

    import json

    from .serve.client import ServeClient
    from .serve.protocol import ProtocolError

    client = ServeClient(args.socket)
    try:
        if args.ping:
            print(json.dumps(client.ping(), sort_keys=True))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            client.shutdown(drain=True)
            print("gsnp-submit: daemon stopping")
            return 0
        try:
            spec = JobSpec.from_cli_args(args).validate(require_inputs=True)
        except ValueError as exc:
            p.error(str(exc))
        result = client.submit(
            spec, tenant=args.tenant, priority=args.priority, wait=args.wait
        )
    except (OSError, ProtocolError) as exc:
        print(f"gsnp-submit: {exc}", file=sys.stderr)
        return 1
    if result.status == "rejected":
        print(
            f"gsnp-submit: rejected ({result.code}): {result.error}",
            file=sys.stderr,
        )
        return 1
    if result.status == "accepted":
        print(f"accepted: {result.job_id}")
        return 0
    if result.status != "done":
        print(
            f"gsnp-submit: job {result.job_id} failed: {result.error}",
            file=sys.stderr,
        )
        return 1
    if result.output is not None:
        # Inline job: the result bytes stream to stdout, summary to stderr.
        sys.stdout.buffer.write(result.output)
        sys.stdout.buffer.flush()
        print(result.summary, file=sys.stderr)
    else:
        print(f"{result.summary} -> {spec.output}")
    return 0


def main_decompress(argv=None) -> int:
    """Decompress a GSNP result file back to SOAPsnp text."""
    p = argparse.ArgumentParser(
        prog="gsnp-decompress", description=main_decompress.__doc__
    )
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None, help="default: stdout")
    p.add_argument("--snps-only", action="store_true")
    p.add_argument(
        "--range",
        default=None,
        help="1-based position range LO:HI (half-open)",
    )
    args = p.parse_args(argv)

    reader = CompressedResultReader(args.input)
    if args.range:
        lo, hi = (int(x) for x in args.range.split(":"))
        table = reader.query_range(lo, hi)
    elif args.snps_only:
        table = reader.query_snps()
    else:
        table = reader.read_all()
    if args.output:
        nbytes = write_cns(args.output, table)
        print(f"wrote {table.n_sites} rows ({nbytes} bytes) to {args.output}")
    else:
        from .formats.cns import format_rows

        sys.stdout.write(format_rows(table).decode())
    return 0


def main_bench(argv=None) -> int:
    """Regenerate the paper's tables/figures as CSV files."""
    p = argparse.ArgumentParser(
        prog="gsnp-bench", description=main_bench.__doc__
    )
    p.add_argument("-o", "--out-dir", default="results")
    p.add_argument(
        "--fraction", type=float, default=None,
        help="dataset shrink factor (default: harness defaults)",
    )
    p.add_argument(
        "--only", default=None,
        help="comma-separated experiment ids (e.g. table1,fig5)",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="run the parallel-scaling benchmark on a tiny dataset and "
        "exit non-zero if any worker count breaks serial parity",
    )
    p.add_argument(
        "--e2e",
        action="store_true",
        help="measure end-to-end sites/sec with the throughput engine off "
        "vs on vs fused, sweep the multi-device pool over 1/2/4 devices "
        "with and without the CPU steal lane, sweep cohort sizes (see "
        "--samples), write BENCH_e2e.json, BENCH_multidev.json and "
        "BENCH_cohort.json to the output dir, and exit non-zero if any "
        "arm's results differ, fusion does not reduce kernel launches, "
        "multi-device throughput regresses below 1 device, or cohort "
        "batching fails its per-sample speedup / bounded-launch gates",
    )
    p.add_argument(
        "--samples", type=int, nargs="+", default=(1, 2, 4),
        metavar="S",
        help="cohort sizes for the --e2e cohort sweep (an S=1 baseline "
        "arm is always included; default: 1 2 4)",
    )
    args = p.parse_args(argv)

    if args.e2e:
        import json
        import os

        from .bench.harness import (
            exp_cohort,
            exp_e2e_throughput,
            exp_multidevice,
        )

        row = exp_e2e_throughput("ch1-sim", fraction=args.fraction)
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "BENCH_e2e.json")
        with open(path, "w") as f:
            json.dump(row, f, indent=2, sort_keys=True)
            f.write("\n")
        print(
            f"{row['dataset']}: {row['n_windows']} windows, baseline "
            f"{row['baseline']['sites_per_sec']:.0f} sites/s -> optimized "
            f"{row['optimized']['sites_per_sec']:.0f} sites/s "
            f"({row['speedup']:.2f}x) -> fused "
            f"{row['fused']['sites_per_sec']:.0f} sites/s "
            f"({row['speedup_fused']:.2f}x, "
            f"{row['speedup_fused_vs_optimized']:.2f}x over optimized), "
            f"consistent={'yes' if row['consistent'] else 'NO'}"
        )
        print(
            f"kernel launches: {row['optimized']['launches']} unfused -> "
            f"{row['fused']['launches']} fused "
            f"({row['launch_reduction']:.1f}x fewer)"
        )
        print(f"wrote {path}")
        launches_down = (
            row["fused"]["launches"] < row["optimized"]["launches"]
        )

        multi = exp_multidevice("ch1-sim", fraction=args.fraction)
        mpath = os.path.join(args.out_dir, "BENCH_multidev.json")
        with open(mpath, "w") as f:
            json.dump(multi, f, indent=2, sort_keys=True)
            f.write("\n")
        for arm in multi["arms"]:
            lane = f"{arm['devices']}dev" + (
                "+cpu" if arm["cpu_steal"] else ""
            ) + (f" [{arm['imbalance']}]" if arm["imbalance"] else "")
            print(
                f"{lane}: modeled={arm['modeled_seconds'] * 1e3:.2f}ms "
                f"({arm['speedup_vs_1dev']:.2f}x) "
                f"launches={arm['launches']} "
                f"transfers={arm['h2d_count'] + arm['d2h_count']} "
                f"steals={arm['steals']} "
                f"consistent={'yes' if arm['consistent'] else 'NO'}"
            )
        print(
            f"multi-device: {multi['max_devices']} devices "
            f"{multi['speedup_max_devices']:.2f}x over 1 device, "
            f"{multi['hetero_steals']} steals, "
            f"consistent={'yes' if multi['consistent'] else 'NO'}"
        )
        print(f"wrote {mpath}")
        multi_ok = (
            multi["consistent"] and multi["speedup_max_devices"] >= 1.0
        )

        cohort = exp_cohort(
            "ch1-sim", fraction=args.fraction,
            samples=tuple(args.samples),
        )
        cpath = os.path.join(args.out_dir, "BENCH_cohort.json")
        with open(cpath, "w") as f:
            json.dump(cohort, f, indent=2, sort_keys=True)
            f.write("\n")
        for arm in cohort["arms"]:
            print(
                f"S={arm['samples']}: per-sample "
                f"{arm['per_sample_sites_per_sec']:.0f} sites/s "
                f"({arm['speedup_per_sample']:.2f}x vs S=1) "
                f"launches={arm['launches']} "
                f"stage-ratio={arm['launch_stage_ratio_max']:.2f} "
                f"consistent={'yes' if arm['consistent'] else 'NO'}"
            )
        print(
            f"cohort: S={cohort['max_samples']} "
            f"{cohort['speedup_max_samples']:.2f}x per-sample over S=1, "
            f"stage launch ratio {cohort['launch_stage_ratio_max']:.2f} "
            f"(bound met: {'yes' if cohort['launches_stage_bounded'] else 'NO'}), "
            f"consistent={'yes' if cohort['consistent'] else 'NO'}"
        )
        print(f"wrote {cpath}")
        # The per-sample speedup gate only binds once there is real
        # batching to amortize (S >= 2 in the sweep).
        cohort_ok = cohort["consistent"] and cohort["launches_stage_bounded"]
        if cohort["max_samples"] >= 2:
            cohort_ok = cohort_ok and cohort["speedup_max_samples"] >= 1.5

        return 0 if (
            row["consistent"] and launches_down and multi_ok and cohort_ok
        ) else 1

    if args.smoke:
        from .bench.harness import exp_parallel_scaling

        rows = exp_parallel_scaling(
            "ch21-sim", fraction=0.1, workers=(1, 2, 4)
        )
        ok = True
        for w, row in rows.items():
            ok = ok and row["consistent"]
            print(
                f"workers={w}: wall={row['wall']:.3f}s "
                f"speedup={row['speedup']:.2f}x shards={row['shards']} "
                f"pool={row['pool']} "
                f"consistent={'yes' if row['consistent'] else 'NO'}"
            )
        print("parity:", "OK" if ok else "FAILED")
        return 0 if ok else 1

    from .bench.export import export_all

    kwargs = {}
    if args.only:
        kwargs["include"] = tuple(args.only.split(","))
    written = export_all(args.out_dir, fraction=args.fraction, **kwargs)
    for path in written:
        print(f"wrote {path}")
    return 0


def main_verify(argv=None) -> int:
    """Run the cross-engine consistency audit on a simulated dataset."""
    p = argparse.ArgumentParser(
        prog="gsnp-verify", description=main_verify.__doc__
    )
    p.add_argument("--sites", type=int, default=10_000)
    p.add_argument("--depth", type=float, default=10.0)
    p.add_argument("--coverage", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--windows", default="1000,4096",
        help="comma-separated window sizes to check invariance over",
    )
    args = p.parse_args(argv)

    from .validate import verify_engines

    ds = generate_dataset(
        DatasetSpec(
            name="chrVerify", n_sites=args.sites, depth=args.depth,
            coverage=args.coverage, seed=args.seed,
        )
    )
    windows = tuple(int(w) for w in args.windows.split(","))
    report = verify_engines(ds, window_sizes=windows)
    print(report.summary())
    return 0 if report.passed else 1


def main_chaos(argv=None) -> int:
    """Run the pipeline under a deterministic fault schedule and assert
    bitwise output parity (crash + truncated record + allocation failure,
    then kill-mid-stream + resume, then the quarantine rung)."""
    p = argparse.ArgumentParser(
        prog="gsnp-chaos", description=main_chaos.__doc__
    )
    p.add_argument(
        "--seeds", default="0",
        help="comma-separated fault-schedule seeds (one full cycle each)",
    )
    p.add_argument("--engine", choices=engine_names(), default="gsnp")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument(
        "--timeout-demo",
        action="store_true",
        help="also inject a stalled shard and recover it via "
        "--shard-timeout deadline enforcement",
    )
    p.add_argument(
        "--keep-dir", default=None,
        help="run in this directory and keep the artifacts (default: "
        "a temporary directory, removed afterwards)",
    )
    args = p.parse_args(argv)

    from .faults.chaos import format_report, run_chaos

    ok = True
    for seed in (int(s) for s in args.seeds.split(",")):
        report = run_chaos(
            seed,
            engine=args.engine,
            workers=args.workers,
            timeout_demo=args.timeout_demo,
            keep_dir=args.keep_dir,
        )
        print(format_report(report))
        ok = ok and report["ok"]
    print("chaos:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def _add_analyzer_args(p: argparse.ArgumentParser) -> None:
    """Arguments shared by gsnp-lint and gsnp-audit."""
    p.add_argument(
        "paths", nargs="+", help="python files or directories to check"
    )
    p.add_argument(
        "--select", default=None,
        help="comma-separated rule ids/names to check (default: all)",
    )
    p.add_argument(
        "--ignore", default=None,
        help="comma-separated rule ids/names to skip",
    )
    p.add_argument(
        "--format", default="text", choices=("text", "json", "github"),
        dest="fmt",
        help="output format: text (default), json, or github "
        "(per-line CI annotations)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule table"
    )


def main_lint(argv=None) -> int:
    """Statically check kernel code for SIMT-discipline violations."""
    p = argparse.ArgumentParser(
        prog="gsnp-lint", description=main_lint.__doc__
    )
    _add_analyzer_args(p)
    p.add_argument(
        "--require-rationale", action="store_true",
        help="fire GSNP109 on suppression comments with no nearby "
        "rationale comment",
    )
    args = p.parse_args(argv)

    from .analyze import RULES, lint_paths
    from .analyze.report import render_diagnostics

    if args.list_rules:
        for rid, rname in RULES.items():
            print(f"{rid}  {rname}")
        return 0
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        diags = lint_paths(
            args.paths, select=select, ignore=ignore,
            require_rationale=args.require_rationale,
        )
    except ValueError as exc:
        p.error(str(exc))
    out = render_diagnostics(diags, args.fmt, tool="gsnp-lint")
    if out:
        print(out)
    if diags:
        print(f"{len(diags)} problem(s) found", file=sys.stderr)
    return 1 if diags else 0


def main_audit(argv=None) -> int:
    """Prove coalescing, race-freedom and barrier discipline statically.

    Extracts a per-kernel IR, classifies every routed memory op on the
    affine-in-tid lattice (GSNP201 notes), and reports provable races
    (GSNP202), static uninit reads (GSNP203), missing-barrier hazards
    (GSNP204) and unprovable indices (GSNP205).  ``--calibrate`` replays
    tier-1 kernels under the simulator and cross-checks every proven
    coalescing verdict against the runtime transaction counters.
    """
    p = argparse.ArgumentParser(
        prog="gsnp-audit", description=main_audit.__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_analyzer_args(p)
    p.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print per-op GSNP201 verdict notes (text format)",
    )
    p.add_argument(
        "--calibrate", action="store_true",
        help="replay tier-1 kernels and assert runtime transaction "
        "counters agree with every proven coalescing verdict",
    )
    p.add_argument(
        "--calibrate-sites", type=int, default=1500,
        help="dataset size for the calibration replay (default 1500)",
    )
    args = p.parse_args(argv)

    from .analyze import RULES
    from .analyze.dataflow import audit_paths
    from .analyze.report import render_diagnostics

    if args.list_rules:
        for rid, rname in RULES.items():
            if rid.startswith("GSNP2") or rid == "GSNP100":
                print(f"{rid}  {rname}")
        return 0
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        mods = audit_paths(args.paths, select=select, ignore=ignore)
    except ValueError as exc:
        p.error(str(exc))

    diags = [d for m in mods for d in m.diagnostics]
    errors = [d for d in diags if d.severity == "error"]
    verdicts = [v for m in mods for v in m.verdicts]
    counts: dict[str, int] = {}
    for v in verdicts:
        counts[v.verdict] = counts.get(v.verdict, 0) + 1
    kernels = sum(len(m.kernels) for m in mods)

    calibration = None
    if args.calibrate:
        from .analyze.calibrate import run_calibration

        calibration = run_calibration(
            args.paths, n_sites=args.calibrate_sites
        )

    shown = diags if (args.verbose or args.fmt != "text") else errors
    extra: dict[str, object] = {
        "kernels": kernels,
        "verdicts": counts,
        "ops": [v.to_dict() for v in verdicts],
    }
    if calibration is not None:
        extra["calibration"] = calibration.to_dict()
    out = render_diagnostics(shown, args.fmt, tool="gsnp-audit", extra=extra)
    if out:
        print(out)
    if args.fmt == "text":
        summary = ", ".join(
            f"{counts.get(k, 0)} {k}"
            for k in ("coalesced", "strided", "gather", "unproven")
        )
        print(
            f"audited {kernels} kernel(s), {len(verdicts)} memory op(s): "
            f"{summary}",
            file=sys.stderr,
        )
        if calibration is not None:
            print(calibration.summary(), file=sys.stderr)
    if errors:
        print(f"{len(errors)} problem(s) found", file=sys.stderr)
    ok = not errors and (calibration is None or calibration.ok)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_call())
