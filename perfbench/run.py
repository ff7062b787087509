"""GSNP benchmark entry point.

    python3 perfbench/run.py --workload {solo-windows,cohort-pool,serve-mix}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Inputs are generated from ``--seed``;
the program only ever sees the generated files.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  A wrong output byte makes
``correct`` false and the exit code 1.  See ``NOTES.md`` for why each
workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import sys

import common

WORKLOADS = ("solo-windows", "cohort-pool", "serve-mix")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not common.have_program():
        print(
            f"perfbench: no program to measure ({common.SRC / 'repro'} is "
            "missing); run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2

    work = common.make_workdir(args.workload, args.seed)
    try:
        if args.workload == "serve-mix":
            import serve_mix

            outcome = serve_mix.run(args.seed, args.seconds, bool(args.trace), work)
        else:
            import batch

            outcome = batch.run(
                args.workload, args.seed, args.seconds, bool(args.trace), work
            )
    finally:
        common.remove_workdir(work)
    correct, attempted, failed, metrics = outcome
    if args.trace:
        metrics["bench.error_rate"] = common.metric(
            common.ratio(failed, attempted), "ratio"
        )
    print(common.result_line(correct, attempted, failed, metrics), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
