"""Golden accounting of every run shape the pipeline's stage chain serves.

Pins, for the per-window GPU, CPU, fused, fused-cohort, unfused-cohort
(GPU and CPU) and Table IV-shaped runs: every phase record (each counter
field, CPU and disk event, transfer bytes, fixed seconds — never wall
time), the ``fusion`` stage summary, the per-sample sort statistics and
the SHA-256 of each sample's compressed output.  A change to how the
pipeline is organised must leave all of it untouched.

Regenerate the golden file only for a deliberate accounting change::

    PYTHONPATH=src python tests/test_stage_chain_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.harness import cohort_batches
from repro.core.cohort import pooled_batch
from repro.core.pipeline import GsnpPipeline
from repro.seqsim.datasets import DatasetSpec, generate_dataset

GOLDEN = Path(__file__).with_name("golden") / "stage_chain.json"
WINDOW = 256


def _dataset():
    return generate_dataset(DatasetSpec(
        name="golden-t", n_sites=1600, depth=6.0, coverage=0.92,
        read_len=40, seed=31,
    ))


def _record(rec) -> dict:
    return {
        "cpu": dataclasses.asdict(rec.cpu),
        "disk": dataclasses.asdict(rec.disk),
        "gpu": {
            k: v for k, v in dataclasses.asdict(rec.gpu).items()
            if k != "name"
        },
        "transfer_bytes": rec.transfer_bytes,
        "fixed_seconds": rec.fixed_seconds,
    }


def _sort_stats(stats) -> list:
    return [
        [s.strategy, s.passes, s.real_elements, s.padded_elements,
         s.compare_exchanges]
        for s in stats
    ]


def _snapshot(res, samples) -> dict:
    return {
        "records": {
            name: _record(rec) for name, rec in res.profile.records.items()
        },
        "fusion": res.extras.get("fusion"),
        "sort_stats": [_sort_stats(s.sort_stats) for s in samples],
        "sha256": [
            hashlib.sha256(s.compressed_output).hexdigest() for s in samples
        ],
    }


def _solo(ds, **kw):
    pipe = GsnpPipeline(window_size=kw.pop("window", WINDOW), **kw)
    res = pipe.run(ds)
    pipe.release_cache()
    return _snapshot(res, [res])


def _cohort(ds, n_samples, **kw):
    batches = cohort_batches(ds, n_samples)
    pipe = GsnpPipeline(window_size=WINDOW, **kw)
    res = pipe.run_cohort(ds, batches)
    pipe.release_cache()
    return _snapshot(res, res.samples)


RUNS = {
    "per-window-gpu": lambda ds: _solo(ds, prefetch=False),
    "cpu": lambda ds: _solo(ds, mode="cpu"),
    "fused": lambda ds: _solo(ds, fusion=True, megabatch=3),
    "fused-cohort-4": lambda ds: _cohort(ds, 4, fusion=True, megabatch=3),
    "cohort-2-gpu": lambda ds: _cohort(ds, 2),
    "cohort-2-cpu": lambda ds: _cohort(ds, 2, mode="cpu", prefetch=False),
    # Table IV: the whole dataset as one window, default toggles.
    "table4": lambda ds: _solo(ds, window=ds.n_sites),
}


def _normalise(obj):
    """JSON round trip, so live values compare like the stored ones."""
    return json.loads(json.dumps(obj))


@pytest.fixture(scope="module")
def ds():
    return _dataset()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stage_chain_matches_golden(ds, golden, name):
    live = _normalise(RUNS[name](ds))
    want = golden[name]
    assert live["sha256"] == want["sha256"]
    assert live["sort_stats"] == want["sort_stats"]
    assert live["fusion"] == want["fusion"]
    assert list(live["records"]) == list(want["records"])
    for phase, rec in want["records"].items():
        assert live["records"][phase] == rec, phase


def test_cohort_pooled_calibration_matches_shared(ds):
    # The cohort runs above calibrate inline on the pooled reads; a
    # caller-supplied pooled calibration must give the same bytes.
    batches = cohort_batches(ds, 2)
    pipe = GsnpPipeline(window_size=WINDOW, fusion=True)
    cal = pipe.calibrate(ds, reads=pooled_batch(batches))
    res = pipe.run_cohort(ds, batches, calibration=cal)
    pipe.release_cache()
    inline = GsnpPipeline(window_size=WINDOW, fusion=True)
    ref = inline.run_cohort(ds, batches)
    inline.release_cache()
    assert [s.compressed_output for s in res.samples] == [
        s.compressed_output for s in ref.samples
    ]
    assert "cal_p_matrix" not in res.profile.records


if __name__ == "__main__":
    data = _dataset()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({k: RUNS[k](data) for k in sorted(RUNS)}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
