"""Sharded parallel executor: planning, parity, retries, fallback.

The load-bearing guarantee (ISSUE acceptance): at any worker count, the
sharded executor's calls, compressed output and merged event counters are
identical to a serial run's — for all three engines.
"""

import concurrent.futures as cf
import os

import pytest

from repro.align.records import AlignmentBatch
from repro.api import Engine, create_pipeline
from repro.core.detector import GsnpDetector
from repro.errors import PipelineError, ShardError
from repro.exec import (
    ExecConfig,
    PoolBroken,
    ProcessPool,
    SerialPool,
    align_shard_size,
    execute,
    plan_shards,
)
from repro.formats.soap import write_soap

WINDOW = 512
ENGINES = ("gsnp", "gsnp_cpu", "soapsnp")


def _counters(profile):
    """Event counters of a profile, excluding measured wall seconds."""
    out = {}
    for name, rec in profile.records.items():
        gpu = rec.gpu.as_dict() if hasattr(rec.gpu, "as_dict") else vars(rec.gpu)
        out[name] = {
            "cpu": dict(vars(rec.cpu)),
            "disk": dict(vars(rec.disk)),
            "gpu": dict(gpu),
            "transfer_bytes": rec.transfer_bytes,
            "fixed_seconds": rec.fixed_seconds,
        }
    return out


def _crash_worker(_):
    os._exit(1)


def _square(x):
    return x * x


def _serial(engine, dataset, output_path=None):
    pipe = create_pipeline(engine, window_size=WINDOW)
    return pipe.run(dataset, output_path=output_path)


class TestPlanShards:
    def test_tiles_site_range(self):
        shards = plan_shards(10_000, 512, shard_size=2000, workers=2)
        assert shards[0].start == 0
        assert shards[-1].end == 10_000
        for prev, cur in zip(shards, shards[1:]):
            assert cur.start == prev.end
            assert cur.index == prev.index + 1

    def test_boundaries_window_aligned(self):
        shards = plan_shards(10_000, 512, shard_size=1000, workers=2)
        for s in shards[:-1]:
            assert s.start % 512 == 0 and s.end % 512 == 0

    def test_default_size_scales_with_workers(self):
        few = plan_shards(100_000, 512, workers=1)
        many = plan_shards(100_000, 512, workers=4)
        assert len(many) > len(few)
        assert len(few) >= 4  # ~4 shards per worker for load balancing

    def test_align_shard_size(self):
        assert align_shard_size(1000, 512) == 1024
        assert align_shard_size(512, 512) == 512
        with pytest.raises(PipelineError):
            align_shard_size(0, 512)

    def test_empty_range_rejected(self):
        with pytest.raises(PipelineError):
            plan_shards(0, 512)


class TestParity:
    """Bitwise identity with serial, all engines, 2 and 4 workers."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_bitwise_identical(
        self, engine, workers, small_dataset, tmp_path
    ):
        serial_path = tmp_path / "serial.out"
        par_path = tmp_path / "par.out"
        serial = _serial(engine, small_dataset, output_path=serial_path)
        par = execute(
            small_dataset,
            engine,
            window_size=WINDOW,
            output_path=par_path,
            workers=workers,
        )
        assert par.table.equals(serial.table)
        assert getattr(par, "compressed_output", b"") == getattr(
            serial, "compressed_output", b""
        )
        assert par_path.read_bytes() == serial_path.read_bytes()
        assert par.output_bytes == serial.output_bytes
        assert _counters(par.profile) == _counters(serial.profile)

    def test_compressed_roundtrip(self, small_dataset, tmp_path):
        from repro.compress.reader import CompressedResultReader

        path = tmp_path / "calls.gsnp"
        par = execute(
            small_dataset, "gsnp", window_size=WINDOW,
            output_path=path, workers=2,
        )
        table = CompressedResultReader(path).read_all()
        assert table.equals(par.table)

    def test_streaming_soap_input(self, small_dataset, tmp_path):
        """ShardBatchReader-fed workers match the in-memory path."""
        soap = tmp_path / "reads.soap"
        write_soap(soap, AlignmentBatch.from_read_set(small_dataset.reads))
        serial = _serial("gsnp", small_dataset)
        par = execute(
            small_dataset, "gsnp", window_size=WINDOW,
            soap_path=soap, workers=2,
        )
        assert par.extras["exec"]["streaming"]
        assert par.table.equals(serial.table)
        assert par.compressed_output == serial.compressed_output
        assert _counters(par.profile) == _counters(serial.profile)

    def test_serial_fallback_identical(self, small_dataset):
        serial = _serial("gsnp_cpu", small_dataset)
        par = execute(
            small_dataset, "gsnp_cpu", window_size=WINDOW,
            workers=4, force_serial=True,
        )
        assert par.extras["exec"]["pool"] == "serial"
        assert par.table.equals(serial.table)
        assert _counters(par.profile) == _counters(serial.profile)

    def test_engine_enum_accepted(self, small_dataset):
        par = execute(
            small_dataset, Engine.GSNP_CPU, window_size=WINDOW, workers=2
        )
        assert par.table.equals(_serial("gsnp_cpu", small_dataset).table)

    def test_detector_workers_path(self, small_dataset):
        serial = GsnpDetector(
            engine="gsnp", window_size=WINDOW
        ).run(small_dataset)
        par = GsnpDetector(
            engine="gsnp", window_size=WINDOW, workers=2
        ).run(small_dataset)
        assert par.table.equals(serial.table)
        assert par.compressed_output == serial.compressed_output
        assert "exec" in par.extras

    def test_shard_metrics_reported(self, small_dataset):
        par = execute(
            small_dataset, "gsnp_cpu", window_size=WINDOW,
            workers=2, shard_size=1024,
        )
        shards = par.extras["shards"]
        assert len(shards) == 4  # 4000 sites / 1024-aligned shards
        assert [s["index"] for s in shards] == [0, 1, 2, 3]
        assert all(s["wall"] > 0 for s in shards)
        assert all(s["sites_per_second"] > 0 for s in shards)
        meta = par.extras["exec"]
        assert meta["workers"] == 2
        assert meta["n_shards"] == 4
        assert meta["wall"] > 0


class TestRetries:
    def test_injected_failure_retried(self, small_dataset):
        serial = _serial("gsnp_cpu", small_dataset)
        par = execute(
            small_dataset, "gsnp_cpu", window_size=WINDOW,
            workers=2, shard_size=1024,
            config=ExecConfig(inject_failures={1: 1}),
        )
        assert par.table.equals(serial.table)
        assert _counters(par.profile) == _counters(serial.profile)
        attempts = {
            s["index"]: s["attempts"] for s in par.extras["shards"]
        }
        assert attempts[1] == 2  # failed once, succeeded on retry
        assert attempts[0] == 1
        assert par.extras["exec"]["retries"] == 1

    def test_exhausted_retries_surface_shard_context(self, small_dataset):
        with pytest.raises(ShardError) as err:
            execute(
                small_dataset, "gsnp_cpu", window_size=WINDOW,
                workers=2, shard_size=1024, max_retries=1,
                inject_failures={2: 10},
            )
        assert err.value.shard_index == 2
        assert err.value.site_range == (2048, 3072)
        assert err.value.attempts == 2
        assert "shard 2" in str(err.value)

    def test_retry_in_serial_pool(self, small_dataset):
        par = execute(
            small_dataset, "gsnp_cpu", window_size=WINDOW,
            workers=1, shard_size=1024, inject_failures={0: 2},
        )
        serial = _serial("gsnp_cpu", small_dataset)
        assert par.table.equals(serial.table)
        attempts = {
            s["index"]: s["attempts"] for s in par.extras["shards"]
        }
        assert attempts[0] == 3


class TestPools:
    def test_serial_pool_interface(self):
        ran = []
        pool = SerialPool(initializer=lambda v: ran.append(v), initargs=(7,))
        assert ran == [7]
        h = pool.submit(lambda x: x * 2, 21)
        assert pool.wait_any([h]) == [h]
        assert h.outcome() == ("ok", 42)
        h2 = pool.submit(lambda x: 1 / x, 0)
        kind, exc = h2.outcome()
        assert kind == "err" and isinstance(exc, ZeroDivisionError)
        pool.shutdown()

    def test_submit_after_worker_death_recovers_once(self):
        # A retry submitted after a worker died, but before its handle was
        # waited on, lands on a fresh pool; recovering the dead handle
        # afterwards must not rebuild (and cancel) that pool again.
        pool = ProcessPool(2)
        try:
            dead = pool.submit(_crash_worker, None)
            cf.wait([dead.future], timeout=60)
            late = pool.submit(_square, 3)
            with pytest.raises(PoolBroken):
                dead.outcome()
            pool.recover(dead)
            assert late.outcome() == ("ok", 9)
        finally:
            pool.shutdown()


@pytest.mark.tier2
class TestScaling:
    def test_parallel_scaling_consistent(self):
        from repro.bench.harness import exp_parallel_scaling

        rows = exp_parallel_scaling(
            "ch21-sim", fraction=0.2, workers=(1, 2, 4, 8)
        )
        assert all(r["consistent"] for r in rows.values())
        assert all(r["wall"] > 0 for r in rows.values())
