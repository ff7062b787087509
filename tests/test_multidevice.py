"""Multi-device pool + heterogeneous work-stealing scheduler tests.

The contract under test: for any device count, any steal schedule, any
worker count, fusion on or off, sanitizer on or off, and any seeded
device failure, the merged output is bitwise identical to the serial
single-device run — the scheduler only ever changes *where* a shard
runs, never what it produces.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JobSpec, create_pipeline
from repro.errors import DeviceError
from repro.exec import execute, pool_stats
from repro.exec.hetero import _Lane, _steal_count
from repro.faults.degrade import DegradationWarning
from repro.faults.plan import FaultPlan, FaultSpec
from repro.gpusim.costmodel import (
    LaneUsage,
    PoolCostModel,
    predict_lane_rates,
    predict_split,
)
from repro.gpusim.pool import DevicePool, HostLink, acquire_device
from repro.gpusim.spec import HostLinkSpec
from repro.seqsim.datasets import DatasetSpec, generate_dataset

WINDOW = 800


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(DatasetSpec(
        name="multidev", n_sites=12_000, depth=6.0, coverage=0.95, seed=11,
    ))


@pytest.fixture(scope="module")
def serial(dataset):
    """The single-device serial oracle every pool run must match."""
    return create_pipeline(
        spec=JobSpec(engine="gsnp", window=WINDOW)
    ).run(dataset)


def _run(dataset, **kw):
    return execute(dataset, spec=JobSpec(engine="gsnp", window=WINDOW, **kw))


def _assert_parity(res, serial):
    assert res.table.equals(serial.table)
    assert res.compressed_output == serial.compressed_output


class TestParityMatrix:
    """devices x workers x fusion x steal, all bitwise identical."""

    @pytest.mark.parametrize("devices,cpu_steal,fusion,workers", [
        (2, False, False, 1),
        (2, False, True, 1),
        (2, True, False, 1),
        (2, True, True, 3),
        (4, False, True, 1),
        (4, True, False, 2),
    ])
    def test_pool_matches_serial(
        self, dataset, serial, devices, cpu_steal, fusion, workers
    ):
        res = _run(
            dataset, devices=devices, cpu_steal=cpu_steal,
            fusion=fusion, workers=workers,
        )
        _assert_parity(res, serial)
        h = res.extras["exec"]["hetero"]
        assert h["devices"] == devices
        assert h["cpu_steal"] is cpu_steal
        assert sum(h["initial_split"]) == res.extras["exec"]["n_shards"]
        assert len(h["per_device"]) == devices

    def test_sanitizer_on(self, dataset, serial):
        res = _run(dataset, devices=2, cpu_steal=True, sanitize=True)
        _assert_parity(res, serial)

    @pytest.mark.parametrize("devices", [1, 2])
    def test_cpu_lane_never_lengthens_makespan(self, dataset, devices):
        """Over one shared shard plan, adding the host lane never raises
        the modeled makespan: it takes only shards it finishes sooner.
        With 2,000-site windows a shard costs the host lane about 3.5x
        what it costs a device, so any steal it made would lengthen the
        makespan."""
        from dataclasses import replace

        from repro.align.records import AlignmentBatch
        from repro.exec import (
            ExecConfig, merge_shard_results, plan_shards, run_hetero,
        )

        window = 2000
        base = JobSpec(engine="gsnp", window=window)
        pipe = create_pipeline(spec=base)
        oracle = pipe.run(dataset)
        calibration = pipe.calibrate(
            dataset, reads=AlignmentBatch.from_read_set(dataset.reads)
        )
        pipe.release_cache()
        shards = plan_shards(dataset.n_sites, window, None, 3)
        makespan = {}
        for steal in (False, True):
            spec = replace(
                base, devices=devices, cpu_steal=steal,
                variant=base.resolved_variant(),
            )
            results, h = run_hetero(
                dataset, spec, None, calibration.strip(), list(shards),
                ExecConfig.from_spec(spec),
            )
            _assert_parity(merge_shard_results(results, calibration), oracle)
            makespan[steal] = h["modeled"]["makespan_seconds"]
        assert makespan[True] <= makespan[False]

    def test_meta_accounting(self, dataset, serial):
        res = _run(dataset, devices=2, fusion=True)
        h = res.extras["exec"]["hetero"]
        assert h["pool_launches"] > 0
        assert h["link"]["h2d_bytes"] > 0
        assert h["link"]["serialized_seconds"] > 0
        assert h["modeled"]["makespan_seconds"] > 0
        assert len(h["lanes"]) == 2
        assert sum(l["shards"] for l in h["lanes"]) \
            == res.extras["exec"]["n_shards"]
        stats = pool_stats()
        assert stats["jobs"] >= 1
        assert stats["last"]["devices"] == 2


def _lane(cost=1.0, shards=0, backlog=0, dead=False):
    """A hand-set scheduler lane: ``shards`` shards already run at
    ``cost`` modeled seconds each (so its clock is ``shards * cost``;
    with none run, ``cost`` is its roofline prediction) and ``backlog``
    shards queued."""
    lane = _Lane(
        lane_id=0, kind="gpu", dead=dead, predicted_cost=cost,
        shards_run=shards, modeled_seconds=shards * cost,
    )
    lane.deque.extend((None, 0) for _ in range(backlog))
    return lane


class TestStealRule:
    """``_steal_count`` on hand-set modeled lane clocks."""

    def test_balancing_count(self):
        # Equal lanes, 8 queued: shard j finishes no later on the thief
        # while j <= 9 - j; the half-backlog cap stops at 4.
        assert _steal_count(_lane(), _lane(backlog=8)) == 4
        # A 2x slower thief balances at 2j <= 9 - j: 3 shards.
        assert _steal_count(_lane(cost=2.0), _lane(backlog=8)) == 3
        # A thief 5 s along its clock balances at 5 + j <= 9 - j: 2.
        assert _steal_count(_lane(shards=5), _lane(backlog=8)) == 2
        # ... and at 5 + j <= 2 + 9 - j once the victim is 2 s along: 3.
        assert _steal_count(
            _lane(shards=5), _lane(shards=2, backlog=8)
        ) == 3

    def test_zero_when_one_shard_outlasts_backlog(self):
        assert _steal_count(_lane(cost=10.0), _lane(backlog=3)) == 0
        # The unobserved host lane against an unobserved GPU backlog,
        # both priced from the roofline prediction.
        cpu, gpu = _lane(cost=75.0), _lane(cost=0.2, backlog=5)
        assert _steal_count(cpu, gpu) == 0

    def test_dead_victim_always_drains(self):
        slow = _lane(cost=10.0)
        for backlog, grab in [(1, 1), (2, 1), (3, 1), (8, 4)]:
            victim = _lane(backlog=backlog, dead=True)
            assert _steal_count(slow, victim) == grab

    @given(
        st.floats(0.01, 10.0), st.integers(1, 6),
        st.floats(0.01, 10.0), st.integers(0, 6),
        st.integers(1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_first_shard_is_the_single_steal_test(
        self, t_cost, t_shards, v_cost, v_shards, backlog
    ):
        """j = 1 is the observed-thief test: steal iff the thief would
        finish one shard before the victim drains its backlog."""
        thief = _lane(cost=t_cost, shards=t_shards)
        victim = _lane(cost=v_cost, shards=v_shards, backlog=backlog)
        c_thief = thief.modeled_seconds / thief.shards_run
        c_victim = (
            victim.modeled_seconds / victim.shards_run
            if victim.shards_run else victim.predicted_cost
        )
        single = (
            thief.modeled_seconds + c_thief
            <= victim.modeled_seconds + backlog * c_victim
        )
        assert (_steal_count(thief, victim) >= 1) == single


class TestDeviceFailure:
    """A lane dying mid-run degrades the ladder, never the bytes."""

    def test_one_device_dies(self, dataset, serial):
        plan = FaultPlan((FaultSpec(
            site="gpusim.device.fail", key=1, times=1, kind="alloc",
        ),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = _run(dataset, devices=2, cpu_steal=True, faults=plan)
        _assert_parity(res, serial)
        h = res.extras["exec"]["hetero"]
        dead = [l["lane"] for l in h["lanes"] if l["dead"]]
        assert dead == ["gpu1"]
        rungs = [
            w for w in caught if issubclass(w.category, DegradationWarning)
        ]
        assert any("device-failed" in str(w.message) for w in rungs)
        # Survivors absorbed the dead lane's deque.
        survivors = [l for l in h["lanes"] if not l["dead"]]
        assert sum(l["shards"] for l in survivors) \
            == res.extras["exec"]["n_shards"] - sum(
                l["shards"] for l in h["lanes"] if l["dead"]
            )

    def test_error_kind_also_retires(self, dataset, serial):
        plan = FaultPlan((FaultSpec(
            site="gpusim.device.fail", key=0, times=1, kind="error",
        ),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            res = _run(dataset, devices=2, faults=plan)
        _assert_parity(res, serial)
        assert [
            l["lane"]
            for l in res.extras["exec"]["hetero"]["lanes"] if l["dead"]
        ] == ["gpu0"]

    def test_all_devices_die_falls_back_to_host(self, dataset, serial):
        plan = FaultPlan(tuple(
            FaultSpec(site="gpusim.device.fail", key=k, times=1, kind="alloc")
            for k in (0, 1)
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = _run(dataset, devices=2, faults=plan)
        _assert_parity(res, serial)
        h = res.extras["exec"]["hetero"]
        assert all(l["dead"] for l in h["lanes"] if l["kind"] == "gpu")
        # The coordinator's fallback host lane ran every leftover shard.
        fallback = [l for l in h["lanes"] if l["kind"] == "cpu"]
        assert sum(l["shards"] for l in fallback) \
            == res.extras["exec"]["n_shards"]
        assert any(
            "host-engine" in str(w.message) for w in caught
            if issubclass(w.category, DegradationWarning)
        )

    def test_shard_retry_rung_still_merges(self, dataset, serial):
        plan = FaultPlan((FaultSpec(
            site="exec.shard.error", key=2, times=1,
        ),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = _run(dataset, devices=2, faults=plan)
        _assert_parity(res, serial)
        assert any(
            "shard-retry" in str(w.message) for w in caught
            if issubclass(w.category, DegradationWarning)
        )
        assert res.extras["exec"]["retries"] == 1


class TestResidencyKeying:
    """Two pool devices must never alias one table upload."""

    def _tables(self):
        pm = np.linspace(0.01, 1.0, 64 * 256 * 16)
        penalty = np.arange(256, dtype=np.int64)
        return pm, penalty

    def test_per_device_upload_and_key(self):
        from repro.core.likelihood import GsnpTables

        pool = DevicePool(2)
        pm, penalty = self._tables()
        d0, d1 = pool.device(0), pool.device(1)
        t0 = GsnpTables.load(d0, pm, penalty)
        t1 = GsnpTables.load(d1, pm, penalty)
        # Distinct uploads: each device moved its own copy over the link.
        assert d0.transfers.h2d_bytes > 0
        assert d1.transfers.h2d_bytes > 0
        assert t0.pm_dev is not t1.pm_dev
        # Same-device reload is a residency hit, cross-device never is.
        before = d0.transfers.h2d_bytes
        again = GsnpTables.load(d0, pm, penalty)
        assert again is t0
        assert d0.transfers.h2d_bytes == before
        # The resident keys embed the owning device's identity.
        summary = pool.resident_summary()
        for key, holders in summary.items():
            assert len(holders) == 1, (
                f"resident key {key!r} shared by devices {holders}"
            )
        pool.release()

    def test_acquire_device_standalone(self):
        dev = acquire_device(sanitize=True)
        assert dev.sanitizer is not None
        dev.sanitize_teardown(strict=True)


class TestCostModel:
    def test_predict_split_sums_and_orders(self):
        counts = predict_split(10, 4, False, 100.0, 1.0)
        assert sum(counts) == 10 and len(counts) == 4
        assert max(counts) - min(counts) <= 1
        counts = predict_split(9, 2, True, 100.0, 1.0)
        assert len(counts) == 3 and sum(counts) == 9
        # The slow CPU lane seeds empty; remainders go to GPU lanes.
        assert counts[-1] == 0

    def test_predict_split_validates(self):
        with pytest.raises(ValueError):
            predict_split(-1, 2, False, 1.0, 1.0)
        with pytest.raises(ValueError):
            predict_split(4, 0, False, 1.0, 1.0)
        with pytest.raises(ValueError):
            predict_split(4, 2, False, 0.0, 1.0)

    def test_predict_lane_rates_gpu_faster(self):
        gpu, cpu = predict_lane_rates(10_000, 10_000 * 10)
        assert gpu > cpu > 0

    def test_host_link_serializes(self):
        spec = HostLinkSpec(bandwidth=1e9, per_transfer_overhead=1e-6)
        link = HostLink(spec)
        link.charge(0, 500_000_000, "h2d")
        link.charge(1, 500_000_000, "d2h")
        link.note_launch(0)
        total = link.total()
        assert total.total_bytes == 1_000_000_000
        assert total.total_count == 2
        assert total.launches == 1
        assert link.serialized_seconds() == pytest.approx(1.0 + 2e-6)
        with pytest.raises(DeviceError):
            link.charge(0, 1, "sideways")

    def test_pool_makespan(self):
        model = PoolCostModel(HostLinkSpec(
            bandwidth=1e9, per_transfer_overhead=0.0,
        ))
        lanes = [
            LaneUsage(compute_seconds=2.0, transfer_bytes=10**9,
                      transfer_count=1),
            LaneUsage(compute_seconds=3.0, transfer_bytes=10**9,
                      transfer_count=1),
        ]
        # max(compute) + serialized link of both lanes' bytes.
        assert model.makespan(lanes) == pytest.approx(3.0 + 2.0)
        assert model.makespan([]) == 0.0


class TestSpecValidation:
    def test_devices_require_gsnp_engine(self, dataset):
        with pytest.raises(ValueError):
            JobSpec(engine="soapsnp", devices=2).validate()
        with pytest.raises(ValueError):
            JobSpec(engine="gsnp_cpu", cpu_steal=True).validate()

    def test_streaming_rejected(self, dataset, tmp_path):
        with pytest.raises(ValueError, match="soap_path"):
            execute(
                dataset,
                spec=JobSpec(engine="gsnp", window=WINDOW, devices=2),
                soap_path=str(tmp_path / "reads.soap"),
            )
