"""Counter accounting: conserved across phases, never priced at zero.

Every count the device book holds must land in exactly one phase record
(the per-phase deltas sum to the book's total, field by field), scaling
a record must scale every field (and keep an empty launch count empty),
and a phase whose counters are non-empty must cost modeled time even
when the work was charged inside another phase's launch.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.events import PhaseRecord
from repro.bench.harness import cohort_batches
from repro.core.cohort import pooled_batch
from repro.core.pipeline import GsnpPipeline
from repro.gpusim.costmodel import GpuCostModel
from repro.gpusim.counters import COUNT_FIELDS, KernelCounters
from repro.gpusim.pool import acquire_device
from repro.gpusim.spec import BGI_PLATFORM
from repro.seqsim.datasets import DatasetSpec, generate_dataset

counts = st.fixed_dictionaries(
    {f: st.integers(min_value=0, max_value=10**9) for f in COUNT_FIELDS}
)


def _counters(values: dict) -> KernelCounters:
    return KernelCounters(name="k", **values)


class TestFieldGeneric:
    def test_count_fields_cover_every_counter(self):
        assert "c_load" in COUNT_FIELDS
        assert "launches" in COUNT_FIELDS
        assert "name" not in COUNT_FIELDS and "num_sms" not in COUNT_FIELDS

    @given(a=counts, b=counts)
    @settings(max_examples=50, deadline=None)
    def test_since_is_a_per_field_difference(self, a, b):
        after = _counters({f: a[f] + b[f] for f in COUNT_FIELDS})
        delta = after.since(_counters(b))
        for f in COUNT_FIELDS:
            assert getattr(delta, f) == a[f], f

    @given(a=counts, b=counts)
    @settings(max_examples=50, deadline=None)
    def test_merge_sums_every_field(self, a, b):
        acc = _counters(a)
        acc.merge(_counters(b))
        for f in COUNT_FIELDS:
            assert getattr(acc, f) == a[f] + b[f], f

    @given(values=counts, factor=st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=50, deadline=None)
    def test_scaled_scales_every_field(self, values, factor):
        out = PhaseRecord(name="p", gpu=_counters(values)).scaled(factor).gpu
        for f in COUNT_FIELDS:
            assert getattr(out, f) == int(values[f] * factor), f

    def test_zero_launches_stay_zero(self):
        rec = PhaseRecord(name="posterior", gpu=KernelCounters(inst_warp=10))
        assert rec.scaled(1000.0).gpu.launches == 0
        assert PhaseRecord(name="read_site").scaled(1000.0).gpu.launches == 0


class TestPricing:
    def test_launchless_counters_are_priced(self):
        # An epilogue charged inside another kernel: work, no launch.
        gpu = KernelCounters(inst_warp=1_280_000, g_load=140_000,
                             g_store=137_000)
        rec = PhaseRecord(name="posterior", gpu=gpu)
        expected = GpuCostModel(BGI_PLATFORM.gpu).kernel_time(gpu)
        assert expected > 0
        assert rec.modeled_time() == pytest.approx(expected)

    def test_fused_posterior_phase_is_priced(self, ds):
        res = GsnpPipeline(window_size=256, fusion=True, cache=False).run(ds)
        rec = res.profile.records["posterior"]
        assert rec.gpu.launches == 0 and rec.gpu.inst_warp > 0
        assert rec.modeled_time() >= (
            GpuCostModel(BGI_PLATFORM.gpu).kernel_time(rec.gpu)
        ) > 0


@pytest.fixture(scope="module")
def ds():
    return generate_dataset(DatasetSpec(
        name="acct-t", n_sites=1600, depth=6.0, coverage=0.92,
        read_len=40, seed=31,
    ))


def _solo(ds, device, **kw):
    return GsnpPipeline(window_size=256, device=device, cache=False,
                        **kw).run(ds)


def _cohort(ds, device, **kw):
    batches = cohort_batches(ds, 2)
    pipe = GsnpPipeline(window_size=256, device=device, cache=False, **kw)
    cal = pipe.calibrate(ds, reads=pooled_batch(batches))
    return pipe.run_cohort(ds, batches, calibration=cal)


class TestConservation:
    @pytest.mark.parametrize("run, kw", [
        (_solo, {}),
        (_solo, {"mode": "cpu"}),
        (_solo, {"fusion": True}),
        (_solo, {"fusion": True, "megabatch": 3}),
        (_cohort, {"fusion": True}),
        (_cohort, {}),
        (_cohort, {"mode": "cpu"}),
    ], ids=["solo", "cpu", "fused", "fused-mb3", "cohort-fused",
            "cohort", "cohort-cpu"])
    def test_phase_deltas_sum_to_device_total(self, ds, run, kw):
        device = acquire_device()
        res = run(ds, device, **kw)
        summed = KernelCounters()
        for rec in res.profile.records.values():
            summed.merge(rec.gpu)
        book = device.counters.total()
        for f in COUNT_FIELDS:
            assert getattr(summed, f) == getattr(book, f), f
        if kw.get("mode") != "cpu":
            assert book.c_load > 0
