"""Throughput engine: residency, prefetch and fast paths never change results.

The window-pipelined engine (persistent device tables, double-buffered
streaming, simulator fast paths) is a pure wall-clock optimization: every
toggle combination must produce bitwise-identical tables, compressed
output and per-phase event counters.  These tests pin that invariant at
every layer — sharded executor, serial pipeline, transaction counter —
plus the once-per-worker residency guarantee and the lint integration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import lint_source
from repro.api import create_pipeline
from repro.core.prefetch import OutputDrain, prefetched_windows
from repro.core.score_table import new_p_build_count, reset_new_p_cache
from repro.exec import execute
from repro.formats.stream import PrefetchIterator
from repro.gpusim.device import Device
from repro.gpusim.memory import (
    _count_transactions_reference,
    count_transactions,
    fast_paths_enabled,
    set_fast_paths,
)

WINDOW = 512


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


class TestTogglesParity:
    """Caching + prefetch on vs off: bitwise identical at 1/2/4 workers."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_on_vs_off(self, workers, small_dataset, tmp_path):
        on_path = tmp_path / "on.gsnp"
        off_path = tmp_path / "off.gsnp"
        on = execute(
            small_dataset, "gsnp", window_size=WINDOW,
            output_path=on_path, workers=workers,
            prefetch=True, cache=True,
        )
        off = execute(
            small_dataset, "gsnp", window_size=WINDOW,
            output_path=off_path, workers=workers,
            prefetch=False, cache=False,
        )
        assert on.table.equals(off.table)
        assert on.compressed_output == off.compressed_output
        assert on_path.read_bytes() == off_path.read_bytes()
        assert _counters(on.profile) == _counters(off.profile)

    def test_serial_pipeline_on_vs_off(self, small_dataset, tmp_path):
        on_pipe = create_pipeline(
            "gsnp", window_size=WINDOW, prefetch=True, cache=True
        )
        off_pipe = create_pipeline(
            "gsnp", window_size=WINDOW, prefetch=False, cache=False
        )
        on_path = tmp_path / "on.gsnp"
        off_path = tmp_path / "off.gsnp"
        try:
            on = on_pipe.run(small_dataset, output_path=on_path)
            # A second run on the cached pipeline hits residency and must
            # still match the fresh uncached run bit for bit.
            on2 = on_pipe.run(small_dataset, output_path=on_path)
            off = off_pipe.run(small_dataset, output_path=off_path)
        finally:
            on_pipe.release_cache()
        assert on.table.equals(off.table)
        assert on2.table.equals(off.table)
        assert on.compressed_output == off.compressed_output
        assert on2.compressed_output == off.compressed_output
        assert on_path.read_bytes() == off_path.read_bytes()
        assert _counters(on.profile) == _counters(off.profile)
        assert _counters(on2.profile) == _counters(off.profile)

    def test_fast_paths_off_matches_on(self, small_dataset):
        """The simulator fast paths change wall clock only, not counters."""
        fast = create_pipeline("gsnp", window_size=WINDOW).run(small_dataset)
        assert fast_paths_enabled()
        set_fast_paths(False)
        try:
            slow = create_pipeline("gsnp", window_size=WINDOW).run(
                small_dataset
            )
        finally:
            set_fast_paths(True)
        assert fast.table.equals(slow.table)
        assert fast.compressed_output == slow.compressed_output
        assert _counters(fast.profile) == _counters(slow.profile)


class TestResidency:
    """Score tables are built and uploaded exactly once per worker."""

    def _upload_counter(self, monkeypatch):
        counts = {"new_p_matrix": 0}
        orig = Device.to_device

        def counting(self, host, name="anon", space="global"):
            if name == "new_p_matrix":
                counts["new_p_matrix"] += 1
            return orig(self, host, name, space)

        monkeypatch.setattr(Device, "to_device", counting)
        return counts

    def test_uploaded_once_per_worker(self, small_dataset, monkeypatch):
        counts = self._upload_counter(monkeypatch)
        reset_new_p_cache()
        # force_serial keeps all 4 shards in-process: one worker state,
        # one pipeline, one upload — despite four shard runs.
        execute(
            small_dataset, "gsnp", window_size=WINDOW,
            workers=2, shard_size=1024, force_serial=True,
            prefetch=True, cache=True,
        )
        assert counts["new_p_matrix"] == 1
        assert new_p_build_count() == 1

    def test_cache_off_uploads_per_shard(self, small_dataset, monkeypatch):
        counts = self._upload_counter(monkeypatch)
        reset_new_p_cache()
        execute(
            small_dataset, "gsnp", window_size=WINDOW,
            workers=2, shard_size=1024, force_serial=True,
            prefetch=True, cache=False,
        )
        assert counts["new_p_matrix"] == 4  # one per shard
        assert new_p_build_count() == 1  # host-side build still memoized

    def test_release_cache_frees_resident_tables(self, small_dataset):
        pipe = create_pipeline("gsnp", window_size=WINDOW, cache=True)
        pipe.run(small_dataset)
        device = pipe._cached_device
        assert device is not None and len(device.resident) == 1
        pipe.release_cache()
        assert len(device.resident) == 0
        assert pipe._cached_device is None


def _oracle(indices, itemsize, warp_size, segment_bytes=128):
    """Brute-force per-warp set-of-touched-segments."""
    idx = np.asarray(indices).ravel()
    total = 0
    for w0 in range(0, idx.size, warp_size):
        segs = set()
        for i in idx[w0:w0 + warp_size]:
            if i >= 0:
                segs.add((int(i) * itemsize) // segment_bytes)
        total += len(segs)
    return total


class TestTransactionFastPaths:
    """Fast transaction engines vs the reference vs the brute oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        indices=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1, max_size=300,
        ),
        itemsize=st.sampled_from([1, 4, 8]),
        warp_size=st.sampled_from([8, 32]),
    )
    def test_all_live_hint_matches_oracle(self, indices, itemsize, warp_size):
        idx = np.array(indices, dtype=np.int64)
        got = count_transactions(
            idx, itemsize, warp_size=warp_size, all_live=True
        )
        assert got == _oracle(idx, itemsize, warp_size)
        assert got == _count_transactions_reference(
            idx, itemsize, warp_size, 128
        )

    @settings(max_examples=150, deadline=None)
    @given(
        indices=st.lists(
            st.integers(min_value=-1, max_value=5000),
            min_size=0, max_size=300,
        ),
        itemsize=st.sampled_from([1, 2, 4, 8]),
        warp_size=st.sampled_from([4, 8, 32]),
    )
    def test_fast_engine_matches_reference(self, indices, itemsize, warp_size):
        idx = np.array(indices, dtype=np.int64)
        fast = count_transactions(idx, itemsize, warp_size=warp_size)
        assert fast == _count_transactions_reference(
            idx, itemsize, warp_size, 128
        )
        assert fast == _oracle(idx, itemsize, warp_size)

    @settings(max_examples=100, deadline=None)
    @given(
        indices=st.lists(
            st.integers(min_value=0, max_value=20_000),
            min_size=1, max_size=400,
        ),
        descending=st.booleans(),
        itemsize=st.sampled_from([2, 4]),
    )
    def test_monotonic_patterns(self, indices, descending, itemsize):
        idx = np.sort(np.array(indices, dtype=np.int64))
        if descending:
            idx = idx[::-1].copy()
        got = count_transactions(idx, itemsize, all_live=True)
        assert got == _oracle(idx, itemsize, 32)

    def test_toggle_off_identical(self):
        """set_fast_paths(False) routes to the reference: same answers."""
        rng = np.random.default_rng(7)
        cases = [
            rng.integers(-1, 4000, size=int(rng.integers(1, 300)))
            for _ in range(40)
        ]
        fast = [count_transactions(c, 4) for c in cases]
        assert fast_paths_enabled()
        set_fast_paths(False)
        try:
            assert not fast_paths_enabled()
            slow = [count_transactions(c, 4) for c in cases]
        finally:
            set_fast_paths(True)
        assert fast == slow
        assert fast == [_oracle(c, 4, 32) for c in cases]

    def test_memo_survives_repeat_queries(self):
        idx = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)
        first = count_transactions(idx, 4, warp_size=4)
        again = count_transactions(idx, 4, warp_size=4)
        assert first == again == _oracle(idx, 4, 4)


class TestPrefetchPrimitives:
    def test_prefetched_windows_disabled_is_passthrough(self):
        src = [1, 2, 3]
        assert prefetched_windows(src, enabled=False) is src

    def test_prefetch_preserves_order(self):
        items = list(range(100))
        assert list(prefetched_windows(iter(items), enabled=True)) == items

    def test_prefetch_reraises_producer_error(self):
        def boom():
            yield 1
            raise ValueError("decode failed")

        it = iter(PrefetchIterator(boom(), depth=2))
        assert next(it) == 1
        with pytest.raises(ValueError, match="decode failed"):
            next(it)

    def test_output_drain_writes_in_order(self, tmp_path):
        path = tmp_path / "out.bin"
        drain = OutputDrain(path)
        blobs = [bytes([i]) * (i + 1) for i in range(20)]
        for blob in blobs:
            drain.submit(blob)
        drain.close()
        assert path.read_bytes() == b"".join(blobs)

    def test_output_drain_abort_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            with OutputDrain(path) as drain:
                drain.submit(b"half a result")
                raise RuntimeError("killed mid-run")
        assert list(tmp_path.iterdir()) == []

    def test_output_drain_context_commits(self, tmp_path):
        path = tmp_path / "out.bin"
        with OutputDrain(path) as drain:
            drain.submit(b"payload")
        assert path.read_bytes() == b"payload"

    def test_output_drain_reraises_write_error(self, tmp_path):
        drain = OutputDrain(tmp_path)  # a directory: open() fails
        drain.submit(b"data")
        with pytest.raises(OSError):
            drain.close()


class TestLintEnqueueDiscovery:
    """Kernels launched via DeviceStream.enqueue are linted like any other."""

    def test_enqueue_launched_kernel_is_discovered(self):
        diags = lint_source(
            "def body(ctx, out):\n"
            "    x = out.data\n"
            "\n"
            "def run(stream, out):\n"
            "    stream.enqueue(body, 32, out)\n",
            "test.py",
        )
        assert "GSNP101" in [d.rule for d in diags]
