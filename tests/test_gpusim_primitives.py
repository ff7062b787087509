"""GPU primitives: reduce, scan, radix sort, unique, binary search."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.gpusim.device import Device
from repro.gpusim.memory import DeviceArray
from repro.gpusim.primitives import (
    device_binary_search,
    device_exclusive_scan,
    device_radix_sort,
    device_reduce,
    device_unique,
    segmented_dict_indices,
    segmented_reduce,
    sequential_radix_sort_batches,
)

#: Sizes on both sides of one and two 256-element tile levels.
TILE_EDGES = (0, 1, 255, 256, 257, 65_536, 65_537)

#: Array sizes: every tile edge plus arbitrary small sizes.
sizes = st.one_of(st.sampled_from(TILE_EDGES), st.integers(0, 1000))


def _at_tile_edges(ns=TILE_EDGES, variants=({},)):
    """Pin each size in ``ns`` (with each keyword variant) as an example."""
    def pin(test):
        for n in ns:
            for kw in variants:
                test = example(n=n, seed=n, **kw)(test)
        return test
    return pin


def _launches(device) -> int:
    return device.counters.total().launches


class TestReduce:
    def test_sum(self, device):
        arr = device.to_device(np.arange(1234, dtype=np.int64))
        assert device_reduce(device, arr) == 1234 * 1233 // 2

    def test_max_min(self, device, rng):
        data = rng.integers(-1000, 1000, 501)
        arr = device.to_device(data)
        assert device_reduce(device, arr, "max") == data.max()
        arr2 = device.to_device(data)
        assert device_reduce(device, arr2, "min") == data.min()

    def test_single_element(self, device):
        arr = device.to_device(np.array([42], dtype=np.int64))
        assert device_reduce(device, arr) == 42

    def test_empty_rejected(self, device):
        arr = device.alloc(0, np.int64)
        with pytest.raises(KernelError):
            device_reduce(device, arr)

    def test_unknown_op_rejected(self, device):
        arr = device.to_device(np.arange(4))
        with pytest.raises(KernelError):
            device_reduce(device, arr, "xor")

    def test_input_unmodified(self, device):
        data = np.arange(100, dtype=np.int64)
        arr = device.to_device(data)
        device_reduce(device, arr)
        assert np.array_equal(arr.data, data)

    @given(
        n=sizes.filter(bool),
        seed=st.integers(0, 2**32 - 1),
        op=st.sampled_from(["sum", "max", "min"]),
        shift=st.sampled_from([-(10**12), 0, 10**12]),
    )
    @settings(max_examples=30, deadline=None)
    @_at_tile_edges(TILE_EDGES[1:], [
        {"op": op, "shift": shift}
        for op in ("sum", "max", "min") for shift in (-(10**12), 10**12)
    ])
    def test_matches_numpy(self, n, seed, op, shift):
        # All-negative, mixed and all-positive int64 arrays: a partial tile
        # padded with a wrong identity (0) gives a wrong max or min.
        data = np.random.default_rng(seed).integers(-10**6, 10**6, n) + shift
        device = Device()
        got = device_reduce(device, device.to_device(data), op)
        want = {"sum": data.sum(), "max": data.max(), "min": data.min()}[op]
        assert got == want

    @pytest.mark.parametrize("n, launches", [
        (1, 0), (2, 1), (256, 1), (257, 2), (65_536, 2), (65_537, 3),
    ])
    def test_one_launch_per_tile_level(self, n, launches):
        device = Device()
        device_reduce(device, device.to_device(np.ones(n, dtype=np.int64)))
        assert _launches(device) == launches


class TestSegmentedReduce:
    def test_basic_segments(self, device):
        values = device.to_device(np.arange(10, dtype=np.float64))
        offsets = device.to_device(np.array([0, 3, 3, 10], dtype=np.int64))
        out = segmented_reduce(device, values, offsets)
        assert np.allclose(out.data, [0 + 1 + 2, 0.0, sum(range(3, 10))])

    def test_empty_segments_zero(self, device):
        values = device.to_device(np.arange(4, dtype=np.float64))
        offsets = device.to_device(np.array([0, 0, 0, 4], dtype=np.int64))
        out = segmented_reduce(device, values, offsets)
        assert np.allclose(out.data, [0, 0, 6])


class TestScan:
    def test_exclusive_semantics(self, device):
        arr = device.to_device(np.arange(1, 9, dtype=np.int64))
        out = device_exclusive_scan(device, arr)
        assert np.array_equal(out.data, [0, 1, 3, 6, 10, 15, 21, 28])

    def test_non_power_of_two(self, device, rng):
        data = rng.integers(0, 50, 1000)
        arr = device.to_device(data)
        out = device_exclusive_scan(device, arr)
        expected = np.concatenate([[0], np.cumsum(data)[:-1]])
        assert np.array_equal(out.data, expected)

    def test_input_unmodified(self, device):
        data = np.arange(37, dtype=np.int64)
        arr = device.to_device(data)
        device_exclusive_scan(device, arr)
        assert np.array_equal(arr.data, data)

    def test_single_element(self, device):
        arr = device.to_device(np.array([9], dtype=np.int64))
        out = device_exclusive_scan(device, arr)
        assert np.array_equal(out.data, [0])

    @given(n=sizes, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    @_at_tile_edges()
    def test_matches_cumsum(self, n, seed):
        device = Device()
        data = np.random.default_rng(seed).integers(0, 1000, n)
        out = device_exclusive_scan(device, device.to_device(data))
        assert np.array_equal(out.data, np.cumsum(data) - data)

    @pytest.mark.parametrize("n, launches", [
        (1, 1), (256, 1), (257, 3), (65_536, 3), (65_537, 5),
    ])
    def test_one_launch_per_tile_level(self, n, launches):
        device = Device()
        device_exclusive_scan(
            device, device.to_device(np.ones(n, dtype=np.int64))
        )
        assert _launches(device) == launches

    def test_strict_teardown_single_and_multi_tile(self):
        # A single-tile scan writes no tile totals nobody reads.
        for n in (200, 3000):
            device = Device(sanitize=True)
            arr = device.to_device(np.arange(n, dtype=np.int64))
            out = device_exclusive_scan(device, arr)
            assert int(out.data[-1]) == (n - 1) * (n - 2) // 2
            device.free(arr)
            device.free(out)
            assert device.sanitize_teardown(strict=True) == []


class TestRadixSort:
    def test_sorts_random_uint32(self, device, rng):
        data = rng.integers(0, 2**32, 5000, dtype=np.uint32)
        out = device_radix_sort(device, device.to_device(data))
        assert np.array_equal(out.data, np.sort(data))

    def test_requires_unsigned(self, device):
        arr = device.to_device(np.arange(4, dtype=np.int32))
        with pytest.raises(KernelError, match="unsigned"):
            device_radix_sort(device, arr)

    def test_uint8_single_pass_domain(self, device, rng):
        data = rng.integers(0, 256, 777, dtype=np.uint8)
        out = device_radix_sort(device, device.to_device(data))
        assert np.array_equal(out.data, np.sort(data))

    def test_scatter_is_uncoalesced(self, device, rng):
        data = rng.integers(0, 2**32, 4096, dtype=np.uint32)
        device_radix_sort(device, device.to_device(data))
        c = device.counters.get("radix_scatter")
        # Random scatter: transactions comparable to element count.
        assert c.g_store > 4096 * 4 * 0.5  # 4 passes, >50% scattered

    def test_moves_no_host_bytes(self, device, rng):
        # The scatter ranks keys on the device; no permutation is uploaded.
        keys = device.to_device(rng.integers(0, 2**32, 3000, dtype=np.uint32))
        before = (device.transfers.h2d_bytes, device.transfers.h2d_count)
        device_radix_sort(device, keys)
        after = (device.transfers.h2d_bytes, device.transfers.h2d_count)
        assert after == before

    def test_sequential_batches_sorted(self, device, rng):
        batch = rng.integers(0, 1000, (10, 16)).astype(np.uint32)
        lengths = rng.integers(0, 17, 10)
        out = sequential_radix_sort_batches(device, batch, lengths)
        for i in range(10):
            m = lengths[i]
            assert np.array_equal(out[i, :m], np.sort(batch[i, :m]))
            assert np.array_equal(out[i, m:], batch[i, m:])


class TestSegmentedDict:
    def test_uploads_only_keys_and_dictionary(self, device, rng):
        segments = [
            rng.integers(0, 64, 300).astype(np.uint32) for _ in range(3)
        ]
        idx, dict_sizes = segmented_dict_indices(device, segments)
        starts = np.cumsum([0, 300, 300])
        for seg, start, size in zip(segments, starts, dict_sizes):
            table = np.unique(seg)
            assert size == table.size
            assert np.array_equal(table[idx[start:start + 300]], seg)
        keys_bytes = 900 * np.dtype(np.uint64).itemsize
        table_bytes = sum(dict_sizes) * np.dtype(np.int64).itemsize
        assert device.transfers.h2d_bytes == keys_bytes + table_bytes
        assert device.transfers.h2d_count == 2


class TestUnique:
    def test_distinct_values(self, device, rng):
        data = np.sort(rng.integers(0, 40, 500)).astype(np.uint32)
        out = device_unique(device, device.to_device(data))
        assert np.array_equal(out.data, np.unique(data))

    def test_all_same(self, device):
        data = np.full(100, 7, dtype=np.uint32)
        out = device_unique(device, device.to_device(data))
        assert np.array_equal(out.data, [7])

    def test_all_distinct(self, device):
        data = np.arange(64, dtype=np.uint32)
        out = device_unique(device, device.to_device(data))
        assert np.array_equal(out.data, data)

    def test_unsorted_rejected(self, device):
        arr = device.to_device(np.array([3, 1, 2], dtype=np.uint32))
        with pytest.raises(KernelError, match="sorted"):
            device_unique(device, arr)


class TestBinarySearch:
    def test_finds_all_present(self, device, rng):
        hay_data = np.unique(rng.integers(0, 10_000, 300)).astype(np.int64)
        needles_data = rng.choice(hay_data, 100)
        hay = device.to_device(hay_data)
        needles = device.to_device(needles_data)
        out = device_binary_search(device, needles, hay)
        assert np.array_equal(hay_data[out.data], needles_data)

    def test_insertion_points_for_absent(self, device):
        hay = device.to_device(np.array([10, 20, 30], dtype=np.int64))
        needles = device.to_device(np.array([5, 15, 35], dtype=np.int64))
        out = device_binary_search(device, needles, hay)
        assert np.array_equal(out.data, [0, 1, 3])

    def test_empty_haystack_rejected(self, device):
        hay = device.alloc(0, np.int64)
        needles = device.to_device(np.array([1], dtype=np.int64))
        with pytest.raises(KernelError):
            device_binary_search(device, needles, hay)

    def test_constant_memory_dictionary_uses_cache(self, device):
        hay = device.to_constant(np.arange(16, dtype=np.int64))
        needles = device.to_device(np.arange(16, dtype=np.int64))
        device_binary_search(device, needles, hay)
        c = device.counters.get("binary_search")
        assert c.c_load > 0
