"""RLE-DICT two-level codec, CPU and GPU paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import (
    dict_encode,
    dict_encode_gpu,
    rle_dict_decode,
    rle_dict_encode,
    rle_dict_encode_gpu,
)
from repro.errors import CodecError
from repro.gpusim.device import Device


def _runny_column(rng, n=5000, n_values=40, mean_run=12):
    n_runs = max(n // mean_run, 1)
    values = rng.integers(0, n_values, n_runs).astype(np.uint8)
    lengths = rng.integers(1, 2 * mean_run, n_runs)
    return np.repeat(values, lengths)[:n]


class TestCpu:
    def test_roundtrip(self, rng):
        col = _runny_column(rng)
        assert np.array_equal(rle_dict_decode(rle_dict_encode(col)), col)

    def test_empty(self):
        col = np.empty(0, dtype=np.uint8)
        out = rle_dict_decode(rle_dict_encode(col))
        assert out.size == 0

    def test_compresses_quality_like_columns(self, rng):
        """The paper's six quality columns: <100 distinct values, runs of
        ~tens — RLE-DICT should get well under 2 bits/element."""
        col = _runny_column(rng, n=50_000, n_values=80, mean_run=15)
        blob = rle_dict_encode(col)
        assert len(blob) * 8 / col.size < 2.0

    def test_beats_dict_alone_on_runny_data(self, rng):
        col = _runny_column(rng, n=20_000, mean_run=20)
        assert len(rle_dict_encode(col)) < len(dict_encode(col))

    def test_uint16_values(self, rng):
        col = np.repeat(
            rng.integers(0, 900, 100).astype(np.uint16),
            rng.integers(1, 30, 100),
        )
        assert np.array_equal(rle_dict_decode(rle_dict_encode(col)), col)

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            rle_dict_decode(b"\x00\x00")

    @given(st.lists(st.integers(0, 30), min_size=0, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, values):
        col = np.asarray(values, dtype=np.uint8)
        assert np.array_equal(rle_dict_decode(rle_dict_encode(col)), col)


class TestGpu:
    def test_byte_identical_to_cpu(self, rng):
        col = _runny_column(rng, n=3000)
        device = Device()
        assert rle_dict_encode_gpu(device, col) == rle_dict_encode(col)

    def test_uses_paper_primitives(self, rng):
        """RLE via reduction; DICT via sort + unique + binary search."""
        col = _runny_column(rng, n=2000)
        device = Device()
        rle_dict_encode_gpu(device, col)
        kernels = set(device.counters.entries)
        assert "rle_flag" in kernels
        assert "reduce_pass" in kernels
        assert "radix_histogram" in kernels
        assert "unique_compact" in kernels
        assert "binary_search" in kernels

    def test_dict_gpu_byte_identical(self, rng):
        for dtype in (np.uint8, np.uint16, np.float32):
            v = rng.integers(0, 50, 1000).astype(dtype)
            device = Device()
            assert dict_encode_gpu(device, v) == dict_encode(v)

    def test_dict_uploads_only_keys_and_dictionary(self, rng):
        # The sort ranks keys on the device and the lookup searches the
        # keys already there: no permutation or needle upload.
        col = rng.integers(0, 60, 4000).astype(np.uint8)
        device = Device()
        dict_encode_gpu(device, col)
        keys_bytes = col.size * np.dtype(np.uint32).itemsize
        table_bytes = np.unique(col).size * np.dtype(np.int64).itemsize
        assert device.transfers.h2d_bytes == keys_bytes + table_bytes
        assert device.transfers.h2d_count == 2

    def test_small_dictionary_in_constant_memory(self, rng):
        col = rng.integers(0, 20, 1000).astype(np.uint8)
        device = Device()
        dict_encode_gpu(device, col)
        c = device.counters.get("binary_search")
        assert c.c_load > 0  # probes hit the constant cache

    def test_gpu_empty(self):
        device = Device()
        col = np.empty(0, dtype=np.uint8)
        assert rle_dict_encode_gpu(device, col) == rle_dict_encode(col)

    def test_float_column_gpu(self, rng):
        col = np.repeat(
            np.round(rng.random(50), 2).astype(np.float32),
            rng.integers(1, 20, 50),
        )
        device = Device()
        assert rle_dict_encode_gpu(device, col) == rle_dict_encode(col)
