"""Dictionary (DICT) encoding with least-bits index packing (Section V-B).

The six quality-related output columns have "fewer than 100 distinct
values", so a dictionary of the distinct values plus ceil(log2(|dict|))-bit
indices beats byte storage by ~2-4x even before RLE.  The GPU encoder
builds the dictionary with the *sort* and *unique* primitives and looks
indices up with parallel *binary search*, loading the dictionary into
constant memory when it fits — exactly the paper's construction.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import CodecError
from ..gpusim.device import Device
from ..gpusim.primitives.search import device_binary_search
from ..gpusim.primitives.sort import device_radix_sort
from ..gpusim.primitives.unique import device_unique
from .bitpack import bits_needed, pack_bits, unpack_bits

#: dtype tags persisted in encoded headers.
_DTYPES = {
    0: np.dtype(np.uint8),
    1: np.dtype(np.uint16),
    2: np.dtype(np.uint32),
    3: np.dtype(np.int64),
    4: np.dtype(np.float32),
    5: np.dtype(np.float64),
}
_DTYPE_TAGS = {v: k for k, v in _DTYPES.items()}


def dtype_tag(dtype: np.dtype) -> int:
    """Persisted tag of a supported dtype."""
    dt = np.dtype(dtype)
    if dt not in _DTYPE_TAGS:
        raise CodecError(f"unsupported column dtype {dt}")
    return _DTYPE_TAGS[dt]


def tag_dtype(tag: int) -> np.dtype:
    """Inverse of :func:`dtype_tag`."""
    if tag not in _DTYPES:
        raise CodecError(f"unknown dtype tag {tag}")
    return _DTYPES[tag]


def dict_encode(values: np.ndarray) -> bytes:
    """Encode an array as dictionary + packed indices.

    Header: ``<I count> <B dtype_tag> <H dict_size> <B width>``, then the
    dictionary values, then the packed index stream.
    """
    values = np.asarray(values)
    tag = dtype_tag(values.dtype)
    if values.size == 0:
        return struct.pack("<IBHB", 0, tag, 0, 1)
    table = np.unique(values)
    if table.size > 65535:
        raise CodecError("dictionary too large (>65535 entries)")
    idx = np.searchsorted(table, values)
    width = bits_needed(table.size - 1)
    header = struct.pack("<IBHB", values.size, tag, table.size, width)
    return header + table.tobytes() + pack_bits(idx, width)


def dict_decode(data: bytes) -> np.ndarray:
    """Inverse of :func:`dict_encode`."""
    if len(data) < 8:
        raise CodecError("truncated DICT header")
    count, tag, dict_size, width = struct.unpack_from("<IBHB", data, 0)
    dt = tag_dtype(tag)
    off = 8
    if count == 0:
        return np.empty(0, dtype=dt)
    table = np.frombuffer(data, dtype=dt, count=dict_size, offset=off)
    off += dict_size * dt.itemsize
    idx = unpack_bits(data[off:], width, count)
    if idx.size and int(idx.max()) >= dict_size:
        raise CodecError("DICT index out of range")
    return table[idx.astype(np.int64)]


def dict_encode_gpu(device: Device, values: np.ndarray) -> bytes:
    """GPU DICT encoder: sort + unique build the dictionary, parallel
    binary search finds indices; constant memory caches small
    dictionaries.

    Produces byte-identical output to :func:`dict_encode` (tested) while
    charging the simulated device.
    """
    values = np.asarray(values)
    if values.size == 0:
        return dict_encode(values)
    # Radix sort wants unsigned keys.  Integer values sort directly; float
    # values are first rank-mapped on the host (rank order == value order,
    # so the device builds the same dictionary shape).
    if values.dtype.kind in "ui" and values.itemsize <= 4:
        work = values.astype(np.uint32)
    else:
        work = np.searchsorted(np.unique(values), values).astype(np.uint32)
    keys = device.to_device(work, "dict.keys")
    nbits = max(1, int(work.max()).bit_length())
    sorted_keys = device_radix_sort(device, keys, nbits=nbits)
    uniq = device_unique(device, sorted_keys)
    # Dictionary lookup: parallel binary search; the dictionary is cached
    # in constant memory when it fits (Section V-B).
    table64 = uniq.data.astype(np.int64)
    hay = (
        device.to_constant(table64, "dict.table")
        if table64.nbytes <= device.spec.constant_mem_bytes // 2
        else device.to_device(table64, "dict.table")
    )
    idx_dev = device_binary_search(device, keys, hay)
    # The search charges the real lookup traffic; the actual DICT codes are
    # produced by the host-side dict_encode below.
    idx_dev.mark_consumed()
    for a in (keys, sorted_keys, uniq, hay, idx_dev):
        device.free(a)
    return dict_encode(values)
