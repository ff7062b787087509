"""LSD radix sort on the simulated GPU.

This is the Thrust-style large-array sort the paper compares against in
Figure 7(a): excellent for one big array, but hopeless when billions of tiny
per-site arrays must be sorted one after another
(:func:`sequential_radix_sort_batches` reproduces that underutilization).
"""

from __future__ import annotations

import numpy as np

from ...errors import KernelError
from ..device import Device
from ..memory import DeviceArray

#: Digit width in bits for the LSD passes.
RADIX_BITS = 8
RADIX = 1 << RADIX_BITS


def _histogram_kernel(ctx, keys, hist, shift: int, n: int):
    """Thread t extracts its digit and atomically bumps the histogram."""
    active = ctx.tid < n
    k = ctx.gload(keys, ctx.tid, active=active)
    digit = (k.astype(np.int64) >> shift) & (RADIX - 1)
    ctx.instr(2, active=active)
    ctx.gatomic_add(hist, digit, 1, active=active)


def _scatter_kernel(ctx, keys, out, shift: int, n: int):
    """Thread t writes its key to its stable-partitioned position.

    The position is the digit's offset in the scanned histogram (read
    from shared memory) plus the key's rank among the equal digits before
    it, ranked in registers one digit bit at a time.
    """
    active = ctx.tid < n
    k = ctx.gload(keys, ctx.tid, active=active)
    digit = (k.astype(np.int64) >> shift) & (RADIX - 1)
    pos = digit.argsort(kind="stable").argsort(kind="stable")
    ctx.note_shared(loads=1, active=active)
    # Digit extraction (2), one ballot step per digit bit, offset add (1).
    ctx.instr(3 + RADIX_BITS, active=active)
    ctx.gstore(out, pos, k, active=active)


def device_radix_sort(
    device: Device, keys: DeviceArray, nbits: int | None = None
) -> DeviceArray:
    """Sort a device array of unsigned integer keys ascending.

    Runs ``ceil(bits / 8)`` LSD passes.  Each pass issues a histogram
    kernel, a 256-bin scan (negligible, folded into the histogram launch),
    and a scatter kernel whose writes are, as on real hardware, almost
    fully uncoalesced — which is precisely why radix sort needs large
    arrays to pay off.

    ``nbits`` caps the key width actually sorted: callers whose keys
    occupy only the low bits of the word (e.g. the megabatch codec's
    composite segment keys) skip the all-zero high-digit passes, exactly
    as a real radix sort configured with ``begin_bit``/``end_bit`` would.
    """
    if keys.dtype.kind != "u":
        raise KernelError("device_radix_sort requires an unsigned dtype")
    n = keys.size
    width = keys.itemsize * 8
    if nbits is None:
        nbits = width
    if not 1 <= nbits <= width:
        raise KernelError(f"nbits must be in [1, {width}], got {nbits}")
    src = device.alloc(n, keys.dtype, name=f"{keys.name}.rsortA")
    src.data[:] = keys.data.reshape(-1)
    dst = device.alloc(n, keys.dtype, name=f"{keys.name}.rsortB")
    for shift in range(0, nbits, RADIX_BITS):
        if n:
            hist = device.alloc(RADIX, np.int64, name="rsort.hist")
            # The 256-bin scan that consumes the histogram is folded into
            # this launch (see docstring); the scatter kernel ranks keys
            # itself.
            hist.mark_consumed()
            device.launch(
                _histogram_kernel, n, src, hist, shift, n, name="radix_histogram"
            )
            device.launch(
                _scatter_kernel, n, src, dst, shift, n, name="radix_scatter"
            )
            device.free(hist)
        src, dst = dst, src
    out = device.alloc(n, keys.dtype, name=f"{keys.name}.sorted")
    out.data[:] = src.data
    device.free(src)
    device.free(dst)
    return out


def sequential_radix_sort_batches(
    device: Device, batch: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Sort many small arrays by calling the big-array sort on each in turn.

    ``batch`` is ``(n_arrays, max_len)``; ``lengths[i]`` gives the valid
    prefix of row ``i``.  This is the Figure 7(a) strawman: every tiny sort
    occupies the whole device, so throughput collapses.
    """
    batch = np.asarray(batch)
    out = batch.copy()
    for i in range(batch.shape[0]):
        m = int(lengths[i])
        if m <= 1:
            continue
        keys = device.to_device(
            np.ascontiguousarray(batch[i, :m]), name="seqsort.row"
        )
        sorted_row = device_radix_sort(device, keys)
        out[i, :m] = sorted_row.data
        device.free(keys)
        device.free(sorted_row)
    return out
