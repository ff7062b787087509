"""Tiled tree reduction on the simulated GPU.

One ``reduce_pass`` launch reduces every 256-element tile of its input to
one value in shared memory, so a reduction of n elements takes
ceil(log256 n) launches, not one per tree level.  The same tile kernel is
the up-sweep of the tiled scan (:mod:`.scan`).
"""

from __future__ import annotations

import numpy as np

from ...errors import KernelError
from ..device import Device
from ..memory import DeviceArray

#: Elements per tile: one 256-thread block works one tile in shared memory.
TILE = 256
#: Levels of the in-tile tree (log2 TILE).
_TREE_LEVELS = TILE.bit_length() - 1

_OPS = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
}


def _identity(op, dtype: np.dtype):
    """The value the empty lanes of a partial tile contribute to ``op``."""
    if op is np.add:
        return 0
    if dtype.kind == "f":
        return -np.inf if op is np.maximum else np.inf
    info = np.iinfo(dtype)
    return info.min if op is np.maximum else info.max


def charge_tree(ctx, loads: int, stores: int, instr: int) -> None:
    """Charge one tree sweep over every tile held in shared memory.

    Level ``d`` has ``TILE >> (d + 1)`` owner threads per tile, the low
    lanes of the block (GPU Gems 3, ch. 39), so warps drop out as the
    tree narrows.  Each owner does ``loads`` shared loads, ``stores``
    shared stores and ``instr`` instructions, then the block syncs.  The
    launch must cover whole tiles (``n_threads`` a multiple of TILE).
    """
    lane = ctx.tid % TILE
    for d in range(_TREE_LEVELS):
        owner = lane < (TILE >> (d + 1))
        ctx.note_shared(loads=loads, stores=stores, active=owner)
        ctx.instr(instr, active=owner)
        ctx.syncthreads()


def _tile_reduce_kernel(ctx, src: DeviceArray, dst: DeviceArray, n: int, op):
    """Block b reduces tile b of ``src`` in shared memory into ``dst[b]``.

    Empty lanes of the last tile load ``op``'s identity.
    """
    active = ctx.tid < n
    x = ctx.gload(src, ctx.tid, active=active, fill=_identity(op, src.dtype))
    ctx.note_shared(stores=1)
    ctx.syncthreads()
    charge_tree(ctx, loads=2, stores=1, instr=2)
    lead = ctx.tid % TILE == 0
    totals = np.repeat(op.reduce(x.reshape(-1, TILE), axis=1), TILE)
    ctx.note_shared(loads=1, active=lead)
    ctx.gstore(dst, ctx.tid // TILE, totals, active=lead)


def device_reduce(device: Device, arr: DeviceArray, op: str = "sum"):
    """Reduce a device array to a scalar, one launch per level of tiles.

    Returns the reduced value as a NumPy scalar of the array's dtype.
    """
    if op not in _OPS:
        raise KernelError(f"unsupported reduction op {op!r}")
    ufunc = _OPS[op]
    n = arr.size
    if n == 0:
        raise KernelError("cannot reduce an empty array")
    src = arr
    scratch = None
    while n > 1:
        m = -(-n // TILE)
        dst = device.alloc(m, arr.dtype, name=f"{arr.name}.reduce")
        device.launch(
            _tile_reduce_kernel, m * TILE, src, dst, n, ufunc,
            name="reduce_pass", block_size=TILE,
        )
        if scratch is not None:
            device.free(scratch)
        scratch = dst
        src, n = dst, m
    out = src.data.reshape(-1)[0].copy()
    if scratch is not None:
        device.free(scratch)
    return out


def _segment_sum_kernel(ctx, values, offsets, out, n_segments):
    """Thread t sums values[offsets[t]:offsets[t+1]] sequentially.

    Segments here are tiny (per-site runs), so a per-thread sequential loop
    mirrors what the real kernel does; the lockstep loop runs to the longest
    segment in the launch with shorter lanes masked off.
    """
    starts = ctx.gload(offsets, ctx.tid, active=ctx.tid < n_segments)
    ends = ctx.gload(offsets, ctx.tid + 1, active=ctx.tid < n_segments)
    acc = np.zeros(ctx.n_threads, dtype=np.float64)
    lengths = ends - starts
    max_len = int(lengths.max(initial=0))
    for j in range(max_len):
        active = (j < lengths) & (ctx.tid < n_segments)
        v = ctx.gload(values, starts + j, active=active)
        acc += np.where(active, v.astype(np.float64), 0.0)
        ctx.instr(1, active=active)
    ctx.gstore(out, ctx.tid, acc.astype(out.dtype), active=ctx.tid < n_segments)


def segmented_reduce(
    device: Device, values: DeviceArray, offsets: DeviceArray
) -> DeviceArray:
    """Sum each segment ``values[offsets[i]:offsets[i+1]]``.

    ``offsets`` has ``n_segments + 1`` entries; returns a device array of
    ``n_segments`` sums with the same dtype as ``values``.
    """
    n_segments = offsets.size - 1
    if n_segments < 0:
        raise KernelError("offsets must have at least one entry")
    out = device.alloc(max(n_segments, 1), values.dtype, name="segsum")
    if n_segments:
        device.launch(
            _segment_sum_kernel,
            n_segments,
            values,
            offsets,
            out,
            n_segments,
            name="segmented_reduce",
        )
    return out
