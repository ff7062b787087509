"""Tiled reduce-then-scan exclusive prefix sum on the simulated GPU.

One launch covers a whole level of 256-element tiles (Harris, Sengupta &
Owens, *GPU Gems 3* ch. 39; CUB's ``DeviceScan``): ``scan_upsweep``
reduces every tile to its total in shared memory, the tile totals are
scanned by this same function, and ``scan_downsweep`` scans every tile in
shared memory seeded with its tile's offset.  A scan of n <= 256 elements
is one launch, n <= 65,536 three, and each further factor of 256 adds two.
"""

from __future__ import annotations

import numpy as np

from ..device import Device
from ..memory import DeviceArray
from .reduce import TILE, _tile_reduce_kernel, charge_tree


def _downsweep_kernel(ctx, src: DeviceArray, out: DeviceArray, offsets, n: int):
    """Block b scans tile b in shared memory and stores it to ``out``.

    The tile is seeded with ``offsets[b]``, the exclusive scan of the tile
    totals; a single-tile scan passes ``offsets=None`` and seeds with 0.
    """
    active = ctx.tid < n
    x = ctx.gload(src, ctx.tid, active=active)
    ctx.note_shared(stores=1)
    ctx.syncthreads()
    # Work-efficient scan of the tile: up-sweep tree, then down-sweep tree.
    charge_tree(ctx, loads=2, stores=1, instr=2)
    charge_tree(ctx, loads=2, stores=2, instr=3)
    tiles = x.reshape(-1, TILE)
    scanned = (np.cumsum(tiles, axis=1) - tiles).reshape(-1)
    if offsets is not None:
        # Lane 0 fetches the tile's offset; the block reads it from shared.
        lead = ctx.tid % TILE == 0
        seed = ctx.gload(offsets, ctx.tid // TILE, active=lead)
        ctx.note_shared(stores=1, active=lead)
        ctx.syncthreads()
        ctx.note_shared(loads=1)
        ctx.instr(1)
        scanned = scanned + np.repeat(seed[::TILE], TILE)
    ctx.note_shared(loads=1)
    ctx.gstore(out, ctx.tid, scanned, active=active)


def device_exclusive_scan(device: Device, arr: DeviceArray) -> DeviceArray:
    """Exclusive prefix sum of a device array.

    Returns a new device array ``out`` with
    ``out[i] = sum(arr[:i])``; the input is left untouched.  Every level
    of tiles is one coalesced launch; only a multi-tile scan writes (and
    then scans) tile totals.
    """
    n = arr.size
    if n == 0:
        return device.alloc(0, arr.dtype, name=f"{arr.name}.scan")
    n_tiles = -(-n // TILE)
    out = device.alloc(n, arr.dtype, name=f"{arr.name}.scan", init=False)
    totals = offsets = None
    if n_tiles > 1:
        totals = device.alloc(
            n_tiles, arr.dtype, name=f"{arr.name}.tiles", init=False
        )
        device.launch(
            _tile_reduce_kernel, n_tiles * TILE, arr, totals, n, np.add,
            name="scan_upsweep", block_size=TILE,
        )
        offsets = device_exclusive_scan(device, totals)
    device.launch(
        _downsweep_kernel, n_tiles * TILE, arr, out, offsets, n,
        name="scan_downsweep", block_size=TILE,
    )
    if totals is not None:
        device.free(totals)
        device.free(offsets)
    return out
