"""Launch-plan scheduling for ragged cross-window megabatches.

The per-window pipeline fires a full counting -> sort -> likelihood ->
posterior -> compress kernel chain for every ~3k-site window, so a
chromosome run pays thousands of launches for tiny grids.  The fused
execution path instead concatenates the windows of a prefetch batch into
one *ragged megabatch*: a flat site axis with CSR-style per-window
offsets and a site -> window segment-id map.  Device work then launches
once per megabatch — multipass sort size buckets are re-bucketed across
windows, the likelihood/posterior pair is fused into a single kernel,
and the output codec runs segmented over all window columns at once.

This module is the scheduler half: it knows *where* each window lives
inside the flat layout (:class:`LaunchPlan`) and *what* the fusion saved
(:class:`LaunchTally`), but contains no kernels itself — those live in
``repro.gpusim.primitives.segmented`` and ``repro.core.fused``.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

#: Windows concatenated into one ragged megabatch.  Matches the shard
#: granularity the executor hands the fused path; 16 windows of ~3k
#: sites keeps every flat array well under the M2050 memory model while
#: amortising launch overhead ~16x for the per-window kernel chain.
MEGABATCH_WINDOWS = 16

#: Host-side launcher functions whose device work the fused path
#: replaces with a single megabatch launch sequence.  gsnp-lint rules
#: GSNP107 / GSNP111 flag calls to these names inside a per-window or
#: per-sample loop.
FUSABLE_LAUNCHERS = frozenset(
    {
        "gsnp_counting",
        "gsnp_likelihood_sort",
        "gsnp_likelihood_comp",
        "gsnp_posterior",
        "gsnp_recycle",
        "encode_table",
        "rle_dict_encode_gpu",
        "dict_encode_gpu",
    }
)


@dataclass(frozen=True)
class WindowSegment:
    """One window's slot inside the ragged megabatch.

    ``site_offset``/``obs_offset`` locate the window's slice on the flat
    site and observation axes; ``start``/``end`` are its reference
    coordinates, unchanged from the underlying :class:`Window`.
    ``sample`` is the cohort sample this segment belongs to (0 for a
    single-sample plan): a cohort megabatch lays S samples' copies of
    the same reference windows out sample-major on one flat axis, so the
    segment kernels never distinguish "another window" from "another
    sample's window".
    """

    index: int
    start: int
    end: int
    n_sites: int
    site_offset: int
    obs_offset: int
    sample: int = 0

    @property
    def site_slice(self) -> slice:
        return slice(self.site_offset, self.site_offset + self.n_sites)


@dataclass(frozen=True)
class LaunchPlan:
    """CSR-style layout of a megabatch: segments + flat-axis totals.

    ``site_offsets`` has ``n_windows + 1`` entries (classic CSR row
    pointers over the flat site axis); :meth:`site_window` expands it to
    a per-site segment-id array for device-side segmented primitives.
    """

    segments: Tuple[WindowSegment, ...]
    n_sites: int
    n_obs: int

    @property
    def n_windows(self) -> int:
        return len(self.segments)

    @property
    def n_samples(self) -> int:
        """Number of cohort samples laid out in this plan (1 if solo)."""
        if not self.segments:
            return 1
        return max(seg.sample for seg in self.segments) + 1

    def sample_segments(self, sample: int) -> Tuple[WindowSegment, ...]:
        """The segments belonging to one cohort sample, in window order."""
        return tuple(seg for seg in self.segments if seg.sample == sample)

    @property
    def site_offsets(self) -> np.ndarray:
        out = np.zeros(self.n_windows + 1, dtype=np.int64)
        for seg in self.segments:
            out[seg.index + 1] = seg.site_offset + seg.n_sites
        return out

    def site_window(self) -> np.ndarray:
        """Per-site window (segment) ids, shape ``(n_sites,)``."""
        counts = [seg.n_sites for seg in self.segments]
        return np.repeat(np.arange(self.n_windows, dtype=np.int32), counts)


def build_launch_plan(windows: Sequence, obs_counts: Sequence[int]) -> LaunchPlan:
    """Lay one sample's batch of windows out on flat site/observation axes
    (the single-sample case of :func:`build_cohort_plan`)."""
    return build_cohort_plan(windows, obs_counts, [0] * len(windows))


def build_cohort_plan(
    windows: Sequence,
    obs_counts: Sequence[int],
    samples: Sequence[int],
) -> LaunchPlan:
    """Lay a sample-major cohort megabatch out on one flat axis.

    ``windows``/``obs_counts``/``samples`` are parallel and already in
    sample-major order: all of sample 0's windows for this megabatch,
    then all of sample 1's, and so on.  Segment indices stay sequential
    (0 .. S*W-1) because the flat-axis machinery — ``site_offsets``,
    :func:`repro.core.fused.merge_observations`, the segmented
    primitives — is segment-count agnostic; the ``sample`` tag exists
    only so the host epilogue can route each window's result table back
    to its own sample's output stream.
    """
    if not len(windows) == len(obs_counts) == len(samples):
        raise ValueError("windows, obs_counts and samples must align")
    if list(samples) != sorted(samples):
        raise ValueError("cohort plan segments must be sample-major")
    segments: List[WindowSegment] = []
    site_off = 0
    obs_off = 0
    for i, (window, n_obs, sample) in enumerate(
        zip(windows, obs_counts, samples)
    ):
        segments.append(
            WindowSegment(
                index=i,
                start=window.start,
                end=window.end,
                n_sites=window.n_sites,
                site_offset=site_off,
                obs_offset=obs_off,
                sample=int(sample),
            )
        )
        site_off += window.n_sites
        obs_off += int(n_obs)
    return LaunchPlan(segments=tuple(segments), n_sites=site_off, n_obs=obs_off)


def chunk_windows(windows: Iterable, size: int) -> Iterator[list]:
    """Group a window stream into megabatch-sized lists (last may be short)."""
    if size < 1:
        raise ValueError("megabatch size must be >= 1")
    it = iter(windows)
    while True:
        group = list(itertools.islice(it, size))
        if not group:
            return
        yield group


@dataclass
class _StageStat:
    launches: int = 0
    windows: int = 0
    batches: int = 0


@dataclass
class LaunchTally:
    """Segment-aware launch accounting for the fused path.

    Each fused stage records how many kernel launches it actually issued
    (measured from the device counter book, not estimated) and how many
    windows that batch covered, so ``launches / windows`` exposes the
    per-window launch cost the fusion achieved for every stage.
    """

    stages: Dict[str, _StageStat] = field(default_factory=dict)

    def note(self, stage: str, launches: int, windows: int) -> None:
        st = self.stages.setdefault(stage, _StageStat())
        st.launches += int(launches)
        st.windows += int(windows)
        st.batches += 1

    @contextmanager
    def measure(self, device, stage: str, windows: int):
        """Attribute launches issued inside the block to ``stage``."""
        before = device.counters.total().launches
        yield
        after = device.counters.total().launches
        self.note(stage, after - before, windows)

    def total_launches(self) -> int:
        return sum(st.launches for st in self.stages.values())

    def summary(self) -> dict:
        return {
            name: {
                "launches": st.launches,
                "windows": st.windows,
                "batches": st.batches,
            }
            for name, st in sorted(self.stages.items())
        }


__all__ = [
    "FUSABLE_LAUNCHERS",
    "LaunchPlan",
    "LaunchTally",
    "MEGABATCH_WINDOWS",
    "WindowSegment",
    "build_cohort_plan",
    "build_launch_plan",
    "chunk_windows",
]
