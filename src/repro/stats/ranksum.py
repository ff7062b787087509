"""Wilcoxon rank-sum test (normal approximation).

SOAPsnp's output column 15 reports, for heterozygous candidates, the
p-value of a rank-sum test on the quality scores supporting the two
alleles: if one allele is only supported by low-quality bases the site is
probably a sequencing artifact rather than a SNP.  We implement the test
directly (tie-corrected normal approximation) rather than via
``scipy.stats`` so the computation is self-contained, deterministic, and
cheap to vectorize over sites: :func:`rank_sum_pvalues` tests every site
of a window in one sort, and the scalar :func:`rank_sum_pvalue` is its
reference.
"""

from __future__ import annotations

import math

import numpy as np


def rank_sum_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Return the z statistic of the Wilcoxon rank-sum test.

    ``x`` and ``y`` are the two samples (quality scores of the two
    alleles).  Returns 0.0 when either sample is empty or when there is no
    variance (all values tied).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n1, n2 = x.size, y.size
    if n1 == 0 or n2 == 0:
        return 0.0
    combined = np.concatenate([x, y])
    order = np.argsort(combined, kind="stable")
    ranks = np.empty_like(combined)
    ranks[order] = np.arange(1, combined.size + 1, dtype=np.float64)
    # Average ranks over ties.
    sorted_vals = combined[order]
    _, start, counts = np.unique(
        sorted_vals, return_index=True, return_counts=True
    )
    for s, c in zip(start, counts):
        if c > 1:
            idx = order[s : s + c]
            ranks[idx] = ranks[idx].mean()
    w = ranks[:n1].sum()
    n = n1 + n2
    mean_w = n1 * (n + 1) / 2.0
    # Tie correction for the variance.
    tie_term = ((counts**3 - counts).sum()) / float(n * (n - 1)) if n > 1 else 0.0
    var_w = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var_w <= 0:
        return 0.0
    return (w - mean_w) / math.sqrt(var_w)


def _normal_sf(z: float) -> float:
    """Survival function of the standard normal via erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def rank_sum_pvalue(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sided p-value of the rank-sum test; 1.0 for degenerate input."""
    z = rank_sum_statistic(x, y)
    p = 2.0 * _normal_sf(abs(z))
    return min(1.0, max(0.0, p))


def rank_sum_pvalues(
    group: np.ndarray,
    value: np.ndarray,
    is_x: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """Two-sided rank-sum p-values of many independent groups at once.

    Observation ``i`` belongs to group ``group[i]`` (``0 <= group <
    n_groups``) and to sample *x* of that group where ``is_x[i]``, else
    to sample *y*.  Returns a float64 array of length ``n_groups`` whose
    entry ``g`` is bitwise equal to ``rank_sum_pvalue(x_g, y_g)``.

    One lexsort by (group, value) ranks every group; a tie run's average
    rank is ``(first + last) / 2``.  Ranks are half-integers, so the
    per-group sums (``bincount``) are exact in float64 and every later
    step repeats the scalar test's arithmetic in the same order.
    """
    group = np.asarray(group, dtype=np.int64)
    value = np.asarray(value, dtype=np.float64)
    is_x = np.asarray(is_x, dtype=bool)
    p = np.ones(n_groups, dtype=np.float64)
    m = group.size
    if m == 0:
        return p
    order = np.lexsort((value, group))
    g = group[order]
    v = value[order]
    x = is_x[order]
    pos = np.arange(m, dtype=np.int64)

    new_group = np.ones(m, dtype=bool)
    new_group[1:] = g[1:] != g[:-1]
    new_run = new_group.copy()
    new_run[1:] |= v[1:] != v[:-1]
    group_start = np.maximum.accumulate(np.where(new_group, pos, 0))
    run_first = pos[new_run]
    run_len = np.diff(np.append(run_first, m))
    # 1-based ranks of each run's first and last member within its group.
    first = run_first - group_start[run_first] + 1
    last = first + run_len - 1
    run_rank = (first + last) / 2.0
    rank = run_rank[np.cumsum(new_run) - 1]

    n1 = np.bincount(g[x], minlength=n_groups)
    n = np.bincount(g, minlength=n_groups)
    n2 = n - n1
    w = np.bincount(g[x], weights=rank[x], minlength=n_groups)
    ties = np.bincount(
        g[run_first],
        weights=(run_len**3 - run_len).astype(np.float64),
        minlength=n_groups,
    )

    live = np.nonzero((n1 > 0) & (n2 > 0))[0]
    n1, n2, n, w, ties = n1[live], n2[live], n[live], w[live], ties[live]
    mean_w = n1 * (n + 1) / 2.0
    tie_term = ties / (n * (n - 1)).astype(np.float64)
    var_w = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    z = np.zeros(live.size, dtype=np.float64)
    ok = var_w > 0
    z[ok] = (w[ok] - mean_w[ok]) / np.sqrt(var_w[ok])
    scaled = np.abs(z) / math.sqrt(2.0)
    # Per-site scalar erfc: numpy has none, and a vectorized substitute
    # would not be bitwise equal to math.erfc.
    erfc = np.array([math.erfc(t) for t in scaled.tolist()], dtype=np.float64)
    p[live] = np.clip(2.0 * (0.5 * erfc), 0.0, 1.0)
    return p
