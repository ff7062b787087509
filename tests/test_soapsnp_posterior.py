"""Posterior calling and the 17-column site summary."""

from dataclasses import replace

import numpy as np
import pytest

from repro.align.records import AlignmentBatch
from repro.constants import GENOTYPES
from repro.formats.cns import NO_BASE
from repro.formats.window import Window
from repro.seqsim.datasets import KnownSnpPrior
from repro.soapsnp import (
    CallingParams,
    call_posterior,
    extract_observations,
    is_snp_call,
    summarize_window,
    window_type_likely,
)
from repro.soapsnp.observe import Observations
from repro.stats import rank_sum_pvalue


@pytest.fixture(scope="module")
def summary_setup(small_dataset, small_batch, small_pm_flat, small_penalty):
    params = CallingParams(read_len=small_batch.read_len)
    window = Window(start=0, end=small_dataset.n_sites, reads=small_batch)
    obs = extract_observations(window)
    tl = window_type_likely(obs, small_pm_flat, small_penalty)
    table = summarize_window(
        obs, 0, small_dataset.reference.codes, small_dataset.prior, tl,
        params, chrom=small_dataset.reference.name,
    )
    return small_dataset, obs, tl, table, params


class TestCallPosterior:
    def test_no_data_calls_hom_ref(self):
        params = CallingParams()
        tl = np.zeros((4, 10))
        ref = np.arange(4)
        rates = np.full(4, 0.001)
        g, q, _ = call_posterior(tl, ref, rates, params)
        for i in range(4):
            assert GENOTYPES[g[i]] == (i, i)

    def test_quality_capped(self):
        params = CallingParams()
        tl = np.zeros((1, 10))
        tl[0, 0] = 0.0
        tl[0, 1:] = -500.0  # overwhelming evidence for genotype 0
        g, q, _ = call_posterior(tl, np.array([0]), np.array([0.001]), params)
        assert q[0] == params.max_quality

    def test_ambiguous_evidence_low_quality(self):
        params = CallingParams()
        tl = np.full((1, 10), -5.0)  # all genotypes identical
        g, q, _ = call_posterior(tl, np.array([0]), np.array([0.5]), params)
        assert q[0] < 20

    def test_log_posterior_shape(self):
        params = CallingParams()
        tl = np.zeros((7, 10))
        _, _, lp = call_posterior(
            tl, np.zeros(7, dtype=int), np.full(7, 0.01), params
        )
        assert lp.shape == (7, 10)


class TestSummarizeWindow:
    def test_row_count_and_positions(self, summary_setup):
        ds, obs, tl, table, _ = summary_setup
        assert table.n_sites == ds.n_sites
        assert table.pos[0] == 1 and table.pos[-1] == ds.n_sites

    def test_validates(self, summary_setup):
        _, _, _, table, _ = summary_setup
        table.validate()

    def test_depth_equals_observation_count(self, summary_setup):
        ds, obs, _, table, _ = summary_setup
        depth = np.zeros(ds.n_sites, dtype=np.int64)
        np.add.at(depth, obs.site, 1)
        assert np.array_equal(table.depth, depth)

    def test_counts_consistent(self, summary_setup):
        _, _, _, table, _ = summary_setup
        assert np.all(table.count_uni_best <= table.count_all_best)
        assert np.all(table.count_all_best <= table.depth)

    def test_second_base_none_has_zero_stats(self, summary_setup):
        _, _, _, table, _ = summary_setup
        none = table.second_base == NO_BASE
        assert np.all(table.count_uni_second[none] == 0)
        assert np.all(table.avg_qual_second[none] == 0)

    def test_best_base_is_ref_at_empty_sites(self, summary_setup):
        _, _, _, table, _ = summary_setup
        empty = table.depth == 0
        if empty.any():
            assert np.array_equal(
                table.best_base[empty], table.ref_base[empty]
            )

    def test_known_snp_flag_matches_prior(self, summary_setup):
        ds, _, _, table, _ = summary_setup
        flagged = set((table.pos[table.known_snp == 1] - 1).tolist())
        assert flagged == set(ds.prior.positions.tolist())

    def test_rank_sum_default_one(self, summary_setup):
        _, _, _, table, _ = summary_setup
        no_second = table.count_uni_second == 0
        assert np.all(table.rank_sum[no_second] == 1.0)

    def test_copy_number_one_without_multihits(self, summary_setup):
        _, _, _, table, _ = summary_setup
        # Sites made only of unique reads have copy number exactly 1.
        pure = (table.depth > 0) & (table.copy_num > 0)
        assert np.all(table.copy_num[pure] >= 1.0)

    def test_calls_recover_planted_snps(self, summary_setup):
        ds, _, _, table, _ = summary_setup
        calls = set((table.pos[is_snp_call(table)] - 1).tolist())
        covered_truth = {
            int(p)
            for p in ds.diploid.snp_positions
            if table.depth[int(p)] >= 4
        }
        recall = len(calls & covered_truth) / max(len(covered_truth), 1)
        assert recall > 0.8

    def test_few_false_positives(self, summary_setup):
        ds, _, _, table, _ = summary_setup
        quality_calls = is_snp_call(table) & (table.quality >= 13)
        calls = set((table.pos[quality_calls] - 1).tolist())
        truth = set(ds.diploid.snp_positions.tolist())
        fp = len(calls - truth)
        assert fp <= max(2, len(calls) // 5)

    def test_avg_quality_bounds(self, summary_setup):
        _, _, _, table, _ = summary_setup
        assert table.avg_qual_best.max() < 64
        assert table.avg_qual_second.max() < 64


def _het_window(n_sites=400, depth=30, seed=7):
    """A seeded window where nearly every site carries two alleles."""
    rng = np.random.default_rng(seed)
    site = np.repeat(np.arange(n_sites), depth)
    alleles = rng.integers(0, 4, (n_sites, 3))
    pick = rng.choice(3, size=site.size, p=[0.55, 0.4, 0.05])
    base = alleles[site, pick].astype(np.uint8)
    # Coarse scores so rank ties are common.
    score = (rng.integers(0, 9, site.size) * 5).astype(np.uint8)
    hits = np.where(rng.random(site.size) < 0.1, 2, 1).astype(np.uint8)
    zeros = np.zeros(site.size, dtype=np.uint8)
    obs = Observations(
        n_sites=n_sites, site=site.astype(np.int64), base=base, score=score,
        coord=zeros, strand=zeros, hits=hits, unique=hits == 1,
        counted=hits == 1,
    )
    ref = rng.integers(0, 4, n_sites).astype(np.uint8)
    return obs, ref


def _per_site_rank_sum(obs, table):
    """The per-het-site reference loop over the scalar test."""
    rank_sum = np.ones(obs.n_sites, dtype=np.float32)
    het = (table.count_uni_best > 0) & (table.count_uni_second > 0)
    for s in np.nonzero(het)[0]:
        mine = (obs.site == s) & obs.unique
        x = obs.score[mine & (obs.base == table.best_base[s])]
        y = obs.score[mine & (obs.base == table.second_base[s])]
        rank_sum[s] = rank_sum_pvalue(x, y)
    return np.round(rank_sum.astype(np.float64), 2).astype(np.float32)


class TestBatchedRankSum:
    def test_matches_per_site_loop(self):
        obs, ref = _het_window()
        empty = KnownSnpPrior(
            positions=np.zeros(0, dtype=np.int64), rates=np.zeros(0)
        )
        table = summarize_window(
            obs, 1000, ref, empty, np.zeros((obs.n_sites, 10)),
            CallingParams(), chrom="c",
        )
        het = (table.count_uni_best > 0) & (table.count_uni_second > 0)
        assert het.sum() > 300
        assert (table.rank_sum < 1).sum() > 10
        expected = replace(table, rank_sum=_per_site_rank_sum(obs, table))
        assert table.equals(expected)


class TestIsSnpCall:
    def test_hom_ref_not_called(self):
        from repro.formats.cns import ResultTable

        t = ResultTable.empty("c")
        t.pos = np.array([1], dtype=np.int64)
        t.ref_base = np.array([2], dtype=np.uint8)
        t.genotype = np.array([GENOTYPES.index((2, 2))], dtype=np.uint8)
        assert not is_snp_call(t)[0]

    def test_het_called(self):
        from repro.formats.cns import ResultTable

        t = ResultTable.empty("c")
        t.pos = np.array([1], dtype=np.int64)
        t.ref_base = np.array([0], dtype=np.uint8)
        t.genotype = np.array([GENOTYPES.index((0, 2))], dtype=np.uint8)
        assert is_snp_call(t)[0]
