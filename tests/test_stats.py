"""Host-side log tables and the rank-sum test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.stats import (
    dependency_penalty_table,
    error_to_phred,
    log10_table,
    phred_to_error,
    rank_sum_pvalue,
    rank_sum_pvalues,
    rank_sum_statistic,
)


class TestLogTable:
    def test_values(self):
        t = log10_table(64)
        assert t[0] == 0.0
        assert t[10] == pytest.approx(1.0)
        assert t[1] == 0.0

    def test_default_size_matches_score_range(self):
        assert log10_table().size == 64

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            log10_table(0)


class TestPenaltyTable:
    def test_first_observation_unpenalized(self):
        t = dependency_penalty_table()
        assert t[0] == 0

    def test_default_three_phred_per_duplicate(self):
        t = dependency_penalty_table(pcr_dependency=0.5)
        assert t[1] == 3  # 10*log10(2) ~ 3.01
        assert t[2] == 6

    def test_monotone_nondecreasing(self):
        t = dependency_penalty_table()
        assert np.all(np.diff(t) >= 0)

    def test_no_dependency_no_penalty(self):
        t = dependency_penalty_table(pcr_dependency=1.0)
        assert np.all(t == 0)

    def test_invalid_coefficient(self):
        with pytest.raises(ValueError):
            dependency_penalty_table(pcr_dependency=0.0)
        with pytest.raises(ValueError):
            dependency_penalty_table(pcr_dependency=1.5)

    def test_integer_dtype(self):
        assert dependency_penalty_table().dtype == np.int32


class TestPhredConversions:
    def test_roundtrip(self):
        q = np.array([10, 20, 30])
        assert np.array_equal(error_to_phred(phred_to_error(q)), q)

    def test_q10_is_ten_percent(self):
        assert phred_to_error(10) == pytest.approx(0.1)

    def test_cap(self):
        assert error_to_phred(1e-30, cap=99) == 99


class TestRankSum:
    def test_identical_samples_high_pvalue(self):
        x = np.array([30, 31, 32, 33] * 5)
        assert rank_sum_pvalue(x, x) > 0.9

    def test_separated_samples_low_pvalue(self):
        x = np.full(15, 38.0)
        y = np.full(15, 5.0)
        assert rank_sum_pvalue(x, y) < 0.01

    def test_empty_sample_degenerate(self):
        assert rank_sum_pvalue(np.array([]), np.array([1.0])) == 1.0
        assert rank_sum_statistic(np.array([]), np.array([1.0])) == 0.0

    def test_all_tied_degenerate(self):
        x = np.full(5, 7.0)
        assert rank_sum_pvalue(x, x) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 40, 12).astype(float)
        y = rng.integers(0, 40, 8).astype(float)
        assert rank_sum_pvalue(x, y) == pytest.approx(rank_sum_pvalue(y, x))

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy(self, seed):
        """Tie-corrected normal approximation equals scipy.ranksums
        (scipy uses the same approximation without tie correction, so
        compare on tie-free samples)."""
        rng = np.random.default_rng(seed)
        x = rng.permutation(100)[:12].astype(float)
        y = rng.permutation(100)[60:75].astype(float) + 0.5
        ours = rank_sum_pvalue(x, y)
        theirs = sps.ranksums(x, y).pvalue
        assert ours == pytest.approx(theirs, abs=1e-9)

    def test_pvalue_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.integers(0, 41, rng.integers(1, 20)).astype(float)
            y = rng.integers(0, 41, rng.integers(1, 20)).astype(float)
            p = rank_sum_pvalue(x, y)
            assert 0.0 <= p <= 1.0


#: One group's observations: (score, in sample x).  Scores come from a
#: small range so ties are common; lists may be empty or one-sided.
_group_obs = st.lists(
    st.tuples(st.integers(0, 6), st.booleans()), max_size=12
)


def _forced(obs, kind):
    """Reshape one drawn group into a targeted edge case."""
    if kind == "all_tied":
        return [(3, x) for _, x in obs]
    if kind == "one_sided":
        return [(v, True) for v, _ in obs]
    if kind == "single":
        return obs[:1]
    return obs


class TestRankSumBatched:
    """The batched window test is bitwise equal to the scalar test."""

    @given(
        st.lists(
            st.tuples(
                _group_obs,
                st.sampled_from(["free", "all_tied", "one_sided", "single"]),
            ),
            min_size=1,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_per_group(self, groups, rnd):
        rows = [
            (g, float(v), x)
            for g, (obs, kind) in enumerate(groups)
            for v, x in _forced(obs, kind)
        ]
        # Observation order must not matter: shuffle across groups.
        rnd.shuffle(rows)
        group = np.array([r[0] for r in rows], dtype=np.int64)
        value = np.array([r[1] for r in rows], dtype=np.float64)
        is_x = np.array([r[2] for r in rows], dtype=bool)
        got = rank_sum_pvalues(group, value, is_x, len(groups))
        assert got.shape == (len(groups),)
        for g in range(len(groups)):
            mine = group == g
            want = rank_sum_pvalue(value[mine & is_x], value[mine & ~is_x])
            assert got[g].hex() == float(want).hex()

    def test_empty_input_all_ones(self):
        got = rank_sum_pvalues(
            np.array([], dtype=np.int64), np.array([]),
            np.array([], dtype=bool), 3,
        )
        assert np.array_equal(got, np.ones(3))
