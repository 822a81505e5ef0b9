"""Tests for the analyzer's statistical primitives."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kfold_splits, percentile, proportion_exceeds_test


class TestProportionTest:
    def test_clear_excess_rejects(self):
        # 30% outliers against a 1% baseline over 200 tasks: unambiguous.
        result = proportion_exceeds_test(60, 200, 0.01, alpha=0.001)
        assert result.reject
        assert result.p_value < 0.001

    def test_at_baseline_does_not_reject(self):
        result = proportion_exceeds_test(2, 200, 0.01, alpha=0.001)
        assert not result.reject

    def test_below_baseline_does_not_reject(self):
        result = proportion_exceeds_test(0, 200, 0.05)
        assert not result.reject
        assert result.p_value == 1.0

    def test_empty_sample_never_rejects(self):
        result = proportion_exceeds_test(0, 0, 0.01)
        assert not result.reject

    def test_single_observation_never_rejects(self):
        result = proportion_exceeds_test(1, 1, 0.01)
        assert not result.reject

    def test_all_outliers_with_low_baseline_rejects(self):
        result = proportion_exceeds_test(50, 50, 0.01, alpha=0.001)
        assert result.reject

    def test_all_outliers_small_n_does_not_reject(self):
        # 2/2 outliers against a 20% baseline: 0.2^2 = 0.04 > 0.001.
        result = proportion_exceeds_test(2, 2, 0.2, alpha=0.001)
        assert not result.reject

    def test_invalid_successes_rejected(self):
        with pytest.raises(ValueError):
            proportion_exceeds_test(5, 3, 0.01)

    def test_invalid_baseline_rejected(self):
        with pytest.raises(ValueError):
            proportion_exceeds_test(1, 10, 1.5)

    def test_small_excess_needs_large_n(self):
        # 2% vs 1% baseline: not significant at n=100 at alpha=0.001 ...
        assert not proportion_exceeds_test(2, 100, 0.01, alpha=0.001).reject
        # ... but overwhelming at n=100000.
        assert proportion_exceeds_test(2000, 100000, 0.01, alpha=0.001).reject

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 500),
        k=st.integers(0, 500),
        baseline=st.floats(0.0, 1.0),
    )
    def test_pvalue_in_unit_interval(self, n, k, baseline):
        k = min(k, n)
        result = proportion_exceeds_test(k, n, baseline)
        assert 0.0 <= result.p_value <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(10, 300), baseline=st.floats(0.01, 0.5))
    def test_monotone_in_successes(self, n, baseline):
        # More outliers never makes the p-value larger.  The k == n endpoint
        # is excluded: there the implementation switches from the t
        # approximation to the exact binomial tail (sample variance is zero),
        # which is slightly more conservative than the t limit.
        previous = 1.0
        for k in range(0, n, max(1, n // 7)):
            p = proportion_exceeds_test(k, n, baseline).p_value
            assert p <= previous + 1e-12
            previous = p
        # The degenerate endpoint still rejects for large n at a tiny alpha.
        if n >= 30:
            assert proportion_exceeds_test(n, n, baseline, alpha=0.001).reject


ALPHA = 0.001


def assert_matches_t_sf(successes, n, baseline):
    """``proportion_exceeds_test`` against ``scipy.stats.t.sf``, exactly.

    The analyzer calls the Student-t kernel ``scipy.special.stdtr``;
    ``scipy.stats`` (a much heavier import) is the reference here only.
    Returns the reference p-value, or None where no t-test runs.
    """
    from scipy import stats

    result = proportion_exceeds_test(successes, n, baseline, alpha=ALPHA)
    phat = successes / n
    if n < 2 or phat <= baseline or phat == 1.0:
        return None
    statistic = (phat - baseline) / math.sqrt(phat * (1.0 - phat) / (n - 1))
    want = float(stats.t.sf(statistic, df=n - 1))
    assert result.statistic == statistic
    assert result.p_value == want
    assert result.reject == (want < ALPHA)
    return want


class TestStudentTail:
    @pytest.mark.parametrize("baseline", [0.001, 0.01, 0.2])
    @pytest.mark.parametrize("n", [2, 3, 6, 21, 101, 1001, 10001, 100001])
    def test_grid_straddles_alpha(self, n, baseline):
        # The smallest success count that rejects, by bisection on the
        # reference p-value, and its neighbours: p just above, at the
        # crossing, and just below alpha.  df = n - 1 runs from 1 to 1e5.
        lo, hi = math.floor(baseline * n) + 1, n - 1
        if lo > hi or assert_matches_t_sf(hi, n, baseline) >= ALPHA:
            assert n <= 6  # too few tasks to reject: check every count
            for k in range(n + 1):
                assert_matches_t_sf(k, n, baseline)
            return
        while lo < hi:
            mid = (lo + hi) // 2
            if assert_matches_t_sf(mid, n, baseline) < ALPHA:
                hi = mid
            else:
                lo = mid + 1
        for k in range(max(0, lo - 2), min(n, lo + 3)):
            assert_matches_t_sf(k, n, baseline)
        assert assert_matches_t_sf(lo, n, baseline) < ALPHA
        if lo - 1 > baseline * n:
            assert assert_matches_t_sf(lo - 1, n, baseline) >= ALPHA

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 100_001),
        share=st.floats(0.0, 1.0),
        baseline=st.floats(0.0, 1.0),
    )
    def test_matches_scipy_stats_t_sf(self, n, share, baseline):
        assert_matches_t_sf(round(share * n), n, baseline)


class TestPercentile:
    def test_median_of_odd_sample(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 0.25) == 2.5

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 9.0

    def test_single_value(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
        q=st.floats(0.0, 1.0),
    )
    def test_percentile_within_range(self, values, q):
        result = percentile(values, q)
        tolerance = 1e-9 * max(1.0, abs(min(values)), abs(max(values)))
        assert min(values) - tolerance <= result <= max(values) + tolerance

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(0, 1e6), min_size=2, max_size=50))
    def test_percentile_monotone_in_q(self, values):
        qs = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0]
        results = [percentile(values, q) for q in qs]
        tolerance = 1e-9 * max(1.0, abs(results[0]), abs(results[-1]))
        for earlier, later in zip(results, results[1:]):
            assert later >= earlier - tolerance


class TestKFold:
    def test_covers_all_indices_without_overlap(self):
        splits = kfold_splits(10, 3)
        covered = []
        for start, end in splits:
            covered.extend(range(start, end))
        assert covered == list(range(10))

    def test_fold_sizes_balanced(self):
        splits = kfold_splits(11, 5)
        sizes = [end - start for start, end in splits]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 11

    def test_k_larger_than_n_clamped(self):
        splits = kfold_splits(3, 10)
        assert len(splits) == 3

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            kfold_splits(0, 5)
        with pytest.raises(ValueError):
            kfold_splits(10, 1)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 200), k=st.integers(2, 12))
    def test_partition_property(self, n, k):
        splits = kfold_splits(n, k)
        assert splits[0][0] == 0
        assert splits[-1][1] == n
        for (s1, e1), (s2, e2) in zip(splits, splits[1:]):
            assert e1 == s2
