import math

import numpy as np
import pytest

from collapsemc.mcstats import (N_BLOCKS, block_edges, block_sums, chi2_pvalue,
                                jackknife_statistic, mean_se)


@pytest.mark.parametrize("n", [10, 1001, 200000])
def test_blocks_are_contiguous_non_empty_and_sum_to_slices(n):
    edges = block_edges(n)
    sizes = np.diff(edges)
    assert edges[0] == 0 and edges[-1] == n
    assert sizes.sum() == n
    assert len(sizes) == min(N_BLOCKS, n)
    assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1
    values = np.random.default_rng(n).normal(size=(n, 3))
    totals, counts = block_sums(values)
    np.testing.assert_array_equal(counts, sizes)
    for total, lo, hi in zip(totals, edges[:-1], edges[1:]):
        np.testing.assert_array_equal(total, values[lo:hi].sum(axis=0))


def test_jackknife_se_of_mean_is_se_of_equal_block_means():
    values = np.random.default_rng(3).exponential(size=1000)
    totals, counts = block_sums(values)
    assert len(set(counts)) == 1
    mean, se = jackknife_statistic(totals, counts, lambda m: m)
    block_mean, block_se = mean_se(totals / counts)
    assert mean == pytest.approx(values.mean(), rel=1e-12)
    assert se == pytest.approx(block_se, rel=1e-10)
    assert block_mean == pytest.approx(values.mean(), rel=1e-12)


@pytest.mark.parametrize("counts, probs, expected", [
    ([60, 40], [0.5, 0.5], math.erfc(math.sqrt(2.0))),   # chi2 = 4, df = 1
    ([50, 30, 20], [1, 1, 1], math.exp(-7.0)),          # chi2 = 14, df = 2
])
def test_chi2_pvalue_textbook_values(counts, probs, expected):
    assert chi2_pvalue(counts, probs) == pytest.approx(expected, rel=1e-10)


def test_mean_se_below_two_samples():
    assert mean_se(np.array([2.5])) == (2.5, np.inf)
    mean, se = mean_se(np.array([]))
    assert np.isnan(mean) and se == np.inf
