"""Small Monte-Carlo statistics helpers shared by the ensemble modules."""

from __future__ import annotations

import numpy as np
from scipy import stats as _st

from .hilbert import DensityMatrix, trace_distance


def mean_se(values: np.ndarray):
    """Sample mean and its standard error."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n < 2:
        return float(v.mean()) if n else np.nan, np.inf
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(n))


def block_sums(values: np.ndarray, n_blocks: int) -> np.ndarray:
    """Partition leading axis into n_blocks contiguous blocks and sum each."""
    v = np.asarray(values)
    n = v.shape[0]
    edges = np.linspace(0, n, n_blocks + 1).astype(int)
    return np.stack([v[a:b].sum(axis=0) for a, b in zip(edges[:-1], edges[1:])])


def jackknife_statistic(block_totals: np.ndarray, block_counts: np.ndarray, statistic):
    """Leave-one-block-out jackknife of a statistic of the ensemble mean.

    block_totals holds per-block sums of the averaged quantity; statistic
    maps the (leave-one-out) mean to a scalar. Returns (value, jackknife SE).
    """
    totals = np.asarray(block_totals)
    counts = np.asarray(block_counts, dtype=float)
    nb = len(counts)
    grand = totals.sum(axis=0)
    n = counts.sum()
    full = statistic(grand / n)
    loo = np.array([statistic((grand - totals[b]) / (n - counts[b])) for b in range(nb)])
    se = float(np.sqrt((nb - 1) / nb * ((loo - loo.mean()) ** 2).sum()))
    return float(full), se


def trace_distance_jackknife(block_totals: np.ndarray, block_counts: np.ndarray,
                             target):
    """Jackknife of the trace distance between the Hermitian part of the
    block-summed mean density matrix and the target. Returns (value, SE)."""
    return jackknife_statistic(
        block_totals, block_counts,
        lambda m: trace_distance(DensityMatrix(0.5 * (m + m.conj().T)), target))


def chi2_pvalue(counts, probs) -> float:
    """Pearson χ² p-value of observed counts against model probabilities."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    expected = probs / probs.sum() * counts.sum()
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return float(_st.chi2.sf(chi2, df=len(counts) - 1))
