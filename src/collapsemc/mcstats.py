"""Small Monte-Carlo statistics helpers shared by the ensemble modules.

Block policy: every jackknife in the package splits its n samples, in index
order, with `block_edges` into min(N_BLOCKS, n) contiguous, non-empty blocks
whose sizes differ by at most one. Ensembles that run block by block and
`block_sums` both use it, so a block total always comes with its true size.

The χ² tail probability is `scipy.special.chdtrc`, the function that
`scipy.stats.chi2.sf` evaluates.
"""

from __future__ import annotations

import numpy as np
from scipy.special import chdtrc

from .hilbert import DensityMatrix, trace_distance

N_BLOCKS = 50


def mean_se(values: np.ndarray):
    """Sample mean and its standard error."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n < 2:
        return float(v.mean()) if n else np.nan, np.inf
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(n))


def block_edges(n: int, n_blocks: int = N_BLOCKS) -> np.ndarray:
    """Edges of min(n_blocks, n) contiguous, non-empty, near-equal blocks
    of n samples: block b holds samples edges[b] to edges[b + 1] − 1."""
    return np.linspace(0, n, min(n_blocks, n) + 1).astype(int)


def block_sums(values: np.ndarray):
    """Sum the leading axis over the `block_edges` blocks; returns the block
    totals and the block sizes."""
    v = np.asarray(values)
    edges = block_edges(v.shape[0])
    totals = np.stack([v[a:b].sum(axis=0) for a, b in zip(edges[:-1], edges[1:])])
    return totals, np.diff(edges)


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
    return float(chdtrc(len(counts) - 1, chi2))
