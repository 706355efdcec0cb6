"""Counter-based random number streams.

Every stochastic object in the package draws from a Philox generator keyed
by (master_seed, stream_index). Streams for distinct indices are independent
by construction, so ensembles can be generated in any batch/thread layout
and still produce bit-identical per-trajectory noise.
"""

import numpy as np

_LIMIT = 1 << 64


def stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for sub-stream `index` of `master_seed`.

    Both must lie in [0, 2**64): they fill the two 64-bit halves of the
    Philox key, so a wider value would alias a smaller one.
    """
    if not (0 <= master_seed < _LIMIT and 0 <= index < _LIMIT):
        raise ValueError("master_seed and index must lie in [0, 2**64)")
    key = int(master_seed) | (int(index) << 64)
    return np.random.Generator(np.random.Philox(key=key))
