"""Counter-based random number streams.

Every stochastic object in the package draws from a Philox generator keyed
by (master_seed, stream_index). Streams for distinct indices are independent
by construction, so ensembles can be generated in any batch/thread layout
and still produce bit-identical per-trajectory noise.

`normal_rows` draws many streams at once: it re-keys one Philox per call
to (master_seed, index) for each index in turn, counter 0 and an empty
buffer, so row j equals `stream(master_seed, indices[j]).standard_normal(shape)`
bit for bit without building a generator per row.
"""

import numpy as np

_LIMIT = 1 << 64


def _check(*halves):
    """Seed and indices must lie in [0, 2**64): they fill the two 64-bit
    halves of the Philox key, so a wider value would alias a smaller one."""
    if not all(0 <= half < _LIMIT for half in halves):
        raise ValueError("master_seed and index must lie in [0, 2**64)")


def stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for sub-stream `index` of `master_seed`: the
    seed fills the low and the index the high 64 bits of the Philox key."""
    _check(master_seed, index)
    key = int(master_seed) | (int(index) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_rows(master_seed: int, indices, shape: tuple) -> np.ndarray:
    """Standard normals of shape (len(indices), *shape) whose row j equals
    `stream(master_seed, indices[j]).standard_normal(shape)`."""
    indices = list(indices)
    _check(master_seed, *indices)
    out = np.empty((len(indices), *shape))
    gen = np.random.Generator(np.random.Philox(key=0))
    key = np.array([master_seed, 0], dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for row, index in zip(out, indices):
        key[1] = index
        gen.bit_generator.state = state
        gen.standard_normal(out=row)
    return out
