"""Counter-based random number streams.

Every stochastic object in the package draws from a Philox generator keyed
by (master_seed, stream_index). Streams for distinct indices are independent
by construction, so ensembles can be generated in any batch/process layout
and still produce bit-identical per-trajectory noise.

`normal_rows` draws many streams at once: it re-keys one Philox per call
to (master_seed, index) for each index in turn, counter 0 and an empty
buffer, so row j equals `stream(master_seed, indices[j]).standard_normal(shape)`
bit for bit without building a generator per row.

`NormalSlabs` is the slab path for rows too long to hold at once: one live
Philox per row, re-keyed the same way, so each `fill` continues every row
where the previous one stopped, and a row's slabs, concatenated along their
first axis, equal its `stream(master_seed, index).standard_normal` draw.
"""

import numpy as np

_LIMIT = 1 << 64


def _check(master_seed, indices):
    """Seed and indices must lie in [0, 2**64): they fill the two 64-bit
    halves of the Philox key, so a wider value would alias a smaller one.
    Only the smallest and the largest index need the test."""
    halves = [master_seed, min(indices), max(indices)] if len(indices) else [master_seed]
    if not all(0 <= half < _LIMIT for half in halves):
        raise ValueError("master_seed and index must lie in [0, 2**64)")


def stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for sub-stream `index` of `master_seed`: the
    seed fills the low and the index the high 64 bits of the Philox key."""
    _check(master_seed, [index])
    key = int(master_seed) | (int(index) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _start_state(master_seed: int) -> tuple:
    """Philox state at counter 0 with an empty buffer, and its key array:
    setting key[1] = index and assigning the state to a generator's
    `bit_generator.state` starts stream (master_seed, index) on it."""
    key = np.array([master_seed, 0], dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    return state, key


def normal_rows(master_seed: int, indices, shape: tuple) -> np.ndarray:
    """Standard normals of shape (len(indices), *shape) whose row j equals
    `stream(master_seed, indices[j]).standard_normal(shape)`."""
    indices = list(indices)
    _check(master_seed, indices)
    out = np.empty((len(indices), *shape))
    gen = np.random.Generator(np.random.Philox(key=0))
    state, key = _start_state(master_seed)
    for row, index in zip(out, indices):
        key[1] = index
        gen.bit_generator.state = state
        gen.standard_normal(out=row)
    return out


class NormalSlabs:
    """Up to `n_rows` streams drawn slab by slab from one live Philox each.

    After `start(master_seed, indices)`, each `fill(out)` writes the next
    out.shape[1:] normals of stream (master_seed, indices[j]) into out[j].
    Generators are built once and re-keyed by `start`, never saved and
    restored, so a slab costs one draw call per row.
    """

    def __init__(self, n_rows: int):
        # any seed will do, since `start` re-keys; a fixed one spares the OS
        # entropy read of an unseeded Philox, a third of its build time
        seed = np.random.SeedSequence(0)
        self._gens = [np.random.Generator(np.random.Philox(seed)) for _ in range(n_rows)]
        self._live = []

    def start(self, master_seed: int, indices):
        indices = list(indices)
        _check(master_seed, indices)
        if len(indices) > len(self._gens):
            raise ValueError(f"{len(indices)} streams asked of {len(self._gens)}")
        state, key = _start_state(master_seed)
        self._live = self._gens[:len(indices)]
        for gen, index in zip(self._live, indices):
            key[1] = index
            gen.bit_generator.state = state

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Fill out[j] (C-contiguous) with the next normals of live stream j."""
        if len(out) != len(self._live):
            raise ValueError(f"{len(out)} rows given for {len(self._live)} live streams")
        for gen, row in zip(self._live, out):
            gen.standard_normal(out=row)
        return out
