import numpy as np
import pytest

from collapsemc.streams import stream


@pytest.mark.parametrize("seed, index", [(2 ** 64, 0), (2 ** 64 + 7, 0), (0, 2 ** 64),
                                         (-1, 0), (0, -1)])
def test_stream_rejects_values_outside_64_bits(seed, index):
    with pytest.raises(ValueError):
        stream(seed, index)


def test_stream_key_is_seed_low_and_index_high():
    top = 2 ** 64 - 1
    for seed, index in [(7, 0), (7, 5), (top, top)]:
        expected = np.random.Generator(np.random.Philox(key=seed | index << 64))
        np.testing.assert_array_equal(stream(seed, index).standard_normal(4),
                                      expected.standard_normal(4))
