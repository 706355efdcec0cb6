import numpy as np
import pytest

from collapsemc.streams import NormalSlabs, normal_rows, stream


@pytest.mark.parametrize("seed, index", [(2 ** 64, 0), (2 ** 64 + 7, 0), (0, 2 ** 64),
                                         (-1, 0), (0, -1)])
def test_stream_rejects_values_outside_64_bits(seed, index):
    with pytest.raises(ValueError):
        stream(seed, index)
    with pytest.raises(ValueError):
        normal_rows(seed, [0, index], (2, 3))
    with pytest.raises(ValueError):
        normal_rows(seed, [index], (2, 3))


@pytest.mark.parametrize("bad", [-1, 2 ** 64])
def test_one_bad_index_inside_a_long_list_is_refused(bad):
    """The check looks at the smallest and largest index, so one bad index
    anywhere among 1,000 good ones is found."""
    indices = list(range(1000))
    indices[517] = bad
    with pytest.raises(ValueError, match=r"^master_seed and index must lie in \[0, 2\*\*64\)$"):
        normal_rows(3, indices, (2,))
    with pytest.raises(ValueError, match=r"^master_seed and index must lie in \[0, 2\*\*64\)$"):
        NormalSlabs(1000).start(3, indices)


def test_stream_key_is_seed_low_and_index_high():
    top = 2 ** 64 - 1
    for seed, index in [(7, 0), (7, 5), (top, top)]:
        expected = np.random.Generator(np.random.Philox(key=seed | index << 64))
        np.testing.assert_array_equal(stream(seed, index).standard_normal(4),
                                      expected.standard_normal(4))


@pytest.mark.parametrize("seed", [0, 16, 2 ** 64 - 1])
@pytest.mark.parametrize("shape", [(5,), (1, 64), (2, 1, 7), (40, 3)])
def test_normal_rows_equal_per_index_streams(seed, shape):
    """Unordered and repeated indices, including the largest, each row from
    its own stream; the shared generator carries nothing between rows."""
    indices = [9, 3, 9, 0, 2 ** 64 - 1, 4, 3]
    expected = np.array([stream(seed, i).standard_normal(shape) for i in indices])
    assert np.array_equal(normal_rows(seed, indices, shape), expected)
    assert np.array_equal(normal_rows(seed, np.array(indices[:4]), shape), expected[:4])


def test_normal_rows_of_no_index_is_empty():
    assert normal_rows(3, [], (2, 4)).shape == (0, 2, 4)
    with pytest.raises(ValueError):
        normal_rows(2 ** 64, [], (2, 4))


@pytest.mark.parametrize("slab_steps", [1, 3, 7, 16, 40])
def test_normal_slabs_concatenate_to_normal_rows(slab_steps):
    """Slabs cut from one buffer, as the CSL ensemble does, split 17 steps
    unevenly; concatenated along time they are the rows of `normal_rows`.
    Re-keying restarts every stream, whatever was drawn before."""
    seed, n_steps, n_sites = 5, 17, 3
    indices = [4, 0, 2 ** 64 - 1, 9]
    slabs = NormalSlabs(6)
    buffer = np.empty((6, slab_steps, n_sites))
    slabs.start(seed + 1, range(6))
    slabs.fill(buffer)
    slabs.start(seed, indices)
    parts = [slabs.fill(buffer[:len(indices), :min(slab_steps, n_steps - k)]).copy()
             for k in range(0, n_steps, slab_steps)]
    expected = normal_rows(seed, indices, (n_steps, n_sites))
    assert np.array_equal(np.concatenate(parts, axis=1), expected)


def test_normal_slabs_refuse_more_streams_than_built():
    slabs = NormalSlabs(2)
    with pytest.raises(ValueError):
        slabs.start(0, [0, 1, 2])
    with pytest.raises(ValueError):
        slabs.start(2 ** 64, [0])
    slabs.start(0, [0, 1])
    with pytest.raises(ValueError):
        slabs.fill(np.empty((1, 4)))
