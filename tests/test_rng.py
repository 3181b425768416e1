import numpy as np
from hypothesis import given, strategies as st

from causalkit.rng import mix, uniform_matrix

U64 = st.integers(min_value=0, max_value=2**64 - 1)


def test_mix_matches_splitmix64_reference_stream():
    # First outputs of SplitMix64 seeded with 0 (reference implementation).
    assert mix(0, 0) == 0xE220A8397B1DCDAF
    assert mix(0, 1) == 0x6E789E6AA1B965F4
    assert mix(0, 2) == 0x06C45D188009454F


def _splitmix64_oracle(seed, count):
    # Straight port of the published reference generator.
    mask = (1 << 64) - 1
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@given(U64)
def test_mix_agrees_with_sequential_oracle(seed):
    assert [mix(seed, i) for i in range(8)] == _splitmix64_oracle(seed, 8)


# Row offsets near 0 and near 10^12, far past any array that fits in memory.
STARTS = st.integers(min_value=0, max_value=100) | st.integers(
    min_value=10**12 - 100, max_value=10**12 + 100
)


@given(
    U64,
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=6),
    STARTS,
)
def test_uniform_matrix_matches_scalar_mix(seed, n, k, start):
    mat = uniform_matrix(seed, n, k, start)
    assert mat.shape == (n, k)
    for i in range(n):
        for j in range(k):
            expected = (mix(mix(seed, start + i), j) >> 11) * 2.0**-53
            assert mat[i, j] == expected


@given(
    U64,
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=100),
)
def test_uniform_matrix_block_is_a_slice_of_the_whole(seed, n, k, start):
    whole = uniform_matrix(seed, start + n, k)
    assert np.array_equal(uniform_matrix(seed, n, k, start), whole[start:start + n])


def test_uniform_matrix_range_and_determinism():
    a = uniform_matrix(42, 1000, 5)
    b = uniform_matrix(42, 1000, 5)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(a < 1.0)


def test_uniform_matrix_prefix_stability():
    # The first rows do not depend on how many rows are requested.
    small = uniform_matrix(7, 10, 3)
    large = uniform_matrix(7, 1000, 3)
    assert np.array_equal(small, large[:10])
