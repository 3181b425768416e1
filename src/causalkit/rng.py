"""Counter-based random numbers built on the SplitMix64 generator.

Every random draw in causalkit is a pure function of a 64-bit seed and a
counter, using the SplitMix64 sequence (Steele, Lea & Flood 2014; the
generator behind ``java.util.SplittableRandom``).  ``mix(seed, i)`` is the
i-th output of a SplitMix64 stream whose state starts at ``seed``.  Because
draws are addressed rather than streamed, any row range of a simulated
dataset and any bootstrap replicate can be regenerated independently, bit
for bit, whatever range or chunk it is drawn in.

Simulation contract: row ``i`` of a dataset draws its per-row stream seed as
``mix(master_seed, i)``, and the uniform for the j-th node of that row (in
declared node order) is ``mix(row_seed, j)`` scaled to [0, 1) with 53-bit
precision.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

__all__ = ["mix", "uniform_matrix"]


def mix(seed: int, i: int) -> int:
    """Return the i-th (0-based) output of SplitMix64 seeded with ``seed``."""
    z = (seed + (i + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _finalize_u64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, computed in place on ``z`` (a temporary
    that both callers create) and returned."""
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _outputs(state: np.ndarray, i: int) -> np.ndarray:
    return _finalize_u64(state + np.uint64(((i + 1) * _GOLDEN) & _MASK))


def uniform_matrix(seed: int, n: int, k: int, start: int = 0) -> np.ndarray:
    """Return the (n, k) matrix of uniforms used to simulate rows
    ``start`` to ``start + n - 1`` of k nodes.

    Entry (i, j) equals ``mix(mix(seed, start + i), j) / 2**64`` (truncated
    to the top 53 bits), computed vectorised, so any block of rows is the
    same slice of one long matrix.
    """
    rows = np.arange(start, start + n, dtype=np.uint64)
    row_seeds = _finalize_u64(
        np.uint64(seed & _MASK) + (rows + np.uint64(1)) * np.uint64(_GOLDEN)
    )
    # Node-major, so that each node's column is written and read contiguously.
    out = np.empty((k, n), dtype=np.float64)
    for j in range(k):
        bits = _outputs(row_seeds, j)
        np.multiply(np.right_shift(bits, np.uint64(11), out=bits), 2.0 ** -53, out=out[j])
    return out.T
