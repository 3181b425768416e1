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
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _outputs(state: np.ndarray, i: int) -> np.ndarray:
    return _finalize_u64(state + np.uint64(((i + 1) * _GOLDEN) & _MASK))


def uniform_matrix(seed: int, n: int, k: int) -> np.ndarray:
    """Return the (n, k) matrix of uniforms used to simulate n rows of k nodes.

    Entry (i, j) equals ``mix(mix(seed, i), j) / 2**64`` (truncated to the top
    53 bits), computed vectorised.
    """
    rows = np.arange(n, dtype=np.uint64)
    row_seeds = _finalize_u64(
        np.uint64(seed & _MASK) + (rows + np.uint64(1)) * np.uint64(_GOLDEN)
    )
    out = np.empty((n, k), dtype=np.float64)
    for j in range(k):
        bits = _outputs(row_seeds, j)
        out[:, j] = (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    return out
