"""Deterministic random streams built on splitmix64.

Every random draw in the package (fixture features, synthetic caption
templates, parameter init) comes through this module so that identical seeds
produce identical bytes on every platform, independent of numpy's own
generator evolution.
"""

from __future__ import annotations

import math

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
DRAW_CHUNK = 16384  # words drawn per vectorised pass: the pass's temporaries stay in cache


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 array ops wrap mod 2**64 without warnings, unlike numpy scalars
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Counter-based splitmix64 stream.

    Output i of the stream seeded with s is mix(s + (i+1)*GAMMA), which lets
    blocks of draws be produced vectorized while staying bit-identical to the
    scalar recurrence.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._count = 0

    def next_u64(self) -> int:
        self._count += 1
        return _mix64((self._seed + self._count * _GAMMA) & _MASK)

    def _block(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        out = _mix64_array(np.uint64(self._seed) + idx * np.uint64(_GAMMA))
        return out

    def uniform01(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), using the top 53 bits of each word."""
        out = np.empty(n)
        for lo in range(0, n, DRAW_CHUNK):
            chunk = out[lo:lo + DRAW_CHUNK]
            np.multiply(self._block(chunk.size) >> np.uint64(11), 2.0**-53, out=chunk)
        return out

    def uniform_sym(self, shape) -> np.ndarray:
        """Uniform(-1, 1) array of the given shape."""
        n = int(np.prod(shape)) if np.ndim(shape) else int(shape)
        return (2.0 * self.uniform01(n) - 1.0).reshape(shape)

    def uniform(self, lo: float, hi: float, shape) -> np.ndarray:
        n = int(np.prod(shape))
        return (lo + (hi - lo) * self.uniform01(n)).reshape(shape)

    def normal(self, sigma: float, shape) -> np.ndarray:
        """Box-Muller normals with standard deviation sigma."""
        n = int(np.prod(shape))
        u1 = (self.uniform01(n) * (1.0 - 2.0**-53)) + 2.0**-54  # keep u1 > 0
        u2 = self.uniform01(n)
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        return (sigma * z).reshape(shape)

    def randint(self, n: int) -> int:
        """Integer in [0, n) by rejection-free modulo (n is tiny here)."""
        return int(self.next_u64() % n)

    def shuffle(self, items: list) -> None:
        """Fisher-Yates, in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]
