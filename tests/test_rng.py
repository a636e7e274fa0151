"""The vectorised splitmix64 draws against the scalar recurrence."""

import math

import numpy as np
import pytest

from synret.rng import DRAW_CHUNK, SplitMix64


@pytest.mark.parametrize("n", [0, 1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1,
                               3 * DRAW_CHUNK + 5])
def test_uniform01_equals_scalar_draws(n):
    fast, slow = SplitMix64(99), SplitMix64(99)
    fast.next_u64()  # a stream that does not start at the seed
    slow.next_u64()
    got = fast.uniform01(n)
    want = [(slow.next_u64() >> 11) * 2.0**-53 for _ in range(n)]
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got, np.array(want, dtype=np.float64))
    assert fast.next_u64() == slow.next_u64()  # the counter ends in the same place


def test_normal_draws_every_u1_before_any_u2():
    n = DRAW_CHUNK + 3
    got = SplitMix64(7).normal(0.5, (n,))
    rng = SplitMix64(7)
    u1 = np.array([(rng.next_u64() >> 11) * 2.0**-53 for _ in range(n)])
    u2 = np.array([(rng.next_u64() >> 11) * 2.0**-53 for _ in range(n)])
    u1 = u1 * (1.0 - 2.0**-53) + 2.0**-54
    want = 0.5 * (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2))
    assert np.array_equal(got, want)
