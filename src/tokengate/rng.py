"""Explicit, portable pseudo-random generator.

A splitmix64 counter generator: 64 bits of state, advanced by a fixed odd
increment, with each output produced by a stateless mixing function.  The
counter construction makes draws vectorizable and the generator cheaply
splittable into independent child streams.  Synthetic streams and toy model
weights are derived from this generator only, so a fixed seed pins every
array in a run bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .kernels import check_integer

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
# 2**-53, scale for mapping the top 53 bits onto [0, 1)
_U53 = 1.0 / 9007199254740992.0


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class SplitRng:
    """splitmix64 stream with vectorized draws and child-stream splitting."""

    def __init__(self, seed: int):
        self._state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def next_uint64(self, n: int) -> np.ndarray:
        """Draw n raw 64-bit words and advance the state by n steps."""
        check_integer("n", n, 0)
        with np.errstate(over="ignore"):
            steps = (np.arange(1, n + 1, dtype=np.uint64) * _GAMMA) & _MASK
            words = _mix(self._state + steps)
            self._state = (self._state + np.uint64(n) * _GAMMA) & _MASK
        return words

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]; never exactly 0 so log() is safe."""
        bits = self.next_uint64(n) >> np.uint64(11)
        return (bits.astype(np.float64) + 1.0) * _U53

    def normal(self, shape) -> np.ndarray:
        """Standard normal draws via Box-Muller, reshaped to `shape`."""
        dims = tuple(shape) if np.ndim(shape) else (shape,)
        for size in dims:
            check_integer("shape", size, 0)
        n = int(np.prod(dims, dtype=np.int64))
        pairs = (n + 1) // 2
        u1 = self.uniform(pairs)
        u2 = self.uniform(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:n]
        return z.reshape(shape)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n ints uniform on [0, bound) by 64-bit modular reduction.

        Modulo bias is below 2**-50 for any desk-scale bound; accepted for
        the sake of a trivially portable definition.
        """
        check_integer("bound", bound, 1)
        return (self.next_uint64(n) % np.uint64(bound)).astype(np.int64)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct ints from [0, n), ascending (partial Fisher-Yates)."""
        check_integer("k", k, 0)
        check_integer("n", n, k)
        pool = np.arange(n, dtype=np.int64)
        draws = self.next_uint64(k)
        for i in range(k):
            j = i + int(draws[i] % np.uint64(n - i))
            pool[i], pool[j] = pool[j], pool[i]
        picked = pool[:k]
        picked.sort()
        return picked

    def substream(self, tag: int) -> "SplitRng":
        """Independent child stream keyed by a tag; this stream is untouched.

        Distinct tags give decorrelated children, so different consumers of
        one user-facing seed (weights, frames) cannot collide.
        """
        with np.errstate(over="ignore"):
            tagged = (np.uint64(tag & 0xFFFFFFFFFFFFFFFF) + np.uint64(1)) * _GAMMA
            return SplitRng(int(_mix(self._state ^ _mix(tagged))))
