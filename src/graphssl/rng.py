"""Counter-based pseudo-random generator used by every randomized routine.

The generator is SplitMix64 run in counter mode: draw ``i`` of stream
``seed`` is ``mix64(seed + (i + 1) * GOLDEN)`` where ``mix64`` is the
standard xor-shift/multiply finalizer.  The 64-bit integer stream is pure
integer arithmetic mod 2**64 and therefore reproduces bit-identically on
any platform; floats are derived from it through exact IEEE-754 scaling.
Normal deviates use the Box-Muller transform (log/cos from libm).
"""

from __future__ import annotations

import operator

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise over a uint64 array."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class PortableRng:
    """Deterministic random stream identified by an integer seed.

    Instances are cheap; derive independent sub-streams with
    :meth:`derive` rather than sharing one generator across components.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def derive(self, tag: int) -> "PortableRng":
        """Independent child stream keyed by ``tag``."""
        key = mix64(np.array([np.uint64(tag & 0xFFFFFFFFFFFFFFFF) + GOLDEN]))[0]
        return PortableRng(int(self._seed ^ key))

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return mix64(self._seed + idx * GOLDEN)

    def random(self, n: int) -> np.ndarray:
        """Uniform float64 in [0, 1), 53-bit resolution."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def random_open(self, n: int) -> np.ndarray:
        """Uniform float64 in (0, 1]; safe as a log() argument."""
        return ((self.raw(n) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def uniform(self, lo: float, hi: float, n: int) -> np.ndarray:
        return lo + (hi - lo) * self.random(n)

    def normal(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive pairs."""
        half = (n + 1) // 2
        u1 = self.random_open(half)
        u2 = self.random(half)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * half)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def shuffle_index(self, n: int) -> np.ndarray:
        """A permutation of range(n) by Fisher-Yates: for i from n - 1
        down to 1, swap entry i with entry min(floor(u * (i + 1)), i) for
        the next uniform u.  The swap indices are computed at once; the
        swaps run on a Python list."""
        if n < 2:
            return np.arange(n, dtype=np.int64)
        top = np.arange(n - 1, 0, -1)
        swaps = np.minimum((self.random(n - 1) * (top + 1)).astype(np.int64), top)
        perm = list(range(n))
        for i, j in zip(top.tolist(), swaps.tolist()):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)

    def choice(self, n: int, k: int) -> np.ndarray:
        """``k`` distinct indices from range(n), in draw order; 0 <= k <= n."""
        try:
            k = operator.index(k)
        except TypeError:
            raise ValueError(f"k must be an integer, got {k!r}") from None
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct indices from {n}")
        return self.shuffle_index(n)[:k]
