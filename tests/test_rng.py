import numpy as np
import pytest

from graphssl.rng import PortableRng, mix64

# Frozen reference values of the raw stream for seed 0: mix64((i+1) * GOLDEN).
# Computed once with plain Python integer arithmetic (mod 2**64) and pinned so
# any platform or refactor drift is caught.
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64_int(z: int) -> int:
    z &= 0xFFFFFFFFFFFFFFFF
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 31
    return z


def test_raw_stream_matches_integer_reference():
    rng = PortableRng(12345)
    got = rng.raw(8)
    want = [_mix64_int((12345 + (i + 1) * _GOLDEN) & 0xFFFFFFFFFFFFFFFF) for i in range(8)]
    assert [int(v) for v in got] == want


def test_streams_are_reproducible_and_seed_sensitive():
    a = PortableRng(7).random(100)
    b = PortableRng(7).random(100)
    c = PortableRng(8).random(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_range_and_moments():
    u = PortableRng(1).random(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normal_moments():
    z = PortableRng(2).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_shuffle_is_permutation():
    perm = PortableRng(4).shuffle_index(257)
    assert np.array_equal(np.sort(perm), np.arange(257))


def _shuffle_index_loop(rng, n):
    """Fisher-Yates with one swap index computed per step, as shuffle_index
    was first written: the reference its vectorized swap indices must match."""
    perm = np.arange(n, dtype=np.int64)
    if n < 2:
        return perm
    draws = rng.random(n - 1)
    for i in range(n - 1, 0, -1):
        j = min(int(draws[n - 1 - i] * (i + 1)), i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def test_shuffle_equals_the_swap_loop():
    for seed in range(50):
        for n in (0, 1, 2, 3, 17, 256, 2000):
            got = PortableRng(seed).shuffle_index(n)
            assert got.dtype == np.int64
            assert np.array_equal(got, _shuffle_index_loop(PortableRng(seed), n))


def test_choice_distinct():
    idx = PortableRng(5).choice(50, 20)
    assert len(set(idx.tolist())) == 20


def test_derive_gives_independent_streams():
    base = PortableRng(9)
    a = base.derive(1).random(50)
    b = base.derive(2).random(50)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, PortableRng(9).derive(1).random(50))


def test_mix64_vectorized_matches_scalar():
    vals = np.array([0, 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
    got = mix64(vals)
    want = [_mix64_int(int(v)) for v in vals]
    assert [int(v) for v in got] == want


@pytest.mark.parametrize("k", [-2, -5, 11, 2.5, "3", None])
def test_choice_rejects_a_count_outside_0_to_n(k):
    # -2 drew 8 indices, -5 of 5 drew none, 2.5 failed in the slicing
    rng = PortableRng(5)
    with pytest.raises(ValueError):
        rng.choice(10 if k != -5 else 5, k)
    assert np.array_equal(rng.random(4), PortableRng(5).random(4))   # nothing drawn


@pytest.mark.parametrize("k", [0, 1, 3, np.int64(7), 10])
def test_choice_draws_the_head_of_the_shuffle(k):
    got = PortableRng(9).choice(10, k)
    assert np.array_equal(got, PortableRng(9).shuffle_index(10)[:int(k)])
    assert np.unique(got).size == int(k)
