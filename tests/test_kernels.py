import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from graphssl import _kernels


def _reference_pairwise(x, psi):
    n = x.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = sum(psi[f] * (x[i, f] - x[j, f]) ** 2
                                for f in range(x.shape[1]))
    return out


def test_pairwise_matches_reference():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(23, 4))
    psi = rng.random(4)
    got = _kernels.pairwise_sq_dists(x, psi)
    assert np.allclose(got, _reference_pairwise(x, psi), atol=1e-12)


def test_pairwise_bit_exact_symmetry_and_zero_diag():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 3))
    d = _kernels.pairwise_sq_dists(x, np.ones(3))
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


def test_cross_matches_pairwise_blocks():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(11, 5))
    b = rng.normal(size=(7, 5))
    psi = rng.random(5)
    cross = _kernels.cross_sq_dists(a, b, psi)
    full = _kernels.pairwise_sq_dists(np.vstack([a, b]), psi)
    assert np.allclose(cross, full[:11, 11:], atol=1e-12)


def _einsum_pairwise(x, psi):
    """The einsum formula the kernels used before scipy.spatial, kept as a
    test-only reference: the scipy kernels must match it bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    diff = x[:, None, :] - x[None, :, :]
    d = np.triu(np.einsum("ijk,k,ijk->ij", diff, psi, diff), 1)
    return d + d.T


def _einsum_cross(a, b, psi):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,k,ijk->ij", diff, psi, diff)


@st.composite
def _kernel_inputs(draw):
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 20))
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    x = rng.normal(size=(n, p)) * scale
    b = rng.normal(size=(m, p)) * scale
    weights = draw(st.sampled_from(["ones", "random", "with zeros"]))
    psi = np.ones(p) if weights == "ones" else rng.random(p)
    if weights == "with zeros":
        psi[rng.random(p) < 0.5] = 0.0
    layout = draw(st.sampled_from(["float", "int", "strided"]))
    if layout == "int":
        x, b = np.round(x).astype(np.int64), np.round(b).astype(np.int64)
    elif layout == "strided":     # views that are not C-contiguous (unless 1 x 1)
        x = np.repeat(x, 2, axis=1)[:, ::2]
        b = np.asfortranarray(b)
    return x, b, psi


@settings(max_examples=300, deadline=None)
@given(_kernel_inputs())
def test_scipy_kernels_match_einsum_reference(inputs):
    x, b, psi = inputs
    d = _kernels.pairwise_sq_dists(x, psi)
    assert np.array_equal(d, _einsum_pairwise(x, psi))
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.array_equal(_kernels.cross_sq_dists(x, b, psi), _einsum_cross(x, b, psi))
    i, j = np.indices(d.shape).reshape(2, -1)
    assert np.array_equal(_kernels.pair_sq_dists(x, i, j, psi), d.ravel())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.integers(1, 30), st.integers(1, 12),
       st.integers(0, 2**32 - 1), st.integers(-3, 3))
def test_unit_weights_equal_weighted_ones(p, n, m, seed, exponent):
    # None and all-ones weights take scipy's unweighted kernel
    rng = np.random.default_rng(seed)
    x, b = (rng.normal(size=(rows, p)) * 10.0 ** exponent for rows in (n, m))
    ones = np.ones(p)
    cross = cdist(x, b, "sqeuclidean", w=ones)
    pairwise = squareform(pdist(x, "sqeuclidean", w=ones))
    i, j = np.indices((n, n)).reshape(2, -1)
    for psi in (None, ones):
        assert np.array_equal(_kernels.cross_sq_dists(x, b, psi), cross)
        assert np.array_equal(_kernels.pairwise_sq_dists(x, psi), pairwise)
        assert np.array_equal(_kernels.pair_sq_dists(x, i, j, psi), pairwise.ravel())


def test_integer_input_upcast():
    x = np.array([[0, 0], [3, 4]])
    d = _kernels.pairwise_sq_dists(x, np.ones(2))
    assert d[0, 1] == 25.0
