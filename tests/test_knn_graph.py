"""The KD-tree k-NN builder and the blocked epsilon builder against the
dense constructions they replaced."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphssl import (DegenerateGraphError, GraphConfig, InputError, PointSet,
                      SimilarityGraph, build_graph)
from graphssl import _kernels
from graphssl import graph as graph_module
from graphssl.graph import _knn_lists, gaussian_in_place, resolve_sigma


def _knn_order(dists):
    """Each row's other columns by a stable argsort of the distance row:
    the row's own column ranks after every other, even at infinite
    distances."""
    n = dists.shape[0]
    order = np.argsort(dists, axis=1, kind="stable")
    return order[order != np.arange(n)[:, None]].reshape(n, n - 1)


def _knn_mask(dists, k):
    n = dists.shape[0]
    mask = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), k)
    mask[rows, _knn_order(dists)[:, :k].ravel()] = True
    return mask | mask.T


def dense_reference(ps, cfg):
    """The dense k-NN construction: n x n distances and weights, a stable
    argsort of every row, the union of the k-NN masks."""
    sigma = resolve_sigma(cfg.sigma, ps.points)
    dists = _kernels.pairwise_sq_dists(ps.points, ps.feature_weights)
    denom = ps.p * sigma * sigma if cfg.normalize_by_p else sigma * sigma
    w = np.exp(-dists / denom)
    np.fill_diagonal(w, 0.0)
    w[~_knn_mask(dists, cfg.k_neighbors)] = 0.0
    return SimilarityGraph(sp.csr_matrix(w)).weights


def assert_same_csr(got, want):
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


@st.composite
def _knn_cases(draw):
    n = draw(st.integers(2, 300))
    k = draw(st.integers(1, n - 1))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = 10.0 ** draw(st.integers(-9, 2))
    x = rng.normal(size=(n, p)) * spread
    layout = draw(st.sampled_from(["normal", "duplicated", "grid"]))
    if layout == "duplicated":
        x = x[rng.integers(0, max(1, n // 3), size=n)]
    elif layout == "grid":
        x = np.round(2 * x / spread) * spread / 2
    offset = draw(st.sampled_from(["none", "shared", "split"]))
    if offset == "shared":
        x = x + 1e6
    elif offset == "split":     # two far groups: the scaled coordinates dwarf the spread
        x = x + 1e6 * (rng.random((n, 1)) < 0.5)
    weights = draw(st.sampled_from(["ones", "random", "with zeros"]))
    psi = np.ones(p) if weights == "ones" else rng.random(p)
    if weights == "with zeros":
        psi[rng.random(p) < 0.5] = 0.0
    cfg = GraphConfig(mode="knn", k_neighbors=k, sigma=spread,
                      normalize_by_p=draw(st.booleans()))
    return PointSet(x, np.zeros(n, dtype=int), psi), cfg


@settings(max_examples=300, deadline=None)
@given(_knn_cases())
def test_knn_graph_bit_identical_to_dense_reference(case):
    ps, cfg = case
    want = dense_reference(ps, cfg)
    if want.nnz == 0:
        with pytest.raises(DegenerateGraphError):
            build_graph(ps, cfg)
        return
    assert_same_csr(build_graph(ps, cfg).weights, want)


def test_ties_go_to_the_lowest_index():
    # 3 and 4 duplicate 0; -1 and 1 tie at distance 1 from 0.  The far
    # points make the tree propose candidates rather than every point.
    pts = np.concatenate([[0.0, -1.0, 1.0, 0.0, 0.0], 100.0 + np.arange(20.0)])[:, None]
    nbrs, dists = _knn_lists(pts, np.ones(1), 2)
    assert nbrs[:5].tolist() == [[3, 4], [0, 3], [0, 3], [0, 4], [0, 3]]
    assert dists[:5].tolist() == [[0, 0], [1, 1], [1, 1], [0, 0], [0, 0]]


def test_many_duplicates_fall_back_to_exact_rows():
    # 40 copies of one point outnumber the 2k + 1 tree candidates
    rng = np.random.default_rng(5)
    pts = np.vstack([np.zeros((40, 2)), rng.normal(size=(20, 2))])
    ps = PointSet(pts, np.zeros(60, dtype=int))
    cfg = GraphConfig(mode="knn", k_neighbors=3, sigma=1.0)
    assert_same_csr(build_graph(ps, cfg).weights, dense_reference(ps, cfg))


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e307])
def test_huge_coordinates_rank_exactly(scale):
    # squared distances overflow to inf; those pairs tie and weigh 0
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(40, 2))
    pts[:5] *= scale
    ps = PointSet(pts, np.zeros(40, dtype=int))
    cfg = GraphConfig(mode="knn", k_neighbors=3, sigma=1.0)
    assert_same_csr(build_graph(ps, cfg).weights, dense_reference(ps, cfg))


def test_knn_memory_is_linear_in_n():
    n = 30_000
    bound = n * n * 8 // 40       # one n x n float64 matrix / 40
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(n, 2))
    pts[: n // 2] += 3.0
    ps = PointSet(pts, np.zeros(n, dtype=int))
    tracemalloc.start()
    try:
        g = build_graph(ps, GraphConfig(mode="knn", k_neighbors=10, sigma=0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == n and g.weights.nnz >= n * 10
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


def dense_epsilon_reference(ps, cfg):
    """The dense epsilon construction: the n x n pdist Gaussian with a zero
    diagonal and every weight below eps_cut cut; None when every
    off-diagonal weight underflows to 0."""
    w = gaussian_in_place(_kernels.pairwise_sq_dists(ps.points, ps.feature_weights), ps.p,
                          resolve_sigma(cfg.sigma, ps.points), cfg.normalize_by_p)
    np.fill_diagonal(w, 0.0)
    if not w.any():
        return None
    w[w < cfg.eps_cut] = 0.0
    return SimilarityGraph(sp.csr_matrix(w)).weights


@st.composite
def _epsilon_cases(draw):
    n = draw(st.integers(2, 120))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, p))
    if draw(st.booleans()):                     # duplicate points
        x = x[rng.integers(0, max(1, n // 3), size=n)]
    psi = draw(st.sampled_from([np.ones(p), rng.random(p), rng.random(p) * (rng.random(p) < 0.5)]))
    cfg = GraphConfig(mode="epsilon", eps_cut=draw(st.sampled_from([0.0, 1e-6, 0.01, 0.3])),
                      sigma=draw(st.sampled_from([0.05, 0.4, 2.0])),
                      normalize_by_p=draw(st.booleans()))
    block = draw(st.sampled_from([1, 7, n, 3 * n + 1, 1 << 22]))
    return PointSet(x, np.zeros(n, dtype=int), psi), cfg, block


@settings(max_examples=200, deadline=None)
@given(_epsilon_cases())
def test_epsilon_graph_bit_identical_to_dense_reference(case):
    ps, cfg, block = case
    want = dense_epsilon_reference(ps, cfg)
    with mock.patch.object(graph_module, "_EXACT_BLOCK", block):
        if want is None:
            with pytest.raises(DegenerateGraphError):
                build_graph(ps, cfg)
            return
        assert_same_csr(build_graph(ps, cfg).weights, want)


def test_epsilon_memory_is_linear_in_n():
    n = 10_000
    bound = n * n * 8 // 4        # one n x n float64 matrix / 4
    rng = np.random.default_rng(0)
    ps = PointSet(rng.normal(size=(n, 2)), np.zeros(n, dtype=int))
    tracemalloc.start()
    try:
        g = build_graph(ps, GraphConfig(mode="epsilon", eps_cut=0.01, sigma=0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one distance block of at most graph._EXACT_BLOCK float64 entries, its
    # Gaussian formed in place, plus O(n) vectors and a few CSR copies
    # (12 bytes an entry) of the kept edges
    block_bound = int(2.5 * 8 * graph_module._EXACT_BLOCK) + 64 * 8 * n + 48 * g.weights.nnz
    assert g.n == n and g.weights.nnz >= 10 * n
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
    assert peak < block_bound, f"peak {peak / 1e6:.1f} MB, bound {block_bound / 1e6:.1f} MB"


class TestUnderflow:
    def _points(self):
        return PointSet(np.random.default_rng(0).normal(size=(30, 2)),
                        np.zeros(30, dtype=int))

    def test_knn_weights_all_underflow(self):
        with pytest.raises(DegenerateGraphError, match="sigma=0.001"):
            build_graph(self._points(), GraphConfig(mode="knn", k_neighbors=5, sigma=1e-3))

    def test_epsilon_weights_all_underflow(self):
        with pytest.raises(DegenerateGraphError, match="sigma=0.001"):
            build_graph(self._points(), GraphConfig(mode="epsilon", sigma=1e-3))

    def test_message_gives_sigma_as_written(self):
        pts = np.array([[0.0], [100.0], [200.0]])
        with pytest.raises(DegenerateGraphError) as err:
            build_graph(PointSet(pts, np.zeros(3, dtype=int)),
                        GraphConfig(mode="knn", k_neighbors=1, sigma=0.1))
        assert str(err.value) == "every knn edge weight underflows to 0 at sigma=0.1"

    def test_partial_underflow_keeps_the_rest(self):
        # a far-away pair underflows, the near pairs do not
        pts = np.array([[0.0], [0.1], [0.2], [1000.0]])
        g = build_graph(PointSet(pts, np.zeros(4, dtype=int)),
                        GraphConfig(mode="knn", k_neighbors=1, sigma=0.1))
        assert g.weights.nnz == 4 and g.degrees[3] == 0.0

    @pytest.mark.parametrize("mode", ["knn", "epsilon"])
    @pytest.mark.parametrize("normalize_by_p", [True, False])
    def test_divisor_underflow_rejected(self, mode, normalize_by_p):
        # sigma^2 underflows to 0: duplicate points would get 0/0 = NaN
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InputError, match="sigma=1e-200"):
            cfg = GraphConfig(mode=mode, k_neighbors=1, sigma=1e-200,
                              normalize_by_p=normalize_by_p)
            build_graph(PointSet(pts, np.zeros(3, dtype=int)), cfg)
        with pytest.raises(InputError, match="sigma=1e-200"):
            gaussian_in_place(np.zeros(2), 2, 1e-200, normalize_by_p)


def test_coordinates_whose_spread_overflows_rank_exactly():
    # centring overflows on points at 1e308: the rows are ranked exactly, with
    # no numpy warning (the suite turns RuntimeWarning into an error)
    pts = np.array([[1e308], [1e308], [0.0], [1.0]])
    nbrs, nd = _knn_lists(pts, np.ones(1), 1)
    assert nbrs.ravel().tolist() == [1, 0, 3, 2] and nd.ravel().tolist() == [0.0, 0.0, 1.0, 1.0]


def test_a_point_whose_distances_are_all_infinite_is_not_its_own_neighbour():
    # every distance from row 0 overflows: among equal infinities its own
    # column ranks last, so row 0's neighbour is row 1, as the reference's
    pts = np.array([[1e308], [-1e308], [0.0], [1.0]])
    with np.errstate(over="ignore"):
        dists = _kernels.pairwise_sq_dists(pts, None)
    nbrs, nd = _knn_lists(pts, np.ones(1), 1)
    assert np.array_equal(nbrs, _knn_order(dists)[:, :1])
    assert nbrs.ravel().tolist() == [1, 0, 3, 2]
    assert nd.ravel().tolist() == [np.inf, np.inf, 1.0, 1.0]
