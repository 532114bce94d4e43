import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components as csgraph_components

from graphssl import (DegenerateGraphError, GraphConfig, InputError, PointSet,
                      SimilarityGraph, build_graph, connected_components,
                      laplacian, stationary_distribution)
from graphssl import graph as graph_module
from graphssl._kernels import cross_sq_dists
from graphssl.graph import (check_sigma, component_labels, dense_component,
                            gaussian_in_place, resolve_sigma, sigma_from_points)

from _synth import random_graph


def gaussian_weight(xi, xj, sigma, psi=None, normalize_by_p=True):
    """The Gaussian weight of one pair of points, as the graph builders and
    the CAD kernel masses form it: gaussian_in_place on cross_sq_dists."""
    xi, xj = np.atleast_2d(xi), np.atleast_2d(xj)
    psi = np.ones(xi.shape[1]) if psi is None else psi
    return gaussian_in_place(cross_sq_dists(xi, xj, psi), xi.shape[1], sigma,
                             normalize_by_p)[0, 0]


class TestGaussianWeight:
    def test_identity_is_one(self):
        x = np.array([1.0, -2.0, 3.0])
        assert gaussian_weight(x, x, sigma=0.7) == 1.0

    def test_distance_equal_to_p_sigma_sq_gives_inv_e(self):
        # with psi = 1 and sum of squared differences = p sigma^2 the
        # exponent is exactly -1
        sigma, p = 1.3, 4
        xi = np.zeros(p)
        xj = np.full(p, math.sqrt(sigma ** 2))  # sum d^2 = p sigma^2
        w = gaussian_weight(xi, xj, sigma)
        assert w == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_zero_weight_feature_is_ignored(self):
        psi = np.array([1.0, 0.0, 2.0])
        xi = np.array([0.0, 5.0, 1.0])
        xj = np.array([1.0, -9.0, 2.0])
        projected_i = np.array([0.0, 0.0, 1.0])
        projected_j = np.array([1.0, 0.0, 2.0])
        assert gaussian_weight(xi, xj, 1.0, psi) == gaussian_weight(
            projected_i, projected_j, 1.0, psi)

    def test_denominator_flag(self):
        xi, xj = np.zeros(2), np.array([1.0, 1.0])
        with_p = gaussian_weight(xi, xj, 1.0, normalize_by_p=True)
        without = gaussian_weight(xi, xj, 1.0, normalize_by_p=False)
        assert with_p == pytest.approx(math.exp(-1.0))
        assert without == pytest.approx(math.exp(-2.0))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
           st.lists(st.floats(-50, 50), min_size=1, max_size=6),
           st.floats(0.1, 10))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, a, b, sigma):
        p = min(len(a), len(b))
        xi, xj = np.array(a[:p]), np.array(b[:p])
        w_ij = gaussian_weight(xi, xj, sigma)
        w_ji = gaussian_weight(xj, xi, sigma)
        assert w_ij == w_ji
        assert 0.0 <= w_ij <= 1.0


class TestBuildGraph:
    def test_collinear_knn1_is_path(self):
        ps = PointSet(np.array([[0.0, 0], [1, 0], [2, 0]]), np.zeros(3, dtype=int))
        g = build_graph(ps, GraphConfig(mode="knn", k_neighbors=1, sigma=1.0))
        w = g.dense()
        assert w[0, 1] > 0 and w[1, 2] > 0 and w[0, 2] == 0
        assert np.array_equal(w, w.T)

    def test_eps_zero_gives_complete_graph(self):
        rng = np.random.default_rng(0)
        ps = PointSet(rng.normal(size=(12, 3)), np.zeros(12, dtype=int))
        g = build_graph(ps, GraphConfig(mode="epsilon", eps_cut=0.0, sigma=1.0))
        assert g.weights.nnz == 12 * 11

    def test_knn_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(50, 3))
        psi = rng.random(3)
        sigma = 0.8
        k = 5
        ps = PointSet(pts, np.zeros(50, dtype=int), psi)
        g = build_graph(ps, GraphConfig(mode="knn", k_neighbors=k, sigma=sigma))

        # independent all-pairs construction
        n = 50
        d = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                d[i, j] = float(np.sum(psi * (pts[i] - pts[j]) ** 2))
        mask = np.zeros((n, n), dtype=bool)
        for i in range(n):
            order = sorted((dij, j) for j, dij in enumerate(d[i]) if j != i)
            for _, j in order[:k]:
                mask[i, j] = True
        mask |= mask.T
        want = np.where(mask, np.exp(-d / (3 * sigma * sigma)), 0.0)
        np.fill_diagonal(want, 0.0)
        assert np.allclose(g.dense(), want, atol=1e-12)

    def test_epsilon_graph_over_its_entry_budget_is_refused(self, monkeypatch):
        # the budget holds the largest epsilon graph measured (n = 3e4,
        # sigma = 0.2, cut 1e-3: 79.9 M entries), not eps:0 on 3e4 points
        assert 79_900_000 < graph_module._EPS_MAX_ENTRIES < 30_000 * 29_999
        rng = np.random.default_rng(0)
        ps = PointSet(rng.normal(size=(40, 2)), np.zeros(40, dtype=int))
        cfg = GraphConfig(mode="epsilon", eps_cut=0.05, sigma=0.5)
        want = build_graph(ps, cfg).weights
        monkeypatch.setattr(graph_module, "_EXACT_BLOCK", 7 * 40)   # 6 row blocks
        monkeypatch.setattr(graph_module, "_EPS_MAX_ENTRIES", want.nnz)
        got = build_graph(ps, cfg).weights
        assert all(np.array_equal(getattr(got, name), getattr(want, name))
                   for name in ("data", "indices", "indptr"))
        monkeypatch.setattr(graph_module, "_EPS_MAX_ENTRIES", want.nnz - 1)
        with pytest.raises(InputError, match=rf"the epsilon graph on 40 points keeps "
                                             rf"{want.nnz} entries by row \d+ at "
                                             rf"eps_cut=0.05, sigma=0.5, more than"):
            build_graph(ps, cfg)

    def test_duplicate_points_weight_one(self):
        ps = PointSet(np.array([[1.0, 1], [1, 1], [4, 4]]), np.zeros(3, dtype=int))
        g = build_graph(ps, GraphConfig(mode="epsilon", eps_cut=0.0, sigma=1.0))
        assert g.dense()[0, 1] == 1.0

    def test_too_few_points_rejected(self):
        ps = PointSet(np.array([[0.0, 0]]), np.zeros(1, dtype=int))
        with pytest.raises(InputError):
            build_graph(ps, GraphConfig(sigma=1.0))

    def test_knn_k_too_large_rejected(self):
        ps = PointSet(np.zeros((3, 2)), np.zeros(3, dtype=int))
        with pytest.raises(InputError):
            build_graph(ps, GraphConfig(mode="knn", k_neighbors=3, sigma=1.0))

    def test_symmetry_bit_exact_on_random_sets(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            ps = PointSet(rng.normal(size=(30, 4)), np.zeros(30, dtype=int))
            g = build_graph(ps, GraphConfig(mode="knn", k_neighbors=4, sigma=0.9))
            assert (g.weights != g.weights.T).nnz == 0

    def test_sigma_heuristic_scale_equivariance(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(25, 3))
        cfg = GraphConfig(mode="knn", k_neighbors=4, sigma=None)
        w1 = build_graph(PointSet(pts, np.zeros(25, dtype=int)), cfg).dense()
        # powers of two scale distances and the width estimate exactly
        w2 = build_graph(PointSet(4.0 * pts, np.zeros(25, dtype=int)), cfg).dense()
        assert np.array_equal(w1, w2)
        w3 = build_graph(PointSet(3.0 * pts, np.zeros(25, dtype=int)), cfg).dense()
        assert np.allclose(w1, w3, rtol=1e-10)


@pytest.mark.parametrize("points, labels, weights, match", [
    (np.zeros((0, 2)), np.zeros(0), None, "nonempty"),
    (np.zeros((3, 0)), np.zeros(3), None, "nonempty"),
    (np.zeros(3), np.zeros(3), None, "nonempty"),
    ([[0.0, np.nan], [1.0, 1.0]], [0, 0], None, "finite"),
    ([[0.0, 0.0], [1.0, 1.0]], [0, 0, 0], None, "length-n"),
    ([[0.0, 0.0], [1.0, 1.0]], [0, 2], None, "labels must be in"),
    ([[0.0, 0.0], [1.0, 1.0]], [0, 1], [1.0], "length-p"),
    ([[0.0, 0.0], [1.0, 1.0]], [0, 1], [1.0, -0.5], "finite and >= 0"),
    ([[0.0, 0.0], [1.0, 1.0]], [0, 1], [1.0, np.inf], "finite and >= 0")])
def test_point_set_rejections(points, labels, weights, match):
    with pytest.raises(InputError, match=match):
        PointSet(points, labels, weights)


class TestGraphConfig:
    @pytest.mark.parametrize("kwargs, match", [
        ({"mode": "ring"}, "unknown graph mode"), ({"k_neighbors": 0}, "k_neighbors must be"),
        ({"mode": "epsilon", "eps_cut": -0.1}, "eps_cut must be >= 0")])
    def test_bad_settings_rejected(self, kwargs, match):
        with pytest.raises(InputError, match=match):
            GraphConfig(**kwargs)

    def test_points_without_spread_have_no_sigma(self):
        with pytest.raises(DegenerateGraphError, match="zero spread"):
            sigma_from_points(np.ones((4, 2)))

    @pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(InputError, match="sigma"):
            GraphConfig(sigma=sigma)

    @pytest.mark.parametrize("sigma", [1e-155, 1e-160, 5e-324, 1e155])
    def test_sigma_whose_square_is_not_a_normal_float_rejected(self, sigma):
        with pytest.raises(InputError, match=re.escape(f"sigma={sigma!r}")):
            GraphConfig(sigma=sigma)

    @pytest.mark.parametrize("points", [[[1e308], [-1e308]], [[1e-160], [3e-160]]])
    def test_width_heuristic_outside_the_rule_rejected(self, points):
        with pytest.raises(InputError, match="sigma="):
            sigma_from_points(np.array(points))

    def test_divisor_that_overflows_rejected(self):
        with pytest.raises(InputError, match=re.escape("sigma=1e+154")):
            gaussian_in_place(np.array([np.inf]), 2, 1e154, True)

    def test_quotient_past_the_float_range_is_weight_0(self):
        w = gaussian_in_place(np.array([1e12, 0.0]), 2, 1e-150, True)
        assert w.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0, -1.0])
    def test_one_sigma_rule(self, sigma):
        pts = np.arange(6.0).reshape(3, 2)
        assert resolve_sigma(None, pts) == sigma_from_points(pts)
        assert resolve_sigma(0.5, pts) == 0.5
        for check in (lambda: check_sigma(sigma), lambda: resolve_sigma(sigma, pts)):
            with pytest.raises(InputError, match="sigma"):
                check()

    @pytest.mark.parametrize("mode", ["knn", "epsilon"])
    @pytest.mark.parametrize("eps_cut", [math.nan, math.inf, -math.inf])
    def test_eps_cut_must_be_finite(self, mode, eps_cut):
        with pytest.raises(InputError, match="eps_cut"):
            GraphConfig(mode=mode, eps_cut=eps_cut)

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None])
    def test_k_neighbors_must_be_an_integer(self, k):
        with pytest.raises(InputError, match="k_neighbors"):
            GraphConfig(k_neighbors=k)

    def test_integer_like_k_neighbors_become_int(self):
        assert type(GraphConfig(k_neighbors=np.int64(3)).k_neighbors) is int

    @pytest.mark.parametrize("spec", ["knn:abc", "knn:2.5", "eps:x", "eps:nan", "eps:inf",
                                      "ring:3"])
    def test_parse_rejects_bad_specs_with_input_error(self, spec):
        with pytest.raises(InputError):
            GraphConfig.parse(spec)

    def test_parse(self):
        assert GraphConfig.parse("knn:7") == GraphConfig(mode="knn", k_neighbors=7)
        assert GraphConfig.parse("eps:0.25", sigma=2.0) == GraphConfig(
            mode="epsilon", eps_cut=0.25, sigma=2.0)


class TestLaplacian:
    def test_two_node_unit_edge(self):
        g = SimilarityGraph(sp.csr_matrix(np.array([[0.0, 1], [1, 0]])))
        assert np.array_equal(laplacian(g).toarray(), [[1.0, -1], [-1, 1]])

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(3)
        for seed in range(6):
            g = random_graph(20, seed)
            w = g.dense()
            lap = laplacian(g).toarray()
            for _ in range(10):
                h = rng.normal(size=20)
                direct = 0.5 * sum(w[i, j] * (h[i] - h[j]) ** 2
                                   for i in range(20) for j in range(20))
                assert abs(h @ lap @ h - direct) < 1e-10 * max(1.0, abs(direct))

    def test_rows_sum_to_zero(self):
        g = random_graph(15, 5)
        assert np.allclose(laplacian(g) @ np.ones(15), 0.0, atol=1e-12)

    def test_psd_via_random_vectors(self):
        rng = np.random.default_rng(8)
        for seed in range(4):
            g = random_graph(18, seed + 100)
            for norm in (False, True):
                lap = laplacian(g, normalized=norm)
                for _ in range(25):
                    h = rng.normal(size=18)
                    assert h @ (lap @ h) >= -1e-9

    def test_normalized_rejects_isolated_node(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        g = SimilarityGraph(sp.csr_matrix(w))
        with pytest.raises(DegenerateGraphError):
            laplacian(g, normalized=True)


class TestStationaryDistribution:
    def test_single_edge_half_half(self):
        g = SimilarityGraph(sp.csr_matrix(np.array([[0.0, 1], [1, 0]])))
        assert np.allclose(stationary_distribution(g), [0.5, 0.5])

    def test_unit_path(self):
        w = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
        g = SimilarityGraph(sp.csr_matrix(w))
        assert np.allclose(stationary_distribution(g), [0.25, 0.5, 0.25])

    def test_fixed_point_and_power_iteration(self):
        for seed in range(5):
            g = random_graph(30, seed + 50)
            s = stationary_distribution(g)
            p = g.dense() / g.degrees[:, None]
            assert np.max(np.abs(s @ p - s)) < 1e-12
            # independent oracle: iterate the transition operator
            v = np.full(30, 1.0 / 30)
            for _ in range(20000):
                nxt = v @ p
                if np.max(np.abs(nxt - v)) < 1e-15:
                    v = nxt
                    break
                v = nxt
            assert np.max(np.abs(v - s)) < 1e-10

    def test_zero_volume_rejected(self):
        g = SimilarityGraph(sp.csr_matrix(np.zeros((3, 3))))
        with pytest.raises(DegenerateGraphError):
            stationary_distribution(g)


class TestConnectedComponents:
    def test_complete_graph_single(self):
        g = random_graph(10, 0)
        assert len(connected_components(g)) == 1

    def test_zero_matrix_all_singletons(self):
        g = SimilarityGraph(sp.csr_matrix(np.zeros((5, 5))))
        comps = connected_components(g)
        assert [c.tolist() for c in comps] == [[0], [1], [2], [3], [4]]

    def test_two_cliques(self):
        w = np.zeros((6, 6))
        w[np.ix_([0, 2, 4], [0, 2, 4])] = 1.0
        w[np.ix_([1, 3, 5], [1, 3, 5])] = 1.0
        np.fill_diagonal(w, 0.0)
        g = SimilarityGraph(sp.csr_matrix(w))
        comps = connected_components(g)
        assert [c.tolist() for c in comps] == [[0, 2, 4], [1, 3, 5]]

    def test_empty_graph_has_no_components(self):
        assert connected_components(SimilarityGraph(sp.csr_matrix((0, 0)))) == []

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(0.0, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_matches_grouping_loop(self, n, seed, density):
        # reference: the csgraph labels grouped by a dict, sorted by first member
        g = random_graph(n, seed, density=density, ensure_connected=False)
        _, labels = csgraph_components(g.weights, directed=False)
        groups = {}
        for node, lab in enumerate(labels):
            groups.setdefault(int(lab), []).append(node)
        want = sorted(groups.values(), key=lambda members: members[0])
        got = connected_components(g)
        assert [c.tolist() for c in got] == want
        assert all(c.dtype == np.int64 for c in got)

    @given(st.integers(0, 40), st.integers(0, 2**32 - 1), st.floats(0.0, 0.3))
    @settings(max_examples=80, deadline=None)
    def test_dense_labels_equal_csgraph(self, n, seed, density):
        # sparse random weights give many components and isolated nodes
        rng = np.random.default_rng(seed)
        upper = np.triu(np.where(rng.random((n, n)) < density, rng.random((n, n)), 0.0), 1)
        w = upper + upper.T
        want = csgraph_components(sp.csr_matrix(w), directed=False)[1]
        assert np.array_equal(component_labels(w), want)
        # one-sided entries are undirected edges, as for csgraph
        assert np.array_equal(component_labels(upper), want)
        assert np.array_equal(component_labels(sp.csr_matrix(w)), want)
        for node in range(n):
            assert np.array_equal(dense_component(w != 0, node), want == want[node])


def _setdiag_form(weights):
    """Test-only copy of the canonical form SimilarityGraph took from
    scipy: a float64 CSR copy, setdiag(0.0), then eliminate_zeros."""
    w = sp.csr_matrix(weights, dtype=np.float64, copy=True)
    w.setdiag(0.0)
    w.eliminate_zeros()
    return w


@st.composite
def _weight_inputs(draw):
    """A square weight matrix, dense, COO or CSR (rows sorted or in drawn
    order), with stored or missing diagonal entries, stored zeros and
    repeated entries.  A row holds at most 16 entries: setdiag sorts a
    longer row with an unstable sort, which may reorder its repeats."""
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, min(15, 2 * n)))
    cell = st.integers(0, max(n - 1, 0))
    r = np.array(draw(st.lists(cell, min_size=m, max_size=m)), dtype=np.int64)
    c = np.array(draw(st.lists(cell, min_size=m, max_size=m)), dtype=np.int64)
    values = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.0, 10.0))
    d = np.array(draw(st.lists(values, min_size=m, max_size=m)), dtype=np.float64)
    if n and draw(st.booleans()):           # every diagonal entry stored
        r, c = np.concatenate([r, np.arange(n)]), np.concatenate([c, np.arange(n)])
        d = np.concatenate([d, np.ones(n)])
    kind = draw(st.sampled_from(["dense", "coo", "csr sorted", "csr unsorted"]))
    coo = sp.coo_matrix((d, (r, c)), shape=(n, n))
    if kind == "dense":
        return coo.toarray()
    if kind == "coo":
        return coo
    order = np.lexsort((c, r)) if kind == "csr sorted" else np.argsort(r, kind="stable")
    indptr = np.searchsorted(r[order], np.arange(n + 1))
    return sp.csr_matrix((d[order], c[order], indptr), shape=(n, n))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_non_finite_or_negative_weight_rejected(bad):
    # such weights made stationary_distribution and laplacian NaN or
    # negative; a diagonal entry is dropped before the check
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
    w[0, 1] = w[1, 0] = bad
    for weights in (w, sp.csr_matrix(w), sp.coo_matrix(w)):
        with pytest.raises(InputError, match="finite and >= 0"):
            SimilarityGraph(weights)
    np.fill_diagonal(w, bad)
    w[0, 1] = w[1, 0] = 1.0
    assert SimilarityGraph(w).volume == 6.0


@given(_weight_inputs())
@settings(max_examples=300, deadline=None)
def test_canonical_form_matches_setdiag(weights):
    g, want = SimilarityGraph(weights), _setdiag_form(weights)
    for name in ("data", "indices", "indptr"):
        got, ref = getattr(g.weights, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    degrees = np.asarray(want.sum(axis=1)).ravel()
    assert np.array_equal(g.degrees, degrees)
    assert g.volume == float(degrees.sum())


@pytest.mark.parametrize("weights", [np.zeros((2, 3)), sp.csr_matrix((3, 2))])
def test_similarity_graph_rejects_a_non_square_matrix(weights):
    with pytest.raises(InputError, match="square"):
        SimilarityGraph(weights)


@pytest.mark.parametrize("diagonal", [True, False])
@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_similarity_graph_leaves_its_input_unchanged(kind, diagonal):
    # every diagonal entry stored: the graph zeroes them in place, in its copy
    w = np.array([[1.0, 2.0, 0.0], [2.0, 3.0, 0.5], [0.0, 0.5, 4.0]])
    if not diagonal:
        np.fill_diagonal(w, 0.0)
    given_w = w if kind == "dense" else sp.csr_matrix(w)
    arrays = ([w] if kind == "dense"
              else [given_w.data, given_w.indices, given_w.indptr])
    before = [a.copy() for a in arrays]
    g = SimilarityGraph(given_w)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    assert kind == "dense" or given_w.nnz == (7 if diagonal else 4)
    assert np.array_equal(g.dense(), w - np.diag(np.diag(w)))
    assert g.degrees.tolist() == [2.0, 2.5, 0.5]


def test_similarity_graph_validate_passes_for_built_graphs():
    """Built k-NN and epsilon graphs are exactly symmetric, store only
    positive weights, are zero on the diagonal and keep their row sums as
    degrees."""
    rng = np.random.default_rng(1)
    pts = np.vstack([rng.normal(0.0, 0.5, (30, 3)), rng.normal(2.0, 0.5, (30, 3))])
    pts[7] = pts[3]                     # a duplicate point
    ps = PointSet(pts, np.zeros(60, dtype=int), np.array([1.0, 0.5, 2.0]))
    for cfg in (GraphConfig(mode="knn", k_neighbors=4, sigma=0.3),
                GraphConfig(mode="epsilon", eps_cut=1e-3, sigma=0.3)):
        g = build_graph(ps, cfg)
        w = g.weights
        assert w.nnz > 0 and (w != w.T).nnz == 0
        assert np.all(w.data > 0)
        assert not w.diagonal().any()
        assert np.array_equal(g.degrees, np.asarray(w.sum(axis=1)).ravel())
        assert g.volume == pytest.approx(g.degrees.sum())
