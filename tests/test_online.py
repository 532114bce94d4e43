import copy
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components as csgraph_components
from scipy.sparse.linalg import spsolve

from graphssl import (CompactGraph, DegenerateGraphError, GraphConfig, InputError,
                      PointSet, QuantizerState, SimilarityGraph, SolverError, build_graph,
                      compact_harmonic, hard_harmonic, laplacian, max_distortion,
                      predict_online)
from graphssl import _kernels
from graphssl import online as online_module
from graphssl.graph import component_labels, gaussian_in_place
from graphssl.harmonic import solve_clamped
from graphssl.online import RELATIVE_CUT, CentroidGraph


def replay_assignments(stream, capacity, growth):
    """Drive a quantizer over the stream while tracking every point's
    current centroid through merges; returns (state, assignment array)."""
    state = QuantizerState(capacity, growth)
    assign = []
    for x in stream:
        idx = state.observe(np.asarray(x, dtype=float))
        if state.last_repartition is not None:
            assign = [state.last_repartition[a] for a in assign]
        assign.append(idx)
    return state, np.array(assign)


class TestQuantizer:
    def test_first_point_becomes_centroid(self):
        state = QuantizerState(4)
        assert state.observe(np.array([1.0, 2.0])) == 0
        assert state.multiplicities == [1]

    def test_repeated_point_single_centroid(self):
        state = QuantizerState(4)
        for _ in range(7):
            idx = state.observe(np.array([3.0, 3.0]))
        assert idx == 0 and state.size == 1
        assert state.multiplicities == [7]

    def test_initial_radius_from_first_two_distinct(self):
        state = QuantizerState(4)
        state.observe(np.zeros(2))
        state.observe(np.zeros(2))
        assert state.radius is None
        state.observe(np.array([0.0, 2.5]))
        assert state.radius == pytest.approx(2.5)

    def test_capacity_and_separation_on_uniform_stream(self):
        rng = np.random.default_rng(0)
        stream = rng.random((1500, 2))
        state, assign = replay_assignments(stream, capacity=16, growth=1.5)
        assert state.size <= 16
        assert sum(state.multiplicities) == 1500
        pts = state.centroid_matrix()
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        assert d.min() >= state.radius - 1e-12
        # replay oracle: every historical point within the distortion bound
        centroids = pts[assign]
        dist = np.sqrt(((stream - centroids) ** 2).sum(axis=1))
        assert dist.max() <= max_distortion(state) + 1e-12

    def test_invariants_hold_at_every_step(self):
        rng = np.random.default_rng(1)
        stream = rng.random((400, 2)) * 10
        state = QuantizerState(8, 1.5)
        assign = []
        for t, x in enumerate(stream, start=1):
            idx = state.observe(x)
            if state.last_repartition is not None:
                assign = [state.last_repartition[a] for a in assign]
            assign.append(idx)
            assert state.size <= 8
            assert sum(state.multiplicities) == t
            pts = state.centroid_matrix()
            if state.size > 1 and state.radius is not None:
                d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
                np.fill_diagonal(d, np.inf)
                assert d.min() >= state.radius - 1e-12
            dist = np.sqrt(((stream[:t] - pts[assign]) ** 2).sum(axis=1))
            assert dist.max() <= max_distortion(state) + 1e-12

    def test_dimension_mismatch_rejected(self):
        state = QuantizerState(4)
        state.observe(np.zeros(3))
        with pytest.raises(InputError):
            state.observe(np.zeros(2))

    def test_label_conflict_counted(self):
        state = QuantizerState(4)
        state.observe(np.zeros(2), label=1)
        state.observe(np.zeros(2), label=-1)
        assert state.label_conflicts == 1
        assert state.centroid_labels == [1]

    def test_observe_labels_a_new_centroid(self):
        state = QuantizerState(3)
        assert state.observe(np.array([1.0, 1.0]), 1) == 0
        assert state.centroid_labels == [1] and state.observed == 1


def _snapshot(state):
    return (state.size, state.observed, state.radius, state.multiplicities,
            state.centroid_labels, state.label_conflicts, state.last_repartition,
            state.centroid_matrix().tolist(), state._labeled)


class TestRejectedInput:
    """What the sketch cannot hold raises InputError and changes nothing."""

    @pytest.mark.parametrize("capacity", [2.5, np.inf, np.nan, 1, "8", True])
    def test_capacity_must_be_an_integer_of_at_least_2(self, capacity):
        with pytest.raises(InputError, match="capacity"):
            QuantizerState(capacity)

    def test_integer_capacities_of_any_integer_type_accepted(self):
        for capacity in (2, np.int64(5), np.int32(7)):
            state = QuantizerState(capacity)
            state.observe(np.zeros(2))
            assert state.capacity == capacity and state.size == 1

    # any dimension fits an empty sketch
    @pytest.mark.parametrize("point, match, before", [
        (point, match, before) for point, match in (
            ([np.nan, 0.0], "finite"), ([0.0, np.inf], "finite"), ([-np.inf, 1.0], "finite"),
            ([], "feature"), ([0.0, 0.0, 0.0], "dimension"))
        for before in (0, 1, 7) if before or match != "dimension"])
    def test_bad_point_leaves_the_sketch_unchanged(self, point, match, before):
        state = QuantizerState(4)
        for x, lab in zip(np.random.default_rng(3).normal(0, 2, (before, 2)), [1, -1, 0] * 3):
            state.observe(x, lab)
        if before:
            state.graph(1.0, True, 0.0)
        graph, want = state._graph, _snapshot(state)
        with pytest.raises(InputError, match=match):
            state.observe(np.array(point))
        assert _snapshot(state) == want and state._graph is graph
        with pytest.raises(InputError, match=match):
            predict_online(state, np.array(point), 1, 0.1, GraphConfig(sigma=1.0))
        assert _snapshot(state) == want and state._graph is graph

    @pytest.mark.parametrize("label", [2, -2, 0.5])
    def test_bad_label_leaves_the_sketch_unchanged(self, label):
        state = QuantizerState(4)
        state.observe(np.zeros(2), 1)
        want = _snapshot(state)
        with pytest.raises(InputError, match="label must be in"):
            state.observe(np.ones(2), label)
        assert _snapshot(state) == want

    @pytest.mark.parametrize("before", [[[1e308]], [[1e150], [0.0]]])
    def test_point_whose_distance_overflows_leaves_the_sketch_unchanged(self, before):
        # no radius merges centroids an infinite distance apart: the
        # repartition that capacity + 1 such centroids start never ended
        state = QuantizerState(2)
        for x in before:
            state.observe(np.array(x), 1)
        want = _snapshot(state)
        with pytest.raises(InputError, match="overflows"):
            state.observe(np.array([-1e308]))
        assert _snapshot(state) == want
        assert state.observe(np.array(before[0])) == 0      # a duplicate still merges

    def test_finite_points_after_a_rejected_nan_still_predict(self):
        # a NaN centroid used to make every later solve miss its residual
        cfg = GraphConfig(mode="epsilon", sigma=1.0)
        state, ref = QuantizerState(8), QuantizerState(8)
        points, labels = _random_stream(4, 40, 2)
        for t, (x, lab) in enumerate(zip(points, labels)):
            if t == 5:
                with pytest.raises(InputError):
                    predict_online(state, np.array([np.nan, 1.0]), 0, 0.01, cfg)
            assert predict_online(state, x, int(lab), 0.01, cfg) == \
                predict_online(ref, x, int(lab), 0.01, cfg)


class TestMaxDistortion:
    @pytest.mark.parametrize("growth", [1.0, 0.5, np.nan, np.inf])
    def test_growth_must_be_finite_and_exceed_one(self, growth):
        with pytest.raises(InputError, match="growth factor"):
            QuantizerState(5, growth=growth)

    def test_geometric_series_values(self):
        state = QuantizerState(4, growth=2.0)
        state.radius = 1.0
        assert max_distortion(state) == pytest.approx(2.0)
        state = QuantizerState(4, growth=1.5)
        state.radius = 1.0
        assert max_distortion(state) == pytest.approx(3.0)

    def test_distortion_bounds_replayed_stream(self):
        rng = np.random.default_rng(5)
        stream = np.vstack([rng.normal(size=(300, 3)), rng.normal(4, 1, (300, 3))])
        state, assign = replay_assignments(stream, capacity=12, growth=1.5)
        dist = np.sqrt(((stream - state.centroid_matrix()[assign]) ** 2).sum(axis=1))
        assert dist.max() <= max_distortion(state) + 1e-12


class TestCompactHarmonic:
    def test_unit_multiplicities_match_hard_harmonic(self):
        rng = np.random.default_rng(2)
        w = np.triu(rng.random((8, 8)), 1)
        w = w + w.T
        labels = np.array([1, -1, 0, 0, 0, 0, 0, 0])
        cg = CompactGraph(w, np.ones(8))
        got = compact_harmonic(cg, labels, 0.3)
        want = hard_harmonic(SimilarityGraph(sp.csr_matrix(w)), labels, 0.3)
        assert np.allclose(got.values, want.values, atol=1e-10)

    def test_duplicated_rows_match_expanded_graph(self):
        # build a point set with duplicates, collapse them, and compare
        rng = np.random.default_rng(3)
        base = rng.normal(size=(7, 2))
        mult = np.array([1, 3, 2, 1, 4, 2, 1])
        labels_base = np.array([1, 0, 0, -1, 0, 0, 0])
        expanded = np.repeat(base, mult, axis=0)
        labels_exp = np.repeat(labels_base, mult)
        sigma = 1.0
        ps = PointSet(expanded, labels_exp)
        g_exp = build_graph(ps, GraphConfig(mode="epsilon", eps_cut=0.0, sigma=sigma))
        for gamma in (0.0, 0.5, 2.0):
            full = hard_harmonic(g_exp, labels_exp, gamma)
            ps_c = PointSet(base, labels_base)
            g_c = build_graph(ps_c, GraphConfig(mode="epsilon", eps_cut=0.0, sigma=sigma))
            cg = CompactGraph(g_c.dense(), mult.astype(float))
            compact = compact_harmonic(cg, labels_base, gamma)
            # compare one replica per collapsed node
            starts = np.concatenate([[0], np.cumsum(mult)[:-1]])
            assert np.max(np.abs(full.values[starts] - compact.values)) < 1e-8

    def test_large_sink_zeroes_unlabeled(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        cg = CompactGraph(w, np.array([2.0, 5.0]))
        sol = compact_harmonic(cg, np.array([1, 0]), 1e9)
        assert abs(sol.values[1]) < 1e-6

    @pytest.mark.parametrize("w, v, match", [
        (np.zeros((2, 3)), np.ones(2), "square"), (np.zeros(4), np.ones(4), "square"),
        (np.zeros((2, 2)), np.ones(3), "length-k"), (np.zeros((2, 2)), [1.0, 0.5], ">= 1")])
    def test_bad_graph_rejected(self, w, v, match):
        with pytest.raises(InputError, match=match):
            CompactGraph(w, v)

    def test_needs_a_label(self):
        cg = CompactGraph(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(InputError):
            compact_harmonic(cg, np.zeros(2), 1.0)

    @pytest.mark.parametrize("gamma_g", [-0.01, np.nan, np.inf])
    def test_invalid_gamma_rejected(self, gamma_g):
        # on the 4-node path labeled [1, 0, 0, 0], gamma_g = -0.01 used to
        # give values of 1.03 to 1.06, outside the label range
        w = np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)
        cg = CompactGraph(w, np.ones(4))
        with pytest.raises(InputError, match="gamma_g"):
            compact_harmonic(cg, np.array([1, 0, 0, 0]), gamma_g)


class TestPredictOnline:
    CFG = GraphConfig(mode="epsilon", sigma=1.0)

    def test_identical_labeled_stream_predicts_label(self):
        state = QuantizerState(4)
        for _ in range(5):
            step = predict_online(state, np.array([1.0, 1.0]), 1, 0.1, self.CFG)
            assert step.prediction == 1 and not step.abstained

    def test_two_cluster_stream_matches_offline(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0, 0.3, (40, 2))
        b = rng.normal(5, 0.3, (40, 2))
        stream = np.empty((80, 2))
        stream[0::2] = a
        stream[1::2] = b
        labels = np.zeros(80, dtype=int)
        labels[0], labels[1] = 1, -1
        true = np.empty(80, dtype=int)
        true[0::2], true[1::2] = 1, -1

        state = QuantizerState(30, 1.5)
        correct = total = 0
        for t in range(80):
            step = predict_online(state, stream[t], int(labels[t]), 0.01, self.CFG)
            if t >= 2 and not step.abstained:
                total += 1
                correct += int(step.prediction == true[t])
                # offline oracle at this prefix
                ps = PointSet(stream[:t + 1], labels[:t + 1])
                g = build_graph(ps, GraphConfig(mode="epsilon", eps_cut=0.001, sigma=1.0))
                off = hard_harmonic(g, labels[:t + 1], 0.01)
                assert step.prediction == int(np.sign(off.values[t]))
        assert total > 0 and correct == total

    def test_far_point_abstains_under_eps_cut(self):
        state = QuantizerState(8)
        predict_online(state, np.array([0.0, 0.0]), 1, gamma_g=1.0, graph_cfg=self.CFG)
        step = predict_online(state, np.array([100.0, 100.0]), 0, gamma_g=1.0,
                              graph_cfg=self.CFG)
        assert step.abstained

    def test_labeled_sketch_needs_an_explicit_sigma(self):
        state = QuantizerState(4)
        predict_online(state, np.array([0.0, 0.0]), 1, 0.1, self.CFG)
        with pytest.raises(InputError, match="explicit sigma"):
            predict_online(state, np.array([1.0, 0.0]), 0, 0.1, GraphConfig(sigma=None))
        # a fresh sketch raises on its first step; neither raising step folds
        # its point in
        fresh = QuantizerState(4)
        with pytest.raises(InputError, match="explicit sigma"):
            predict_online(fresh, np.array([1.0, 0.0]), 1, 0.1, GraphConfig(sigma=None))
        assert fresh.observed == fresh.size == 0
        assert (state.observed, state.size, state.centroid_labels) == (1, 1, [1])

    def test_no_labels_abstains(self):
        state = QuantizerState(4)
        step = predict_online(state, np.array([0.0, 0.0]), 0, 0.1, self.CFG)
        assert step.abstained

    def test_zero_value_in_a_labeled_component_abstains(self):
        # the new point is equidistant from a +1 and a -1 label: its
        # solved value is exactly 0
        state = QuantizerState(8)
        predict_online(state, np.array([-1.0, 0.0]), 1, 0.01, self.CFG)
        predict_online(state, np.array([1.0, 0.0]), -1, 0.01, self.CFG)
        solved = []

        def recorded(*args):
            solved.append(solve_clamped(*args))
            return solved[-1]

        with mock.patch.object(online_module, "solve_clamped", recorded):
            step = predict_online(state, np.array([0.0, 2.0]), 0, 0.01, self.CFG)
        assert len(solved) == 1 and solved[0].tolist() == [1.0, -1.0, 0.0]
        assert step.abstained and step.prediction == online_module.ABSTAIN

    @pytest.mark.parametrize("gamma_g", [-0.01, np.nan, np.inf])
    def test_invalid_gamma_rejected_before_observing(self, gamma_g):
        state = QuantizerState(4)
        for x, lab in (([0.0, 0.0], 1), ([0.5, 0.0], 0), ([3.0, 0.0], -1)):
            predict_online(state, np.array(x), lab, 0.1, self.CFG)
        before = copy.deepcopy(state)
        with pytest.raises(InputError, match="gamma_g"):
            predict_online(state, np.array([0.2, 0.1]), 1, gamma_g, self.CFG)
        assert state.observed == before.observed == 3
        assert state.multiplicities == before.multiplicities
        assert state.centroid_labels == before.centroid_labels
        assert state.radius == before.radius
        assert np.array_equal(state.centroids, before.centroids)


# Test-only copies of the list-based quantizer, the sparse compact solve and
# the per-step graph rebuild that the dense, cached online path replaced.

def rebuilt_similarity(state, cfg, eps_cut):
    """The centroid graph rebuilt from the centroids themselves: all
    pairwise distances, their Gaussian weights, the cut at eps_cut and the
    cut relative to the strongest edge at either end."""
    pts = state.centroids
    w = gaussian_in_place(_kernels.pairwise_sq_dists(pts, np.ones(pts.shape[1])),
                          pts.shape[1], cfg.sigma, cfg.normalize_by_p)
    np.fill_diagonal(w, 0.0)
    strongest = w.max(axis=1)
    w[(w < eps_cut) | (w < RELATIVE_CUT * np.maximum.outer(strongest, strongest))] = 0.0
    return w


def rebuilt_component(w, idx):
    """Sorted nodes joined to idx by nonzero entries of w, breadth-first."""
    adj = w != 0
    reach = np.zeros(w.shape[0], dtype=bool)
    reach[idx] = True
    frontier = reach.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~reach
        reach |= frontier
    return np.flatnonzero(reach)


def rebuilt_step(state, x, label, gamma_g, cfg):
    """predict_online with the graph rebuilt at every step: (prediction,
    abstained, centroid, solved values of the component or None)."""
    idx = state.observe(x, label)
    labels = np.asarray(state.centroid_labels, dtype=np.float64)
    if not np.any(labels != 0):
        return 0, True, idx, None
    w = rebuilt_similarity(state, cfg, 0.1 * gamma_g)
    comp = rebuilt_component(w, idx)
    if not np.any(labels[comp] != 0):
        return 0, True, idx, None
    cg = CompactGraph(w[np.ix_(comp, comp)], np.asarray(state.multiplicities)[comp])
    values = compact_harmonic(cg, labels[comp], gamma_g).values
    value = values[int(np.searchsorted(comp, idx))]
    if labels[idx] != 0:
        # a labeled centroid's value is clamped to its label, so
        # predict_online answers its step without a solve
        assert value == labels[idx]
        return int(value), False, idx, None
    return (0 if value == 0.0 else int(np.sign(value))), value == 0.0, idx, values


def cached_step(state, x, label, gamma_g, cfg):
    """predict_online's step in rebuilt_step's form, its solved values taken
    from the solve_clamped call it makes."""
    solved = []

    def spy(*args, **kwargs):
        values = solve_clamped(*args, **kwargs)
        solved.append(values)
        return values

    with mock.patch.object(online_module, "solve_clamped", spy):
        step = predict_online(state, x, label, gamma_g, cfg)
    assert len(solved) <= 1
    return step.prediction, step.abstained, step.centroid, solved[0] if solved else None


def assert_same_steps(got, want):
    assert got[:3] == want[:3]
    assert (got[3] is None) == (want[3] is None)
    if want[3] is not None:
        assert np.array_equal(got[3], want[3])


class ListQuantizer:
    """The quantizer with one array per centroid and the pairwise greedy
    scan of its repartition."""

    def __init__(self, capacity, growth):
        self.capacity, self.growth = capacity, growth
        self.radius = None
        self.centroids, self.multiplicities, self.centroid_labels = [], [], []
        self.label_conflicts = 0
        self.last_repartition = None

    def observe(self, x, label):
        self.last_repartition = None
        idx = self._place(np.asarray(x, dtype=np.float64), label)
        if len(self.centroids) > self.capacity:
            self.last_repartition = self._repartition()
            idx = self.last_repartition[idx]
        return idx

    def _place(self, x, label):
        if not self.centroids:
            return self._append(x, label)
        d2 = _kernels.cross_sq_dists(np.vstack(self.centroids), x[None, :],
                                     np.ones(x.size)).ravel()
        nearest = int(np.argmin(d2))
        if self.radius is None:
            if d2[nearest] == 0.0:
                return self._absorb(nearest, label)
            self.radius = float(np.sqrt(d2[nearest]))
            return self._append(x, label)
        if d2[nearest] < self.radius * self.radius:
            return self._absorb(nearest, label)
        return self._append(x, label)

    def _append(self, x, label):
        self.centroids.append(x.copy())
        self.multiplicities.append(1)
        self.centroid_labels.append(label)
        return len(self.centroids) - 1

    def _absorb(self, idx, label):
        self.multiplicities[idx] += 1
        if label != 0:
            if self.centroid_labels[idx] == 0:
                self.centroid_labels[idx] = label
            elif self.centroid_labels[idx] != label:
                self.label_conflicts += 1
        return idx

    def _repartition(self):
        pts = np.vstack(self.centroids)
        d2 = _kernels.pairwise_sq_dists(pts, np.ones(pts.shape[1]))
        while True:
            self.radius *= self.growth
            r2 = self.radius * self.radius
            keep = []
            for i in range(len(self.centroids)):
                if all(d2[i, j] >= r2 for j in keep):
                    keep.append(i)
            if len(keep) <= self.capacity:
                break
        mapping = [-1] * len(self.centroids)
        for new, old in enumerate(keep):
            mapping[old] = new
        mult = [self.multiplicities[i] for i in keep]
        labels = [self.centroid_labels[i] for i in keep]
        for i in range(len(self.centroids)):
            if mapping[i] >= 0:
                continue
            target = int(np.argmin(d2[i, keep]))
            mapping[i] = target
            mult[target] += self.multiplicities[i]
            dropped = self.centroid_labels[i]
            if dropped != 0:
                if labels[target] == 0:
                    labels[target] = dropped
                elif labels[target] != dropped:
                    self.label_conflicts += 1
        self.centroids = [self.centroids[i] for i in keep]
        self.multiplicities, self.centroid_labels = mult, labels
        return mapping


def sparse_compact_system(w, mult, labels, gamma_g):
    """The unlabeled system of compact_harmonic as a SimilarityGraph of
    V W~ V and its sparse Laplacian sliced with np.ix_: (A, b, unlabeled)."""
    g = SimilarityGraph(sp.csr_matrix(mult[:, None] * w * mult[None, :]))
    lab = np.asarray(labels) != 0
    if gamma_g == 0.0:
        _, comp_of = csgraph_components(g.weights, directed=False)
        if np.unique(comp_of[lab]).size < comp_of.max() + 1:
            raise DegenerateGraphError("label-free component")
    u, l = np.flatnonzero(~lab), np.flatnonzero(lab)
    a = (laplacian(g)[np.ix_(u, u)] + sp.diags(gamma_g * mult[u])).tocsc()
    b = np.asarray(g.weights[np.ix_(u, l)] @ np.asarray(labels, dtype=np.float64)[l]).ravel()
    return a, b, u


def sparse_compact_values(w, mult, labels, gamma_g):
    """compact_harmonic through the sparse system and a SuperLU solve, and
    the tolerance another backward-stable solve must match it to.

    The tolerance is 1e-10, or 1e-13 cond(A) max|x| where that is larger:
    the forward error a backward-stable solve may make.  Weights far below
    those beside them (gamma_g <= 1e-8 cuts little) can make A nearly
    singular; once the tolerance exceeds 1e-6 no float64 solver pins the
    values down, and it is returned as None.
    """
    values = np.asarray(labels, dtype=np.float64).copy()
    a, b, u = sparse_compact_system(w, mult, labels, gamma_g)
    if not u.size:
        return values, 1e-10
    values[u] = np.atleast_1d(spsolve(a, b))
    tol = max(1e-10, 1e-13 * np.linalg.cond(a.toarray()) * np.abs(values[u]).max())
    if not tol <= 1e-6:
        assert gamma_g <= 1e-8
        return values, None
    return values, tol


def sparse_online_system(state, idx, gamma_g, cfg):
    """The compact graph predict_online solves for centroid idx, with the
    component found through a SimilarityGraph and a dict of csgraph labels:
    (W~, multiplicities, labels, position of idx), or None when it abstains."""
    labels = np.asarray(state.centroid_labels, dtype=np.float64)
    if not np.any(labels != 0):
        return None
    w = rebuilt_similarity(state, cfg, eps_cut=0.1 * gamma_g)
    _, comp_of = csgraph_components(SimilarityGraph(sp.csr_matrix(w)).weights, directed=False)
    groups = {}
    for node, lab in enumerate(comp_of):
        groups.setdefault(int(lab), []).append(node)
    comp = np.array(groups[int(comp_of[idx])])
    if not np.any(labels[comp] != 0):
        return None
    mult = np.asarray(state.multiplicities, dtype=np.float64)[comp]
    return w[np.ix_(comp, comp)], mult, labels[comp], int(np.flatnonzero(comp == idx)[0])


def _random_stream(seed, n, p):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 3, (3, p))
    which = rng.integers(0, 3, n)
    points = centers[which] + rng.normal(0, 0.6, (n, p))
    labels = np.where(rng.random(n) < 0.15, np.where(which == 0, 1, -1), 0)
    return points, labels


def _replay_with_random_labels(seed, capacity, p, growth):
    """Replay a stream whose labels ignore its clusters against
    ListQuantizer, comparing the sketch's arrays after every step; returns
    (label conflicts, repartitions)."""
    points, _ = _random_stream(seed, 150, p)
    labels = np.random.default_rng(seed).choice([-1, 0, 0, 0, 1], points.shape[0])
    state, ref = QuantizerState(capacity, growth), ListQuantizer(capacity, growth)
    repartitions = 0
    for x, lab in zip(points, labels):
        assert state.observe(x, int(lab)) == ref.observe(x, int(lab))
        repartitions += ref.last_repartition is not None
        assert state.last_repartition == ref.last_repartition
        assert state.multiplicities == ref.multiplicities
        assert state.centroid_labels == ref.centroid_labels
        assert state.label_conflicts == ref.label_conflicts
        k = len(ref.multiplicities)
        assert np.array_equal(state._mult[:k], np.array(ref.multiplicities, dtype=np.float64))
        assert np.array_equal(state._labels[:k], np.array(ref.centroid_labels, dtype=np.float64))
        assert state._labeled == np.count_nonzero(ref.centroid_labels)
    return ref.label_conflicts, repartitions


class TestDenseOnlineMatchesSparse:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 3),
           st.sampled_from([1.3, 1.5, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_quantizer_matches_list_quantizer(self, seed, capacity, p, growth):
        points, labels = _random_stream(seed, 120, p)
        state, ref = QuantizerState(capacity, growth), ListQuantizer(capacity, growth)
        for x, lab in zip(points, labels):
            assert state.observe(x, int(lab)) == ref.observe(x, int(lab))
            assert state.last_repartition == ref.last_repartition
            assert state.radius == ref.radius
            assert state.multiplicities == ref.multiplicities
            assert state.centroid_labels == ref.centroid_labels
            assert state.label_conflicts == ref.label_conflicts
            assert np.array_equal(state.centroids, np.vstack(ref.centroids))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 3),
           st.sampled_from([1.3, 1.5, 2.0]))
    @settings(max_examples=40, deadline=None)
    @example(seed=0, capacity=4, p=1, growth=1.5)
    def test_array_state_matches_list_quantizer_under_conflicts(self, seed, capacity, p,
                                                                growth):
        _replay_with_random_labels(seed, capacity, p, growth)

    def test_random_label_replay_conflicts_and_repartitions(self):
        conflicts, repartitions = _replay_with_random_labels(0, 4, 1, 1.5)
        assert conflicts > 0 and repartitions > 0

    @given(st.integers(0, 2**32 - 1), st.integers(4, 30), st.integers(1, 3),
           st.sampled_from([0.0, 1e-8, 0.01, 0.5]))
    @settings(max_examples=25, deadline=None)
    def test_predictions_match_sparse_solve(self, seed, capacity, p, gamma_g):
        points, labels = _random_stream(seed, 60, p)
        cfg = GraphConfig(mode="epsilon", sigma=1.0)
        state = QuantizerState(capacity, 1.5)
        for x, lab in zip(points, labels):
            idx = copy.deepcopy(state).observe(x, int(lab))
            try:
                step = predict_online(state, x, int(lab), gamma_g, cfg)
            except SolverError:
                # Only a system too ill-conditioned for the 1e-10 residual
                # check may fail: Cholesky's backward error keeps the relative
                # residual below about 10 eps cond(A).  With gamma_g <= 1e-8
                # only the relative cut keeps a component off weights near
                # 1e-20.
                w, mult, comp_labels, _ = sparse_online_system(state, idx, gamma_g, cfg)
                a, _, _ = sparse_compact_system(w, mult, comp_labels, gamma_g)
                assert gamma_g <= 1e-8 and np.linalg.cond(a.toarray()) > 1e4
                continue
            assert step.centroid == idx
            system = sparse_online_system(state, idx, gamma_g, cfg)
            if system is None:
                assert step.abstained
                continue
            w, mult, comp_labels, pos = system
            want, tol = sparse_compact_values(w, mult, comp_labels, gamma_g)
            if tol is None:
                continue
            got = compact_harmonic(CompactGraph(w, mult), comp_labels, gamma_g).values
            assert np.max(np.abs(got - want)) <= tol
            if abs(want[pos]) > tol:
                assert not step.abstained and step.prediction == int(np.sign(want[pos]))

    def test_gamma_zero_label_free_component_rejected(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        cg = CompactGraph(w, np.array([1.0, 2.0, 1.0, 3.0]))
        with pytest.raises(DegenerateGraphError):
            compact_harmonic(cg, np.array([1, 0, 0, 0]), 0.0)
        got = compact_harmonic(cg, np.array([1, 0, 0, -1]), 0.0).values
        want, tol = sparse_compact_values(w, cg.multiplicities, np.array([1, 0, 0, -1]), 0.0)
        assert tol == 1e-10 and np.max(np.abs(got - want)) <= tol

    def test_centroid_rows_grow_past_first_block(self):
        state = QuantizerState(capacity=50)
        points = np.arange(40.0)[:, None] * np.array([[1.0, 0.0]])
        for x in points:
            state.observe(x)
        assert state.size == 40
        assert np.array_equal(state.centroids, points)
        assert not state.centroids.flags.writeable
        copy = state.centroid_matrix()
        copy[0, 0] = -1.0
        assert state.centroids[0, 0] == 0.0


class TestCachedGraph:
    """The sketch's cached centroid graph against the per-step rebuild it
    replaced."""

    def test_graph_of_an_empty_sketch_rejected(self):
        with pytest.raises(InputError, match="no centroids"):
            QuantizerState(4).graph(1.0, True, 0.0)

    def test_large_capacity_allocates_nothing_up_front(self):
        tracemalloc.start()
        try:
            state = QuantizerState(capacity=10**5)
            for x in np.arange(6.0).reshape(3, 2):
                state.observe(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a 16-row block of centroids; one float per unit of capacity would
        # already be 800 kB
        assert peak < 64 * 1024

    @given(st.integers(0, 2**32 - 1), st.integers(4, 30), st.integers(1, 3),
           st.sampled_from([0.0, 1e-8, 1e-4, 0.01, 0.5]))
    @settings(max_examples=40, deadline=None)
    # at step 5 a 3x3 system with cond 2e8 and ||b|| = 7e-8 misses the 1e-10
    # relative residual; its backward error is 6e-17
    @example(seed=1572, capacity=4, p=2, gamma_g=0.0)
    def test_predictions_match_per_step_rebuild(self, seed, capacity, p, gamma_g):
        points, labels = _random_stream(seed, 80, p)
        cfg = GraphConfig(mode="epsilon", sigma=1.0)
        state, ref = QuantizerState(capacity, 1.5), QuantizerState(capacity, 1.5)
        for x, lab in zip(points, labels):
            assert_same_steps(cached_step(state, x, int(lab), gamma_g, cfg),
                              rebuilt_step(ref, x, int(lab), gamma_g, cfg))

    def test_changing_sigma_scaling_or_gamma_between_calls(self):
        # mostly merges, so the graph is often reused and the key alone must
        # tell that it is stale
        points, labels = _random_stream(21, 150, 2)
        settings_cycle = [(1.0, True, 0.01), (0.4, True, 0.01), (0.4, False, 0.01),
                          (0.4, False, 1e-6), (0.4, False, 0.5), (1.0, True, 0.01)]
        state, ref = QuantizerState(12, 1.5), QuantizerState(12, 1.5)
        reused = 0
        for t, (x, lab) in enumerate(zip(points, labels)):
            sigma, normalize_by_p, gamma_g = settings_cycle[(t // 3) % len(settings_cycle)]
            cfg = GraphConfig(mode="epsilon", sigma=sigma, normalize_by_p=normalize_by_p)
            before = state._graph
            assert_same_steps(cached_step(state, x, int(lab), gamma_g, cfg),
                              rebuilt_step(ref, x, int(lab), gamma_g, cfg))
            reused += before is not None and state._graph is before
        assert reused > 50

    # (sigma, normalize_by_p, eps_cut); at eps_cut = 0 only the relative cut
    # acts, which an append can move in older rows
    KEYS = [(1.0, True, 0.0), (0.5, False, 0.0), (0.5, True, 1e-3), (2.0, False, 0.05)]

    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 5), st.booleans(),
           st.sampled_from([1.0, 5.0]), st.lists(st.integers(0, 3), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_appended_graph_equals_a_rebuild(self, seed, capacity, p, rounded, spread,
                                             key_order):
        # spread 5 leaves early centroids with weak strongest edges that
        # later, nearer centroids raise
        points = spread * _random_stream(seed, 150, p)[0]
        if rounded:                     # many duplicates
            points = np.round(points)
        state = QuantizerState(capacity, 1.5)
        appended = 0
        for t, x in enumerate(points):
            key = self.KEYS[key_order[(t // 10) % len(key_order)]]
            before, size = state._graph, state.size
            idx = state.observe(x)
            graph = state.graph(*key)
            appended += (graph is before and state.size > size)
            want = CentroidGraph(state.centroids, *key).weights
            assert np.array_equal(graph.weights, want)
            for node in (idx, t % state.size):
                comp, block = graph.block(node)
                assert np.array_equal(comp, rebuilt_component(want, node))
                assert np.array_equal(block, want[np.ix_(comp, comp)])
        assert appended > 0 or state.size <= 2

    @staticmethod
    def _assert_cached_blocks_are_fresh_cuts(graph):
        for label, (comp, block) in graph._blocks.items():
            assert np.array_equal(comp, (graph._component[:graph._size] == label).nonzero()[0])
            assert block.flags.c_contiguous
            assert np.array_equal(block, graph._cut[comp].take(comp, axis=1))

    @given(st.integers(0, 2**32 - 1), st.integers(4, 40), st.integers(1, 3), st.booleans(),
           st.sampled_from(KEYS))
    @settings(max_examples=40, deadline=None)
    def test_grown_blocks_equal_a_fresh_cut_at_every_step(self, seed, capacity, p, rounded,
                                                          key):
        points = _random_stream(seed, 120, p)[0]
        if rounded:                     # many duplicates
            points = np.round(points)
        state = QuantizerState(capacity, 1.5)
        for x in points:
            idx = state.observe(x)
            graph = state.graph(*key)
            # the kept labels partition the nodes as a rebuild's do, and each
            # label is at most its component's smallest index
            got, rebuilt = graph._component[:state.size], component_labels(graph.weights)
            assert np.array_equal(got[:, None] == got[None, :],
                                  rebuilt[:, None] == rebuilt[None, :])
            for label in np.unique(got):
                assert label <= np.flatnonzero(got == label)[0]
            self._assert_cached_blocks_are_fresh_cuts(graph)
            graph.block(idx)

    def test_append_cuts_an_edge_below_a_raised_strongest_edge(self):
        state = QuantizerState(10)
        for x in (0.0, 0.01, 10.0, 13.5):
            state.observe(np.array([x]))
        graph = state.graph(1.0, True, 0.0)
        # nodes 2 and 3 are each other's strongest edge, exp(-12.25)
        assert graph.weights[2, 3] > 0 and graph.block(2)[0].tolist() == [2, 3]
        state.observe(np.array([10.1]))
        assert state.graph(1.0, True, 0.0) is graph
        # node 2's strongest edge is now exp(-0.01) to node 4
        assert graph.weights[2, 3] == 0.0 and graph.block(2)[0].tolist() == [2, 4]
        assert np.array_equal(graph.weights,
                              CentroidGraph(state.centroids, 1.0, True, 0.0).weights)

    def test_one_append_joins_three_components(self, monkeypatch):
        # a far pair, then three pairs 3 and 3.3 from the origin, over 5 from
        # each other: at sigma 1 and eps_cut 1e-3 the origin's edges (about
        # 0.011 and 0.0043) survive and the pairs' mutual ones (1.4e-6 and
        # less) are cut, so the origin joins three components
        points = [[20.0, 20.0], [20.1, 20.0]]
        for angle in np.deg2rad([0.0, 120.0, 240.0]):
            points += [r * np.array([np.cos(angle), np.sin(angle)]) for r in (3.0, 3.3)]
        key = (1.0, True, 1e-3)
        state = QuantizerState(20)
        for x in points:
            state.observe(np.asarray(x))
            graph = state.graph(*key)
        assert state.size == 8
        for node in range(8):
            graph.block(node)           # fill the block cache
        labels_before = graph._component[:8].copy()
        relabelled = []
        label_components = CentroidGraph._label_components

        def spy(g):
            relabelled.append(g)
            label_components(g)

        monkeypatch.setattr(CentroidGraph, "_label_components", spy)
        state.observe(np.zeros(2))
        assert state.graph(*key) is graph and state.size == 9 and not relabelled
        want = CentroidGraph(state.centroids, *key).weights
        assert np.array_equal(graph.weights, want)
        assert np.unique(labels_before[np.flatnonzero(want[8, :8])]).size == 3
        # the partition of a rebuild's labelling, numbered differently
        got, rebuilt = graph._component[:9], component_labels(want)
        assert np.array_equal(got[:, None] == got[None, :], rebuilt[:, None] == rebuilt[None, :])
        for node in range(9):
            comp, block = graph.block(node)
            assert np.array_equal(comp, rebuilt_component(want, node))
            assert np.array_equal(block, want[np.ix_(comp, comp)])
        assert graph.block(2)[0].tolist() == list(range(2, 9))
        assert graph.block(0)[0].tolist() == [0, 1]

    def test_no_append_on_the_step_that_repartitions(self, monkeypatch):
        appended_at = []
        append = CentroidGraph.append

        def spy(graph, d2):
            appended_at.append(state.observed)
            append(graph, d2)

        monkeypatch.setattr(CentroidGraph, "append", spy)
        # a small first radius: many appends, several repartitions
        points = np.vstack([[0.0, 0.0], [0.01, 0.0],
                            np.random.default_rng(8).normal(0.0, 3.0, (200, 2))])
        state = QuantizerState(8, 1.5)
        repartitioned_at = []
        for x in points:
            state.observe(x)
            if state.last_repartition is not None:
                repartitioned_at.append(state.observed)
            state.graph(1.0, True, 0.0)
        assert appended_at and repartitioned_at
        assert not set(appended_at) & set(repartitioned_at)

    @pytest.mark.parametrize("sigma, eps_cut", [(0.0, 0.0), (np.nan, 0.0), (1.0, -1.0),
                                                (1.0, np.inf), (1e-200, 0.0)])
    def test_graph_rejects_a_bad_key(self, sigma, eps_cut):
        state = QuantizerState(4)
        state.observe(np.zeros(2))
        with pytest.raises(InputError, match="sigma"):
            state.graph(sigma, True, eps_cut)
        with pytest.raises(InputError, match="sigma"):
            CentroidGraph(state.centroids, sigma, True, eps_cut)

    def test_pairwise_distances_only_for_rebuilds_and_repartitions(self, monkeypatch):
        calls = []
        pairwise = _kernels.pairwise_sq_dists

        def counted(*args):
            calls.append(state.observed)
            return pairwise(*args)

        monkeypatch.setattr(_kernels, "pairwise_sq_dists", counted)
        # a small first radius: many appends, several repartitions
        rng = np.random.default_rng(8)
        points = np.vstack([[0.0, 0.0], [0.01, 0.0], rng.normal(0.0, 3.0, (200, 2))])
        labels = np.where(points[:, 0] > 0, 1, -1) * (rng.random(len(points)) < 0.2)
        state = QuantizerState(10, 1.5)
        cfg = GraphConfig(mode="epsilon", sigma=1.0)
        grown = repartitions = 0
        for x, lab in zip(points, labels):
            before, size = state._graph, state.size
            predict_online(state, x, int(lab), 0.01, cfg)
            rebuilt = state._graph is not None and state._graph is not before
            repartitioned = state.last_repartition is not None
            assert calls.count(state.observed) == rebuilt + repartitioned
            grown += not rebuilt and state.size > size
            repartitions += repartitioned
        assert grown > 0 and repartitions > 0

    @given(st.integers(0, 2**32 - 1), st.integers(4, 40), st.integers(1, 3),
           st.sampled_from([0.3, 1.0]))
    @settings(max_examples=20, deadline=None)
    def test_relative_cut_moves_no_weight_at_gamma_1e_2(self, seed, capacity, p, sigma):
        points, _ = _random_stream(seed, 100, p)
        state = QuantizerState(capacity, 1.5)
        for x in points:
            state.observe(x)
        w = gaussian_in_place(_kernels.pairwise_sq_dists(state.centroids, np.ones(p)), p, sigma,
                              True)
        np.fill_diagonal(w, 0.0)
        w[w < 1e-3] = 0.0
        assert np.array_equal(state.graph(sigma, True, 0.1 * 0.01).weights, w)

    # Streams of the _random_stream family (capacity 4-30 and dimension 1-3
    # drawn from seed 10000 + s) on which the absolute cut alone raised
    # SolverError at gamma_g 0 or 1e-8: their components hung on weights of
    # 1e-86 to 1e-11 beside weights near 1.
    @pytest.mark.parametrize("gamma_g", [0.0, 1e-8])
    def test_small_gamma_streams_do_not_raise(self, gamma_g):
        cfg = GraphConfig(mode="epsilon", sigma=1.0)
        for s in (6, 37, 58, 59, 85, 96, 112, 116, 123, 127, 140, 149, 193, 198):
            rng = np.random.default_rng(10_000 + s)
            capacity, p = int(rng.integers(4, 31)), int(rng.integers(1, 4))
            points, labels = _random_stream(s, 40, p)
            state = QuantizerState(capacity, 1.5)
            for x, lab in zip(points, labels):
                predict_online(state, x, int(lab), gamma_g, cfg)


def test_per_step_cost_stays_flat():
    # wall time per step must not trend upward with t for fixed capacity
    rng = np.random.default_rng(9)
    capacity = 16
    stream = rng.random((10 * capacity, 2))
    cfg = GraphConfig(mode="epsilon", sigma=1.0)
    state = QuantizerState(capacity, 1.5)
    times = []
    for t, x in enumerate(stream):
        t0 = time.perf_counter()
        predict_online(state, x, 1 if t == 0 else (-1 if t == 1 else 0), 0.05, cfg)
        times.append(time.perf_counter() - t0)
    times = np.array(times[capacity:])  # skip warmup/jit
    t_axis = np.arange(times.size, dtype=float)
    slope = np.polyfit(t_axis, times, 1)[0]
    assert slope * times.size <= max(1.0, 0.5) * np.median(times) * 4
