import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphssl import (BackboneState, DegenerateGraphError, GraphConfig, InputError,
                      JointConfig, PointSet, SoftConfig, build_graph, elastic_joint,
                      infer_unlabeled, joint_objective, propagate_on_backbone,
                      quantization_step, quantization_surrogate, soft_harmonic)
from graphssl import graph as graph_module, joint
from graphssl._kernels import cross_sq_dists
from graphssl.harmonic import DENSE_MAX_N
from graphssl.joint import (_assign, _centroid_system, _nearest, _pinned_assigner,
                            _reseed_empty)

from _synth import two_arcs


def _state(centroids, pinned, soft, points, sigma=1.0):
    return BackboneState(
        centroids=np.asarray(centroids, dtype=float),
        pinned_labels=np.asarray(pinned, dtype=np.int64),
        soft_labels=np.asarray(soft, dtype=float),
        assignment=_assign(np.asarray(points, float), np.asarray(centroids, float),
                           np.ones(np.asarray(points).shape[1])),
        sigma=sigma,
    )


class TestQuantizationStep:
    def test_uniform_labels_reduce_to_kmeans_update(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(30, 2))
        centroids = np.vstack([points[0], points[5], points[14]])
        state = _state(centroids, [1], np.full(3, 0.7), points)
        cfg = JointConfig(k=2, gamma_q=10.0)
        new = quantization_step(state, cfg, points)
        assert np.array_equal(new[0], centroids[0])  # labeled node pinned
        for j in (1, 2):
            members = points[state.assignment == j]
            assert np.allclose(new[j], members.mean(axis=0), atol=1e-10)

    def test_plugback_residual_on_random_instances(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            points = rng.normal(size=(40, 3))
            centroids = points[:6].copy()
            soft = rng.uniform(-1, 1, 6)
            soft[:2] = [1.0, -1.0]
            state = _state(centroids, [1, -1], soft, points, sigma=0.8)
            cfg = JointConfig(k=4, gamma_q=50.0)
            new = quantization_step(state, cfg, points)
            # plug back into the stated equations
            total, n = 6, 40
            q = (soft[:, None] - soft[None, :]) ** 2 / (total ** 2 * 0.8 ** 2)
            counts = np.bincount(state.assignment, minlength=total)
            for j in range(2, 6):
                lhs = sum(q[i, j] * new[i] for i in range(total))
                lhs += new[j] * (2 * cfg.gamma_q * counts[j] / n - q[:, j].sum())
                rhs = 2 * cfg.gamma_q / n * points[state.assignment == j].sum(axis=0)
                assert np.linalg.norm(lhs - rhs) < 1e-8

    def test_empty_cluster_with_label_terms_still_solves(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(20, 2))
        # second free centroid far away: no points assigned to it
        centroids = np.vstack([points[0], points[1], [50.0, 50.0]])
        soft = np.array([1.0, -0.5, 0.5])
        state = _state(centroids, [1], soft, points)
        cfg = JointConfig(k=2, gamma_q=5.0)
        new = quantization_step(state, cfg, points)
        assert np.all(np.isfinite(new))
        total, n = 3, 20
        q = (soft[:, None] - soft[None, :]) ** 2 / (total ** 2 * 1.0)
        counts = np.bincount(state.assignment, minlength=total)
        for j in (1, 2):
            lhs = sum(q[i, j] * new[i] for i in range(total))
            lhs += new[j] * (2 * cfg.gamma_q * counts[j] / n - q[:, j].sum())
            rhs = 2 * cfg.gamma_q / n * points[state.assignment == j].sum(axis=0) \
                if counts[j] else np.zeros(2)
            assert np.linalg.norm(lhs - rhs) < 1e-8


class TestPropagateOnBackbone:
    def test_zero_targets_give_zero(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(8, 2))
        state = _state(pts, [], np.zeros(8), pts)
        values = propagate_on_backbone(state, JointConfig(k=8))
        assert np.array_equal(values, np.zeros(8))

    def test_large_fit_weight_pins_labeled_backbone(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(6, 2))
        labels = np.array([1, -1, 1, -1, 1, -1])
        state = _state(pts, labels, labels.astype(float), pts)
        cfg = JointConfig(k=1, f_l=1e8, f_u=1e-3)
        values = propagate_on_backbone(state, cfg)
        assert np.allclose(values, labels, atol=1e-4)

    def test_matches_soft_harmonic_with_fit_matrix(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(12, 2))
        pinned = np.array([1, -1, 1])
        centroids = pts[:12]
        state = _state(centroids, pinned, np.concatenate([pinned, np.zeros(9)]), pts,
                       sigma=0.9)
        cfg = JointConfig(k=9, f_l=10.0, f_u=0.1, gamma_g=1e-6)
        values = propagate_on_backbone(state, cfg)
        node_labels = np.concatenate([pinned, np.zeros(9, dtype=int)])
        g = build_graph(PointSet(centroids, node_labels),
                        GraphConfig(mode="knn", k_neighbors=3, sigma=0.9))
        want = soft_harmonic(g, node_labels.astype(float),
                             SoftConfig(1e-6, 10.0, 0.1))
        assert np.allclose(values, want.values, atol=1e-10)


@st.composite
def _backbones(draw):
    """Backbones of up to DENSE_MAX_N nodes, some with duplicate centroids,
    some with feature weights (zeros among them), with a config."""
    n = draw(st.integers(2, DENSE_MAX_N))
    m = draw(st.integers(1, n - 1))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, p))
    if draw(st.booleans()):
        x = x[rng.integers(0, max(1, n // 3), size=n)]
    psi = draw(st.sampled_from(["none", "random", "with zeros"]))
    fw = None if psi == "none" else rng.random(p)
    if psi == "with zeros":
        fw[rng.random(p) < 0.5] = 0.0
    state = BackboneState(x, rng.choice([-1, 1], size=m), np.zeros(n), np.zeros(n, dtype=int),
                          sigma=10.0 ** draw(st.floats(-1.5, 0.5)), feature_weights=fw)
    cfg = JointConfig(k=1, f_u=10.0 ** draw(st.floats(-3, 0)),
                      gamma_g=draw(st.sampled_from([0.0, 1e-6, 1e-2])))
    return state, cfg


class TestDenseBackbone:
    """A backbone of at most DENSE_MAX_N nodes is a dense array with
    build_graph's weights; its propagation is within the stated bound of
    the sparse path's."""

    @settings(max_examples=150, deadline=None)
    @given(_backbones())
    def test_equals_build_graph_and_propagates_within_the_bound(self, case):
        state, cfg = case
        ps = PointSet(state.centroids, state.node_labels(), state.feature_weights)
        gcfg = GraphConfig(mode="knn", k_neighbors=min(joint.BACKBONE_KNN, ps.n - 1),
                           sigma=state.sigma)
        try:
            g = build_graph(ps, gcfg)
        except DegenerateGraphError as exc:    # every weight underflows
            with pytest.raises(DegenerateGraphError, match=re.escape(str(exc))):
                joint._backbone_weights(state)
            return
        dense = joint._backbone_weights(state)
        assert isinstance(dense, np.ndarray) and np.array_equal(dense, g.weights.toarray())
        got = propagate_on_backbone(state, cfg)
        want = joint._propagate(state, cfg, g.weights)
        # dense row sums add in another order than CSR's: the first-order
        # bound of the joint module's docstring, with |labels| <= 1
        tol = ps.n * np.finfo(np.float64).eps * (2 * g.degrees.max() + cfg.f_l) / cfg.f_u
        assert np.max(np.abs(got - want)) <= tol

    def test_underflow_names_sigma(self):
        state = _state(np.array([[0.0], [1.0], [2.0]]), [1], np.zeros(3), np.zeros((1, 1)),
                       sigma=1e-150)
        with pytest.raises(DegenerateGraphError, match="sigma=1e-150"):
            propagate_on_backbone(state, JointConfig(k=2))

    def test_larger_backbone_goes_through_build_graph(self):
        n = DENSE_MAX_N + 1
        pts = np.random.default_rng(0).normal(size=(n, 2))
        state = _state(pts, [1, -1], np.zeros(n), pts, sigma=0.5)
        with mock.patch.object(joint, "build_graph", wraps=build_graph) as build:
            w = joint._backbone_weights(state)
            assert build.call_count == 1
        assert sp.issparse(w)


def _kmeans_then_propagate_objective(ps, cfg, seed):
    """Baseline pipeline evaluated on the same objective: plain Lloyd on
    the unlabeled points, pinned labeled nodes, one propagation."""
    rng_perm = __import__("graphssl.rng", fromlist=["PortableRng"]).PortableRng(seed)
    labeled_idx = np.flatnonzero(ps.labels != 0)
    unlabeled_idx = np.flatnonzero(ps.labels == 0)
    seeds = ps.points[unlabeled_idx[rng_perm.choice(unlabeled_idx.size, cfg.k)]]
    centroids = seeds.copy()
    pts_u = ps.points[unlabeled_idx]
    for _ in range(100):
        d2 = ((pts_u[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
        assign = d2.argmin(axis=1)
        new = centroids.copy()
        for j in range(cfg.k):
            members = pts_u[assign == j]
            if members.size:
                new[j] = members.mean(axis=0)
        if np.allclose(new, centroids):
            break
        centroids = new
    from graphssl.joint import _assign as assign_fn
    backbone = np.vstack([ps.points[labeled_idx], centroids])
    state = BackboneState(
        centroids=backbone,
        pinned_labels=ps.labels[labeled_idx],
        soft_labels=np.concatenate([ps.labels[labeled_idx].astype(float),
                                    np.zeros(cfg.k)]),
        assignment=assign_fn(ps.points, backbone, ps.feature_weights),
        sigma=cfg.sigma,
    )
    state.soft_labels = propagate_on_backbone(state, cfg)
    return joint_objective(state, cfg, ps.points)


class TestElasticJoint:
    def test_pinned_rows_never_move_and_trace_recorded(self):
        ps, _ = two_arcs(120, seed=0, labeled_per_class=3)
        cfg = JointConfig(k=10, sigma=0.4)
        state = elastic_joint(ps, cfg, seed=1)
        labeled_pts = ps.points[ps.labels != 0]
        assert np.array_equal(state.centroids[:6], labeled_pts)
        assert len(state.objective_trace) >= 2
        assert all(np.isfinite(v) for v in state.objective_trace)

    def test_determinism(self):
        ps, _ = two_arcs(100, seed=2, labeled_per_class=3)
        cfg = JointConfig(k=8, sigma=0.4)
        a = elastic_joint(ps, cfg, seed=7)
        b = elastic_joint(ps, cfg, seed=7)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.objective_trace == b.objective_trace

    def test_trace_equals_the_objective_of_each_recorded_state(self, monkeypatch):
        # each outer step builds the backbone graph once for the propagation
        # and the objective; the public form builds its own
        snapshots = []
        objective = joint._objective

        def spy(state, cfg, points, g):
            snapshots.append(BackboneState(
                state.centroids.copy(), state.pinned_labels.copy(), state.soft_labels.copy(),
                state.assignment.copy(), state.sigma, feature_weights=state.feature_weights))
            return objective(state, cfg, points, g)

        monkeypatch.setattr(joint, "_objective", spy)
        ps, _ = two_arcs(120, seed=6, labeled_per_class=3)
        cfg = JointConfig(k=10, sigma=0.4)
        state = elastic_joint(ps, cfg, seed=2)
        monkeypatch.undo()
        assert len(snapshots) == len(state.objective_trace) >= 3
        for recorded, value in zip(snapshots, state.objective_trace):
            assert joint_objective(recorded, cfg, ps.points) == value

    def test_huge_quantization_weight_reaches_kmeans_fixed_point(self):
        ps, _ = two_arcs(100, seed=3, labeled_per_class=2)
        cfg = JointConfig(k=6, gamma_q=1e12, sigma=0.4)
        state = elastic_joint(ps, cfg, seed=5)
        for j in range(state.n_labeled, state.n_nodes):
            members = ps.points[state.assignment == j]
            if members.shape[0]:
                assert np.allclose(state.centroids[j], members.mean(axis=0), atol=1e-5)

    def test_inner_surrogate_non_increasing(self):
        ps, _ = two_arcs(150, seed=4, labeled_per_class=4)
        cfg = JointConfig(k=12, sigma=0.4)
        state = elastic_joint(ps, cfg, seed=3)
        # replay one propagation + inner quantization loop from the final state
        state.soft_labels = propagate_on_backbone(state, cfg)
        before = quantization_surrogate(state, cfg, ps.points)
        for _ in range(5):
            state.centroids = quantization_step(state, cfg, ps.points)
            state.assignment = _assign(ps.points, state.centroids, ps.feature_weights)
            after = quantization_surrogate(state, cfg, ps.points)
            assert after <= before + 1e-9 * max(1.0, abs(before))
            before = after

    def test_beats_kmeans_pipeline_on_standard_instance(self):
        # joint stage warm-started from the pipeline's own k-means output
        # (kmeans_init) must refine the pipeline's objective
        ps, _ = two_arcs(200, seed=10, labeled_per_class=5)
        cfg = JointConfig(k=20, sigma=0.35, kmeans_init=True)
        wins = 0
        for seed in range(4):
            ours = elastic_joint(ps, cfg, seed=seed).objective_trace[-1]
            baseline = _kmeans_then_propagate_objective(ps, cfg, seed)
            wins += int(ours <= baseline + 1e-9)
        assert wins >= 3

    def test_input_validation(self):
        ps, _ = two_arcs(30, seed=1, labeled_per_class=2)
        with pytest.raises(InputError):
            elastic_joint(ps, JointConfig(k=40, sigma=0.4), seed=0)
        unlabeled = PointSet(ps.points, np.zeros(30, dtype=int))
        with pytest.raises(InputError):
            elastic_joint(unlabeled, JointConfig(k=3, sigma=0.4), seed=0)

    @pytest.mark.parametrize("k", [2.5, "3", None, 3.0])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(InputError, match="k must be an integer"):
            JointConfig(k=k)

    @pytest.mark.parametrize("kwargs, match", [
        ({"k": 0}, "k must be >= 1"), ({"gamma_q": 0.0}, "gamma_q must be positive"),
        ({"gamma_q": -1.0}, "gamma_q must be positive"), ({"f_l": 0.1}, "f_l > f_u"),
        ({"f_l": 1.0, "f_u": 2.0}, "f_l > f_u"), ({"f_u": 0.0}, "f_l > f_u"),
        ({"gamma_g": -1.0}, "gamma_g must be finite and >= 0"),
        ({"gamma_g": float("nan")}, "gamma_g must be finite and >= 0"),
        ({"gamma_g": float("inf")}, "gamma_g must be finite and >= 0")])
    def test_bad_settings_rejected(self, kwargs, match):
        with pytest.raises(InputError, match=match):
            JointConfig(**{"k": 3, **kwargs})

    def test_integer_typed_k_is_an_int(self):
        assert JointConfig(k=np.int64(3)) == JointConfig(k=3)
        assert type(JointConfig(k=np.int64(3)).k) is int


class TestInferUnlabeled:
    def test_point_on_centroid_takes_its_label(self):
        ps, _ = two_arcs(80, seed=6, labeled_per_class=3)
        cfg = JointConfig(k=6, sigma=0.4)
        state = elastic_joint(ps, cfg, seed=2)
        values, signs = infer_unlabeled(
            PointSet(state.centroids[7:8], np.zeros(1, dtype=int)), state)
        assert values[0] == state.soft_labels[7]

    def test_tie_goes_to_lowest_centroid_index(self):
        centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])
        state = BackboneState(centroids, np.array([1], dtype=np.int64),
                              np.array([0.5, -0.5]),
                              np.zeros(1, dtype=np.int64), sigma=1.0)
        values, signs = infer_unlabeled(
            PointSet(np.array([[0.0, 0.0]]), np.zeros(1, dtype=int)), state)
        assert values[0] == 0.5 and signs[0] == 1

    def test_agreement_with_full_graph_solution(self):
        rng = np.random.default_rng(8)
        a = rng.normal(0, 0.8, (250, 2))
        b = rng.normal(4.5, 0.8, (250, 2))
        pts = np.vstack([a, b])
        true = np.concatenate([np.ones(250, dtype=int), -np.ones(250, dtype=int)])
        labels = np.zeros(500, dtype=int)
        labels[rng.choice(250, 5, replace=False)] = 1
        labels[250 + rng.choice(250, 5, replace=False)] = -1
        ps = PointSet(pts, labels)
        cfg = JointConfig(k=50, sigma=0.5)
        state = elastic_joint(ps, cfg, seed=4)
        _, signs = infer_unlabeled(ps, state)

        g = build_graph(ps, GraphConfig(mode="knn", k_neighbors=8, sigma=0.5))
        full = soft_harmonic(g, labels.astype(float), SoftConfig(1e-6, 10.0, 0.1))
        full_signs = np.sign(full.values)
        agree = np.mean(signs == full_signs)
        assert agree >= 0.9


# A test-only copy of elastic_joint's reseed of the free centroids that lost
# every point, over a pool of point indices, written with full distance
# matrices.
def _reseed_empty_reference(state, ps, assignment, pool):
    counts = np.bincount(assignment, minlength=state.n_nodes)
    empty = [j for j in range(state.n_labeled, state.n_nodes) if counts[j] == 0]
    if not empty:
        return False
    nearest = cross_sq_dists(ps.points[pool], state.centroids,
                             ps.feature_weights).min(axis=1)
    for j in empty:
        far = int(np.argmax(nearest))
        state.centroids[j] = ps.points[pool[far]]
        nearest = np.minimum(nearest, cross_sq_dists(
            ps.points[pool], state.centroids[j][None, :], ps.feature_weights).ravel())
    return True


def _state_with_dead_centroids(seed, n_dead):
    """Two pinned labeled points, five free centroids on data points and
    n_dead free centroids far from every point, so no point is assigned to
    them; uniform soft labels and random feature weights."""
    rng = np.random.default_rng(seed)
    ps = PointSet(rng.normal(size=(60, 3)), np.r_[1, -1, np.zeros(58, dtype=int)],
                  rng.uniform(0.5, 2.0, 3))
    free = np.vstack([ps.points[2 + rng.choice(58, 5, replace=False)],
                      50.0 + rng.normal(size=(n_dead, 3))])
    centroids = np.vstack([ps.points[:2], free])
    state = BackboneState(centroids, np.array([1, -1]), np.full(len(centroids), 0.25),
                          _assign(ps.points, centroids, ps.feature_weights), sigma=0.5,
                          feature_weights=ps.feature_weights)
    return ps, state


class TestReseed:
    @staticmethod
    def _singular_step(state, cfg, points):
        """One quantization step on a singular system, with the facts every
        such step keeps: pinned rows and free centroids without a point stay
        bit-equal, and each other free centroid lands on its members' mean."""
        # uniform labels leave a zero row and column for each free centroid
        # without a point
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(*_centroid_system(state, cfg, points))
        got = quantization_step(state, cfg, points)
        m = state.n_labeled
        assert np.array_equal(got[:m], state.centroids[:m])
        for j in range(m, state.n_nodes):
            members = points[state.assignment == j]
            if members.size:
                assert np.allclose(got[j], members.mean(axis=0), rtol=0, atol=1e-12)
            else:
                assert np.array_equal(got[j], state.centroids[j])
        return got

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_dead", [1, 2])
    def test_singular_step_leaves_unplaced_centroids_where_they_are(self, seed, n_dead):
        ps, state = _state_with_dead_centroids(seed, n_dead)
        assert np.bincount(state.assignment, minlength=state.n_nodes)[-1] == 0
        self._singular_step(state, JointConfig(k=5 + n_dead, sigma=0.5), ps.points)

    def test_singular_step_at_one_place_returns_the_centroids(self):
        # every point and node at one place and uniform labels: the pinned
        # node 0 wins every tie, so no free centroid has a point
        points, centroids = np.tile([1.0, 2.0], (12, 1)), np.tile([1.0, 2.0], (5, 1))
        state = BackboneState(centroids, np.array([1, -1]), np.full(5, 0.25),
                              _assign(points, centroids, None), sigma=0.5)
        got = self._singular_step(state, JointConfig(k=3, sigma=0.5), points)
        assert np.array_equal(got, centroids)

    @pytest.mark.parametrize("seed", range(4))
    def test_centroid_emptied_by_a_step_is_reseeded(self, monkeypatch, seed):
        # points on a 3 x 3 grid and 8 free centroids: a quantization step
        # leaves a free centroid without a point, and elastic_joint moves it
        # onto the unlabeled point farthest from the backbone
        rng = np.random.default_rng(seed)
        ps = PointSet(rng.integers(0, 3, size=(30, 2)).astype(float),
                      np.r_[1, -1, np.zeros(28, dtype=int)])
        results, reseed = [], joint._reseed_empty

        def recorded(centroids, m, assignment, pool, psi):
            results.append((len(pool), reseed(centroids, m, assignment, pool, psi)))
            return results[-1][1]

        monkeypatch.setattr(joint, "_reseed_empty", recorded)
        state = elastic_joint(ps, JointConfig(k=8, sigma=0.5), seed=seed)
        # elastic_joint is the one caller, and its pool is the 28 unlabeled
        # points
        assert (28, True) in results and {size for size, _ in results} == {28}
        assert np.array_equal(state.assignment,
                              _assign(ps.points, state.centroids, ps.feature_weights))
        assert np.all(np.isfinite(state.objective_trace))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_dead", [0, 1, 2])
    def test_empty_centroid_reseed_equals_reference(self, seed, n_dead):
        ps, state = _state_with_dead_centroids(seed, n_dead)
        pool = np.flatnonzero(ps.labels == 0)
        want_state = BackboneState(state.centroids.copy(), state.pinned_labels,
                                   state.soft_labels, state.assignment, state.sigma)
        want = _reseed_empty_reference(want_state, ps, state.assignment, pool)
        centroids = state.centroids.copy()
        got = _reseed_empty(centroids, state.n_labeled, state.assignment, ps.points[pool],
                            ps.feature_weights)
        assert got == want == (n_dead > 0)
        assert np.array_equal(centroids, want_state.centroids)


@st.composite
def _backbones(draw):
    """Points on a small integer grid, pinned nodes on points and free
    centroids partly on pinned nodes, so exact ties are common."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m, k, p = (draw(st.integers(1, hi)) for hi in (40, 6, 6, 3))
    points = rng.integers(-2, 3, size=(n, p)).astype(np.float64)
    pinned = points[rng.integers(0, n, m)]
    free = rng.integers(-2, 3, size=(k, p)).astype(np.float64)
    on_pinned = rng.random(k) < 0.5
    free[on_pinned] = pinned[rng.integers(0, m, int(on_pinned.sum()))]
    weights = draw(st.sampled_from(["none", "ones", "random"]))
    psi = {"none": None, "ones": np.ones(p), "random": rng.uniform(0.5, 2.0, p)}[weights]
    return points, np.vstack([pinned, free]), m, psi


class TestPinnedAssigner:
    @settings(max_examples=300, deadline=None)
    @given(_backbones())
    def test_equals_full_argmin_with_ties(self, backbone):
        points, centroids, m, psi = backbone
        got = _pinned_assigner(points, centroids[:m], psi)(centroids)
        want = _assign(points, centroids, psi)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        # the full argmin, and the same under blocks of one or two rows
        d2 = cross_sq_dists(points, centroids, psi)
        full = np.argmin(d2, axis=1)
        assert np.array_equal(want, full)
        for rows in (1, 2):
            with mock.patch.object(graph_module, "_EXACT_BLOCK", rows * len(centroids)):
                near, near_d2 = _nearest(points, centroids, psi)
                assert np.array_equal(near, full)
                assert np.array_equal(near_d2, d2.min(axis=1))
                blocked = _pinned_assigner(points, centroids[:m], psi)(centroids)
                assert np.array_equal(blocked, full)

    def test_free_centroid_on_a_pinned_node_loses_the_tie(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        centroids = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
        got = _pinned_assigner(points, centroids[:2], None)(centroids)
        assert got.tolist() == [0, 0, 1] == _assign(points, centroids, None).tolist()

    def test_each_inner_step_measures_n_times_k_pairs(self, monkeypatch):
        ps, _ = two_arcs(150, seed=4, labeled_per_class=4)
        cfg = JointConfig(k=12, sigma=0.4)
        calls = []

        def counting(a, b, psi):
            if np.shares_memory(a, ps.points):
                calls.append((len(a), len(b)))
            return cross_sq_dists(a, b, psi)

        # blocks of 480 entries: a search of the 150 points takes 3 or 4 of them
        monkeypatch.setattr(graph_module, "_EXACT_BLOCK", 40 * 12)
        monkeypatch.setattr(joint._kernels, "cross_sq_dists", counting)
        elastic_joint(ps, cfg, seed=3)
        widths = [width for _, width in calls]
        pairs = {w: sum(rows * width for rows, width in calls if width == w) for w in (8, 12)}
        # the pinned nodes once, then n x k pairs per assignment
        assert widths == sorted(widths) and set(widths) == {8, 12}
        assert max(rows for rows, _ in calls) < 150
        assert pairs[8] == 150 * 8
        assert pairs[12] % (150 * 12) == 0 and pairs[12] // (150 * 12) > 10


def _centroid_system_reference(state, cfg, points):
    """The centroid system read from the full (m + k) x (m + k) label
    difference matrix, as it was formed before only its free columns were."""
    m, total, n = state.n_labeled, state.n_nodes, points.shape[0]
    lab = state.soft_labels
    q = (lab[:, None] - lab[None, :]) ** 2 / ((total ** 2) * (state.sigma ** 2))
    counts = np.bincount(state.assignment, minlength=total).astype(np.float64)
    sums = np.column_stack([np.bincount(state.assignment, weights=col, minlength=total)
                            for col in points.T])
    free = np.arange(m, total)
    a = q[np.ix_(free, free)].T.copy()
    a[np.diag_indices(total - m)] += 2.0 * cfg.gamma_q * counts[free] / n - q.sum(axis=0)[free]
    rhs = 2.0 * cfg.gamma_q / n * sums[free] - q[:m, free].T @ state.centroids[:m]
    return a, rhs


@pytest.mark.parametrize("m, k", [(1, 1), (7, 1), (40, 1), (300, 1), (40, 2), (300, 9),
                                  (7, 60)])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("gamma_q", [1e-4, 50.0])
def test_centroid_system_has_the_bits_of_the_full_matrix_form(m, k, p, gamma_q):
    # propagated labels, pinned ones included, are rarely exactly +-1
    rng = np.random.default_rng([m, k, p])
    points = rng.normal(size=(m + k + 200, p)) * 10.0 ** rng.uniform(-3, 3, size=p)
    centroids = points[rng.choice(len(points), m + k, replace=False)]
    soft = rng.uniform(-1, 1, m + k)
    state = _state(centroids, np.sign(soft[:m]).astype(np.int64), soft, points, sigma=0.7)
    cfg = JointConfig(k=k, gamma_q=gamma_q)
    for got, want in zip(_centroid_system(state, cfg, points),
                         _centroid_system_reference(state, cfg, points)):
        assert np.array_equal(got, want)


def test_centroid_sums_equal_add_at():
    # np.bincount adds each centroid's points in point order, as np.add.at does
    rng = np.random.default_rng(6)
    points = rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-3, 3, size=3)
    m, k = 4, 9
    centroids = points[rng.choice(300, m + k, replace=False)]
    soft = np.concatenate([[1.0, -1.0, 1.0, -1.0], rng.uniform(-1, 1, k)])
    state = _state(centroids, [1, -1, 1, -1], soft, points, sigma=0.7)
    cfg = JointConfig(k=k, gamma_q=50.0)
    _, rhs = _centroid_system(state, cfg, points)
    sums = np.zeros((m + k, 3))
    np.add.at(sums, state.assignment, points)
    q = (soft[:, None] - soft[None, :]) ** 2 / (((m + k) ** 2) * 0.7 ** 2)
    want = 2.0 * cfg.gamma_q / 300 * sums[m:] - q[:m, m:].T @ centroids[:m]
    assert np.array_equal(rhs, want)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    # n x (m + k) = 12 000 x 1 500 distances, 69 blocks of 2^18 entries
    n, m, k = 12_000, 1_400, 100
    block = 1 << 18

    def _inputs(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(self.n, 2))
        centroids = points[rng.choice(self.n, self.m + self.k, replace=False)]
        return points, centroids, rng.uniform(0.5, 2.0, 2)

    @pytest.mark.parametrize("search", ["assign", "pinned_assigner", "reseed_empty"])
    def test_nearest_node_searches_hold_one_distance_block(self, monkeypatch, search):
        points, centroids, psi = self._inputs()
        m, total = self.m, self.m + self.k
        # every centroid owns a point but the last three
        assignment = np.arange(self.n) % (total - 3)
        run = {
            "assign": lambda: _assign(points, centroids, psi),
            "pinned_assigner": lambda: _pinned_assigner(points, centroids[:m], psi)(centroids),
            "reseed_empty": lambda: _reseed_empty(centroids.copy(), m, assignment, points, psi),
        }[search]
        monkeypatch.setattr(graph_module, "_EXACT_BLOCK", self.block)
        # the full distance matrix would take n (m + k) 8 bytes, 144 MB
        assert _traced_peak(run) < 3 * 8 * self.block

    def test_centroid_system_forms_no_square_label_matrix(self):
        # the (m + k)^2 label-difference matrix alone would take 18 MB
        points, centroids, _ = self._inputs()
        m, total = self.m, self.m + self.k
        rng = np.random.default_rng(10)
        soft = np.concatenate([np.ones(m), rng.uniform(-1, 1, self.k)])
        state = BackboneState(centroids, np.ones(m, dtype=np.int64), soft,
                              np.arange(self.n) % total, sigma=0.5)
        cfg = JointConfig(k=self.k, gamma_q=50.0)
        # at most three (m + k) x k arrays: q, its running column sums and a
        assert _traced_peak(lambda: _centroid_system(state, cfg, points)) < 3 * 8 * total * self.k


@pytest.mark.parametrize("case", ["far point", "tiny sigma"])
def test_fit_past_the_float_range_rejected(case):
    # a point at 1e200 overflows the quantization pull; duplicates at 1e140
    # with sigma 1e-140 overflow the label-spread term of the centroid system.
    # Either raised a numpy warning, then "points must be finite" or worse.
    ps = two_arcs(60, 0)[0]
    points, sigma = ps.points.copy(), 0.5
    if case == "far point":
        points[np.flatnonzero(ps.labels == 0)[3]] = 1e200
    else:
        points, sigma = np.full_like(points, 1e140), 1e-140
    with pytest.raises(InputError, match="the joint fit overflows"):
        elastic_joint(PointSet(points, ps.labels), JointConfig(k=5, sigma=sigma), seed=0)
