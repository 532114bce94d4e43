import numpy as np
import pytest

from graphssl import (BackboneState, GraphConfig, InputError, JointConfig,
                      PointSet, SoftConfig, build_graph, elastic_joint,
                      infer_unlabeled, joint_objective, propagate_on_backbone,
                      quantization_step, quantization_surrogate, soft_harmonic)
from graphssl._kernels import cross_sq_dists
from graphssl.joint import _assign, _centroid_system, _reseed_empty

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
        new = quantization_step(state, cfg, points, np.ones(2))
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
            new = quantization_step(state, cfg, points, np.ones(3))
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
        new = quantization_step(state, cfg, points, np.ones(2))
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

    def test_huge_quantization_weight_reaches_kmeans_fixed_point(self):
        ps, _ = two_arcs(100, seed=3, labeled_per_class=2)
        cfg = JointConfig(k=6, gamma_q=1e12, sigma=0.4, max_outer=12)
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
            state.centroids = quantization_step(state, cfg, ps.points, ps.feature_weights)
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


# Test-only copies of the two farthest-point reseeds as each was written
# before they shared one routine: quantization_step with its own loop in the
# singular-system fallback, and elastic_joint's reseed of the free centroids
# that lost every point, over a pool of point indices.
def _quantization_step_reference(state, cfg, points, psi):
    m, total = state.n_labeled, state.n_nodes
    free = np.arange(m, total)
    a, rhs = _centroid_system(state, cfg, points)
    new = state.centroids.copy()
    try:
        new[free] = np.linalg.solve(a, rhs)
        return new
    except np.linalg.LinAlgError:
        pass
    counts = np.bincount(state.assignment, minlength=total)
    reseeded = state.centroids.copy()
    d2 = cross_sq_dists(points, reseeded, psi)
    nearest = d2.min(axis=1)
    for j in free:
        if counts[j] == 0:
            far = int(np.argmax(nearest))
            reseeded[j] = points[far]
            nearest = np.minimum(
                nearest, cross_sq_dists(points, reseeded[j][None, :], psi).ravel())
    retry = BackboneState(reseeded, state.pinned_labels, state.soft_labels,
                          _assign(points, reseeded, psi), state.sigma,
                          feature_weights=state.feature_weights)
    a, rhs = _centroid_system(retry, cfg, points)
    new = reseeded
    try:
        new[free] = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        new[free] = np.linalg.lstsq(a, rhs, rcond=None)[0]
    return new


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
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_dead", [1, 2])
    def test_singular_fallback_equals_reference(self, seed, n_dead):
        ps, state = _state_with_dead_centroids(seed, n_dead)
        cfg = JointConfig(k=5 + n_dead, sigma=0.5)
        assert np.bincount(state.assignment, minlength=state.n_nodes)[-1] == 0
        # uniform labels leave a zero row for each dead centroid: the
        # fallback runs
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(*_centroid_system(state, cfg, ps.points))
        got = quantization_step(state, cfg, ps.points, ps.feature_weights)
        want = _quantization_step_reference(state, cfg, ps.points, ps.feature_weights)
        assert np.array_equal(got, want)
        assert np.all(np.abs(got[-n_dead:]) < 10)

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
