import numpy as np
import pytest

from graphssl import (GraphConfig, InputError, KernelSpec,
                      PointSet, build_graph, induce_labels, kernel_matrix,
                      predict, train_maxmargin, train_on_induced)

from _synth import two_grid_squares


def _hinge_objective(clf, points, y, gamma):
    values = clf.decision_values(points)
    hinge = np.maximum(0.0, 1.0 - y * values).sum()
    k = kernel_matrix(clf.kernel, clf.support_points, clf.support_points)
    norm_sq = float(clf.coefficients @ k @ clf.coefficients)
    return hinge + gamma * norm_sq


class TestKernels:
    def test_linear(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, -1.0]])
        assert kernel_matrix(KernelSpec("linear"), a, b)[0, 0] == 1.0

    def test_cubic(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[2.0, 0.0]])
        assert kernel_matrix(KernelSpec("cubic"), a, b)[0, 0] == 27.0

    def test_rbf(self):
        a = np.array([[0.0]])
        b = np.array([[2.0]])
        got = kernel_matrix(KernelSpec("rbf", rbf_width=1.0), a, b)[0, 0]
        assert got == pytest.approx(np.exp(-2.0))

    def test_parse(self):
        assert KernelSpec.parse("rbf:2.5").rbf_width == 2.5
        assert KernelSpec.parse("cubic").kind == "cubic"
        with pytest.raises(InputError):
            KernelSpec.parse("quartic")

    def test_parse_rejects_a_non_numeric_width(self):
        with pytest.raises(InputError, match="rbf:abc"):
            KernelSpec.parse("rbf:abc")
        with pytest.raises(InputError, match="positive"):
            KernelSpec.parse("rbf:-1")


class TestInduceLabels:
    def _graph(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0, 0.4, (15, 2)), rng.normal(3, 0.4, (15, 2))])
        labels = np.zeros(30, dtype=int)
        labels[0], labels[15] = 1, -1
        ps = PointSet(pts, labels)
        return build_graph(ps, GraphConfig(mode="knn", k_neighbors=5, sigma=1.0)), labels

    def test_epsilon_zero_retains_everything(self):
        g, labels = self._graph()
        idx, signs = induce_labels(g, labels, gamma_g=1e-6, epsilon=0.0)
        assert idx.size == 30

    def test_huge_regularizer_keeps_only_labeled(self):
        g, labels = self._graph()
        idx, signs = induce_labels(g, labels, gamma_g=1e12, epsilon=1e-6)
        assert idx.tolist() == [0, 15]
        assert signs.tolist() == [1, -1]

    def test_default_threshold_keeps_confident_cluster_labels(self):
        g, labels = self._graph()
        idx, signs = induce_labels(g, labels, gamma_g=1e-6, epsilon=1e-6)
        assert idx.size == 30
        assert np.all(signs[:15] == 1) and np.all(signs[15:] == -1)

    def test_retained_size_monotone_in_epsilon_and_gamma(self):
        g, labels = self._graph()
        sizes_eps = [induce_labels(g, labels, 1.0, eps)[0].size
                     for eps in (0.0, 1e-4, 1e-2, 0.1, 0.5)]
        assert all(b <= a for a, b in zip(sizes_eps, sizes_eps[1:]))
        sizes_gamma = [induce_labels(g, labels, gamma, 1e-3)[0].size
                       for gamma in (1e-6, 0.1, 1.0, 10.0, 1e4)]
        assert all(b <= a for a, b in zip(sizes_gamma, sizes_gamma[1:]))


class TestTrainMaxMargin:
    def test_two_points_give_perpendicular_bisector(self):
        pts = np.array([[1.0, 1.0], [3.0, 2.0]])
        y = np.array([1.0, -1.0])
        clf = train_maxmargin(pts, y, KernelSpec("linear"), gamma=0.01)
        mid = pts.mean(axis=0)
        assert abs(clf.decision_values(mid[None, :])[0]) < 1e-6
        # margin constraints active at both points
        vals = clf.decision_values(pts)
        assert vals[0] == pytest.approx(1.0, abs=1e-4)
        assert vals[1] == pytest.approx(-1.0, abs=1e-4)
        # direction parallel to the difference vector
        w = clf.coefficients @ pts
        diff = pts[0] - pts[1]
        cos = w @ diff / (np.linalg.norm(w) * np.linalg.norm(diff))
        assert cos == pytest.approx(1.0, abs=1e-8)

    def test_duplicated_set_same_decision_function_at_matched_gamma(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(12, 2))
        y = np.where(pts[:, 0] + 0.3 * pts[:, 1] > 0.1, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        gamma = 0.05
        clf1 = train_maxmargin(pts, y, KernelSpec("linear"), gamma)
        clf2 = train_maxmargin(np.vstack([pts, pts]), np.concatenate([y, y]),
                               KernelSpec("linear"), 2 * gamma)
        grid = rng.normal(size=(40, 2))
        assert np.allclose(clf1.decision_values(grid), clf2.decision_values(grid),
                           atol=1e-3)

    def test_separable_set_zero_hinge_and_near_optimal_margin(self):
        rng = np.random.default_rng(2)
        pos = rng.normal([0, 0], 0.5, (15, 2))
        neg = rng.normal([4, 1], 0.5, (15, 2))
        pts = np.vstack([pos, neg])
        y = np.concatenate([np.ones(15), -np.ones(15)])
        clf = train_maxmargin(pts, y, KernelSpec("linear"), gamma=1e-4)
        vals = clf.decision_values(pts)
        assert np.all(y * vals >= 1 - 1e-4)  # zero hinge
        w = clf.coefficients @ pts
        achieved = np.min(y * vals) / np.linalg.norm(w)

        # coarse grid-search oracle over direction x offset
        best = 0.0
        for theta in np.linspace(0, np.pi, 720, endpoint=False):
            d = np.array([np.cos(theta), np.sin(theta)])
            proj = pts @ d
            lo, hi = proj[y > 0], proj[y < 0]
            margin = (lo.min() - hi.max()) / 2
            margin = max(margin, (hi.min() - lo.max()) / 2)
            best = max(best, margin)
        assert achieved >= best - 0.05

    def test_convexity_symptom_multiple_inits_agree(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 2))
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        gamma = 0.1
        c_box = 1.0 / (2 * gamma)
        objectives = []
        for trial in range(10):
            alpha = np.zeros(20)
            pos_idx = np.flatnonzero(y > 0)
            neg_idx = np.flatnonzero(y < 0)
            n_pairs = min(len(pos_idx), len(neg_idx))
            vals = rng.random(n_pairs) * c_box
            alpha[pos_idx[:n_pairs]] = vals
            alpha[neg_idx[:n_pairs]] = vals
            clf = train_maxmargin(pts, y, KernelSpec("rbf", 1.0), gamma,
                                  init_alpha=alpha)
            objectives.append(_hinge_objective(clf, pts, y, gamma))
        objectives = np.array(objectives)
        spread = objectives.max() - objectives.min()
        assert spread <= 1e-5 * max(1.0, abs(objectives.mean()))

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            train_maxmargin(np.zeros((3, 2)), np.ones(3), KernelSpec("linear"), 1.0)


class TestPredict:
    def test_support_point_margin_active(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        y = np.array([1.0, -1.0])
        clf = train_maxmargin(pts, y, KernelSpec("linear"), gamma=0.01)
        value, sign = predict(clf, pts[0])
        assert abs(value) >= 1 - 1e-6 and sign == 1

    def test_linear_kernel_decision_is_affine(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(10, 2))
        y = np.where(pts[:, 0] > 0, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        clf = train_maxmargin(pts, y, KernelSpec("linear"), gamma=0.1)
        a, b = rng.normal(size=2), rng.normal(size=2)
        for lam in (0.0, 0.3, 0.7, 1.0):
            mix = lam * a + (1 - lam) * b
            want = lam * predict(clf, a)[0] + (1 - lam) * predict(clf, b)[0]
            assert predict(clf, mix)[0] == pytest.approx(want, abs=1e-10)


class TestTwoSquares:
    def test_graph_cut_separates_but_two_point_svm_does_not(self):
        ps, true = two_grid_squares()
        # grid edges weighted exp(-d^2 / 2): unit steps 0.61, the cluster
        # gap 0.14, cut at 0.2
        g = build_graph(ps, GraphConfig(mode="epsilon", eps_cut=0.2,
                                        sigma=np.sqrt(2.0), normalize_by_p=False))
        # the epsilon graph keeps the two clusters separate
        clf = train_on_induced(ps.points, g, ps.labels, gamma=1e-3,
                               gamma_g=1e-6, epsilon=1e-6,
                               kernel=KernelSpec("linear"))
        signs = np.sign(clf.decision_values(ps.points))
        assert np.array_equal(signs, true)

        # supervised reduction: linear SVM on the two labeled points alone
        labeled = ps.labels != 0
        svm = train_maxmargin(ps.points[labeled], ps.labels[labeled].astype(float),
                              KernelSpec("linear"), gamma=1e-3)
        svm_signs = np.sign(svm.decision_values(ps.points))
        assert np.sum(svm_signs != true) > 0
