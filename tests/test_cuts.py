import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from graphssl import cuts, harmonic
from graphssl import graph as graph_module

from graphssl import (CutClassifier, GraphConfig, InputError, KernelSpec,
                      PointSet, SolverError, build_graph, hard_harmonic, induce_labels,
                      kernel_matrix, train_maxmargin, train_on_induced)

from _synth import two_grid_squares


def _hinge_objective(clf, points, y, gamma):
    values = clf.decision_values(points)
    hinge = np.maximum(0.0, 1.0 - y * values).sum()
    k = kernel_matrix(clf.kernel, clf.support_points, clf.support_points)
    norm_sq = float(clf.coefficients @ k @ clf.coefficients)
    return hinge + gamma * norm_sq


def _gap_by_product(alpha, q, y, gamma, c_box):
    """Duality gap, primal and midpoint bias from Q alpha, an r x r product:
    the reference for the trainer's O(r) gap."""
    grad = q @ alpha - 1.0
    g_vals = (q @ alpha) * y
    quad = float(alpha @ (q @ alpha))
    y_grad = -y * grad
    up, low = cuts._working_sets(alpha, y, c_box)
    m_up = y_grad[up].max() if up.any() else -np.inf
    m_low = y_grad[low].min() if low.any() else np.inf
    bias = 0.5 * (m_up + m_low) if np.isfinite(m_up) and np.isfinite(m_low) else 0.0
    hinge = np.maximum(0.0, 1.0 - y * (g_vals + bias)).sum()
    primal = gamma * quad + float(hinge)
    dual = 2.0 * gamma * (float(alpha.sum()) - 0.5 * quad)
    return primal - dual, primal, bias


def _first_order_reference(points, y, kernel, gamma):
    """Maximal-violating-pair SMO with the gap checked by an r x r product
    every max(10, r) steps: the trainer the second-order one replaced."""
    n = y.size
    c_box = 1.0 / (2.0 * gamma)
    k = kernel_matrix(kernel, points, points)
    q = (y[:, None] * k) * y[None, :]
    alpha, grad = np.zeros(n), -np.ones(n)
    for it in range(max(100_000, 500 * n)):
        y_grad = -y * grad
        up, low = cuts._working_sets(alpha, y, c_box)
        if not up.any() or not low.any():
            break
        masked_up = np.where(up, y_grad, -np.inf)
        masked_low = np.where(low, y_grad, np.inf)
        i, j = int(np.argmax(masked_up)), int(np.argmin(masked_low))
        violation = masked_up[i] - masked_low[j]
        if violation <= 1e-12:
            break
        if it % max(10, n) == 0:
            gap, primal, _ = _gap_by_product(alpha, q, y, gamma, c_box)
            if gap <= cuts.GAP_TOL * max(1.0, abs(primal)):
                break
        a = max(q[i, i] + q[j, j] - 2.0 * y[i] * y[j] * q[i, j], 1e-12)
        delta = min(violation / a, c_box - alpha[i] if y[i] > 0 else alpha[i],
                    alpha[j] if y[j] > 0 else c_box - alpha[j])
        if delta <= 0:
            break
        alpha[i] += y[i] * delta
        alpha[j] -= y[j] * delta
        grad += q[:, i] * (y[i] * delta) - q[:, j] * (y[j] * delta)
    _, _, bias = _gap_by_product(alpha, q, y, gamma, c_box)
    free = (alpha > 1e-12 * c_box) & (alpha < c_box * (1 - 1e-12))
    if free.any():
        bias = float(np.mean(y[free] - ((q @ alpha) * y)[free]))
    return CutClassifier(points, alpha * y, float(bias), kernel, np.arange(n))


def _two_blobs(seed, n, shift):
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.normal(0.0, 1.0, (n, 2)), rng.normal(shift, 1.0, (n, 2))])
    return pts, np.concatenate([np.ones(n), -np.ones(n)]), rng.normal(shift / 2, 2.0, (200, 2))


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

    def test_rbf_is_the_gaussian_of_exact_distances(self):
        # the expanded |a|^2 + |b|^2 - 2 a.b loses the small distances of
        # points far from the origin; cdist's sum of squared differences
        # gives exactly 0 at a == b
        rng = np.random.default_rng(7)
        a = rng.normal(size=(40, 3)) * 0.1 + 50.0
        b = rng.normal(size=(25, 3)) * 0.1 + 50.0
        spec = KernelSpec("rbf", rbf_width=0.7)
        want = np.exp(-cdist(a, b, "sqeuclidean") / (2.0 * 0.7 ** 2))
        assert np.array_equal(kernel_matrix(spec, a, b), want)
        assert np.all(np.diag(kernel_matrix(spec, a, a)) == 1.0)

    @pytest.mark.parametrize("width", [1e-150, 1e-20, 1e-3, 0.7, 3.0, 1e20, 1e150])
    def test_rbf_has_the_bits_of_its_own_divide_and_exp(self, width):
        # reference: divide by -2 width^2, then exp; graph.gaussian_in_place
        # with p = 2 and normalize_by_p gives its bits
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(30, 3)) * width, rng.normal(size=(20, 3)) * width
        want = np.exp(cdist(a, b, "sqeuclidean") / (-2.0 * width ** 2))
        got = kernel_matrix(KernelSpec("rbf", width), a, b)
        assert 0.0 < got.min() and got.max() < 1.0
        assert np.array_equal(got, want)

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

    @pytest.mark.parametrize("text", ["rbfoo", "rbf_x", "linear:2", "cubic:3", "linear:", ""])
    def test_parse_rejects_unknown_kinds_and_widths_on_other_kernels(self, text):
        # the kind is the text before ':', exactly; only rbf takes a width
        with pytest.raises(InputError, match="unknown kernel spec"):
            KernelSpec.parse(text)

    @pytest.mark.parametrize("text", ["rbf", "rbf:"])
    def test_parse_rbf_without_width_is_width_1(self, text):
        assert KernelSpec.parse(text) == KernelSpec("rbf", 1.0)

    @pytest.mark.parametrize("kind", ["quartic", "RBF", ""])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(InputError, match="unknown kernel"):
            KernelSpec(kind)

    @pytest.mark.parametrize("width", [1e-200, 1e200, float("inf")])
    def test_rbf_width_whose_divisor_is_zero_or_not_finite_rejected(self, width):
        # 2 width^2 underflows to 0 at 1e-200 and overflows at 1e200
        with pytest.raises(InputError, match="rbf width"):
            KernelSpec("rbf", width)


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

    @pytest.mark.parametrize("epsilon", [-1e-9, float("nan"), float("-inf")])
    def test_epsilon_that_is_not_ge_0_rejected(self, epsilon):
        # NaN compares false with everything: it kept only the labeled nodes
        g, labels = self._graph()
        with pytest.raises(InputError, match="epsilon must be >= 0"):
            induce_labels(g, labels, 1e-6, epsilon)


    def test_one_class_induced_set_rejected(self):
        # two +1 labels and no -1: the induced set has one class
        g, labels = self._graph()
        labels[15] = 1
        points = np.zeros((30, 2))
        with pytest.raises(InputError, match="induced training set must contain both"):
            train_on_induced(points, g, labels, 1e-3, 1e-6, 1e-6, KernelSpec("linear"))


    def test_cut_after_the_same_hard_solve_solves_once(self):
        g, labels = self._graph()
        points = np.vstack([np.zeros((15, 2)), np.ones((15, 2))])
        with mock.patch.object(harmonic, "solve_harmonic",
                               wraps=harmonic.solve_harmonic) as solve:
            want = hard_harmonic(g, labels, 1e-2).values
            clf = train_on_induced(points, g, labels, 0.5, 1e-2, 0.5, KernelSpec("linear"))
            assert solve.call_count == 1
        keep = (np.abs(want) >= 0.5) | (labels != 0)
        assert np.array_equal(clf.retained_indices, np.flatnonzero(keep))


class TestTrainMaxMargin:
    def test_missed_gap_tolerance_raises_solver_error(self, monkeypatch):
        # SMO stops at its violation floor long before a gap of 1e-300;
        # the error carries the relative gap of the accepted solution
        gaps, gap_of = [], cuts._duality_gap

        def recorded(*args):
            gaps.append(gap_of(*args))
            return gaps[-1]

        monkeypatch.setattr(cuts, "GAP_TOL", 1e-300)
        monkeypatch.setattr(cuts, "_duality_gap", recorded)
        pts, y, _ = _two_blobs(0, 20, 1.0)
        with pytest.raises(SolverError, match="gap tolerance") as info:
            train_maxmargin(pts, y, KernelSpec("linear"), gamma=0.05)
        gap, primal, _ = gaps[-1]
        assert 0.0 < info.value.residual == gap / max(1.0, abs(primal))

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
        w = clf.coefficients @ clf.support_points
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

    @pytest.mark.parametrize("seed", [4, 7])
    def test_rbf_decisions_move_within_the_gap_tolerance(self, monkeypatch, seed):
        # the rbf kernel once expanded |a|^2 + |b|^2 - 2 a.b; its rounding
        # moves where the trainer stops, within GAP_TOL of the objective
        # (decision values moved by at most 3.6e-4 over seeds 0-11)
        def expanded_kernel(spec, a, b):
            d2 = (np.einsum("ij,ij->i", a, a)[:, None]
                  + np.einsum("ij,ij->i", b, b)[None, :] - 2.0 * (a @ b.T))
            return np.exp(-np.maximum(d2, 0.0) / (2.0 * spec.rbf_width ** 2))

        rng = np.random.default_rng(seed)
        pts = np.vstack([rng.normal(0.0, 1.0, (150, 2)), rng.normal(1.5, 1.0, (150, 2))])
        y = np.concatenate([np.ones(150), -np.ones(150)])
        grid = rng.normal(0.75, 2.0, (200, 2))
        spec = KernelSpec("rbf", 1.0)
        got = train_maxmargin(pts, y, spec, gamma=0.05)
        monkeypatch.setattr(cuts, "kernel_matrix", expanded_kernel)
        want = train_maxmargin(pts, y, spec, gamma=0.05)
        want_values = want.decision_values(grid)
        monkeypatch.undo()
        got_values = got.decision_values(grid)
        want_objective = _hinge_objective(want, pts, y, 0.05)
        assert abs(_hinge_objective(got, pts, y, 0.05) - want_objective) \
            <= cuts.GAP_TOL * want_objective
        assert np.max(np.abs(got_values - want_values)) <= 1e-3
        assert np.array_equal(np.sign(got_values), np.sign(want_values))

    @pytest.mark.parametrize("kernel, gamma, seed", [
        (KernelSpec("rbf", 1.0), 0.05, 0), (KernelSpec("rbf", 0.5), 0.5, 1),
        (KernelSpec("rbf", 2.0), 0.01, 2), (KernelSpec("linear"), 0.05, 3),
        (KernelSpec("linear"), 0.5, 4), (KernelSpec("linear"), 0.01, 5)])
    def test_second_order_trainer_matches_first_order_reference(self, kernel, gamma, seed):
        pts, y, grid = _two_blobs(seed, 120, 1.5)
        got = train_maxmargin(pts, y, kernel, gamma)
        want = _first_order_reference(pts, y, kernel, gamma)
        want_objective = _hinge_objective(want, pts, y, gamma)
        assert abs(_hinge_objective(got, pts, y, gamma) - want_objective) \
            <= cuts.GAP_TOL * want_objective
        got_values, want_values = got.decision_values(grid), want.decision_values(grid)
        assert np.max(np.abs(got_values - want_values)) <= 1e-3
        assert np.array_equal(np.sign(got_values), np.sign(want_values))

    @pytest.mark.parametrize("kernel", [KernelSpec("rbf", 1.0), KernelSpec("linear"),
                                        KernelSpec("cubic")])
    def test_gap_from_the_gradient_equals_the_gap_by_product(self, kernel):
        pts, y, _ = _two_blobs(6, 60, 1.0)
        gamma = 0.05
        c_box = 1.0 / (2.0 * gamma)
        k = kernel_matrix(kernel, pts, pts)
        alpha, y_grad = np.zeros(y.size), y.copy()
        cuts._smo(cuts._kernel_rows(kernel, pts), cuts._kernel_diagonal(kernel, pts), y, c_box,
                  gamma, alpha, y_grad)
        up, low = cuts._working_sets(alpha, y, c_box)
        gap, primal, bias = cuts._duality_gap(
            alpha, y, y_grad, gamma, np.max(y_grad, where=up, initial=-np.inf),
            np.min(y_grad, where=low, initial=np.inf))
        want_gap, want_primal, want_bias = _gap_by_product(
            alpha, (y[:, None] * k) * y[None, :], y, gamma, c_box)
        scale = max(1.0, abs(want_primal))
        assert abs(gap - want_gap) <= 1e-9 * scale
        assert abs(primal - want_primal) <= 1e-9 * scale
        assert bias == pytest.approx(want_bias, abs=1e-9)

    @pytest.mark.parametrize("kernel", [KernelSpec("rbf", 1.0), KernelSpec("linear"),
                                        KernelSpec("cubic")])
    def test_three_row_cache_gives_the_unbounded_cache_bits(self, monkeypatch, kernel):
        # an r x r kernel above the budget was refused; now only 1 x r rows
        # and the r x s kernel of the support points are formed
        pts, y, grid = _two_blobs(3, 80, 1.0)
        want = train_maxmargin(pts, y, kernel, 0.05)
        shapes, rows = [], []

        def spy(spec, a, b):
            out = kernel_matrix(spec, a, b)
            shapes.append(out.shape)
            if a.shape[0] == 1:
                rows.append(a.tobytes())
            return out

        monkeypatch.setattr(cuts, "KERNEL_CACHE_BYTES", 3 * 8 * 160)
        monkeypatch.setattr(cuts, "kernel_matrix", spy)
        got = train_maxmargin(pts, y, kernel, 0.05)
        s = want.coefficients.size
        assert s < 160 and set(shapes) == {(1, 160), (160, s)}
        # rows were dropped and formed again
        assert len(rows) > len(set(rows)) + 10
        assert np.array_equal(got.support_points, want.support_points)
        assert np.array_equal(got.coefficients, want.coefficients)
        assert got.bias == want.bias
        assert np.array_equal(got.decision_values(grid), want.decision_values(grid))

    def test_cached_rbf_rows_have_the_bits_of_the_full_kernel(self, monkeypatch):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(50, 3)) * 0.1 + 50.0
        spec = KernelSpec("rbf", 0.7)
        full = kernel_matrix(spec, pts, pts)
        monkeypatch.setattr(cuts, "KERNEL_CACHE_BYTES", 2 * 8 * 50)
        rows = cuts._kernel_rows(spec, pts)
        for i in rng.integers(0, 50, 200):
            assert np.array_equal(rows(int(i)), full[i])
        assert np.array_equal(cuts._kernel_diagonal(spec, pts), full.diagonal())

    @pytest.mark.parametrize("kind", ["linear", "cubic"])
    def test_diagonal_from_the_points(self, kind):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(40, 4))
        spec = KernelSpec(kind)
        assert np.allclose(cuts._kernel_diagonal(spec, pts),
                           kernel_matrix(spec, pts, pts).diagonal(), rtol=1e-14, atol=0.0)

    def test_least_recently_read_row_is_dropped(self, monkeypatch):
        formed = []

        def spy(spec, a, b):
            formed.append(int(a[0, 0]))
            return kernel_matrix(spec, a, b)

        pts = np.arange(5.0)[:, None]
        monkeypatch.setattr(cuts, "KERNEL_CACHE_BYTES", 2 * 8 * 5)
        monkeypatch.setattr(cuts, "kernel_matrix", spy)
        rows = cuts._kernel_rows(KernelSpec("linear"), pts)
        for i in (0, 1, 0, 2, 0, 1):
            rows(i)
        # reading 0 again keeps it; 2 drops 1, and 1 then drops 2
        assert formed == [0, 1, 2, 1]

    def test_peak_memory_well_below_the_kernel_at_r_3000(self):
        # the r x r kernel alone took r^2 * 8 bytes, 72 MB
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0.0, 1.0, (1500, 2)), rng.normal(1.5, 1.0, (1500, 2))])
        y = np.concatenate([np.ones(1500), -np.ones(1500)])
        tracemalloc.start()
        try:
            train_maxmargin(pts, y, KernelSpec("rbf", 1.0), 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3000 * 3000 * 8 / 2

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            train_maxmargin(np.zeros((3, 2)), np.ones(3), KernelSpec("linear"), 1.0)

    @pytest.mark.parametrize("y", [[1.0, -1.0], [1.0, -1.0, 0.0], [1.0, -1.0, 2.0]])
    def test_labels_must_be_signs_one_per_point(self, y):
        with pytest.raises(InputError, match="labels must be"):
            train_maxmargin(np.arange(6.0).reshape(3, 2), np.array(y), KernelSpec("linear"), 1.0)

    def test_step_of_length_zero_stops_the_trainer(self):
        # K_00 + K_11 - 2 K_01 overflows to inf, so every gain and the first
        # step length are 0: SMO stops before moving.  train_maxmargin
        # refuses this kernel before SMO, so its rows go to _smo directly
        points, y = np.array([[-1e154], [1e154]]), np.array([-1.0, 1.0])
        kernel = KernelSpec("linear")
        alpha, y_grad = np.zeros(2), y.copy()
        with np.errstate(over="ignore"):
            cuts._smo(cuts._kernel_rows(kernel, points), cuts._kernel_diagonal(kernel, points),
                      y, 0.5, 1.0, alpha, y_grad)
        assert not alpha.any() and np.array_equal(y_grad, y)

    @pytest.mark.parametrize("kind, scale", [("linear", 1e154), ("cubic", 1e60)])
    def test_kernel_that_overflows_is_refused(self, kind, scale):
        # SMO's curvature K_ii + K_jj - 2 K_ij overflowed: numpy warned (an
        # error under the suite's filter) and the trainer then missed its
        # gap tolerance, a message that hid the cause
        points, y = np.array([[-scale], [scale], [0.0]]), np.array([-1.0, 1.0, 1.0])
        with pytest.raises(InputError, match=f"the {kind} kernel overflows"):
            train_maxmargin(points, y, KernelSpec(kind), 1.0)

    @pytest.mark.parametrize("width", [1.0, 1e150])
    def test_rbf_kernel_is_never_refused(self, width):
        # k(x, x) = 1 for rbf, however far apart the points are
        points, y = np.array([[-1e154], [1e154], [0.0]]), np.array([-1.0, 1.0, 1.0])
        clf = train_maxmargin(points, y, KernelSpec("rbf", width), 1.0)
        assert np.isfinite(clf.decision_values(points)).all()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", 1.0)])
    def test_non_finite_point_rejected(self, bad, kernel):
        # it returned NaN coefficients and decision values
        pts, y, _ = _two_blobs(0, 5, 3.0)
        pts[3, 1] = bad
        with pytest.raises(InputError, match="training points must be finite"):
            train_maxmargin(pts, y, kernel, 0.1)


class TestPredict:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_query_rows_rejected(self, bad):
        # they gave NaN and infinite decision values
        pts, y, _ = _two_blobs(0, 10, 3.0)
        clf = train_maxmargin(pts, y, KernelSpec("linear"), 0.1)
        with pytest.raises(InputError, match="query points must be finite"):
            clf.decision_values(np.array([[1.0, 0.0], [bad, 0.0]]))

    @pytest.mark.parametrize("kernel", [KernelSpec("rbf", 1.0), KernelSpec("linear"),
                                        KernelSpec("cubic")])
    def test_decision_values_at_the_default_block_are_one_product(self, kernel):
        pts, y, grid = _two_blobs(2, 60, 1.0)
        clf = train_maxmargin(pts, y, kernel, 0.5)
        want = kernel_matrix(kernel, grid, clf.support_points) @ clf.coefficients + clf.bias
        assert np.array_equal(clf.decision_values(grid), want)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kernel", [KernelSpec("rbf", 1.0), KernelSpec("linear"),
                                        KernelSpec("cubic")])
    def test_decision_values_in_blocks_of_a_few_rows(self, monkeypatch, kernel, seed):
        pts, y, grid = _two_blobs(seed, 60, 1.0)
        clf = train_maxmargin(pts, y, kernel, 0.5)
        s = clf.coefficients.size
        want = kernel_matrix(kernel, grid, clf.support_points) @ clf.coefficients + clf.bias
        sizes = []

        def spy(spec, a, b):
            out = kernel_matrix(spec, a, b)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(graph_module, "_EXACT_BLOCK", 7 * s)
        monkeypatch.setattr(cuts, "kernel_matrix", spy)
        got = clf.decision_values(grid)
        # 7-row products, whose last bits may differ from the one product's:
        # each value, a sum of s products plus the bias, is within
        # (s + 1) u (|K| |coef| + |bias|) of its exact value (u = 2^-53)
        assert len(sizes) == -(-len(grid) // 7) and max(sizes) == 7 * s
        k = kernel_matrix(kernel, grid, clf.support_points)
        bound = 2.0 * (s + 1) * 2.0 ** -53 * (np.abs(k) @ np.abs(clf.coefficients)
                                               + abs(clf.bias))
        assert np.all(np.abs(got - want) <= bound)
        assert np.array_equal(np.sign(got), np.sign(want))

    def test_support_point_margin_active(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        y = np.array([1.0, -1.0])
        clf = train_maxmargin(pts, y, KernelSpec("linear"), gamma=0.01)
        assert clf.decision_values(pts[:1])[0] >= 1 - 1e-6

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
            value_a, value_b, value_mix = clf.decision_values(np.array([a, b, mix]))
            want = lam * value_a + (1 - lam) * value_b
            assert value_mix == pytest.approx(want, abs=1e-10)


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


def test_prediction_whose_kernel_overflows_rejected():
    clf = CutClassifier(np.array([[1.0, 1.0]]), np.array([1.0]), 0.0, KernelSpec("cubic"),
                        np.array([0]))
    assert np.isfinite(clf.decision_values(np.array([[2.0, 3.0]]))).all()
    with pytest.raises(InputError, match="cubic kernel overflows on these query points"):
        clf.decision_values(np.array([[1e200, 0.0]]))
