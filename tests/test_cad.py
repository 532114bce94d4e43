import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from graphssl import (DegenerateGraphError, GraphConfig, InputError,
                      PointSet, SimilarityGraph, SoftConfig, TaskScaling,
                      backbone_cad, build_graph, cad_scores, fit_cad_model,
                      gaussian_weight, rwcad_score, rwcad_scores, rwcad_scores_loo,
                      scale_scores, softhad_score, weighted_knn_score,
                      weighted_knn_scores, weighted_knn_scores_loo)
from graphssl import cad as cad_module
from graphssl import plan as plan_module
from graphssl import graph as graph_module
from graphssl._kernels import pairwise_sq_dists
from graphssl.cad import LAMBDA_GRID, _kernel_mass
from graphssl.graph import gaussian_of_sq_dists, gaussian_weights_matrix


def _mirror_training_set():
    """Classes symmetric about x = 0."""
    pos = np.array([[1.0, 0.0], [2.0, 1.0], [1.5, -1.0]])
    neg = -pos
    pts = np.vstack([pos, neg])
    labels = np.array([1, 1, 1, -1, -1, -1])
    return PointSet(pts, labels)


def _dense_kernel(ps, sigma, normalize_by_p):
    """The n x n pdist kernel of ps with a zero diagonal."""
    k = gaussian_of_sq_dists(pairwise_sq_dists(ps.points, ps.feature_weights), ps.p, sigma,
                             normalize_by_p)
    np.fill_diagonal(k, 0.0)
    return k


def _dense_reference(ps, sigma, normalize_by_p, x):
    """Test-only copies of the dense CAD masses that the blocked routine
    replaced: leave-one-out masses as column sums of one n x n kernel,
    each class volume as the sum of one n_c x n_c kernel, and the masses
    of the query rows x as row sums of one cross kernel per class."""
    k = _dense_kernel(ps, sigma, normalize_by_p)
    loo = tuple(k[:, ps.labels == c].sum(axis=1) for c in (1, -1))
    vols = tuple(float(k[np.ix_(ps.labels == c, ps.labels == c)].sum()) for c in (1, -1))
    test = tuple(gaussian_weights_matrix(x, ps.points[ps.labels == c], sigma,
                                         ps.feature_weights, normalize_by_p).sum(axis=1)
                 for c in (1, -1))
    return loo, vols, test


def _random_labeled_set(seed, n=50):
    rng = np.random.default_rng(seed)
    return PointSet(rng.normal(size=(n, 3)), np.where(rng.random(n) < 0.4, 1, -1),
                    rng.random(3))


class TestLambdaBatch:
    @pytest.mark.parametrize("priors", ["empirical", "uniform"])
    def test_loo_rows_equal_single_lambda_scores(self, priors):
        ps = _random_labeled_set(5)
        rows = rwcad_scores_loo(ps, LAMBDA_GRID, sigma=0.7, priors=priors)
        assert rows.shape == (len(LAMBDA_GRID), ps.n)
        for k, lam in enumerate(LAMBDA_GRID):
            single = rwcad_scores_loo(ps, lam, sigma=0.7, priors=priors)
            assert single.shape == (ps.n,)
            assert np.array_equal(rows[k], single)

    def test_train_test_rows_equal_single_lambda_scores(self):
        train = _random_labeled_set(6)
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(20, 3)), np.where(rng.random(20) < 0.5, 1, -1)
        rows = rwcad_scores(fit_cad_model(train, 0.0, sigma=0.7), x, y, LAMBDA_GRID)
        assert rows.shape == (len(LAMBDA_GRID), 20)
        for k, lam in enumerate(LAMBDA_GRID):
            single = rwcad_scores(fit_cad_model(train, lam, sigma=0.7), x, y)
            assert np.array_equal(rows[k], single)
            assert np.array_equal(rows[k], rwcad_scores(fit_cad_model(train, 0.0, sigma=0.7),
                                                        x, y, lam))

    def test_negative_lambda_in_batch_rejected(self):
        ps = _random_labeled_set(8)
        with pytest.raises(InputError):
            rwcad_scores_loo(ps, [0.1, -1.0], sigma=0.7)
        with pytest.raises(InputError):
            rwcad_scores(fit_cad_model(ps, 0.0, sigma=0.7), ps.points, ps.labels, [[0.1]])


    def test_nan_lambda_rejected(self):
        ps = _random_labeled_set(8, n=20)
        nan = float("nan")
        for lam in (nan, [0.1, nan]):
            with pytest.raises(InputError, match="lam"):
                rwcad_scores_loo(ps, lam, sigma=0.5)
            with pytest.raises(InputError, match="lam"):
                rwcad_scores(fit_cad_model(ps, 0.0, sigma=0.5), ps.points, ps.labels, lam)
        with pytest.raises(InputError, match="lam"):
            fit_cad_model(ps, nan, sigma=0.5)


# LOO masses and class volumes add the dense reference's nonnegative terms in
# another order; numpy's pairwise sums of at most 30 x 30 terms bound each
# side's rounding by a few tens of u (2.2e-16), under this relative bound
REL_TOL = 1e-14


@st.composite
def _cad_case(draw):
    """A labeled set with both classes, duplicate points likely (coordinates
    on a half-unit grid), n >= 2, and query rows of the same width."""
    n, p = draw(st.integers(2, 30)), draw(st.integers(1, 3))
    grid = st.integers(-3, 3).map(lambda v: v / 2)
    pts = np.array(draw(st.lists(st.lists(grid, min_size=p, max_size=p),
                                 min_size=n, max_size=n)))
    labels = np.array([1, -1] + draw(st.lists(st.sampled_from([1, -1]),
                                              min_size=n - 2, max_size=n - 2)))
    psi = np.array(draw(st.lists(st.floats(0.0, 1.5), min_size=p, max_size=p)))
    m = draw(st.integers(0, 8))
    x = np.array(draw(st.lists(st.lists(grid, min_size=p, max_size=p),
                               min_size=m, max_size=m))).reshape(m, p)
    y = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m)), dtype=int)
    return PointSet(pts, labels, psi), x, y


class TestLooMasses:
    @pytest.mark.parametrize("normalize_by_p", [True, False])
    def test_pdist_kernel_bit_identical_to_cross_kernel(self, normalize_by_p):
        # the blocked routine's kernel entries are the pdist kernel's bits:
        # summed over the same contiguous class columns, the dense kernel
        # gives the model's leave-one-out masses exactly
        ps = _random_labeled_set(10, n=80)
        k = _dense_kernel(ps, 0.7, normalize_by_p)
        model = fit_cad_model(ps, 0.0, 0.7, normalize_by_p)
        for c, own, points in ((1, model._own_masses[0], model.points_pos),
                               (-1, model._own_masses[1], model.points_neg)):
            cols = np.ascontiguousarray(k[:, ps.labels == c])
            assert np.array_equal(own, cols[ps.labels == c].sum(axis=1))
            other = _kernel_mass(ps.points[ps.labels == -c], points, 0.7,
                                 ps.feature_weights, normalize_by_p)
            assert np.array_equal(other, cols[ps.labels == -c].sum(axis=1))

    @given(_cad_case(), st.floats(0.3, 3.0), st.booleans(), st.integers(1, 7))
    @settings(max_examples=80, deadline=None)
    def test_blocked_masses_match_dense_reference(self, case, sigma, normalize_by_p, rows):
        ps, x, y = case
        (ref_pos, ref_neg), ref_vols, ref_test = _dense_reference(ps, sigma, normalize_by_p, x)
        with mock.patch.object(graph_module, "_EXACT_BLOCK", rows * ps.n):
            model = fit_cad_model(ps, 0.0, sigma, normalize_by_p)
            test = model.masses(x)
            loo_knn = weighted_knn_scores_loo(ps, sigma, normalize_by_p)
            loo_rwcad = rwcad_scores_loo(ps, 0.01, sigma, normalize_by_p)
        # test-row masses are a dense kernel's row sums, bit for bit
        assert all(np.array_equal(got, want) for got, want in zip(test, ref_test))
        # LOO masses: own class from the fit, other class from model.masses
        is_pos = ps.labels == 1
        m_pos, m_neg = model.masses(ps.points)
        m_pos[is_pos], m_neg[~is_pos] = model._own_masses
        for got, want in ((m_pos, ref_pos), (m_neg, ref_neg),
                          (model.vol_pos, ref_vols[0]), (model.vol_neg, ref_vols[1])):
            assert np.all(np.abs(got - want) <= REL_TOL * np.abs(want))
        # so the LOO scores barely move from those of the dense masses
        own = np.where(is_pos, ref_pos, ref_neg)
        assert np.allclose(loo_knn, 1.0 - own / (ref_pos + ref_neg), rtol=0, atol=1e-14)
        vol_pos = np.where(is_pos, ref_vols[0] - 2.0 * ref_pos, ref_vols[0])
        vol_neg = np.where(is_pos, ref_vols[1], ref_vols[1] - 2.0 * ref_neg)
        # a class left with no points (a one-point class's LOO row) has
        # mass and volume 0 and likelihood 0
        den_pos, den_neg = vol_pos + 2.0 * ref_pos, vol_neg + 2.0 * ref_neg
        like_pos = np.divide(ref_pos, den_pos, out=np.zeros(ps.n),
                             where=den_pos > 0) * model.prior_pos
        like_neg = np.divide(ref_neg, den_neg, out=np.zeros(ps.n),
                             where=den_neg > 0) * model.prior_neg
        denom = 0.01 + (like_pos + like_neg)
        want = np.divide(np.where(is_pos, like_neg, like_pos), denom,
                         out=np.zeros(ps.n), where=denom > 0)
        assert np.allclose(loo_rwcad, want, rtol=0, atol=1e-14)
        assert rwcad_scores(model, x, y).shape == (len(y),)

    def test_row_blocks_change_no_bits(self, monkeypatch):
        ps = _random_labeled_set(13, n=120)
        x = np.random.default_rng(14).normal(size=(45, 3))
        whole = fit_cad_model(ps, 0.0, 0.7)
        for rows in (7, 37, 11):
            monkeypatch.setattr(graph_module, "_EXACT_BLOCK", rows * ps.n)
            model = fit_cad_model(ps, 0.0, 0.7)
            assert all(np.array_equal(a, b) for a, b in zip(model.masses(x), whole.masses(x)))
            assert all(np.array_equal(a, b)
                       for a, b in zip(model._own_masses, whole._own_masses))
            assert (model.vol_pos, model.vol_neg) == (whole.vol_pos, whole.vol_neg)

    def test_empty_query_set(self):
        model = fit_cad_model(_random_labeled_set(15, n=20), 0.0, 0.7)
        empty = np.zeros((0, 3))
        assert all(m.shape == (0,) for m in model.masses(empty))
        assert rwcad_scores(model, empty, np.zeros(0)).shape == (0,)
        assert weighted_knn_scores(model, empty, np.zeros(0)).shape == (0,)


class TestOnePointClass:
    """The LOO row of a class's only point leaves that class with no
    points: its own-class likelihood is 0, and the row is scored from the
    other class alone, opposite / (lam + opposite)."""

    def _set(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.3], [1.5, 1.5]])
        return PointSet(pts, np.array([1, 1, 1, -1]))

    def test_isolated_row_scored_from_the_other_class(self):
        ps = self._set()
        lams = np.array([0.0, 0.01, 1.0])
        scores = rwcad_scores_loo(ps, lams, sigma=1.0)
        model = fit_cad_model(ps, 0.0, sigma=1.0)
        m_pos = model.masses(ps.points[3:])[0][0]
        opposite = m_pos / (model.vol_pos + 2.0 * m_pos) * model.prior_pos
        assert opposite > 0
        assert np.array_equal(scores[:, 3], opposite / (lams + opposite))
        assert scores[0, 3] == 1.0
        assert weighted_knn_scores_loo(ps, sigma=1.0)[3] == 1.0
        # the other rows keep the two-class posterior
        assert np.all((scores[:, :3] > 0) & (scores[:, :3] < 1))

    def test_one_point_per_class(self):
        ps = PointSet(np.array([[0.0], [1.0]]), np.array([1, -1]))
        assert np.array_equal(rwcad_scores_loo(ps, 0.0, sigma=1.0), [1.0, 1.0])


@pytest.mark.parametrize("scorer", [rwcad_scores_loo, weighted_knn_scores_loo])
def test_loo_memory_is_linear_in_n(scorer):
    n = 10_000
    bound = n * n * 8 // 4        # one n x n float64 matrix / 4
    # the Gaussian is formed in the distance block's memory, one block of at
    # most graph._EXACT_BLOCK float64 entries at a time, plus O(n) vectors
    block_bound = int(2.5 * 8 * graph_module._EXACT_BLOCK) + 64 * 8 * n
    rng = np.random.default_rng(0)
    ps = PointSet(rng.normal(size=(n, 2)), np.where(rng.random(n) < 0.5, 1, -1))
    args = (ps, 0.01, 0.3) if scorer is rwcad_scores_loo else (ps, 0.3)
    tracemalloc.start()
    try:
        scores = scorer(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.shape == (n,) and np.all(np.isfinite(scores))
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
    assert peak < block_bound, f"peak {peak / 1e6:.1f} MB, bound {block_bound / 1e6:.1f} MB"


class TestMismatchedInputs:
    def _wide(self, train):
        rng = np.random.default_rng(16)
        return PointSet(rng.normal(size=(5, train.p + 1)), np.array([1, -1, 1, -1, 1]))

    @pytest.mark.parametrize("method", ["rwcad", "knn", "softhad"])
    def test_cad_scores_rejects_a_test_set_of_another_width(self, method):
        train = _random_labeled_set(17, n=20)
        with pytest.raises(InputError, match="features"):
            cad_scores(method, train, self._wide(train), sigma=0.7)

    def test_scorers_reject_query_rows_of_another_width(self):
        train = _random_labeled_set(17, n=20)
        model, wide = fit_cad_model(train, 0.0, 0.7), self._wide(train)
        for scorer in (rwcad_scores, weighted_knn_scores):
            with pytest.raises(InputError, match="features"):
                scorer(model, wide.points, wide.labels)
        with pytest.raises(InputError, match="features"):
            model.masses(wide.points)

    def test_scorers_reject_one_label_per_row_mismatch(self):
        train = _random_labeled_set(17, n=20)
        model = fit_cad_model(train, 0.0, 0.7)
        for scorer in (rwcad_scores, weighted_knn_scores):
            with pytest.raises(InputError, match="labels"):
                scorer(model, train.points[:4], train.labels[:3])


class TestSingleClassTraining:
    """knn fits the same model as rwcad, so a training set with one class
    raises in every path instead of scoring all zeros leave-one-out."""

    @pytest.mark.parametrize("method", ["rwcad", "knn"])
    @pytest.mark.parametrize("with_test", [False, True])
    def test_raises_with_and_without_test_set(self, method, with_test):
        train = PointSet(np.random.default_rng(18).normal(size=(12, 2)), np.ones(12, dtype=int))
        test = _random_labeled_set(19, n=6) if with_test else None
        test = None if test is None else PointSet(test.points[:, :2], test.labels)
        with pytest.raises(DegenerateGraphError, match="both classes"):
            cad_scores(method, train, test, sigma=0.7)
        with pytest.raises(DegenerateGraphError, match="both classes"):
            weighted_knn_scores_loo(train, 0.7)


class TestCadScores:
    """The scoring front end of ``graphssl cad`` and ``run-plan`` equals the
    scorers called directly: training rows first, then test rows."""

    def _split(self):
        train = _random_labeled_set(11, n=60)
        rng = np.random.default_rng(12)
        test = PointSet(rng.normal(size=(25, 3)), np.where(rng.random(25) < 0.5, 1, -1))
        return train, test

    @pytest.mark.parametrize("sigma", [None, 0.7])
    @pytest.mark.parametrize("priors", ["empirical", "uniform"])
    def test_rwcad(self, sigma, priors):
        train, test = self._split()
        kw = dict(sigma=sigma, priors=priors)
        loo = rwcad_scores_loo(train, 0.05, sigma, priors=priors)
        tail = rwcad_scores(fit_cad_model(train, 0.05, sigma, priors=priors),
                            test.points, test.labels)
        assert np.array_equal(cad_scores("rwcad", train, lam=0.05, **kw), loo)
        got = cad_scores("rwcad", train, test, lam=0.05, **kw)
        assert np.array_equal(got, np.concatenate([loo, tail]))
        rows = cad_scores("rwcad", train, test, lam=LAMBDA_GRID, **kw)
        assert rows.shape == (len(LAMBDA_GRID), train.n + test.n)
        assert np.array_equal(cad_scores("rwcad", train, lam=LAMBDA_GRID, **kw),
                              rwcad_scores_loo(train, LAMBDA_GRID, sigma, priors=priors))
        for k, lam in enumerate(LAMBDA_GRID):
            assert np.array_equal(rows[k], cad_scores("rwcad", train, test, lam=lam, **kw))

    @pytest.mark.parametrize("sigma", [None, 0.7])
    def test_knn(self, sigma):
        train, test = self._split()
        loo = weighted_knn_scores_loo(train, sigma)
        tail = weighted_knn_scores(fit_cad_model(train, 0.0, sigma), test.points, test.labels)
        assert np.array_equal(cad_scores("knn", train, sigma=sigma), loo)
        assert np.array_equal(cad_scores("knn", train, test, sigma=sigma),
                              np.concatenate([loo, tail]))

    @pytest.mark.parametrize("graph", [GraphConfig(mode="knn", k_neighbors=7),
                                       GraphConfig(mode="epsilon", eps_cut=0.01)])
    @pytest.mark.parametrize("sigma", [None, 0.7])
    def test_softhad_on_the_stacked_set(self, graph, sigma):
        train, test = self._split()
        cfg = SoftConfig(gamma_g=0.3, c_l=2.0, c_u=2.0)
        kw = dict(sigma=sigma, graph=graph, gamma_g=0.3, c_l=2.0)
        gcfg = GraphConfig(mode=graph.mode, k_neighbors=graph.k_neighbors,
                           eps_cut=graph.eps_cut, sigma=sigma)
        alone = softhad_score(build_graph(train, gcfg), train.labels, cfg)
        assert np.array_equal(cad_scores("softhad", train, **kw), alone)
        both = PointSet(np.vstack([train.points, test.points]),
                        np.concatenate([train.labels, test.labels]), train.feature_weights)
        joint = softhad_score(build_graph(both, gcfg), both.labels, cfg)
        assert np.array_equal(cad_scores("softhad", train, test, **kw), joint)

    def test_bad_arguments_rejected(self):
        train, test = self._split()
        with pytest.raises(InputError, match="method"):
            cad_scores("parzen", train, test)
        with pytest.raises(InputError, match="gamma_g"):
            cad_scores("softhad", train, test, gamma_g=-1.0)

    @pytest.mark.parametrize("method", ["rwcad", "knn", "softhad"])
    @pytest.mark.parametrize("with_test", [False, True])
    def test_lam_and_priors_checked_for_every_method(self, method, with_test):
        # knn and softhad ignore both, but a malformed value is still an error,
        # with or without a test set
        train, test = self._split()
        test = test if with_test else None
        for bad in (-1.0, float("nan"), [[0.1]]):
            with pytest.raises(InputError, match="lam"):
                cad_scores(method, train, test, lam=bad)
        with pytest.raises(InputError, match="priors"):
            cad_scores(method, train, test, priors="flat")

    def test_rwcad_fits_the_training_model_once(self, monkeypatch):
        train, test = self._split()
        calls = []
        fit = cad_module.fit_cad_model

        def counted(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(cad_module, "fit_cad_model", counted)
        monkeypatch.setattr(plan_module, "fit_cad_model", counted)
        cad_scores("rwcad", train, test, lam=LAMBDA_GRID, sigma=0.7)
        assert len(calls) == 1

    @pytest.mark.parametrize("priors", ["empirical", "uniform"])
    def test_loo_from_fitted_model_equals_loo(self, priors):
        # with a test set the training rows are scored leave-one-out from the
        # one fitted model; they equal the scorers that fit their own model
        train, test = self._split()
        rows = cad_scores("rwcad", train, test, lam=LAMBDA_GRID, priors=priors)
        assert np.array_equal(rows[:, :train.n],
                              rwcad_scores_loo(train, LAMBDA_GRID, priors=priors))
        assert np.array_equal(cad_scores("knn", train, test)[:train.n],
                              weighted_knn_scores_loo(train))
        with pytest.raises(InputError, match="lam"):
            cad_scores("rwcad", train, test, lam=-1.0)


class TestSigmaValidation:
    @pytest.mark.parametrize("sigma", [float("nan"), 0.0, -1.0, float("inf")])
    def test_cad_scorers_reject_bad_sigma(self, sigma):
        ps = _random_labeled_set(9, n=12)
        with pytest.raises(InputError, match="sigma"):
            fit_cad_model(ps, 0.0, sigma=sigma)
        with pytest.raises(InputError, match="sigma"):
            rwcad_scores_loo(ps, 0.01, sigma=sigma)
        with pytest.raises(InputError, match="sigma"):
            weighted_knn_scores_loo(ps, sigma=sigma)


class TestRwcad:
    def test_symmetry_point_scores_half(self):
        ps = _mirror_training_set()
        model = fit_cad_model(ps, lam=0.0, sigma=1.0)
        assert rwcad_score(model, np.zeros(2), 1) == pytest.approx(0.5, abs=1e-12)
        assert rwcad_score(model, np.zeros(2), -1) == pytest.approx(0.5, abs=1e-12)

    def test_large_lambda_drives_scores_to_zero(self):
        ps = _mirror_training_set()
        for x in (np.zeros(2), np.array([1.0, 0.5])):
            prev = 1.0
            for lam in (0.0, 0.1, 10.0, 1e6):
                model = fit_cad_model(ps, lam=lam, sigma=1.0)
                score = rwcad_score(model, x, 1)
                assert score <= prev
                prev = score
            assert prev < 1e-5

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(0)
        ps = PointSet(rng.normal(size=(40, 2)),
                      np.where(rng.random(40) < 0.5, 1, -1))
        model = fit_cad_model(ps, lam=0.01)
        scores = rwcad_scores(model, rng.normal(size=(30, 2)),
                              np.where(rng.random(30) < 0.5, 1, -1))
        assert np.all(scores >= 0) and np.all(scores < 1)

    def test_strictly_decreasing_in_lambda(self):
        rng = np.random.default_rng(1)
        ps = PointSet(rng.normal(size=(30, 2)),
                      np.where(rng.random(30) < 0.5, 1, -1))
        x = rng.normal(size=2)
        scores = []
        for lam in (0.0, 0.01, 0.1, 1.0, 10.0):
            scores.append(rwcad_score(fit_cad_model(ps, lam, sigma=0.8), x, 1))
        assert all(b < a for a, b in zip(scores, scores[1:]))

    def test_identity_with_knn_ratio_at_lambda_zero(self):
        # likelihood ratio == kNN mass ratio x (including-node volume ratio),
        # both sides evaluated from raw kernel sums
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(25, 3))
        labels = np.where(rng.random(25) < 0.6, 1, -1)
        ps = PointSet(pts, labels)
        sigma = 0.9
        model = fit_cad_model(ps, lam=0.0, sigma=sigma)
        for trial in range(10):
            x = rng.normal(size=3)
            k_all = np.array([gaussian_weight(pts[i], x, sigma) for i in range(25)])
            mass_pos = k_all[labels == 1].sum()
            mass_neg = k_all[labels == -1].sum()
            vol_pos = sum(gaussian_weight(pts[i], pts[j], sigma)
                          for i in range(25) for j in range(25)
                          if i != j and labels[i] == 1 and labels[j] == 1)
            vol_neg = sum(gaussian_weight(pts[i], pts[j], sigma)
                          for i in range(25) for j in range(25)
                          if i != j and labels[i] == -1 and labels[j] == -1)
            t_pos = vol_pos + 2 * mass_pos
            t_neg = vol_neg + 2 * mass_neg
            # method's likelihood ratio
            like_pos = mass_pos / t_pos
            like_neg = mass_neg / t_neg
            want = (mass_pos / mass_neg) * (t_neg / t_pos)
            assert like_pos / like_neg == pytest.approx(want, rel=1e-10)
            # and the model reproduces the same posteriors
            score = rwcad_score(model, x, 1)
            prior_pos, prior_neg = model.prior_pos, model.prior_neg
            expect = like_neg * prior_neg / (like_pos * prior_pos + like_neg * prior_neg)
            assert score == pytest.approx(expect, rel=1e-10)

    def test_empty_class_rejected(self):
        ps = PointSet(np.zeros((3, 2)), np.array([1, 1, 1]))
        with pytest.raises(DegenerateGraphError):
            fit_cad_model(ps, 0.0, sigma=1.0)


class TestWeightedKnn:
    def test_coincides_with_own_class_scores_near_zero(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        ps = PointSet(pts, np.array([1, -1]))
        score = weighted_knn_score(ps, np.array([0.0, 0.0]), 1, sigma=0.5)
        assert score < 1e-10

    def test_balanced_neighborhood_scores_half(self):
        ps = _mirror_training_set()
        score = weighted_knn_score(ps, np.zeros(2), 1, sigma=1.0)
        assert score == pytest.approx(0.5, abs=1e-12)

    def test_matches_mass_ratio_form(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 2))
        labels = np.where(rng.random(20) < 0.5, 1, -1)
        ps = PointSet(pts, labels)
        model = fit_cad_model(ps, 0.0, sigma=0.7)
        for _ in range(10):
            x = rng.normal(size=2)
            k_all = np.array([gaussian_weight(pts[i], x, 0.7) for i in range(20)])
            ratio = k_all[labels == 1].sum() / k_all[labels == -1].sum()
            got = weighted_knn_scores(model, x[None, :], np.array([1]))[0]
            assert got == pytest.approx(1.0 - ratio / (1.0 + ratio), rel=1e-10)

    def test_rank_agreement_with_rwcad_grows_with_n(self):
        rng = np.random.default_rng(4)
        corrs = []
        for n in (50, 200, 1000):
            pts = np.vstack([rng.normal(0, 1, (n // 2, 2)),
                             rng.normal(2.5, 1, (n - n // 2, 2))])
            labels = np.concatenate([np.ones(n // 2, dtype=int),
                                     -np.ones(n - n // 2, dtype=int)])
            ps = PointSet(pts, labels)
            model = fit_cad_model(ps, lam=0.0, sigma=0.8)
            queries = rng.normal(1.0, 1.5, (150, 2))
            q_labels = np.where(rng.random(150) < 0.5, 1, -1)
            r = rwcad_scores(model, queries, q_labels)
            k = weighted_knn_scores(model, queries, q_labels)
            corrs.append(spearmanr(r, k).statistic)
        assert corrs[-1] >= 0.99
        assert corrs[0] <= corrs[-1] + 1e-9


class TestSoftHad:
    def test_all_positive_labels_collapse_to_constant(self):
        # with unanimous labels and a uniform fit matrix the all-ones
        # vector is a Laplacian null direction, so the solution is exactly
        # constant at c_l / (c_l + gamma_g) regardless of connectivity and
        # every score ties below 1
        w = np.ones((10, 10))
        w[9, :] = w[:, 9] = 0.0
        w[8, 9] = w[9, 8] = 0.05  # node 9 hangs on weakly
        np.fill_diagonal(w, 0.0)
        g = SimilarityGraph(sp.csr_matrix(w))
        y = np.ones(10)
        cfg = SoftConfig(gamma_g=0.5, c_l=1.0, c_u=1.0)
        scores = softhad_score(g, y, cfg)
        lap = np.diag(w.sum(1)) - w
        values = np.linalg.solve(lap + (0.5 + 1.0) * np.eye(10), y)
        assert np.allclose(scores, np.abs(values - y), atol=1e-8)
        assert np.all(values > 0) and np.all(values <= 1)
        assert np.all(scores < 1)
        assert np.allclose(values, 1.0 / 1.5, atol=1e-10)

    def test_isolated_flip_suppressed_relative_to_core_flip(self):
        # the regularizer's job: a dissenting label on the weakly attached
        # node scores lower than the same dissent inside the dense core
        w = np.ones((10, 10))
        w[9, :] = w[:, 9] = 0.0
        w[8, 9] = w[9, 8] = 0.05
        np.fill_diagonal(w, 0.0)
        g = SimilarityGraph(sp.csr_matrix(w))
        cfg = SoftConfig(0.5, 1.0, 1.0)
        y_core_flip = np.ones(10)
        y_core_flip[0] = -1.0
        y_weak_flip = np.ones(10)
        y_weak_flip[9] = -1.0
        core = softhad_score(g, y_core_flip, cfg)[0]
        weak = softhad_score(g, y_weak_flip, cfg)[9]
        assert weak < core
        assert weak < 1.0 + cfg.gamma_g / (1.0 + cfg.gamma_g) + 1e-9

    def test_isolated_node_scalar_score(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        g = SimilarityGraph(sp.csr_matrix(w))
        for gamma in (0.5, 2.0, 10.0):
            cfg = SoftConfig(gamma_g=gamma, c_l=1.0, c_u=1.0)
            scores = softhad_score(g, np.array([1.0, 1.0, 1.0]), cfg)
            assert scores[2] == pytest.approx(gamma / (1.0 + gamma), abs=1e-10)
            assert scores[2] < 1.0

    def test_flipped_label_in_tight_cluster_gets_max_score(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(0, 0.05, (12, 2))
        ps = PointSet(pts, np.ones(12, dtype=int))
        g = build_graph(ps, GraphConfig(mode="epsilon", eps_cut=0.0, sigma=1.0))
        cfg = SoftConfig(gamma_g=0.1, c_l=1.0, c_u=1.0)
        for flip in range(12):
            y = np.ones(12)
            y[flip] = -1.0
            scores = softhad_score(g, y, cfg)
            assert int(np.argmax(scores)) == flip

    def test_score_range_and_zero_iff_exact(self):
        rng = np.random.default_rng(6)
        ps = PointSet(rng.normal(size=(20, 2)),
                      np.where(rng.random(20) < 0.5, 1, -1))
        g = build_graph(ps, GraphConfig(mode="knn", k_neighbors=4, sigma=1.0))
        scores = softhad_score(g, ps.labels.astype(float),
                               SoftConfig(0.5, 1.0, 1.0))
        assert np.all(scores >= 0) and np.all(scores <= 2)
        assert np.all(scores > 0)  # soft fit never reproduces labels exactly here

    def test_label_flip_antisymmetry(self):
        rng = np.random.default_rng(7)
        ps = PointSet(rng.normal(size=(15, 2)),
                      np.where(rng.random(15) < 0.5, 1, -1))
        g = build_graph(ps, GraphConfig(mode="knn", k_neighbors=4, sigma=1.0))
        cfg = SoftConfig(0.3, 1.0, 1.0)
        y = ps.labels.astype(float)
        assert np.allclose(softhad_score(g, y, cfg), softhad_score(g, -y, cfg),
                           atol=1e-12)

    def test_requires_full_labels(self):
        g = SimilarityGraph(sp.csr_matrix(np.zeros((3, 3))))
        with pytest.raises(InputError):
            softhad_score(g, np.array([1.0, 0.0, -1.0]), SoftConfig())


class TestBackboneCad:
    def test_unit_multiplicities_match_softhad(self):
        rng = np.random.default_rng(8)
        ps = PointSet(rng.normal(size=(12, 2)),
                      np.where(rng.random(12) < 0.5, 1, -1))
        g = build_graph(ps, GraphConfig(mode="epsilon", eps_cut=0.0, sigma=1.0))
        cfg = SoftConfig(0.4, 1.0, 1.0)
        y = ps.labels.astype(float)
        assert np.allclose(backbone_cad(g, np.ones(12), y, cfg),
                           softhad_score(g, y, cfg), atol=1e-10)

    def test_duplicated_node_collapse_matches_expanded(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(6, 2))
        mult = np.array([2, 1, 3, 1, 2, 4])
        labels = np.array([1, -1, 1, 1, -1, -1])
        expanded = np.repeat(base, mult, axis=0)
        labels_exp = np.repeat(labels, mult)
        cfg = SoftConfig(0.3, 1.0, 1.0)

        g_exp = build_graph(PointSet(expanded, labels_exp),
                            GraphConfig(mode="epsilon", eps_cut=0.0, sigma=1.0))
        full = softhad_score(g_exp, labels_exp.astype(float), cfg)

        g_c = build_graph(PointSet(base, labels),
                          GraphConfig(mode="epsilon", eps_cut=0.0, sigma=1.0))
        compact = backbone_cad(g_c, mult.astype(float), labels.astype(float), cfg)
        starts = np.concatenate([[0], np.cumsum(mult)[:-1]])
        assert np.max(np.abs(full[starts] - compact)) < 1e-8

    def test_huge_multiplicity_pins_value_toward_label(self):
        # growing one labeled node's multiplicity drags its value toward
        # its label; the limit is the replica-consensus value
        # c_l / (c_l + gamma_g) because the node's edge mass grows too
        w = np.array([[0.0, 0.6], [0.6, 0.0]])
        g = SimilarityGraph(sp.csr_matrix(w))
        gamma = 0.2
        cfg = SoftConfig(gamma, 1.0, 1.0)
        y = np.array([1.0, -1.0])
        prev = np.inf
        for mult in (1.0, 10.0, 1e3, 1e7):
            score = backbone_cad(g, np.array([mult, 1.0]), y, cfg)[0]
            assert score <= prev + 1e-12
            prev = score
        assert prev == pytest.approx(gamma / (1.0 + gamma), abs=1e-5)


class TestBackboneFromSample:
    def test_sampled_backbone_scores_track_full_solution(self):
        from graphssl import backbone_from_sample
        rng = np.random.default_rng(11)
        pts = np.vstack([rng.normal(0, 0.7, (80, 2)), rng.normal(3, 0.7, (80, 2))])
        labels = np.concatenate([np.ones(80, dtype=int), -np.ones(80, dtype=int)])
        ps = PointSet(pts, labels)
        nodes, mult = backbone_from_sample(ps, k=40, seed=3)
        assert nodes.n == 40
        assert np.all(mult >= 1)
        assert mult.sum() >= ps.n  # counts, floored at one
        cfg = SoftConfig(0.5, 1.0, 1.0)
        g = build_graph(nodes, GraphConfig(mode="epsilon", eps_cut=0.0, sigma=0.8))
        scores = backbone_cad(g, mult, nodes.labels.astype(float), cfg)
        assert scores.shape == (40,)
        # flipping one backbone label must raise that node's score
        y = nodes.labels.astype(float)
        y[7] = -y[7]
        flipped_scores = backbone_cad(g, mult, y, cfg)
        assert flipped_scores[7] > scores[7]


class TestScaleScores:
    def test_endpoints_and_clamp(self):
        scaling = TaskScaling.fit(np.array([2.0, 4.0, 3.0]))
        assert scale_scores(scaling, np.array([2.0]))[0] == 0.0
        assert scale_scores(scaling, np.array([4.0]))[0] == 1.0
        assert scale_scores(scaling, np.array([-5.0]))[0] == 0.0
        assert scale_scores(scaling, np.array([9.0]))[0] == 1.0

    def test_degenerate_range_maps_to_half(self):
        scaling = TaskScaling.fit(np.array([1.0, 1.0]))
        assert np.all(scale_scores(scaling, np.array([0.0, 1.0, 2.0])) == 0.5)

    def test_affine_invariance(self):
        rng = np.random.default_rng(10)
        train = rng.random(50)
        test = rng.random(20)
        a, b = 3.7, -1.2
        base = scale_scores(TaskScaling.fit(train), test)
        shifted = scale_scores(TaskScaling.fit(a * train + b), a * test + b)
        assert np.allclose(base, shifted, atol=1e-12)
