import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphssl import (ClassMixture, CoreSpec, InputError, MixtureSpec, auroc,
                      core_true_scores, default_core, default_mixtures,
                      flip_labels, gen_core_dataset, gen_gauss_mixture,
                      load_dataset_spec, true_anomaly_scores)
from graphssl.datasets import (_in_rect, _rect_area, _uniform_rect,
                               draw_dataset, parse_config_text)
from graphssl.rng import PortableRng


def _simple_spec(dim=2):
    pos = ClassMixture([1.0], [[2.0] * dim], [np.eye(dim)])
    neg = ClassMixture([1.0], [[-2.0] * dim], [np.eye(dim)])
    return MixtureSpec(pos, neg, prior_pos=0.5)


class TestGenGaussMixture:
    def test_near_zero_covariance_collapses_to_mean(self):
        pos = ClassMixture([1.0], [[1.0, 2.0]], [1e-12 * np.eye(2)])
        neg = ClassMixture([1.0], [[-1.0, -2.0]], [1e-12 * np.eye(2)])
        ps = gen_gauss_mixture(MixtureSpec(pos, neg), 50, seed=0)
        for x, lab in zip(ps.points, ps.labels):
            want = [1.0, 2.0] if lab == 1 else [-1.0, -2.0]
            assert np.allclose(x, want, atol=1e-5)

    def test_class_frequencies_binomial_concentration(self):
        spec = _simple_spec()
        n = 10_000
        ps = gen_gauss_mixture(spec, n, seed=2)
        n_pos = int((ps.labels == 1).sum())
        assert abs(n_pos - 0.5 * n) <= 3 * np.sqrt(n * 0.25)

    def test_component_mean_clt(self):
        pos = ClassMixture([1.0], [[3.0, -1.0]], [0.25 * np.eye(2)])
        spec = MixtureSpec(pos, ClassMixture([1.0], [[-9.0, 9.0]], [np.eye(2)]),
                           prior_pos=0.5)
        ps = gen_gauss_mixture(spec, 20_000, seed=2)
        pos_pts = ps.points[ps.labels == 1]
        n = pos_pts.shape[0]
        assert np.all(np.abs(pos_pts.mean(axis=0) - [3.0, -1.0]) <= 4 * 0.5 / np.sqrt(n))

    def test_determinism(self):
        spec = _simple_spec()
        a = gen_gauss_mixture(spec, 100, seed=5)
        b = gen_gauss_mixture(spec, 100, seed=5)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_spd_validation(self):
        with pytest.raises(InputError):
            ClassMixture([1.0], [[0.0, 0.0]], [np.array([[1.0, 2.0], [2.0, 1.0]])])

    @pytest.mark.parametrize("weights, means, covs, match", [
        ([0.5, 0.5], [[0.0, 0.0]], [np.eye(2)], "component count"),
        ([[1.0]], [[0.0, 0.0]], [np.eye(2)], "component count"),
        ([0.5], [[0.0, 0.0]], [np.eye(2)], "sum to 1"),
        ([1.5, -0.5], [[0.0, 0.0], [1.0, 1.0]], [np.eye(2)] * 2, "nonnegative"),
        ([1.0], [[0.0, 0.0]], [np.eye(3)], "covariance shape")])
    def test_mixture_rejections(self, weights, means, covs, match):
        with pytest.raises(InputError, match=match):
            ClassMixture(weights, means, covs)

    def test_one_component_takes_a_2d_covariance(self):
        cm = ClassMixture([1.0], [[0.0, 0.0]], 2.0 * np.eye(2))
        assert cm.covs.shape == (1, 2, 2) and np.array_equal(cm.covs[0], 2.0 * np.eye(2))

    @pytest.mark.parametrize("prior, dim, match", [
        (0.0, 2, "prior_pos"), (1.0, 2, "prior_pos"), (np.nan, 2, "prior_pos"),
        (0.5, 3, "feature dimension")])
    def test_spec_rejections(self, prior, dim, match):
        pos = ClassMixture([1.0], [[0.0] * dim], [np.eye(dim)])
        with pytest.raises(InputError, match=match):
            MixtureSpec(pos, _simple_spec().neg, prior_pos=prior)

    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_count_must_be_positive(self, n):
        with pytest.raises(InputError, match="n must be >= 1"):
            gen_gauss_mixture(_simple_spec(), n, seed=0)


class TestTrueAnomalyScore:
    def test_symmetry_point_is_half(self):
        spec = _simple_spec()
        s = true_anomaly_scores(spec, np.zeros((2, 2)), np.array([1, -1]))
        assert s == pytest.approx([0.5, 0.5])

    def test_deep_inside_own_class_near_zero(self):
        spec = _simple_spec()
        s = true_anomaly_scores(spec, np.full((2, 2), 2.0), np.array([1, -1]))
        assert s[0] < 1e-3 and s[1] > 1 - 1e-3

    def test_scores_in_unit_interval(self):
        spec = _simple_spec()
        rng = np.random.default_rng(0)
        x = rng.normal(scale=4, size=(200, 2))
        y = np.where(rng.random(200) < 0.5, 1, -1)
        s = true_anomaly_scores(spec, x, y)
        assert np.all((0 <= s) & (s <= 1))

    def test_mean_min_posterior_matches_bayes_error_monte_carlo(self):
        spec = _simple_spec(dim=1)
        ps = gen_gauss_mixture(spec, 40_000, seed=3)
        # expected min-posterior over the data distribution = Bayes error
        min_post = np.minimum(true_anomaly_scores(spec, ps.points, np.ones(ps.n)),
                              true_anomaly_scores(spec, ps.points, -np.ones(ps.n)))
        # independent Monte Carlo: error of the exact Bayes rule
        scores_pos = true_anomaly_scores(spec, ps.points, ps.labels)
        bayes_mistakes = (scores_pos > 0.5).mean()
        se = min_post.std(ddof=1) / np.sqrt(ps.n) + np.sqrt(0.25 / ps.n)
        assert abs(min_post.mean() - bayes_mistakes) <= 2 * se + 2e-3


class TestFlipLabels:
    def test_zero_fraction_identity(self):
        ps = gen_gauss_mixture(_simple_spec(), 50, seed=4)
        flipped, mask = flip_labels(ps, 0.0, seed=1)
        assert np.array_equal(flipped.labels, ps.labels)
        assert not mask.any()

    def test_full_fraction_negates_everything(self):
        ps = gen_gauss_mixture(_simple_spec(), 50, seed=5)
        flipped, mask = flip_labels(ps, 1.0, seed=1)
        assert np.array_equal(flipped.labels, -ps.labels)
        assert mask.all()

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, np.nan])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        ps = gen_gauss_mixture(_simple_spec(), 10, seed=5)
        with pytest.raises(InputError, match="fraction"):
            flip_labels(ps, fraction, seed=1)

    def test_floor_count(self):
        ps = gen_gauss_mixture(_simple_spec(), 1000, seed=6)
        flipped, mask = flip_labels(ps, 0.03, seed=2)
        assert mask.sum() == 30
        assert np.array_equal(flipped.labels[mask], -ps.labels[mask])
        assert np.array_equal(flipped.labels[~mask], ps.labels[~mask])


class TestCoreDataset:
    def test_counts_bounds_and_mask(self):
        spec = CoreSpec()
        train, test, truth = gen_core_dataset(spec, seed=0)
        assert train.n == 100 + 50 + 3 + 3
        assert test.n == 2 * (100 + 50 + 3 + 3) + 12
        assert truth.anomaly_mask.sum() == 12
        big = train.points[:100]
        assert np.all((big >= 0.0) & (big <= 10.0))
        inner = train.points[100:150]
        assert np.all((inner >= 4.0) & (inner <= 6.0))
        assert np.all(train.labels[:100] == -1)
        assert np.all(train.labels[100:150] == 1)

    def test_anomalies_sit_in_inner_square_with_negative_label(self):
        spec = CoreSpec()
        _, test, truth = gen_core_dataset(spec, seed=1)
        anom = test.points[truth.anomaly_mask]
        assert np.all((anom >= 4.0) & (anom <= 6.0))
        assert np.all(test.labels[truth.anomaly_mask] == -1)

    def test_tiny_points_never_inside_inner_square(self):
        spec = CoreSpec()
        train, test, _ = gen_core_dataset(spec, seed=2)
        for ps in (train, test):
            tiny = spec.in_tiny(ps.points)
            inner = ((ps.points[:, 0] >= 4) & (ps.points[:, 0] <= 6)
                     & (ps.points[:, 1] >= 4) & (ps.points[:, 1] <= 6))
            assert not np.any(tiny & inner)

    def test_true_scores_high_on_anomalies(self):
        spec = CoreSpec()
        _, test, truth = gen_core_dataset(spec, seed=3)
        scores = core_true_scores(spec, test.points, test.labels)
        assert scores[truth.anomaly_mask].min() > 0.5
        assert np.all((0 <= scores) & (scores <= 1))

    def test_invalid_geometry_rejected(self):
        with pytest.raises(InputError):
            CoreSpec(inner=(9.0, 11.0, 4.0, 6.0))
        with pytest.raises(InputError):
            CoreSpec(tiny1=(5.0, 5.5, 5.0, 5.5))

    @pytest.mark.parametrize("field", ["big", "inner", "tiny1", "tiny2"])
    @pytest.mark.parametrize("square", [(0.0, 10.0), (0.0, 1.0, 2.0, 3.0, 4.0), 5.0])
    def test_square_must_be_four_numbers(self, field, square):
        with pytest.raises(InputError, match=f"{field} must be four numbers"):
            CoreSpec(**{field: square})

    @pytest.mark.parametrize("field", ["tiny1_label", "tiny2_label"])
    @pytest.mark.parametrize("label", [0, 2])
    def test_tiny_square_label_must_be_a_sign(self, field, label):
        with pytest.raises(InputError, match="tiny square labels"):
            CoreSpec(**{field: label})

    @pytest.mark.parametrize("field", ["big_count", "inner_count", "tiny1_count",
                                       "tiny2_count", "anomaly_count"])
    def test_negative_count_rejected(self, field):
        with pytest.raises(InputError, match=f"{field} must be >= 0"):
            CoreSpec(**{field: -5})

    def test_zero_anomalies_mark_no_row(self):
        _, test, truth = gen_core_dataset(CoreSpec(anomaly_count=0), seed=0)
        assert test.n == 2 * (100 + 50 + 3 + 3)
        assert not truth.anomaly_mask.any()

    def test_core_true_scores_piecewise_uniform(self):
        spec = CoreSpec()
        # deep inside the inner square: -1 label is anomalous
        s = core_true_scores(spec, np.array([[5.0, 5.0]]), np.array([-1]))[0]
        dens_pos = (50 / 156) / 4.0
        dens_neg = (100 / 156) / 100.0
        assert s == pytest.approx(dens_pos / (dens_pos + dens_neg), rel=1e-12)


# Test-only copies of the core layout's generator and true scores as they
# listed the four squares one by one, before one (square, count, label)
# list served both.
def _core_true_scores_reference(spec, x, y):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y))
    rects = {1: [], -1: []}
    rects[-1].append((spec.big, spec.big_count))
    rects[1].append((spec.inner, spec.inner_count))
    rects[spec.tiny1_label].append((spec.tiny1, spec.tiny1_count))
    rects[spec.tiny2_label].append((spec.tiny2, spec.tiny2_count))
    total_count = spec.big_count + spec.inner_count + spec.tiny1_count + spec.tiny2_count
    dens = {}
    for cls in (1, -1):
        d = np.zeros(x.shape[0])
        for rect, count in rects[cls]:
            d += (count / total_count) / _rect_area(rect) * _in_rect(x, rect)
        dens[cls] = d
    total = dens[1] + dens[-1]
    opposite = np.where(y == 1, dens[-1], dens[1])
    return np.where(total > 0, np.divide(opposite, total, out=np.zeros_like(total),
                                         where=total > 0), 0.5)


def _gen_core_dataset_reference(spec, seed):
    rng = PortableRng(seed)
    tr_pts = np.vstack([
        _uniform_rect(rng.derive(1), spec.big, spec.big_count),
        _uniform_rect(rng.derive(2), spec.inner, spec.inner_count),
        _uniform_rect(rng.derive(3), spec.tiny1, spec.tiny1_count),
        _uniform_rect(rng.derive(4), spec.tiny2, spec.tiny2_count),
    ])
    tr_labels = np.concatenate([
        np.full(spec.big_count, -1), np.full(spec.inner_count, 1),
        np.full(spec.tiny1_count, spec.tiny1_label),
        np.full(spec.tiny2_count, spec.tiny2_label),
    ]).astype(np.int64)
    te_pts = np.vstack([
        _uniform_rect(rng.derive(5), spec.big, 2 * spec.big_count, spec.inner),
        _uniform_rect(rng.derive(6), spec.inner, 2 * spec.inner_count),
        _uniform_rect(rng.derive(7), spec.tiny1, 2 * spec.tiny1_count),
        _uniform_rect(rng.derive(8), spec.tiny2, 2 * spec.tiny2_count),
        _uniform_rect(rng.derive(9), spec.inner, spec.anomaly_count),
    ])
    te_labels = np.concatenate([
        np.full(2 * spec.big_count, -1), np.full(2 * spec.inner_count, 1),
        np.full(2 * spec.tiny1_count, spec.tiny1_label),
        np.full(2 * spec.tiny2_count, spec.tiny2_label),
        np.full(spec.anomaly_count, -1),
    ]).astype(np.int64)
    mask = np.zeros(te_labels.size, dtype=bool)
    mask[-spec.anomaly_count:] = True
    return (tr_pts, tr_labels, te_pts, te_labels, mask,
            _core_true_scores_reference(spec, te_pts, te_labels))


_CORE_SPECS = [CoreSpec(), CoreSpec(tiny1_label=-1, tiny2_label=-1)]


class TestCoreLayoutMatchesReference:
    @pytest.mark.parametrize("spec", _CORE_SPECS)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_gen_core_dataset(self, spec, seed):
        train, test, truth = gen_core_dataset(spec, seed)
        got = (train.points, train.labels, test.points, test.labels, truth.anomaly_mask,
               core_true_scores(spec, test.points, test.labels))
        for a, b in zip(got, _gen_core_dataset_reference(spec, seed)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("spec", _CORE_SPECS)
    def test_core_true_scores(self, spec):
        # a grid over every square, their overlaps and the empty space
        # around them, with both labels
        xs = np.linspace(-1.0, 15.0, 65)
        x = np.array([[a, b] for a in xs for b in xs])
        for label in (1, -1):
            y = np.full(len(x), label)
            assert np.array_equal(core_true_scores(spec, x, y),
                                  _core_true_scores_reference(spec, x, y))


class TestDrawDataset:
    def test_mixture_draw_is_the_flipped_sample(self):
        spec = _simple_spec()
        train, test, labels, mask = draw_dataset(spec, 200, 5, 0.1)
        clean = gen_gauss_mixture(spec, 200, 5)
        flipped, want_mask = flip_labels(clean, 0.1, 5 + 1_000_003)
        assert test is None and mask.sum() == 20
        assert np.array_equal(train.points, clean.points)
        assert np.array_equal(train.labels, flipped.labels)
        assert np.array_equal(labels, clean.labels) and np.array_equal(mask, want_mask)

    def test_core_draw_is_the_split(self):
        train, test, labels, mask = draw_dataset(CoreSpec(), 999, 4, 0.5)
        want = gen_core_dataset(CoreSpec(), 4)
        assert np.array_equal(train.points, want[0].points)
        assert np.array_equal(test.points, want[1].points)
        assert np.array_equal(labels, want[1].labels)
        assert np.array_equal(mask, want[2].anomaly_mask)


    def test_unknown_spec_rejected(self):
        with pytest.raises(InputError, match="unsupported dataset spec dict"):
            draw_dataset({"type": "mixture"}, 10, 0, 0.0)


class TestConfigs:
    @pytest.mark.parametrize("text", ["type = grid\n", "big_count = 3\n"])
    def test_config_type_must_be_mixture_or_core(self, tmp_path, text):
        path = tmp_path / "spec.cfg"
        path.write_text(text)
        with pytest.raises(InputError, match="config type must be 'mixture' or 'core'"):
            load_dataset_spec(path)

    def test_parse_config_text(self):
        cfg = parse_config_text("a = 1\n# comment\nb.c = [1, 2.5]\n")
        assert cfg == {"a": 1, "b.c": [1, 2.5]}
        with pytest.raises(InputError):
            parse_config_text("oops\n")

    def test_shipped_mixtures_load_and_sample(self):
        mixtures = default_mixtures()
        assert set(mixtures) == {"d1", "d2", "d3"}
        for spec in mixtures.values():
            ps = gen_gauss_mixture(spec, 64, seed=0)
            assert ps.n == 64 and set(np.unique(ps.labels)) <= {-1, 1}

    @pytest.mark.parametrize("value", ["[0, 10]", "[0, 10, 0, 10, 5]", "5", '[0, "a", 0, 10]'])
    def test_core_square_must_be_four_numbers(self, tmp_path, value):
        path = tmp_path / "core.cfg"
        path.write_text(f"type = core\ninner = {value}\n")
        with pytest.raises(InputError, match="core.cfg: dataset config 'inner' must be "
                                             "a list of four numbers"):
            load_dataset_spec(path)

    def test_shipped_core_loads(self):
        spec = default_core()
        assert spec.anomaly_count == 12

    def test_load_dataset_spec_roundtrip(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("type = core\nbig_count = 10\ninner_count = 5\n"
                        "tiny1_count = 1\ntiny2_count = 1\nanomaly_count = 3\n")
        spec = load_dataset_spec(path)
        assert isinstance(spec, CoreSpec) and spec.big_count == 10


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0

    def test_all_ties_half(self):
        assert auroc(np.ones(6), np.array([1, 0, 1, 0, 1, 0])) == 0.5

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(7)
        scores = np.round(rng.random(200), 2)  # force ties
        truth = rng.random(200) < 0.4
        if not truth.any() or truth.all():
            truth[0] = ~truth[0]
        got = auroc(scores, truth)
        pos = scores[truth]
        neg = scores[~truth]
        wins = ties = 0
        for p in pos:
            for q in neg:
                wins += p > q
                ties += p == q
        want = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert got == pytest.approx(want, abs=1e-15)

    def test_nan_score_rejected_and_infinities_rank(self):
        truth = np.array([1, 0, 1, 0])
        for first in (np.nan, 0.5):
            with pytest.raises(InputError, match="is NaN"):
                auroc(np.array([first, 0.2, np.nan, 0.1]), truth)
        assert auroc(np.array([np.inf, -np.inf, 0.5, 0.1]), truth) == 1.0
        assert auroc(np.array([-np.inf, np.inf, 0.5, 0.1]), truth) == 0.25

    @pytest.mark.parametrize("truth", [[-1, 1, 1, -1], [0, 2, 1, 0], [0.0, 0.5, 1.0, 1.0],
                                       [0.0, np.nan, 1.0, 1.0]])
    def test_truth_other_than_bool_or_0_1_rejected(self, truth):
        with pytest.raises(InputError, match="truth must be bool or 0/1"):
            auroc(np.array([0.4, 0.3, 0.2, 0.1]), np.array(truth))

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            auroc(np.array([0.1, 0.2]), np.array([1, 1]))

    @pytest.mark.parametrize("scores, truth", [
        (np.zeros(3), np.array([1, 0])), (np.zeros((2, 2)), np.array([[1, 0], [0, 1]]))])
    def test_mismatched_shapes_rejected(self, scores, truth):
        with pytest.raises(InputError, match="equal-length vectors"):
            auroc(scores, truth)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_negation_flips_auroc_without_ties(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.permutation(30).astype(float)  # distinct
        truth = rng.random(30) < 0.5
        if not truth.any() or truth.all():
            truth[0] = ~truth[0]
        assert auroc(-scores, truth) == pytest.approx(1.0 - auroc(scores, truth),
                                                      abs=1e-12)


class TestMixtureRange:
    """A mixture whose densities leave the float range is refused; a row too
    far from a mean for its distance to be formed has density 0."""

    @pytest.mark.parametrize("mean, cov, match", [
        ([[np.nan]], [[[1.0]]], "finite"), ([[0.0]], [[[np.inf]]], "finite"),
        ([[0.0] * 3], [np.eye(3) * 1e-250], "overflows")])
    def test_out_of_range_mixture_rejected(self, mean, cov, match):
        with pytest.raises(InputError, match=match):
            ClassMixture([1.0], mean, cov)

    def test_overflowing_distance_is_density_0(self):
        cm = ClassMixture([1.0], [[1e308]], [[[1.0]]])
        assert cm.density(np.array([[-1e308]])).tolist() == [0.0]
        spec = MixtureSpec(cm, ClassMixture([1.0], [[-1e308]], [[[1.0]]]))
        x = np.array([[1e308], [-1e308], [0.0]])
        scores = true_anomaly_scores(spec, x, np.array([1, 1, -1]))
        assert scores.tolist() == [0.0, 1.0, 0.5]
