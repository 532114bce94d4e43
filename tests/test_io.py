import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp

from graphssl import (CutClassifier, GraphConfig, InputError, KernelSpec, PointSet,
                      SimilarityGraph, build_graph)
from graphssl.io import (fmt17, read_cut_model, read_points_csv, read_truth_csv,
                         write_cut_model,
                         write_edge_list, write_metrics_json, write_online_csv,
                         write_points_csv, write_scores_csv, write_soft_labels_csv,
                         write_trace_csv, write_truth_csv)
from graphssl.online import OnlineStep

from _synth import random_graph


def _sorted_tuple_edge_list(path, g):
    """The edge-list writer that sorted a Python tuple per stored entry,
    kept as the reference for the CSR-order writer."""
    coo = g.weights.tocoo()
    lines = []
    for i, j, w in sorted(zip(coo.row, coo.col, coo.data)):
        if i < j:
            lines.append(f"{i},{j},{fmt17(w)}")
    path.write_text("\n".join(lines) + "\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_edge_list_matches_sorted_tuple_writer(tmp_path_factory, n, seed, density):
    tmp = tmp_path_factory.mktemp("edges")
    g = random_graph(n, seed, density=density, ensure_connected=False)
    write_edge_list(tmp / "new.txt", g)
    _sorted_tuple_edge_list(tmp / "old.txt", g)
    assert (tmp / "new.txt").read_bytes() == (tmp / "old.txt").read_bytes()


def test_knn_edge_list_matches_sorted_tuple_writer(tmp_path):
    rng = np.random.default_rng(3)
    ps = PointSet(rng.normal(size=(400, 3)), np.zeros(400, dtype=int))
    g = build_graph(ps, GraphConfig(mode="knn", k_neighbors=6, sigma=0.5))
    write_edge_list(tmp_path / "new.txt", g)
    _sorted_tuple_edge_list(tmp_path / "old.txt", g)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


# The row writers as they formatted each value with fmt17, kept as the
# reference for the f-string writers.
def _fmt17_points(path, ps):
    lines = [",".join([f"f{i}" for i in range(ps.p)] + ["label"])]
    for row, label in zip(ps.points, ps.labels):
        lines.append(",".join([fmt17(v) for v in row] + [str(int(label))]))
    path.write_text("\n".join(lines) + "\n")


def _fmt17_truth(path, true_labels, flipped, true_scores):
    lines = ["index,true_label,flipped,true_anomaly_score"]
    for i, (lab, flip, score) in enumerate(zip(true_labels, flipped, true_scores)):
        lines.append(f"{i},{int(lab)},{int(flip)},{fmt17(score)}")
    path.write_text("\n".join(lines) + "\n")


def _fmt17_soft_labels(path, values):
    lines = ["index,soft_label,predicted_sign"]
    for i, v in enumerate(values):
        lines.append(f"{i},{fmt17(v)},{int(np.sign(v))}")
    path.write_text("\n".join(lines) + "\n")


def _fmt17_scores(path, raw, scaled):
    order = np.lexsort((np.arange(len(raw)), -np.asarray(raw)))
    rank = np.empty(len(raw), dtype=np.int64)
    rank[order] = np.arange(1, len(raw) + 1)
    lines = ["index,raw_score,scaled_score,rank"]
    for i, (r, s) in enumerate(zip(raw, scaled)):
        lines.append(f"{i},{fmt17(r)},{fmt17(s)},{rank[i]}")
    path.write_text("\n".join(lines) + "\n")


def _fmt17_trace(path, values):
    lines = ["iteration,objective"]
    for i, v in enumerate(values):
        lines.append(f"{i},{fmt17(v)}")
    path.write_text("\n".join(lines) + "\n")


def _fmt17_cut_model(path, clf):
    """The cut-model writer of the command line, one fmt17 per number."""
    kernel = clf.kernel.kind
    if kernel == "rbf":
        kernel += ":" + fmt17(clf.kernel.rbf_width)
    lines = [f"kernel={kernel}", f"bias={fmt17(clf.bias)}",
             "retained=" + ",".join(str(i) for i in clf.retained_indices),
             "coef=" + ",".join(fmt17(c) for c in clf.coefficients),
             f"support={clf.support_points.shape[0]},{clf.support_points.shape[1]}"]
    lines += [",".join(fmt17(v) for v in row) for row in clf.support_points]
    path.write_text("\n".join(lines) + "\n")


def _fstring_online(path, steps):
    """write_online_csv as it formatted one f-string per step."""
    lines = ["t,assigned_centroid,prediction,abstained"]
    for t, step in enumerate(steps):
        lines.append(f"{t},{step.centroid},{step.prediction},{int(step.abstained)}")
    path.write_text("\n".join(lines) + "\n")


_SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, 1.0, -3.0, 2.0**60,
            1e300, float("inf"), float("-inf"), float("nan")]
_any_float = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
_finite_float = st.one_of(st.sampled_from([v for v in _SPECIAL if np.isfinite(v)]),
                          st.floats(allow_nan=False, allow_infinity=False))


def _same_output(tmp, write, reference, *args):
    """Both writers give the same bytes, or both raise the same error."""
    try:
        reference(tmp / "want.csv", *args)
    except ValueError:
        with pytest.raises(ValueError):
            write(tmp / "got.csv", *args)
        return
    write(tmp / "got.csv", *args)
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_any_float, _any_float, _any_float, st.sampled_from([-1, 0, 1]),
                          st.booleans()), max_size=25),
       st.lists(_finite_float, min_size=2, max_size=40))
def test_row_writers_match_fmt17(tmp_path_factory, rows, coords):
    tmp = tmp_path_factory.mktemp("rows")
    a, b, c = (np.array([r[k] for r in rows], dtype=np.float64) for k in range(3))
    labels = np.array([r[3] for r in rows], dtype=np.int64)
    flipped = np.array([r[4] for r in rows], dtype=bool)
    _same_output(tmp, write_scores_csv, _fmt17_scores, a, b)
    _same_output(tmp, write_soft_labels_csv, _fmt17_soft_labels, c)
    _same_output(tmp, write_truth_csv, _fmt17_truth, labels, flipped, a)
    _same_output(tmp, write_trace_csv, _fmt17_trace, list(b))
    pts = np.array(coords).reshape(-1, 2 if len(coords) % 2 == 0 else 1)
    ps = PointSet(pts, np.resize([1, 0, -1], pts.shape[0]))
    _same_output(tmp, write_points_csv, _fmt17_points, ps)


_steps = st.builds(OnlineStep, st.sampled_from([-1, 0, 1]), st.booleans(),
                   st.integers(0, 10**6))


@settings(max_examples=40, deadline=None)
@given(st.lists(_steps, max_size=25))
def test_online_writer_matches_fstring_writer(tmp_path_factory, steps):
    _same_output(tmp_path_factory.mktemp("online"), write_online_csv, _fstring_online, steps)


@st.composite
def _cut_models(draw):
    s, p, extra = draw(st.integers(0, 6)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    kernel = draw(st.sampled_from([KernelSpec("linear"), KernelSpec("cubic"),
                                   KernelSpec("rbf", 1.0), KernelSpec("rbf", 0.3)]))
    numbers = st.lists(_finite_float, min_size=s * p + s + 1, max_size=s * p + s + 1)
    values = np.array(draw(numbers))
    return CutClassifier(values[:s * p].reshape(s, p), values[s * p:-1], float(values[-1]),
                         kernel, np.arange(s + extra, dtype=np.int64) * 3)


@settings(max_examples=80, deadline=None)
@given(_cut_models())
def test_cut_model_writer_matches_fmt17_writer_and_reads_back(tmp_path_factory, clf):
    tmp = tmp_path_factory.mktemp("model")
    _same_output(tmp, write_cut_model, _fmt17_cut_model, clf)
    back = read_cut_model(tmp / "got.csv")
    assert back.kernel == clf.kernel and back.bias == clf.bias
    for name in ("support_points", "coefficients", "retained_indices"):
        got, want = getattr(back, name), getattr(clf, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _with_specials(rng, n, specials):
    """n floats over many magnitudes with every special value mixed in."""
    values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    values[rng.choice(n, 10 * len(specials), replace=False)] = np.repeat(specials, 10)
    return values


def test_row_writers_match_fmt17_at_2000_rows(tmp_path):
    n = 2000
    rng = np.random.default_rng(18)
    a, b = _with_specials(rng, n, _SPECIAL), _with_specials(rng, n, _SPECIAL)
    labels = rng.choice([-1, 0, 1], size=n)
    flipped = rng.random(n) < 0.1
    _same_output(tmp_path, write_scores_csv, _fmt17_scores, a, b)
    _same_output(tmp_path, write_truth_csv, _fmt17_truth, labels, flipped, a)
    _same_output(tmp_path, write_trace_csv, _fmt17_trace, list(b))
    _same_output(tmp_path, write_soft_labels_csv, _fmt17_soft_labels,
                 _with_specials(rng, n, [v for v in _SPECIAL if not np.isnan(v)]))
    finite = [v for v in _SPECIAL if np.isfinite(v)]
    pts = np.column_stack([_with_specials(rng, n, finite) for _ in range(3)])
    _same_output(tmp_path, write_points_csv, _fmt17_points, PointSet(pts, labels))
    steps = [OnlineStep(int(p), bool(ab), int(c)) for p, ab, c in
             zip(labels, flipped, rng.integers(0, 100, size=n))]
    _same_output(tmp_path, write_online_csv, _fstring_online, steps)
    # 2 000 upper-triangle edges; every positive finite special is a weight
    rows, cols = np.triu_indices(200, 1)
    pick = rng.choice(rows.size, n, replace=False)
    weights = np.abs(_with_specials(rng, n, [v for v in finite if v > 0]))
    upper = sp.coo_matrix((weights, (rows[pick], cols[pick])), shape=(200, 200))
    g = SimilarityGraph(upper + upper.T)
    write_edge_list(tmp_path / "got.txt", g)
    _sorted_tuple_edge_list(tmp_path / "want.txt", g)
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
    assert len((tmp_path / "got.txt").read_text().splitlines()) == n


def test_scores_writer_rejects_columns_of_unequal_length(tmp_path):
    path = tmp_path / "s.csv"
    with pytest.raises(InputError, match=r"unequal length \[3, 3, 1, 3\]"):
        write_scores_csv(path, np.array([0.3, 0.1, 0.2]), np.array([0.5]))
    assert not path.exists()


def test_truth_writer_rejects_columns_of_unequal_length(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(InputError, match=r"unequal length \[3, 3, 3, 2\]"):
        write_truth_csv(path, np.array([1, -1, 1]), np.array([False, True, False]),
                        np.array([0.2, 0.8]))
    assert not path.exists()


def _fmt17_metrics_json(path, metrics):
    """write_metrics_json as it rounded every float through fmt17."""
    def convert(obj):
        if isinstance(obj, dict):
            return {k: convert(v) for k, v in sorted(obj.items())}
        if isinstance(obj, (list, tuple)):
            return [convert(v) for v in obj]
        if isinstance(obj, (np.floating, float)):
            return float(fmt17(float(obj)))
        if isinstance(obj, (np.integer,)):
            return int(obj)
        return obj
    path.write_text(json.dumps(convert(metrics), sort_keys=True, indent=2) + "\n")


@settings(max_examples=80, deadline=None)
@given(st.lists(_any_float, max_size=8), _any_float, st.integers(-2**40, 2**40),
       st.sampled_from([np.float64, float]))
def test_metrics_json_matches_fmt17_round_trip(tmp_path_factory, floats, value, count, kind):
    # 17 significant digits round-trip every double, so converting with
    # float() alone writes the same bytes
    tmp = tmp_path_factory.mktemp("metrics")
    metrics = {"auroc": kind(value), "n": np.int64(count), "method": "rwcad",
               "params": {"lambda": kind(value), "grid": [kind(v) for v in floats]},
               "runs": tuple(kind(v) for v in floats), "flips_before_split": True}
    write_metrics_json(tmp / "got.json", metrics)
    _fmt17_metrics_json(tmp / "want.json", metrics)
    assert (tmp / "got.json").read_bytes() == (tmp / "want.json").read_bytes()


def _converting_metrics_json(path, metrics):
    """write_metrics_json as it converted numpy scalars by recursion."""
    def convert(obj):
        if isinstance(obj, dict):
            return {k: convert(v) for k, v in sorted(obj.items())}
        if isinstance(obj, (list, tuple)):
            return [convert(v) for v in obj]
        if isinstance(obj, (np.floating, float)):
            return float(obj)
        if isinstance(obj, (np.integer,)):
            return int(obj)
        return obj
    path.write_text(json.dumps(convert(metrics), sort_keys=True, indent=2) + "\n")


_json_leaf = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(), _any_float,
    _any_float.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.integers(0, 255).map(np.uint8))
_json_tree = st.recursive(
    _json_leaf, lambda kids: st.one_of(st.lists(kids, max_size=3),
                                       st.lists(kids, max_size=3).map(tuple),
                                       st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(max_size=3), _json_tree, max_size=5))
def test_metrics_json_matches_converting_writer(tmp_path_factory, metrics):
    tmp = tmp_path_factory.mktemp("metrics")
    write_metrics_json(tmp / "got.json", metrics)
    _converting_metrics_json(tmp / "want.json", metrics)
    assert (tmp / "got.json").read_bytes() == (tmp / "want.json").read_bytes()


def test_metrics_json_numpy_bools_and_unknown_types(tmp_path):
    # a numpy bool is written as a JSON bool (the converting writer raised)
    path = tmp_path / "m.json"
    write_metrics_json(path, {"b": [np.bool_(True), np.bool_(False)], "n": np.int64(3)})
    assert json.loads(path.read_text()) == {"b": [True, False], "n": 3}
    for bad in ({1, 2}, np.arange(3), object()):
        with pytest.raises(TypeError):
            write_metrics_json(path, {"bad": bad})


class TestReadPointsCsv:
    def _read(self, tmp_path, text):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        return read_points_csv(path)

    def test_integral_float_labels_read_as_integers(self, tmp_path):
        ps = self._read(tmp_path, "f0,label\n0.5,1.0\n\n1.5,-1\n2.5,0.0\n")
        assert ps.labels.tolist() == [1, -1, 0] and ps.points[:, 0].tolist() == [0.5, 1.5, 2.5]

    @pytest.mark.parametrize("label,line", [("-0.5", 3), ("1.7", 3), ("2", 3), ("nan", 3)])
    def test_non_label_value_rejected_with_its_line(self, tmp_path, label, line):
        with pytest.raises(InputError, match=rf"pts.csv, line {line}: label '{label}'"):
            self._read(tmp_path, f"f0,label\n0.5,1\n1.5,{label}\n")

    def test_non_numeric_cell_names_file_and_line(self, tmp_path):
        with pytest.raises(InputError, match=r"pts.csv, line 4: expected 3 numbers"):
            self._read(tmp_path, "f0,f1,label\n0,1,1\n2,3,-1\n4,x,0\n")

    @pytest.mark.parametrize("text, match", [("", "empty file"), ("\n \n", "empty file"),
                                             ("f0,f1\n0,1\n", "final column must be 'label'"),
                                             ("label,f0\n1,0\n", "final column")])
    def test_empty_file_or_misplaced_label_column_rejected(self, tmp_path, text, match):
        with pytest.raises(InputError, match=rf"pts.csv: {match}"):
            self._read(tmp_path, text)

    @pytest.mark.parametrize("row", ["1", "0,1", "0,1,1,1"])
    def test_ragged_row_names_its_line(self, tmp_path, row):
        with pytest.raises(InputError, match=r"pts.csv, line 2: expected 3 numbers"):
            self._read(tmp_path, f"f0,f1,label\n{row}\n")


class TestReadTruthCsv:
    def _read(self, tmp_path, label, flipped):
        path = tmp_path / "truth.csv"
        path.write_text("index,true_label,flipped,true_anomaly_score\n0,1,0,0.2\n"
                        f"1,{label},{flipped},0.8\n")
        return read_truth_csv(path)

    def test_vocabulary_read_by_column(self, tmp_path):
        truth = self._read(tmp_path, "-1.0", "1")
        assert truth["true_label"].tolist() == [1, -1]
        assert truth["flipped"].tolist() == [False, True]
        assert truth["true_anomaly_score"].tolist() == [0.2, 0.8]

    @pytest.mark.parametrize("label, flipped, match", [
        ("1.7", "0", "true_label '1.7' is not -1 or 1"), ("0", "0", "true_label '0' is not"),
        ("nan", "0", "true_label 'nan'"), ("1", "2", "flipped '2' is not 0 or 1"),
        ("1", "-1", "flipped '-1'"), ("1", "0.5", "flipped '0.5'")])
    def test_value_outside_its_column_vocabulary_rejected(self, tmp_path, label, flipped, match):
        with pytest.raises(InputError, match=rf"truth.csv, line 3: {match}"):
            self._read(tmp_path, label, flipped)
