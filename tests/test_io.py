import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphssl import GraphConfig, InputError, PointSet, build_graph
from graphssl.io import (fmt17, read_points_csv, write_edge_list, write_metrics_json,
                         write_points_csv, write_scores_csv, write_soft_labels_csv,
                         write_trace_csv, write_truth_csv)

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

    @pytest.mark.parametrize("row", ["1", "0,1", "0,1,1,1"])
    def test_ragged_row_names_its_line(self, tmp_path, row):
        with pytest.raises(InputError, match=r"pts.csv, line 2: expected 3 numbers"):
            self._read(tmp_path, f"f0,f1,label\n{row}\n")
