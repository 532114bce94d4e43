"""CSV / JSON / edge-list formats used by the CLI.

All floats are written with 17 significant digits so outputs round-trip
exactly and runs can be compared byte for byte (row writers format the
Python floats of ``tolist()`` with ``:.17g``: fmt17's bytes, but faster).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import InputError
from .graph import PointSet, SimilarityGraph


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def write_points_csv(path: str | Path, ps: PointSet) -> None:
    lines = [",".join([f"f{i}" for i in range(ps.p)] + ["label"])]
    lines += [",".join([f"{v:.17g}" for v in row]) + f",{label}"
              for row, label in zip(ps.points.tolist(), ps.labels.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def read_points_csv(path: str | Path) -> PointSet:
    text = Path(path).read_text().strip()
    if not text:
        raise InputError(f"{path}: empty file")
    rows = [line.split(",") for line in text.splitlines()]
    header = [h.strip() for h in rows[0]]
    if header[-1] != "label":
        raise InputError(f"{path}: final column must be 'label'")
    data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != len(header):
        raise InputError(f"{path}: ragged rows")
    return PointSet(data[:, :-1], data[:, -1].astype(np.int64))


def write_truth_csv(path: str | Path, true_labels: np.ndarray, flipped: np.ndarray,
                    true_scores: np.ndarray) -> None:
    lines = ["index,true_label,flipped,true_anomaly_score"]
    rows = zip(np.asarray(true_labels).tolist(), np.asarray(flipped).tolist(),
               np.asarray(true_scores, dtype=np.float64).tolist())
    lines += [f"{i},{int(lab)},{int(flip)},{s:.17g}" for i, (lab, flip, s) in enumerate(rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_truth_csv(path: str | Path) -> dict[str, np.ndarray]:
    rows = [line.split(",") for line in Path(path).read_text().strip().splitlines()[1:]]
    arr = np.array([[float(v) for v in row] for row in rows])
    return {
        "true_label": arr[:, 1].astype(np.int64),
        "flipped": arr[:, 2].astype(bool),
        "true_anomaly_score": arr[:, 3],
    }


def write_edge_list(path: str | Path, g: SimilarityGraph) -> None:
    """Upper-triangle edges as ``i,j,w`` with i < j, in row-major order."""
    upper = sp.triu(g.weights, 1, format="csr")     # canonical: sorted, summed
    rows = np.repeat(np.arange(upper.shape[0]), np.diff(upper.indptr))
    lines = [f"{i},{j},{fmt17(w)}" for i, j, w in
             zip(rows.tolist(), upper.indices.tolist(), upper.data.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def write_soft_labels_csv(path: str | Path, values: np.ndarray) -> None:
    lines = ["index,soft_label,predicted_sign"]
    values = np.asarray(values, dtype=np.float64)
    lines += [f"{i},{v:.17g},{int(s)}"
              for i, (v, s) in enumerate(zip(values.tolist(), np.sign(values).tolist()))]
    Path(path).write_text("\n".join(lines) + "\n")


def write_online_csv(path: str | Path, steps: list) -> None:
    lines = ["t,assigned_centroid,prediction,abstained"]
    for t, step in enumerate(steps):
        lines.append(f"{t},{step.centroid},{step.prediction},{int(step.abstained)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_scores_csv(path: str | Path, raw: np.ndarray, scaled: np.ndarray) -> None:
    """Scores with a 1-based rank, rank 1 being the highest raw score."""
    raw, scaled = np.asarray(raw, dtype=np.float64), np.asarray(scaled, dtype=np.float64)
    order = np.lexsort((np.arange(len(raw)), -raw))
    rank = np.empty(len(raw), dtype=np.int64)
    rank[order] = np.arange(1, len(raw) + 1)
    lines = ["index,raw_score,scaled_score,rank"]
    lines += [f"{i},{r:.17g},{s:.17g},{k}" for i, (r, s, k) in
              enumerate(zip(raw.tolist(), scaled.tolist(), rank.tolist()))]
    Path(path).write_text("\n".join(lines) + "\n")


def read_scores_csv(path: str | Path) -> np.ndarray:
    rows = [line.split(",") for line in Path(path).read_text().strip().splitlines()[1:]]
    return np.array([float(row[1]) for row in rows])


def write_metrics_json(path: str | Path, metrics: dict) -> None:
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
    Path(path).write_text(json.dumps(convert(metrics), sort_keys=True, indent=2) + "\n")


def write_trace_csv(path: str | Path, values: list[float]) -> None:
    lines = ["iteration,objective"]
    lines += [f"{i},{v:.17g}" for i, v in
              enumerate(np.asarray(values, dtype=np.float64).tolist())]
    Path(path).write_text("\n".join(lines) + "\n")
