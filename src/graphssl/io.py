"""Every data file of the CLI, read and written: points, truth, edge lists,
soft labels, online steps, scores, metrics, objective traces and the cut
model.

All floats are written with 17 significant digits so outputs round-trip
exactly and runs can be compared byte for byte.  Every row writer goes
through ``_write_table``, which formats the whole table with one ``%``
operation: ``%.17g`` on a Python float is the same CPython formatter as
``fmt17``, so the bytes are fmt17's, nan, infinities, -0.0 and subnormals
included.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .cuts import CutClassifier, KernelSpec
from .errors import InputError
from .graph import LABEL_VALUES, PointSet, SimilarityGraph


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _write_table(path: str | Path, header: str | None, row: str, *columns) -> None:
    """Write ``header`` and one line ``row % cells`` per entry of the
    columns (sequences of Python numbers, one per ``%`` field of ``row``).
    Columns of unequal length raise ``InputError``.  Without a header an
    empty table is one empty line."""
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise InputError(f"{path}: columns of unequal length {lengths}")
    n, width = lengths[0], len(columns)
    cells = [None] * (n * width)
    for k, column in enumerate(columns):
        cells[k::width] = column
    body = ((row + "\n") * n) % tuple(cells)
    Path(path).write_text((body or "\n") if header is None else header + "\n" + body)


def write_points_csv(path: str | Path, ps: PointSet) -> None:
    _write_table(path, ",".join([f"f{i}" for i in range(ps.p)] + ["label"]),
                 ",".join(["%.17g"] * ps.p + ["%d"]),
                 *ps.points.T.tolist(), ps.labels.tolist())


def _read_numeric_csv(path: str | Path) -> tuple[list[str], np.ndarray, list]:
    """Header names, the rows of a CSV of numbers, and each row's line number
    and text cells; blank lines are skipped, and a short, long or
    non-numeric row raises ``InputError`` naming the file and line."""
    lines = [(no, line.split(",")) for no, line in
             enumerate(Path(path).read_text().splitlines(), 1) if line.strip()]
    if not lines:
        raise InputError(f"{path}: empty file")
    header = [h.strip() for h in lines[0][1]]
    data = np.empty((len(lines) - 1, len(header)))
    for i, (no, row) in enumerate(lines[1:]):
        try:
            values = [float(v) for v in row]
        except ValueError:
            values = []
        if len(values) != len(header):      # a one-value row would broadcast
            raise InputError(f"{path}, line {no}: expected {len(header)} numbers")
        data[i] = values
    return header, data, lines[1:]


def _check_values(path: str | Path, data: np.ndarray, rows: list, col: int, name: str,
                  allowed: tuple) -> None:
    """Raise ``InputError`` naming the file, line and cell text of the first
    value of column ``col`` outside ``allowed`` (1.0 reads as 1)."""
    bad = np.flatnonzero(~np.isin(data[:, col], allowed))
    if bad.size:
        no, cells = rows[bad[0]]
        words = ", ".join(map(str, allowed[:-1])) + f" or {allowed[-1]}"
        raise InputError(f"{path}, line {no}: {name} {cells[col].strip()!r} is not {words}")


def _columns(path: str | Path, names: tuple[str, ...],
             allowed: dict | None = None) -> list[np.ndarray]:
    """The named columns of a numeric CSV, found by header name; a column
    named in ``allowed`` must hold only the values it maps to."""
    header, data, rows = _read_numeric_csv(path)
    missing = [name for name in names if name not in header]
    if missing:
        raise InputError(f"{path}: no column {', '.join(map(repr, missing))}")
    for name, values in (allowed or {}).items():
        _check_values(path, data, rows, header.index(name), name, values)
    return [data[:, header.index(name)] for name in names]


def read_points_csv(path: str | Path) -> PointSet:
    """Points and labels of a CSV whose last column is ``label``; a bad row or
    label (1.0 reads as 1) raises ``InputError`` naming the file and line."""
    header, data, rows = _read_numeric_csv(path)
    if header[-1] != "label":
        raise InputError(f"{path}: final column must be 'label'")
    _check_values(path, data, rows, -1, "label", LABEL_VALUES)
    return PointSet(data[:, :-1], data[:, -1].astype(np.int64))


def write_truth_csv(path: str | Path, true_labels: np.ndarray, flipped: np.ndarray,
                    true_scores: np.ndarray) -> None:
    labels = np.asarray(true_labels).tolist()
    _write_table(path, "index,true_label,flipped,true_anomaly_score", "%d,%d,%d,%.17g",
                 range(len(labels)), labels, np.asarray(flipped).tolist(),
                 np.asarray(true_scores, dtype=np.float64).tolist())


def read_truth_csv(path: str | Path) -> dict[str, np.ndarray]:
    """The true labels, flip mask and true anomaly scores of a truth
    sidecar, by column name; a ``true_label`` other than -1 or 1 or a
    ``flipped`` other than 0 or 1 raises ``InputError`` naming the file and
    line."""
    label, flipped, score = _columns(path, ("true_label", "flipped", "true_anomaly_score"),
                                     {"true_label": (-1, 1), "flipped": (0, 1)})
    return {
        "true_label": label.astype(np.int64),
        "flipped": flipped.astype(bool),
        "true_anomaly_score": score,
    }


def write_edge_list(path: str | Path, g: SimilarityGraph) -> None:
    """Upper-triangle edges as ``i,j,w`` with i < j, in row-major order."""
    upper = sp.triu(g.weights, 1, format="csr")     # canonical: sorted, summed
    rows = np.repeat(np.arange(upper.shape[0]), np.diff(upper.indptr))
    _write_table(path, None, "%d,%d,%.17g",
                 rows.tolist(), upper.indices.tolist(), upper.data.tolist())


def write_soft_labels_csv(path: str | Path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64)
    _write_table(path, "index,soft_label,predicted_sign", "%d,%.17g,%d",
                 range(len(values)), values.tolist(), np.sign(values).tolist())


def write_online_csv(path: str | Path, steps: list) -> None:
    _write_table(path, "t,assigned_centroid,prediction,abstained", "%d,%d,%d,%d",
                 range(len(steps)), [step.centroid for step in steps],
                 [step.prediction for step in steps], [step.abstained for step in steps])


def write_scores_csv(path: str | Path, raw: np.ndarray, scaled: np.ndarray) -> None:
    """Scores with a 1-based rank, rank 1 being the highest raw score."""
    raw, scaled = np.asarray(raw, dtype=np.float64), np.asarray(scaled, dtype=np.float64)
    order = np.lexsort((np.arange(len(raw)), -raw))
    rank = np.empty(len(raw), dtype=np.int64)
    rank[order] = np.arange(1, len(raw) + 1)
    _write_table(path, "index,raw_score,scaled_score,rank", "%d,%.17g,%.17g,%d",
                 range(len(raw)), raw.tolist(), scaled.tolist(), rank.tolist())


def read_scores_csv(path: str | Path) -> np.ndarray:
    """The raw_score column of a scores file."""
    return _columns(path, ("raw_score",))[0]


def write_metrics_json(path: str | Path, metrics: dict) -> None:
    """Keys sorted; a numpy scalar is written as its ``.item()``, and any
    other type JSON lacks raises TypeError (from the unbound ``item``)."""
    Path(path).write_text(json.dumps(metrics, sort_keys=True, indent=2,
                                     default=np.generic.item) + "\n")


def write_trace_csv(path: str | Path, values: list[float]) -> None:
    values = np.asarray(values, dtype=np.float64).tolist()
    _write_table(path, "iteration,objective", "%d,%.17g", range(len(values)), values)


def write_cut_model(path: str | Path, clf: CutClassifier) -> None:
    """``key=value`` lines for the kernel, bias, retained indices,
    coefficients and ``support=s,p``, then the s support rows of p numbers."""
    kernel = clf.kernel.kind
    if kernel == "rbf":
        kernel += ":" + fmt17(clf.kernel.rbf_width)
    s, p = clf.support_points.shape
    header = "\n".join([f"kernel={kernel}", f"bias={fmt17(clf.bias)}",
                        "retained=" + ",".join(str(i) for i in clf.retained_indices),
                        "coef=" + ",".join(fmt17(c) for c in clf.coefficients),
                        f"support={s},{p}"])
    _write_table(path, header, ",".join(["%.17g"] * p), *clf.support_points.T.tolist())


def _numbers(text: str, convert) -> list:
    """The comma-separated values of a model field; an empty field has none."""
    return [convert(v) for v in text.split(",")] if text else []


def read_cut_model(path: str | Path) -> CutClassifier:
    """A model file of write_cut_model: s >= 0 support rows of p >= 1 numbers,
    s coefficients and r >= s retained indices (files written before support
    points were cut to the nonzero coefficients have s = r).  A missing field,
    a bad or non-finite number or a support block, coefficient or retained
    list of the wrong size raises InputError."""
    lines = Path(path).read_text().strip().splitlines()
    fields = {}
    i = 0
    while i < len(lines) and "=" in lines[i]:
        key, _, value = lines[i].partition("=")
        fields[key] = value
        i += 1
        if key == "support":
            break
    missing = [key for key in ("kernel", "bias", "retained", "coef", "support")
               if key not in fields]
    if missing:
        raise InputError(f"{path}: model file lacks {', '.join(missing)}")
    try:
        n, p = (int(v) for v in fields["support"].split(","))
        rows = [_numbers(line, float) for line in lines[i:]]
        coef = np.array(_numbers(fields["coef"], float))
        retained = np.array(_numbers(fields["retained"], int), dtype=np.int64)
        bias = float(fields["bias"])
    except ValueError:
        raise InputError(f"{path}: bad number in model file") from None
    if n < 0 or p < 1 or len(rows) != n or any(len(row) != p for row in rows) \
            or coef.size != n or retained.size < n:
        raise InputError(f"{path}: model file needs {n} support rows of {p} numbers, "
                         f"{n} coefficients and at least {n} retained indices")
    support = np.array(rows).reshape(n, p)
    if not (np.isfinite(bias) and np.all(np.isfinite(coef)) and np.all(np.isfinite(support))):
        raise InputError(f"{path}: non-finite number in model file")
    return CutClassifier(support_points=support, coefficients=coef, bias=bias,
                         kernel=KernelSpec.parse(fields["kernel"]), retained_indices=retained)
