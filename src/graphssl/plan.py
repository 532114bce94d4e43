"""Experiment orchestration: a parameter grid x repeated seeded runs of
one scoring method over a generated dataset, with per-cell artifacts and
a deterministic summary table.

Layout under the output directory:

    <outdir>/<method>/<grid-hash>/run<k>/scores.csv
    <outdir>/<method>/<grid-hash>/run<k>/metrics.json
    <outdir>/summary.csv

Cells are independent and may execute concurrently; the summary is
assembled after all cells finish, in grid-then-run order, so re-running a
plan reproduces summary.csv byte for byte.  rwcad cells that share a run
and differ only in lambda are scored as one task, from one draw of the data
and one kernel-mass computation, since lambda enters only the posterior's
final division.

``GRID_SETTINGS`` is the one table of grid names: each maps to the
``cad_scores`` keyword it fills and its value's conversion.  A cell passes
only the names it has, so ``cad_scores``' signature holds every default.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import operator
import os
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as gio
from .cad import (_score_rows, check_cad_params, fit_cad_model,
                  rwcad_scores_loo, scale_scores, softhad_score, weighted_knn_scores_loo)
from .datasets import draw_dataset, load_dataset_spec, parse_config_text
from .errors import InputError
from .graph import GraphConfig, PointSet, build_graph
from .harmonic import SoftConfig
from .metrics import auroc

METHODS = ("rwcad", "knn", "softhad")
# grid name -> (cad_scores keyword, conversion of a cell's value)
GRID_SETTINGS = {"lambda": ("lam", float), "sigma": ("sigma", float), "priors": ("priors", str),
                 "knn": ("graph", lambda k: GraphConfig(mode="knn", k_neighbors=k)),
                 "gamma_g": ("gamma_g", float), "c_l": ("c_l", float)}


@dataclass(frozen=True)
class ExperimentPlan:
    method: str
    grid: dict[str, list]
    dataset: str
    n_samples: int = 1000
    flip_fraction: float = 0.03
    n_runs: int = 1
    base_seed: int = 0
    outdir: str = "plan-out"

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"method must be one of {METHODS}")
        for name in ("n_samples", "n_runs", "base_seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise InputError(f"{name} must be an integer") from None
        try:
            object.__setattr__(self, "flip_fraction", float(self.flip_fraction))
        except (TypeError, ValueError):
            raise InputError("flip_fraction must be a number") from None
        if not 0 <= self.flip_fraction <= 1:
            raise InputError(f"flip_fraction must be in [0, 1], got {self.flip_fraction!r}")
        for name in ("n_samples", "n_runs"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")
        for name, values in self.grid.items():
            if name not in GRID_SETTINGS:
                raise InputError(f"grid.{name} is not a grid setting; "
                                 f"settings: {', '.join(GRID_SETTINGS)}")
            if not values:
                raise InputError(f"grid.{name} lists no value")
            # two equal values would share one cell directory and summary row
            seen = set()
            for value in values:
                canon = json.dumps(value, sort_keys=True)
                if canon in seen:
                    raise InputError(f"grid.{name} lists {canon} twice")
                seen.add(canon)


def plan_from_config(path: str | Path, outdir: str | None = None) -> ExperimentPlan:
    """A plan from its file: ``grid.NAME`` keys form the grid (none: one cell
    with no settings) and every other key names an ``ExperimentPlan`` field
    (``method`` defaults to rwcad); ``dataset`` is relative to the file, and
    ``outdir`` wins."""
    path = Path(path)
    cfg = parse_config_text(path.read_text())
    fields = {f.name for f in dataclasses.fields(ExperimentPlan)} - {"grid"}
    settings, grid = {"method": "rwcad"}, {}
    for key, value in cfg.items():
        if key.startswith("grid."):
            grid[key[len("grid."):]] = value if isinstance(value, list) else [value]
        elif key in fields:
            settings[key] = value
        else:
            raise InputError(f"{path}: {key} is not a plan setting; settings: "
                             f"{', '.join(sorted(fields))} and grid.NAME")
    if "dataset" not in settings:
        raise InputError(f"{path}: plan config needs a 'dataset' key")
    if not isinstance(settings["dataset"], str):
        raise InputError(f"{path}: dataset must be a path, got {settings['dataset']!r}")
    settings["dataset"] = str((path.parent / settings["dataset"]).resolve())
    if outdir is not None or "outdir" in settings:
        settings["outdir"] = str(outdir if outdir is not None else settings["outdir"])
    try:
        return ExperimentPlan(grid=grid, **settings)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def grid_points(grid: dict[str, list]) -> list[dict]:
    keys = sorted(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def grid_hash(params: dict) -> str:
    canon = json.dumps(params, sort_keys=True)
    return hashlib.sha1(canon.encode()).hexdigest()[:10]


def cad_scores(method: str, train: PointSet, test: PointSet | None = None, *,
               lam: float | np.ndarray = 0.01, sigma: float | None = None,
               priors: str = "empirical",
               graph: GraphConfig = GraphConfig(mode="knn", k_neighbors=10),
               gamma_g: float = 1.0, c_l: float = 1.0) -> np.ndarray:
    """One anomaly score per row of ``train``, then one per row of ``test``.

    rwcad and knn score ``train`` leave-one-out and ``test`` against a
    model fitted on ``train``; a 1-D ``lam`` gives rwcad one row of scores
    per value.  softhad scores both from one soft solve (c_u = c_l) over
    them stacked, on ``graph`` with kernel width ``sigma``, the width's one
    carrier: a ``graph`` with its own sigma raises ``InputError``.  ``lam``
    and ``priors`` are checked for every method, including those that
    ignore them.
    """
    if method not in METHODS:
        raise InputError(f"method must be one of {METHODS}")
    check_cad_params(lam, priors)
    if graph.sigma is not None:
        raise InputError(f"graph.sigma={graph.sigma!r} is not read: pass the kernel width "
                         "as sigma=")
    if test is not None and test.p != train.p:
        raise InputError(f"test rows have {test.p} features, training rows {train.p}")
    both = train if test is None else PointSet(
        np.vstack([train.points, test.points]),
        np.concatenate([train.labels, test.labels]), train.feature_weights)
    if method == "softhad":
        cfg = SoftConfig(gamma_g=gamma_g, c_l=c_l, c_u=c_l)
        return softhad_score(build_graph(both, dataclasses.replace(graph, sigma=sigma)),
                             both.labels, cfg)
    if test is None:
        return (rwcad_scores_loo(train, lam, sigma, priors=priors) if method == "rwcad"
                else weighted_knn_scores_loo(train, sigma))
    model = fit_cad_model(train, lam, sigma, priors=priors)
    return _score_rows(method, model, both.points, both.labels, lam, n_loo=train.n)


def score_method(method: str, params: dict, spec, seed: int, n_samples: int,
                 flip_fraction: float,
                 lams: list[float] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One run: generate, corrupt, score.  Returns (scores, binary truth).

    ``lams`` (rwcad only) scores each of several lambdas in place of
    ``params["lambda"]``, one row of scores per lambda.
    """
    train, test, _, truth = draw_dataset(spec, n_samples, seed, flip_fraction)
    settings = {keyword: convert(params[name])
                for name, (keyword, convert) in GRID_SETTINGS.items() if name in params}
    if lams is not None:
        settings["lam"] = lams
    scores = cad_scores(method, train, test, **settings)
    return (scores if test is None else scores[..., train.n:]), truth


@dataclass
class CellResult:
    params: dict
    run: int
    seed: int
    status: str
    auroc: float | None
    n: int
    error: str = ""


def _lambda_groupable(params: dict) -> bool:
    try:
        return float(params["lambda"]) >= 0
    except (KeyError, TypeError, ValueError):
        return False


def _cell_groups(plan: ExperimentPlan, points: list[dict]) -> list[list[tuple[dict, int]]]:
    """(params, run) cells grouped into scoring tasks: rwcad cells that share
    a run and differ only in a valid lambda form one group, and every other
    cell is a group of its own, so that it fails on its own."""
    groups: dict = {}
    cells = [(params, run) for params in points for run in range(plan.n_runs)]
    for i, (params, run) in enumerate(cells):
        key = i
        if plan.method == "rwcad" and _lambda_groupable(params):
            key = (run, grid_hash({k: v for k, v in params.items() if k != "lambda"}))
        groups.setdefault(key, []).append((params, run))
    return list(groups.values())


def _run_group(plan: ExperimentPlan, spec, cells: list[tuple[dict, int]],
               outdir: Path) -> list[CellResult]:
    """Score a group of cells from one draw of the data and write each
    cell's artifacts; if scoring raises, every cell of the group fails."""
    params, run = cells[0]
    seed = plan.base_seed + run
    rows, truth, error = [None] * len(cells), None, None
    try:
        lams = ([float(p["lambda"]) for p, _ in cells]
                if plan.method == "rwcad" and "lambda" in params else None)
        scores, truth = score_method(plan.method, params, spec, seed,
                                     plan.n_samples, plan.flip_fraction, lams)
        rows = scores if lams is not None else [scores]
    except Exception as exc:  # recorded per-row, aggregation skips failures
        error = exc
    return [_write_cell(plan, p, run, seed, outdir, row, truth, error)
            for (p, _), row in zip(cells, rows)]


def _write_cell(plan: ExperimentPlan, params: dict, run: int, seed: int, outdir: Path,
                scores, truth, error: Exception | None) -> CellResult:
    cell_dir = outdir / plan.method / grid_hash(params) / f"run{run}"
    cell_dir.mkdir(parents=True, exist_ok=True)
    if error is None:
        try:
            # every check before the first file: a failed cell holds error.txt alone
            scaled, value = scale_scores(scores, scores), auroc(scores, truth)
            gio.write_scores_csv(cell_dir / "scores.csv", scores, scaled)
            gio.write_metrics_json(cell_dir / "metrics.json", {
                "auroc": value, "n": int(scores.size), "method": plan.method,
                "params": params, "seed": seed,
                "flips_before_split": True,
            })
            return CellResult(params, run, seed, "ok", value, int(scores.size))
        except Exception as exc:
            error = exc
    (cell_dir / "error.txt").write_text("".join(traceback.format_exception(error)))
    return CellResult(params, run, seed, "failed", None, 0, error=str(error))


def run_plan(plan: ExperimentPlan, threads: int = 1) -> list[CellResult]:
    """Execute every (grid point, run) cell and write summary.csv, on
    ``threads`` worker threads (0 = all cores)."""
    if threads < 0:
        raise InputError(f"threads must be >= 0 (0 = all cores), got {threads}")
    spec = load_dataset_spec(plan.dataset)
    outdir = Path(plan.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    points = grid_points(plan.grid)
    groups = _cell_groups(plan, points)
    workers = threads if threads > 0 else (os.cpu_count() or 1)
    if workers == 1:
        done = [_run_group(plan, spec, cells, outdir) for cells in groups]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_group, plan, spec, cells, outdir) for cells in groups]
            done = [f.result() for f in futures]
    rank = {id(params): i for i, params in enumerate(points)}
    results = sorted((res for group in done for res in group),
                     key=lambda res: (rank[id(res.params)], res.run))
    _write_summary(outdir / "summary.csv", plan, points, results)
    return results


def _write_summary(path: Path, plan: ExperimentPlan, points: list[dict],
                   results: list[CellResult]) -> None:
    """One row per cell and a mean and a variance row per grid point (no
    mean without an ok run); results are in grid-then-run order, n_runs to
    a point."""
    keys = sorted(plan.grid)
    lines = [",".join(["method", *keys, "run", "seed", "status", "auroc", "n"])]
    for i, params in enumerate(points):
        group = results[i * plan.n_runs:(i + 1) * plan.n_runs]
        prefix = ",".join([plan.method, *(_fmt_param(params[k]) for k in keys)])
        for res in group:
            value = gio.fmt17(res.auroc) if res.auroc is not None else ""
            lines.append(f"{prefix},{res.run},{res.seed},{res.status},{value},{res.n}")
        oks = [r.auroc for r in group if r.status == "ok"]
        mean = gio.fmt17(float(np.mean(oks))) if oks else ""
        var = float(np.var(oks, ddof=1)) if len(oks) > 1 else 0.0
        lines.append(f"{prefix},mean,,aggregate,{mean},{len(oks)}")
        lines.append(f"{prefix},variance,,aggregate,{gio.fmt17(var)},{len(oks)}")
    path.write_text("\n".join(lines) + "\n")


def _fmt_param(v) -> str:
    if isinstance(v, float):
        return gio.fmt17(v)
    return str(v)
