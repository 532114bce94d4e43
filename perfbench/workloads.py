"""The benchmark's three workloads.

Each workload is a closed loop driven by one client: the next call into
graphssl is made only after the previous one returned.  ``setup()`` makes
the inputs from the seed and warms the code paths; ``unit()`` performs the
workload's fixed work once and returns per-step latencies and the outputs;
``check()`` compares the outputs of a unit with independent references
(see ``reference.py``) and, at the default seed and full size, with the
values recorded in ``reference_values.json``.

Every workload has a ``full`` size, which the benchmark measures, and a
``tiny`` size, which the benchmark's self-test runs.

The seed picks the data.  How much work a data set takes varies from one
set to the next (the conditioning of a solve, the number of repartitions),
so ssl-sweep and online-stream run several independent data sets drawn from
the seed in every repetition: their times then depend little on the seed.
"""

from __future__ import annotations

import csv
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import graphssl as G
from graphssl import cli
from graphssl.cad import LAMBDA_GRID
from graphssl.harmonic import DEFAULT_TOL

import reference

REFERENCE_FILE = Path(__file__).with_name("reference_values.json")
DEFAULT_SEED = 0
COMPARE_RECORDED = True     # record_reference.py turns it off to write a new file
# run-plan scores cells on this many worker threads.  On a shared host of few
# cores a second thread competes with the other tenants' load: with two, the
# mixture-plan times swung with that load.  BLAS and OpenMP are pinned to one
# thread too (run.py), so every workload runs one compute thread.
RUN_PLAN_THREADS = 1

# Tolerances of the output checks.  A sign or a confidence cut-off can flip
# for a value within rounding of 0 or of epsilon, hence the small shares.
AUROC_TOL = 1e-12       # reported AUROC vs the reference AUROC of the written scores
SCORE_RTOL = 1e-9       # written anomaly scores vs the dense reference ...
SCORE_ATOL = 1e-8       # ... softhad scores carry the CG tolerance (scores lie in [0, 2])
RECORDED_AUROC_TOL = 1e-3  # near-tied softhad scores may reorder within the solve tolerance
GRAPH_ATOL = 1e-12      # k-NN edge weights (in [0, 1]) vs the dense reference
PREDICTION_TOL = 0.002  # share of online predictions that may differ from the reference
RETAINED_TOL = 0.002    # share of points whose confident/unconfident status may differ
ACCURACY_TOL = 0.01     # accuracies vs a direct solve and vs the recorded reference: the
                        # solve tolerance bounds the residual, not the error, and at
                        # gamma_g = 1e-8 values near 0 may change sign
ACCURACY_FLOOR = 0.55   # full size: cuts and joint accuracy on any seed (chance is 0.5,
                        # a sign error gives about 0.25)


@dataclass
class Unit:
    """One repetition of a workload's fixed work."""

    wall_s: float
    steps_s: list
    attempted: int
    failed: int
    quality: dict
    outputs: dict


def _recorded(workload: str, seed: int, size: str):
    if (not COMPARE_RECORDED or size != "full" or seed != DEFAULT_SEED
            or not REFERENCE_FILE.exists()):
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload)


def _compare_recorded(errors: list, recorded, values: dict, tol: float) -> None:
    if recorded is None:
        return
    for key, want in recorded.items():
        got = values.get(key)
        if got is None or abs(got - want) > tol:
            errors.append(f"{key}: {got} vs recorded {want}")


def _accuracy(pred: np.ndarray, true: np.ndarray) -> float:
    return float(np.mean(pred == true))


def _data_seeds(seed: int, count: int) -> list[int]:
    """Data seeds of the ``count`` data sets of one benchmark seed: disjoint
    across benchmark seeds, and the seed itself when ``count`` is 1."""
    return [seed * count + k for k in range(count)]


# ---------------------------------------------------------------------------
class MixturePlan:
    """The test_08 mixture sweep as nine ``graphssl run-plan`` calls made
    in-process through ``cli.main``: mixtures d1, d2, d3 x methods rwcad
    (the 11-value lambda grid), knn and softhad."""

    name = "mixture-plan"
    sizes = {"full": dict(n_samples=1000, lambdas=LAMBDA_GRID, n_runs=1),
             "tiny": dict(n_samples=80, lambdas=LAMBDA_GRID[::5], n_runs=1)}
    mixtures = ("d1", "d2", "d3")
    methods = ("rwcad", "knn", "softhad")
    sigma, knn, gamma_g, c_l, flip = 0.4, 10, 0.1, 1.0, 0.03

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.size, self.workdir = seed, size, workdir
        self.cfg = self.sizes[size]
        # The seed picks one of test_08's ten runs (data seeds 100-109).  Other
        # data seeds can place a satellite point whose leave-one-out kernel
        # mass underflows to 0 at sigma 0.4 (seed 121 does for d1, d2 and d3),
        # and weighted_knn_scores_loo then rightly raises DegenerateGraphError.
        self.base_seed = 100 + seed % 10

    def _plan_text(self, mixture: str, method: str, n_samples: int) -> str:
        grid = {"sigma": [self.sigma]}
        if method == "rwcad":
            grid["lambda"] = list(self.cfg["lambdas"])
        elif method == "softhad":
            grid.update(gamma_g=[self.gamma_g], c_l=[self.c_l], knn=[self.knn])
        lines = [f"method = {method}", f"dataset = {mixture}.cfg",
                 f"n_samples = {n_samples}", f"flip_fraction = {self.flip}",
                 f"n_runs = {self.cfg['n_runs']}", f"base_seed = {self.base_seed}"]
        lines += [f"grid.{k} = {json.dumps(v)}" for k, v in sorted(grid.items())]
        return "\n".join(lines) + "\n"

    def setup(self) -> None:
        configs = Path(G.__file__).parent / "configs"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.plans = []
        for mixture in self.mixtures:
            shutil.copyfile(configs / f"{mixture}.cfg", self.workdir / f"{mixture}.cfg")
            for method in self.methods:
                path = self.workdir / f"{mixture}-{method}.plan"
                path.write_text(self._plan_text(mixture, method, self.cfg["n_samples"]))
                self.plans.append((mixture, method, path, self.workdir / f"out-{mixture}-{method}"))
        for method in self.methods:
            warm = self.workdir / f"warmup-{method}.plan"
            warm.write_text(self._plan_text("d1", method, 60))
            self._run_plan(warm, self.workdir / f"out-warmup-{method}")

    def _run_plan(self, path: Path, outdir: Path) -> int:
        return cli.main(["--threads", str(RUN_PLAN_THREADS), "run-plan",
                         "--config", str(path), "--out-dir", str(outdir)])

    def unit(self) -> Unit:
        steps, cells, attempted, failed = [], {}, 0, 0
        start = time.perf_counter()
        for mixture, method, path, outdir in self.plans:
            t0 = time.perf_counter()
            try:
                self._run_plan(path, outdir)
            except Exception:
                attempted += 1
                failed += 1
                continue
            steps.append(time.perf_counter() - t0)
            for row in _summary_rows(outdir / "summary.csv"):
                attempted += 1
                failed += row["status"] != "ok"
                cells[_cell_key(mixture, method, row.get("lambda", ""), row["run"])] = row
        wall = time.perf_counter() - start
        aurocs = [float(r["auroc"]) for r in cells.values() if r["status"] == "ok"]
        quality = {"auroc_mean": float(np.mean(aurocs)) if aurocs else 0.0}
        return Unit(wall, steps, attempted, failed, quality, {"cells": cells})

    def check(self, unit: Unit) -> list[str]:
        errors = []
        cells = unit.outputs["cells"]
        n_cells = len(self.mixtures) * (len(self.cfg["lambdas"]) + 2) * self.cfg["n_runs"]
        if len(cells) != n_cells:
            errors.append(f"{len(cells)} plan cells reported, expected {n_cells}")
        specs = G.default_mixtures()
        for mixture in self.mixtures:
            for run in range(self.cfg["n_runs"]):
                seed = self.base_seed + run
                clean = G.gen_gauss_mixture(specs[mixture], self.cfg["n_samples"], seed)
                ps, mask = G.flip_labels(clean, self.flip, seed + 1_000_003)
                ref = reference.loo_scores(ps.points, ps.labels, self.sigma, self.cfg["lambdas"])
                ref[("softhad", None)] = reference.softhad_scores(
                    ps.points, ps.labels.astype(float), self.sigma, self.knn, self.gamma_g,
                    self.c_l)
                written = _written_scores(self.workdir, mixture, run)
                for (method, lam), scores in ref.items():
                    key = _cell_key(mixture, method, "" if lam is None else _fmt(lam), run)
                    row = cells.get(key)
                    if row is None or row["status"] != "ok":
                        errors.append(f"cell {key} missing or not ok")
                        continue
                    raw = written.get((method, lam))
                    if raw is None or not np.allclose(raw, scores, rtol=SCORE_RTOL,
                                                      atol=SCORE_ATOL):
                        errors.append(f"cell {key}: scores.csv differs from the reference")
                        continue
                    got, want = float(row["auroc"]), reference.auroc(raw, mask)
                    if abs(got - want) > AUROC_TOL:
                        errors.append(f"cell {key}: auroc {got!r} vs reference {want!r}")
        _compare_recorded(errors, _recorded(self.name, self.seed, self.size),
                          {k: float(r["auroc"]) for k, r in cells.items() if r["auroc"]},
                          RECORDED_AUROC_TOL)
        return errors

    def record(self, unit: Unit) -> dict:
        return {k: float(r["auroc"]) for k, r in sorted(unit.outputs["cells"].items())}


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _cell_key(mixture: str, method: str, lam: str, run) -> str:
    return f"{mixture}/{method}/{lam}/run{run}" if lam else f"{mixture}/{method}/run{run}"


def _summary_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return [r for r in csv.DictReader(f) if r["status"] != "aggregate"]


def _written_scores(workdir: Path, mixture: str, run: int) -> dict:
    """Raw scores of every cell of one mixture and run, keyed by
    (method, lambda), read back from the plan artifacts."""
    out = {}
    for metrics in workdir.glob(f"out-{mixture}-*/*/*/run{run}/metrics.json"):
        meta = json.loads(metrics.read_text())
        with open(metrics.with_name("scores.csv"), newline="") as f:
            raw = np.array([float(r["raw_score"]) for r in csv.DictReader(f)])
        lam = meta["params"].get("lambda") if meta["method"] == "rwcad" else None
        out[(meta["method"], lam)] = raw
    return out


# ---------------------------------------------------------------------------
class SslSweep:
    """Label propagation on the k-NN graph of each of several d1 sets: hard
    and soft harmonic solves over a gamma_g sweep for several label draws,
    a max-margin graph cut and the joint quantization per draw."""

    name = "ssl-sweep"
    sizes = {"full": dict(n=2000, sets=3, draws=2, joint_k=60, floor=ACCURACY_FLOOR),
             "tiny": dict(n=200, sets=1, draws=1, joint_k=8, floor=0.0)}
    sigma, knn, labeled_frac = 0.2, 10, 0.02
    gammas = (1e-8, 1e-6, 1e-4, 1e-2)
    c_l, c_u = 10.0, 0.1
    cut_gamma, cut_gamma_g, cut_epsilon, cut_rbf = 0.5, 1e-2, 0.5, 1.0

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.size = seed, size
        self.cfg = self.sizes[size]

    def _inputs(self, data_seed: int, n: int, draws: int):
        clean = G.gen_gauss_mixture(G.default_mixtures()["d1"], n, data_seed)
        rng = np.random.default_rng([data_seed, n])
        per_class = max(1, round(self.labeled_frac * n / 2))
        label_sets = []
        for _ in range(draws):
            labels = np.zeros(n, dtype=np.int64)
            for cls in (1, -1):
                idx = rng.choice(np.flatnonzero(clean.labels == cls), per_class, replace=False)
                labels[idx] = cls
            label_sets.append(labels)
        return clean.points, clean.labels, label_sets

    def setup(self) -> None:
        self.sets = [self._inputs(data_seed, self.cfg["n"], self.cfg["draws"])
                     for data_seed in _data_seeds(self.seed, self.cfg["sets"])]
        warm_points, _, warm_labels = self._inputs(self.seed, 120, 1)
        self._run(warm_points, warm_labels, joint_k=4)

    def _run(self, points, label_sets, joint_k):
        steps, out, failed = [], {"hard": {}, "soft": {}, "cuts": [], "joint": []}, 0

        def step(fn, *args, **kwargs):
            nonlocal failed
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed += 1
                return None
            steps.append(time.perf_counter() - t0)
            return result

        gcfg = G.GraphConfig(mode="knn", k_neighbors=self.knn, sigma=self.sigma)
        g = step(G.build_graph, G.PointSet(points, label_sets[0]), gcfg)
        attempted = 1 + len(label_sets) * (2 * len(self.gammas) + 2)
        if g is None:
            return steps, out, attempted, attempted, None
        kernel = G.KernelSpec("rbf", self.cut_rbf)
        for d, labels in enumerate(label_sets):
            unl = labels == 0
            for gamma in self.gammas:
                out["hard"][(d, gamma)] = step(G.hard_harmonic, g, labels, gamma)
                out["soft"][(d, gamma)] = step(G.soft_harmonic, g, labels,
                                               G.SoftConfig(gamma, self.c_l, self.c_u))

            def cut():
                clf = G.train_on_induced(points, g, labels, gamma=self.cut_gamma,
                                         gamma_g=self.cut_gamma_g, epsilon=self.cut_epsilon,
                                         kernel=kernel)
                return clf, np.sign(clf.decision_values(points[unl])).astype(np.int64)

            def joint():
                ps = G.PointSet(points, labels)
                state = G.elastic_joint(ps, G.JointConfig(k=joint_k, sigma=self.sigma), seed=d)
                return G.infer_unlabeled(ps, state)[1][unl]

            out["cuts"].append(step(cut))
            out["joint"].append(step(joint))
        return steps, out, attempted, failed, g

    def unit(self) -> Unit:
        start = time.perf_counter()
        steps, outs, attempted, failed = [], [], 0, 0
        for points, _, label_sets in self.sets:
            set_steps, out, set_attempted, set_failed, g = self._run(
                points, label_sets, self.cfg["joint_k"])
            out["graph"] = g
            steps += set_steps
            attempted += set_attempted
            failed += set_failed
            outs.append(out)
        wall = time.perf_counter() - start
        return Unit(wall, steps, attempted, failed, self._quality(outs), {"sets": outs})

    def _quality(self, outs) -> dict:
        accs = {}
        for k, ((_, true_all, label_sets), out) in enumerate(zip(self.sets, outs)):
            for d, labels in enumerate(label_sets):
                unl = labels == 0
                true = true_all[unl]
                for kind in ("hard", "soft"):
                    for gamma in self.gammas:
                        sol = out[kind].get((d, gamma))
                        if sol is not None:
                            accs[f"set{k}/{kind}/{gamma:g}/draw{d}"] = _accuracy(
                                np.sign(sol.values[unl]), true)
                if d < len(out["cuts"]) and out["cuts"][d] is not None:
                    accs[f"set{k}/cuts/draw{d}"] = _accuracy(out["cuts"][d][1], true)
                if d < len(out["joint"]) and out["joint"][d] is not None:
                    accs[f"set{k}/joint/draw{d}"] = _accuracy(out["joint"][d], true)
        return {"accuracy_mean": float(np.mean(list(accs.values()))) if accs else 0.0,
                "accuracies": accs}

    def check(self, unit: Unit) -> list[str]:
        errors = []
        worst = 0.0
        for k, (data, out) in enumerate(zip(self.sets, unit.outputs["sets"])):
            set_errors, set_worst = self._check_set(data, out)
            errors += [f"set {k}: {e}" for e in set_errors]
            worst = max(worst, set_worst)
        if worst > DEFAULT_TOL:
            errors.append(f"relative residual {worst:.3g} above the solve tolerance "
                          f"{DEFAULT_TOL:g}")
        unit.quality["residual_max"] = worst
        accs = unit.quality["accuracies"]
        for key, acc in accs.items():
            if key.split("/")[1] in ("cuts", "joint") and acc < self.cfg["floor"]:
                errors.append(f"{key} accuracy {acc:.3f} below {self.cfg['floor']}")
        _compare_recorded(errors, _recorded(self.name, self.seed, self.size), accs, ACCURACY_TOL)
        return errors

    def _check_set(self, data, out) -> tuple[list[str], float]:
        """Errors and the largest relative residual of one data set."""
        points, true, label_sets = data
        errors = []
        g = out["graph"]
        if g is None:
            return ["graph construction failed"], 0.0
        ref_w = reference.knn_weights(points, self.sigma, self.knn)
        diff = abs(g.weights - ref_w)
        if g.weights.nnz != ref_w.nnz or (diff.nnz and diff.max() > GRAPH_ATOL):
            errors.append("k-NN graph differs from the dense reference")
        lap = G.laplacian(g)
        worst = 0.0
        for d, labels in enumerate(label_sets):
            lab, unl = labels != 0, labels == 0
            u_idx, l_idx = np.flatnonzero(unl), np.flatnonzero(lab)
            for gamma in self.gammas:
                hard, soft = out["hard"].get((d, gamma)), out["soft"].get((d, gamma))
                if hard is None or soft is None:
                    errors.append(f"draw {d} gamma_g {gamma:g}: a solve raised")
                    continue
                # hard: (L_uu + gamma I) l_u = W_ul y_l, rebuilt from graph.laplacian
                a = lap[np.ix_(u_idx, u_idx)] + gamma * sp.identity(u_idx.size, format="csr")
                b = g.weights[np.ix_(u_idx, l_idx)] @ labels[l_idx].astype(float)
                worst = max(worst, _rel_residual(a, hard.values[u_idx], b))
                if np.any(hard.values[l_idx] != labels[l_idx]):
                    errors.append(f"draw {d} gamma_g {gamma:g}: labeled values not clamped")
                # soft: (L + gamma I + C) l = C y
                c = np.where(lab, self.c_l, self.c_u)
                a = lap + sp.diags(c + gamma)
                worst = max(worst, _rel_residual(a, soft.values, c * labels))
                for kind, sol, ref in (
                        ("hard", hard, reference.hard_solution(ref_w, labels, gamma)),
                        ("soft", soft, reference.soft_solution(ref_w, labels, gamma,
                                                               self.c_l, self.c_u))):
                    acc, want = (_accuracy(np.sign(v[unl]), true[unl])
                                 for v in (sol.values, ref))
                    if abs(acc - want) > ACCURACY_TOL:
                        errors.append(f"{kind} draw {d} gamma_g {gamma:g}: accuracy {acc} vs "
                                      f"{want} from a direct solve")
            ref_hard = reference.hard_solution(ref_w, labels, self.cut_gamma_g)
            want = np.abs(ref_hard) >= self.cut_epsilon
            cut = out["cuts"][d]
            if cut is None:
                errors.append(f"draw {d}: graph cut raised")
            else:
                got = np.zeros(len(labels), dtype=bool)
                got[cut[0].retained_indices] = True
                if np.mean(got != want) > RETAINED_TOL:
                    errors.append(f"draw {d}: retained set differs from the reference")
            if out["joint"][d] is None:
                errors.append(f"draw {d}: joint quantization raised")
        return errors, worst

    def record(self, unit: Unit) -> dict:
        return dict(sorted(unit.quality["accuracies"].items()))


def _rel_residual(a, x, b) -> float:
    b = np.asarray(b, dtype=np.float64).ravel()
    norm = float(np.linalg.norm(b))
    return float(np.linalg.norm(a @ x - b)) / norm if norm > 0 else 0.0


# ---------------------------------------------------------------------------
class OnlineStream:
    """``online.predict_online`` fed one point at a time from each of
    several d3 streams: the first 2% of points labeled, a centroid budget of
    100, and an opening pair placed close together so the radius has to
    grow."""

    name = "online-stream"
    sizes = {"full": dict(n=400, capacity=100, streams=3),
             "tiny": dict(n=120, capacity=20, streams=1)}
    sigma, gamma_g, growth, labeled_frac = 0.8, 0.01, 1.5, 0.02

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.size = seed, size
        self.cfg = self.sizes[size]
        self.graph_cfg = G.GraphConfig(mode="epsilon", sigma=self.sigma)

    def _inputs(self, data_seed: int, n: int):
        """Stream order as in test_10: the labeled points come first,
        alternating classes, and the second point sits next to the first."""
        clean = G.gen_gauss_mixture(G.default_mixtures()["d3"], n, data_seed)
        half = max(1, round(self.labeled_frac * n / 2))
        pos = np.flatnonzero(clean.labels == 1)[:half]
        neg = np.flatnonzero(clean.labels == -1)[:half]
        front = np.ravel(np.column_stack([pos, neg]))
        order = np.concatenate([front, np.setdiff1d(np.arange(n), front)])
        points, true = clean.points[order], clean.labels[order]
        points[1] = points[0] + np.array([0.05, 0.02])
        true[1] = true[0]
        labels = np.zeros(n, dtype=np.int64)
        labels[:front.size] = true[:front.size]
        return points, true, labels

    def setup(self) -> None:
        self.streams = [self._inputs(data_seed, self.cfg["n"])
                        for data_seed in _data_seeds(self.seed, self.cfg["streams"])]
        warm_points, _, warm_labels = self._inputs(self.seed, 60)
        self._stream(warm_points, warm_labels, 10)

    def _stream(self, points, labels, capacity):
        state = G.QuantizerState(capacity=capacity, growth=self.growth)
        preds = np.zeros(len(labels), dtype=np.int64)
        steps, failed, repartitions = [], 0, 0
        for t in range(len(labels)):
            t0 = time.perf_counter()
            try:
                step = G.predict_online(state, points[t], int(labels[t]), self.gamma_g,
                                        self.graph_cfg)
            except Exception:
                failed += 1
                continue
            steps.append(time.perf_counter() - t0)
            preds[t] = step.prediction
            repartitions += state.last_repartition is not None
        return state, preds, steps, failed, repartitions

    def unit(self) -> Unit:
        start = time.perf_counter()
        steps, outs, failed = [], [], 0
        for points, _, labels in self.streams:
            state, preds, stream_steps, stream_failed, repartitions = self._stream(
                points, labels, self.cfg["capacity"])
            steps += stream_steps
            failed += stream_failed
            outs.append({"predictions": preds, "label_conflicts": state.label_conflicts,
                         "centroids": state.size, "repartitions": repartitions})
        wall = time.perf_counter() - start
        preds = np.concatenate([out["predictions"] for out in outs])
        true = np.concatenate([t for _, t, _ in self.streams])
        unl = np.concatenate([labels == 0 for _, _, labels in self.streams])
        answered = unl & (preds != 0)
        quality = {"accuracy_mean": _accuracy(preds[answered], true[answered])
                   if answered.any() else 0.0,
                   "answered_frac": float(answered.sum() / unl.sum())}
        return Unit(wall, steps, len(preds), failed, quality, {"streams": outs})

    def check(self, unit: Unit) -> list[str]:
        errors = []
        for k, ((points, _, labels), out) in enumerate(zip(self.streams,
                                                           unit.outputs["streams"])):
            ref = reference.online_replay(points, labels, self.cfg["capacity"],
                                          self.growth, self.sigma, self.gamma_g)
            for key in ("repartitions", "label_conflicts", "centroids"):
                if out[key] != ref[key]:
                    errors.append(f"stream {k}: {key} {out[key]} vs reference {ref[key]}")
            unl = labels == 0
            differ = np.mean(out["predictions"][unl] != ref["predictions"][unl])
            if differ > PREDICTION_TOL:
                errors.append(f"stream {k}: {differ:.4f} of online predictions differ "
                              f"from the reference")
        _compare_recorded(errors, _recorded(self.name, self.seed, self.size),
                          self.record(unit), ACCURACY_TOL)
        return errors

    def record(self, unit: Unit) -> dict:
        recorded = {"accuracy_mean": unit.quality["accuracy_mean"]}
        for k, out in enumerate(unit.outputs["streams"]):
            recorded[f"stream{k}/label_conflicts"] = out["label_conflicts"]
            recorded[f"stream{k}/repartitions"] = out["repartitions"]
        return recorded


WORKLOADS = {w.name: w for w in (MixturePlan, SslSweep, OnlineStream)}
