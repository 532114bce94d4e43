import json
from pathlib import Path

import numpy as np
import pytest

from graphssl import (GraphConfig, InputError, PointSet, SoftConfig, TaskScaling, build_graph,
                      fit_cad_model, rwcad_scores, rwcad_scores_loo, scale_scores,
                      softhad_score, weighted_knn_scores, weighted_knn_scores_loo)
from graphssl.cli import main
from graphssl.datasets import load_dataset_spec
from graphssl.io import (read_points_csv, read_scores_csv, read_truth_csv,
                         write_points_csv, write_scores_csv)
from graphssl.plan import grid_hash, grid_points, plan_from_config, run_plan, score_method


def _write_mixture_cfg(path: Path) -> Path:
    cfg = path / "mix.cfg"
    cfg.write_text(
        "type = mixture\nprior_pos = 0.5\n"
        "pos.weights = [1.0]\npos.means = [[2.0, 2.0]]\n"
        "pos.covs = [[[1.0, 0.0], [0.0, 1.0]]]\n"
        "neg.weights = [1.0]\nneg.means = [[-2.0, -2.0]]\n"
        "neg.covs = [[[1.0, 0.0], [0.0, 1.0]]]\n")
    return cfg


def _ssl_input(path: Path, n=40) -> Path:
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.normal(0, 0.5, (n // 2, 2)), rng.normal(4, 0.5, (n // 2, 2))])
    labels = np.zeros(n, dtype=int)
    labels[0], labels[n // 2] = 1, -1
    out = path / "data.csv"
    write_points_csv(out, PointSet(pts, labels))
    return out


class TestGenData:
    def test_mixture_roundtrip_and_determinism(self, tmp_path):
        cfg = _write_mixture_cfg(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        truth1, truth2 = tmp_path / "ta.csv", tmp_path / "tb.csv"
        for out, truth in ((out1, truth1), (out2, truth2)):
            rc = main(["--seed", "3", "gen-data", "--config", str(cfg), "--n", "100",
                       "--flip", "0.03", "--out", str(out), "--truth", str(truth)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert truth1.read_bytes() == truth2.read_bytes()
        ps = read_points_csv(out1)
        assert ps.n == 100
        truth = read_truth_csv(truth1)
        assert truth["flipped"].sum() == 3
        flipped = truth["flipped"]
        assert np.array_equal(ps.labels[flipped], -truth["true_label"][flipped])

    def test_core_outputs(self, tmp_path):
        core_cfg = tmp_path / "core.cfg"
        core_cfg.write_text("type = core\n")
        rc = main(["gen-data", "--config", str(core_cfg),
                   "--out", str(tmp_path / "train.csv"),
                   "--out-test", str(tmp_path / "test.csv"),
                   "--truth", str(tmp_path / "truth.csv")])
        assert rc == 0
        train = read_points_csv(tmp_path / "train.csv")
        test = read_points_csv(tmp_path / "test.csv")
        truth = read_truth_csv(tmp_path / "truth.csv")
        assert train.n == 156 and test.n == 324
        assert truth["flipped"].sum() == 12


class TestBuildGraph:
    def test_edge_list_format(self, tmp_path):
        data = _ssl_input(tmp_path)
        out = tmp_path / "edges.txt"
        rc = main(["build-graph", "--input", str(data), "--graph", "knn:3",
                   "--sigma", "1.0", "--out", str(out)])
        assert rc == 0
        for line in out.read_text().splitlines():
            i, j, w = line.split(",")
            assert int(i) < int(j)
            assert 0.0 < float(w) <= 1.0


class TestSsl:
    def test_hard_mode_labels_clusters(self, tmp_path):
        data = _ssl_input(tmp_path)
        out = tmp_path / "labels.csv"
        rc = main(["ssl", "--input", str(data), "--mode", "hard",
                   "--gamma-g", "1e-9", "--graph", "knn:5", "--sigma", "auto",
                   "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "index,soft_label,predicted_sign"
        signs = np.array([int(r.split(",")[2]) for r in rows[1:]])
        assert np.all(signs[:20] == 1) and np.all(signs[20:] == -1)

    def test_soft_mode_runs(self, tmp_path):
        data = _ssl_input(tmp_path)
        out = tmp_path / "labels.csv"
        rc = main(["ssl", "--input", str(data), "--mode", "soft",
                   "--gamma-g", "0.01", "--c-l", "10", "--c-u", "0.1",
                   "--graph", "eps:0.0", "--sigma", "1.0", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 41


class TestOnlineSsl:
    def test_stream_predictions(self, tmp_path, capsys):
        data = _ssl_input(tmp_path)
        out = tmp_path / "preds.csv"
        rc = main(["online-ssl", "--input", str(data), "--k", "10",
                   "--m", "1.5", "--gamma-g", "0.01", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "t,assigned_centroid,prediction,abstained"
        assert len(rows) == 41
        dump = capsys.readouterr().out
        assert "radius=" in dump and "centroid,multiplicity,label" in dump


class TestJointSsl:
    def test_predictions_and_trace(self, tmp_path):
        data = _ssl_input(tmp_path)
        out = tmp_path / "preds.csv"
        trace = tmp_path / "trace.csv"
        rc = main(["--seed", "1", "joint-ssl", "--input", str(data), "--k", "6",
                   "--gamma-q", "100", "--sigma", "0.8",
                   "--out", str(out), "--trace", str(trace)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 41
        assert trace.read_text().startswith("iteration,objective")


class TestMmgc:
    def test_train_and_predict_roundtrip(self, tmp_path):
        data = _ssl_input(tmp_path)
        model = tmp_path / "model.txt"
        rc = main(["mmgc", "--train", str(data), "--gamma", "0.01",
                   "--gamma-g", "1e-6", "--epsilon", "1e-6", "--kernel", "rbf:1.5",
                   "--graph", "knn:5", "--out", str(model)])
        assert rc == 0
        preds = tmp_path / "preds.csv"
        rc = main(["mmgc-predict", "--model", str(model), "--input", str(data),
                   "--out", str(preds)])
        assert rc == 0
        rows = preds.read_text().strip().splitlines()[1:]
        signs = np.array([int(r.split(",")[2]) for r in rows])
        assert np.all(signs[:20] == 1) and np.all(signs[20:] == -1)


class TestCad:
    def _train_test(self, tmp_path):
        rng = np.random.default_rng(5)
        train_pts = np.vstack([rng.normal(0, 0.6, (30, 2)), rng.normal(3, 0.6, (30, 2))])
        train_labels = np.concatenate([np.ones(30, dtype=int), -np.ones(30, dtype=int)])
        test_pts = np.vstack([rng.normal(0, 0.6, (10, 2)), rng.normal(3, 0.6, (10, 2))])
        test_labels = np.concatenate([-np.ones(10, dtype=int), np.ones(10, dtype=int)])
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        write_points_csv(train, PointSet(train_pts, train_labels))
        write_points_csv(test, PointSet(test_pts, test_labels))
        return train, test

    @pytest.mark.parametrize("method", ["rwcad", "knn", "softhad"])
    def test_methods_flag_swapped_labels(self, tmp_path, method):
        train, test = self._train_test(tmp_path)
        out = tmp_path / f"{method}.csv"
        rc = main(["cad", "--train", str(train), "--test", str(test),
                   "--method", method, "--lambda", "0.01", "--gamma-g", "1.0",
                   "--c-l", "1.0", "--scale", "minmax", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "index,raw_score,scaled_score,rank"
        raw = read_scores_csv(out)
        # every test point carries the wrong label: scores should be high
        assert np.median(raw) > 0.5
        scaled = np.array([float(r.split(",")[2]) for r in rows[1:]])
        assert np.all((0 <= scaled) & (scaled <= 1))


    @staticmethod
    def _direct_scores(method, train, test, sigma):
        """(training, test) raw scores from the scorers called directly."""
        if method == "softhad":
            both = PointSet(np.vstack([train.points, test.points]),
                            np.concatenate([train.labels, test.labels]))
            g = build_graph(both, GraphConfig.parse("knn:10", sigma=sigma))
            scores = softhad_score(g, both.labels, SoftConfig(1.0, 1.0, 1.0))
            return scores[:train.n], scores[train.n:]
        model = fit_cad_model(train, 0.01, sigma)
        if method == "rwcad":
            return (rwcad_scores_loo(train, 0.01, sigma),
                    rwcad_scores(model, test.points, test.labels))
        return (weighted_knn_scores_loo(train, sigma),
                weighted_knn_scores(model, test.points, test.labels))

    @pytest.mark.parametrize("sigma", ["auto", "0.7"])
    @pytest.mark.parametrize("scale", ["none", "minmax"])
    @pytest.mark.parametrize("method", ["rwcad", "knn", "softhad"])
    def test_output_equals_direct_scorers(self, tmp_path, method, scale, sigma):
        train, test = self._train_test(tmp_path)
        out = tmp_path / "cad.csv"
        assert main(["cad", "--train", str(train), "--test", str(test), "--method", method,
                     "--scale", scale, "--sigma", sigma, "--out", str(out)]) == 0
        train_raw, raw = self._direct_scores(method, read_points_csv(train),
                                             read_points_csv(test),
                                             None if sigma == "auto" else 0.7)
        scaled = scale_scores(TaskScaling.fit(train_raw), raw) if scale == "minmax" else raw
        write_scores_csv(tmp_path / "want.csv", raw, scaled)
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()


    @pytest.mark.parametrize("method", ["rwcad", "knn", "softhad"])
    def test_negative_lambda_exits_2(self, tmp_path, capsys, method):
        train, test = self._train_test(tmp_path)
        assert main(["cad", "--train", str(train), "--test", str(test), "--method", method,
                     "--lambda", "-1", "--out", str(tmp_path / "cad.csv")]) == 2
        assert "lam must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "cad.csv").exists()

    @pytest.mark.parametrize("method", ["rwcad", "knn", "softhad"])
    def test_test_set_of_another_width_exits_2(self, tmp_path, capsys, method):
        train, _ = self._train_test(tmp_path)
        wide = tmp_path / "wide.csv"
        write_points_csv(wide, PointSet(np.random.default_rng(6).normal(size=(4, 3)),
                                        np.array([1, -1, 1, -1])))
        assert main(["cad", "--train", str(train), "--test", str(wide), "--method", method,
                     "--out", str(tmp_path / "cad.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "3 features" in err
        assert not (tmp_path / "cad.csv").exists()


class TestEval:
    def test_metrics_json(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("index,raw_score,scaled_score,rank\n"
                          "0,0.9,0.9,1\n1,0.8,0.8,2\n2,0.2,0.2,3\n3,0.1,0.1,4\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("index,true_label,flipped,true_anomaly_score\n"
                         "0,1,1,0.9\n1,1,1,0.8\n2,-1,0,0.1\n3,-1,0,0.2\n")
        out = tmp_path / "metrics.json"
        rc = main(["eval", "--scores", str(scores), "--truth", str(truth),
                   "--method", "demo", "--params", '{"lambda": 0.1}',
                   "--out", str(out)])
        assert rc == 0
        metrics = json.loads(out.read_text())
        assert metrics["auroc"] == 1.0
        assert metrics["n"] == 4
        assert metrics["method"] == "demo"
        assert metrics["params"] == {"lambda": 0.1}


class TestRunPlan:
    def _plan(self, tmp_path, grid_line="grid.lambda = [0.01, 1.0]", n_runs=2) -> Path:
        mix = _write_mixture_cfg(tmp_path)
        plan = tmp_path / "plan.cfg"
        plan.write_text(
            f"method = rwcad\ndataset = {mix.name}\nn_samples = 120\n"
            f"flip_fraction = 0.05\nn_runs = {n_runs}\nbase_seed = 7\n{grid_line}\n")
        return plan

    def test_layout_and_rerun_byte_identical(self, tmp_path):
        plan = self._plan(tmp_path)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["run-plan", "--config", str(plan), "--out-dir", str(out1)]) == 0
        assert main(["run-plan", "--config", str(plan), "--out-dir", str(out2)]) == 0
        s1 = (out1 / "summary.csv").read_bytes()
        s2 = (out2 / "summary.csv").read_bytes()
        assert s1 == s2
        cell_dirs = sorted(p for p in (out1 / "rwcad").glob("*/run*"))
        assert len(cell_dirs) == 4
        for cell in cell_dirs:
            assert (cell / "scores.csv").exists()
            metrics = json.loads((cell / "metrics.json").read_text())
            assert 0.0 <= metrics["auroc"] <= 1.0

    def test_single_run_aggregate_equals_run(self, tmp_path):
        mix = _write_mixture_cfg(tmp_path)
        plan = tmp_path / "plan.cfg"
        plan.write_text(f"method = knn\ndataset = {mix.name}\nn_samples = 100\n"
                        "n_runs = 1\nbase_seed = 1\ngrid.sigma = [0.5]\n")
        out = tmp_path / "out"
        assert main(["run-plan", "--config", str(plan), "--out-dir", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        run_row = lines[1].split(",")
        mean_row = lines[2].split(",")
        var_row = lines[3].split(",")
        assert run_row[-2] == mean_row[-2]
        assert float(var_row[-2]) == 0.0

    def test_shuffled_grid_same_rows_after_sorting(self, tmp_path):
        plan_a = self._plan(tmp_path, "grid.lambda = [0.01, 1.0]")
        out_a = tmp_path / "fwd"
        assert main(["run-plan", "--config", str(plan_a), "--out-dir", str(out_a)]) == 0
        plan_b = tmp_path / "plan_rev.cfg"
        plan_b.write_text(plan_a.read_text().replace("[0.01, 1.0]", "[1.0, 0.01]"))
        out_b = tmp_path / "rev"
        assert main(["run-plan", "--config", str(plan_b), "--out-dir", str(out_b)]) == 0
        rows_a = sorted((out_a / "summary.csv").read_text().strip().splitlines()[1:])
        rows_b = sorted((out_b / "summary.csv").read_text().strip().splitlines()[1:])
        assert rows_a == rows_b

    def test_threads_give_identical_summary(self, tmp_path):
        plan = self._plan(tmp_path)
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        assert main(["run-plan", "--config", str(plan), "--out-dir", str(out1)]) == 0
        assert main(["--threads", "4", "run-plan", "--config", str(plan),
                     "--out-dir", str(out2)]) == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def _tree(self, root: Path) -> dict:
        return {f.relative_to(root).as_posix(): f.read_bytes()
                for f in sorted(root.rglob("*")) if f.is_file()}

    def test_lambda_grid_trees_identical_across_threads(self, tmp_path):
        plan = self._plan(tmp_path, "grid.lambda = [1e-05, 0.01, 1.0, 100.0]\n"
                                    "grid.sigma = [0.6, 0.9]", n_runs=3)
        trees = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            run_plan(plan_from_config(plan, outdir=str(out)), threads=threads)
            trees.append(self._tree(out))
        assert len([k for k in trees[0] if k.endswith("scores.csv")]) == 4 * 2 * 3
        assert trees[0] == trees[1]

    def test_failed_group_marks_every_lambda_cell(self, tmp_path):
        plan = self._plan(tmp_path, "grid.lambda = [0.01, 1.0, 10.0]\ngrid.sigma = [-1.0]")
        out = tmp_path / "out"
        results = run_plan(plan_from_config(plan, outdir=str(out)))
        assert len(results) == 3 * 2
        assert all(r.status == "failed" and "sigma" in r.error for r in results)
        errors = sorted(out.glob("rwcad/*/run*/error.txt"))
        assert len(errors) == 3 * 2
        assert all("InputError" in e.read_text() for e in errors)
        assert not list(out.glob("rwcad/*/run*/scores.csv"))

    def test_invalid_lambda_fails_only_its_own_cell(self, tmp_path):
        plan = self._plan(tmp_path, "grid.lambda = [-1.0, 0.01, 1.0]")
        out = tmp_path / "out"
        results = run_plan(plan_from_config(plan, outdir=str(out)))
        assert [(r.params["lambda"], r.run, r.status) for r in results] == [
            (-1.0, 0, "failed"), (-1.0, 1, "failed"), (0.01, 0, "ok"), (0.01, 1, "ok"),
            (1.0, 0, "ok"), (1.0, 1, "ok")]
        assert len(list(out.glob("rwcad/*/run*/error.txt"))) == 2

    def test_nan_lambda_fails_only_its_own_cell(self, tmp_path):
        plan = self._plan(tmp_path, "grid.lambda = [NaN, 0.01, 1.0]")
        out = tmp_path / "out"
        results = run_plan(plan_from_config(plan, outdir=str(out)))
        assert [(r.run, r.status) for r in results] == [
            (0, "failed"), (1, "failed"), (0, "ok"), (1, "ok"), (0, "ok"), (1, "ok")]
        assert all(np.isnan(r.params["lambda"]) for r in results[:2])
        nan_cell = out / "rwcad" / grid_hash(results[0].params)
        assert sorted(f.relative_to(nan_cell).as_posix() for f in nan_cell.rglob("*.*")) == [
            "run0/error.txt", "run1/error.txt"]
        assert all("InputError" in e.read_text() for e in nan_cell.rglob("error.txt"))
        assert len(list(out.glob("rwcad/*/run*/error.txt"))) == 2

    def test_grouped_cells_match_cells_scored_alone(self, tmp_path):
        plan = plan_from_config(self._plan(tmp_path, "grid.lambda = [0.0, 0.01, 1.0]"),
                                outdir=str(tmp_path / "out"))
        run_plan(plan)
        spec = load_dataset_spec(plan.dataset)
        for params in grid_points(plan.grid):
            for run in range(plan.n_runs):
                alone, _ = score_method("rwcad", params, spec, plan.base_seed + run,
                                        plan.n_samples, plan.flip_fraction)
                cell = tmp_path / "out" / "rwcad" / grid_hash(params) / f"run{run}"
                assert np.array_equal(read_scores_csv(cell / "scores.csv"), alone)


    @pytest.mark.parametrize("dataset", ["mixture", "core"])
    def test_negative_lambda_fails_knn_cell(self, tmp_path, dataset):
        # knn ignores lambda, but a malformed lambda fails its cell whether
        # or not the data set has a test split
        if dataset == "core":
            cfg = tmp_path / "core.cfg"
            cfg.write_text("type = core\n")
        else:
            cfg = _write_mixture_cfg(tmp_path)
        path = tmp_path / "plan.cfg"
        path.write_text(f"method = knn\ndataset = {cfg.name}\nn_samples = 80\n"
                        "n_runs = 1\nbase_seed = 3\ngrid.lambda = [-1.0, 0.01]\n")
        results = run_plan(plan_from_config(path, outdir=str(tmp_path / "out")))
        assert [(r.params["lambda"], r.status) for r in results] == [
            (-1.0, "failed"), (0.01, "ok")]
        error = tmp_path / "out" / "knn" / grid_hash(results[0].params) / "run0" / "error.txt"
        assert "InputError" in error.read_text() and "lam must be >= 0" in error.read_text()

    def test_non_integer_knn_fails_only_its_own_cell(self, tmp_path):
        mix = _write_mixture_cfg(tmp_path)

        def softhad_plan(name, knn):
            path = tmp_path / name
            path.write_text(f"method = softhad\ndataset = {mix.name}\nn_samples = 80\n"
                            f"n_runs = 1\nbase_seed = 100\ngrid.sigma = [0.5]\n"
                            f"grid.knn = {knn}\n")
            return plan_from_config(path, outdir=str(tmp_path / name.split(".")[0]))

        results = run_plan(softhad_plan("mixed.cfg", "[10, 10.0, 10.7]"))
        assert [(r.params["knn"], r.status) for r in results] == [
            (10, "ok"), (10.0, "failed"), (10.7, "failed")]
        for res in results[1:]:
            error = tmp_path / "mixed" / "softhad" / grid_hash(res.params) / "run0" / "error.txt"
            assert "InputError" in error.read_text()
        run_plan(softhad_plan("alone.cfg", "[10]"))
        cell = Path("softhad") / grid_hash(results[0].params) / "run0"
        for name in ("scores.csv", "metrics.json"):
            assert ((tmp_path / "mixed" / cell / name).read_bytes()
                    == (tmp_path / "alone" / cell / name).read_bytes())


@pytest.mark.parametrize("key,value", [("n_samples", "abc"), ("n_runs", "1.5"),
                                       ("base_seed", "2.5"), ("n_samples", "1e3")])
def test_plan_counts_must_be_integers(tmp_path, key, value):
    mix = _write_mixture_cfg(tmp_path)
    path = tmp_path / "plan.cfg"
    path.write_text(f"method = knn\ndataset = {mix.name}\n{key} = {value}\n")
    with pytest.raises(InputError, match=f"{key} must be an integer"):
        plan_from_config(path)


def _malformed_points(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1,label\n0,0,1\n1,1,-1\n2,{cell}\n")
    return path


def _bad_plan(tmp_path, line):
    mix = _write_mixture_cfg(tmp_path)
    path = tmp_path / "bad.plan"
    path.write_text(f"method = knn\ndataset = {mix.name}\n{line}\n")
    return path


@pytest.mark.parametrize("case", ["label", "cell", "kernel", "params", "n_samples", "n_runs",
                                  "sigma"])
def test_malformed_input_exits_2(tmp_path, capsys, case):
    data = _ssl_input(tmp_path)
    out = str(tmp_path / "out")
    scores, truth = tmp_path / "scores.csv", tmp_path / "truth.csv"
    write_scores_csv(scores, np.array([0.1, 0.9]), np.array([0.0, 1.0]))
    truth.write_text("index,true_label,flipped,true_anomaly_score\n0,1,0,0.2\n1,-1,1,0.8\n")
    argv = {
        "label": lambda: ["ssl", "--input", str(_malformed_points(tmp_path, "2,1.7")),
                          "--out", out],
        "cell": lambda: ["ssl", "--input", str(_malformed_points(tmp_path, "x,0")),
                         "--out", out],
        "kernel": lambda: ["mmgc", "--train", str(data), "--gamma", "0.1",
                           "--kernel", "rbf:abc", "--out", out],
        "params": lambda: ["eval", "--scores", str(scores), "--truth", str(truth),
                           "--params", "{bad", "--out", out],
        "n_samples": lambda: ["run-plan", "--config",
                              str(_bad_plan(tmp_path, "n_samples = abc"))],
        "n_runs": lambda: ["run-plan", "--config", str(_bad_plan(tmp_path, "n_runs = 1.5"))],
        "sigma": lambda: ["ssl", "--input", str(data), "--sigma", "abc", "--out", out],
    }[case]()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    want = {"label": "bad.csv, line 4: label '1.7'", "cell": "bad.csv, line 4: expected 3",
            "kernel": "rbf:abc", "params": "--params", "n_samples": "n_samples must be",
            "n_runs": "n_runs must be", "sigma": "--sigma"}[case]
    assert want in err


def test_global_config_supplies_defaults(tmp_path):
    data = _ssl_input(tmp_path)
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("gamma_g = 0.5\ngraph = knn:3\n")
    out_with, out_plain = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--config", str(cfg), "ssl", "--input", str(data),
                 "--mode", "hard", "--out", str(out_with)]) == 0
    assert main(["ssl", "--input", str(data), "--mode", "hard",
                 "--gamma-g", "0.5", "--graph", "knn:3",
                 "--out", str(out_plain)]) == 0
    assert out_with.read_bytes() == out_plain.read_bytes()


def test_unknown_input_path_reports_error(tmp_path, capsys):
    rc = main(["build-graph", "--input", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "e.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_label_free_component_reports_error(tmp_path, capsys):
    # knn:1 splits three far-apart pairs into components; the last pair has
    # no label, so the hard system at gamma_g = 0 is singular
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0],
                    [20.0, 0.0], [20.1, 0.0]])
    data = tmp_path / "data.csv"
    write_points_csv(data, PointSet(pts, np.array([1, 0, -1, 0, 0, 0])))
    rc = main(["ssl", "--input", str(data), "--mode", "hard", "--gamma-g", "0",
               "--graph", "knn:1", "--sigma", "1", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "label-free component" in err


def test_online_negative_gamma_reports_error(tmp_path, capsys):
    rc = main(["online-ssl", "--input", str(_ssl_input(tmp_path)), "--k", "8",
               "--gamma-g", "-1", "--sigma", "1", "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "gamma_g" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--graph", "knn:abc"], ["--graph", "knn:2.5"],
                                   ["--graph", "eps:nan"], ["--sigma", "inf"],
                                   ["--sigma", "1e-5"]])
def test_bad_graph_settings_report_error(tmp_path, capsys, flags):
    # the last case is valid syntax, but every weight underflows to 0
    rc = main(["build-graph", "--input", str(_ssl_input(tmp_path)), "--graph", "knn:3",
               "--sigma", "1.0", *flags, "--out", str(tmp_path / "e.txt")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
