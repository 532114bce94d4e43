import inspect
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphssl import (GraphConfig, InputError, JointConfig, KernelSpec, PointSet,
                      QuantizerState, SoftConfig, build_graph, cad_scores, fit_cad_model,
                      rwcad_scores, rwcad_scores_loo, scale_scores, softhad_score,
                      weighted_knn_scores, weighted_knn_scores_loo)
from graphssl import cad as cad_module
from graphssl import cli
from graphssl import graph as graph_module
from graphssl.cli import build_parser, main
from graphssl.datasets import default_mixtures, flip_labels, gen_gauss_mixture, load_dataset_spec
from graphssl.io import (fmt17, read_cut_model, read_points_csv, read_scores_csv,
                         read_truth_csv, write_cut_model, write_points_csv, write_scores_csv)
from graphssl.metrics import auroc
from graphssl.plan import (_fmt_param, grid_hash, grid_points, plan_from_config, run_plan,
                           score_method)


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


@pytest.mark.parametrize("argv, match", [
    (["ssl", "--mode", "soft", "--c-l", "1e154", "--c-u", "1e154"], "right-hand side"),
    (["ssl", "--mode", "soft", "--c-l", "1e308", "--c-u", "1e308"], "right-hand side"),
    (["ssl", "--mode", "soft", "--c-l", "inf"], "c_l must be finite"),
    (["cad", "--method", "softhad", "--c-l", "1e154"], "right-hand side"),
    (["joint-ssl", "--k", "6", "--f-l", "1e308"], "right-hand side")])
def test_fit_weights_past_the_float_range_exit_2(tmp_path, capsys, argv, match):
    # the solve's ||b||^2 overflows: any solution passed the residual test,
    # with numpy's overflow warning on stderr
    data = _ssl_input(tmp_path)
    inputs = ["--input", str(data)]
    if argv[0] == "cad":        # softhad scores rows labeled +-1 only
        ps = read_points_csv(data)
        write_points_csv(data, PointSet(ps.points, np.where(np.arange(ps.n) < ps.n // 2, 1, -1)))
        inputs = ["--train", str(data), "--test", str(data)]
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, *inputs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err and not out.exists()


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

    def test_model_file_keeps_only_nonzero_coefficients(self, tmp_path):
        data = _ssl_input(tmp_path)
        model = tmp_path / "model.txt"
        assert main(["mmgc", "--train", str(data), "--gamma", "0.01", "--gamma-g", "1e-6",
                     "--epsilon", "1e-6", "--kernel", "rbf:1.5", "--graph", "knn:5",
                     "--out", str(model)]) == 0
        fields = dict(line.split("=", 1) for line in model.read_text().splitlines()
                      if "=" in line)
        s, _ = (int(v) for v in fields["support"].split(","))
        coef = [float(v) for v in fields["coef"].split(",")]
        assert len(coef) == s < len(fields["retained"].split(",")) == 40
        assert 0.0 not in coef

    @pytest.mark.parametrize("kernel", ["linear", "cubic", "rbf:1.5"])
    def test_old_and_new_model_files_predict_alike(self, tmp_path, kernel):
        # files written before support points were cut to the nonzero
        # coefficients list every retained point, zero coefficients included
        data = _ssl_input(tmp_path)
        head = f"kernel={kernel}\nbias=0.25\nretained=0,7,20\n"
        models = {"old": head + "coef=0.5,0,-0.75\nsupport=3,2\n0,0\n1,2\n4,4\n",
                  "new": head + "coef=0.5,-0.75\nsupport=2,2\n0,0\n4,4\n"}
        values = {}
        for name, text in models.items():
            model, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.csv"
            model.write_text(text)
            assert main(["mmgc-predict", "--model", str(model), "--input", str(data),
                         "--out", str(out)]) == 0
            rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
            values[name] = np.array([float(r[1]) for r in rows])
        assert np.array_equal(np.sign(values["old"]), np.sign(values["new"]))
        assert np.allclose(values["new"], values["old"], rtol=1e-12, atol=0.0)

    def test_model_without_support_rows_predicts_its_bias(self, tmp_path):
        data = _ssl_input(tmp_path)
        model, out = tmp_path / "model.txt", tmp_path / "preds.csv"
        model.write_text("kernel=rbf:1\nbias=-0.5\nretained=3,9\ncoef=\nsupport=0,2\n")
        assert main(["mmgc-predict", "--model", str(model), "--input", str(data),
                     "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 40 and all(r[1:] == ["-0.5", "-1"] for r in rows)
        clf = read_cut_model(str(model))
        again = tmp_path / "again.txt"
        write_cut_model(str(again), clf)
        assert again.read_text() == model.read_text()


    def test_cubic_kernel_converges(self, tmp_path):
        # the maximal-violating-pair trainer ran out of steps on this set at
        # a relative gap of 0.03
        clean = gen_gauss_mixture(default_mixtures()["d1"], 150, 0)
        train, _ = flip_labels(clean, 0.05, 1_000_003)
        labels = np.where(np.arange(150) % 15 == 0, train.labels, 0)
        data, model = tmp_path / "ssl.csv", tmp_path / "model.txt"
        write_points_csv(data, PointSet(train.points, labels))
        rc = main(["mmgc", "--train", str(data), "--gamma", "0.5", "--kernel", "cubic",
                   "--out", str(model)])
        assert rc == 0 and model.exists()


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
        scaled = scale_scores(train_raw, raw) if scale == "minmax" else raw
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

    def test_truth_col_true_label_scores_the_plus_one_class(self, tmp_path, capsys):
        data, truth, scores = (tmp_path / name for name in ("d.csv", "t.csv", "s.csv"))
        assert main(["gen-data", "--config", str(_write_mixture_cfg(tmp_path)), "--n", "60",
                     "--flip", "0.1", "--out", str(data), "--truth", str(truth)]) == 0
        assert main(["cad", "--train", str(data), "--test", str(data), "--method", "knn",
                     "--out", str(scores)]) == 0
        raw, columns = read_scores_csv(scores), read_truth_csv(truth)
        for col, mask in (("flipped", columns["flipped"]),
                          ("true_label", columns["true_label"] == 1)):
            out = tmp_path / f"{col}.json"
            assert main(["eval", "--scores", str(scores), "--truth", str(truth),
                         "--truth-col", col, "--out", str(out)]) == 0
            assert json.loads(out.read_text())["auroc"] == auroc(raw, mask)
        assert 0 < auroc(raw, columns["true_label"] == 1) < 1


def _regrouping_summary(path, plan, points, results):
    """plan._write_summary as it grouped the results by grid hash and
    sorted each group by run."""
    keys = sorted(plan.grid)
    lines = ["method," + ",".join(keys) + ",run,seed,status,auroc,n"]
    by_point = {}
    for res in results:
        by_point.setdefault(grid_hash(res.params), []).append(res)
    for params in points:
        group = sorted(by_point.get(grid_hash(params), []), key=lambda r: r.run)
        prefix = plan.method + "," + ",".join(_fmt_param(params[k]) for k in keys)
        for res in group:
            value = fmt17(res.auroc) if res.auroc is not None else ""
            lines.append(f"{prefix},{res.run},{res.seed},{res.status},{value},{res.n}")
        oks = [r.auroc for r in group if r.status == "ok"]
        mean = fmt17(float(np.mean(oks))) if oks else ""
        var = float(np.var(oks, ddof=1)) if len(oks) > 1 else 0.0
        lines.append(f"{prefix},mean,,aggregate,{mean},{len(oks)}")
        lines.append(f"{prefix},variance,,aggregate,{fmt17(var)},{len(oks)}")
    path.write_text("\n".join(lines) + "\n")


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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_summary_matches_regrouping_writer(self, tmp_path, threads):
        # lambda -1 fails its cells in the middle of the grid
        plan = plan_from_config(self._plan(tmp_path, "grid.lambda = [0.01, -1.0, 1.0]\n"
                                                     "grid.sigma = [0.6, 0.9]", n_runs=3),
                                outdir=str(tmp_path / "out"))
        results = run_plan(plan, threads=threads)
        assert [r.status for r in results] == (["ok"] * 6 + ["failed"] * 6 + ["ok"] * 6)
        want = tmp_path / "want.csv"
        _regrouping_summary(want, plan, grid_points(plan.grid), results[::-1])
        assert (tmp_path / "out" / "summary.csv").read_bytes() == want.read_bytes()

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

    def test_non_numeric_lambda_fails_only_its_own_cell(self, tmp_path):
        # a lambda that is no number is not grouped with the valid ones
        plan = self._plan(tmp_path, 'grid.lambda = ["abc", 0.01, 1.0]')
        out = tmp_path / "out"
        results = run_plan(plan_from_config(plan, outdir=str(out)))
        assert [(r.params["lambda"], r.status) for r in results] == [
            ("abc", "failed"), ("abc", "failed"), (0.01, "ok"), (0.01, "ok"),
            (1.0, "ok"), (1.0, "ok")]
        bad_cell = out / "rwcad" / grid_hash(results[0].params)
        assert sorted(f.relative_to(bad_cell).as_posix() for f in bad_cell.rglob("*.*")) == [
            "run0/error.txt", "run1/error.txt"]
        assert len(list(out.glob("rwcad/*/run*/scores.csv"))) == 4

    def test_cell_failing_its_auroc_writes_only_error_txt(self, tmp_path, capsys):
        # no flips: the truth has one class, so every cell's AUROC raises
        plan = self._plan(tmp_path)
        plan.write_text(plan.read_text().replace("flip_fraction = 0.05", "flip_fraction = 0"))
        out = tmp_path / "out"
        assert main(["run-plan", "--config", str(plan), "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert "cells=4 failed=4" in captured.out
        assert captured.err.startswith(f"error: every cell of {plan} failed: ")
        cells = sorted(out.glob("rwcad/*/run*"))
        assert len(cells) == 4
        assert all(sorted(f.name for f in cell.iterdir()) == ["error.txt"] for cell in cells)
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["failed", "failed",
                                                       "aggregate", "aggregate"] * 2
        # no AUROC and no mean without an ok run: the summary holds no NaN
        assert [row.split(",")[5] for row in rows] == ["", "", "", "0"] * 2

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


@pytest.mark.parametrize("lines, match", [("method = ranked\ndataset = {mix}", "method must be"),
                                          ("method = knn", "needs a 'dataset' key"),
                                          ("method = knn\ndataset = 5",
                                           "plan.cfg: dataset must be a path, got 5"),
                                          ("method = knn\ndataset = {mix}\n"
                                           "flip_fraction = 1.5",
                                           r"plan.cfg: flip_fraction must be in \[0, 1\], "
                                           "got 1.5")])
def test_plan_config_rejections(tmp_path, lines, match):
    mix = _write_mixture_cfg(tmp_path)
    path = tmp_path / "plan.cfg"
    path.write_text(lines.format(mix=mix.name) + "\n")
    with pytest.raises(InputError, match=match):
        plan_from_config(path)


def test_plan_without_a_grid_is_one_cell_with_no_settings(tmp_path):
    mix = _write_mixture_cfg(tmp_path)
    (tmp_path / "plan.cfg").write_text(f"method = knn\ndataset = {mix.name}\n"
                                       "n_samples = 60\nn_runs = 2\n")
    plan = plan_from_config(tmp_path / "plan.cfg", outdir=str(tmp_path / "out"))
    assert plan.grid == {} and grid_points(plan.grid) == [{}]
    run_plan(plan)
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,run,seed,status,auroc,n"
    assert [line.split(",")[:4] for line in summary[1:]] == [
        ["knn", "0", "0", "ok"], ["knn", "1", "1", "ok"],
        ["knn", "mean", "", "aggregate"], ["knn", "variance", "", "aggregate"]]
    for run in (0, 1):
        metrics = json.loads((tmp_path / "out" / "knn" / grid_hash({}) / f"run{run}"
                              / "metrics.json").read_text())
        assert metrics["params"] == {} and metrics["seed"] == run


def _malformed_points(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1,label\n0,0,1\n1,1,-1\n2,{cell}\n")
    return path


def _bad_plan(tmp_path, line):
    mix = _write_mixture_cfg(tmp_path)
    path = tmp_path / "bad.plan"
    path.write_text(f"method = knn\ndataset = {mix.name}\n{line}\n")
    return path


def _bad_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


_MIXTURE_WITHOUT_POS_MEANS = ("type = mixture\npos.weights = [1.0]\n"
                              "pos.covs = [[[1.0]]]\nneg.weights = [1.0]\n"
                              "neg.means = [[0.0]]\nneg.covs = [[[1.0]]]\n")


@pytest.mark.parametrize("case", ["label", "cell", "kernel", "params", "n_samples", "n_runs",
                                  "sigma", "truth_header", "raw_score", "model_fields",
                                  "support_rows", "pos_means", "count", "flip_fraction",
                                  "model_width", "negative_count", "rbf_width",
                                  "model_coef", "sigma_underflow", "duplicate_grid",
                                  "negative_n", "negative_n_samples", "negative_threads",
                                  "infinite_growth", "core_n", "core_flip", "nan_score",
                                  "global_config", "config_mode", "config_scale",
                                  "config_truth_col", "config_n", "config_graph",
                                  "infinite_gamma", "infinite_gamma_q", "nan_epsilon",
                                  "kernel_prefix", "no_out_test", "model_number",
                                  "model_negative_width", "eps_budget", "plan_key",
                                  "grid_name", "empty_grid", "mixture_key", "core_key",
                                  "kernel_overflow", "core_square", "plan_dataset",
                                  "flip_range", "cad_label", "truth_vocabulary"])
def test_malformed_input_exits_2(tmp_path, capsys, monkeypatch, case):
    data = _ssl_input(tmp_path)
    out = str(tmp_path / "out")
    scores, truth = tmp_path / "scores.csv", tmp_path / "truth.csv"
    write_scores_csv(scores, np.array([0.1, 0.9]), np.array([0.0, 1.0]))
    truth.write_text("index,true_label,flipped,true_anomaly_score\n0,1,0,0.2\n1,-1,1,0.8\n")
    model = "kernel=linear\nbias=0.1\nretained=0,1\ncoef=1,-1\nsupport=2,2\n0,0\n"
    model_3d = "kernel=rbf:1\nbias=0.1\nretained=0\ncoef=1\nsupport=1,3\n0,0,0\n"

    def config(line):
        return ["--config", _bad_file(tmp_path, "g.cfg", line + "\n")]
    if case == "eps_budget":        # eps:0 on the 40 points keeps 1 560 entries
        monkeypatch.setattr(graph_module, "_EPS_MAX_ENTRIES", 100)
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
        "truth_header": lambda: ["eval", "--scores", str(scores), "--truth",
                                 _bad_file(tmp_path, "t.csv", "f0,label\n0.2,1\n0.8,-1\n"),
                                 "--out", out],
        "raw_score": lambda: ["eval", "--truth", str(truth), "--scores",
                              _bad_file(tmp_path, "s.csv", "index,raw_score,scaled_score,rank\n"
                                                           "0,abc,0,1\n1,0.9,1,2\n"),
                              "--out", out],
        "model_fields": lambda: ["mmgc-predict", "--input", str(data), "--out", out, "--model",
                                 _bad_file(tmp_path, "m.txt", "kernel=linear\nbias=0.1\n")],
        "support_rows": lambda: ["mmgc-predict", "--input", str(data), "--out", out,
                                 "--model", _bad_file(tmp_path, "m.txt", model)],
        "pos_means": lambda: ["gen-data", "--out", out, "--config",
                              _bad_file(tmp_path, "mix.cfg", _MIXTURE_WITHOUT_POS_MEANS)],
        "count": lambda: ["gen-data", "--out", out, "--out-test", out + "-test", "--config",
                          _bad_file(tmp_path, "core.cfg", "type = core\nbig_count = abc\n")],
        "flip_fraction": lambda: ["run-plan", "--config",
                                  str(_bad_plan(tmp_path, "flip_fraction = abc"))],
        "model_width": lambda: ["mmgc-predict", "--input", str(data), "--out", out,
                                "--model", _bad_file(tmp_path, "m.txt", model_3d)],
        "negative_count": lambda: ["gen-data", "--out", out, "--out-test", out + "-test",
                                   "--config", _bad_file(tmp_path, "core.cfg",
                                                         "type = core\nbig_count = -5\n")],
        "rbf_width": lambda: ["mmgc", "--train", str(data), "--gamma", "0.1",
                              "--kernel", "rbf:1e-200", "--out", out],
        "model_coef": lambda: ["mmgc-predict", "--input", str(data), "--out", out, "--model",
                               _bad_file(tmp_path, "m.txt", model.replace("coef=1,-1",
                                                                          "coef=nan,-1")
                                         + "1,1\n")],
        "sigma_underflow": lambda: ["ssl", "--input", str(data), "--sigma", "1e-200",
                                    "--out", out],
        "duplicate_grid": lambda: ["run-plan", "--config", str(_bad_plan(
            tmp_path, "n_runs = 2\ngrid.lambda = [0.1, 0.1]"))],
        "negative_n": lambda: ["gen-data", "--n", "-5", "--out", out, "--config",
                               str(_write_mixture_cfg(tmp_path))],
        "negative_n_samples": lambda: ["run-plan", "--config",
                                       str(_bad_plan(tmp_path, "n_samples = -5"))],
        "negative_threads": lambda: ["--threads", "-3", "run-plan", "--config",
                                     str(_bad_plan(tmp_path, "n_samples = 40"))],
        "infinite_growth": lambda: ["online-ssl", "--input", str(data), "--k", "5",
                                    "--m", "inf", "--out", out],
        "core_n": lambda: ["gen-data", "--n", "-5", "--flip", "7", "--out", out,
                           "--out-test", out + "-test", "--config",
                           _bad_file(tmp_path, "core.cfg", "type = core\n")],
        "core_flip": lambda: ["gen-data", "--flip", "7", "--out", out, "--out-test",
                              out + "-test", "--config",
                              _bad_file(tmp_path, "core.cfg", "type = core\n")],
        "nan_score": lambda: ["eval", "--truth", str(truth), "--scores",
                              _bad_file(tmp_path, "s.csv", "index,raw_score,scaled_score,rank\n"
                                                           "0,nan,0,1\n1,0.9,1,2\n"),
                              "--out", out],
        "global_config": lambda: ["--config", str(tmp_path / "missing.cfg"), "eval",
                                  "--scores", str(scores), "--truth", str(truth),
                                  "--out", out],
        "config_mode": lambda: [*config("mode = hadr"), "ssl", "--input", str(data),
                                "--out", out],
        "config_scale": lambda: [*config("scale = minmx"), "cad", "--train", str(data),
                                 "--test", str(data), "--out", out],
        "config_truth_col": lambda: [*config("truth_col = label"), "eval", "--scores",
                                     str(scores), "--truth", str(truth), "--out", out],
        "config_n": lambda: [*config("n = 50.5"), "gen-data", "--out", out, "--config",
                             str(_write_mixture_cfg(tmp_path))],
        "config_graph": lambda: [*config("graph = 5"), "ssl", "--input", str(data),
                                 "--out", out],
        "infinite_gamma": lambda: ["mmgc", "--train", str(data), "--gamma", "inf",
                                   "--out", out],
        "infinite_gamma_q": lambda: ["joint-ssl", "--input", str(data), "--k", "3",
                                     "--gamma-q", "inf", "--out", out],
        "nan_epsilon": lambda: ["mmgc", "--train", str(data), "--gamma", "0.1",
                                "--epsilon", "nan", "--out", out],
        "kernel_prefix": lambda: ["mmgc", "--train", str(data), "--gamma", "0.1",
                                  "--kernel", "rbfoo", "--out", out],
        "no_out_test": lambda: ["gen-data", "--out", out, "--truth", out + "-truth",
                                "--config", _bad_file(tmp_path, "core.cfg", "type = core\n")],
        "model_number": lambda: ["mmgc-predict", "--input", str(data), "--out", out, "--model",
                                 _bad_file(tmp_path, "m.txt", model.replace("bias=0.1",
                                                                            "bias=abc"))],
        "model_negative_width": lambda: [
            "mmgc-predict", "--input", str(data), "--out", out, "--model",
            _bad_file(tmp_path, "m.txt", "kernel=linear\nbias=0.1\nretained=\ncoef=\n"
                                         "support=0,-3\n")],
        "eps_budget": lambda: ["build-graph", "--input", str(data), "--graph", "eps",
                               "--sigma", "1", "--out", out],
        "plan_key": lambda: ["run-plan", "--out-dir", out, "--config",
                             str(_bad_plan(tmp_path, "n_sampels = 40"))],
        "grid_name": lambda: ["run-plan", "--out-dir", out, "--config",
                              str(_bad_plan(tmp_path, "grid.lamda = [0.001, 100.0]"))],
        "empty_grid": lambda: ["run-plan", "--out-dir", out, "--config",
                               str(_bad_plan(tmp_path, "grid.sigma = []"))],
        "mixture_key": lambda: ["gen-data", "--out", out, "--config", _bad_file(
            tmp_path, "prior.cfg", _write_mixture_cfg(tmp_path).read_text() + "prior_ps = 0.9\n")],
        "core_key": lambda: ["gen-data", "--out", out, "--out-test", out + "-test", "--config",
                             _bad_file(tmp_path, "core.cfg", "type = core\nbig_cnt = 5\n")],
        "kernel_overflow": lambda: ["mmgc", "--train", _bad_file(
            tmp_path, "far.csv", "f0,label\n-1e154,-1\n1e154,1\n0,0\n"), "--gamma", "0.1",
            "--graph", "knn:1", "--sigma", "1e154", "--out", out],
        "core_square": lambda: ["gen-data", "--out", out, "--out-test", out + "-test", "--config",
                                _bad_file(tmp_path, "short.cfg", "type = core\nbig = [0, 10]\n")],
        "plan_dataset": lambda: ["run-plan", "--out-dir", out, "--config",
                                 _bad_file(tmp_path, "d5.plan", "method = knn\ndataset = 5\n")],
        "flip_range": lambda: ["run-plan", "--out-dir", out, "--config",
                               str(_bad_plan(tmp_path, "flip_fraction = 1.5"))],
        "cad_label": lambda: ["cad", "--method", "knn", "--out", out, "--train",
                              _bad_file(tmp_path, "train.csv", "f0,label\n0,1\n1,-1\n2,1\n"),
                              "--test", _bad_file(tmp_path, "test.csv", "f0,label\n0,1\n1,0\n")],
        "truth_vocabulary": lambda: ["eval", "--scores", str(scores), "--out", out, "--truth",
                                     _bad_file(tmp_path, "t.csv", truth.read_text().replace(
                                         "1,-1,1,0.8", "1,-1,2,0.8"))],
    }[case]()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    want = {"label": "bad.csv, line 4: label '1.7'", "cell": "bad.csv, line 4: expected 3",
            "kernel": "rbf:abc", "params": "--params", "n_samples": "n_samples must be",
            "n_runs": "n_runs must be", "sigma": "--sigma",
            "truth_header": "t.csv: no column 'true_label', 'flipped'",
            "raw_score": "s.csv, line 2: expected 4 numbers",
            "model_fields": "m.txt: model file lacks retained, coef, support",
            "support_rows": "m.txt: model file needs 2 support rows",
            "pos_means": "'pos.means'", "count": "'big_count' must be an integer",
            "flip_fraction": "flip_fraction must be a number",
            "model_width": "points have 2 features, the model's support points 3",
            "negative_count": "big_count must be >= 0", "rbf_width": "rbf width 1e-200",
            "model_coef": "m.txt: non-finite number", "sigma_underflow": "sigma=1e-200",
            "duplicate_grid": "grid.lambda lists 0.1 twice", "negative_n": "n must be >= 1",
            "negative_n_samples": "n_samples must be >= 1",
            "negative_threads": "threads must be >= 0", "infinite_growth": "growth factor",
            "core_n": "n must be >= 1", "core_flip": "flip must be in [0, 1]",
            "nan_score": "score 0 is NaN", "global_config": "missing.cfg",
            "config_mode": "g.cfg: mode = 'hadr'", "config_scale": "g.cfg: scale = 'minmx'",
            "config_truth_col": "g.cfg: truth_col = 'label'", "config_n": "g.cfg: n = 50.5",
            "config_graph": "unknown graph spec '5'",
            "infinite_gamma": "gamma must be finite",
            "infinite_gamma_q": "gamma_q must be finite",
            "nan_epsilon": "epsilon must be >= 0, got nan",
            "kernel_prefix": "unknown kernel spec 'rbfoo'",
            "no_out_test": "core datasets need --out-test",
            "model_number": "m.txt: bad number in model file",
            "model_negative_width": "m.txt: model file needs 0 support rows of -3 numbers",
            "eps_budget": "the epsilon graph on 40 points keeps",
            "plan_key": "bad.plan: n_sampels is not a plan setting",
            "grid_name": "bad.plan: grid.lamda is not a grid setting",
            "empty_grid": "bad.plan: grid.sigma lists no value",
            "mixture_key": "prior.cfg: prior_ps is not a mixture setting",
            "core_key": "core.cfg: big_cnt is not a core setting",
            "kernel_overflow": "the linear kernel overflows",
            "core_square": "short.cfg: dataset config 'big' must be a list of four numbers",
            "plan_dataset": "d5.plan: dataset must be a path, got 5",
            "flip_range": "bad.plan: flip_fraction must be in [0, 1], got 1.5",
            "cad_label": "knn scores finite rows labeled +-1 only; query row 4 is [1.0] labeled 0",
            "truth_vocabulary": "t.csv, line 3: flipped '2' is not 0 or 1"}[case]
    assert want in err
    if case.startswith("core_"):
        assert not Path(out).exists() and not Path(out + "-test").exists()
    if case == "no_out_test":
        assert not Path(out).exists() and not Path(out + "-truth").exists()
    if case.startswith(("config_", "infinite_gamma", "model_negative", "eps_", "plan_",
                        "grid_", "empty_", "mixture_", "kernel_", "flip_", "cad_",
                        "truth_")):
        assert not Path(out).exists()


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


def test_global_config_json_value_reaches_an_option_as_its_text(tmp_path):
    scores, truth = tmp_path / "scores.csv", tmp_path / "truth.csv"
    write_scores_csv(scores, np.array([0.1, 0.9]), np.array([0.0, 1.0]))
    truth.write_text("index,true_label,flipped,true_anomaly_score\n0,1,0,0.2\n1,-1,1,0.8\n")
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text('params = {"lambda": [0.01, 1e-06]}\n')
    out = tmp_path / "m.json"
    assert main(["--config", str(cfg), "eval", "--scores", str(scores), "--truth", str(truth),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"] == {"lambda": [0.01, 1e-06]}


def test_global_config_defaults_end_with_their_call(tmp_path):
    mix, cfg = _write_mixture_cfg(tmp_path), tmp_path / "defaults.cfg"
    cfg.write_text("n = 50\n")
    with_cfg, without = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--config", str(cfg), "gen-data", "--config", str(mix),
                 "--out", str(with_cfg)]) == 0
    assert main(["gen-data", "--config", str(mix), "--out", str(without)]) == 0
    assert read_points_csv(with_cfg).n == 50 and read_points_csv(without).n == 1000


def test_global_config_keys_may_be_option_names(tmp_path, capsys):
    # cad's --lambda has dest lam: the option name and the dest both set it
    rng = np.random.default_rng(1)
    data = tmp_path / "labeled.csv"
    write_points_csv(data, PointSet(rng.normal(0, 1, (30, 2)), np.where(rng.random(30) < 0.5,
                                                                        1, -1)))
    outs = {}
    for name, text in (("name", "lambda = 0.5\n"), ("dest", "lam = 0.5\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        outs[name] = tmp_path / f"{name}.csv"
        assert main(["--config", str(cfg), "cad", "--train", str(data), "--test", str(data),
                     "--out", str(outs[name])]) == 0
    for name, flags in (("flag", ["--lambda", "0.5"]), ("default", [])):
        outs[name] = tmp_path / f"{name}.csv"
        assert main(["cad", "--train", str(data), "--test", str(data), *flags,
                     "--out", str(outs[name])]) == 0
    assert outs["name"].read_bytes() == outs["dest"].read_bytes() == outs["flag"].read_bytes()
    assert outs["name"].read_bytes() != outs["default"].read_bytes()
    assert capsys.readouterr().err == ""


def test_global_config_bad_value_under_an_option_name_exits_2(tmp_path, capsys):
    data = _ssl_input(tmp_path)
    cfg = tmp_path / "g.cfg"
    cfg.write_text("lambda = abc\n")
    out = tmp_path / "out.csv"
    assert main(["--config", str(cfg), "cad", "--train", str(data), "--test", str(data),
                 "--out", str(out)]) == 2
    assert "g.cfg: lambda = 'abc' is not a valid --lambda value" in capsys.readouterr().err
    assert not out.exists()


def test_global_config_names_each_key_no_option_takes(tmp_path, capsys):
    # a file shared across subcommands still runs: each ignored key is named
    data = _ssl_input(tmp_path)
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("gama_g = 0.5\nn = 50\nk = 4\ngamma_g = 0.25\n")
    with_cfg, plain = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--config", str(cfg), "ssl", "--input", str(data), "--out", str(with_cfg)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: {cfg}: {key} is not an option of ssl; ignored"
                   for key in ("gama_g", "n", "k")]
    assert main(["ssl", "--input", str(data), "--gamma-g", "0.25", "--out", str(plain)]) == 0
    assert with_cfg.read_bytes() == plain.read_bytes()


_CAD = inspect.signature(cad_scores).parameters
_KNN = f"knn:{GraphConfig.k_neighbors}"
# (command, dest, flag, the default of the definition the option fills)
_MOVED = [
    ("joint-ssl", "gamma_q", "--gamma-q", JointConfig.gamma_q),
    ("joint-ssl", "gamma_g", "--gamma-g", JointConfig.gamma_g),
    ("joint-ssl", "f_l", "--f-l", JointConfig.f_l),
    ("joint-ssl", "f_u", "--f-u", JointConfig.f_u),
    ("ssl", "c_l", "--c-l", SoftConfig.c_l),
    ("ssl", "c_u", "--c-u", SoftConfig.c_u),
    ("online-ssl", "growth", "--m",
     inspect.signature(QuantizerState).parameters["growth"].default),
    ("cad", "lam", "--lambda", _CAD["lam"].default),
    ("cad", "gamma_g", "--gamma-g", _CAD["gamma_g"].default),
    ("cad", "c_l", "--c-l", _CAD["c_l"].default),
    ("cad", "graph", "--graph", f"knn:{_CAD['graph'].default.k_neighbors}"),
    ("cad", "priors", "--priors", _CAD["priors"].default),
    ("build-graph", "graph", "--graph", _KNN),
    ("ssl", "graph", "--graph", _KNN),
    ("mmgc", "graph", "--graph", _KNN),
    ("mmgc", "kernel", "--kernel", KernelSpec.kind),
    ("run-plan", "threads", "--threads",
     inspect.signature(run_plan).parameters["threads"].default),
]
_REQUIRED = {"build-graph": ["--input", "x.csv", "--out", "o"],
             "ssl": ["--input", "x.csv", "--out", "o"],
             "online-ssl": ["--input", "x.csv", "--k", "6", "--out", "o"],
             "joint-ssl": ["--input", "x.csv", "--k", "6", "--out", "o"],
             "mmgc": ["--train", "x.csv", "--gamma", "0.01", "--out", "o"],
             "cad": ["--train", "x.csv", "--test", "y.csv", "--out", "o"],
             "run-plan": ["--config", "p.cfg"]}


def _with_flags(argv, flags):
    # the global --threads goes before the subcommand, every other flag after it
    glob = [f for f, _ in flags if f == "--threads"]
    return ([x for f, v in flags if f in glob for x in (f, str(v))] + argv
            + [x for f, v in flags if f not in glob for x in (f, str(v))])


@pytest.mark.parametrize("command, dest, flag, default", _MOVED,
                         ids=[f"{c}-{d}" for c, d, _, _ in _MOVED])
def test_cli_states_no_default_a_definition_states(command, dest, flag, default):
    argv = [command, *_REQUIRED[command]]
    assert not hasattr(build_parser().parse_args(argv), dest)
    given = build_parser().parse_args(_with_flags(argv, [(flag, default)]))
    assert getattr(given, dest) == default


def test_cad_priors_choices_are_the_cad_tuple():
    actions = build_parser().subcommand_parsers["cad"]._option_string_actions
    assert actions["--priors"].choices is cad_module.PRIORS


@pytest.mark.parametrize("argv", [["build-graph"], ["ssl"], ["ssl", "--mode", "soft"],
                                  ["online-ssl", "--k", "6"], ["joint-ssl", "--k", "6"],
                                  ["mmgc", "--gamma", "0.01"], ["cad", "--method", "rwcad"],
                                  ["cad", "--method", "knn"], ["cad", "--method", "softhad"],
                                  ["run-plan"]], ids=" ".join)
def test_omitted_options_give_the_bytes_of_their_definitions_defaults(tmp_path, capsys, argv):
    command = argv[0]
    if command == "cad":
        train, test = TestCad()._train_test(tmp_path)
        io_args = ["--train", str(train), "--test", str(test)]
    elif command == "run-plan":
        io_args = ["--config", str(TestRunPlan()._plan(tmp_path))]
    else:
        flag = "--train" if command == "mmgc" else "--input"
        io_args = [flag, str(_ssl_input(tmp_path))]
    flags = [(flag, default) for c, _, flag, default in _MOVED if c == command]
    outputs = []
    for name, given in (("omitted", []), ("explicit", flags)):
        out = tmp_path / name
        out_args = ["--out-dir" if command == "run-plan" else "--out", str(out)]
        assert main(_with_flags([*argv, *io_args, *out_args], given)) == 0
        files = sorted(out.rglob("*")) if out.is_dir() else [out]
        outputs.append(([f.relative_to(tmp_path / name) for f in files],
                        [f.read_bytes() for f in files if f.is_file()],
                        capsys.readouterr().out.replace(str(out), "OUT")))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command, line, owner, field, value", [
    ("joint-ssl", "f_l = 5", "JointConfig", "f_l", 5.0),
    ("online-ssl", "m = 2.0", "QuantizerState", "growth", 2.0),
    ("online-ssl", "growth = 2.0", "QuantizerState", "growth", 2.0)])
def test_global_config_key_of_a_moved_option_reaches_its_definition(
        tmp_path, monkeypatch, capsys, command, line, owner, field, value):
    real, seen = getattr(cli, owner), []
    monkeypatch.setattr(cli, owner, lambda *a, **kw: seen.append(kw) or real(*a, **kw))
    cfg = tmp_path / "g.cfg"
    cfg.write_text(line + "\n")
    assert main(["--config", str(cfg), command, "--input", str(_ssl_input(tmp_path)),
                 "--k", "6", "--sigma", "0.8", "--out", str(tmp_path / "o.csv")]) == 0
    assert seen[0][field] == value
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["--help"], ["run-plan", "--help"]])
def test_help_of_cached_parser_matches_a_fresh_parser(capsys, argv):
    fresh = build_parser()
    want = (fresh.format_help() if len(argv) == 1
            else fresh.subcommand_parsers[argv[0]].format_help())
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == want


def test_repeated_calls_build_the_parser_once(tmp_path):
    scores, truth = tmp_path / "scores.csv", tmp_path / "truth.csv"
    write_scores_csv(scores, np.array([0.1, 0.9]), np.array([0.0, 1.0]))
    truth.write_text("index,true_label,flipped,true_anomaly_score\n0,1,0,0.2\n1,-1,1,0.8\n")
    cli._parser.cache_clear()
    for _ in range(3):
        assert main(["eval", "--scores", str(scores), "--truth", str(truth),
                     "--out", str(tmp_path / "m.json")]) == 0
    assert cli._parser.cache_info().misses == 1 and cli._parser.cache_info().hits == 2


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


class TestSmallSigma:
    """A sigma whose square is not a normal float exits 2 naming it, and a
    Gaussian quotient past the float range is a weight of 0; neither prints
    a numpy warning (the suite turns RuntimeWarning into an error)."""

    def _inputs(self, tmp_path, scale=1.0):
        data = read_points_csv(_ssl_input(tmp_path))
        paths = {}
        for name, pts, labels in (
                ("few", data.points * scale, data.labels),
                ("full", data.points * scale, np.where(data.points[:, 0] < 2, 1, -1)),
                ("dup", np.ones_like(data.points), data.labels)):
            paths[name] = str(tmp_path / f"{name}.csv")
            write_points_csv(paths[name], PointSet(pts, labels))
        return paths

    def _argv(self, command, paths, sigma, out):
        return {
            "build-graph": ["build-graph", "--input", paths["few"]],
            "ssl": ["ssl", "--input", paths["few"]],
            "online-ssl": ["online-ssl", "--input", paths["few"], "--k", "40"],
            "joint-ssl": ["joint-ssl", "--input", paths["few"], "--k", "5"],
            "joint-ssl-dup": ["joint-ssl", "--input", paths["dup"], "--k", "5"],
            "mmgc": ["mmgc", "--train", paths["few"], "--gamma", "0.1"],
            "rwcad": ["cad", "--train", paths["full"], "--test", paths["full"]],
            "knn": ["cad", "--method", "knn", "--train", paths["full"], "--test", paths["full"]],
            "softhad": ["cad", "--method", "softhad", "--train", paths["full"],
                        "--test", paths["full"]],
        }[command] + ["--sigma", sigma, "--out", out]

    @pytest.mark.parametrize("sigma", ["1e-155", "1e-160"])
    @pytest.mark.parametrize("command", ["build-graph", "ssl", "online-ssl", "joint-ssl",
                                         "joint-ssl-dup", "mmgc", "rwcad", "knn", "softhad"])
    def test_subnormal_square_exits_2(self, tmp_path, capsys, command, sigma):
        out = tmp_path / "out.csv"
        assert main(self._argv(command, self._inputs(tmp_path), sigma, str(out))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"sigma={sigma}" in err
        assert not out.exists()

    def test_rbf_width_with_subnormal_divisor_exits_2(self, tmp_path, capsys):
        argv = ["mmgc", "--train", self._inputs(tmp_path)["few"], "--gamma", "0.1",
                "--kernel", "rbf:1e-160", "--out", str(tmp_path / "m.txt")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rbf width 1e-160" in err

    @pytest.mark.parametrize("command,code", [("build-graph", 2), ("ssl", 2), ("online-ssl", 0),
                                              ("joint-ssl", 2), ("mmgc", 2), ("rwcad", 0),
                                              ("knn", 2), ("softhad", 0)])
    def test_overflowing_quotient_is_a_zero_weight(self, tmp_path, capsys, command, code):
        # sigma^2 = 1e-300 is normal, but d^2 / (p sigma^2) passes 1e308
        out = tmp_path / "out.csv"
        argv = self._argv(command, self._inputs(tmp_path, scale=1e6), "1e-150", str(out))
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err == "" if code == 0 else err.startswith("error:")
        if command == "online-ssl":
            # every centroid is isolated, and no unlabeled point merges into a
            # labeled centroid: every unlabeled step abstains
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            labeled = read_points_csv(self._inputs(tmp_path)["few"]).labels != 0
            assert [r[3] == "1" for r in rows] == (~labeled).tolist()
        if command == "rwcad":
            assert not np.isnan(read_scores_csv(out)).any()
