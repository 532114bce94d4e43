"""Plan settings read from the definitions they fill: ``ExperimentPlan``'s
fields, ``GRID_SETTINGS`` and the class defaults of the spec parsers."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphssl import GraphConfig, InputError, KernelSpec
from graphssl import cli
from graphssl.cli import main
from graphssl.datasets import draw_dataset, load_dataset_spec
from graphssl.plan import (METHODS, ExperimentPlan, cad_scores, plan_from_config,
                           score_method)

MIXTURE = ("type = mixture\nprior_pos = 0.5\n"
           "pos.weights = [1.0]\npos.means = [[1.0, 1.0]]\n"
           "pos.covs = [[[1.0, 0.0], [0.0, 1.0]]]\n"
           "neg.weights = [1.0]\nneg.means = [[-1.0, -1.0]]\n"
           "neg.covs = [[[1.0, 0.0], [0.0, 1.0]]]\n")

# values of each grid setting
GRID_VALUES = {
    "lambda": st.sampled_from([0.0, 0.01, 1.0]),
    "sigma": st.sampled_from([0.7, 1.0, 1.5]),
    "priors": st.sampled_from(["empirical", "uniform"]),
    "knn": st.integers(3, 8),
    "gamma_g": st.sampled_from([0.1, 1.0, 10.0]),
    "c_l": st.sampled_from([0.5, 1.0, 2.0]),
}

_PLAN_FIELDS = st.fixed_dictionaries({}, optional={
    "method": st.sampled_from(METHODS),
    "n_samples": st.integers(1, 5000),
    "flip_fraction": st.sampled_from([0, 0.0, 0.03, 0.5, 1]),
    "n_runs": st.integers(1, 20),
    "base_seed": st.integers(0, 10**6),
    "outdir": st.sampled_from(["plan-out", "results", "true", "12"]),
})
_GRID = st.dictionaries(st.sampled_from(sorted(GRID_VALUES)),
                        st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True),
                        max_size=3)


@given(_PLAN_FIELDS, _GRID)
@settings(max_examples=60, deadline=None)
def test_plan_file_equals_the_constructor_on_its_fields(tmp_path_factory, fields, grid):
    folder = tmp_path_factory.mktemp("plan")
    dataset = (folder / "mix.cfg").resolve()
    dataset.write_text(MIXTURE)
    path = folder / "plan.cfg"
    path.write_text("".join(f"{key} = {json.dumps(value)}\n" for key, value in fields.items())
                    + f"dataset = {json.dumps(str(dataset))}\n"
                    + "".join(f"grid.{name} = {json.dumps(values)}\n"
                              for name, values in grid.items()))
    want = ExperimentPlan(**{"method": "rwcad", **fields}, dataset=str(dataset), grid=grid)
    assert plan_from_config(path) == want


@given(st.sampled_from(METHODS), st.fixed_dictionaries({}, optional=GRID_VALUES),
       st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_grid_settings_reach_cad_scores_as_its_keywords(tmp_path_factory, method, params, seed):
    path = tmp_path_factory.mktemp("spec") / "mix.cfg"
    path.write_text(MIXTURE)
    spec = load_dataset_spec(path)
    scores, truth = score_method(method, params, spec, seed, 60, 0.1)
    keywords = {"lambda": "lam", "sigma": "sigma", "priors": "priors", "gamma_g": "gamma_g",
                "c_l": "c_l"}
    kwargs = {keywords[name]: value for name, value in params.items() if name != "knn"}
    if "knn" in params:
        kwargs["graph"] = GraphConfig(mode="knn", k_neighbors=params["knn"])
    train, _, _, mask = draw_dataset(spec, 60, seed, 0.1)
    assert np.array_equal(scores, cad_scores(method, train, **kwargs))
    assert np.array_equal(truth, mask)


@pytest.mark.parametrize("grid, match", [
    ({"lamda": [0.1]}, "grid.lamda is not a grid setting"),
    ({"sigma": []}, "grid.sigma lists no value"),
    ({"default": [0], "sigma": [1.0]}, "grid.default is not a grid setting"),
    ({"default": [0]}, "grid.default is not a grid setting")])
def test_constructor_refuses_grid_entries_that_set_nothing(grid, match):
    with pytest.raises(InputError, match=match):
        ExperimentPlan(method="knn", grid=grid, dataset="mix.cfg")


def test_constructor_converts_flip_fraction():
    plan = ExperimentPlan(method="knn", grid={"sigma": [1.0]}, dataset="mix.cfg",
                          flip_fraction="0.25")
    assert plan.flip_fraction == 0.25 and isinstance(plan.flip_fraction, float)
    with pytest.raises(InputError, match="flip_fraction must be a number"):
        ExperimentPlan(method="knn", grid={"sigma": [1.0]}, dataset="mix.cfg",
                       flip_fraction=[0.1])


@pytest.mark.parametrize("key", ["grid", "outdir_", "threads"])
def test_plan_file_refuses_keys_that_name_no_plan_setting(tmp_path, key):
    (tmp_path / "mix.cfg").write_text(MIXTURE)
    path = tmp_path / "plan.cfg"
    path.write_text(f"dataset = mix.cfg\n{key} = 1\n")
    with pytest.raises(InputError, match=f"plan.cfg: {key} is not a plan setting"):
        plan_from_config(path)


def test_spec_parsers_fill_omitted_numbers_from_the_class_defaults():
    assert GraphConfig.parse("knn") == GraphConfig(mode="knn")
    assert GraphConfig.parse("eps") == GraphConfig(mode="epsilon")
    assert KernelSpec.parse("rbf") == KernelSpec("rbf")


# ---------------------------------------------------------------------------
# the global --config sets the global --seed and --threads

def test_global_config_seed_gives_the_bytes_of_the_flag(tmp_path):
    mix, cfg = tmp_path / "mix.cfg", tmp_path / "g.cfg"
    mix.write_text(MIXTURE)
    cfg.write_text("seed = 5\n")
    outs = {name: tmp_path / f"{name}.csv" for name in ("file", "flag", "override", "one")}
    assert main(["--config", str(cfg), "gen-data", "--config", str(mix), "--n", "40",
                 "--out", str(outs["file"])]) == 0
    assert main(["--seed", "5", "gen-data", "--config", str(mix), "--n", "40",
                 "--out", str(outs["flag"])]) == 0
    assert main(["--config", str(cfg), "--seed", "1", "gen-data", "--config", str(mix),
                 "--n", "40", "--out", str(outs["override"])]) == 0
    assert main(["--seed", "1", "gen-data", "--config", str(mix), "--n", "40",
                 "--out", str(outs["one"])]) == 0
    assert outs["file"].read_bytes() == outs["flag"].read_bytes()
    assert outs["override"].read_bytes() == outs["one"].read_bytes()
    assert outs["file"].read_bytes() != outs["one"].read_bytes()


def test_global_config_threads_reach_run_plan(tmp_path, monkeypatch, capsys):
    (tmp_path / "mix.cfg").write_text(MIXTURE)
    plan, cfg = tmp_path / "plan.cfg", tmp_path / "g.cfg"
    plan.write_text("method = knn\ndataset = mix.cfg\nn_samples = 40\nflip_fraction = 0.1\n")
    cfg.write_text("threads = 2\n")
    seen = []
    monkeypatch.setattr(cli, "run_plan", lambda plan, threads: seen.append(threads) or [])
    main(["--config", str(cfg), "run-plan", "--config", str(plan), "--out-dir",
          str(tmp_path / "out")])
    main(["--config", str(cfg), "--threads", "3", "run-plan", "--config", str(plan),
          "--out-dir", str(tmp_path / "out")])
    assert seen == [2, 3]
    assert "warning" not in capsys.readouterr().err


@pytest.mark.parametrize("method", METHODS)
def test_cad_scores_takes_sigma_only_as_its_keyword(tmp_path, method):
    # softhad would replace graph.sigma and rwcad and knn never read it, so
    # a graph carrying its own sigma is refused, not silently ignored
    (tmp_path / "mix.cfg").write_text(MIXTURE)
    train, _, _, _ = draw_dataset(load_dataset_spec(tmp_path / "mix.cfg"), 40, 0, 0.1)
    with pytest.raises(InputError, match="graph.sigma=0.05"):
        cad_scores(method, train, graph=GraphConfig(mode="knn", k_neighbors=5, sigma=0.05))
    plain = cad_scores(method, train, sigma=0.05, graph=GraphConfig(mode="knn", k_neighbors=5))
    assert np.isfinite(plain).all()
