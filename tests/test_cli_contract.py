"""The CLI's contract on awkward input: every subcommand, called in process
on small files of duplicate, tiny, huge or non-finite points and with
extreme options, exits 0 or 2 (``run-plan`` exits 2 when every cell
failed), prints no traceback or warning, and writes no NaN into a CSV or
JSON file."""

import contextlib
import io
import json
import re
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphssl.cli import main

COMMANDS = ("gen-data", "build-graph", "ssl", "online-ssl", "joint-ssl", "mmgc",
            "mmgc-predict", "cad", "eval", "run-plan")
NAN = re.compile(r"(?<![A-Za-z])[-+]?nan(?![A-Za-z])", re.IGNORECASE)

# small k and sigma auto are drawn often: most other values only reach a check
_GRAPH = st.one_of(st.integers(0, 5).map("knn:{}".format),
                   st.integers(0, 100).map("knn:{}".format),
                   st.sampled_from(["eps", "eps:1e-300"]))
_SIGMA = st.one_of(st.just("auto"), st.builds("{}e{}".format, st.sampled_from([1, 3.7]),
                                               st.integers(-160, 3)))
_GAMMA_G = st.sampled_from(["0", "1e-8", "0.1"])
# fit weights from near the bottom of the normal float range to its top
_FIT = st.sampled_from(["1e-300", "0.1", "10", "1e154", "1e308"])
_SIGMA_GRID = [1e-160, 1e-150, 1e-3, 0.5, 1e3]


@st.composite
def _data(draw):
    """Points, labels and the scale of a file: 1-40 rows of 1-3 features,
    maybe all one repeated row, maybe 5 % of cells non-finite or +-1e308."""
    n, p = draw(st.one_of(st.integers(1, 40), st.just(40))), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-160, 150))
    rows = 1 if draw(st.booleans()) else n
    points = np.resize(rng.normal(size=(rows, p)) * scale, (n, p))
    bad_values = draw(st.sampled_from([(), (np.nan, np.inf, -np.inf), (1e308, -1e308)]))
    if bad_values:
        bad = rng.random((n, p)) < 0.05
        points[bad] = rng.choice(bad_values, size=bad.sum())
    pool = draw(st.sampled_from([(1,), (-1,), (0,), (-1, 0, 1), (-1, 1), (-1, 1) + (0,) * 6]))
    return points, rng.choice(pool, size=n), scale


def _write_points(path: Path, points: np.ndarray, labels: np.ndarray) -> str:
    lines = [",".join(f"f{j}" for j in range(points.shape[1])) + ",label"]
    lines += [",".join(map(repr, row.tolist())) + f",{lab}" for row, lab in zip(points, labels)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _write_mixture(path: Path, points: np.ndarray, scale: float) -> str:
    """A one-component mixture per class, centred on the first row and its
    negation, with covariance scale^2 I."""
    p = points.shape[1]
    mean, cov = points[0].tolist(), (scale * scale * np.eye(p)).tolist()
    text = "type = mixture\nprior_pos = 0.5\n"
    for side, sign in (("pos", 1.0), ("neg", -1.0)):
        means, covs = json.dumps([[sign * m for m in mean]]), json.dumps([cov])
        text += f"{side}.weights = [1.0]\n{side}.means = {means}\n{side}.covs = {covs}\n"
    path.write_text(text)
    return str(path)


@st.composite
def _calls(draw, work: Path):
    """The argv lists of one example, run in order: one subcommand (two for
    mmgc-predict, which needs a model) on one drawn data file."""
    command = draw(st.sampled_from(COMMANDS))
    points, labels, scale = draw(_data())
    data = _write_points(work / "in" / "data.csv", points, labels)
    out = str(work / "out" / "result.csv")
    graph, sigma = ["--graph", draw(_GRAPH)], ["--sigma", draw(_SIGMA)]
    if command == "gen-data":
        core = draw(st.booleans())
        config = (str(Path(__file__).parents[1] / "src/graphssl/configs/core.cfg") if core
                  else _write_mixture(work / "in" / "mix.cfg", points, scale))
        argv = ["gen-data", "--config", config, "--n", str(draw(st.integers(1, 40))),
                "--flip", draw(st.sampled_from(["0", "0.03", "1"])), "--out", out,
                "--truth", str(work / "out" / "truth.csv")]
        return [argv + (["--out-test", str(work / "out" / "test.csv")] if core else [])]
    if command in ("build-graph", "ssl"):
        extra = []
        if command == "ssl":
            mode = draw(st.sampled_from(["hard", "soft"]))
            extra = ["--mode", mode, "--gamma-g", draw(_GAMMA_G)]
            if mode == "soft":
                extra += ["--c-l", draw(_FIT), "--c-u", draw(_FIT)]
        return [[command, "--input", data, *graph, *sigma, *extra, "--out", out]]
    if command in ("online-ssl", "joint-ssl"):
        extra = (["--gamma-g", draw(_GAMMA_G)] if command == "online-ssl"
                 else ["--f-l", draw(st.sampled_from(["10", "1e154", "1e308"])),
                       "--trace", str(work / "out" / "trace.csv")])
        return [[command, "--input", data, "--k", str(draw(st.integers(1, 12))), *sigma, *extra,
                 "--out", out]]
    if command in ("mmgc", "mmgc-predict"):
        kernel = draw(st.one_of(st.sampled_from(["linear", "cubic"]),
                                st.integers(-160, 3).map("rbf:1e{}".format)))
        model = str(work / "out" / "model.txt")
        calls = [["mmgc", "--train", data, "--gamma", "0.1", "--kernel", kernel, *graph, *sigma,
                  "--out", model]]
        return calls + ([["mmgc-predict", "--model", model, "--input", data, "--out", out]]
                        if command == "mmgc-predict" else [])
    if command == "cad":
        method = draw(st.sampled_from(["rwcad", "knn", "softhad"]))
        fit = ["--c-l", draw(_FIT)] if method == "softhad" else []
        return [["cad", "--train", data, "--test", data, *graph, *sigma, "--method", method, *fit,
                 "--lambda", draw(st.sampled_from(["0", "0.01"])),
                 "--scale", draw(st.sampled_from(["none", "minmax"])), "--out", out]]
    if command == "eval":
        scores, truth = work / "in" / "scores.csv", work / "in" / "truth.csv"
        raw = points[:, 0].tolist()
        scores.write_text("index,raw_score,scaled_score,rank\n" + "".join(
            f"{i},{r!r},0.5,{i + 1}\n" for i, r in enumerate(raw)))
        truth.write_text("index,true_label,flipped,true_anomaly_score\n" + "".join(
            f"{i},{1 if lab >= 0 else -1},{int(lab == 1)},0.5\n" for i, lab in enumerate(labels)))
        return [["eval", "--scores", str(scores), "--truth", str(truth), "--truth-col",
                 draw(st.sampled_from(["flipped", "true_label"])), "--out", out]]
    grid = {"sigma": draw(st.lists(st.sampled_from(_SIGMA_GRID), min_size=1, max_size=2,
                                   unique=True)),
            "knn": [draw(st.integers(1, 100))], "lambda": [0.01]}
    plan = work / "in" / "plan.cfg"
    plan.write_text(
        f"method = {draw(st.sampled_from(['rwcad', 'knn', 'softhad']))}\n"
        f"dataset = {_write_mixture(work / 'in' / 'mix.cfg', points, scale)}\n"
        f"n_samples = {draw(st.integers(1, 40))}\nflip_fraction = 0.1\n"
        f"n_runs = {draw(st.integers(1, 2))}\n"
        + "".join(f"grid.{name} = {json.dumps(values)}\n" for name, values in grid.items()))
    return [["run-plan", "--config", str(plan), "--out-dir", str(work / "out" / "plan")]]


def _run(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) as a process would run it: its exit code, stdout and
    stderr, with each Python warning written to stderr as a process prints
    it, and any exception escaping main as its traceback with code 1."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:       # noqa: BLE001 - a traceback is what is checked
            code = 1
            err.write(traceback.format_exc())
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, out.getvalue(), err.getvalue()


@given(st.data())
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
def test_every_subcommand_exits_0_or_2_without_warning_or_nan(data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "in").mkdir()
        (work / "out").mkdir()
        for argv in data.draw(_calls(work)):
            code, out, err = _run(argv)
            assert code in (0, 2), (argv, code, err)
            assert "Traceback" not in err and "Warning" not in err, (argv, err)
            if code == 2:
                assert err.startswith("error:"), (argv, err)
            for path in (work / "out").rglob("*"):
                if path.suffix in (".csv", ".json"):
                    assert not NAN.search(path.read_text()), (argv, path.name)
