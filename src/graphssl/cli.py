"""Command-line entry point wiring dataset generation, graph construction,
the SSL solvers, CAD scoring, and experiment plans."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as gio
from .cad import TaskScaling, scale_scores
from .cuts import CutClassifier, KernelSpec, train_on_induced
from .datasets import draw_dataset, load_dataset_spec, true_anomaly_scores
from .errors import DegenerateGraphError, InputError, SolverError
from .graph import GraphConfig, build_graph, sigma_from_points
from .harmonic import SoftConfig, hard_harmonic, soft_harmonic
from .joint import JointConfig, elastic_joint, infer_unlabeled
from .metrics import auroc
from .online import QuantizerState, predict_online
from .plan import cad_scores, plan_from_config, run_plan


def _sigma_value(text) -> float | None:
    try:
        return None if str(text) == "auto" else float(text)
    except ValueError:
        raise InputError(f"--sigma must be 'auto' or a number, got {text!r}") from None


def _graph_cfg(args) -> GraphConfig:
    return GraphConfig.parse(args.graph, sigma=args.sigma_value)


def cmd_gen_data(args) -> int:
    spec = load_dataset_spec(args.config)
    train, test, labels, anomalies = draw_dataset(spec, args.n, args.seed, args.flip)
    if test is not None and not args.out_test:
        raise InputError("core datasets need --out-test for the test split")
    gio.write_points_csv(args.out, train)
    if test is not None:
        gio.write_points_csv(args.out_test, test)
    if args.truth:
        scored = train if test is None else test
        gio.write_truth_csv(args.truth, labels, anomalies,
                            true_anomaly_scores(spec, scored.points, scored.labels))
    return 0


def cmd_build_graph(args) -> int:
    ps = gio.read_points_csv(args.input)
    g = build_graph(ps, _graph_cfg(args))
    gio.write_edge_list(args.out, g)
    return 0


def cmd_ssl(args) -> int:
    ps = gio.read_points_csv(args.input)
    g = build_graph(ps, _graph_cfg(args))
    if args.mode == "hard":
        sol = hard_harmonic(g, ps.labels, args.gamma_g)
    else:
        cfg = SoftConfig(gamma_g=args.gamma_g, c_l=args.c_l, c_u=args.c_u)
        sol = soft_harmonic(g, ps.labels.astype(np.float64), cfg)
    gio.write_soft_labels_csv(args.out, sol.values)
    return 0


def cmd_online_ssl(args) -> int:
    ps = gio.read_points_csv(args.input)
    sigma = args.sigma_value if args.sigma_value is not None else sigma_from_points(ps.points)
    cfg = GraphConfig(mode="epsilon", eps_cut=0.0, sigma=sigma)
    state = QuantizerState(capacity=args.k, growth=args.m)
    steps = []
    for i in range(ps.n):
        steps.append(predict_online(state, ps.points[i], int(ps.labels[i]),
                                    args.gamma_g, cfg))
    gio.write_online_csv(args.out, steps)
    print(f"radius={gio.fmt17(state.radius) if state.radius is not None else 'unset'}")
    print(f"label_conflicts={state.label_conflicts}")
    print("centroid,multiplicity,label,coordinates")
    for i, (c, v, lab) in enumerate(zip(state.centroids, state.multiplicities,
                                        state.centroid_labels)):
        coords = ";".join(gio.fmt17(x) for x in c)
        print(f"{i},{v},{lab},{coords}")
    return 0


def cmd_joint_ssl(args) -> int:
    ps = gio.read_points_csv(args.input)
    cfg = JointConfig(k=args.k, gamma_q=args.gamma_q, gamma_g=args.gamma_g,
                      f_l=args.f_l, f_u=args.f_u,
                      sigma=args.sigma_value)
    state = elastic_joint(ps, cfg, args.seed)
    values, _ = infer_unlabeled(ps, state)
    gio.write_soft_labels_csv(args.out, values)
    if args.trace:
        gio.write_trace_csv(args.trace, state.objective_trace)
    return 0


def _dump_model(path: str, clf: CutClassifier) -> None:
    lines = []
    if clf.kernel.kind == "rbf":
        lines.append(f"kernel=rbf:{gio.fmt17(clf.kernel.rbf_width)}")
    else:
        lines.append(f"kernel={clf.kernel.kind}")
    lines.append(f"bias={gio.fmt17(clf.bias)}")
    lines.append("retained=" + ",".join(str(i) for i in clf.retained_indices))
    lines.append("coef=" + ",".join(gio.fmt17(c) for c in clf.coefficients))
    lines.append(f"support={clf.support_points.shape[0]},{clf.support_points.shape[1]}")
    for row in clf.support_points:
        lines.append(",".join(gio.fmt17(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _load_model(path: str) -> CutClassifier:
    lines = Path(path).read_text().strip().splitlines()
    fields = {}
    i = 0
    while i < len(lines) and "=" in lines[i]:
        key, _, value = lines[i].partition("=")
        fields[key] = value
        i += 1
        if key == "support":
            break
    n, _p = (int(v) for v in fields["support"].split(","))
    pts = np.array([[float(v) for v in lines[i + r].split(",")] for r in range(n)])
    return CutClassifier(
        support_points=pts,
        coefficients=np.array([float(v) for v in fields["coef"].split(",")]),
        bias=float(fields["bias"]),
        kernel=KernelSpec.parse(fields["kernel"]),
        retained_indices=np.array([int(v) for v in fields["retained"].split(",")]),
    )


def cmd_mmgc(args) -> int:
    ps = gio.read_points_csv(args.train)
    g = build_graph(ps, _graph_cfg(args))
    kernel = KernelSpec.parse(args.kernel)
    clf = train_on_induced(ps.points, g, ps.labels, args.gamma, args.gamma_g,
                           args.epsilon, kernel)
    _dump_model(args.out, clf)
    return 0


def cmd_mmgc_predict(args) -> int:
    clf = _load_model(args.model)
    ps = gio.read_points_csv(args.input)
    values = clf.decision_values(ps.points)
    gio.write_soft_labels_csv(args.out, values)
    return 0


def cmd_cad(args) -> int:
    train = gio.read_points_csv(args.train)
    test = gio.read_points_csv(args.test)
    scores = cad_scores(args.method, train, test, lam=args.lam, sigma=args.sigma_value,
                        priors=args.priors, graph=GraphConfig.parse(args.graph),
                        gamma_g=args.gamma_g, c_l=args.c_l)
    train_raw, raw = scores[:train.n], scores[train.n:]
    scaled = scale_scores(TaskScaling.fit(train_raw), raw) if args.scale == "minmax" else raw
    gio.write_scores_csv(args.out, raw, scaled)
    return 0


def cmd_eval(args) -> int:
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise InputError(f"--params is not valid JSON: {exc}") from None
    scores = gio.read_scores_csv(args.scores)
    truth = gio.read_truth_csv(args.truth)[args.truth_col]
    value = auroc(scores, truth)
    gio.write_metrics_json(args.out, {
        "auroc": value, "n": int(scores.size), "method": args.method, "params": params,
    })
    print(f"auroc={gio.fmt17(value)}")
    return 0


def cmd_run_plan(args) -> int:
    plan = plan_from_config(args.config, outdir=args.out_dir)
    results = run_plan(plan, threads=args.threads)
    failed = sum(1 for r in results if r.status != "ok")
    print(f"cells={len(results)} failed={failed} summary={Path(plan.outdir) / 'summary.csv'}")
    return 1 if failed == len(results) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphssl")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for run-plan (0 = all cores)")
    parser.add_argument("--config", dest="global_config", default=None,
                        help="key=value file supplying defaults for any "
                             "subcommand option (keys use underscores)")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommand_parsers = sub.choices

    p = sub.add_parser("gen-data", help="generate a dataset from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--flip", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--out-test", default=None)
    p.add_argument("--truth", default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("build-graph", help="similarity graph to an edge list")
    p.add_argument("--input", required=True)
    p.add_argument("--graph", default="knn:5")
    p.add_argument("--sigma", default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("ssl", help="propagate labels on a similarity graph")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("hard", "soft"), default="hard")
    p.add_argument("--gamma-g", dest="gamma_g", type=float, default=0.0)
    p.add_argument("--c-l", dest="c_l", type=float, default=10.0)
    p.add_argument("--c-u", dest="c_u", type=float, default=0.1)
    p.add_argument("--graph", default="knn:5")
    p.add_argument("--sigma", default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ssl)

    p = sub.add_parser("online-ssl", help="streaming quantized label propagation")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=float, default=1.5)
    p.add_argument("--gamma-g", dest="gamma_g", type=float, default=0.01)
    p.add_argument("--sigma", default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_online_ssl)

    p = sub.add_parser("joint-ssl", help="joint quantization and propagation")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gamma-q", dest="gamma_q", type=float, default=1e5)
    p.add_argument("--gamma-g", dest="gamma_g", type=float, default=1e-6)
    p.add_argument("--f-l", dest="f_l", type=float, default=10.0)
    p.add_argument("--f-u", dest="f_u", type=float, default=0.1)
    p.add_argument("--sigma", default="auto")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_joint_ssl)

    p = sub.add_parser("mmgc", help="train max-margin graph cuts")
    p.add_argument("--train", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--gamma-g", dest="gamma_g", type=float, default=1e-6)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--kernel", default="linear")
    p.add_argument("--graph", default="knn:5")
    p.add_argument("--sigma", default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mmgc)

    p = sub.add_parser("mmgc-predict", help="evaluate a trained cut model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mmgc_predict)

    p = sub.add_parser("cad", help="conditional anomaly scores")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--method", choices=("rwcad", "softhad", "knn"), default="rwcad")
    p.add_argument("--lambda", dest="lam", type=float, default=0.01)
    p.add_argument("--gamma-g", dest="gamma_g", type=float, default=1.0)
    p.add_argument("--c-l", dest="c_l", type=float, default=1.0)
    p.add_argument("--graph", default="knn:10")
    p.add_argument("--sigma", default="auto")
    p.add_argument("--priors", choices=("empirical", "uniform"), default="empirical")
    p.add_argument("--scale", choices=("none", "minmax"), default="none")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cad)

    p = sub.add_parser("eval", help="AUROC of a score file against a truth file")
    p.add_argument("--scores", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--truth-col", dest="truth_col", default="flipped",
                   choices=("flipped", "true_label"))
    p.add_argument("--method", default="unknown")
    p.add_argument("--params", default="{}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run-plan", help="grid x runs experiment from a plan config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.set_defaults(func=cmd_run_plan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    probe, _ = parser.parse_known_args(argv)
    if getattr(probe, "global_config", None):
        from .datasets import parse_config_text
        raw = parse_config_text(Path(probe.global_config).read_text())
        defaults = {k.replace("-", "_"): v for k, v in raw.items()}
        for sub_parser in parser.subcommand_parsers.values():
            known = {a.dest for a in sub_parser._actions}
            sub_parser.set_defaults(**{k: v for k, v in defaults.items() if k in known})
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "sigma"):
            args.sigma_value = _sigma_value(args.sigma)
        return args.func(args)
    except (InputError, DegenerateGraphError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
