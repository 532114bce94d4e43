"""Command-line entry point wiring dataset generation, graph construction,
the SSL solvers, CAD scoring, and experiment plans.

An option whose default a library definition states has none here
(``argparse.SUPPRESS``): ``_given`` passes on only the options the command
line or the global ``--config`` gave, so an omitted one takes the default of
the definition it fills.  The defaults below are those no definition states.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import io as gio
from .cad import PRIORS, scale_scores
from .cuts import KernelSpec, train_on_induced
from .datasets import (draw_dataset, load_dataset_spec, parse_config_text,
                       true_anomaly_scores)
from .errors import DegenerateGraphError, InputError, SolverError
from .graph import GraphConfig, build_graph, resolve_sigma
from .harmonic import SoftConfig, hard_harmonic, soft_harmonic
from .joint import JointConfig, elastic_joint, infer_unlabeled
from .metrics import auroc
from .online import QuantizerState, predict_online
from .plan import METHODS, cad_scores, plan_from_config, run_plan


def _sigma_value(text) -> float | None:
    try:
        return None if str(text) == "auto" else float(text)
    except ValueError:
        raise InputError(f"--sigma must be 'auto' or a number, got {text!r}") from None


def _given(args, *dests: str) -> dict:
    """The options among ``dests`` that the command line or the global
    --config gave, by dest; the definition they fill defaults the rest."""
    return {dest: getattr(args, dest) for dest in dests if hasattr(args, dest)}


def _graph_cfg(args) -> GraphConfig:
    if hasattr(args, "graph"):
        return GraphConfig.parse(args.graph, sigma=args.sigma_value)
    return GraphConfig(sigma=args.sigma_value)


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
        cfg = SoftConfig(gamma_g=args.gamma_g, **_given(args, "c_l", "c_u"))
        sol = soft_harmonic(g, ps.labels.astype(np.float64), cfg)
    gio.write_soft_labels_csv(args.out, sol.values)
    return 0


def cmd_online_ssl(args) -> int:
    ps = gio.read_points_csv(args.input)
    cfg = GraphConfig(sigma=resolve_sigma(args.sigma_value, ps.points))
    state = QuantizerState(capacity=args.k, **_given(args, "growth"))
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
    cfg = JointConfig(k=args.k, sigma=args.sigma_value,
                      **_given(args, "gamma_q", "gamma_g", "f_l", "f_u"))
    state = elastic_joint(ps, cfg, args.seed)
    values, _ = infer_unlabeled(ps, state)
    gio.write_soft_labels_csv(args.out, values)
    if args.trace:
        gio.write_trace_csv(args.trace, state.objective_trace)
    return 0


def cmd_mmgc(args) -> int:
    ps = gio.read_points_csv(args.train)
    g = build_graph(ps, _graph_cfg(args))
    kernel = KernelSpec.parse(args.kernel) if hasattr(args, "kernel") else KernelSpec()
    clf = train_on_induced(ps.points, g, ps.labels, args.gamma, args.gamma_g,
                           args.epsilon, kernel)
    gio.write_cut_model(args.out, clf)
    return 0


def cmd_mmgc_predict(args) -> int:
    clf = gio.read_cut_model(args.model)
    ps = gio.read_points_csv(args.input)
    values = clf.decision_values(ps.points)
    gio.write_soft_labels_csv(args.out, values)
    return 0


def cmd_cad(args) -> int:
    train = gio.read_points_csv(args.train)
    test = gio.read_points_csv(args.test)
    settings = _given(args, "lam", "priors", "graph", "gamma_g", "c_l")
    if "graph" in settings:
        settings["graph"] = GraphConfig.parse(settings["graph"])
    scores = cad_scores(args.method, train, test, sigma=args.sigma_value, **settings)
    train_raw, raw = scores[:train.n], scores[train.n:]
    scaled = scale_scores(train_raw, raw) if args.scale == "minmax" else raw
    gio.write_scores_csv(args.out, raw, scaled)
    return 0


def cmd_eval(args) -> int:
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise InputError(f"--params is not valid JSON: {exc}") from None
    scores = gio.read_scores_csv(args.scores)
    truth = gio.read_truth_csv(args.truth)[args.truth_col]
    value = auroc(scores, truth == 1 if args.truth_col == "true_label" else truth)
    gio.write_metrics_json(args.out, {
        "auroc": value, "n": int(scores.size), "method": args.method, "params": params,
    })
    print(f"auroc={gio.fmt17(value)}")
    return 0


def cmd_run_plan(args) -> int:
    plan = plan_from_config(args.config, outdir=args.out_dir)
    results = run_plan(plan, **_given(args, "threads"))
    failed = sum(1 for r in results if r.status != "ok")
    print(f"cells={len(results)} failed={failed} summary={Path(plan.outdir) / 'summary.csv'}")
    if results and failed == len(results):
        print(f"error: every cell of {args.config} failed: {results[0].error}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphssl")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="worker threads for run-plan (0 = all cores)")
    parser.add_argument("--config", dest="global_config", default=None,
                        help="key=value file supplying defaults for --seed, --threads "
                             "and any subcommand option (keys use underscores)")
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
    p.add_argument("--graph", default=argparse.SUPPRESS)
    p.add_argument("--sigma", default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("ssl", help="propagate labels on a similarity graph")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("hard", "soft"), default="hard")
    # the CLI's own, for both modes: SoftConfig's 1e-6 would change --mode soft's output
    p.add_argument("--gamma-g", dest="gamma_g", type=float, default=0.0)
    p.add_argument("--c-l", dest="c_l", type=float, default=argparse.SUPPRESS)
    p.add_argument("--c-u", dest="c_u", type=float, default=argparse.SUPPRESS)
    p.add_argument("--graph", default=argparse.SUPPRESS)
    p.add_argument("--sigma", default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ssl)

    p = sub.add_parser("online-ssl", help="streaming quantized label propagation")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", dest="growth", type=float, metavar="M", default=argparse.SUPPRESS)
    p.add_argument("--gamma-g", dest="gamma_g", type=float, default=0.01)
    p.add_argument("--sigma", default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_online_ssl)

    p = sub.add_parser("joint-ssl", help="joint quantization and propagation")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gamma-q", dest="gamma_q", type=float, default=argparse.SUPPRESS)
    p.add_argument("--gamma-g", dest="gamma_g", type=float, default=argparse.SUPPRESS)
    p.add_argument("--f-l", dest="f_l", type=float, default=argparse.SUPPRESS)
    p.add_argument("--f-u", dest="f_u", type=float, default=argparse.SUPPRESS)
    p.add_argument("--sigma", default="auto")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_joint_ssl)

    p = sub.add_parser("mmgc", help="train max-margin graph cuts")
    p.add_argument("--train", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--gamma-g", dest="gamma_g", type=float, default=1e-6)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--kernel", default=argparse.SUPPRESS)
    p.add_argument("--graph", default=argparse.SUPPRESS)
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
    p.add_argument("--method", choices=METHODS, default="rwcad")
    p.add_argument("--lambda", dest="lam", type=float, default=argparse.SUPPRESS)
    p.add_argument("--gamma-g", dest="gamma_g", type=float, default=argparse.SUPPRESS)
    p.add_argument("--c-l", dest="c_l", type=float, default=argparse.SUPPRESS)
    p.add_argument("--graph", default=argparse.SUPPRESS)
    p.add_argument("--sigma", default="auto")
    p.add_argument("--priors", choices=PRIORS, default=argparse.SUPPRESS)
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


_parser = functools.cache(build_parser)


def _parse_with_config(argv, config_path: str, command: str) -> argparse.Namespace:
    """``argv`` parsed by a fresh parser whose ``command`` and global
    ``--seed`` and ``--threads`` take their defaults from the key=value
    file, so the defaults end with this call.  A key names an option by its
    dest (``gamma_g``, ``lam``) or by its name (``gamma-g``, ``lambda``).  A
    value's text (a JSON value is dumped back) goes through its option's
    ``type`` and ``choices``, as on the command line; a value they reject
    raises ``InputError`` naming the key.  A key that names no such option
    is reported on stderr and skipped, since one file may serve several
    subcommands."""
    raw = parse_config_text(Path(config_path).read_text())
    parser = build_parser()
    sub_parser = parser.subcommand_parsers[command]
    actions = {}
    for owner, action in ([(parser, a) for a in parser._actions if a.dest in ("seed", "threads")]
                          + [(sub_parser, a) for a in sub_parser._actions]):
        actions[action.dest] = owner, action
        actions.update((name.lstrip("-"), (owner, action)) for name in action.option_strings)
    defaults = {parser: {}, sub_parser: {}}
    for key, value in raw.items():
        owner, action = actions.get(key, actions.get(key.replace("-", "_"), (None, None)))
        if action is None:
            print(f"warning: {config_path}: {key} is not an option of {command}; ignored",
                  file=sys.stderr)
            continue
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            value = text if action.type is None else action.type(text)
            if action.choices is not None and value not in action.choices:
                raise ValueError
        except ValueError:
            raise InputError(f"{config_path}: {key} = {value!r} is not a valid "
                             f"{action.option_strings[-1]} value") from None
        defaults[owner][action.dest] = value
    for owner, values in defaults.items():
        owner.set_defaults(**values)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.global_config:
            args = _parse_with_config(argv, args.global_config, args.command)
        if hasattr(args, "sigma"):
            args.sigma_value = _sigma_value(args.sigma)
        return args.func(args)
    except (InputError, DegenerateGraphError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
