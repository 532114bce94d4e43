"""End-to-end acceptance suite.

Each test implements one numbered acceptance check at its stated
tolerance and prints a PASS/FAIL line (visible with pytest -s).
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import spearmanr

from graphssl import (CompactGraph, CoreSpec, GraphConfig, JointConfig,
                      KernelSpec, PointSet, QuantizerState, SoftConfig, auroc,
                      build_graph, compact_harmonic, default_mixtures,
                      fit_cad_model, flip_labels, gen_core_dataset,
                      gen_gauss_mixture, hard_harmonic, laplacian,
                      max_distortion, predict_online, quantization_step,
                      rwcad_scores, rwcad_scores_loo, soft_harmonic,
                      softhad_score, stationary_distribution, train_maxmargin,
                      train_on_induced, weighted_knn_scores,
                      weighted_knn_scores_loo)
from graphssl.cad import LAMBDA_GRID
from graphssl.joint import _assign, elastic_joint, propagate_on_backbone
from graphssl.plan import ExperimentPlan, run_plan

from _synth import random_graph, random_labels, two_arcs, two_grid_squares


def _report(num: int, name: str, ok: bool) -> None:
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_01_compact_solution_oracle():
    start = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(50):
        n_distinct = int(rng.integers(18, 31))
        mult = rng.multinomial(60 - n_distinct, np.ones(n_distinct) / n_distinct) + 1
        base = rng.normal(size=(n_distinct, 2))
        labels = np.zeros(n_distinct, dtype=np.int64)
        lab_idx = rng.choice(n_distinct, 4, replace=False)
        labels[lab_idx] = np.array([1, -1, 1, -1])
        gamma = [0.0, 0.3, 1.0][trial % 3]

        expanded = np.repeat(base, mult, axis=0)
        labels_exp = np.repeat(labels, mult)
        g_exp = build_graph(PointSet(expanded, labels_exp),
                            GraphConfig(mode="epsilon", eps_cut=0.0, sigma=1.0))
        full = hard_harmonic(g_exp, labels_exp, gamma)

        g_c = build_graph(PointSet(base, labels),
                          GraphConfig(mode="epsilon", eps_cut=0.0, sigma=1.0))
        compact = compact_harmonic(CompactGraph(g_c.dense(), mult.astype(float)),
                                   labels, gamma)
        starts = np.concatenate([[0], np.cumsum(mult)[:-1]])
        worst = max(worst, float(np.max(np.abs(full.values[starts] - compact.values))))
    elapsed = time.time() - start
    _report(1, f"compact-solution oracle (max err {worst:.2e}, {elapsed:.1f}s)",
            worst < 1e-8 and elapsed < 10.0)


def test_02_harmonic_property_suite():
    worst = 0.0
    for trial in range(100):
        n = 20 + trial % 15
        g = random_graph(n, 4000 + trial)
        labels = random_labels(n, max(2, n // 6), trial)
        sol = hard_harmonic(g, labels, 0.0)
        w = g.dense()
        for i in np.flatnonzero(labels == 0):
            avg = w[i] @ sol.values / g.degrees[i]
            worst = max(worst, abs(sol.values[i] - avg))
    _report(2, f"harmonic property residual (max {worst:.2e})", worst < 1e-8)


def test_03_soft_solution_bound():
    rng = np.random.default_rng(13)
    ok = True
    for trial in range(100):
        n = int(rng.integers(10, 30))
        g = random_graph(n, 6000 + trial)
        labels = random_labels(n, int(rng.integers(1, n)), trial)
        n_l = int((labels != 0).sum())
        gamma = [0.1, 1.0, 10.0][trial % 3]
        c_val = float(rng.uniform(0.05, 1.0))
        sol = soft_harmonic(g, labels.astype(float), SoftConfig(gamma, c_val, c_val))
        ok &= np.linalg.norm(sol.values) <= np.sqrt(n_l) / (gamma + 1) + 1e-9
    _report(3, "soft-solution norm bound", bool(ok))


def test_04_stationary_distribution_fixed_point():
    worst_fp = worst_pi = 0.0
    for trial in range(100):
        n = 15 + trial % 20
        g = random_graph(n, 8000 + trial)
        s = stationary_distribution(g)
        p = g.dense() / g.degrees[:, None]
        worst_fp = max(worst_fp, float(np.max(np.abs(s @ p - s))))
        v = np.full(n, 1.0 / n)
        for _ in range(50000):
            nxt = v @ p
            if np.max(np.abs(nxt - v)) < 1e-15:
                v = nxt
                break
            v = nxt
        worst_pi = max(worst_pi, float(np.max(np.abs(v - s))))
    _report(4, f"stationary fixed point (fp {worst_fp:.2e}, power {worst_pi:.2e})",
            worst_fp < 1e-12 and worst_pi < 1e-10)


def test_05_doubling_quantizer_invariants():
    start = time.time()
    rng = np.random.default_rng(21)
    stream = rng.random((10_000, 2)) * 8.0
    state = QuantizerState(capacity=64, growth=1.5)
    assign = np.empty(10_000, dtype=np.int64)
    d_assigned = np.empty(10_000)
    ok = True
    for t in range(10_000):
        idx = state.observe(stream[t])
        if state.last_repartition is not None:
            mapping = np.array(state.last_repartition)
            assign[:t] = mapping[assign[:t]]
            pts = state.centroid_matrix()
            diff = stream[:t] - pts[assign[:t]]
            d_assigned[:t] = np.sqrt((diff * diff).sum(axis=1))
        assign[t] = idx
        pts = state.centroid_matrix()
        d_assigned[t] = np.linalg.norm(stream[t] - pts[idx])
        ok &= state.size <= 64
        ok &= sum(state.multiplicities) == t + 1
        if state.radius is not None and state.size > 1:
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
            np.fill_diagonal(d2, np.inf)
            ok &= bool(np.sqrt(d2.min()) >= state.radius - 1e-12)
        ok &= bool(d_assigned[:t + 1].max() <= max_distortion(state) + 1e-12)
        if not ok:
            break
    elapsed = time.time() - start
    _report(5, f"doubling quantizer invariants ({elapsed:.1f}s)",
            bool(ok) and elapsed < 60.0)


def test_06_rwcad_knn_identity_and_rank_agreement():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(60, 3))
    labels = np.where(rng.random(60) < 0.5, 1, -1)
    ps = PointSet(pts, labels)
    sigma = 0.8
    model = fit_cad_model(ps, lam=0.0, sigma=sigma)
    worst = 0.0
    for _ in range(25):
        x = rng.normal(size=3)
        diffs = pts - x
        k_all = np.exp(-(diffs * diffs).sum(axis=1) / (3 * sigma * sigma))
        m_pos, m_neg = k_all[labels == 1].sum(), k_all[labels == -1].sum()
        t_pos = model.vol[0] + 2 * m_pos
        t_neg = model.vol[1] + 2 * m_neg
        rw_ratio = (m_pos / t_pos) / (m_neg / t_neg)
        knn_ratio_corrected = (m_pos / m_neg) * (t_neg / t_pos)
        worst = max(worst, abs(rw_ratio - knn_ratio_corrected) / knn_ratio_corrected)

    # rank agreement at n = 1000
    big = gen_gauss_mixture(default_mixtures()["d3"], 1000, seed=404)
    model = fit_cad_model(big, lam=0.0, sigma=0.5)
    queries = rng.normal(1.0, 1.5, (400, 2))
    q_labels = np.where(rng.random(400) < 0.5, 1, -1)
    rw = rwcad_scores(model, queries, q_labels)
    knn = weighted_knn_scores(model, queries, q_labels)
    rho = float(spearmanr(rw, knn).statistic)
    _report(6, f"rwcad-knn identity (rel err {worst:.2e}) and rank corr {rho:.4f}",
            worst < 1e-10 and rho >= 0.99)


def test_07_core_dataset_behavior():
    spec = CoreSpec()
    sigma = 0.65
    rw_hits = rw_clean = knn_bait = 0
    for seed in range(20):
        train, test, truth = gen_core_dataset(spec, seed)
        tiny_mask = spec.in_tiny(test.points)
        best = (-1.0, None)
        for lam in LAMBDA_GRID:
            model = fit_cad_model(train, lam, sigma=sigma, priors="uniform")
            s = rwcad_scores(model, test.points, test.labels)
            a = auroc(s, truth.anomaly_mask)
            if a > best[0]:
                best = (a, s)
        top = np.argsort(-best[1], kind="stable")[:12]
        rw_hits += int(truth.anomaly_mask[top].sum()) >= 8
        rw_clean += int(tiny_mask[top].sum()) == 0
        model = fit_cad_model(train, 0.0, sigma=sigma, priors="uniform")
        s_knn = weighted_knn_scores(model, test.points, test.labels)
        topk = np.argsort(-s_knn, kind="stable")[:12]
        knn_bait += int(tiny_mask[topk].sum()) >= 1
    _report(7, f"core behavior (rw>=8: {rw_hits}/20, rw tiny-free: {rw_clean}/20, "
               f"knn baited: {knn_bait}/20)",
            rw_hits >= 16 and rw_clean >= 16 and knn_bait >= 10)


def test_08_mixture_cad_ordering():
    start = time.time()
    sigma, knn_k, gamma_g = 0.4, 10, 0.1
    summary = {}
    for name, spec in default_mixtures().items():
        res = {"softhad": [], "rwcad": [], "knn": []}
        for run in range(10):
            seed = 100 + run
            clean = gen_gauss_mixture(spec, 1000, seed)
            ps, mask = flip_labels(clean, 0.03, seed + 1_000_003)
            best = -1.0
            for lam in LAMBDA_GRID:
                best = max(best, auroc(rwcad_scores_loo(ps, lam, sigma=sigma), mask))
            res["rwcad"].append(best)
            res["knn"].append(auroc(weighted_knn_scores_loo(ps, sigma=sigma), mask))
            g = build_graph(ps, GraphConfig(mode="knn", k_neighbors=knn_k, sigma=sigma))
            res["softhad"].append(auroc(
                softhad_score(g, ps.labels.astype(float), SoftConfig(gamma_g, 1.0, 1.0)),
                mask))
        summary[name] = {m: (float(np.mean(v)), float(np.std(v, ddof=1) / np.sqrt(10)))
                         for m, v in res.items()}
    elapsed = time.time() - start
    ok = elapsed < 300.0
    for d in summary:
        for m in ("softhad", "rwcad", "knn"):
            mean, se = summary[d][m]
            ok &= mean > 0.5 + 3 * se
            if m != "knn":
                ok &= mean > 0.60
    for m in ("softhad", "rwcad"):
        wins = sum(summary[d][m][0] > summary[d]["knn"][0] for d in summary)
        ok &= wins >= 2
    means = {d: {m: round(v[0], 3) for m, v in row.items()} for d, row in summary.items()}
    _report(8, f"mixture ordering {means} ({elapsed:.0f}s)", bool(ok))


def test_09_two_squares_separation():
    ps, true = two_grid_squares()
    g = build_graph(ps, GraphConfig(mode="epsilon", eps_cut=0.2,
                                    sigma=np.sqrt(2.0), normalize_by_p=False))
    clf = train_on_induced(ps.points, g, ps.labels, gamma=1e-3, gamma_g=1e-6,
                           epsilon=1e-6, kernel=KernelSpec("linear"))
    gc_errors = int(np.sum(np.sign(clf.decision_values(ps.points)) != true))
    labeled = ps.labels != 0
    svm = train_maxmargin(ps.points[labeled], ps.labels[labeled].astype(float),
                          KernelSpec("linear"), gamma=1e-3)
    svm_errors = int(np.sum(np.sign(svm.decision_values(ps.points)) != true))
    _report(9, f"two-squares separation (graph cut errors {gc_errors}, "
               f"supervised-only errors {svm_errors})",
            gc_errors == 0 and svm_errors > 0)


def _separable_stream(n=500, n_labeled=10, seed=51):
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(0.0, 0.5, (half, 2))
    b = rng.normal(4.0, 0.5, (n - half, 2))
    pts = np.vstack([a, b])
    true = np.concatenate([np.ones(half, dtype=int), -np.ones(n - half, dtype=int)])
    order = rng.permutation(n)
    pts, true = pts[order], true[order]
    labels = np.zeros(n, dtype=int)
    # stream starts with the labeled examples, alternating classes
    pos_idx = np.flatnonzero(true == 1)[:n_labeled // 2]
    neg_idx = np.flatnonzero(true == -1)[:n_labeled // 2]
    # same-cluster pair first so the initial radius is a within-cluster
    # distance rather than the cluster gap
    front = np.concatenate([pos_idx, neg_idx])
    rest = np.setdiff1d(np.arange(n), front)
    new_order = np.concatenate([front, rest])
    pts, true = pts[new_order], true[new_order]
    # a close opening pair keeps the initial radius small, so the centroid
    # budget binds and the radius-doubling dynamics actually engage
    pts[1] = pts[0] + np.array([0.05, 0.02])
    true[1] = true[0]
    labels = np.zeros(n, dtype=int)
    labels[:n_labeled] = true[:n_labeled]
    return pts, labels, true


def test_10_online_vs_offline_agreement():
    pts, labels, true = _separable_stream()
    sigma, gamma_g = 0.8, 0.01
    cfg = GraphConfig(mode="epsilon", sigma=sigma)
    state = QuantizerState(capacity=100, growth=1.5)
    correct = total = 0
    for t in range(pts.shape[0]):
        step = predict_online(state, pts[t], int(labels[t]), gamma_g, cfg)
        if labels[t] == 0 and not step.abstained:
            total += 1
            correct += int(step.prediction == true[t])
    online_acc = correct / total

    ps = PointSet(pts, labels)
    g = build_graph(ps, GraphConfig(mode="epsilon", eps_cut=0.1 * gamma_g, sigma=sigma))
    off = hard_harmonic(g, labels, gamma_g)
    unl = labels == 0
    offline_acc = float(np.mean(np.sign(off.values[unl]) == true[unl]))

    # quantized-vs-observed normalized Laplacian distance shrinks with capacity
    frob = []
    for capacity in (25, 50, 100, 200):
        st = QuantizerState(capacity, 1.5)
        assign = np.empty(pts.shape[0], dtype=np.int64)
        for t in range(pts.shape[0]):
            idx = st.observe(pts[t])
            if st.last_repartition is not None:
                assign[:t] = np.array(st.last_repartition)[assign[:t]]
            assign[t] = idx
        quant_pts = st.centroid_matrix()[assign]
        g_q = build_graph(PointSet(quant_pts, np.zeros(len(quant_pts), dtype=int)),
                          GraphConfig(mode="epsilon", eps_cut=0.0, sigma=sigma))
        g_o = build_graph(PointSet(pts, np.zeros(len(pts), dtype=int)),
                          GraphConfig(mode="epsilon", eps_cut=0.0, sigma=sigma))
        diff = (laplacian(g_q, normalized=True) - laplacian(g_o, normalized=True))
        frob.append(float(sp.linalg.norm(diff)))
    monotone = all(b <= a + 1e-12 for a, b in zip(frob, frob[1:]))
    _report(10, f"online acc {online_acc:.3f} vs offline {offline_acc:.3f}, "
                f"Frobenius trend {[round(f, 3) for f in frob]}",
            abs(online_acc - offline_acc) <= 0.05 and monotone)


def test_11_joint_quantization_sanity():
    ps, _ = two_arcs(200, seed=10, labeled_per_class=5)
    cfg = JointConfig(k=20, sigma=0.35, kmeans_init=True)

    # residual of the centroid system at every replayed iteration
    state = elastic_joint(ps, cfg, seed=0)
    worst = 0.0
    for _ in range(5):
        state.soft_labels = propagate_on_backbone(state, cfg)
        new = quantization_step(state, cfg, ps.points)
        total, n = state.n_nodes, ps.n
        lab = state.soft_labels
        q = (lab[:, None] - lab[None, :]) ** 2 / (total ** 2 * state.sigma ** 2)
        counts = np.bincount(state.assignment, minlength=total)
        for j in range(state.n_labeled, total):
            lhs = sum(q[i, j] * new[i] for i in range(total))
            lhs += new[j] * (2 * cfg.gamma_q * counts[j] / n - q[:, j].sum())
            rhs = 2 * cfg.gamma_q / n * ps.points[state.assignment == j].sum(axis=0)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        state.centroids = new
        state.assignment = _assign(ps.points, state.centroids, ps.feature_weights)

    # uniform soft labels reduce the update to the k-means step
    uniform = elastic_joint(ps, JointConfig(k=5, sigma=0.35), seed=1)
    uniform.soft_labels = np.full(uniform.n_nodes, 0.25)
    new = quantization_step(uniform, JointConfig(k=5, sigma=0.35), ps.points)
    kmeans_exact = True
    for j in range(uniform.n_labeled, uniform.n_nodes):
        members = ps.points[uniform.assignment == j]
        if members.shape[0]:
            kmeans_exact &= bool(np.allclose(new[j], members.mean(axis=0), atol=1e-10))

    from test_joint import _kmeans_then_propagate_objective
    wins = 0
    for seed in range(10):
        ours = elastic_joint(ps, cfg, seed=seed).objective_trace[-1]
        base = _kmeans_then_propagate_objective(ps, cfg, seed)
        wins += int(ours <= base + 1e-9)
    _report(11, f"joint sanity (residual {worst:.2e}, kmeans-exact {kmeans_exact}, "
                f"wins {wins}/10)",
            worst < 1e-8 and kmeans_exact and wins >= 8)


def test_12_run_plan_determinism(tmp_path):
    mix = tmp_path / "mix.cfg"
    mix.write_text(
        "type = mixture\nprior_pos = 0.5\n"
        "pos.weights = [1.0]\npos.means = [[1.5, 0.0]]\n"
        "pos.covs = [[[1.0, 0.0], [0.0, 1.0]]]\n"
        "neg.weights = [1.0]\nneg.means = [[-1.5, 0.0]]\n"
        "neg.covs = [[[1.0, 0.0], [0.0, 1.0]]]\n")
    summaries = []
    for rep in range(2):
        outdir = tmp_path / f"rep{rep}"
        plan = ExperimentPlan(method="rwcad", grid={"lambda": [0.01, 1.0]},
                              dataset=str(mix), n_samples=150, flip_fraction=0.04,
                              n_runs=3, base_seed=11, outdir=str(outdir))
        run_plan(plan, threads=2)
        summaries.append((outdir / "summary.csv").read_bytes())
    _report(12, "run-plan byte-identical re-execution", summaries[0] == summaries[1])
