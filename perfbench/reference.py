"""Independent dense reference computations for the benchmark's output checks.

Nothing here calls into ``graphssl`` beyond reading the inputs it is given:
distances come from scipy, systems are solved densely or with SuperLU, and
AUROC uses scipy's average ranks.  Sizes are the benchmark's (n <= a few
thousand), where dense n x n arrays are affordable.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist
from scipy.stats import rankdata


def auroc(scores: np.ndarray, truth: np.ndarray) -> float:
    truth = np.asarray(truth, dtype=bool)
    ranks = rankdata(scores)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    return (float(ranks[truth].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def gaussian_kernel(x: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-|xi - xj|^2 / (p sigma^2)) with a zero diagonal."""
    k = np.exp(-cdist(x, x, "sqeuclidean") / (x.shape[1] * sigma * sigma))
    np.fill_diagonal(k, 0.0)
    return k


def loo_scores(x: np.ndarray, y: np.ndarray, sigma: float, lambdas) -> dict:
    """Leave-one-out rwcad scores for each lambda, plus the weighted-kNN
    score, from one kernel matrix (empirical priors)."""
    k = gaussian_kernel(x, sigma)
    pos = y == 1
    m_pos = k[:, pos].sum(axis=1)
    m_neg = k[:, ~pos].sum(axis=1)
    vol_pos = float(k[np.ix_(pos, pos)].sum())
    vol_neg = float(k[np.ix_(~pos, ~pos)].sum())
    prior_pos = pos.mean()
    v_pos = np.where(pos, vol_pos - 2.0 * m_pos, vol_pos)
    v_neg = np.where(pos, vol_neg, vol_neg - 2.0 * m_neg)
    like_pos = prior_pos * m_pos / (v_pos + 2.0 * m_pos)
    like_neg = (1.0 - prior_pos) * m_neg / (v_neg + 2.0 * m_neg)
    opposite = np.where(pos, like_neg, like_pos)
    out = {("rwcad", lam): opposite / (lam + like_pos + like_neg) for lam in lambdas}
    out[("knn", None)] = 1.0 - np.where(pos, m_pos, m_neg) / (m_pos + m_neg)
    return out


def knn_weights(x: np.ndarray, sigma: float, k: int) -> sp.csr_matrix:
    """Union-rule k-NN Gaussian graph; ties between equal distances go to
    the lower index."""
    d = cdist(x, x, "sqeuclidean")
    w = np.exp(-d / (x.shape[1] * sigma * sigma))
    np.fill_diagonal(d, np.inf)
    nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(x.shape[0]), k)
    keep = sp.csr_matrix((np.ones(rows.size), (rows, nearest.ravel())), shape=d.shape)
    keep = ((keep + keep.T) > 0).astype(np.float64)
    out = sp.csr_matrix(keep.multiply(w))
    out.eliminate_zeros()       # far neighbours whose weight underflows to 0
    return out


def _laplacian(w: sp.csr_matrix) -> sp.csr_matrix:
    return (sp.diags(np.asarray(w.sum(axis=1)).ravel()) - w).tocsr()


def softhad_scores(x: np.ndarray, y: np.ndarray, sigma: float, k: int, gamma_g: float,
                   c: float) -> np.ndarray:
    """|l - y| for (L + gamma_g I + c I) l = c y on the k-NN graph."""
    w = knn_weights(x, sigma, k)
    a = _laplacian(w) + sp.identity(len(y)) * (gamma_g + c)
    return np.abs(spla.spsolve(a.tocsc(), c * y) - y)


def hard_solution(w: sp.csr_matrix, labels: np.ndarray, gamma_g: float) -> np.ndarray:
    """Clamped harmonic values by a direct solve of
    (L_uu + gamma_g I) l_u = W_ul y_l."""
    lab = labels != 0
    u, l = np.flatnonzero(~lab), np.flatnonzero(lab)
    a = _laplacian(w)[np.ix_(u, u)] + gamma_g * sp.identity(u.size)
    values = labels.astype(np.float64)
    values[u] = spla.spsolve(a.tocsc(), w[np.ix_(u, l)] @ values[l])
    return values


def soft_solution(w: sp.csr_matrix, labels: np.ndarray, gamma_g: float, c_l: float,
                  c_u: float) -> np.ndarray:
    c = np.where(labels != 0, c_l, c_u)
    a = _laplacian(w) + sp.diags(c + gamma_g)
    return spla.spsolve(a.tocsc(), c * labels)


def online_replay(points: np.ndarray, labels: np.ndarray, capacity: int, growth: float,
                  sigma: float, gamma_g: float) -> dict:
    """Replay the online quantizer and its compact harmonic prediction.

    Quantizer: merge into the nearest centroid within the radius, else add
    a centroid (the first distinct pair sets the radius); over capacity,
    grow the radius until a greedy in-order scan keeps at most ``capacity``
    centroids pairwise >= radius apart and fold every dropped centroid into
    its nearest survivor.  Prediction: sign of the clamped harmonic value
    with sink gamma_g * multiplicity on the centroid graph W = V K V (K cut
    below 0.1 gamma_g), solved within the point's component; abstain when
    that component has no label or the value is exactly 0.
    """
    cents: list[np.ndarray] = []
    mult: list[int] = []
    clab: list[int] = []
    radius = None
    conflicts = repartitions = 0
    preds = np.zeros(len(labels), dtype=np.int64)

    def merge_label(target_label: int, label: int) -> int:
        nonlocal conflicts
        if label == 0:
            return target_label
        if target_label == 0:
            return label
        if target_label != label:
            conflicts += 1
        return target_label

    for t, (x, label) in enumerate(zip(points, labels)):
        label = int(label)
        if not cents:
            cents, mult, clab, idx = [x.copy()], [1], [label], 0
        else:
            d2 = ((np.asarray(cents) - x) ** 2).sum(axis=1)
            near = int(np.argmin(d2))
            absorb = d2[near] == 0.0 if radius is None else d2[near] < radius * radius
            if absorb:
                mult[near] += 1
                clab[near] = merge_label(clab[near], label)
                idx = near
            else:
                if radius is None:
                    radius = float(np.sqrt(d2[near]))
                cents.append(x.copy())
                mult.append(1)
                clab.append(label)
                idx = len(cents) - 1
        if len(cents) > capacity:
            repartitions += 1
            c = np.asarray(cents)
            d2 = ((c[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            while True:
                radius *= growth
                keep: list[int] = []
                for i in range(len(cents)):
                    if all(d2[i, j] >= radius * radius for j in keep):
                        keep.append(i)
                if len(keep) <= capacity:
                    break
            new_of = {old: new for new, old in enumerate(keep)}
            new_mult = [mult[i] for i in keep]
            new_lab = [clab[i] for i in keep]
            for i in range(len(cents)):
                if i in new_of:
                    continue
                target = int(np.argmin(d2[i, keep]))
                new_of[i] = target
                new_mult[target] += mult[i]
                new_lab[target] = merge_label(new_lab[target], clab[i])
            idx = new_of[idx]
            cents = [cents[i] for i in keep]
            mult, clab = new_mult, new_lab
        preds[t] = _compact_predict(np.asarray(cents), np.asarray(mult, dtype=np.float64),
                                    np.asarray(clab, dtype=np.float64), idx, sigma, gamma_g)
    return {"predictions": preds, "repartitions": repartitions,
            "label_conflicts": conflicts, "centroids": len(cents)}


def _compact_predict(c, v, y, idx, sigma, gamma_g) -> int:
    if not np.any(y != 0):
        return 0
    k = np.exp(-cdist(c, c, "sqeuclidean") / (c.shape[1] * sigma * sigma))
    np.fill_diagonal(k, 0.0)
    k[k < 0.1 * gamma_g] = 0.0
    _, comp_of = connected_components(sp.csr_matrix(k), directed=False)
    comp = np.flatnonzero(comp_of == comp_of[idx])
    y, v = y[comp], v[comp]
    if not np.any(y != 0):
        return 0
    w = v[:, None] * k[np.ix_(comp, comp)] * v[None, :]
    u, l = np.flatnonzero(y == 0), np.flatnonzero(y != 0)
    pos = int(np.flatnonzero(comp == idx)[0])
    if y[pos] != 0:
        return int(np.sign(y[pos]))
    a = np.diag(w.sum(axis=1))[np.ix_(u, u)] - w[np.ix_(u, u)] + np.diag(gamma_g * v[u])
    values = np.linalg.solve(a, w[np.ix_(u, l)] @ y[l])
    value = values[int(np.flatnonzero(u == pos)[0])]
    return int(np.sign(value))
