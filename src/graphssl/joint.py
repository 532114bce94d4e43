"""Joint optimization of backbone centroids and propagated labels.

Alternates two steps on a small backbone graph whose first m nodes are the
labeled points (pinned) and whose remaining k nodes are free centroids:

1. label propagation — solve the soft fit/smoothness trade-off on the
   current backbone graph;
2. quantization — move the free centroids by solving a k x k linear
   system that blends a k-means pull toward assigned points with a
   label-difference term (the Gaussian similarity linearized around the
   current positions) pushing differently-labeled centroids apart.

Points are finally labeled by their nearest centroid (1-NN).  The backbone
graph's degree, the outer stopping tolerance and the inner step cap are the
constants BACKBONE_KNN, CONV_TOL and INNER_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InputError
from .graph import GraphConfig, PointSet, build_graph, sigma_from_points
from .harmonic import SoftConfig, soft_harmonic
from .rng import PortableRng

BACKBONE_KNN = 3    # neighbours per node of the backbone's k-NN graph
CONV_TOL = 1e-6     # relative objective change that ends the outer loop
INNER_CAP = 30      # quantization steps per outer iteration, at most


@dataclass(frozen=True)
class JointConfig:
    """Knobs of the alternating optimization.

    k free centroids; gamma_q scales the quantization pull; f_l and f_u
    are the fit weights of labeled and free backbone nodes (f_l > f_u);
    sigma == None applies the usual width heuristic on the data.
    """

    k: int
    gamma_q: float = 1e5
    gamma_g: float = 1e-6
    f_l: float = 10.0
    f_u: float = 0.1
    sigma: float | None = None
    max_outer: int = 10
    kmeans_init: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise InputError("k must be >= 1")
        if not self.gamma_q > 0:
            raise InputError("gamma_q must be positive")
        if not (self.f_l > self.f_u > 0):
            raise InputError("need f_l > f_u > 0")


@dataclass
class BackboneState:
    """Backbone nodes (the m labeled points first, then k free centroids),
    their propagated labels, the point-to-centroid assignment, and the
    objective recorded once per outer iteration."""

    centroids: np.ndarray
    pinned_labels: np.ndarray          # +-1 labels of the first m nodes
    soft_labels: np.ndarray
    assignment: np.ndarray
    sigma: float
    objective_trace: list[float] = field(default_factory=list)
    feature_weights: np.ndarray | None = None

    @property
    def n_labeled(self) -> int:
        return self.pinned_labels.size

    @property
    def n_nodes(self) -> int:
        return self.centroids.shape[0]

    def node_labels(self) -> np.ndarray:
        return np.concatenate([
            self.pinned_labels,
            np.zeros(self.n_nodes - self.n_labeled, dtype=np.int64),
        ])


def _assign(points: np.ndarray, centroids: np.ndarray, psi: np.ndarray) -> np.ndarray:
    d2 = _kernels.cross_sq_dists(points, centroids, psi)
    return np.argmin(d2, axis=1).astype(np.int64)


def _backbone_graph(state: BackboneState, cfg: JointConfig):
    ps = PointSet(state.centroids, state.node_labels(), state.feature_weights)
    gcfg = GraphConfig(mode="knn", k_neighbors=min(BACKBONE_KNN, state.n_nodes - 1),
                       sigma=state.sigma)
    return build_graph(ps, gcfg)


def propagate_on_backbone(state: BackboneState, cfg: JointConfig) -> np.ndarray:
    """Soft labels on the current backbone graph: fit weight f_l on the
    labeled nodes, f_u on the free ones, smoothness from the
    sink-regularized backbone Laplacian."""
    g = _backbone_graph(state, cfg)
    y = state.node_labels().astype(np.float64)
    soft = soft_harmonic(g, y, SoftConfig(gamma_g=cfg.gamma_g, c_l=cfg.f_l, c_u=cfg.f_u))
    return soft.values


def _centroid_system(state: BackboneState, cfg: JointConfig, points: np.ndarray):
    """k x k system for the free centroids at the current labels and
    assignment; returns (a, rhs) with one rhs column per feature."""
    m, total = state.n_labeled, state.n_nodes
    n = points.shape[0]
    lab = state.soft_labels
    q = (lab[:, None] - lab[None, :]) ** 2 / ((total ** 2) * (state.sigma ** 2))
    counts = np.bincount(state.assignment, minlength=total).astype(np.float64)
    sums = np.zeros((total, points.shape[1]))
    np.add.at(sums, state.assignment, points)

    free = np.arange(m, total)
    a = q[np.ix_(free, free)].T.copy()          # a[j, b] = q[b, j]
    a[np.diag_indices(total - m)] += 2.0 * cfg.gamma_q * counts[free] / n - q.sum(axis=0)[free]
    rhs = 2.0 * cfg.gamma_q / n * sums[free]
    if m:
        rhs -= q[:m, free].T @ state.centroids[:m]
    return a, rhs


def quantization_step(state: BackboneState, cfg: JointConfig, points: np.ndarray,
                      psi: np.ndarray) -> np.ndarray:
    """Solve for new free centroid positions; labeled nodes never move.

    A singular system (typically an empty cluster whose row degenerates)
    re-seeds each empty cluster at the point farthest from the current
    backbone, rebuilds, and retries once before falling back to a
    least-squares solve.
    """
    m, total = state.n_labeled, state.n_nodes
    free = np.arange(m, total)
    a, rhs = _centroid_system(state, cfg, points)
    new = state.centroids.copy()
    try:
        new[free] = np.linalg.solve(a, rhs)
        return new
    except np.linalg.LinAlgError:
        pass
    reseeded = state.centroids.copy()
    _reseed_empty(reseeded, m, state.assignment, points, psi)
    retry = BackboneState(reseeded, state.pinned_labels, state.soft_labels,
                          _assign(points, reseeded, psi), state.sigma,
                          feature_weights=state.feature_weights)
    a, rhs = _centroid_system(retry, cfg, points)
    try:
        reseeded[free] = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        reseeded[free] = np.linalg.lstsq(a, rhs, rcond=None)[0]
    return reseeded


def quantization_surrogate(state: BackboneState, cfg: JointConfig,
                           points: np.ndarray) -> float:
    """Linearized quantization objective at the current state: the
    label-spread term plus the k-means pull."""
    lab = state.soft_labels
    total = state.n_nodes
    c = state.centroids
    d2 = _kernels.pairwise_sq_dists(c, np.ones(c.shape[1]))
    spread = float(((lab[:, None] - lab[None, :]) ** 2 * d2).sum())
    spread *= -1.0 / (2.0 * (state.sigma ** 2) * total ** 2)
    pull = cfg.gamma_q / points.shape[0] * float(
        ((points - c[state.assignment]) ** 2).sum())
    return spread + pull


def joint_objective(state: BackboneState, cfg: JointConfig, points: np.ndarray) -> float:
    """Full objective: soft fit + smoothness on the backbone graph +
    scaled quantization penalty."""
    g = _backbone_graph(state, cfg)
    lab = state.soft_labels
    y = state.node_labels().astype(np.float64)
    f_diag = np.where(y != 0, cfg.f_l, cfg.f_u)
    resid = lab - y
    fit = float(resid @ (f_diag * resid))
    smooth = float(lab @ (g.degrees * lab) - lab @ (g.weights @ lab))
    smooth += cfg.gamma_g * float(lab @ lab)
    quant = cfg.gamma_q * (state.n_nodes ** 2) / points.shape[0] * float(
        ((points - state.centroids[state.assignment]) ** 2).sum())
    return fit + smooth + quant


def elastic_joint(ps: PointSet, cfg: JointConfig, seed: int) -> BackboneState:
    """Alternate label propagation and centroid updates until the
    objective stalls or the outer cap is reached; a final propagation
    leaves soft labels consistent with the final backbone."""
    labeled_idx = np.flatnonzero(ps.labels != 0)
    m = labeled_idx.size
    if m < 1:
        raise InputError("at least one labeled point required")
    if ps.n <= m + cfg.k:
        raise InputError("need more points than backbone nodes")
    sigma = cfg.sigma if cfg.sigma is not None else sigma_from_points(ps.points)
    rng = PortableRng(seed)
    unlabeled_idx = np.flatnonzero(ps.labels == 0)
    pool = ps.points[unlabeled_idx]
    if cfg.kmeans_init:
        seeds = _kmeans_seed(pool, cfg.k, rng, ps.feature_weights)
    else:
        seeds = ps.points[unlabeled_idx[rng.choice(unlabeled_idx.size, cfg.k)]]
    centroids = np.vstack([ps.points[labeled_idx], seeds])

    state = BackboneState(
        centroids=centroids,
        pinned_labels=ps.labels[labeled_idx].copy(),
        soft_labels=np.concatenate([ps.labels[labeled_idx].astype(np.float64),
                                    np.zeros(cfg.k)]),
        assignment=_assign(ps.points, centroids, ps.feature_weights),
        sigma=sigma,
        feature_weights=ps.feature_weights,
    )

    prev_obj = None
    for _ in range(cfg.max_outer):
        state.soft_labels = propagate_on_backbone(state, cfg)
        obj = joint_objective(state, cfg, ps.points)
        state.objective_trace.append(obj)
        for _ in range(INNER_CAP):
            state.centroids = quantization_step(state, cfg, ps.points, ps.feature_weights)
            new_assign = _assign(ps.points, state.centroids, ps.feature_weights)
            reseeded = _reseed_empty(state.centroids, m, new_assign, pool, ps.feature_weights)
            if reseeded:
                new_assign = _assign(ps.points, state.centroids, ps.feature_weights)
            changed = bool(np.any(new_assign != state.assignment)) or reseeded
            state.assignment = new_assign
            if not changed:
                break
        if prev_obj is not None and abs(prev_obj - obj) <= CONV_TOL * max(abs(prev_obj), 1.0):
            break
        prev_obj = obj
    state.soft_labels = propagate_on_backbone(state, cfg)
    state.objective_trace.append(joint_objective(state, cfg, ps.points))
    return state


def _reseed_empty(centroids: np.ndarray, n_labeled: int, assignment: np.ndarray,
                  pool: np.ndarray, psi: np.ndarray) -> bool:
    """Move each free centroid (row n_labeled on) that no point is assigned
    to, in index order, to the pool row farthest from the current
    centroids; returns whether any moved.  A dead centroid otherwise
    drifts on the tiny label terms alone and wastes its capacity."""
    counts = np.bincount(assignment, minlength=centroids.shape[0])
    empty = [j for j in range(n_labeled, centroids.shape[0]) if counts[j] == 0]
    if not empty:
        return False
    nearest = _kernels.cross_sq_dists(pool, centroids, psi).min(axis=1)
    for j in empty:
        far = int(np.argmax(nearest))
        centroids[j] = pool[far]
        nearest = np.minimum(nearest, _kernels.cross_sq_dists(
            pool, centroids[j][None, :], psi).ravel())
    return True


def _kmeans_seed(points: np.ndarray, k: int, rng: PortableRng, psi: np.ndarray,
                 iters: int = 100) -> np.ndarray:
    centroids = points[rng.choice(points.shape[0], k)].copy()
    for _ in range(iters):
        assign = _assign(points, centroids, psi)
        moved = False
        for j in range(k):
            members = points[assign == j]
            if members.size:
                new = members.mean(axis=0)
                if not np.array_equal(new, centroids[j]):
                    centroids[j] = new
                    moved = True
        if not moved:
            break
    return centroids


def infer_unlabeled(ps: PointSet, state: BackboneState) -> tuple[np.ndarray, np.ndarray]:
    """1-NN inference: each point takes the soft label of its nearest
    centroid (ties resolve to the lowest centroid index).  Returns
    (soft values, sign predictions)."""
    assign = _assign(ps.points, state.centroids, ps.feature_weights)
    values = state.soft_labels[assign]
    return values, np.sign(values).astype(np.int64)
