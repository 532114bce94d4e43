"""Joint optimization of backbone centroids and propagated labels.

Alternates two steps on a small backbone graph whose first m nodes are the
labeled points (pinned) and whose remaining k nodes are free centroids:

1. label propagation — solve the soft fit/smoothness trade-off on the
   current backbone graph;
2. quantization — move the free centroids by solving a k x k linear
   system that blends a k-means pull toward assigned points with a
   label-difference term (the Gaussian similarity linearized around the
   current positions) pushing differently-labeled centroids apart.

Every assignment of the n points to their nearest backbone node measures
only the n x k distances to the free centroids: the distances to the pinned
nodes, which never move, are measured once per fit.  Points are finally
labeled by their nearest centroid (1-NN).  Every nearest-node search runs
over ``graph.sq_dist_blocks``, one block of distances at a time.  The
backbone graph's degree, the outer iteration cap, the outer stopping
tolerance and the inner step cap are the constants BACKBONE_KNN,
MAX_OUTER, CONV_TOL and INNER_CAP.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InputError
from .graph import (GraphConfig, PointSet, build_graph, check_sigma, resolve_sigma,
                    sq_dist_blocks)
from .harmonic import check_gamma_g, solve_harmonic
from .rng import PortableRng

BACKBONE_KNN = 3    # neighbours per node of the backbone's k-NN graph
MAX_OUTER = 10      # outer iterations, at most
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
    kmeans_init: bool = False

    def __post_init__(self):
        try:
            object.__setattr__(self, "k", operator.index(self.k))
        except TypeError:
            raise InputError(f"k must be an integer, got {self.k!r}") from None
        if self.k < 1:
            raise InputError("k must be >= 1")
        for name in ("gamma_q", "f_l", "f_u"):
            if not np.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.gamma_q > 0:
            raise InputError("gamma_q must be positive")
        if not (self.f_l > self.f_u > 0):
            raise InputError("need f_l > f_u > 0")
        check_gamma_g(self.gamma_g)
        if self.sigma is not None:
            check_sigma(self.sigma)


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


def _nearest(points: np.ndarray, centroids: np.ndarray, psi: np.ndarray):
    """Index of each point's nearest centroid and its squared distance, one
    distance block at a time; a tie goes to the lowest index, as argmin's
    does."""
    near, near_d2 = np.empty(len(points), dtype=np.int64), np.empty(len(points))
    for rows, d2 in sq_dist_blocks(points, centroids, psi):
        near[rows] = np.argmin(d2, axis=1)
        near_d2[rows] = d2[np.arange(d2.shape[0]), near[rows]]
        del d2                  # before the next block is formed
    return near, near_d2


def _assign(points: np.ndarray, centroids: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return _nearest(points, centroids, psi)[0]


def _pinned_assigner(points: np.ndarray, pinned: np.ndarray, psi: np.ndarray):
    """``_assign(points, centroids, psi)`` for backbones whose first m rows
    are ``pinned``, which never move: their distances are measured here
    once, and each call of the returned function measures only the n x k
    distances to the free rows.  A pinned node wins a tie with a free one,
    as argmin's first index does."""
    m = pinned.shape[0]
    near, near_d2 = _nearest(points, pinned, psi)

    def assign(centroids: np.ndarray) -> np.ndarray:
        free, free_d2 = _nearest(points, centroids[m:], psi)
        return np.where(near_d2 <= free_d2, near, free + m)

    return assign


def _backbone_weights(state: BackboneState):
    """The backbone's k-NN weights, from ``build_graph``."""
    ps = PointSet(state.centroids, state.node_labels(), state.feature_weights)
    gcfg = GraphConfig(mode="knn", k_neighbors=min(BACKBONE_KNN, ps.n - 1), sigma=state.sigma)
    return build_graph(ps, gcfg).weights


def propagate_on_backbone(state: BackboneState, cfg: JointConfig) -> np.ndarray:
    """Soft labels on the current backbone graph: fit weight f_l on the
    labeled nodes, f_u on the free ones, smoothness from the
    sink-regularized backbone Laplacian."""
    return _propagate(state, cfg, _backbone_weights(state))


def _propagate(state: BackboneState, cfg: JointConfig, w) -> np.ndarray:
    y = state.node_labels().astype(np.float64)
    return solve_harmonic(w, y, cfg.gamma_g, np.where(y != 0, cfg.f_l, cfg.f_u))


def _centroid_system(state: BackboneState, cfg: JointConfig, points: np.ndarray):
    """k x k system for the free centroids at the current labels and
    assignment; returns (a, rhs) with one rhs column per feature."""
    m, total = state.n_labeled, state.n_nodes
    n = points.shape[0]
    lab = state.soft_labels
    # the free columns of the label-difference matrix, (m + k) x k
    q = (lab[:, None] - lab[None, m:]) ** 2 / ((total ** 2) * (state.sigma ** 2))
    counts = np.bincount(state.assignment, minlength=total).astype(np.float64)
    # bincount adds in point order, as np.add.at does, in a sixth of its time
    sums = np.column_stack([np.bincount(state.assignment, weights=col, minlength=total)
                            for col in points.T])

    a = q[m:].T.copy()                          # a[j, b] = q[b, j]
    # column sums added row by row; q.sum(axis=0) adds a lone column pairwise
    a[np.diag_indices(total - m)] += (2.0 * cfg.gamma_q * counts[m:] / n
                                      - np.cumsum(q, axis=0)[-1])
    rhs = 2.0 * cfg.gamma_q / n * sums[m:]
    if m:
        # a C-ordered k x m operand: BLAS's bits depend on the layout
        rhs -= np.ascontiguousarray(q[:m].T) @ state.centroids[:m]
    return a, rhs


def quantization_step(state: BackboneState, cfg: JointConfig, points: np.ndarray) -> np.ndarray:
    """Solve for new free centroid positions; labeled nodes never move.

    A singular system (typically a free centroid that no point is assigned
    to, under uniform labels) falls back to the least-squares step of least
    movement, so a centroid that neither a point nor a label term places
    stays where it is; ``elastic_joint`` re-seeds it between steps.  A
    system or step past the float range raises ``InputError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a, rhs = _centroid_system(state, cfg, points)
    _check_finite(state, a, rhs)
    new = state.centroids.copy()
    free = new[state.n_labeled:]
    try:
        free[:] = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        free += np.linalg.lstsq(a, rhs - a @ free, rcond=None)[0]
    _check_finite(state, free)
    return new


def _check_finite(state: BackboneState, *values) -> None:
    """InputError unless every value is finite: the points' spread, or
    1 / sigma^2, is too large for the joint fit's float range."""
    if not all(np.isfinite(v).all() for v in values):
        raise InputError(f"the joint fit overflows at sigma={state.sigma!r}: the points' "
                         "spread or 1 / sigma^2 is too large")


def quantization_surrogate(state: BackboneState, cfg: JointConfig,
                           points: np.ndarray) -> float:
    """Linearized quantization objective at the current state: the
    label-spread term plus the k-means pull."""
    lab = state.soft_labels
    total = state.n_nodes
    c = state.centroids
    d2 = _kernels.pairwise_sq_dists(c, None)
    spread = float(((lab[:, None] - lab[None, :]) ** 2 * d2).sum())
    spread *= -1.0 / (2.0 * (state.sigma ** 2) * total ** 2)
    pull = cfg.gamma_q / points.shape[0] * float(
        ((points - c[state.assignment]) ** 2).sum())
    return spread + pull


def joint_objective(state: BackboneState, cfg: JointConfig, points: np.ndarray) -> float:
    """Full objective: soft fit + smoothness on the backbone graph +
    scaled quantization penalty."""
    return _objective(state, cfg, points, _backbone_weights(state))


def _objective(state: BackboneState, cfg: JointConfig, points: np.ndarray, w) -> float:
    lab = state.soft_labels
    y = state.node_labels().astype(np.float64)
    f_diag = np.where(y != 0, cfg.f_l, cfg.f_u)
    resid = lab - y
    fit = float(resid @ (f_diag * resid))
    degrees = np.asarray(w.sum(axis=1)).ravel()
    smooth = float(lab @ (degrees * lab) - lab @ (w @ lab))
    smooth += cfg.gamma_g * float(lab @ lab)
    quant = cfg.gamma_q * (state.n_nodes ** 2) / points.shape[0] * float(
        ((points - state.centroids[state.assignment]) ** 2).sum())
    return fit + smooth + quant


def _propagate_and_score(state: BackboneState, cfg: JointConfig, points: np.ndarray) -> float:
    """Propagate labels on the current backbone and return the objective
    there; the backbone graph depends on the centroids only, so one build
    serves both."""
    w = _backbone_weights(state)
    state.soft_labels = _propagate(state, cfg, w)
    with np.errstate(over="ignore", invalid="ignore"):
        obj = _objective(state, cfg, points, w)
    _check_finite(state, obj)
    return obj


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
    sigma = resolve_sigma(cfg.sigma, ps.points)
    rng = PortableRng(seed)
    unlabeled_idx = np.flatnonzero(ps.labels == 0)
    pool = ps.points[unlabeled_idx]
    if cfg.kmeans_init:
        seeds = _kmeans_seed(pool, cfg.k, rng, ps.feature_weights)
    else:
        seeds = ps.points[unlabeled_idx[rng.choice(unlabeled_idx.size, cfg.k)]]
    centroids = np.vstack([ps.points[labeled_idx], seeds])
    assign = _pinned_assigner(ps.points, centroids[:m], ps.feature_weights)

    state = BackboneState(
        centroids=centroids,
        pinned_labels=ps.labels[labeled_idx].copy(),
        soft_labels=np.concatenate([ps.labels[labeled_idx].astype(np.float64),
                                    np.zeros(cfg.k)]),
        assignment=assign(centroids),
        sigma=sigma,
        feature_weights=ps.feature_weights,
    )

    prev_obj = None
    for _ in range(MAX_OUTER):
        obj = _propagate_and_score(state, cfg, ps.points)
        state.objective_trace.append(obj)
        for _ in range(INNER_CAP):
            state.centroids = quantization_step(state, cfg, ps.points)
            new_assign = assign(state.centroids)
            reseeded = _reseed_empty(state.centroids, m, new_assign, pool, ps.feature_weights)
            if reseeded:
                new_assign = assign(state.centroids)
            changed = bool(np.any(new_assign != state.assignment)) or reseeded
            state.assignment = new_assign
            if not changed:
                break
        if prev_obj is not None and abs(prev_obj - obj) <= CONV_TOL * max(abs(prev_obj), 1.0):
            break
        prev_obj = obj
    state.objective_trace.append(_propagate_and_score(state, cfg, ps.points))
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
    nearest = _nearest(pool, centroids, psi)[1]
    for j in empty:
        far = int(np.argmax(nearest))
        centroids[j] = pool[far]
        nearest = np.minimum(nearest, _nearest(pool, centroids[j:j + 1], psi)[1])
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
